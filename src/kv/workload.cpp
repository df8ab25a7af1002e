#include "kv/workload.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "record/recorder.hpp"
#include "record/stream.hpp"
#include "substrate/rng.hpp"
#include "substrate/threading.hpp"

namespace mtx::kv {

namespace {

using Clock = std::chrono::steady_clock;

// Per-thread tallies of the deterministic op plan.  Values use the kv-layer
// keyed form (kv::value_of / value_form_ok): every write path preserves it,
// so scans, gets and snapshot reads audit any value they see against the
// key it was filed under — schedule-independent, shared with the serving
// tier.
struct Tally {
  std::uint64_t reads = 0, updates = 0, inserts = 0, scans = 0, rmws = 0,
                snaps = 0;
};

}  // namespace

const std::vector<Mix>& standard_mixes() {
  static const std::vector<Mix> mixes = [] {
    std::vector<Mix> v;
    // YCSB A/B/C on Zipfian(0.99) keys.
    v.push_back({"a", 50, 50, 0, 0, 0, 0, KeyDist::zipfian, 0.99});
    v.push_back({"b", 95, 5, 0, 0, 0, 0, KeyDist::zipfian, 0.99});
    v.push_back({"c", 100, 0, 0, 0, 0, 0, KeyDist::zipfian, 0.99});
    // Mixed-access scenarios: the §5 protocols under load.
    v.push_back({"priv_heavy", 40, 25, 10, 20, 5, 0, KeyDist::uniform, 0.99});
    v.push_back({"pub_heavy", 20, 10, 5, 0, 10, 55, KeyDist::zipfian, 0.99});
    // Serving-tier scenario: 90% reads, 80% of key draws over a 16-key hot
    // set layered on Zipfian — the contended cache-line shape the network
    // front end routes through the snapshot publication path.
    v.push_back({"hot", 90, 8, 0, 0, 2, 0, KeyDist::zipfian, 0.99, 80, 16});
    return v;
  }();
  return mixes;
}

OpKind draw_op(Rng& rng, const Mix& mix) {
  const std::uint64_t dice = rng.below(100);
  std::uint64_t edge = static_cast<std::uint64_t>(mix.read_pct);
  if (dice < edge) return OpKind::read;
  if (dice < (edge += static_cast<std::uint64_t>(mix.update_pct)))
    return OpKind::update;
  if (dice < (edge += static_cast<std::uint64_t>(mix.insert_pct)))
    return OpKind::insert;
  if (dice < (edge += static_cast<std::uint64_t>(mix.scan_pct)))
    return OpKind::scan;
  if (dice < (edge += static_cast<std::uint64_t>(mix.rmw_pct)))
    return OpKind::rmw;
  return OpKind::snap;
}

KeyChooser::KeyChooser(const Mix& mix, std::size_t space)
    : space_(space ? space : 1),
      hot_pct_(mix.hot_pct),
      hot_set_(std::min(std::max<std::size_t>(1, mix.hot_set), space_)) {
  if (mix.dist == KeyDist::zipfian) zipf_.emplace(space_, mix.theta);
}

std::int64_t KeyChooser::next(Rng& rng) const {
  // The layer dice is drawn only when the layer is on: mixes with
  // hot_pct == 0 keep the exact pre-layer Rng stream, so their planned op
  // counts and single-thread final states stay pinned.
  if (hot_pct_ > 0 && rng.below(100) < static_cast<std::uint64_t>(hot_pct_))
    return static_cast<std::int64_t>(rng.below(hot_set_));
  return static_cast<std::int64_t>(zipf_ ? zipf_->next(rng)
                                         : rng.below(space_));
}

const Mix* mix_by_name(const std::string& name) {
  for (const Mix& m : standard_mixes())
    if (m.name == name) return &m;
  return nullptr;
}

KvResult run_kv_workload(stm::StmBackend& stm, const Mix& mix,
                         const KvWorkloadOptions& opts) {
  if (mix.total_pct() != 100)
    throw std::invalid_argument("kv mix '" + mix.name +
                                "' percentages sum to " +
                                std::to_string(mix.total_pct()) + ", not 100");
  const std::size_t threads = std::max<std::size_t>(1, opts.threads);
  const std::size_t preload = std::max<std::size_t>(1, opts.store.preload_keys);
  const std::size_t snap_count =
      std::max<std::size_t>(1, std::min(opts.store.snap_keys, preload));
  const std::size_t every = opts.round_ops > 0 ? opts.sample_every : 0;
  const bool checked = every > 0;

  KvResult res;
  res.mix = mix.name;
  res.backend = stm.name();
  res.threads = threads;
  res.ops = static_cast<std::uint64_t>(threads) * opts.ops_per_thread;

  KvStore::Options sopt;
  sopt.shards = opts.store.shards;
  sopt.expected_keys = preload * 2;
  sopt.snap_slots = snap_count;  // per shard: generous, so no key is dropped
  sopt.scoped_fences = opts.scoped_fences;
  KvStore store(stm, sopt);

  // Load phase (unrecorded, single-threaded): preload + publish the frozen
  // snapshot of the hottest ranks.  Everything after this point may be
  // recorded, and the first recorded transaction re-establishes this state
  // (KvStore::replay_state_plain).
  for (std::size_t k = 0; k < preload; ++k)
    store.put(static_cast<std::int64_t>(k), value_of(static_cast<std::int64_t>(k), 0));
  std::vector<std::int64_t> snap_keys(snap_count);
  for (std::size_t k = 0; k < snap_count; ++k)
    snap_keys[k] = static_cast<std::int64_t>(k);
  store.publish_snapshot(snap_keys);

  const KeyChooser chooser(mix, preload);

  const std::size_t rounds =
      checked ? (opts.ops_per_thread + opts.round_ops - 1) / opts.round_ops
              : 1;
  const auto sampled_round = [&](std::size_t r) { return r % every == 0; };

  SpinBarrier barrier(threads + 1);  // workers + coordinator (checked runs)

  // One continuous session for the whole run, one ring per producer (slot
  // 0 = the coordinator's replay transaction); the cutter and checker
  // threads live for the duration of the workload.
  std::unique_ptr<record::RecordSession> session;
  std::unique_ptr<record::StreamConformance> stream;
  if (checked) {
    session = std::make_unique<record::RecordSession>();
    std::vector<int> producer_threads(threads + 1);
    for (std::size_t t = 0; t <= threads; ++t)
      producer_threads[t] = static_cast<int>(t);
    record::StreamOptions sropts;
    sropts.ring_capacity = opts.stream_ring_capacity;
    // Hold segments to the backend's declared guarantee: full opacity for
    // zombie-free backends, the committed-subsystem projection otherwise
    // (the Example 3.4 class).
    sropts.require_full_opacity = stm.zombie_free();
    sropts.compare_posthoc = opts.stream_compare_posthoc;
    // At sparser sampling levels the cutter misses the unsampled rounds'
    // writes, so its tracked state is stale: carries off, replays anchor.
    sropts.synthesize_carry = every == 1;
    stream = std::make_unique<record::StreamConformance>(
        *session, std::move(producer_threads), sropts);
  }

  std::atomic<bool> values_wellformed{true};
  std::mutex merge_mu;
  Tally total;
  LatencyHist hist;

  auto worker = [&](std::size_t tid) {
    Rng rng(opts.seed * 0x9e3779b9ULL + tid * 131 + 1);
    Tally local;
    LatencyHist lhist;
    // Publication handoff: one transactional read of snap_ready orders all
    // of this thread's later plain snapshot loads after the publish commit.
    store.snapshot_attach();

    auto run_ops = [&](std::uint64_t first, std::uint64_t n) {
      for (std::uint64_t i = first; i < first + n; ++i) {
        const auto t0 = Clock::now();
        // Draw order (op dice, then key) is the determinism contract — the
        // shared draw_op/KeyChooser helpers consume the same Rng stream the
        // pre-shared driver did for every hot-layer-free mix.
        switch (draw_op(rng, mix)) {
          case OpKind::read: {
            const std::int64_t key = chooser.next(rng);
            std::int64_t v = 0;
            if (!store.get(key, &v) || !value_form_ok(key, v))
              values_wellformed = false;
            ++local.reads;
            break;
          }
          case OpKind::update: {
            const std::int64_t key = chooser.next(rng);
            store.put(key, value_of(key, static_cast<std::int64_t>(
                                             tid * 7919 + i)));
            ++local.updates;
            break;
          }
          case OpKind::insert: {
            // Unique fresh key per (thread, op index): deterministic, and
            // the final size() audit becomes exact.
            const auto key = static_cast<std::int64_t>(
                preload + tid * opts.ops_per_thread + i);
            store.put(key, value_of(key, static_cast<std::int64_t>(i)));
            ++local.inserts;
            break;
          }
          case OpKind::scan: {
            const std::size_t shard = rng.below(store.shards());
            store.privatize_scan(shard, [&](std::int64_t k, std::int64_t v) {
              if (!value_form_ok(k, v)) values_wellformed = false;
            });
            ++local.scans;
            break;
          }
          case OpKind::rmw: {
            const std::int64_t key = chooser.next(rng);
            store.rmw(key, [key](std::int64_t old) {
              return value_of(key, payload_of(old) + 1);
            });
            ++local.rmws;
            break;
          }
          case OpKind::snap: {
            const auto key = static_cast<std::int64_t>(rng.below(snap_count));
            std::int64_t v = 0;
            if (store.snapshot_read(key, &v) && !value_form_ok(key, v))
              values_wellformed = false;
            ++local.snaps;
            break;
          }
        }
        lhist.add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 t0)
                .count()));
      }
    };

    if (!checked) {
      run_ops(0, opts.ops_per_thread);
    } else {
      // Always-on level: one recorder for the whole run, streaming through
      // this thread's ring.  Nothing is recorded before round 0's replay
      // (barrier B), so every recorded read resolves inside the stream.
      // Sparser levels attach a fresh recorder per sampled round instead —
      // unsampled rounds run with no observer installed at all.
      std::unique_ptr<record::ScopedRecorder> rec;
      if (every == 1) {
        rec = std::make_unique<record::ScopedRecorder>(
            *session, static_cast<int>(tid) + 1);
        rec->rec().stream_to(&stream->ring(tid + 1));
      }
      std::uint64_t done = 0;
      std::uint64_t epoch = 0;
      for (std::size_t r = 0; r < rounds; ++r) {
        const std::uint64_t n =
            std::min<std::uint64_t>(opts.round_ops, opts.ops_per_thread - done);
        if (sampled_round(r)) {
          barrier.arrive_and_wait();  // A: round start, nothing in flight
          barrier.arrive_and_wait();  // B: the round's replay is recorded
          std::unique_ptr<record::ScopedRecorder> per_round;
          record::ThreadRecorder* tr;
          if (rec) {
            tr = &rec->rec();
          } else {
            per_round = std::make_unique<record::ScopedRecorder>(
                *session, static_cast<int>(tid) + 1);
            per_round->rec().stream_to(&stream->ring(tid + 1));
            tr = &per_round->rec();
          }
          // Per-segment publication handoff: hb reaches a PLAIN read only
          // through a transactional read in its own thread (cwr then po), so
          // each segment needs its own snap_ready read to order this
          // thread's plain snapshot loads after the carry transaction.
          store.snapshot_attach();
          run_ops(done, n);
          // Segment boundary: this thread's sampled-round events all precede
          // the mark; the cutter seals the epoch once every ring marked it.
          // mark_epoch flushes first, so a per-round recorder may detach
          // right after.
          tr->mark_epoch(epoch++);
          barrier.arrive_and_wait();  // C: round end, all txns resolved
        } else {
          // Unsampled round: nothing recorded, no segment sealed — and no
          // barriers either.  Only sampled-round boundaries must be
          // quiescent, so consecutive unsampled rounds run as one
          // unrecorded, unsynchronized stretch at full speed.
          run_ops(done, n);
        }
        done += n;
      }
      if (rec) rec->rec().flush();
    }

    std::lock_guard<std::mutex> g(merge_mu);
    total.reads += local.reads;
    total.updates += local.updates;
    total.inserts += local.inserts;
    total.scans += local.scans;
    total.rmws += local.rmws;
    total.snaps += local.snaps;
    hist.merge(lhist);
  };

  // Coordinator.  At the always-on level it replays the preload
  // state ONCE, as the stream's first recorded transaction (round 0,
  // between A and B) — it both anchors segment 0's reads and teaches the
  // cutter the full store state, from which every later segment's carry is
  // synthesized.  At sparser levels carries are off, so it re-replays the
  // current state before EVERY sampled round.  Marks its (otherwise idle)
  // ring each sampled round so sealing never waits on slot 0.
  auto coordinator = [&] {
    record::ScopedRecorder rec(*session, 0);
    rec.rec().stream_to(&stream->ring(0));
    std::uint64_t epoch = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
      if (!sampled_round(r)) continue;  // workers run these barrier-free
      barrier.arrive_and_wait();  // A
      if (r == 0 || every > 1) {
        rec.rec().synthetic_begin();
        store.replay_state_plain();
        rec.rec().synthetic_commit();
      }
      barrier.arrive_and_wait();  // B
      rec.rec().mark_epoch(epoch++);
      barrier.arrive_and_wait();  // C
    }
    rec.rec().flush();
  };

  const auto t0 = Clock::now();
  run_team(threads + (checked ? 1 : 0), [&](std::size_t tid) {
    if (checked && tid == threads)
      coordinator();
    else
      worker(tid);
  });
  res.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  res.reads = total.reads;
  res.updates = total.updates;
  res.inserts = total.inserts;
  res.scans = total.scans;
  res.rmws = total.rmws;
  res.snap_reads = total.snaps;
  res.hist = hist;
  res.p50_ns = hist.p50();
  res.p95_ns = hist.p95();
  res.p99_ns = hist.p99();
  res.ops_per_sec =
      res.wall_ms > 0 ? static_cast<double>(res.ops) / (res.wall_ms / 1e3) : 0;
  for (std::size_t s = 0; s < store.shards(); ++s) {
    const ShardStats st = store.stats(s);
    res.scans_completed += st.scans;
    res.priv_waits += st.priv_waits;
  }

  // Post-run transactional audit: every preloaded key present with a
  // well-formed value, the store grew by exactly the insert count, and the
  // frozen snapshot still serves the load-phase values.
  bool audit = values_wellformed.load();
  for (std::size_t k = 0; k < preload && audit; ++k) {
    std::int64_t v = 0;
    const auto key = static_cast<std::int64_t>(k);
    if (!store.get(key, &v) || !value_form_ok(key, v)) audit = false;
  }
  if (store.size() != preload + total.inserts) audit = false;
  store.snapshot_attach();
  for (std::size_t k = 0; k < snap_count && audit; ++k) {
    std::int64_t v = 0;
    const auto key = static_cast<std::int64_t>(k);
    if (!store.snapshot_read(key, &v) || v != value_of(key, 0)) audit = false;
  }
  res.invariant_ok = audit;

  // Streaming verdicts: most segments were judged while the workload ran;
  // finish() drains the tail and merges.  (Outside wall_ms, so throughput
  // compares capture overhead only.)
  if (checked) {
    const record::StreamReport srep = stream->finish();
    res.conf.sessions = srep.segments;
    res.conf.windows = srep.windows;
    res.conf.nonconformant = srep.nonconformant;
    res.conf.recorded_actions = srep.checked_events;
    res.conf.ring_dropped = srep.ring_dropped;
    res.conf.overflow = srep.overflow;
    res.conf.max_backlog = srep.max_backlog;
    res.conf.posthoc_checked = srep.posthoc_checked;
    res.conf.posthoc_match = srep.posthoc_match;
  }

  res.fence_calls = stm.registry().fence_calls();
  res.epoch_advances = stm.registry().epoch_advances();
  return res;
}

}  // namespace mtx::kv
