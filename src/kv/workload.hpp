// YCSB-style workload driver for the sharded KV store: mix descriptions
// (operation percentages + key distribution), a multi-threaded driver
// producing throughput and log-scale latency quantiles, and an opt-in
// streaming-conformance mode that records the execution while it runs and
// has the model layer judge it — the serving layer audited online.
//
// Determinism contract: each worker draws its operation kinds, keys and
// payloads from its own Rng seeded by (seed, tid), so the PLANNED op
// stream — and therefore the per-class op counts reported in KvResult —
// is a pure function of (mix, seed, threads, ops_per_thread), independent
// of backend, scheduling, and sampling.  With threads == 1 the entire
// execution (final store contents included) is deterministic; the campaign
// CSV rows expose only these schedule-independent fields so same-seed runs
// diff clean (pinned by tests/test_kv.cpp).
//
// Checking is temporal, not per-thread: recording a subset of threads
// cannot work — reads-from against unrecorded writes would dangle — so
// execution is split into rounds of `round_ops` per thread, and every
// `sample_every`-th round runs with ALL threads recording.  Each thread
// pushes its events through a lock-free ring into the
// record::StreamConformance cutter, which seals a segment per sampled round
// (the round barrier is the quiescent epoch boundary) and judges it on
// checker threads WHILE the workload keeps running.  At the always-on level
// (sample_every == 1) the preload state is replayed once, as the first
// recorded transaction (KvStore::replay_state_plain), and every later
// segment opens with the cutter's own synthesized sparse carry; at sparser
// levels each sampled segment is re-anchored by its own recorded state
// replay, because the cutter has not seen the unsampled rounds' writes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "kv/kvstore.hpp"
#include "substrate/rng.hpp"
#include "substrate/stats.hpp"

namespace mtx::kv {

enum class KeyDist { uniform, zipfian };

// Operation percentages (must sum to 100) plus the key distribution.
//   read      transactional get of a preloaded key
//   update    transactional put of a preloaded key (fresh value payload)
//   insert    transactional put of a brand-new key
//   scan      privatize-scan of a random shard (plain-access read path)
//   rmw       transactional read-modify-write (payload bump) of a key
//   snap      snapshot-read (plain-access read of a frozen published value)
struct Mix {
  std::string name;
  int read_pct = 0;
  int update_pct = 0;
  int insert_pct = 0;
  int scan_pct = 0;
  int rmw_pct = 0;
  int snap_pct = 0;
  KeyDist dist = KeyDist::zipfian;
  double theta = 0.99;
  // Hot-set layer: hot_pct% of key draws come from the tiny set
  // [0, hot_set) regardless of the base distribution; the rest fall through
  // to dist/theta, so a hot scenario keeps its long-tail traffic.  0 = off
  // (and then the layer consumes no Rng values — existing mixes' planned
  // op streams are bit-identical to the pre-layer driver).
  int hot_pct = 0;
  std::size_t hot_set = 16;

  int total_pct() const {
    return read_pct + update_pct + insert_pct + scan_pct + rmw_pct + snap_pct;
  }
};

// {a, b, c, priv_heavy, pub_heavy, hot}: YCSB A (50/50 read/update), B
// (95/5), C (read-only) on Zipfian keys, the two mixed-access scenarios —
// priv_heavy leans on privatize-scan, pub_heavy on snapshot-read — and the
// serving-tier scenario `hot`: 90% reads with most key draws over a tiny
// hot set layered on Zipfian, shared by the in-process driver and the
// network load generator (bench/loadgen) so both speak one hot-key
// definition.
const std::vector<Mix>& standard_mixes();
const Mix* mix_by_name(const std::string& name);

// The op classes a mix draws from — one vocabulary for the in-process
// driver, the wire protocol and the load generator.
enum class OpKind { read, update, insert, scan, rmw, snap };

// Draws the next op class from the mix percentages.  Consumes exactly one
// Rng value — part of the determinism contract above.
OpKind draw_op(Rng& rng, const Mix& mix);

// Key chooser for a mix over `space` preloaded keys: the mix's base
// distribution (Zipfian(theta) or uniform) with the hot-set layer on top.
// Immutable after construction, safe to share across threads (each caller
// supplies its own Rng).  Consumes one Rng value per draw, plus one more
// for the layer dice only when the mix's hot layer is on.
class KeyChooser {
 public:
  KeyChooser(const Mix& mix, std::size_t space);
  std::int64_t next(Rng& rng) const;

 private:
  std::optional<Zipfian> zipf_;
  std::size_t space_;
  int hot_pct_;
  std::size_t hot_set_;
};

struct KvWorkloadOptions {
  std::size_t threads = 2;
  std::uint64_t seed = 1;
  std::uint64_t ops_per_thread = 1000;
  // Store geometry (shards / preload_keys / snap_keys) — the same shape
  // struct the serving tier and load generator embed, so a paired
  // configuration is ONE value.
  StoreShape store{4, 128, 16};
  // Per-shard quiescence domains (KvStore::Options::scoped_fences).  False
  // restores whole-store fences — the A/B baseline for the determinism pin
  // that scoped and unscoped runs give identical verdicts.
  bool scoped_fences = true;

  // Streaming conformance, the one checking knob: 0 = unchecked (no
  // rounds, no barriers — the pure performance path), 1 = always-on (every
  // round of round_ops per thread recorded and judged), N = every Nth
  // round, each sampled segment re-anchored by a recorded state replay;
  // unsampled rounds run unrecorded and barrier-free at full speed.
  std::size_t sample_every = 0;
  std::size_t round_ops = 32;
  std::size_t stream_ring_capacity = 1u << 14;  // slots per thread ring
  bool stream_compare_posthoc = false;  // also judge post-hoc and compare
};

struct KvConformance {
  std::size_t sessions = 0;       // segments sealed and judged
  std::size_t windows = 0;        // fence-bounded windows judged, total
  std::size_t nonconformant = 0;  // segments whose merged verdict fails
  std::size_t recorded_actions = 0;
  // Capture health.
  std::uint64_t ring_dropped = 0;
  bool overflow = false;
  std::size_t max_backlog = 0;
  // Streaming oracle (stream_compare_posthoc only).
  bool posthoc_checked = false;
  bool posthoc_match = false;
  bool all_ok() const { return nonconformant == 0 && !overflow; }
};

struct KvResult {
  std::string mix;
  std::string backend;
  std::size_t threads = 0;

  // Schedule-independent (pure function of mix/seed/threads/ops).
  std::uint64_t ops = 0;
  std::uint64_t reads = 0, updates = 0, inserts = 0, scans = 0, rmws = 0,
                snap_reads = 0;

  // Schedule-dependent measurements.
  double wall_ms = 0;
  double ops_per_sec = 0;
  std::uint64_t p50_ns = 0, p95_ns = 0, p99_ns = 0;
  LatencyHist hist;
  std::uint64_t scans_completed = 0;  // privatizations won (vs busy-skipped)
  std::uint64_t priv_waits = 0;       // mutator retries against closed shards

  bool invariant_ok = false;  // post-run transactional audit
  KvConformance conf;

  // Runtime counters (backend quiescence registry + streaming capture).
  std::uint64_t fence_calls = 0;     // QuiescenceRegistry::fence_calls
  std::uint64_t epoch_advances = 0;  // QuiescenceRegistry::epoch_advances
};

// Runs `mix` against a fresh KvStore on `stm`.  Throws std::invalid_argument
// when the mix percentages don't sum to 100.
KvResult run_kv_workload(stm::StmBackend& stm, const Mix& mix,
                         const KvWorkloadOptions& opts = {});

}  // namespace mtx::kv
