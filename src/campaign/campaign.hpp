// The litmus campaign engine: sweep the whole reproduction catalog across
// model configurations on all cores, with reproducible output.
//
// A campaign is a flat list of jobs — one per (catalog entry, model config)
// pair the paper pins a verdict for.  Each job's candidate space can further
// be split into GraphEnum subspaces (control-path combo x reads-from slice),
// and every (job, subspace) shard runs as one work-stealing pool task.
// Shard outcome sets merge through std::set union and rows are emitted in
// catalog order, so the verdict table is a pure function of the catalog and
// options — byte-identical between serial and parallel runs (the
// test_campaign determinism suite pins this down).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/fuzz.hpp"
#include "fuzz/kvproto.hpp"
#include "litmus/catalog.hpp"

namespace mtx::campaign {

// Fuzz generator defaults: small mixed programs with fences on, so the
// implementation model's HBCQ/HBQB machinery is exercised end to end.
inline lit::RandomProgramParams default_fuzz_params() {
  lit::RandomProgramParams p;
  p.fence_percent = 20;
  return p;
}

struct CampaignOptions {
  // Worker threads; 0 = hardware concurrency, 1 = serial reference mode.
  std::size_t threads = 0;
  // Run the litmus verdict catalog (off = recorded-execution jobs only).
  bool litmus_jobs = true;
  // When true, each program's candidate space is additionally split into
  // subspaces of at most `rf_chunk` reads-from tuples (0 picks a default),
  // so a single heavyweight program parallelizes too.
  bool split_programs = false;
  std::uint64_t rf_chunk = 0;
  // Per-job enumeration budgets (per shard when splitting).  Budget hits
  // are recorded per row; see README "Determinism and truncation" for why
  // byte-identical serial/parallel reports are only claimed for
  // untruncated rows.
  std::uint64_t node_budget = 4'000'000;
  std::uint64_t time_budget_ms = 0;  // 0 = unbounded

  // ----- recorded-execution conformance jobs -----
  // When enabled, the campaign also runs every recorded workload on every
  // registered STM backend at each listed thread count, assembles the
  // recorded execution into a model::Trace, and judges it with the model
  // layer (well-formedness, L-races, mixed races, opacity).  Rows appear
  // next to the litmus verdict rows in the reports.
  bool record_jobs = false;
  std::vector<std::size_t> record_threads = {1, 4};
  int record_ops = 8;             // operations per worker thread
  std::uint64_t record_seed = 42;
  // Judge recordings with the fence-bounded windowed checker (verdicts are
  // identical to the monolithic checker on valid cuts; the windowed engine
  // just scales to far longer recordings).  Off = monolithic reference mode.
  bool record_windowed = true;
  std::size_t record_window_min = 64;  // minimum source events per window

  // ----- KV workload conformance jobs -----
  // When enabled, the campaign runs every standard KV mix (YCSB A/B/C plus
  // priv_heavy and pub_heavy) on every registered backend at each listed
  // thread count, with streaming runtime conformance on: every
  // kv_sample_every-th round of each run is recorded and judged by the
  // model layer while the run continues.  Rows appear
  // beside the litmus/record/fuzz rows; a row with a non-conformant window
  // or a failed store audit counts as a mismatch.
  bool kv_jobs = false;
  std::vector<std::size_t> kv_threads = {1, 3};
  std::uint64_t kv_ops = 64;       // operations per worker thread
  std::uint64_t kv_seed = 11;
  std::size_t kv_keys = 32;        // preloaded key-space (kept small: each
                                   // sampled segment's state replay
                                   // re-establishes O(cells) state, and CI
                                   // judges many grid cells)
  std::size_t kv_shards = 2;
  // Streaming sampling level: 0 = unchecked (perf-only rows), 1 = always-on,
  // N = every Nth round, each sampled segment re-anchored by a state replay.
  std::size_t kv_sample_every = 4;
  // Per-shard quiescence domains (the default).  False restores whole-store
  // fences — the A/B baseline: both settings must produce identical
  // verdict signatures (pinned by tests/test_kv.cpp).
  bool kv_scoped_fences = true;

  // ----- network serving smoke jobs -----
  // When enabled, the campaign also runs a short loopback serving smoke per
  // backend, batched (max_batch = net_batch) and unbatched (max_batch = 1):
  // an in-process Server driven by the open-loop load generator on the hot
  // mix, with streaming conformance judging the served traffic.  Rows appear
  // beside the KV rows; any non-conformant segment, ring drop, bad frame,
  // client error or malformed value counts as a mismatch.
  bool net_jobs = false;
  std::size_t net_conns = 2;
  double net_rate = 2000;        // aggregate intended arrivals per second
  std::uint64_t net_ops = 128;   // per connection
  std::size_t net_keys = 256;
  std::size_t net_shards = 4;
  std::size_t net_snap = 8;
  std::size_t net_batch = 8;     // batched-mode coalescing cap
  std::size_t net_refresh = 256; // snapshot refresh cadence (requests)
  // Reactor counts to smoke per (backend, mode); entries above net_shards
  // are skipped (ServerConfig::validate would reject them).
  std::vector<std::size_t> net_reactors = {1, 2};
  std::uint64_t net_seed = 7;

  // ----- live-migration protocol jobs -----
  // When enabled, the campaign runs the kvproto oracle (fuzz/kvproto.hpp)
  // over backend x {split, move, merge} x thread-count with the REAL
  // migration engine — every row must be conformant — and, unless baits
  // are disabled, one row per backend x kind x bait variant, where the
  // row passes only if the sabotaged engine both trips the oracle AND
  // shrinks to a reproducer.  A silent bait is a detection gap and counts
  // as a mismatch like any violation.
  bool migrate_jobs = false;
  std::vector<std::size_t> migrate_threads = {1, 2};
  std::uint64_t migrate_ops = 8;
  std::size_t migrate_keys = 24;
  std::size_t migrate_shards = 4;
  std::uint64_t migrate_seed = 1;
  bool migrate_baits = true;
  bool migrate_shrink = true;

  // ----- differential fuzz jobs -----
  // When > 0, generates `fuzz_count` random litmus programs from fuzz_seed,
  // runs each on every registered backend under fuzz_sched_rounds schedule
  // seeds, and judges the recorded executions against the model (see
  // fuzz/fuzz.hpp for the conformance criteria).  Rows appear beside the
  // litmus and recorded rows; non-conformant rows count as mismatches.
  int fuzz_count = 0;
  std::uint64_t fuzz_seed = 1;
  int fuzz_sched_rounds = 2;
  bool fuzz_shrink = true;
  std::string fuzz_repro_dir;  // write shrunk reproducers here ("" = don't)
  // Wall-clock budget for the fuzz grid; jobs past the deadline report as
  // skipped rather than silently vanishing.  0 = unbounded.
  std::uint64_t fuzz_time_budget_ms = 0;
  lit::RandomProgramParams fuzz_params = default_fuzz_params();
};

// One (catalog entry, expectation) verdict plus its execution record.
struct JobResult {
  lit::VerdictRow row;
  bool truncated = false;
  bool timed_out = false;
  double millis = 0;  // wall time of this job (sum of its shards' times)
};

// One recorded-execution conformance verdict: a (workload, backend,
// thread-count) STM run judged by the model layer.
struct RecordRow {
  std::string workload;
  std::string backend;
  std::size_t threads = 0;

  bool wellformed = false;
  std::size_t l_races = 0;
  bool mixed_race = false;
  bool opaque = false;            // all txns, aborted readers included
  bool opaque_committed = false;  // committed subsystem only
  bool zombie_free = false;       // does this backend promise full opacity?
  bool consistent = false;    // §2 axioms (informational)
  bool invariant_ok = false;  // the workload's own correctness check
  std::size_t actions = 0;
  std::size_t committed = 0;  // deterministic given (workload, seed, threads)
  std::size_t aborted = 0;    // scheduling-dependent (conflict retries)
  std::size_t windows = 1;    // fence-bounded windows judged (1 = monolithic)
  std::string plain_order;

  // Conformant: the model passes the recorded execution.  Opacity is held
  // to each backend's declared guarantee: zombie-free backends must be
  // opaque including aborted readers; the eager (Example 3.4) class is
  // judged on the committed subsystem.
  bool ok() const {
    return wellformed && l_races == 0 && !mixed_race &&
           (zombie_free ? opaque : opaque_committed) && invariant_ok;
  }
  double millis = 0;
};

// One KV workload conformance verdict: a (mix, backend, thread-count) run
// of the sharded KV engine with streaming conformance, judged by the model.
struct KvRow {
  std::string mix;
  std::string backend;
  std::size_t threads = 0;

  // Schedule-independent (pure function of mix x seed x threads x ops; the
  // CSV and signature surfaces expose only these).
  std::uint64_t ops = 0;
  std::uint64_t reads = 0, updates = 0, inserts = 0, scans = 0, rmws = 0,
                snap_reads = 0;
  bool invariant_ok = false;

  // Streaming conformance verdict (sessions/windows vary with scheduling;
  // nonconformant must be 0 on every schedule).
  std::size_t sessions = 0;
  std::size_t windows = 0;
  std::size_t nonconformant = 0;
  bool overflow = false;           // streaming ring drop (poisons the row)

  // Informational measurements.
  double ops_per_sec = 0;
  std::uint64_t p50_ns = 0, p95_ns = 0, p99_ns = 0;
  std::uint64_t fence_calls = 0;     // backend quiescence registry counters
  std::uint64_t epoch_advances = 0;
  std::uint64_t ring_dropped = 0;    // streaming capture health
  std::size_t max_backlog = 0;
  double millis = 0;

  bool ok() const { return nonconformant == 0 && invariant_ok && !overflow; }
};

// One loopback serving smoke verdict: a (backend, batching mode) run of the
// binary-protocol front end under open-loop load, judged by the streaming
// conformance pipeline over the served traffic.
struct NetRow {
  std::string backend;
  bool batched = false;  // max_batch > 1 vs the unbatched A/B baseline
  std::size_t reactors = 1;  // event loops serving this row

  // Schedule-independent (the open-loop generator always sends its whole
  // schedule; conformant rows complete every op).
  std::uint64_t intended = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t form_violations = 0;

  // Server-side health + streaming verdict (segment/window counts vary with
  // scheduling; nonconformant must be 0 on every schedule).
  std::uint64_t frames = 0;
  std::uint64_t bad_frames = 0;
  std::uint64_t transactions = 0;  // batching: < completed when coalescing
  std::uint64_t handoffs = 0;      // cross-reactor mailbox shipments
  std::size_t segments = 0;
  std::size_t windows = 0;
  std::size_t nonconformant = 0;
  std::uint64_t ring_dropped = 0;
  bool overflow = false;
  bool streamed = false;

  // Informational measurements.
  double achieved_per_sec = 0;
  std::uint64_t p99_ns = 0;
  double millis = 0;

  bool ok() const {
    return errors == 0 && form_violations == 0 && completed == intended &&
           bad_frames == 0 && nonconformant == 0 && ring_dropped == 0 &&
           !overflow;
  }
};

struct CampaignResult {
  std::vector<JobResult> jobs;    // catalog order, schedule-independent
  std::vector<RecordRow> recorded;  // backend x workload x threads order
  std::vector<KvRow> kv;            // mix x backend x threads grid order
  std::vector<NetRow> net;  // backend x {batched, unbatched} x reactors order
  // backend x kind x threads (bait = none), then backend x kind x bait.
  std::vector<fuzz::KvProtoRow> migrate;
  std::vector<fuzz::FuzzRow> fuzzed;  // program x backend grid order
  std::size_t mismatches = 0;     // rows where measured != paper, plus
                                  // non-conformant recorded and fuzz rows
  std::size_t threads_used = 1;
  std::size_t shard_count = 0;    // pool tasks executed
  double wall_ms = 0;
};

// Runs every catalog entry under every expected config, plus (when
// opts.record_jobs) the recorded-execution conformance grid.
CampaignResult run_campaign(const CampaignOptions& opts = {});

// Canonical signature of the verdict content (everything except timings and
// scheduling-dependent counters): two campaigns agree iff their signatures
// are byte-identical.
std::string verdict_signature(const CampaignResult& r);

}  // namespace mtx::campaign
