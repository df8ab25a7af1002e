// KV workload engine bench: every registered backend x every standard mix
// (YCSB A/B/C, priv_heavy, pub_heavy) x 1..N threads, reporting throughput
// and p50/p95/p99 latency from the log-scale LatencyHist — the BENCH_kv.json
// perf trajectory for the serving layer.
//
// A second section measures privatization scaling: priv_heavy (unchecked)
// on the domain-aware backends at shard counts 1 and N with per-shard
// quiescence domains, plus shards=N with whole-store fences as the control.
// With scoped fences a scan quiesces only its own shard, so multi-shard
// throughput should not collapse to the single-domain baseline.
// --assert-priv-scaling turns that into a hard check (exit 1 when
// multi-shard scoped < --priv-min-ratio x single-shard); CI runs it on a
// multi-core runner.
//
// A third section measures the streaming conformance tax at each sampling
// level: the same priv_heavy geometry runs unchecked (no rounds — the pure
// perf path) and streaming-checked at level 1 (always-on: every round
// through the per-thread rings, segments judged concurrently) and at the CI
// sampling level (--stream-sample, default 8: every Nth round recorded and
// judged, the rest at full speed) on every backend.  Each checked/unchecked
// throughput ratio lands in BENCH_kv.json's `stream_overhead`.  It is also
// the bench's conformance smoke: any non-conformant segment, ring drop or
// failed store audit fails the bench.  --assert-stream-overhead turns the
// CI-level ratio into a hard floor (exit 1 when checked < --stream-min-ratio
// x unchecked, default 0.5): checking at the CI sampling level may halve
// throughput, never worse.  On a single-hardware-thread host the assertion is skipped
// (reported, not enforced): with one core the ratio measures scheduler
// contention between the serving thread and the cutter/checkers, not the
// capture tax the floor is about.
//
// Usage: bench_kv [--ops N] [--threads-max N] [--keys N] [--scaling-shards N]
//                 [--assert-priv-scaling] [--priv-min-ratio R]
//                 [--assert-stream-overhead] [--stream-min-ratio R]
//                 [--stream-sample N] [--out PATH]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/report.hpp"
#include "kv/workload.hpp"
#include "stm/backend.hpp"
#include "substrate/format.hpp"
#include "substrate/threading.hpp"

namespace {

using namespace mtx;

struct ScalingRow {
  std::string backend;
  std::size_t shards = 0;
  bool scoped = false;
  double ops_per_sec = 0;
  std::uint64_t priv_waits = 0;
};

struct StreamRow {
  std::string backend;
  std::size_t sample_every = 1;  // sampling level of the checked run
  double unchecked_ops_per_sec = 0;
  double checked_ops_per_sec = 0;
  double ratio = 0;  // checked / unchecked
  std::size_t segments = 0, windows = 0, nonconformant = 0;
  std::uint64_t ring_dropped = 0;
  std::size_t max_backlog = 0;
  bool overflow = false;
};

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t ops = 20000;
  std::size_t threads_max = std::min<std::size_t>(hw_threads(), 4);
  std::size_t keys = 2048;
  std::size_t scaling_shards = 4;
  bool assert_priv_scaling = false;
  double priv_min_ratio = 0.9;
  bool assert_stream_overhead = false;
  double stream_min_ratio = 0.5;
  std::size_t stream_sample = 8;  // the CI sampling level
  std::string out_path = "BENCH_kv.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ops") == 0 && i + 1 < argc)
      ops = static_cast<std::uint64_t>(std::max(1ll, std::atoll(argv[++i])));
    else if (std::strcmp(argv[i], "--threads-max") == 0 && i + 1 < argc)
      threads_max = static_cast<std::size_t>(std::max(1ll, std::atoll(argv[++i])));
    else if (std::strcmp(argv[i], "--keys") == 0 && i + 1 < argc)
      keys = static_cast<std::size_t>(std::max(1ll, std::atoll(argv[++i])));
    else if (std::strcmp(argv[i], "--scaling-shards") == 0 && i + 1 < argc)
      scaling_shards = static_cast<std::size_t>(std::max(2ll, std::atoll(argv[++i])));
    else if (std::strcmp(argv[i], "--assert-priv-scaling") == 0)
      assert_priv_scaling = true;
    else if (std::strcmp(argv[i], "--priv-min-ratio") == 0 && i + 1 < argc)
      priv_min_ratio = std::atof(argv[++i]);
    else if (std::strcmp(argv[i], "--assert-stream-overhead") == 0)
      assert_stream_overhead = true;
    else if (std::strcmp(argv[i], "--stream-min-ratio") == 0 && i + 1 < argc)
      stream_min_ratio = std::atof(argv[++i]);
    else if (std::strcmp(argv[i], "--stream-sample") == 0 && i + 1 < argc)
      stream_sample = static_cast<std::size_t>(std::max(1ll, std::atoll(argv[++i])));
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
    else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  bool all_ok = true;

  // Perf grid: unchecked, realistic key space.
  std::vector<kv::KvResult> rows;
  Table table({"backend", "mix", "threads", "ops/s", "p50us", "p95us", "p99us"});
  for (const std::string& backend : stm::backend_names()) {
    for (const kv::Mix& mix : kv::standard_mixes()) {
      for (std::size_t t = 1; t <= threads_max; t *= 2) {
        auto stm = stm::make_backend(backend);
        kv::KvWorkloadOptions o;
        o.threads = t;
        o.seed = 31;
        o.ops_per_thread = ops / t;  // fixed total work per row
        o.store.preload_keys = keys;
        o.store.shards = 8;
        o.store.snap_keys = 32;
        kv::KvResult r = kv::run_kv_workload(*stm, mix, o);
        all_ok = all_ok && r.invariant_ok;
        table.add_row({r.backend, r.mix, std::to_string(r.threads),
                       fixed(r.ops_per_sec, 0),
                       fixed(static_cast<double>(r.p50_ns) / 1e3, 2),
                       fixed(static_cast<double>(r.p95_ns) / 1e3, 2),
                       fixed(static_cast<double>(r.p99_ns) / 1e3, 2)});
        rows.push_back(std::move(r));
      }
    }
  }
  std::printf("%s\n", table.render().c_str());

  // Privatization scaling: the tentpole claim of per-shard quiescence
  // domains.  Backends with real scoped wait paths (tl2, norec) run
  // priv_heavy at shards=1 (every scan fences everything — the pre-domain
  // worst case by construction), shards=N scoped (a scan fences only its
  // shard), and shards=N with whole-store fences (the control separating
  // domain locality from plain sharding).
  std::vector<ScalingRow> scaling;
  bool scaling_ok = true;
  Table stable({"backend", "shards", "fences", "ops/s", "priv_waits"});
  const std::size_t sthreads = std::min<std::size_t>(hw_threads(), 4);
  struct ScalingCfg {
    std::size_t shards;
    bool scoped;
  };
  for (const std::string& backend : {std::string("tl2"), std::string("norec")}) {
    double single = 0, multi = 0;
    for (const ScalingCfg& cfg : {ScalingCfg{1, true},
                                  ScalingCfg{scaling_shards, true},
                                  ScalingCfg{scaling_shards, false}}) {
      auto stm = stm::make_backend(backend);
      kv::KvWorkloadOptions o;
      o.threads = sthreads;
      o.seed = 53;
      o.ops_per_thread = ops / sthreads;
      o.store.preload_keys = keys;
      o.store.shards = cfg.shards;
      o.store.snap_keys = 32;
      o.scoped_fences = cfg.scoped;
      kv::KvResult r =
          kv::run_kv_workload(*stm, *kv::mix_by_name("priv_heavy"), o);
      all_ok = all_ok && r.invariant_ok;
      ScalingRow row;
      row.backend = backend;
      row.shards = cfg.shards;
      row.scoped = cfg.scoped;
      row.ops_per_sec = r.ops_per_sec;
      row.priv_waits = r.priv_waits;
      if (cfg.scoped && cfg.shards == 1) single = r.ops_per_sec;
      if (cfg.scoped && cfg.shards == scaling_shards) multi = r.ops_per_sec;
      stable.add_row({backend, std::to_string(cfg.shards),
                      cfg.scoped ? "scoped" : "global",
                      fixed(row.ops_per_sec, 0), std::to_string(row.priv_waits)});
      scaling.push_back(std::move(row));
    }
    // Multi-shard with scoped fences must at least hold the single-domain
    // line (on multi-core runners it should beat it; the ratio floor keeps
    // the check robust to noisy CI machines).
    if (assert_priv_scaling && multi < priv_min_ratio * single) {
      std::fprintf(stderr,
                   "priv scaling REGRESSION: %s shards=%zu scoped %.0f ops/s < "
                   "%.2f x shards=1 %.0f ops/s\n",
                   backend.c_str(), scaling_shards, multi, priv_min_ratio,
                   single);
      scaling_ok = false;
    }
  }
  std::printf("privatization scaling (priv_heavy, %zu threads):\n%s\n",
              sthreads, stable.render().c_str());

  // Streaming overhead: A/B the same geometry unchecked vs streaming-
  // checked at each sampling level (always-on, then the CI level).  The
  // unchecked run is the pure perf path (no rounds, no barriers, no
  // recording); a checked run records sampled rounds through the rings and
  // judges segments concurrently.  Checked throughput counts the run only —
  // the tail drain in finish() happens after the clock — so the ratio
  // isolates what capture costs the serving threads: spinlocked shadow
  // accesses, round barriers, and checker-thread CPU contention.
  //
  // The A/B runs its own bounded geometry (not --keys/--ops).  The round is
  // the checker's unit of work: inside a segment, shard-scoped fences almost
  // never validate as cuts (rule (d) — concurrent traffic touches other
  // shards on both sides), so a segment is judged as one window and checker
  // cost grows superlinearly with round x threads x scan size.  Short
  // rounds and a modest key space keep the pipeline in its
  // sustainable regime — the regime the overhead claim is about; perf-grid
  // geometry would measure checker-queue growth, not capture tax.
  std::vector<StreamRow> stream_rows;
  bool stream_ok = true;
  const bool stream_assertable = hw_threads() >= 2;
  const std::uint64_t stream_ops = std::min<std::uint64_t>(ops, 2000);
  const std::size_t stream_keys = 128;
  std::vector<std::size_t> stream_levels = {1};
  if (stream_sample > 1) stream_levels.push_back(stream_sample);
  Table strt({"backend", "sample", "unchecked ops/s", "checked ops/s", "ratio",
              "segments", "windows", "backlog", "verdict"});
  for (const std::string& backend : stm::backend_names()) {
    kv::KvWorkloadOptions o;
    o.threads = sthreads;
    o.seed = 59;
    o.ops_per_thread = stream_ops / sthreads;
    o.store.preload_keys = stream_keys;
    o.store.shards = 8;
    o.store.snap_keys = 32;
    double unchecked = 0;
    {
      auto stm = stm::make_backend(backend);
      const kv::KvResult r =
          kv::run_kv_workload(*stm, *kv::mix_by_name("priv_heavy"), o);
      all_ok = all_ok && r.invariant_ok;
      unchecked = r.ops_per_sec;
    }
    for (const std::size_t level : stream_levels) {
      StreamRow row;
      row.backend = backend;
      row.sample_every = level;
      row.unchecked_ops_per_sec = unchecked;
      auto stm = stm::make_backend(backend);
      kv::KvWorkloadOptions c = o;
      c.sample_every = level;
      c.round_ops = 32;
      c.stream_ring_capacity = 1u << 15;
      const kv::KvResult r =
          kv::run_kv_workload(*stm, *kv::mix_by_name("priv_heavy"), c);
      all_ok = all_ok && r.invariant_ok && r.conf.all_ok();
      row.checked_ops_per_sec = r.ops_per_sec;
      row.segments = r.conf.sessions;
      row.windows = r.conf.windows;
      row.nonconformant = r.conf.nonconformant;
      row.ring_dropped = r.conf.ring_dropped;
      row.max_backlog = r.conf.max_backlog;
      row.overflow = r.conf.overflow;
      row.ratio = unchecked > 0 ? row.checked_ops_per_sec / unchecked : 0;
      // The floor applies at the CI sampling level (the sparsest level run);
      // the always-on row is reported for the trajectory but not gated.
      if (assert_stream_overhead && stream_assertable &&
          level == stream_levels.back() && row.ratio < stream_min_ratio) {
        std::fprintf(stderr,
                     "stream overhead REGRESSION: %s sample=%zu checked %.0f "
                     "ops/s < %.2f x unchecked %.0f ops/s\n",
                     backend.c_str(), level, row.checked_ops_per_sec,
                     stream_min_ratio, row.unchecked_ops_per_sec);
        stream_ok = false;
      }
      strt.add_row({backend, std::to_string(level), fixed(unchecked, 0),
                    fixed(row.checked_ops_per_sec, 0), fixed(row.ratio, 2),
                    std::to_string(row.segments), std::to_string(row.windows),
                    std::to_string(row.max_backlog),
                    row.nonconformant == 0 && !row.overflow ? "conformant"
                                                            : "VIOLATION"});
      stream_rows.push_back(std::move(row));
    }
  }
  std::printf("streaming conformance overhead (priv_heavy, %zu threads):\n%s\n",
              sthreads, strt.render().c_str());
  if (assert_stream_overhead && !stream_assertable)
    std::printf(
        "note: single hardware thread — stream overhead floor reported but "
        "not enforced (the ratio would measure scheduler contention, not "
        "capture tax)\n\n");

  std::string json = "{\n";
  json += "  \"bench\": \"kv\",\n";
  json += "  \"hw_threads\": " + std::to_string(hw_threads()) + ",\n";
  json += "  \"total_ops\": " + std::to_string(ops) + ",\n";
  json += "  \"keys\": " + std::to_string(keys) + ",\n";
  json += "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const kv::KvResult& r = rows[i];
    json += "    {\"backend\": \"" + r.backend + "\", \"mix\": \"" + r.mix +
            "\", \"threads\": " + std::to_string(r.threads) +
            ", \"ops\": " + std::to_string(r.ops) +
            ", \"ms\": " + fixed(r.wall_ms, 3) +
            ", \"ops_per_sec\": " + fixed(r.ops_per_sec, 1) +
            ", \"latency\": " + r.hist.to_json() +
            ", \"scans_completed\": " + std::to_string(r.scans_completed) +
            ", \"priv_waits\": " + std::to_string(r.priv_waits) + "}";
    json += (i + 1 < rows.size()) ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"priv_scaling\": [\n";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const ScalingRow& r = scaling[i];
    json += "    {\"backend\": \"" + r.backend +
            "\", \"shards\": " + std::to_string(r.shards) +
            ", \"scoped_fences\": " + (r.scoped ? "true" : "false") +
            ", \"ops_per_sec\": " + fixed(r.ops_per_sec, 1) +
            ", \"priv_waits\": " + std::to_string(r.priv_waits) + "}";
    json += (i + 1 < scaling.size()) ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"stream_ops\": " + std::to_string(stream_ops) + ",\n";
  json += "  \"stream_keys\": " + std::to_string(stream_keys) + ",\n";
  json += "  \"stream_ci_sample_every\": " + std::to_string(stream_sample) + ",\n";
  json += "  \"stream_overhead\": [\n";
  for (std::size_t i = 0; i < stream_rows.size(); ++i) {
    const StreamRow& r = stream_rows[i];
    json += "    {\"backend\": \"" + r.backend +
            "\", \"sample_every\": " + std::to_string(r.sample_every) +
            ", \"unchecked_ops_per_sec\": " + fixed(r.unchecked_ops_per_sec, 1) +
            ", \"checked_ops_per_sec\": " + fixed(r.checked_ops_per_sec, 1) +
            ", \"ratio\": " + fixed(r.ratio, 4) +
            ", \"segments\": " + std::to_string(r.segments) +
            ", \"windows\": " + std::to_string(r.windows) +
            ", \"nonconformant\": " + std::to_string(r.nonconformant) +
            ", \"ring_dropped\": " + std::to_string(r.ring_dropped) +
            ", \"max_backlog\": " + std::to_string(r.max_backlog) +
            ", \"overflow\": " + std::string(r.overflow ? "true" : "false") + "}";
    json += (i + 1 < stream_rows.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  if (!mtx::campaign::write_file(out_path, json)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("wrote %s\n", out_path.c_str());
  if (!all_ok) {
    std::fprintf(stderr, "bench_kv: conformance violation or failed audit\n");
    return 1;
  }
  if (!scaling_ok) return 1;
  if (!stream_ok) return 1;
  return 0;
}
