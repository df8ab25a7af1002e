// Campaign quick-start: sweep the whole reproduction catalog across model
// configurations on all cores and write reproducible reports.
//
// Usage: campaign [--threads N] [--serial] [--split] [--rf-chunk N]
//                 [--node-budget N] [--time-budget-ms N]
//                 [--record] [--record-only] [--record-ops N]
//                 [--record-seed N] [--record-monolithic]
//                 [--record-window-min N]
//                 [--kv] [--kv-only] [--kv-ops N] [--kv-seed N] [--kv-keys N]
//                 [--kv-shards N] [--kv-sample N] [--kv-global-fence]
//                 [--net] [--net-only] [--net-ops N] [--net-rate R]
//                 [--net-reactors r1,r2,...]
//                 [--kv-migrate] [--kv-migrate-only] [--kv-migrate-seed N]
//                 [--kv-migrate-ops N] [--kv-migrate-no-baits]
//                 [--kv-migrate-no-shrink]
//                 [--fuzz N] [--fuzz-only] [--fuzz-seed S] [--fuzz-sched K]
//                 [--fuzz-no-shrink] [--fuzz-repro-dir DIR]
//                 [--fuzz-time-budget-ms N] [--fuzz-threads N]
//                 [--fuzz-stmts N] [--json PATH] [--csv PATH]
//
// --serial forces the single-threaded reference mode; --split additionally
// shards each program's candidate space (frontier splitting).  Reports are
// byte-identical between modes as long as no budget is hit.
//
// --record adds the recorded-execution conformance grid: every container
// workload runs on every registered STM backend at several thread counts,
// the recorded execution is assembled into a model trace and judged by the
// race/opacity checkers; --record-only skips the litmus catalog.  Judgments
// use the fence-bounded windowed engine by default; --record-monolithic
// forces the single-context reference checker.
//
// --kv adds the KV workload conformance grid: every standard mix (YCSB
// A/B/C, priv_heavy, pub_heavy) of the sharded transactional KV engine runs
// on every registered backend at several thread counts with streaming
// runtime conformance on — sampled rounds are captured through lock-free
// per-thread rings and judged by the model layer while the run continues;
// a non-conformant segment, ring overflow or failed store audit counts as
// a mismatch.  --kv-only skips the litmus catalog; --kv-sample N sets the
// sampling level (default 4: every 4th round checked; 1 = always-on, 0 =
// unchecked perf-only rows); --kv-global-fence disables per-shard
// quiescence domains (whole-store fences — the A/B baseline, same verdict
// signature).
//
// --net adds the loopback serving smoke grid: every registered backend runs
// the binary-protocol front end per batching mode (on and off) and per
// reactor count in --net-reactors (default 1,2) — under open-loop load on
// the hot mix, with per-reactor streaming conformance judging the served
// traffic; any non-conformant segment, ring drop, bad frame or malformed
// value counts as a mismatch.  --net-only skips the litmus catalog.
//
// --kv-migrate adds the live-migration protocol grid: every backend runs
// every migration kind (split / move / merge) as a recorded protocol
// sequence under mixed traffic at several logical thread counts, judged by
// the model layer plus a transactional key audit — and, unless
// --kv-migrate-no-baits, every deliberately broken bait variant
// (skip_source_fence, publish_before_copy, stale_route) of every kind,
// which MUST each trip the oracle and shrink to a minimal reproducer (a
// silent bait is a detection gap and counts as a mismatch).  The oracle is
// single-OS-thread deterministic, so the grid's verdict signature is
// byte-stable across runs and modes.  --kv-migrate-only skips the litmus
// catalog; bait reproducers land in --fuzz-repro-dir when given.
//
// --fuzz N adds the differential fuzz grid: N random litmus programs (seeded
// by --fuzz-seed, byte-reproducible) run on every registered backend under
// --fuzz-sched schedule-perturbation seeds each; recorded executions are
// judged against the model and violations are auto-shrunk to minimal
// reproducers (written to --fuzz-repro-dir when given).  --fuzz-only skips
// the litmus catalog; the exit code covers fuzz violations like any other
// mismatch.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "substrate/format.hpp"

int main(int argc, char** argv) {
  using namespace mtx;
  campaign::CampaignOptions opts;
  std::string json_path, csv_path;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    auto count = [&](const char* flag) -> std::uint64_t {
      const long long v = std::atoll(next(flag));
      if (v < 0) {
        std::fprintf(stderr, "%s must be >= 0\n", flag);
        std::exit(2);
      }
      return static_cast<std::uint64_t>(v);
    };
    if (std::strcmp(argv[i], "--threads") == 0)
      opts.threads = static_cast<std::size_t>(count("--threads"));
    else if (std::strcmp(argv[i], "--serial") == 0)
      opts.threads = 1;
    else if (std::strcmp(argv[i], "--split") == 0)
      opts.split_programs = true;
    else if (std::strcmp(argv[i], "--rf-chunk") == 0)
      opts.rf_chunk = count("--rf-chunk");
    else if (std::strcmp(argv[i], "--node-budget") == 0)
      opts.node_budget = count("--node-budget");
    else if (std::strcmp(argv[i], "--time-budget-ms") == 0)
      opts.time_budget_ms = count("--time-budget-ms");
    else if (std::strcmp(argv[i], "--record") == 0)
      opts.record_jobs = true;
    else if (std::strcmp(argv[i], "--record-only") == 0) {
      opts.record_jobs = true;
      opts.litmus_jobs = false;
    } else if (std::strcmp(argv[i], "--record-ops") == 0)
      opts.record_ops = static_cast<int>(count("--record-ops"));
    else if (std::strcmp(argv[i], "--record-seed") == 0)
      opts.record_seed = count("--record-seed");
    else if (std::strcmp(argv[i], "--record-monolithic") == 0)
      opts.record_windowed = false;
    else if (std::strcmp(argv[i], "--record-window-min") == 0)
      opts.record_window_min = static_cast<std::size_t>(count("--record-window-min"));
    else if (std::strcmp(argv[i], "--kv") == 0)
      opts.kv_jobs = true;
    else if (std::strcmp(argv[i], "--kv-only") == 0) {
      opts.kv_jobs = true;
      opts.litmus_jobs = false;
    } else if (std::strcmp(argv[i], "--kv-ops") == 0)
      opts.kv_ops = count("--kv-ops");
    else if (std::strcmp(argv[i], "--kv-seed") == 0)
      opts.kv_seed = count("--kv-seed");
    else if (std::strcmp(argv[i], "--kv-keys") == 0)
      opts.kv_keys = static_cast<std::size_t>(count("--kv-keys"));
    else if (std::strcmp(argv[i], "--kv-shards") == 0)
      opts.kv_shards = static_cast<std::size_t>(count("--kv-shards"));
    else if (std::strcmp(argv[i], "--kv-sample") == 0)
      opts.kv_sample_every = static_cast<std::size_t>(count("--kv-sample"));
    else if (std::strcmp(argv[i], "--kv-global-fence") == 0)
      opts.kv_scoped_fences = false;
    else if (std::strcmp(argv[i], "--net") == 0)
      opts.net_jobs = true;
    else if (std::strcmp(argv[i], "--net-only") == 0) {
      opts.net_jobs = true;
      opts.litmus_jobs = false;
    } else if (std::strcmp(argv[i], "--net-ops") == 0)
      opts.net_ops = count("--net-ops");
    else if (std::strcmp(argv[i], "--net-rate") == 0)
      opts.net_rate = static_cast<double>(count("--net-rate"));
    else if (std::strcmp(argv[i], "--net-reactors") == 0) {
      opts.net_reactors.clear();
      const std::string v = next("--net-reactors");
      std::size_t pos = 0;
      while (pos < v.size()) {
        const std::size_t comma = v.find(',', pos);
        const std::size_t end = comma == std::string::npos ? v.size() : comma;
        if (end > pos)
          opts.net_reactors.push_back(static_cast<std::size_t>(
              std::atoll(v.substr(pos, end - pos).c_str())));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    }
    else if (std::strcmp(argv[i], "--kv-migrate") == 0)
      opts.migrate_jobs = true;
    else if (std::strcmp(argv[i], "--kv-migrate-only") == 0) {
      opts.migrate_jobs = true;
      opts.litmus_jobs = false;
    } else if (std::strcmp(argv[i], "--kv-migrate-seed") == 0)
      opts.migrate_seed = count("--kv-migrate-seed");
    else if (std::strcmp(argv[i], "--kv-migrate-ops") == 0)
      opts.migrate_ops = count("--kv-migrate-ops");
    else if (std::strcmp(argv[i], "--kv-migrate-no-baits") == 0)
      opts.migrate_baits = false;
    else if (std::strcmp(argv[i], "--kv-migrate-no-shrink") == 0)
      opts.migrate_shrink = false;
    else if (std::strcmp(argv[i], "--fuzz") == 0)
      opts.fuzz_count = static_cast<int>(count("--fuzz"));
    else if (std::strcmp(argv[i], "--fuzz-only") == 0)
      opts.litmus_jobs = false;
    else if (std::strcmp(argv[i], "--fuzz-seed") == 0)
      opts.fuzz_seed = count("--fuzz-seed");
    else if (std::strcmp(argv[i], "--fuzz-sched") == 0)
      opts.fuzz_sched_rounds = static_cast<int>(count("--fuzz-sched"));
    else if (std::strcmp(argv[i], "--fuzz-no-shrink") == 0)
      opts.fuzz_shrink = false;
    else if (std::strcmp(argv[i], "--fuzz-repro-dir") == 0)
      opts.fuzz_repro_dir = next("--fuzz-repro-dir");
    else if (std::strcmp(argv[i], "--fuzz-time-budget-ms") == 0)
      opts.fuzz_time_budget_ms = count("--fuzz-time-budget-ms");
    else if (std::strcmp(argv[i], "--fuzz-threads") == 0)
      opts.fuzz_params.threads = static_cast<int>(count("--fuzz-threads"));
    else if (std::strcmp(argv[i], "--fuzz-stmts") == 0)
      opts.fuzz_params.stmts_per_thread = static_cast<int>(count("--fuzz-stmts"));
    else if (std::strcmp(argv[i], "--json") == 0)
      json_path = next("--json");
    else if (std::strcmp(argv[i], "--csv") == 0)
      csv_path = next("--csv");
    else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  const campaign::CampaignResult r = campaign::run_campaign(opts);

  Table table({"id", "model", "paper says", "measured", "ok", "ms"});
  for (const campaign::JobResult& j : r.jobs) {
    char ms[32];
    std::snprintf(ms, sizeof(ms), "%.1f", j.millis);
    table.add_row({j.row.id, j.row.config,
                   j.row.expected_allowed ? "Allowed" : "Forbidden",
                   j.row.actual_allowed ? "Allowed" : "Forbidden",
                   j.row.matches() ? "yes" : "MISMATCH", ms});
  }
  if (!r.jobs.empty()) std::printf("%s\n", table.render().c_str());

  if (!r.recorded.empty()) {
    Table rec({"workload", "backend", "threads", "verdict", "races", "opaque",
               "txns", "ms"});
    for (const campaign::RecordRow& row : r.recorded) {
      char ms[32];
      std::snprintf(ms, sizeof(ms), "%.1f", row.millis);
      // Opacity shown at the backend's declared level (committed-only for
      // the eager zombie-prone class).
      const bool opq = row.zombie_free ? row.opaque : row.opaque_committed;
      rec.add_row({row.workload, row.backend, std::to_string(row.threads),
                   row.ok() ? "conformant" : "VIOLATION",
                   std::to_string(row.l_races), opq ? "yes" : "NO",
                   std::to_string(row.committed + row.aborted), ms});
    }
    std::printf("%s\n", rec.render().c_str());
  }

  if (!r.kv.empty()) {
    Table kvt({"mix", "backend", "threads", "verdict", "ops/s", "p50us",
               "p99us", "windows", "ms"});
    for (const campaign::KvRow& row : r.kv) {
      char ms[32];
      std::snprintf(ms, sizeof(ms), "%.1f", row.millis);
      kvt.add_row({row.mix, row.backend, std::to_string(row.threads),
                   row.ok() ? "conformant" : "VIOLATION",
                   fixed(row.ops_per_sec, 0),
                   fixed(static_cast<double>(row.p50_ns) / 1e3, 1),
                   fixed(static_cast<double>(row.p99_ns) / 1e3, 1),
                   std::to_string(row.windows), ms});
    }
    std::printf("%s\n", kvt.render().c_str());
  }

  if (!r.net.empty()) {
    Table nt({"backend", "mode", "reactors", "verdict", "ops", "txns",
              "handoffs", "ops/s", "p99us", "segments", "ms"});
    for (const campaign::NetRow& row : r.net) {
      char ms[32];
      std::snprintf(ms, sizeof(ms), "%.1f", row.millis);
      nt.add_row({row.backend, row.batched ? "batched" : "unbatched",
                  std::to_string(row.reactors),
                  row.ok() ? "conformant" : "VIOLATION",
                  std::to_string(row.completed),
                  std::to_string(row.transactions),
                  std::to_string(row.handoffs),
                  fixed(row.achieved_per_sec, 0),
                  fixed(static_cast<double>(row.p99_ns) / 1e3, 1),
                  std::to_string(row.segments), ms});
    }
    std::printf("%s\n", nt.render().c_str());
  }

  if (!r.migrate.empty()) {
    Table mg({"backend", "kind", "bait", "threads", "verdict", "keys moved",
              "races", "shrunk t/o/k", "ms"});
    for (const fuzz::KvProtoRow& row : r.migrate) {
      char ms[32];
      std::snprintf(ms, sizeof(ms), "%.1f", row.millis);
      // Bait rows are SUPPOSED to violate: caught = the bait tripped the
      // oracle and shrank to a reproducer; MISSED = it slipped through.
      const std::string verdict =
          row.baited()
              ? (row.ok() ? "caught(" + row.failure + ")" : "MISSED")
              : (row.ok() ? "conformant" : "VIOLATION(" + row.failure + ")");
      const std::string shrunk =
          row.violation ? std::to_string(row.shrunk_threads) + "/" +
                              std::to_string(row.shrunk_ops) + "/" +
                              std::to_string(row.shrunk_keys)
                        : "-";
      mg.add_row({row.backend, row.kind, row.bait,
                  std::to_string(row.threads), verdict,
                  std::to_string(row.keys_moved),
                  std::to_string(row.l_races), shrunk, ms});
    }
    std::printf("%s\n", mg.render().c_str());
    for (const fuzz::KvProtoRow& row : r.migrate)
      if (!row.repro.empty())
        std::printf("migration reproducer (%s %s on %s):\n%s\n",
                    row.kind.c_str(), row.bait.c_str(), row.backend.c_str(),
                    row.repro.c_str());
  }

  if (!r.fuzzed.empty()) {
    Table fz({"program", "backend", "verdict", "model outcomes", "races",
              "runs", "ms"});
    for (const fuzz::FuzzRow& row : r.fuzzed) {
      char ms[32];
      std::snprintf(ms, sizeof(ms), "%.1f", row.millis);
      fz.add_row({row.id, row.backend,
                  row.skipped ? "skipped"
                              : row.ok() ? "conformant"
                                         : "DIVERGENT(" + row.failure + ")",
                  std::to_string(row.model_outcomes),
                  std::to_string(row.l_races), std::to_string(row.runs), ms});
    }
    std::printf("%s\n", fz.render().c_str());
    for (const fuzz::FuzzRow& row : r.fuzzed)
      if (!row.repro.empty())
        std::printf("shrunk reproducer (%s on %s):\n%s\n", row.id.c_str(),
                    row.backend.c_str(), row.repro.c_str());
  }

  std::printf("rows: %zu  recorded: %zu  kv: %zu  net: %zu  migrate: %zu  fuzzed: %zu  mismatches: %zu  threads: %zu  shards: %zu  wall: %.1f ms\n",
              r.jobs.size(), r.recorded.size(), r.kv.size(), r.net.size(),
              r.migrate.size(), r.fuzzed.size(), r.mismatches, r.threads_used,
              r.shard_count, r.wall_ms);

  if (!json_path.empty() && !campaign::write_file(json_path, campaign::to_json(r))) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 2;
  }
  if (!csv_path.empty() && !campaign::write_file(csv_path, campaign::to_csv(r))) {
    std::fprintf(stderr, "failed to write %s\n", csv_path.c_str());
    return 2;
  }
  return r.mismatches == 0 ? 0 : 1;
}
