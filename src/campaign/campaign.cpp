#include "campaign/campaign.hpp"

#include <chrono>
#include <cstdio>
#include <optional>

#include <thread>

#include "campaign/report.hpp"
#include "kv/workload.hpp"
#include "model/model_config.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "record/conformance.hpp"
#include "record/workloads.hpp"
#include "stm/backend.hpp"
#include "substrate/threading.hpp"

namespace mtx::campaign {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// One pool task: a job, optionally restricted to a GraphEnum subspace.
struct Shard {
  std::size_t job = 0;
  std::optional<lit::GraphEnum::Subspace> sub;
};

struct ShardResult {
  lit::OutcomeSet set;
  lit::EnumStats stats;
  double millis = 0;
};

// Default shard size: small enough that a single heavyweight program yields
// a few dozen shards, large enough that shard setup stays noise.
constexpr std::uint64_t kDefaultRfChunk = 2048;

// One recorded-execution conformance job: run the workload on a fresh
// backend instance, assemble, judge.
RecordRow run_record_job(const std::string& workload,
                         const std::string& backend, std::size_t threads,
                         const CampaignOptions& opts) {
  const auto t0 = Clock::now();
  RecordRow row;
  row.workload = workload;
  row.backend = backend;
  row.threads = threads;

  auto stm = stm::make_backend(backend);
  record::WorkloadOptions wopts;
  wopts.threads = threads;
  wopts.seed = opts.record_seed;
  wopts.ops_per_thread = opts.record_ops;
  const record::RecordedRun run =
      record::run_recorded_workload(workload, *stm, wopts);
  record::WindowedOptions wnd;
  wnd.min_window_events = opts.record_window_min;
  const record::ConformanceReport rep =
      opts.record_windowed
          ? record::check_conformance_windowed(
                run.rec.trace, model::ModelConfig::implementation(), wnd)
          : record::check_conformance(run.rec.trace);

  row.wellformed = rep.wf.ok();
  row.l_races = rep.l_races;
  row.mixed_race = rep.mixed_race;
  row.opaque = rep.opaque;
  row.opaque_committed = rep.opaque_committed;
  row.zombie_free = stm->zombie_free();
  row.consistent = rep.consistent;
  row.invariant_ok = run.invariant_ok;
  row.actions = rep.actions;
  row.committed = rep.committed;
  row.aborted = rep.aborted;
  row.windows = rep.windows;
  row.plain_order = run.rec.meta.plain_order;
  row.millis = ms_since(t0);
  return row;
}

}  // namespace

CampaignResult run_campaign(const CampaignOptions& opts) {
  const auto t0 = Clock::now();

  // The job list: catalog order, one job per (entry, expectation).
  struct Job {
    const lit::LitmusTest* test;
    const lit::Expectation* exp;
  };
  std::vector<Job> jobs;
  if (opts.litmus_jobs)
    for (const lit::LitmusTest& t : lit::catalog())
      for (const lit::Expectation& e : t.expected) jobs.push_back(Job{&t, &e});

  lit::EnumOptions eopts;
  eopts.budget = opts.node_budget;
  eopts.time_budget_ms = opts.time_budget_ms;

  // Flatten to shards up front (no nested pool waits).
  std::vector<Shard> shards;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (opts.split_programs) {
      const std::uint64_t chunk = opts.rf_chunk ? opts.rf_chunk : kDefaultRfChunk;
      lit::GraphEnum splitter(jobs[j].test->program,
                              lit::config_by_name(jobs[j].exp->config), eopts);
      for (lit::GraphEnum::Subspace& s : splitter.subspaces(chunk))
        shards.push_back(Shard{j, std::move(s)});
    } else {
      shards.push_back(Shard{j, std::nullopt});
    }
  }

  auto run_shard = [&](std::size_t i) {
    const Shard& s = shards[i];
    const Job& job = jobs[s.job];
    const auto s0 = Clock::now();
    lit::GraphEnum e(job.test->program, lit::config_by_name(job.exp->config), eopts);
    ShardResult r;
    auto sink = [&](const lit::Execution& ex) {
      lit::Outcome o;
      o.mem.resize(static_cast<std::size_t>(job.test->program.num_locs));
      for (model::Loc x = 0; x < job.test->program.num_locs; ++x)
        o.mem[static_cast<std::size_t>(x)] = ex.trace.final_value(x);
      o.regs = ex.regs;
      r.set.insert(std::move(o));
    };
    if (s.sub)
      e.for_each(*s.sub, sink);
    else
      e.for_each(sink);
    r.stats = e.stats();
    r.millis = ms_since(s0);
    return r;
  };

  const std::size_t nthreads = opts.threads ? opts.threads : hw_threads();

  // Recorded-execution conformance jobs: workload x backend x thread-count,
  // in deterministic grid order.
  struct RecordJob {
    std::string workload, backend;
    std::size_t threads;
  };
  std::vector<RecordJob> record_jobs;
  if (opts.record_jobs) {
    for (const std::string& w : record::workload_names())
      for (const std::string& b : stm::backend_names())
        for (std::size_t t : opts.record_threads)
          record_jobs.push_back({w, b, t});
  }
  auto run_record = [&](std::size_t i) {
    const RecordJob& j = record_jobs[i];
    return run_record_job(j.workload, j.backend, j.threads, opts);
  };

  // KV workload conformance jobs: mix x backend x thread-count, in
  // deterministic grid order.  Each job spawns its own worker team, so the
  // pool task is just a container for one run.
  struct KvJob {
    std::string mix, backend;
    std::size_t threads;
  };
  std::vector<KvJob> kv_grid;
  if (opts.kv_jobs) {
    for (const kv::Mix& m : kv::standard_mixes())
      for (const std::string& b : stm::backend_names())
        for (std::size_t t : opts.kv_threads) kv_grid.push_back({m.name, b, t});
  }
  auto run_kv = [&](std::size_t i) {
    const KvJob& j = kv_grid[i];
    const auto k0 = Clock::now();
    auto stm = stm::make_backend(j.backend);
    kv::KvWorkloadOptions wopts;
    wopts.threads = j.threads;
    wopts.seed = opts.kv_seed;
    wopts.ops_per_thread = opts.kv_ops;
    wopts.store.preload_keys = opts.kv_keys;
    wopts.store.shards = opts.kv_shards;
    wopts.store.snap_keys = 4;
    wopts.sample_every = opts.kv_sample_every;
    wopts.round_ops = 16;
    wopts.scoped_fences = opts.kv_scoped_fences;
    const kv::KvResult r =
        kv::run_kv_workload(*stm, *kv::mix_by_name(j.mix), wopts);
    KvRow row;
    row.mix = r.mix;
    row.backend = r.backend;
    row.threads = r.threads;
    row.ops = r.ops;
    row.reads = r.reads;
    row.updates = r.updates;
    row.inserts = r.inserts;
    row.scans = r.scans;
    row.rmws = r.rmws;
    row.snap_reads = r.snap_reads;
    row.invariant_ok = r.invariant_ok;
    row.sessions = r.conf.sessions;
    row.windows = r.conf.windows;
    row.nonconformant = r.conf.nonconformant;
    row.overflow = r.conf.overflow;
    row.ring_dropped = r.conf.ring_dropped;
    row.max_backlog = r.conf.max_backlog;
    row.fence_calls = r.fence_calls;
    row.epoch_advances = r.epoch_advances;
    row.ops_per_sec = r.ops_per_sec;
    row.p50_ns = r.p50_ns;
    row.p95_ns = r.p95_ns;
    row.p99_ns = r.p99_ns;
    row.millis = ms_since(k0);
    return row;
  };

  // Network serving smoke jobs: backend x {batched, unbatched} x reactor
  // count, in deterministic grid order.  Each job self-hosts a loopback
  // server on an ephemeral port and drives it with the open-loop generator,
  // so jobs are independent and can share the pool.
  struct NetJob {
    std::string backend;
    bool batched;
    std::size_t reactors;
  };
  std::vector<NetJob> net_grid;
  if (opts.net_jobs) {
    for (const std::string& b : stm::backend_names())
      for (const bool batched : {true, false})
        for (const std::size_t nr : opts.net_reactors) {
          if (nr < 1 || nr > opts.net_shards) continue;  // would not validate
          net_grid.push_back({b, batched, nr});
        }
  }
  auto run_net = [&](std::size_t i) {
    const NetJob& j = net_grid[i];
    const auto n0 = Clock::now();
    NetRow row;
    row.backend = j.backend;
    row.batched = j.batched;
    row.reactors = j.reactors;

    auto stm = stm::make_backend(j.backend);
    net::ServerConfig cfg;
    cfg.store.shards = opts.net_shards;
    cfg.store.preload_keys = opts.net_keys;
    cfg.store.snap_keys = opts.net_snap;
    cfg.reactors.count = j.reactors;
    cfg.reactors.max_batch = j.batched ? opts.net_batch : 1;
    cfg.reactors.snap_refresh_every = opts.net_refresh;
    cfg.stream.enabled = true;
    net::Server server(*stm, cfg);
    std::thread server_thread([&] { server.run(); });

    net::LoadgenOptions lg;
    lg.port = server.port();
    lg.connections = opts.net_conns;
    lg.rate = opts.net_rate;
    lg.mix = kv::mix_by_name("hot");
    lg.ops_per_conn = opts.net_ops;
    lg.store = cfg.store;
    lg.seed = opts.net_seed;
    const net::LoadgenResult r = net::run_loadgen(lg);
    server.stop();
    server_thread.join();
    const net::ServerStats ss = server.stats();

    row.intended = r.intended;
    row.completed = r.completed;
    row.errors = r.errors;
    row.form_violations = r.form_violations;
    row.achieved_per_sec = r.achieved_per_sec;
    row.p99_ns = r.hist.p99();
    row.frames = ss.frames;
    row.bad_frames = ss.bad_frames;
    row.transactions = ss.batch.transactions;
    row.handoffs = ss.handoffs;
    row.segments = ss.segments;
    row.windows = ss.windows;
    row.nonconformant = ss.nonconformant;
    row.ring_dropped = ss.ring_dropped;
    row.overflow = ss.overflow;
    row.streamed = ss.streamed;
    row.millis = ms_since(n0);
    return row;
  };

  // Live-migration protocol jobs: backend x kind x threads on the real
  // engine, then backend x kind x bait.  Each job is self-contained (own
  // backend, own store, single OS thread), so the grid shares the pool.
  std::vector<fuzz::KvProtoSpec> migrate_grid;
  if (opts.migrate_jobs) {
    for (const std::string& b : stm::backend_names())
      for (const std::string& k : kv::migrate_kind_names()) {
        fuzz::KvProtoSpec spec;
        spec.backend = b;
        kv::migrate_kind_from(k, &spec.kind);
        spec.keys = opts.migrate_keys;
        spec.shards = opts.migrate_shards;
        spec.ops_per_thread = opts.migrate_ops;
        spec.seed = opts.migrate_seed;
        for (std::size_t t : opts.migrate_threads) {
          spec.threads = t;
          spec.bait = kv::MigrateBait::none;
          migrate_grid.push_back(spec);
        }
        if (opts.migrate_baits) {
          spec.threads = opts.migrate_threads.empty()
                             ? 2
                             : opts.migrate_threads.back();
          for (const std::string& bait : kv::migrate_bait_names()) {
            if (bait == "none") continue;
            kv::migrate_bait_from(bait, &spec.bait);
            migrate_grid.push_back(spec);
          }
        }
      }
  }
  auto run_migrate = [&](std::size_t i) {
    fuzz::KvProtoOptions mopts;
    mopts.shrink = opts.migrate_shrink;
    return fuzz::run_kvproto(migrate_grid[i], mopts);
  };

  // Differential fuzz jobs: generate the program batch up front (one RNG
  // stream, byte-deterministic), then prepare (model enumeration) and run
  // (program × backend) as pool tasks.
  std::vector<lit::Program> fuzz_progs;
  if (opts.fuzz_count > 0)
    fuzz_progs = fuzz::fuzz_programs(opts.fuzz_seed, opts.fuzz_count,
                                     opts.fuzz_params);
  fuzz::FuzzOptions fopts;
  fopts.sched_rounds = opts.fuzz_sched_rounds;
  fopts.shrink = opts.fuzz_shrink;
  std::vector<fuzz::FuzzProgram> fuzz_prepared;
  auto prepare_fuzz = [&](std::size_t i) {
    return fuzz::prepare_fuzz_program(fuzz_progs[i], opts.fuzz_seed,
                                      static_cast<int>(i), fopts.enum_budget);
  };
  struct FuzzJob {
    std::size_t prog;
    std::string backend;
  };
  std::vector<FuzzJob> fuzz_grid;
  for (std::size_t i = 0; i < fuzz_progs.size(); ++i)
    for (const std::string& b : stm::backend_names())
      fuzz_grid.push_back({i, b});
  // The budget covers the fuzz phase only (prepare + run), so the litmus
  // and record phases never eat into it; the anchor is set right before
  // the fuzz work starts in either execution branch.
  std::optional<Clock::time_point> fuzz_deadline;
  auto arm_fuzz_deadline = [&] {
    if (opts.fuzz_time_budget_ms)
      fuzz_deadline =
          Clock::now() + std::chrono::milliseconds(opts.fuzz_time_budget_ms);
  };
  auto run_fuzz = [&](std::size_t k) {
    const FuzzJob& j = fuzz_grid[k];
    const fuzz::FuzzProgram& fp = fuzz_prepared[j.prog];
    if (fuzz_deadline && Clock::now() > *fuzz_deadline) {
      fuzz::FuzzRow row;
      row.id = fp.id;
      row.backend = j.backend;
      row.threads = fp.program.threads.size();
      row.stmts = lit::top_level_stmts(fp.program);
      row.model_outcomes = fp.model.size();
      row.skipped = true;
      return row;
    }
    return fuzz::run_fuzz_job(fp, j.backend, fopts);
  };

  std::vector<ShardResult> results;
  std::vector<RecordRow> record_rows;
  std::vector<KvRow> kv_rows;
  std::vector<NetRow> net_rows;
  std::vector<fuzz::KvProtoRow> migrate_rows;
  std::vector<fuzz::FuzzRow> fuzz_rows;
  if (nthreads <= 1) {
    results.reserve(shards.size());
    for (std::size_t i = 0; i < shards.size(); ++i) results.push_back(run_shard(i));
    record_rows.reserve(record_jobs.size());
    for (std::size_t i = 0; i < record_jobs.size(); ++i)
      record_rows.push_back(run_record(i));
    kv_rows.reserve(kv_grid.size());
    for (std::size_t i = 0; i < kv_grid.size(); ++i) kv_rows.push_back(run_kv(i));
    net_rows.reserve(net_grid.size());
    for (std::size_t i = 0; i < net_grid.size(); ++i) net_rows.push_back(run_net(i));
    migrate_rows.reserve(migrate_grid.size());
    for (std::size_t i = 0; i < migrate_grid.size(); ++i)
      migrate_rows.push_back(run_migrate(i));
    arm_fuzz_deadline();
    fuzz_prepared.reserve(fuzz_progs.size());
    for (std::size_t i = 0; i < fuzz_progs.size(); ++i)
      fuzz_prepared.push_back(prepare_fuzz(i));
    fuzz_rows.reserve(fuzz_grid.size());
    for (std::size_t k = 0; k < fuzz_grid.size(); ++k)
      fuzz_rows.push_back(run_fuzz(k));
  } else {
    ThreadPool pool(nthreads);
    results = parallel_map<ShardResult>(pool, shards.size(), run_shard);
    record_rows = parallel_map<RecordRow>(pool, record_jobs.size(), run_record);
    kv_rows = parallel_map<KvRow>(pool, kv_grid.size(), run_kv);
    net_rows = parallel_map<NetRow>(pool, net_grid.size(), run_net);
    migrate_rows =
        parallel_map<fuzz::KvProtoRow>(pool, migrate_grid.size(), run_migrate);
    arm_fuzz_deadline();
    fuzz_prepared =
        parallel_map<fuzz::FuzzProgram>(pool, fuzz_progs.size(), prepare_fuzz);
    fuzz_rows = parallel_map<fuzz::FuzzRow>(pool, fuzz_grid.size(), run_fuzz);
  }

  // Fold shards into jobs, in catalog order.
  CampaignResult out;
  out.threads_used = nthreads;
  out.shard_count = shards.size();
  out.jobs.resize(jobs.size());
  std::vector<lit::OutcomeSet> sets(jobs.size());
  std::vector<lit::EnumStats> stats(jobs.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::size_t j = shards[i].job;
    for (const lit::Outcome& o : results[i].set.outcomes()) sets[j].insert(o);
    stats[j] += results[i].stats;
    out.jobs[j].millis += results[i].millis;
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    lit::VerdictRow& row = out.jobs[j].row;
    row.id = jobs[j].test->id;
    row.config = jobs[j].exp->config;
    row.expected_allowed = jobs[j].exp->allowed;
    row.actual_allowed = sets[j].any(jobs[j].test->witness);
    row.outcome_count = sets[j].size();
    row.consistent_execs = stats[j].consistent;
    out.jobs[j].truncated = stats[j].truncated;
    out.jobs[j].timed_out = stats[j].timed_out;
    if (!row.matches()) ++out.mismatches;
  }
  out.recorded = std::move(record_rows);
  for (const RecordRow& rr : out.recorded)
    if (!rr.ok()) ++out.mismatches;
  out.kv = std::move(kv_rows);
  for (const KvRow& kr : out.kv)
    if (!kr.ok()) ++out.mismatches;
  out.net = std::move(net_rows);
  for (const NetRow& nr : out.net)
    if (!nr.ok()) ++out.mismatches;
  out.migrate = std::move(migrate_rows);
  for (const fuzz::KvProtoRow& mr : out.migrate) {
    if (!mr.ok()) ++out.mismatches;
    if (!mr.repro.empty() && !opts.fuzz_repro_dir.empty()) {
      const std::string path = opts.fuzz_repro_dir + "/migrate_" + mr.kind +
                               "_" + mr.bait + "_" + mr.backend + ".kvproto";
      if (!write_file(path, mr.repro))
        std::fprintf(stderr,
                     "failed to write migration reproducer %s (is the "
                     "directory present and writable?)\n",
                     path.c_str());
    }
  }
  out.fuzzed = std::move(fuzz_rows);
  for (const fuzz::FuzzRow& fr : out.fuzzed) {
    if (!fr.ok()) ++out.mismatches;
    if (!fr.repro.empty() && !opts.fuzz_repro_dir.empty()) {
      const std::string path =
          opts.fuzz_repro_dir + "/" + fr.id + "_" + fr.backend + ".litmus";
      if (!write_file(path, fr.repro))
        std::fprintf(stderr,
                     "failed to write fuzz reproducer %s (is the directory "
                     "present and writable?)\n",
                     path.c_str());
    }
  }
  out.wall_ms = ms_since(t0);
  return out;
}

std::string verdict_signature(const CampaignResult& r) {
  std::string s;
  for (const JobResult& j : r.jobs) {
    s += j.row.id + "," + j.row.config + "," +
         (j.row.expected_allowed ? "A" : "F") + "," +
         (j.row.actual_allowed ? "A" : "F") + "," +
         std::to_string(j.row.outcome_count) + "," +
         std::to_string(j.row.consistent_execs) + "," +
         (j.truncated ? "T" : "-") + "\n";
  }
  // Recorded rows: only fields that are schedule-independent (committed
  // txn counts are fixed by workload x seed x threads; action/abort counts
  // vary with conflict retries).
  for (const RecordRow& rr : r.recorded) {
    s += "rec:" + rr.workload + ":" + rr.backend + ":t" +
         std::to_string(rr.threads) + "," + (rr.ok() ? "C" : "V") + "," +
         std::to_string(rr.l_races) + "," + std::to_string(rr.committed) + "\n";
  }
  // KV rows: the planned op-class counts are a pure function of
  // (mix, seed, threads, ops) and the verdict must be conformant on every
  // schedule; session/window counts and throughput are omitted.
  for (const KvRow& kr : r.kv) {
    s += "kv:" + kr.mix + ":" + kr.backend + ":t" + std::to_string(kr.threads) +
         "," + (kr.ok() ? "C" : "V") + "," + std::to_string(kr.ops) + "," +
         std::to_string(kr.reads) + "/" + std::to_string(kr.updates) + "/" +
         std::to_string(kr.inserts) + "/" + std::to_string(kr.scans) + "/" +
         std::to_string(kr.rmws) + "/" + std::to_string(kr.snap_reads) + "\n";
  }
  // Net rows: the open-loop generator sends its entire schedule, so the
  // intended op count is fixed by the options and the verdict must be
  // conformant on every schedule; throughput, latency, segment and
  // transaction counts are scheduling-dependent and omitted.
  for (const NetRow& nr : r.net) {
    s += "net:" + nr.backend + ":" + (nr.batched ? "batched" : "unbatched") +
         ":r" + std::to_string(nr.reactors) + "," + (nr.ok() ? "C" : "V") +
         "," + std::to_string(nr.intended) + "\n";
  }
  // Migration protocol rows: the oracle runs on one OS thread, so EVERY
  // field is deterministic — verdict, failure class, keys moved, and the
  // shrunk spec all replay bit-for-bit.
  for (const fuzz::KvProtoRow& mr : r.migrate) {
    s += "migrate:" + mr.kind + ":" + mr.bait + ":" + mr.backend + ":t" +
         std::to_string(mr.threads) + "," + (mr.ok() ? "C" : "V") + "," +
         (mr.failure.empty() ? "clean" : mr.failure) + "," +
         std::to_string(mr.keys_moved) + ",s" +
         std::to_string(mr.shrunk_threads) + "/" +
         std::to_string(mr.shrunk_ops) + "/" + std::to_string(mr.shrunk_keys) +
         "\n";
  }
  // Fuzz rows: verdict and model outcome count are schedule-independent for
  // conformant runs (race counts are not — they vary with interleaving).
  for (const fuzz::FuzzRow& fr : r.fuzzed) {
    s += "fuzz:" + fr.id + ":" + fr.backend + "," +
         (fr.skipped ? "S" : fr.ok() ? "C" : "V") + "," +
         std::to_string(fr.model_outcomes) + "," + std::to_string(fr.runs) +
         "\n";
  }
  return s;
}

}  // namespace mtx::campaign
