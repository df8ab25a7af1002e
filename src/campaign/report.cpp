#include "campaign/report.hpp"

#include <cstdio>
#include <cstdlib>

namespace mtx::campaign {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fmt_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

}  // namespace

std::string to_json(const CampaignResult& r, const std::string& run_label) {
  std::string s = "{\n";
  if (!run_label.empty())
    s += "  \"label\": \"" + json_escape(run_label) + "\",\n";
  s += "  \"threads\": " + std::to_string(r.threads_used) + ",\n";
  s += "  \"shards\": " + std::to_string(r.shard_count) + ",\n";
  s += "  \"wall_ms\": " + fmt_ms(r.wall_ms) + ",\n";
  s += "  \"mismatches\": " + std::to_string(r.mismatches) + ",\n";
  s += "  \"rows\": [\n";
  for (std::size_t i = 0; i < r.jobs.size(); ++i) {
    const JobResult& j = r.jobs[i];
    s += "    {\"id\": \"" + json_escape(j.row.id) + "\", \"config\": \"" +
         json_escape(j.row.config) + "\", \"expected\": \"" +
         (j.row.expected_allowed ? "allowed" : "forbidden") +
         "\", \"measured\": \"" +
         (j.row.actual_allowed ? "allowed" : "forbidden") +
         "\", \"matches\": " + (j.row.matches() ? "true" : "false") +
         ", \"outcomes\": " + std::to_string(j.row.outcome_count) +
         ", \"consistent_execs\": " + std::to_string(j.row.consistent_execs) +
         ", \"truncated\": " + (j.truncated ? "true" : "false") +
         ", \"timed_out\": " + (j.timed_out ? "true" : "false") +
         ", \"ms\": " + fmt_ms(j.millis) + "}";
    s += (i + 1 < r.jobs.size()) ? ",\n" : "\n";
  }
  s += "  ],\n";
  s += "  \"fuzz\": [\n";
  for (std::size_t i = 0; i < r.fuzzed.size(); ++i) {
    const fuzz::FuzzRow& fr = r.fuzzed[i];
    s += "    {\"id\": \"" + json_escape(fr.id) + "\", \"backend\": \"" +
         json_escape(fr.backend) +
         "\", \"threads\": " + std::to_string(fr.threads) +
         ", \"stmts\": " + std::to_string(fr.stmts) +
         ", \"conformant\": " + (fr.ok() ? "true" : "false") +
         ", \"skipped\": " + (fr.skipped ? "true" : "false") +
         ", \"wellformed\": " + (fr.wellformed ? "true" : "false") +
         ", \"outcome_member\": " + (fr.outcome_member ? "true" : "false") +
         ", \"path_ok\": " + (fr.path_ok ? "true" : "false") +
         ", \"opacity_ok\": " + (fr.opacity_ok ? "true" : "false") +
         ", \"opacity_checked\": " + (fr.opacity_checked ? "true" : "false") +
         ", \"zombie_regs\": " + (fr.zombie_regs ? "true" : "false") +
         ", \"mixed_interference\": " + (fr.mixed_interference ? "true" : "false") +
         ", \"model_outcomes\": " + std::to_string(fr.model_outcomes) +
         ", \"model_truncated\": " + (fr.model_truncated ? "true" : "false") +
         ", \"l_races\": " + std::to_string(fr.l_races) +
         ", \"mixed_race\": " + (fr.mixed_race ? "true" : "false") +
         ", \"runs\": " + std::to_string(fr.runs) +
         ", \"failure\": \"" + json_escape(fr.failure) +
         "\", \"fail_sched\": " + std::to_string(fr.fail_sched) +
         ", \"shrunk_threads\": " + std::to_string(fr.shrunk_threads) +
         ", \"shrunk_stmts\": " + std::to_string(fr.shrunk_stmts) +
         ", \"repro\": \"" + json_escape(fr.repro) +
         "\", \"ms\": " + fmt_ms(fr.millis) + "}";
    s += (i + 1 < r.fuzzed.size()) ? ",\n" : "\n";
  }
  s += "  ],\n";
  s += "  \"kv\": [\n";
  for (std::size_t i = 0; i < r.kv.size(); ++i) {
    const KvRow& kr = r.kv[i];
    s += "    {\"mix\": \"" + json_escape(kr.mix) + "\", \"backend\": \"" +
         json_escape(kr.backend) +
         "\", \"threads\": " + std::to_string(kr.threads) +
         ", \"conformant\": " + (kr.ok() ? "true" : "false") +
         ", \"ops\": " + std::to_string(kr.ops) +
         ", \"reads\": " + std::to_string(kr.reads) +
         ", \"updates\": " + std::to_string(kr.updates) +
         ", \"inserts\": " + std::to_string(kr.inserts) +
         ", \"scans\": " + std::to_string(kr.scans) +
         ", \"rmws\": " + std::to_string(kr.rmws) +
         ", \"snap_reads\": " + std::to_string(kr.snap_reads) +
         ", \"invariant_ok\": " + (kr.invariant_ok ? "true" : "false") +
         ", \"sessions\": " + std::to_string(kr.sessions) +
         ", \"windows\": " + std::to_string(kr.windows) +
         ", \"nonconformant\": " + std::to_string(kr.nonconformant) +
         ", \"overflow\": " + (kr.overflow ? "true" : "false") +
         ", \"ring_dropped\": " + std::to_string(kr.ring_dropped) +
         ", \"max_backlog\": " + std::to_string(kr.max_backlog) +
         ", \"fence_calls\": " + std::to_string(kr.fence_calls) +
         ", \"epoch_advances\": " + std::to_string(kr.epoch_advances) +
         ", \"ops_per_sec\": " + fmt_ms(kr.ops_per_sec) +
         ", \"p50_ns\": " + std::to_string(kr.p50_ns) +
         ", \"p95_ns\": " + std::to_string(kr.p95_ns) +
         ", \"p99_ns\": " + std::to_string(kr.p99_ns) +
         ", \"ms\": " + fmt_ms(kr.millis) + "}";
    s += (i + 1 < r.kv.size()) ? ",\n" : "\n";
  }
  s += "  ],\n";
  s += "  \"net\": [\n";
  for (std::size_t i = 0; i < r.net.size(); ++i) {
    const NetRow& nr = r.net[i];
    s += "    {\"backend\": \"" + json_escape(nr.backend) +
         "\", \"batched\": " + (nr.batched ? "true" : "false") +
         ", \"reactors\": " + std::to_string(nr.reactors) +
         ", \"conformant\": " + (nr.ok() ? "true" : "false") +
         ", \"intended\": " + std::to_string(nr.intended) +
         ", \"completed\": " + std::to_string(nr.completed) +
         ", \"errors\": " + std::to_string(nr.errors) +
         ", \"form_violations\": " + std::to_string(nr.form_violations) +
         ", \"frames\": " + std::to_string(nr.frames) +
         ", \"bad_frames\": " + std::to_string(nr.bad_frames) +
         ", \"transactions\": " + std::to_string(nr.transactions) +
         ", \"handoffs\": " + std::to_string(nr.handoffs) +
         ", \"segments\": " + std::to_string(nr.segments) +
         ", \"windows\": " + std::to_string(nr.windows) +
         ", \"nonconformant\": " + std::to_string(nr.nonconformant) +
         ", \"ring_dropped\": " + std::to_string(nr.ring_dropped) +
         ", \"overflow\": " + (nr.overflow ? "true" : "false") +
         ", \"streamed\": " + (nr.streamed ? "true" : "false") +
         ", \"achieved_per_sec\": " + fmt_ms(nr.achieved_per_sec) +
         ", \"p99_ns\": " + std::to_string(nr.p99_ns) +
         ", \"ms\": " + fmt_ms(nr.millis) + "}";
    s += (i + 1 < r.net.size()) ? ",\n" : "\n";
  }
  s += "  ],\n";
  s += "  \"migrate\": [\n";
  for (std::size_t i = 0; i < r.migrate.size(); ++i) {
    const fuzz::KvProtoRow& mr = r.migrate[i];
    s += "    {\"backend\": \"" + json_escape(mr.backend) +
         "\", \"kind\": \"" + json_escape(mr.kind) + "\", \"bait\": \"" +
         json_escape(mr.bait) +
         "\", \"threads\": " + std::to_string(mr.threads) +
         ", \"keys\": " + std::to_string(mr.keys) +
         ", \"shards\": " + std::to_string(mr.shards) +
         ", \"ops\": " + std::to_string(mr.ops) +
         ", \"seed\": " + std::to_string(mr.seed) +
         ", \"ok\": " + (mr.ok() ? "true" : "false") +
         ", \"performed\": " + (mr.performed ? "true" : "false") +
         ", \"slots_moved\": " + std::to_string(mr.slots_moved) +
         ", \"keys_moved\": " + std::to_string(mr.keys_moved) +
         ", \"epoch_before\": " + std::to_string(mr.epoch_before) +
         ", \"epoch_after\": " + std::to_string(mr.epoch_after) +
         ", \"wellformed\": " + (mr.wellformed ? "true" : "false") +
         ", \"l_races\": " + std::to_string(mr.l_races) +
         ", \"mixed_race\": " + (mr.mixed_race ? "true" : "false") +
         ", \"opaque_ok\": " + (mr.opaque_ok ? "true" : "false") +
         ", \"audit_ok\": " + (mr.audit_ok ? "true" : "false") +
         ", \"windows\": " + std::to_string(mr.windows) +
         ", \"actions\": " + std::to_string(mr.actions) +
         ", \"violation\": " + (mr.violation ? "true" : "false") +
         ", \"failure\": \"" + json_escape(mr.failure) +
         "\", \"shrunk_threads\": " + std::to_string(mr.shrunk_threads) +
         ", \"shrunk_ops\": " + std::to_string(mr.shrunk_ops) +
         ", \"shrunk_keys\": " + std::to_string(mr.shrunk_keys) +
         ", \"shrink_attempts\": " + std::to_string(mr.shrink_attempts) +
         ", \"repro\": \"" + json_escape(mr.repro) +
         "\", \"ms\": " + fmt_ms(mr.millis) + "}";
    s += (i + 1 < r.migrate.size()) ? ",\n" : "\n";
  }
  s += "  ],\n";
  s += "  \"recorded\": [\n";
  for (std::size_t i = 0; i < r.recorded.size(); ++i) {
    const RecordRow& rr = r.recorded[i];
    s += "    {\"workload\": \"" + json_escape(rr.workload) +
         "\", \"backend\": \"" + json_escape(rr.backend) +
         "\", \"threads\": " + std::to_string(rr.threads) +
         ", \"conformant\": " + (rr.ok() ? "true" : "false") +
         ", \"wellformed\": " + (rr.wellformed ? "true" : "false") +
         ", \"l_races\": " + std::to_string(rr.l_races) +
         ", \"mixed_race\": " + (rr.mixed_race ? "true" : "false") +
         ", \"opaque\": " + (rr.opaque ? "true" : "false") +
         ", \"opaque_committed\": " + (rr.opaque_committed ? "true" : "false") +
         ", \"zombie_free\": " + (rr.zombie_free ? "true" : "false") +
         ", \"consistent\": " + (rr.consistent ? "true" : "false") +
         ", \"invariant_ok\": " + (rr.invariant_ok ? "true" : "false") +
         ", \"actions\": " + std::to_string(rr.actions) +
         ", \"committed\": " + std::to_string(rr.committed) +
         ", \"aborted\": " + std::to_string(rr.aborted) +
         ", \"windows\": " + std::to_string(rr.windows) +
         ", \"plain_order\": \"" + json_escape(rr.plain_order) +
         "\", \"ms\": " + fmt_ms(rr.millis) + "}";
    s += (i + 1 < r.recorded.size()) ? ",\n" : "\n";
  }
  s += "  ]\n}\n";
  return s;
}

std::string to_csv(const CampaignResult& r) {
  std::string s = "id,config,expected,measured,matches,outcomes,consistent_execs,truncated\n";
  for (const JobResult& j : r.jobs) {
    s += j.row.id + "," + j.row.config + "," +
         (j.row.expected_allowed ? "allowed" : "forbidden") + "," +
         (j.row.actual_allowed ? "allowed" : "forbidden") + "," +
         (j.row.matches() ? "yes" : "no") + "," +
         std::to_string(j.row.outcome_count) + "," +
         std::to_string(j.row.consistent_execs) + "," +
         (j.truncated ? "yes" : "no") + "\n";
  }
  // Recorded-execution rows share the column shape: outcomes carries the
  // L-race count, consistent_execs the committed-transaction count (both
  // schedule-independent for conformant runs).
  for (const RecordRow& rr : r.recorded) {
    s += "rec:" + rr.workload + ":" + rr.backend + ":t" +
         std::to_string(rr.threads) + ",record,conformant," +
         (rr.ok() ? "conformant" : "violation") + "," +
         (rr.ok() ? "yes" : "no") + "," + std::to_string(rr.l_races) + "," +
         std::to_string(rr.committed) + ",no\n";
  }
  // KV rows, same column shape: outcomes carries the non-conformant count
  // (0 on every conformant schedule) and consistent_execs the planned op
  // total — both schedule-independent, so serial/parallel runs diff clean.
  for (const KvRow& kr : r.kv) {
    s += "kv:" + kr.mix + ":" + kr.backend + ":t" + std::to_string(kr.threads) +
         ",kv,conformant," + (kr.ok() ? "conformant" : "violation") + "," +
         (kr.ok() ? "yes" : "no") + "," + std::to_string(kr.nonconformant) +
         "," + std::to_string(kr.ops) + ",no\n";
  }
  // Net rows, same column shape: outcomes carries the non-conformant segment
  // count and consistent_execs the intended op total (fixed by the options;
  // the open-loop schedule always sends everything).
  for (const NetRow& nr : r.net) {
    s += "net:" + nr.backend + ":" +
         (nr.batched ? "batched" : "unbatched") + ":r" +
         std::to_string(nr.reactors) + ",net,conformant," +
         (nr.ok() ? "conformant" : "violation") + "," +
         (nr.ok() ? "yes" : "no") + "," + std::to_string(nr.nonconformant) +
         "," + std::to_string(nr.intended) + ",no\n";
  }
  // Migration protocol rows, same column shape: expected distinguishes the
  // real engine ("conformant") from baits ("violation" — the bait MUST be
  // caught); outcomes carries the L-race count and consistent_execs the
  // keys moved.  Fully deterministic: the oracle runs on one OS thread.
  for (const fuzz::KvProtoRow& mr : r.migrate) {
    s += "migrate:" + mr.kind + ":" + mr.bait + ":" + mr.backend + ":t" +
         std::to_string(mr.threads) + ",migrate," +
         (mr.baited() ? "violation" : "conformant") + "," +
         (mr.violation ? "violation" : "conformant") + "," +
         (mr.ok() ? "yes" : "no") + "," + std::to_string(mr.l_races) + "," +
         std::to_string(mr.keys_moved) + ",no\n";
  }
  // Fuzz rows, same column shape: outcomes carries the model outcome count
  // and consistent_execs the schedule rounds run — all fields here are
  // schedule-independent for conformant rows, so same-seed runs diff clean.
  for (const fuzz::FuzzRow& fr : r.fuzzed) {
    s += "fuzz:" + fr.id + ":" + fr.backend + ",fuzz,conformant," +
         (fr.skipped ? "skipped" : fr.ok() ? "conformant" : "divergent") +
         "," + (fr.ok() ? "yes" : "no") + "," +
         std::to_string(fr.model_outcomes) + "," + std::to_string(fr.runs) +
         "," + (fr.model_truncated || fr.skipped ? "yes" : "no") + "\n";
  }
  return s;
}

bool is_git_tracked(const std::string& path) {
  // Shelling out keeps this dependency-free; paths that can't be safely
  // single-quoted are treated as untracked rather than rejected.
  if (path.empty() || path.find('\'') != std::string::npos) return false;
  const auto slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : slash == 0 ? "/" : path.substr(0, slash);
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  if (base.empty()) return false;
  const std::string cmd = "git -C '" + dir + "' ls-files --error-unmatch -- '" +
                          base + "' >/dev/null 2>&1";
  return std::system(cmd.c_str()) == 0;
}

bool write_file(const std::string& path, const std::string& contents) {
  if (is_git_tracked(path)) {
    std::fprintf(stderr,
                 "refusing to overwrite git-tracked path %s: bench/campaign "
                 "artifacts are generated, never committed\n",
                 path.c_str());
    return false;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::size_t n = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool ok = n == contents.size() && std::fclose(f) == 0;
  if (n != contents.size()) std::fclose(f);
  return ok;
}

}  // namespace mtx::campaign
