#include "record/conformance.hpp"

#include "model/opacity.hpp"
#include "model/race.hpp"
#include "record/assemble.hpp"
#include "substrate/threading.hpp"

namespace mtx::record {

namespace {

void count_transactions(const model::Trace& t, ConformanceReport& out) {
  out.actions = t.size();
  for (std::size_t b : t.begins()) {
    ++out.txns;
    switch (t.txn_state(b)) {
      case model::TxnState::Committed: ++out.committed; break;
      case model::TxnState::Aborted: ++out.aborted; break;
      case model::TxnState::Live: break;
    }
  }
}

// The judgment passes, sharing one analysis context (relations and hb are
// each computed exactly once per checked trace).
void judge(model::AnalysisContext& ctx, ConformanceReport& out) {
  const model::Trace& t = ctx.trace();
  out.wf = ctx.wf_report();
  out.consistent = ctx.wellformed() && model::axioms_hold(ctx);
  const std::vector<model::Race> races =
      model::find_l_races(ctx, model::all_locs(t));
  out.l_races = races.size();
  for (const model::Race& r : races)
    if (t.transactional(r.first) || t.transactional(r.second)) ++out.tx_races;
  out.mixed_race = model::has_mixed_race(ctx);
  out.opaque = model::opaque(ctx);
  // Opacity of the committed subsystem (the Thm 4.2 projection): the
  // guarantee backends with zombie reads (Example 3.4) still provide.
  out.opaque_committed = out.opaque || model::opaque(t.without_aborted());
}

}  // namespace

ConformanceReport check_conformance(const model::Trace& t,
                                    const model::ModelConfig& cfg) {
  model::AnalysisContext ctx(t, cfg);
  return check_conformance(ctx);
}

ConformanceReport check_conformance(model::AnalysisContext& ctx) {
  ConformanceReport out;
  out.config = ctx.config().name;
  count_transactions(ctx.trace(), out);
  judge(ctx, out);
  return out;
}

ConformanceReport check_conformance_windowed(const model::Trace& t,
                                             const model::ModelConfig& cfg,
                                             const WindowedOptions& opts) {
  // The cut soundness argument lives entirely in the HBCQ/HBQB fence
  // edges; without them a cut would separate racing accesses that nothing
  // orders.  Fall back to the monolithic judgment for fence-less models.
  if (!cfg.qfences) return check_conformance(t, cfg);

  WindowPlan plan = cut_windows(t, opts.min_window_events);
  if (plan.windows.size() <= 1) {
    ConformanceReport out = check_conformance(t, cfg);
    out.window_cuts = plan.cuts;
    return out;
  }

  // Transaction statistics come from the source trace (window traces carry
  // synthetic init/carry transactions that are bookkeeping, not workload).
  ConformanceReport out;
  out.config = cfg.name;
  count_transactions(t, out);
  out.windows = plan.windows.size();
  out.window_cuts = plan.cuts;

  // Windows go through chained analysis (the word-parallel builders and the
  // one-pass ordered closure): one chain serially, or one single-window chain per
  // task in parallel mode (the chain object is not thread-safe).
  std::vector<ConformanceReport> subs;
  if (opts.threads == 1) {
    model::ChainedAnalysis chain(cfg);
    subs.reserve(plan.windows.size());
    for (const TraceWindow& w : plan.windows)
      subs.push_back(check_conformance(chain.advance(w.trace)));
  } else {
    ThreadPool pool(opts.threads);
    subs = parallel_map<ConformanceReport>(
        pool, plan.windows.size(), [&](std::size_t i) {
          model::ChainedAnalysis chain(cfg);
          return check_conformance(chain.advance(plan.windows[i].trace));
        });
  }

  out.opaque = true;
  out.opaque_committed = true;
  out.consistent = true;
  for (std::size_t i = 0; i < subs.size(); ++i) {
    const ConformanceReport& s = subs[i];
    for (const model::WfViolation& v : s.wf.violations)
      out.wf.violations.push_back(
          {v.rule, "[window " + std::to_string(i) + "] " + v.msg});
    out.l_races += s.l_races;
    out.tx_races += s.tx_races;
    out.mixed_race = out.mixed_race || s.mixed_race;
    out.opaque = out.opaque && s.opaque;
    out.opaque_committed = out.opaque_committed && s.opaque_committed;
    out.consistent = out.consistent && s.consistent;
  }
  return out;
}

std::string ConformanceReport::verdict() const {
  std::string s;
  s += std::string("wellformed=") + (wf.ok() ? "yes" : "NO") +
       " l_races=" + std::to_string(l_races) +
       " mixed_race=" + (mixed_race ? "YES" : "no") +
       " opaque=" + (opaque ? "yes" : "NO") +
       " opaque_committed=" + (opaque_committed ? "yes" : "NO") +
       " consistent=" + (consistent ? "yes" : "no");
  return s;
}

std::string ConformanceReport::str() const {
  std::string s;
  s += "actions=" + std::to_string(actions) +
       " txns=" + std::to_string(txns) +
       " committed=" + std::to_string(committed) +
       " aborted=" + std::to_string(aborted) +
       " config=" + config;
  if (windows > 1)
    s += " windows=" + std::to_string(windows) +
         " cuts=" + std::to_string(window_cuts);
  s += "\n" + verdict() + "\n";
  if (!wf.ok()) s += wf.str();
  return s;
}

}  // namespace mtx::record
