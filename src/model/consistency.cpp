#include "model/consistency.hpp"

namespace mtx::model {

std::string Analysis::failure() const {
  if (!wf.ok()) return "WF";
  if (!causality) return "Causality";
  if (!coherence) return "Coherence";
  if (!observation) return "Observation";
  if (!anti_ww) return "AntiWW";
  if (!anti_rw) return "AntiRW";
  if (!anti_ww_p) return "Anti'WW";
  if (!anti_rw_p) return "Anti'RW";
  return "";
}

Analysis analyze(AnalysisContext& ctx) {
  const ModelConfig& cfg = ctx.config();
  Analysis a;
  a.rel = ctx.relations();
  a.wf = ctx.wf_report();
  a.hb = ctx.hb();

  a.causality = (a.hb | a.rel.lwr | a.rel.xrw).is_acyclic();
  a.coherence = a.hb.compose(a.rel.lww).is_irreflexive();
  a.observation = a.hb.compose(a.rel.lrw).is_irreflexive();

  if (cfg.anti_ww)
    a.anti_ww = a.rel.crw.compose(a.hb).compose(a.rel.lww).is_irreflexive();
  if (cfg.anti_rw)
    a.anti_rw = a.rel.crw.compose(a.hb).compose(a.rel.lrw).is_irreflexive();
  if (cfg.anti_ww_p)
    a.anti_ww_p = a.hb.compose(a.rel.crw).compose(a.rel.lww).is_irreflexive();
  if (cfg.anti_rw_p)
    a.anti_rw_p = a.hb.compose(a.rel.crw).compose(a.rel.lrw).is_irreflexive();
  return a;
}

Analysis analyze(const Trace& t, const ModelConfig& cfg) {
  AnalysisContext ctx(t, cfg);
  return analyze(ctx);
}

bool consistent(AnalysisContext& ctx) { return analyze(ctx).consistent(); }

bool consistent(const Trace& t, const ModelConfig& cfg) {
  return analyze(t, cfg).consistent();
}

namespace {

// (r ; s) is irreflexive iff no pair (b, a) of s closes a pair (a, b) of r.
// Probing r along s's pairs costs O(|s|) instead of the O(|r| * n/64)
// composition — r is the dense, transitively closed hb below.
bool compose_irreflexive(const BitRel& r, const BitRel& s) {
  bool ok = true;
  s.for_each([&](std::size_t b, std::size_t a) {
    if (ok && r.test(a, b)) ok = false;
  });
  return ok;
}

bool axioms_hold_on(const Relations& rel, const BitRel& hb,
                    const ModelConfig& cfg) {
  // The same axioms as analyze(), decided without composing through hb:
  // each irreflexivity axiom is rotated so that hb is the probed side.  A
  // three-step chain x;hb;y (or hb;x;y) is irreflexive iff hb;(y;x) (or
  // hb;(x;y)) is, since a reflexive pair of either is the same cycle
  // entered at another point.  The sparse side y;x costs O(|y| * n/64) to
  // build; x;hb would cost O(|x| * n/64) and yield a dense relation whose
  // composition with y is O(n^3/64).
  if (!(hb | rel.lwr | rel.xrw).is_acyclic()) return false;
  if (!compose_irreflexive(hb, rel.lww)) return false;
  if (!compose_irreflexive(hb, rel.lrw)) return false;
  if (cfg.anti_ww && !compose_irreflexive(hb, rel.lww.compose(rel.crw)))
    return false;
  if (cfg.anti_rw && !compose_irreflexive(hb, rel.lrw.compose(rel.crw)))
    return false;
  if (cfg.anti_ww_p && !compose_irreflexive(hb, rel.crw.compose(rel.lww)))
    return false;
  if (cfg.anti_rw_p && !compose_irreflexive(hb, rel.crw.compose(rel.lrw)))
    return false;
  return true;
}

}  // namespace

bool axioms_hold(AnalysisContext& ctx) {
  return axioms_hold_on(ctx.relations(), ctx.hb(), ctx.config());
}

bool axioms_hold(const Trace& t, const Relations& rel, const ModelConfig& cfg) {
  const BitRel hb = compute_hb(t, rel, cfg);
  return axioms_hold_on(rel, hb, cfg);
}

}  // namespace mtx::model
