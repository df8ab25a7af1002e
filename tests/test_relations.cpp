// Derived relations (§2): index/init/po/ww/wr/rw and the lifted l/x/c
// variants, checked against hand-computed figures from the paper.
#include <gtest/gtest.h>

#include "model/consistency.hpp"
#include "model/derived.hpp"
#include "model/happens_before.hpp"
#include "model/race.hpp"
#include "trace_builders.hpp"

namespace mtx::test {
namespace {

using model::Relations;

TEST(Relations, BaseOrders) {
  TB b(2);
  b.w(0, 0, 1, 1).r(1, 0, 1, 1).w(1, 1, 1, 1);
  const Trace& t = b.trace();
  const Relations rel = Relations::compute(t);

  // indices: 0..3 init, 4 = Wx1(t0), 5 = Rx1(t1), 6 = Wy1(t1)
  EXPECT_TRUE(rel.index.test(4, 5));
  EXPECT_FALSE(rel.index.test(5, 4));
  EXPECT_TRUE(rel.po.test(5, 6));
  EXPECT_FALSE(rel.po.test(4, 5));  // different threads
  EXPECT_TRUE(rel.init.test(1, 4));
  EXPECT_FALSE(rel.init.test(1, 2));  // init to init: excluded
  EXPECT_TRUE(rel.ww.test(1, 4));     // init x before Wx1 by timestamp
  EXPECT_TRUE(rel.wr.test(4, 5));
}

TEST(Relations, WwFollowsTimestampsNotIndex) {
  TB b(1);
  b.w(0, 0, 2, 2).w(1, 0, 1, 1);  // index order opposite to ts order
  const Relations rel = Relations::compute(b.trace());
  EXPECT_TRUE(rel.ww.test(4, 3));
  EXPECT_FALSE(rel.ww.test(3, 4));
}

TEST(Relations, WrNeedsLocValueAndTs) {
  TB b(2);
  b.w(0, 0, 1, 1).r(1, 0, 1, 2);  // same value, wrong ts: no wr
  const Relations rel = Relations::compute(b.trace());
  EXPECT_FALSE(rel.wr.test(4, 5));
}

TEST(Relations, RwExcludesAbortedTargets) {
  // <a:Wx1> <c:Wx2 aborted> <b:Rx1> -- the paper's antidependency figure:
  // no rw edge to the aborted write.
  TB b(1);
  b.w(0, 0, 1, 1);
  b.begin(1).w(1, 0, 2, 2).abort(1);
  b.r(0, 0, 1, 1);
  const Trace& t = b.trace();
  const Relations rel = Relations::compute(t);
  const std::size_t read_idx = t.size() - 1;
  EXPECT_FALSE(rel.rw.test(read_idx, 5));  // 5 = aborted Wx2
}

TEST(Relations, RwPresentForCommittedTargets) {
  TB b(1);
  b.w(0, 0, 1, 1).w(1, 0, 2, 2).r(0, 0, 1, 1);
  const Trace& t = b.trace();
  const Relations rel = Relations::compute(t);
  EXPECT_TRUE(rel.rw.test(t.size() - 1, 4));
}

// The paper's lifted-relations figure: txn b = {Wy1, Wx1}; c reads y from
// b1; d is a plain write Wx2.
TEST(Relations, LiftingFigure) {
  TB bld(2);
  constexpr Loc X = 0, Y = 1;
  bld.begin(0).w(0, Y, 1, 1).w(0, X, 1, 1).commit(0);  // b: 4=B 5=Wy 6=Wx 7=C
  bld.begin(1).r(1, Y, 1, 1).commit(1);                // c: 8=B 9=Ry 10=C
  bld.w(2, X, 2, 2);                                   // d: 11
  const Trace& t = bld.trace();
  const Relations rel = Relations::compute(t);

  // b1 wr c but not b2 wr c ...
  EXPECT_TRUE(rel.wr.test(5, 9));
  EXPECT_FALSE(rel.wr.test(6, 9));
  // ... both hold lifted: b2 lwr c.
  EXPECT_TRUE(rel.lwr.test(6, 9));
  // b1 lww d holds (via b2 ww d), b1 ww d does not.
  EXPECT_FALSE(rel.ww.test(5, 11));
  EXPECT_TRUE(rel.lww.test(5, 11));
  // The x-variants exclude the plain d.
  EXPECT_FALSE(rel.xww.test(5, 11));
  EXPECT_FALSE(rel.xww.test(6, 11));
  // The c-variant of wr between committed txns holds.
  EXPECT_TRUE(rel.cwr.test(6, 9));
}

TEST(Relations, CVariantsExcludeAborted) {
  TB bld(1);
  bld.begin(0).w(0, 0, 1, 1).commit(0);
  bld.begin(1).r(1, 0, 1, 1).abort(1);
  const Trace& t = bld.trace();
  const Relations rel = Relations::compute(t);
  // writer committed (idx 4), reader aborted (idx 7).
  EXPECT_TRUE(rel.wr.test(4, 7));
  EXPECT_TRUE(rel.xwr.test(4, 7));
  EXPECT_FALSE(rel.cwr.test(4, 7));
}

TEST(Relations, LiftKeepsIntraTxnBasePairs) {
  TB bld(1);
  bld.begin(0).w(0, 0, 1, 1).r(0, 0, 1, 1).commit(0);
  const Trace& t = bld.trace();
  const Relations rel = Relations::compute(t);
  EXPECT_TRUE(rel.wr.test(4, 5));
  EXPECT_TRUE(rel.lwr.test(4, 5));  // first disjunct: base pair survives
  // But the same-txn pair does not lift to other members: B -> R say.
  EXPECT_FALSE(rel.lwr.test(3, 5));
}

TEST(Relations, TxEquivalenceIncludesBoundaries) {
  TB bld(1);
  bld.begin(0).w(0, 0, 1, 1).commit(0);
  const Relations rel = Relations::compute(bld.trace());
  EXPECT_TRUE(rel.tx.test(3, 5));  // begin ~ commit
  EXPECT_TRUE(rel.tx.test(4, 3));
  for (std::size_t i = 0; i < bld.trace().size(); ++i) EXPECT_TRUE(rel.tx.test(i, i));
}

// The word-parallel builder (compute_fast) and the forward-closure hb path
// (compute_hb_fast) must be exact-equivalent to the reference on *every*
// trace — including the shapes the fast paths were not designed for, where
// they must fall back rather than diverge: timestamp order against index
// order, duplicate timestamps (WF3-malformed), aborted and live txns,
// unfulfilled reads, summary fences, multi-writer value collisions.
std::vector<Trace> equivalence_zoo() {
  std::vector<Trace> zoo;
  {
    TB b(2);  // plain-only, ww backward in index order
    b.w(0, 0, 2, 2).w(1, 0, 1, 1).r(0, 0, 1, 1).w(1, 1, 3, 1);
    zoo.push_back(b.trace());
  }
  {
    TB b(1);  // duplicate timestamps: unrelated in ww either way
    b.w(0, 0, 1, 1).w(1, 0, 2, 1).r(0, 0, 1, 1);
    zoo.push_back(b.trace());
  }
  {
    TB b(2);  // committed / aborted / live txns plus plain traffic
    b.begin(0).w(0, 0, 1, 1).w(0, 1, 1, 1).commit(0);
    b.begin(1).r(1, 0, 1, 1).w(1, 0, 2, 2).abort(1);
    b.begin(2).r(2, 1, 1, 1);  // live: never resolves
    b.w(3, 0, 9, 3).r(3, 0, 9, 3);
    zoo.push_back(b.trace());
  }
  {
    TB b(3);  // fences: per-location and summary, with post-fence txns
    b.begin(0).w(0, 0, 1, 1).commit(0);
    b.fence(2, 0).fence(2, 1);
    b.begin(1).r(1, 0, 1, 1).w(1, 2, 5, 1).commit(1);
    b.fence_all(2);
    b.begin(0).w(0, 2, 6, 2).commit(0);
    zoo.push_back(b.trace());
  }
  {
    TB b(1);  // same (loc, value, ts) written twice: wr relates both writers
    b.w(0, 0, 7, 5).w(1, 0, 7, 5).r(2, 0, 7, 5).r(2, 0, 4, 9);  // last unfulfilled
    zoo.push_back(b.trace());
  }
  {
    TB b(2);  // intra-txn wr/ww pairs survive the lift's same-txn exclusion
    b.begin(0).w(0, 0, 1, 1).r(0, 0, 1, 1).w(0, 0, 2, 2).commit(0);
    b.begin(1).r(1, 0, 2, 2).commit(1);
    zoo.push_back(b.trace());
  }
  {
    TB b(1);  // committed txns whose ts order opposes index order: the hb
              // seed itself (cww) has a backward edge
    b.begin(0).w(0, 0, 2, 2).commit(0);
    b.begin(1).w(1, 0, 1, 1).commit(1);
    zoo.push_back(b.trace());
  }
  {
    TB b(1);  // one thread's txns in po against their ts order: po and cww
              // close a cycle, so the hb seed has no topological order
    b.begin(0).w(0, 0, 2, 2).commit(0);
    b.begin(0).w(0, 0, 1, 1).commit(0);
    zoo.push_back(b.trace());
  }
  {
    TB b(2);  // overlapping txns: the later-serialized one opens before the
              // earlier one's write, so lifted cww points back at its begin
    b.begin(1);
    b.begin(0).w(0, 0, 1, 1).commit(0);
    b.w(1, 0, 2, 2).w(1, 1, 2, 1).commit(1);
    b.r(0, 1, 2, 1).w(0, 1, 3, 2);
    zoo.push_back(b.trace());
  }
  zoo.push_back(Trace{});  // empty
  return zoo;
}

TEST(Relations, FastBuilderMatchesReferenceOnZoo) {
  for (const Trace& t : equivalence_zoo()) {
    const Relations ref = Relations::compute(t);
    const Relations fast = Relations::compute_fast(t);
    EXPECT_EQ(ref.index, fast.index);
    EXPECT_EQ(ref.init, fast.init);
    EXPECT_EQ(ref.po, fast.po);
    EXPECT_EQ(ref.ww, fast.ww);
    EXPECT_EQ(ref.wr, fast.wr);
    EXPECT_EQ(ref.rw, fast.rw);
    EXPECT_EQ(ref.tx, fast.tx);
    EXPECT_EQ(ref.lww, fast.lww);
    EXPECT_EQ(ref.lwr, fast.lwr);
    EXPECT_EQ(ref.lrw, fast.lrw);
    EXPECT_EQ(ref.xww, fast.xww);
    EXPECT_EQ(ref.xwr, fast.xwr);
    EXPECT_EQ(ref.xrw, fast.xrw);
    EXPECT_EQ(ref.cww, fast.cww);
    EXPECT_EQ(ref.cwr, fast.cwr);
    EXPECT_EQ(ref.crw, fast.crw);
  }
}

TEST(Relations, FastHbMatchesReferenceOnZoo) {
  // The zoo has acyclic seeds with backward edges (ts against index, and
  // overlapping txns), which compute_hb_fast closes along a topological
  // order other than the index order, and a cyclic seed, which it must
  // detect and hand to the Warshall path.  Either way it must agree.
  for (const Trace& t : equivalence_zoo()) {
    const Relations rel = Relations::compute(t);
    for (const auto& cfg :
         {model::ModelConfig::implementation(), model::ModelConfig::programmer(),
          model::ModelConfig::strongest(), model::ModelConfig::base()}) {
      EXPECT_EQ(model::compute_hb(t, rel, cfg),
                model::compute_hb_fast(t, rel, cfg))
          << cfg.name;
    }
  }
}

TEST(Relations, AxiomCheckMatchesReferenceAnalysisOnZoo) {
  // axioms_hold decides the composition axioms without composing through
  // hb (rotated irreflexivity probes, a word-wise topological sort for
  // causality); analyze() computes every composition.  Same verdicts, on
  // every model config, including the variants with the primed axioms.
  std::vector<model::ModelConfig> cfgs = model::ModelConfig::example_2_3_variants();
  for (const auto& cfg :
       {model::ModelConfig::implementation(), model::ModelConfig::programmer(),
        model::ModelConfig::strongest(), model::ModelConfig::base()})
    cfgs.push_back(cfg);
  for (const Trace& t : equivalence_zoo()) {
    const Relations rel = Relations::compute(t);
    for (const auto& cfg : cfgs) {
      const model::Analysis a = model::analyze(t, cfg);
      EXPECT_EQ(model::axioms_hold(t, rel, cfg), a.axioms_hold()) << cfg.name;
    }
  }
}

TEST(Relations, RaceScanMatchesPairwiseDefinitionOnZoo) {
  // find_l_races / has_mixed_race only pair accesses that share a location;
  // the definition quantifies over every index-ordered pair.
  for (const Trace& t : equivalence_zoo()) {
    const Relations rel = Relations::compute(t);
    const BitRel hb = model::compute_hb(t, rel, model::ModelConfig::base());
    const model::LocSet locs = model::all_locs(t);
    std::vector<std::pair<std::size_t, std::size_t>> want;
    bool want_mixed = false;
    for (std::size_t b = 0; b < t.size(); ++b)
      for (std::size_t c = b + 1; c < t.size(); ++c) {
        if (!model::is_l_race(t, hb, b, c, locs)) continue;
        want.emplace_back(b, c);
        if (t[b].is_write() && t[c].is_write() &&
            ((t.transactional(b) && t.plain(c)) ||
             (t.plain(b) && t.transactional(c))))
          want_mixed = true;
      }
    std::vector<std::pair<std::size_t, std::size_t>> got;
    for (const model::Race& r : model::find_l_races(t, hb, locs))
      got.emplace_back(r.first, r.second);
    EXPECT_EQ(got, want);
    EXPECT_EQ(model::has_l_race(t, hb, locs), !want.empty());
    EXPECT_EQ(model::has_mixed_race(t, hb), want_mixed);
  }
}

TEST(Relations, LiftFunctionMatchesStruct) {
  TB bld(2);
  bld.begin(0).w(0, 0, 1, 1).commit(0).r(1, 0, 1, 1);
  const Trace& t = bld.trace();
  const Relations rel = Relations::compute(t);
  EXPECT_EQ(model::lift(t, rel.wr), rel.lwr);
  EXPECT_EQ(model::lift(t, rel.ww), rel.lww);
}

}  // namespace
}  // namespace mtx::test
