// Unit tests for the support library: rationals, bit relations, digraphs,
// enumeration, RNG, statistics, formatting, threading.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>

#include "substrate/bitrel.hpp"
#include "substrate/digraph.hpp"
#include "substrate/enumerate.hpp"
#include "substrate/format.hpp"
#include "substrate/rational.hpp"
#include "substrate/rng.hpp"
#include "substrate/stats.hpp"
#include "substrate/threading.hpp"

namespace mtx {
namespace {

TEST(Rational, NormalizesSignAndGcd) {
  Rational r(6, -4);
  EXPECT_EQ(r.num(), -3);
  EXPECT_EQ(r.den(), 2);
  EXPECT_EQ(Rational(0, 7), Rational(0));
}

TEST(Rational, Arithmetic) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
  EXPECT_EQ(Rational(2, 3) * Rational(3, 4), Rational(1, 2));
  EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational(2));
  EXPECT_EQ(-Rational(1, 2), Rational(-1, 2));
}

TEST(Rational, Ordering) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_GT(Rational(7, 2), Rational(3));
  EXPECT_LT(Rational(-1, 2), Rational(0));
}

TEST(Rational, MidpointStrictlyBetween) {
  const Rational a(1), b(2);
  const Rational m = Rational::midpoint(a, b);
  EXPECT_LT(a, m);
  EXPECT_LT(m, b);
  // Repeated midpoints keep fitting (density of Q).
  Rational lo = a, hi = m;
  for (int i = 0; i < 10; ++i) {
    Rational mid = Rational::midpoint(lo, hi);
    EXPECT_LT(lo, mid);
    EXPECT_LT(mid, hi);
    hi = mid;
  }
}

TEST(Rational, ZeroDenominatorThrows) {
  EXPECT_THROW(Rational(1, 0), std::invalid_argument);
  EXPECT_THROW(Rational(1) / Rational(0), std::invalid_argument);
}

TEST(Rational, Str) {
  EXPECT_EQ(Rational(3).str(), "3");
  EXPECT_EQ(Rational(3, 2).str(), "3/2");
}

TEST(BitRel, SetTestCount) {
  BitRel r(70);  // cross word boundary
  EXPECT_FALSE(r.test(0, 69));
  r.set(0, 69);
  r.set(69, 0);
  EXPECT_TRUE(r.test(0, 69));
  EXPECT_EQ(r.count(), 2u);
  r.set(0, 69, false);
  EXPECT_EQ(r.count(), 1u);
}

TEST(BitRel, UnionIntersectionDifference) {
  BitRel a(4), b(4);
  a.set(0, 1);
  a.set(1, 2);
  b.set(1, 2);
  b.set(2, 3);
  EXPECT_EQ((a | b).count(), 3u);
  EXPECT_EQ((a & b).count(), 1u);
  EXPECT_EQ((a - b).count(), 1u);
  EXPECT_TRUE((a - b).test(0, 1));
}

TEST(BitRel, Compose) {
  BitRel a(4), b(4);
  a.set(0, 1);
  b.set(1, 2);
  b.set(1, 3);
  const BitRel c = a.compose(b);
  EXPECT_TRUE(c.test(0, 2));
  EXPECT_TRUE(c.test(0, 3));
  EXPECT_EQ(c.count(), 2u);
}

TEST(BitRel, TransitiveClosure) {
  BitRel r(5);
  r.set(0, 1);
  r.set(1, 2);
  r.set(2, 3);
  const BitRel c = r.transitive_closure();
  EXPECT_TRUE(c.test(0, 3));
  EXPECT_FALSE(c.test(3, 0));
  EXPECT_TRUE(c.is_irreflexive());
}

TEST(BitRel, AcyclicityDetectsCycle) {
  BitRel r(3);
  r.set(0, 1);
  r.set(1, 2);
  EXPECT_TRUE(r.is_acyclic());
  r.set(2, 0);
  EXPECT_FALSE(r.is_acyclic());
}

TEST(BitRel, AcyclicityDetectsSelfLoop) {
  BitRel r(2);
  r.set(1, 1);
  EXPECT_FALSE(r.is_acyclic());
}

TEST(BitRel, OrRowReportsChange) {
  BitRel a(70), b(70);
  b.set(1, 0);
  b.set(1, 69);
  EXPECT_TRUE(a.or_row(0, b, 1));
  EXPECT_TRUE(a.test(0, 0));
  EXPECT_TRUE(a.test(0, 69));
  EXPECT_FALSE(a.or_row(0, b, 1));  // idempotent
  // Self-aliased OR (row into itself) is a no-op.
  EXPECT_FALSE(b.or_row(1, b, 1));
}

TEST(BitRel, ReachableFromMatchesClosureRow) {
  BitRel r(6);
  r.set(0, 1);
  r.set(1, 2);
  r.set(2, 0);  // cycle through 0
  r.set(2, 4);
  r.set(5, 4);
  const BitRel c = r.transitive_closure();
  const auto reach = r.reachable_from(0);
  std::set<std::size_t> got(reach.begin(), reach.end());
  std::set<std::size_t> want;
  for (std::size_t b = 0; b < 6; ++b)
    if (c.test(0, b)) want.insert(b);
  EXPECT_EQ(got, want);
  EXPECT_TRUE(got.count(0));  // on a cycle, a reaches itself
  EXPECT_TRUE(r.reachable_from(3).empty());
}

TEST(BitRel, SubsetAndTranspose) {
  BitRel a(3), b(3);
  a.set(0, 1);
  b.set(0, 1);
  b.set(1, 2);
  EXPECT_TRUE(a.subset_of(b));
  EXPECT_FALSE(b.subset_of(a));
  EXPECT_TRUE(a.transposed().test(1, 0));
}

TEST(BitRel, TopologicalOrder) {
  BitRel r(4);
  r.set(2, 0);
  r.set(0, 1);
  r.set(1, 3);
  const auto order = r.topological_order();
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < 4; ++i) pos[order[i]] = i;
  EXPECT_LT(pos[2], pos[0]);
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[1], pos[3]);
  r.set(3, 2);  // cycle
  EXPECT_TRUE(r.topological_order().empty());
}

TEST(BitRel, DfsTopologicalOrderRespectsEveryPairOrKeepsOrderOnCycle) {
  BitRel r(5);
  r.set(3, 1);
  r.set(1, 4);
  r.set(4, 0);
  r.set(2, 3);
  std::vector<std::size_t> order;
  ASSERT_TRUE(r.topological_order_dfs(&order));
  ASSERT_EQ(order.size(), 5u);
  std::vector<std::size_t> pos(5);
  for (std::size_t i = 0; i < 5; ++i) pos[order[i]] = i;
  r.for_each([&](std::size_t x, std::size_t y) { EXPECT_LT(pos[x], pos[y]); });

  // 0 -> 3 closes 3->1->4->0; a failed search leaves the order untouched.
  r.set(0, 3);
  std::vector<std::size_t> untouched = {7};
  EXPECT_FALSE(r.topological_order_dfs(&untouched));
  EXPECT_EQ(untouched, std::vector<std::size_t>{7});
}

TEST(BitRel, DfsTopologicalOrderOnDenseRelationsPastOneWord) {
  // A transitively closed chain over three words, then one back edge into
  // its middle: the word-wise search must find the cycle through it.
  const std::size_t n = 150;
  BitRel chain(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) chain.set(i, j);
  std::vector<std::size_t> order;
  ASSERT_TRUE(chain.topological_order_dfs(&order));
  for (std::size_t k = 0; k < n; ++k) EXPECT_EQ(order[k], k);
  chain.set(n - 1, 70);
  EXPECT_FALSE(chain.topological_order_dfs(&order));
}

TEST(BitRel, FilteredAndRestricted) {
  BitRel r(4);
  r.set(0, 1);
  r.set(2, 3);
  const BitRel f = r.filtered([](std::size_t a, std::size_t) { return a == 0; });
  EXPECT_EQ(f.count(), 1u);
  std::vector<bool> mask = {true, true, false, false};
  EXPECT_EQ(r.restricted(mask).count(), 1u);
}

TEST(Digraph, TopoAndCycle) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_FALSE(g.has_cycle());
  auto order = g.topo_order();
  ASSERT_TRUE(order.has_value());
  g.add_edge(2, 0);
  EXPECT_TRUE(g.has_cycle());
  EXPECT_FALSE(g.topo_order().has_value());
}

TEST(Digraph, Sccs) {
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  const auto sccs = g.sccs();
  std::size_t big = 0;
  for (const auto& c : sccs) big = std::max(big, c.size());
  EXPECT_EQ(big, 3u);
  EXPECT_EQ(sccs.size(), 3u);
}

TEST(Digraph, Reachability) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const auto seen = g.reachable_from(0);
  EXPECT_TRUE(seen[1]);
  EXPECT_TRUE(seen[2]);
  EXPECT_FALSE(seen[3]);
  EXPECT_FALSE(seen[0]);  // not on a cycle
}

TEST(Enumerate, ProductCoversAllTuples) {
  std::set<std::vector<std::size_t>> seen;
  for_each_product({2, 3}, [&](const std::vector<std::size_t>& c) {
    seen.insert(c);
    return true;
  });
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Enumerate, EmptyRadixIsEmptyProduct) {
  int calls = 0;
  for_each_product({2, 0}, [&](const std::vector<std::size_t>&) {
    ++calls;
    return true;
  });
  EXPECT_EQ(calls, 0);
}

TEST(Enumerate, NoRadicesCallsOnce) {
  int calls = 0;
  for_each_product({}, [&](const std::vector<std::size_t>&) {
    ++calls;
    return true;
  });
  EXPECT_EQ(calls, 1);
}

TEST(Enumerate, EarlyStop) {
  int calls = 0;
  const bool complete = for_each_product({10}, [&](const std::vector<std::size_t>&) {
    return ++calls < 3;
  });
  EXPECT_FALSE(complete);
  EXPECT_EQ(calls, 3);
}

TEST(Enumerate, Permutations) {
  int calls = 0;
  for_each_permutation(4, [&](const std::vector<std::size_t>&) {
    ++calls;
    return true;
  });
  EXPECT_EQ(calls, 24);
}

TEST(Enumerate, ProductSizeSaturates) {
  EXPECT_EQ(product_size({3, 4}), 12u);
  EXPECT_EQ(product_size({0, 4}), 0u);
  std::vector<std::size_t> huge(11, 1u << 20);
  EXPECT_EQ(product_size(huge), std::numeric_limits<std::uint64_t>::max());
}

TEST(Enumerate, Budget) {
  Budget b(3);
  EXPECT_TRUE(b.spend());
  EXPECT_TRUE(b.spend(2));
  EXPECT_FALSE(b.spend());
  EXPECT_TRUE(b.exhausted());
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  bool lo = false, hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    lo |= v == -2;
    hi |= v == 2;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(5);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto w = v;
  r.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, Uniform01Bounds) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Stats, WelfordMeanVariance) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(Stats, Percentile) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(Stats, Histogram) {
  Histogram h(0, 10, 5);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  EXPECT_EQ(h.total(), 10u);
  for (std::size_t b = 0; b < h.buckets(); ++b) EXPECT_EQ(h.bucket_count(b), 2u);
  h.add(-5);   // clamps low
  h.add(100);  // clamps high
  EXPECT_EQ(h.bucket_count(0), 3u);
  EXPECT_EQ(h.bucket_count(4), 3u);
}

TEST(Format, TableAlignsColumns) {
  Table t({"name", "n"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.render();
  EXPECT_NE(s.find("alpha | 1"), std::string::npos);
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Format, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
}

TEST(Format, Fixed) { EXPECT_EQ(fixed(3.14159, 2), "3.14"); }

TEST(Threading, TeamRunsAllThreads) {
  std::atomic<int> sum{0};
  run_team(8, [&](std::size_t tid) { sum += static_cast<int>(tid); });
  EXPECT_EQ(sum.load(), 28);
}

TEST(Threading, BarrierReleasesTogether) {
  constexpr std::size_t n = 4;
  SpinBarrier barrier(n);
  std::atomic<int> before{0}, after{0};
  run_team(n, [&](std::size_t) {
    before.fetch_add(1);
    barrier.arrive_and_wait();
    // Everyone must have arrived before anyone proceeds.
    EXPECT_EQ(before.load(), static_cast<int>(n));
    after.fetch_add(1);
    barrier.arrive_and_wait();
    EXPECT_EQ(after.load(), static_cast<int>(n));
  });
}

TEST(Threading, HwThreadsClamped) {
  EXPECT_GE(hw_threads(), 1u);
  EXPECT_LE(hw_threads(4), 4u);
}

TEST(LatencyHist, BucketGeometryIsContiguousAndOrdered) {
  // Every value maps into a bucket whose [lower, upper] range contains it,
  // and bucket indices are monotone in the value.
  std::size_t prev = 0;
  for (std::uint64_t v : {0ull, 1ull, 15ull, 16ull, 17ull, 31ull, 32ull, 100ull,
                          1023ull, 1024ull, 123456789ull, ~0ull}) {
    const std::size_t i = LatencyHist::bucket_of(v);
    EXPECT_LE(LatencyHist::bucket_lower(i), v) << v;
    EXPECT_GE(LatencyHist::bucket_upper(i), v) << v;
    EXPECT_GE(i, prev) << v;
    prev = i;
  }
  EXPECT_LT(LatencyHist::bucket_of(~0ull), LatencyHist::kBuckets);
  // Exact unit buckets below 2^kSubBits.
  for (std::uint64_t v = 0; v < LatencyHist::kSub; ++v)
    EXPECT_EQ(LatencyHist::bucket_of(v), v);
}

TEST(LatencyHist, QuantilesMatchSortedVectorOracle) {
  Rng rng(404);
  LatencyHist h;
  std::vector<double> oracle;
  // Latency-shaped sample: a lognormal-ish body plus a heavy tail.
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t v = 100 + rng.below(10000);
    if (rng.chance(1, 50)) v *= 64;  // tail
    h.add(v);
    oracle.push_back(static_cast<double>(v));
  }
  EXPECT_EQ(h.count(), 20000u);
  for (double q : {0.10, 0.50, 0.90, 0.95, 0.99}) {
    const double exact = percentile(oracle, q * 100.0);
    const auto approx = static_cast<double>(h.quantile(q));
    // Log-scale buckets with 16 sub-buckets per octave bound the relative
    // error by half a sub-bucket width (~3.1%); allow 5% for interpolation
    // differences with the oracle's definition.
    EXPECT_NEAR(approx, exact, exact * 0.05) << q;
  }
  // Edge quantiles land in the min/max values' own buckets.
  EXPECT_GE(h.quantile(0.0), LatencyHist::bucket_lower(LatencyHist::bucket_of(h.min())));
  EXPECT_LE(h.quantile(0.0), LatencyHist::bucket_upper(LatencyHist::bucket_of(h.min())));
  EXPECT_LE(h.quantile(1.0), LatencyHist::bucket_upper(LatencyHist::bucket_of(h.max())));
  EXPECT_LE(h.quantile(0.0), h.quantile(1.0));
  EXPECT_EQ(LatencyHist().quantile(0.5), 0u);  // empty
}

TEST(LatencyHist, MergeEqualsWholeAndTracksMinMaxMean) {
  Rng rng(77);
  LatencyHist whole, first, second;
  double sum = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.below(1 << 20);
    whole.add(v);
    (i % 2 ? first : second).add(v);
    sum += static_cast<double>(v);
  }
  first.merge(second);
  EXPECT_EQ(first.count(), whole.count());
  EXPECT_EQ(first.min(), whole.min());
  EXPECT_EQ(first.max(), whole.max());
  for (double q : {0.25, 0.5, 0.75, 0.99})
    EXPECT_EQ(first.quantile(q), whole.quantile(q));
  EXPECT_NEAR(whole.mean(), sum / 5000.0, 1e-6);
}

TEST(LatencyHist, CountMeanMaxExactOracle) {
  // count/mean/min/max are tracked outside the bucket array, so they are
  // EXACT — pin them against hand-computed values, not bucket tolerances.
  LatencyHist h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  for (std::uint64_t v : {7ull, 100ull, 3ull, 1000000ull, 90ull}) h.add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 1000000u);
  EXPECT_NEAR(h.mean(), (7.0 + 100.0 + 3.0 + 1000000.0 + 90.0) / 5.0, 1e-9);
}

TEST(LatencyHist, ToJsonCarriesTheExactFields) {
  LatencyHist h;
  for (std::uint64_t v = 1; v <= 4; ++v) h.add(v);  // mean = 2.5, exact
  const std::string j = h.to_json();
  EXPECT_NE(j.find("\"count\": 4"), std::string::npos) << j;
  EXPECT_NE(j.find("\"mean_ns\": 2.5"), std::string::npos) << j;
  EXPECT_NE(j.find("\"min_ns\": 1"), std::string::npos) << j;
  EXPECT_NE(j.find("\"max_ns\": 4"), std::string::npos) << j;
  EXPECT_NE(j.find("\"p50_ns\": " + std::to_string(h.p50())),
            std::string::npos) << j;
  EXPECT_NE(j.find("\"p95_ns\": " + std::to_string(h.p95())),
            std::string::npos) << j;
  EXPECT_NE(j.find("\"p99_ns\": " + std::to_string(h.p99())),
            std::string::npos) << j;
  // Balanced braces, object-shaped.
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
}

TEST(Zipfian, DeterministicPerSeedAndInRange) {
  const Zipfian z(100, 0.99);
  Rng a(12), b(12), c(13);
  std::vector<std::uint64_t> sa, sb, sc;
  for (int i = 0; i < 1000; ++i) {
    sa.push_back(z.next(a));
    sb.push_back(z.next(b));
    sc.push_back(z.next(c));
  }
  EXPECT_EQ(sa, sb);        // same seed, identical stream
  EXPECT_NE(sa, sc);        // different seed, different stream
  for (std::uint64_t r : sa) EXPECT_LT(r, 100u);
}

TEST(Zipfian, FrequenciesTrackTheExactPmf) {
  // Chi-square-ish sanity: observed rank frequencies against the exact
  // zipf(θ) pmf over the head of the distribution.  The statistic is
  // deterministic per seed, so the generous bound cannot flake.
  constexpr std::uint64_t kN = 64;
  constexpr int kDraws = 50000;
  const Zipfian z(kN, 0.99);
  Rng rng(2024);
  std::vector<std::uint64_t> counts(kN, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[z.next(rng)];
  // Rank 0 dominates and the coarse shape is monotone.
  EXPECT_EQ(std::max_element(counts.begin(), counts.end()) - counts.begin(), 0);
  EXPECT_GT(counts[0], counts[7]);
  EXPECT_GT(counts[7], counts[63]);
  EXPECT_GT(counts[0], kDraws / static_cast<int>(kN));  // far above uniform
  double chi2 = 0;
  for (std::size_t r = 0; r < 16; ++r) {
    const double expect = kDraws / std::pow(static_cast<double>(r + 1), 0.99) /
                          z.zetan();
    chi2 += (static_cast<double>(counts[r]) - expect) *
            (static_cast<double>(counts[r]) - expect) / expect;
  }
  // The Gray et al. inversion is a continuous approximation with a
  // few-percent systematic bias per rank, so the statistic sits above the
  // pure-sampling-noise range (~16 dof => ~16-30); it is deterministic per
  // seed (measured: ~103) and a broken generator lands in the thousands.
  EXPECT_LT(chi2, 150.0);
  // θ = 0 degenerates to uniform-ish: the head loses its dominance.
  const Zipfian flat(kN, 0.0);
  Rng rng2(2024);
  std::vector<std::uint64_t> fcounts(kN, 0);
  for (int i = 0; i < kDraws; ++i) ++fcounts[flat.next(rng2)];
  EXPECT_LT(fcounts[0], counts[0] / 4);
}

}  // namespace
}  // namespace mtx
