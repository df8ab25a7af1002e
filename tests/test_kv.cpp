// The sharded KV store and its workload engine: store semantics, the two
// mixed-access protocols, the deterministic single-thread pin behind the
// campaign CSV rows, and — the oracle half — the scoped-vs-whole-store fence
// pin under streaming conformance on every registered backend, which is the
// suite's TSan surface (registered under the `concurrency` ctest label).
// The streaming pins proper (streaming == post-hoc, pub_heavy) live in
// tests/test_stream.cpp.
#include <gtest/gtest.h>

#include <set>

#include "containers/thash.hpp"
#include "kv/kvstore.hpp"
#include "kv/workload.hpp"
#include "stm/backend.hpp"

namespace {

using namespace mtx;

std::unique_ptr<stm::StmBackend> tl2() { return stm::make_backend("tl2"); }

TEST(THashSizing, BucketCountConstructorAndAccessor) {
  auto stm = tl2();
  containers::THash<stm::StmBackend> small(*stm, 8);
  EXPECT_EQ(small.bucket_count(), 8u);
  containers::THash<stm::StmBackend> dflt(*stm);
  EXPECT_EQ(dflt.bucket_count(), containers::THash<stm::StmBackend>::kDefaultBuckets);
}

TEST(THashSizing, RecommendedBucketsTargetsLoadFactorTwo) {
  using TH = containers::THash<stm::StmBackend>;
  EXPECT_EQ(TH::recommended_buckets(0), TH::kDefaultBuckets / 4);
  // Power of two, and load factor at the hint stays in (1, 4].
  for (std::size_t keys : {100u, 1000u, 5000u, 100000u}) {
    const std::size_t b = TH::recommended_buckets(keys);
    EXPECT_EQ(b & (b - 1), 0u) << keys;
    EXPECT_GE(b * 4, keys / 2) << keys;
    EXPECT_LE(b, keys) << keys;
  }
  // Monotone in the hint.
  EXPECT_LE(TH::recommended_buckets(100), TH::recommended_buckets(10000));
}

TEST(KvStore, PutGetEraseRmwRouteAcrossShards) {
  auto stm = tl2();
  kv::KvStore::Options o;
  o.shards = 4;
  o.expected_keys = 64;
  kv::KvStore store(*stm, o);
  for (std::int64_t k = 0; k < 40; ++k) EXPECT_TRUE(store.put(k, k * 10));
  EXPECT_EQ(store.size(), 40u);
  EXPECT_FALSE(store.put(7, 70));  // update, not insert
  std::int64_t v = 0;
  EXPECT_TRUE(store.get(7, &v));
  EXPECT_EQ(v, 70);
  EXPECT_TRUE(store.rmw(7, [](std::int64_t old) { return old + 1; }, &v));
  EXPECT_EQ(v, 71);
  EXPECT_FALSE(store.rmw(999, [](std::int64_t old) { return old; }));
  EXPECT_TRUE(store.erase(7));
  EXPECT_FALSE(store.get(7, nullptr));
  EXPECT_EQ(store.size(), 39u);
  // Keys actually spread: no shard holds everything.
  std::set<std::size_t> used;
  for (std::int64_t k = 0; k < 40; ++k) used.insert(store.shard_of(k));
  EXPECT_GT(used.size(), 1u);
}

TEST(KvStore, PrivatizeScanSeesExactContents) {
  auto stm = tl2();
  kv::KvStore::Options o;
  o.shards = 2;
  kv::KvStore store(*stm, o);
  std::int64_t expect_sum[2] = {0, 0};
  std::size_t expect_keys[2] = {0, 0};
  for (std::int64_t k = 0; k < 30; ++k) {
    store.put(k, k + 100);
    expect_sum[store.shard_of(k)] += k + 100;
    ++expect_keys[store.shard_of(k)];
  }
  for (std::size_t s = 0; s < 2; ++s) {
    std::int64_t fn_sum = 0;
    const kv::ScanResult r =
        store.privatize_scan(s, [&](std::int64_t, std::int64_t v) { fn_sum += v; });
    EXPECT_TRUE(r.privatized);
    EXPECT_EQ(r.keys, expect_keys[s]);
    EXPECT_EQ(r.value_sum, expect_sum[s]);
    EXPECT_EQ(fn_sum, expect_sum[s]);
    EXPECT_EQ(store.stats(s).scans, 1u);
  }
  // The shard reopened: writers go through again.
  EXPECT_TRUE(store.put(1000, 1));
}

TEST(KvStore, SnapshotPublishOnceThenPlainReads) {
  auto stm = tl2();
  kv::KvStore store(*stm);
  for (std::int64_t k = 0; k < 10; ++k) store.put(k, k * 3);
  EXPECT_FALSE(store.snapshot_attach());  // nothing published yet
  EXPECT_TRUE(store.publish_snapshot({0, 1, 2, 3}));
  EXPECT_FALSE(store.publish_snapshot({4}));  // once-only
  EXPECT_TRUE(store.snapshot_attach());
  std::int64_t v = 0;
  EXPECT_TRUE(store.snapshot_read(2, &v));
  EXPECT_EQ(v, 6);
  EXPECT_FALSE(store.snapshot_read(4, &v));  // not frozen
  // Later transactional updates do not disturb the frozen value.
  store.put(2, 999);
  EXPECT_TRUE(store.snapshot_read(2, &v));
  EXPECT_EQ(v, 6);
}

TEST(KvWorkload, MixesAreWellFormed) {
  EXPECT_GE(kv::standard_mixes().size(), 5u);
  for (const kv::Mix& m : kv::standard_mixes()) {
    EXPECT_EQ(m.total_pct(), 100) << m.name;
    EXPECT_NE(kv::mix_by_name(m.name), nullptr);
  }
  EXPECT_EQ(kv::mix_by_name("nope"), nullptr);
}

kv::KvWorkloadOptions small_opts(std::size_t threads, std::uint64_t seed) {
  kv::KvWorkloadOptions o;
  o.threads = threads;
  o.seed = seed;
  o.ops_per_thread = 48;
  o.store.preload_keys = 40;
  o.store.shards = 4;
  o.store.snap_keys = 4;
  return o;
}

// The campaign CSV/JSON rows only expose fields that are a pure function of
// (mix, seed, threads, ops): same-seed single-thread runs must agree on all
// of them — including final store contents via the invariant — and the op
// plan must not depend on the backend.
TEST(KvWorkload, DeterministicSingleThreadPin) {
  const kv::Mix& mix = *kv::mix_by_name("priv_heavy");
  auto s1 = stm::make_backend("tl2");
  auto s2 = stm::make_backend("tl2");
  auto s3 = stm::make_backend("sgl");
  const kv::KvResult a = kv::run_kv_workload(*s1, mix, small_opts(1, 5));
  const kv::KvResult b = kv::run_kv_workload(*s2, mix, small_opts(1, 5));
  const kv::KvResult c = kv::run_kv_workload(*s3, mix, small_opts(1, 5));
  for (const kv::KvResult* r : {&b, &c}) {
    EXPECT_EQ(a.ops, r->ops);
    EXPECT_EQ(a.reads, r->reads);
    EXPECT_EQ(a.updates, r->updates);
    EXPECT_EQ(a.inserts, r->inserts);
    EXPECT_EQ(a.scans, r->scans);
    EXPECT_EQ(a.rmws, r->rmws);
    EXPECT_EQ(a.snap_reads, r->snap_reads);
    EXPECT_TRUE(r->invariant_ok);
  }
  // Single thread: every scan attempt wins its privatization.
  EXPECT_EQ(a.scans_completed, a.scans);
  EXPECT_EQ(a.ops, a.reads + a.updates + a.inserts + a.scans + a.rmws + a.snap_reads);
  // A different seed reshuffles the plan.
  const kv::KvResult d = kv::run_kv_workload(*s1, mix, small_opts(1, 6));
  EXPECT_NE(std::make_tuple(a.reads, a.updates, a.scans),
            std::make_tuple(d.reads, d.updates, d.scans));
}

TEST(KvWorkload, OpCountsScheduleIndependentAcrossThreadedRuns) {
  const kv::Mix& mix = *kv::mix_by_name("a");
  auto s1 = stm::make_backend("norec");
  auto s2 = stm::make_backend("norec");
  const kv::KvResult a = kv::run_kv_workload(*s1, mix, small_opts(3, 9));
  const kv::KvResult b = kv::run_kv_workload(*s2, mix, small_opts(3, 9));
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_TRUE(a.invariant_ok);
  EXPECT_TRUE(b.invariant_ok);
}

// Determinism pin for per-shard quiescence domains: scoped fences and
// whole-store fences must yield the SAME verdicts — identical
// schedule-independent op counts (the campaign CSV/signature surface), a
// passing store audit, and zero non-conformant segments on both settings,
// on every backend, with the streaming verdict matching the post-hoc oracle
// on both.  Domain scoping changes what a fence waits for and what its
// recorded QFences cover, never the workload semantics or the conformance
// outcome.  The whole-store side is the sink_fences regression surface: a
// summary fence sunk past its own thread's later plain reads shows up here
// as an L-race.
TEST(KvConformance, ScopedAndGlobalFencesAgreeOnVerdicts) {
  const kv::Mix& mix = *kv::mix_by_name("priv_heavy");
  for (const std::string& name : stm::backend_names()) {
    kv::KvWorkloadOptions scoped = small_opts(3, 21);
    scoped.ops_per_thread = 32;  // A/B doubles the runs (and TSan multiplies
    scoped.store.preload_keys = 24;    // them again): keep this pin's geometry lean
    scoped.sample_every = 2;
    scoped.round_ops = 16;
    scoped.stream_compare_posthoc = true;
    kv::KvWorkloadOptions global = scoped;
    global.scoped_fences = false;
    auto s1 = stm::make_backend(name);
    auto s2 = stm::make_backend(name);
    const kv::KvResult a = kv::run_kv_workload(*s1, mix, scoped);
    const kv::KvResult b = kv::run_kv_workload(*s2, mix, global);
    EXPECT_EQ(a.ops, b.ops) << name;
    EXPECT_EQ(a.reads, b.reads) << name;
    EXPECT_EQ(a.updates, b.updates) << name;
    EXPECT_EQ(a.inserts, b.inserts) << name;
    EXPECT_EQ(a.scans, b.scans) << name;
    EXPECT_EQ(a.rmws, b.rmws) << name;
    EXPECT_EQ(a.snap_reads, b.snap_reads) << name;
    EXPECT_TRUE(a.invariant_ok) << name;
    EXPECT_TRUE(b.invariant_ok) << name;
    EXPECT_EQ(a.conf.nonconformant, 0u) << name << " (scoped)";
    EXPECT_EQ(b.conf.nonconformant, 0u) << name << " (global)";
    EXPECT_GT(a.conf.sessions, 0u) << name;
    EXPECT_GT(b.conf.sessions, 0u) << name;
    EXPECT_TRUE(a.conf.all_ok()) << name << " (scoped)";
    EXPECT_TRUE(b.conf.all_ok()) << name << " (global)";
    EXPECT_TRUE(a.conf.posthoc_match) << name << " (scoped)";
    EXPECT_TRUE(b.conf.posthoc_match) << name << " (global)";
  }
}

}  // namespace
