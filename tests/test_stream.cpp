// The streaming conformance pipeline: lock-free ring capture (wrap-around,
// loud overflow, in-band epoch marks), segment sealing and judgment
// concurrent with execution, and the acceptance pin — streaming verdicts
// byte-identical to post-hoc windowed checking on every registered backend.
// Registered under the `concurrency` ctest label (real producer/cutter/
// checker threads), so the sanitizer CI lanes cover the rings too.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "kv/workload.hpp"
#include "record/ring.hpp"
#include "record/stream.hpp"
#include "stm/backend.hpp"

namespace mtx::record {
namespace {

Event plain_write(std::uint64_t seq, std::int32_t loc, stm::word_t value,
                  std::uint64_t version) {
  Event e;
  e.seq = seq;
  e.kind = Ev::PlainWrite;
  e.loc = loc;
  e.value = value;
  e.version = version;
  return e;
}

TEST(EventRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(EventRing(1).capacity(), 1u);
  EXPECT_EQ(EventRing(3).capacity(), 4u);
  EXPECT_EQ(EventRing(8).capacity(), 8u);
  EXPECT_EQ(EventRing(9).capacity(), 16u);
  EXPECT_EQ(EventRing(1000).capacity(), 1024u);
}

// FIFO across many head/tail wraps: an 8-slot ring carries 1000 events when
// pushes and partial drains interleave, and the monotone-counter indexing
// never reorders, loses, or duplicates an item.
TEST(EventRing, FifoSurvivesWraparound) {
  EventRing ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  std::uint64_t pushed = 0, taken = 0;
  std::vector<RingItem> out;
  while (taken < 1000) {
    while (pushed < 1000 && ring.size() < ring.capacity()) {
      ASSERT_TRUE(ring.push(plain_write(pushed + 1, 0, pushed, pushed + 1)));
      ++pushed;
    }
    out.clear();
    ring.drain(out, 3);  // partial drains keep head and tail out of phase
    for (const RingItem& it : out) {
      ASSERT_FALSE(it.is_mark);
      ASSERT_EQ(it.ev.value, taken);
      ++taken;
    }
  }
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.size(), 0u);
}

// Overflow is drop-and-count, never overwrite and never silence: pushes
// into a full ring fail, the drop counter is sticky across drains, and the
// queued items come out untouched.
TEST(EventRing, FullRingDropsLoudly) {
  EventRing ring(4);
  for (std::uint64_t i = 0; i < 4; ++i)
    ASSERT_TRUE(ring.push(plain_write(i + 1, 0, i, i + 1)));
  EXPECT_FALSE(ring.push(plain_write(5, 0, 4, 5)));
  EXPECT_FALSE(ring.push(plain_write(6, 0, 5, 6)));
  EXPECT_EQ(ring.dropped(), 2u);
  EXPECT_TRUE(ring.overflowed());
  std::vector<RingItem> out;
  ring.drain(out);
  ASSERT_EQ(out.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].ev.value, i);
  // Slots freed: pushes succeed again, the overflow record stays.
  EXPECT_TRUE(ring.push(plain_write(7, 0, 6, 7)));
  EXPECT_EQ(ring.dropped(), 2u);
}

TEST(EventRing, MarksArriveInBandAndInOrder) {
  EventRing ring(8);
  ASSERT_TRUE(ring.push(plain_write(1, 0, 10, 1)));
  ASSERT_TRUE(ring.push(plain_write(2, 0, 11, 2)));
  ring.push_mark(0);
  ASSERT_TRUE(ring.push(plain_write(3, 0, 12, 3)));
  ring.push_mark(1);
  std::vector<RingItem> out;
  ring.drain(out);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_FALSE(out[0].is_mark);
  EXPECT_FALSE(out[1].is_mark);
  ASSERT_TRUE(out[2].is_mark);
  EXPECT_EQ(out[2].epoch, 0u);
  EXPECT_FALSE(out[3].is_mark);
  ASSERT_TRUE(out[4].is_mark);
  EXPECT_EQ(out[4].epoch, 1u);
}

// Marks are the sealing protocol and must not be dropped: push_mark into a
// full ring waits for the consumer instead of failing.
TEST(EventRing, MarkWaitsForSlotInsteadOfDropping) {
  EventRing ring(2);
  ASSERT_TRUE(ring.push(plain_write(1, 0, 0, 1)));
  ASSERT_TRUE(ring.push(plain_write(2, 0, 1, 2)));
  std::vector<RingItem> freed;
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ring.drain(freed, 1);
  });
  ring.push_mark(7);  // spins until the consumer frees a slot
  consumer.join();
  std::vector<RingItem> rest;
  ring.drain(rest);
  ASSERT_EQ(freed.size() + rest.size(), 3u);
  ASSERT_TRUE(rest.back().is_mark);
  EXPECT_EQ(rest.back().epoch, 7u);
  EXPECT_EQ(ring.dropped(), 0u);
}

// Direct pipeline exercise, single producer: three epochs of backend
// transactions stream through a ring, seal into three segments (state
// carried across by the cutter's synthesized transactions), every segment
// judges conformant, and the merged verdict equals the post-hoc oracle.
TEST(Stream, SegmentsJudgeLiveAndMatchPosthoc) {
  for (const std::string& name : stm::backend_names()) {
    SCOPED_TRACE(name);
    auto stm = stm::make_backend(name);
    RecordSession s;
    StreamOptions so;
    so.ring_capacity = 64;
    so.checkers = 1;
    so.compare_posthoc = true;
    so.require_full_opacity = stm->zombie_free();
    StreamConformance sc(s, {0}, so);
    stm::Cell x, y;
    {
      ScopedRecorder r(s, 0);
      r.rec().stream_to(&sc.ring(0));
      for (std::uint64_t e = 0; e < 3; ++e) {
        stm->atomically([&](auto& tx) { tx.write(x, 5 * e + 1); });
        stm->atomically([&](auto& tx) { tx.write(y, tx.read(x) + 10); });
        r.rec().mark_epoch(e);
      }
      r.rec().flush();
    }
    const StreamReport rep = sc.finish();
    EXPECT_TRUE(rep.ok()) << rep.str();
    EXPECT_EQ(rep.segments, 3u);
    EXPECT_EQ(rep.nonconformant, 0u);
    EXPECT_FALSE(rep.overflow);
    EXPECT_GT(rep.checked_events, 0u);
    ASSERT_TRUE(rep.posthoc_checked);
    EXPECT_TRUE(rep.posthoc_match)
        << "streaming: " << rep.merged.verdict()
        << "\nposthoc:   " << rep.posthoc.verdict();
    // finish() is idempotent: the second call returns the same report.
    const StreamReport again = sc.finish();
    EXPECT_EQ(again.segments, rep.segments);
    EXPECT_EQ(again.merged.verdict(), rep.merged.verdict());
  }
}

// A ring too small for its traffic poisons the whole run — overflow is a
// failed verdict, not a quietly thinner trace — while sealing (push_mark
// cannot drop) still delivers the segment count and the failure report.
TEST(Stream, OverflowPoisonsTheRun) {
  RecordSession s;
  StreamOptions so;
  so.ring_capacity = 1;
  so.checkers = 1;
  StreamConformance sc(s, {0}, so);
  EventRing& ring = sc.ring(0);
  // Burst against a 1-slot ring: the cutter cannot keep up (it sleeps when
  // idle), so a drop lands within the first few pushes.
  for (std::uint64_t i = 1; i <= 200000 && ring.dropped() == 0; ++i)
    ring.push(plain_write(i, 0, i, i));
  ASSERT_GT(ring.dropped(), 0u);
  ring.push_mark(0);
  const StreamReport rep = sc.finish();
  EXPECT_TRUE(rep.overflow);
  EXPECT_GT(rep.ring_dropped, 0u);
  EXPECT_FALSE(rep.ok());
  EXPECT_GE(rep.segments, 1u);  // the epoch still sealed and judged
}

}  // namespace
}  // namespace mtx::record

namespace {

using namespace mtx;

kv::KvWorkloadOptions stream_opts(std::size_t threads, std::uint64_t seed) {
  kv::KvWorkloadOptions o;
  o.threads = threads;
  o.seed = seed;
  o.ops_per_thread = 48;
  o.store.preload_keys = 40;
  o.store.shards = 4;
  o.store.snap_keys = 4;
  o.sample_every = 1;  // always-on
  o.round_ops = 16;
  o.stream_compare_posthoc = true;  // every test doubles as the oracle pin
  return o;
}

// The acceptance pin: the always-on streaming pipeline and the post-hoc
// windowed checker produce byte-identical verdict signatures on the same
// execution — for every registered backend, with zero non-conformant
// segments and zero ring drops.
TEST(KvStream, StreamingVerdictMatchesPosthocOnAllBackends) {
  const kv::Mix& mix = *kv::mix_by_name("priv_heavy");
  for (const std::string& name : stm::backend_names()) {
    auto stm = stm::make_backend(name);
    const kv::KvResult r = kv::run_kv_workload(*stm, mix, stream_opts(3, 21));
    EXPECT_TRUE(r.invariant_ok) << name;
    EXPECT_GT(r.conf.sessions, 0u) << name;
    EXPECT_GE(r.conf.windows, r.conf.sessions) << name;
    EXPECT_GT(r.conf.recorded_actions, 0u) << name;
    EXPECT_EQ(r.conf.nonconformant, 0u) << name;
    EXPECT_FALSE(r.conf.overflow) << name;
    EXPECT_EQ(r.conf.ring_dropped, 0u) << name;
    ASSERT_TRUE(r.conf.posthoc_checked) << name;
    EXPECT_TRUE(r.conf.posthoc_match) << name;
    EXPECT_TRUE(r.conf.all_ok()) << name;
  }
}

// Sampling levels: with sample_every = 2 only rounds 0 and 2 of the
// three-round run are recorded (one segment each, anchored by its own state
// replay — carry synthesis is off at sparse levels), the intervening round
// runs unrecorded, and the sampled stream still judges conformant and
// byte-identical to the post-hoc check of the same captured events.
TEST(KvStream, SampledStreamingIsConformantAndMatchesPosthoc) {
  const kv::Mix& mix = *kv::mix_by_name("priv_heavy");
  for (const std::string& name : stm::backend_names()) {
    auto stm = stm::make_backend(name);
    kv::KvWorkloadOptions o = stream_opts(3, 21);
    o.sample_every = 2;
    const kv::KvResult r = kv::run_kv_workload(*stm, mix, o);
    EXPECT_TRUE(r.invariant_ok) << name;
    EXPECT_EQ(r.conf.sessions, 2u) << name;  // rounds 0 and 2 of 3
    EXPECT_EQ(r.conf.nonconformant, 0u) << name;
    EXPECT_FALSE(r.conf.overflow) << name;
    ASSERT_TRUE(r.conf.posthoc_checked) << name;
    EXPECT_TRUE(r.conf.posthoc_match) << name;
    EXPECT_TRUE(r.conf.all_ok()) << name;
  }
}

// Publication under streaming: snapshot-heavy traffic (plain reads of
// frozen values) interleaved with transactional mutators, captured through
// the rings and judged live.
TEST(KvStream, PubHeavyStreamsConformantly) {
  const kv::Mix& mix = *kv::mix_by_name("pub_heavy");
  for (const std::string& name : {std::string("tl2"), std::string("eager")}) {
    auto stm = stm::make_backend(name);
    const kv::KvResult r = kv::run_kv_workload(*stm, mix, stream_opts(3, 33));
    EXPECT_TRUE(r.invariant_ok) << name;
    EXPECT_GT(r.snap_reads, 0u) << name;
    EXPECT_EQ(r.conf.nonconformant, 0u) << name;
    EXPECT_FALSE(r.conf.overflow) << name;
    ASSERT_TRUE(r.conf.posthoc_checked) << name;
    EXPECT_TRUE(r.conf.posthoc_match) << name;
  }
}

// The quiescence registry counters surface through KvResult: privatizing
// scans drive fences, fences advance epochs, and the coalescing contract
// (advances can be far fewer than calls, but never zero once one ran)
// holds end to end.
TEST(KvStream, RegistryCountersSurfaceThroughKvResult) {
  const kv::Mix& mix = *kv::mix_by_name("priv_heavy");
  auto stm = stm::make_backend("tl2");
  const kv::KvResult r = kv::run_kv_workload(*stm, mix, stream_opts(2, 9));
  EXPECT_GT(r.scans, 0u);
  EXPECT_GT(r.fence_calls, 0u);
  EXPECT_GT(r.epoch_advances, 0u);
  EXPECT_LE(r.epoch_advances, 2 * r.fence_calls);
}

}  // namespace
