// The runtime trace recorder and conformance pipeline: event capture from
// real STM runs, deterministic assembly into model::Traces, model-layer
// judgment (well-formedness, races, opacity), seeded single-thread replay
// determinism, and the campaign's recorded-execution job grid.
#include <gtest/gtest.h>

#include <algorithm>

#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "model/race.hpp"
#include "model/wellformed.hpp"
#include "record/assemble.hpp"
#include "record/conformance.hpp"
#include "record/recorder.hpp"
#include "record/workloads.hpp"
#include "stm/backend.hpp"

namespace mtx::record {
namespace {

using stm::make_backend;
using stm::backend_names;

TEST(Record, AssemblesManualPlainEvents) {
  RecordSession s;
  stm::Cell x, y;
  {
    ScopedRecorder r(s, 0);
    r.rec().synthetic_begin();
    x.plain_store(7);
    y.plain_store(9);
    r.rec().synthetic_commit();
    EXPECT_EQ(x.plain_load(), 7u);
  }
  const RecordedTrace rt = assemble(s);
  // init txn (B, Wx0, Wy0, C) + setup txn (B, Wx7, Wy9, C) + plain read.
  ASSERT_EQ(rt.trace.size(), 9u);
  EXPECT_TRUE(model::wellformed(rt.trace));
  EXPECT_EQ(rt.meta.num_locs, 2);
  EXPECT_EQ(rt.meta.plain_writes, 2u);
  EXPECT_EQ(rt.meta.plain_reads, 1u);
  EXPECT_EQ(rt.meta.committed, 1u);  // the synthetic setup txn
  EXPECT_EQ(rt.meta.plain_order, "acq_rel");
  // The read is fulfilled by the store: same loc, value 7, version 1.
  const model::Action& rd = rt.trace[8];
  EXPECT_TRUE(rd.is_read());
  EXPECT_EQ(rd.value, 7);
  EXPECT_EQ(rd.ts, Rational(1));
}

TEST(Record, ErasedBackendTransactionsAssemble) {
  for (const std::string& name : backend_names()) {
    SCOPED_TRACE(name);
    auto stm = make_backend(name);
    RecordSession s;
    stm::Cell x;
    {
      ScopedRecorder r(s, 0);
      stm->atomically([&](auto& tx) { tx.write(x, 5); });
      stm->atomically([&](auto& tx) { tx.write(x, tx.read(x) + 1); });
    }
    const RecordedTrace rt = assemble(s);
    // init (B, Wx0, C) + (B, Wx5, C) + (B, Rx5, Wx6, C) = 10 actions.
    ASSERT_EQ(rt.trace.size(), 10u);
    const ConformanceReport rep = check_conformance(rt.trace);
    EXPECT_TRUE(rep.wf.ok()) << rep.wf.str();
    EXPECT_EQ(rep.l_races, 0u);
    EXPECT_FALSE(rep.mixed_race);
    EXPECT_TRUE(rep.opaque);
    EXPECT_TRUE(rep.consistent);
    EXPECT_EQ(x.plain_load(), 6u);
  }
}

TEST(Record, UserAbortProducesAbortAction) {
  for (const std::string& name : backend_names()) {
    SCOPED_TRACE(name);
    auto stm = make_backend(name);
    RecordSession s;
    stm::Cell x;
    {
      ScopedRecorder r(s, 0);
      stm->atomically([&](auto& tx) { tx.write(x, 3); });
      const bool committed = stm->atomically([&](auto& tx) {
        tx.write(x, 999);
        tx.user_abort();
      });
      EXPECT_FALSE(committed);
    }
    EXPECT_EQ(x.plain_load(), 3u);
    const RecordedTrace rt = assemble(s);
    EXPECT_EQ(rt.meta.aborted, 1u);
    const ConformanceReport rep = check_conformance(rt.trace);
    // Eager/SGL traces contain the rolled-back in-place write inside the
    // aborted txn; lazy backends never published it.  Either way the model
    // must accept the trace: aborted writes are invisible.
    EXPECT_TRUE(rep.wf.ok()) << rep.wf.str();
    EXPECT_TRUE(rep.opaque);
    EXPECT_EQ(rep.l_races, 0u);
  }
}

TEST(Record, UnobservedInitializationIsCaughtAsUnfulfilledRead) {
  // A cell that acquires a nonzero value outside recording breaks WF6 when
  // read — the seam exists precisely so workloads route initialization
  // through recorded writes (synthetic setup txns).
  RecordSession s;
  stm::Cell z(42);  // raw-initialized: no recorded write
  {
    ScopedRecorder r(s, 0);
    EXPECT_EQ(z.plain_load(), 42u);
  }
  const RecordedTrace rt = assemble(s);
  const model::WfReport wf = model::check_wellformed(rt.trace);
  EXPECT_FALSE(wf.ok());
  EXPECT_TRUE(wf.violates(6));
}

TEST(Record, MixedRaceIsDetected) {
  // Two threads, no transactional bridge: a plain write racing a
  // transactional write on the same location must be flagged — this is the
  // oracle's negative control.
  auto stm = make_backend("tl2");
  RecordSession s;
  stm::Cell x;
  {
    ScopedRecorder r(s, 1);
    x.plain_store(1);
  }
  {
    ScopedRecorder r(s, 2);
    stm->atomically([&](auto& tx) { tx.write(x, 2); });
  }
  const RecordedTrace rt = assemble(s);
  const ConformanceReport rep = check_conformance(rt.trace);
  EXPECT_TRUE(rep.wf.ok()) << rep.wf.str();
  EXPECT_TRUE(rep.mixed_race);
  EXPECT_GT(rep.l_races, 0u);
  EXPECT_FALSE(rep.ok());
}

TEST(Record, ConcurrentFencesInsideOneTxnSinkPastIt) {
  // Two fences ticketed while one transaction is open (two threads
  // quiescing concurrently against a straggler txn): assembly must
  // terminate and sink BOTH fences just past the resolution, preserving
  // their relative order — the stale-index fixpoint of an earlier draft
  // looped forever on exactly this shape.
  RecordSession s;
  stm::Cell x;
  ThreadRecorder* t1 = s.attach(1);
  ThreadRecorder* t2 = s.attach(2);
  ThreadRecorder* t3 = s.attach(3);
  t1->on_begin();
  t2->on_fence();
  t3->on_fence();
  t1->tx_publish(x, 1);
  t1->on_commit();
  const RecordedTrace rt = assemble(s);
  // init (B, Wx0, C) + txn (B, Wx1, C) + the two sunk fences.
  ASSERT_EQ(rt.trace.size(), 8u);
  EXPECT_TRUE(rt.trace[5].is_commit());
  EXPECT_TRUE(rt.trace[6].is_qfence());
  EXPECT_TRUE(rt.trace[7].is_qfence());
  EXPECT_EQ(rt.trace[6].thread, 2);
  EXPECT_EQ(rt.trace[7].thread, 3);
  EXPECT_TRUE(model::wellformed(rt.trace));
}

// ----- sink_fences: the WF12 adjustment, one rule for both fence kinds ----

MergedEvent merged(int thread, Ev kind, std::int32_t loc = -1) {
  MergedEvent m;
  m.thread = thread;
  m.ev.kind = kind;
  m.ev.loc = loc;
  return m;
}

// Merges a session's logs in seq order, as assemble() does before sinking.
std::vector<MergedEvent> merged_events(const RecordSession& s) {
  std::vector<MergedEvent> evs;
  for (const auto& rec : s.recorders())
    for (const Event& e : rec->events()) evs.push_back({e, rec->thread_id()});
  std::sort(evs.begin(), evs.end(), [](const MergedEvent& a, const MergedEvent& b) {
    return a.ev.seq < b.ev.seq;
  });
  return evs;
}

// Index of the first fence event of `thread` whose family includes `loc`
// (an unsplit whole-store fence includes every location), or -1.
int fence_covering(const std::vector<MergedEvent>& evs, int thread,
                   std::int32_t loc) {
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const MergedEvent& m = evs[i];
    if (m.ev.kind != Ev::Fence || m.thread != thread) continue;
    if (m.ev.cover == -1) return static_cast<int>(i);  // unsplit whole-store
    if (m.ev.cover == kFenceCoverSingle && m.ev.loc == loc) return static_cast<int>(i);
  }
  return -1;
}

int index_of(const std::vector<MergedEvent>& evs, int thread, Ev kind,
             std::int32_t loc = -1) {
  for (std::size_t i = 0; i < evs.size(); ++i)
    if (evs[i].thread == thread && evs[i].ev.kind == kind && evs[i].ev.loc == loc)
      return static_cast<int>(i);
  return -1;
}

TEST(SinkFences, WholeStoreFenceKeepsFencersLaterAccessesAfterIt) {
  // t2's transaction is open across t1's whole-store fence and touches x9
  // only.  Sinking the whole fence past t2's commit would carry it past
  // t1's own later read of x5 — inverting po and cutting the
  // commit -> <Qx5> -> po -> read chain.  Only <Qx9> may move.
  RecordSession s;
  std::vector<MergedEvent> evs = {
      merged(2, Ev::Begin), merged(1, Ev::Fence), merged(1, Ev::Read, 5),
      merged(2, Ev::Read, 9), merged(2, Ev::Commit)};
  sink_fences(evs, s);
  const int read5 = index_of(evs, 1, Ev::Read, 5);
  const int q5 = fence_covering(evs, 1, 5);
  ASSERT_GE(read5, 0);
  ASSERT_GE(q5, 0);
  EXPECT_LT(q5, read5) << "the fencer's read of x5 came out ahead of its own fence";
  // <Qx9> still sinks past the span that touches x9 (WF12).
  const int q9 = fence_covering(evs, 1, 9);
  ASSERT_GE(q9, 0);
  EXPECT_GT(q9, index_of(evs, 2, Ev::Commit));
}

// t2 opens a transaction and writes x (transactionally, or with a plain
// store when `plain`); t1 fences (scoped to {x}, or whole-store) while it is
// open; t2 commits.  WF12 demands <Qx> after that commit.
void expect_fence_sinks_past_open_txn(bool plain) {
  for (const bool scoped : {true, false}) {
    SCOPED_TRACE(scoped ? "scoped" : "whole-store");
    auto stm = make_backend("tl2");
    RecordSession s;
    stm::Cell x;
    stm::QuiesceDomain dom;
    dom.id = stm->create_domain();
    dom.cells = [&](const stm::QuiesceDomain::CellVisitor& v) { v(x); };
    ThreadRecorder* t1 = s.attach(1);
    ThreadRecorder* t2 = s.attach(2);
    t2->on_begin();
    if (plain)
      t2->plain_store(x, 7);
    else
      t2->tx_publish(x, 7);
    if (scoped)
      t1->on_fence_scoped(dom);
    else
      t1->on_fence();
    t2->on_commit();
    std::vector<MergedEvent> evs = merged_events(s);
    sink_fences(evs, s);
    const int q = fence_covering(evs, 1, s.loc_id(x));
    ASSERT_GE(q, 0);
    EXPECT_GT(q, index_of(evs, 2, Ev::Commit));
    EXPECT_TRUE(model::wellformed(assemble(s).trace));
  }
}

TEST(SinkFences, FenceSinksPastOpenTransactionTouchingItsLocation) {
  // The WF12 adjustment itself, for both fence kinds: a transaction that
  // touches x and is open at the fence's ticket resolves before <Qx>.
  expect_fence_sinks_past_open_txn(/*plain=*/false);
}

TEST(SinkFences, PlainStoreInsideTransactionCountsAsTouch) {
  // A fresh node's fields are initialized with plain stores inside the
  // inserting transaction (THash::put_in), and the model counts those
  // stores as transaction members, so they put x in the span's footprint.
  expect_fence_sinks_past_open_txn(/*plain=*/true);
}

TEST(Record, ScopedFenceExpandsToCoveredLocationsOnly) {
  // A domain-scoped fence assembles into one <Qx> per location its domain
  // enumerates — not one per location in the store (the PR 5 perf note).
  auto stm = make_backend("tl2");
  RecordSession s;
  stm::Cell x, y;
  stm::QuiesceDomain dom;
  dom.id = stm->create_domain();
  dom.cells = [&](const stm::QuiesceDomain::CellVisitor& v) { v(x); };
  {
    ScopedRecorder r(s, 1);
    stm->atomically([&](auto& tx) {
      tx.write(x, 1);
      tx.write(y, 2);
    });
    stm->quiesce(dom);
  }
  const RecordedTrace rt = assemble(s);
  EXPECT_EQ(rt.meta.fences, 1u);
  std::size_t qfences = 0;
  for (std::size_t i = 0; i < rt.trace.size(); ++i)
    if (rt.trace[i].is_qfence()) {
      ++qfences;
      EXPECT_EQ(rt.trace[i].loc, s.loc_id(x));  // never y
    }
  EXPECT_EQ(qfences, 1u);  // an unscoped fence would expand to 2 here
  EXPECT_TRUE(model::wellformed(rt.trace));
}

TEST(Record, UnderScopedFenceIsCaughtAsMixedRaceAndInvalidCut) {
  // Negative control for the domain-annotation contract: a fence whose
  // domain does NOT cover a location the protocol actually relies on gives
  // the model no <Qc> to order through — the privatized-phase plain write
  // races the transactional write, and the fence group is rejected as a cut
  // (c is uncovered with traffic on both sides, rule (d)).
  auto stm = make_backend("tl2");
  RecordSession s;
  stm::Cell a, c;
  stm::QuiesceDomain dom;
  dom.id = stm->create_domain();
  dom.cells = [&](const stm::QuiesceDomain::CellVisitor& v) { v(a); };  // no c
  {
    ScopedRecorder r(s, 1);
    stm->atomically([&](auto& tx) { tx.write(c, 7); });
  }
  {
    ScopedRecorder r(s, 2);
    stm->quiesce(dom);
    c.plain_store(8);  // privatized-phase write the fence missed
  }
  const RecordedTrace rt = assemble(s);
  const ConformanceReport rep = check_conformance(rt.trace);
  EXPECT_TRUE(rep.wf.ok()) << rep.wf.str();
  EXPECT_GT(rep.l_races, 0u);
  EXPECT_TRUE(rep.mixed_race) << "under-scoped fence must not order c";
  EXPECT_FALSE(rep.ok());
  const WindowPlan plan = cut_windows(rt.trace);
  EXPECT_EQ(plan.cut_candidates, 1u);
  EXPECT_EQ(plan.cuts, 0u) << "cross-cut traffic on uncovered c";
  ASSERT_EQ(plan.windows.size(), 1u);
}

TEST(Record, CorrectlyScopedFenceOrdersPrivatizationAndCuts) {
  // The same protocol with the domain covering c: the expanded <Qc> orders
  // the committed write before the fencing thread's plain read (HBCQ, then
  // po out of the fence), so there is no race and the group is a valid cut.
  auto stm = make_backend("tl2");
  RecordSession s;
  stm::Cell a, c;
  stm::QuiesceDomain dom;
  dom.id = stm->create_domain();
  dom.cells = [&](const stm::QuiesceDomain::CellVisitor& v) {
    v(a);
    v(c);
  };
  {
    ScopedRecorder r(s, 1);
    stm->atomically([&](auto& tx) { tx.write(c, 7); });
  }
  {
    ScopedRecorder r(s, 2);
    stm->quiesce(dom);
    c.plain_store(8);  // same write, now ordered: commit -> <Qc> -> po
  }
  const RecordedTrace rt = assemble(s);
  const ConformanceReport rep = check_conformance(rt.trace);
  EXPECT_TRUE(rep.wf.ok()) << rep.wf.str();
  EXPECT_FALSE(rep.mixed_race);
  EXPECT_EQ(rep.l_races, 0u);
  EXPECT_TRUE(rep.ok());
  const WindowPlan plan = cut_windows(rt.trace);
  EXPECT_EQ(plan.cut_candidates, 1u);
  EXPECT_EQ(plan.cuts, 1u);
  EXPECT_EQ(plan.windows.size(), 2u);
}

TEST(Record, PartialCoverageCutValidWhenUncoveredTrafficIsOneSided) {
  // Rule (d) is one-sided: an uncovered location with all its accesses on
  // one side of the group does not invalidate the cut — which is exactly
  // why a shard-scoped KV fence still cuts windows confined to its shard.
  auto stm = make_backend("tl2");
  RecordSession s;
  stm::Cell a, b;
  stm::QuiesceDomain dom;
  dom.id = stm->create_domain();
  dom.cells = [&](const stm::QuiesceDomain::CellVisitor& v) { v(a); };  // no b
  {
    ScopedRecorder r(s, 1);
    stm->atomically([&](auto& tx) {
      tx.write(a, 1);
      tx.write(b, 2);  // b's ONLY access: pre-group
    });
  }
  {
    ScopedRecorder r(s, 2);
    stm->quiesce(dom);
    EXPECT_EQ(a.plain_load(), 1u);
  }
  const RecordedTrace rt = assemble(s);
  const ConformanceReport rep = check_conformance(rt.trace);
  EXPECT_TRUE(rep.ok()) << rep.wf.str();
  const WindowPlan plan = cut_windows(rt.trace);
  EXPECT_EQ(plan.cut_candidates, 1u);
  EXPECT_EQ(plan.cuts, 1u);
  EXPECT_EQ(plan.windows.size(), 2u);
}

TEST(Record, SeededSingleThreadReplayIsByteIdentical) {
  for (const std::string& name : backend_names()) {
    SCOPED_TRACE(name);
    WorkloadOptions o;
    o.threads = 1;
    o.seed = 7;
    o.ops_per_thread = 10;
    auto stm1 = make_backend(name);
    auto stm2 = make_backend(name);
    const RecordedRun a = run_recorded_workload("bank", *stm1, o);
    const RecordedRun b = run_recorded_workload("bank", *stm2, o);
    EXPECT_TRUE(a.invariant_ok);
    EXPECT_EQ(a.rec.trace.str(), b.rec.trace.str());
    EXPECT_EQ(a.rec.meta.events, b.rec.meta.events);
    EXPECT_EQ(a.rec.meta.committed, b.rec.meta.committed);
  }
}

TEST(Record, ConformanceGridAllBackendsAllWorkloads) {
  WorkloadOptions o;
  o.threads = 2;
  o.seed = 11;
  o.ops_per_thread = 6;
  for (const std::string& w : workload_names()) {
    for (const std::string& b : backend_names()) {
      SCOPED_TRACE(w + "/" + b);
      auto stm = make_backend(b);
      const RecordedRun run = run_recorded_workload(w, *stm, o);
      EXPECT_TRUE(run.invariant_ok);
      const ConformanceReport rep = check_conformance(run.rec.trace);
      EXPECT_TRUE(rep.wf.ok()) << rep.wf.str() << run.rec.trace.str();
      EXPECT_EQ(rep.l_races, 0u) << run.rec.trace.str();
      EXPECT_FALSE(rep.mixed_race);
      // Zombie-free backends are opaque including aborted readers; eager
      // (Example 3.4) may record doomed inconsistent snapshots and is only
      // held to committed-subsystem opacity.
      EXPECT_TRUE(rep.opaque_committed);
      if (stm->zombie_free()) {
        EXPECT_TRUE(rep.opaque);
      }
    }
  }
}

TEST(Record, PrivatizationWorkloadRecordsFences) {
  auto stm = make_backend("tl2");
  WorkloadOptions o;
  o.threads = 3;
  o.seed = 5;
  o.ops_per_thread = 6;
  const RecordedRun run = run_recorded_workload("bank_priv", *stm, o);
  EXPECT_TRUE(run.invariant_ok);
  EXPECT_GE(run.rec.meta.fences, 2u);
  bool has_qfence = false;
  for (std::size_t i = 0; i < run.rec.trace.size(); ++i)
    if (run.rec.trace[i].is_qfence()) has_qfence = true;
  EXPECT_TRUE(has_qfence);
  const ConformanceReport rep = check_conformance(run.rec.trace);
  EXPECT_TRUE(rep.wf.ok()) << rep.wf.str();
  EXPECT_FALSE(rep.wf.violates(12));
  EXPECT_EQ(rep.l_races, 0u) << run.rec.trace.str();
  EXPECT_FALSE(rep.mixed_race);
}

TEST(Record, WindowedVerdictsMatchMonolithicAcrossGrid) {
  // The fence-bounded windowed checker must agree byte-for-byte with the
  // monolithic checker on the whole backend x workload x threads grid.
  // min_window_events is forced low so fence-rich workloads really split.
  WindowedOptions wnd;
  wnd.min_window_events = 16;
  WorkloadOptions o;
  o.seed = 11;
  o.ops_per_thread = 8;
  bool saw_multi_window = false;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    o.threads = threads;
    for (const std::string& w : workload_names()) {
      for (const std::string& b : backend_names()) {
        SCOPED_TRACE(w + "/" + b + "/t" + std::to_string(threads));
        auto stm = make_backend(b);
        const RecordedRun run = run_recorded_workload(w, *stm, o);
        const ConformanceReport mono = check_conformance(run.rec.trace);
        const ConformanceReport windowed =
            check_conformance_windowed(run.rec.trace,
                                       model::ModelConfig::implementation(), wnd);
        EXPECT_EQ(windowed.verdict(), mono.verdict()) << run.rec.trace.str();
        EXPECT_EQ(windowed.actions, mono.actions);
        EXPECT_EQ(windowed.committed, mono.committed);
        EXPECT_EQ(windowed.aborted, mono.aborted);
        if (windowed.windows > 1) saw_multi_window = true;
      }
    }
  }
  // The grid must actually exercise windowing (bank_priv carries fences).
  EXPECT_TRUE(saw_multi_window);
}

TEST(Record, WindowedParallelMatchesSerial) {
  auto stm = make_backend("tl2");
  WorkloadOptions o;
  o.threads = 3;
  o.seed = 9;
  o.ops_per_thread = 40;
  const RecordedRun run = run_recorded_workload("bank_priv", *stm, o);
  WindowedOptions serial;
  serial.min_window_events = 16;
  serial.threads = 1;
  WindowedOptions parallel = serial;
  parallel.threads = 4;
  const ConformanceReport a = check_conformance_windowed(
      run.rec.trace, model::ModelConfig::implementation(), serial);
  const ConformanceReport b = check_conformance_windowed(
      run.rec.trace, model::ModelConfig::implementation(), parallel);
  EXPECT_GT(a.windows, 1u);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Record, MixedRaceStraddlingWindowCutIsStillCaught) {
  // Negative control for the window engine: an unpublished plain write
  // races a transactional write on the far side of a quiescence fence.
  // The racy access invalidates the cut (its publication chain through the
  // fence is missing), the window grows across the fence, and the race is
  // reported exactly as the monolithic checker reports it.
  model::Trace t = model::Trace::with_init(2);
  // A committed txn so the fence has honest pre-cut work to order.
  const int b1 = t.append(model::make_begin(2));
  t.append(model::make_write(2, 0, 1, Rational(1)));
  t.append(model::make_write(2, 1, 1, Rational(1)));
  t.append(model::make_commit(2, t[static_cast<std::size_t>(b1)].name));
  // Thread 1 reads the txn's value transactionally (ordering it after the
  // writer), then writes plainly and NEVER publishes: the later racing
  // access is the only unordered conflicting pair.
  const int r1 = t.append(model::make_begin(1));
  t.append(model::make_read(1, 0, 1, Rational(1)));
  t.append(model::make_commit(1, t[static_cast<std::size_t>(r1)].name));
  t.append(model::make_write(1, 0, 5, Rational(2)));
  // A full-quiescence group by thread 3.
  t.append(model::make_qfence(3, 0));
  t.append(model::make_qfence(3, 1));
  // The transactional write it races with, beginning after the fence.
  const int b2 = t.append(model::make_begin(2));
  t.append(model::make_write(2, 0, 7, Rational(3)));
  t.append(model::make_commit(2, t[static_cast<std::size_t>(b2)].name));

  const ConformanceReport mono = check_conformance(t);
  ASSERT_TRUE(mono.mixed_race);  // the seeded race is real
  ASSERT_EQ(mono.l_races, 1u);   // ...and it is exactly the straddling pair

  WindowedOptions wnd;
  wnd.min_window_events = 0;
  const ConformanceReport windowed = check_conformance_windowed(
      t, model::ModelConfig::implementation(), wnd);
  EXPECT_TRUE(windowed.mixed_race);
  EXPECT_EQ(windowed.verdict(), mono.verdict());
  // The cut was refused, not silently taken: the race never straddled
  // independently-checked windows.
  EXPECT_EQ(windowed.windows, 1u);

  // Control of the control: the same shape with the plain write properly
  // bracketed (privatized by a transactional read of the writer's value,
  // published by a commit touching the location before the fence) makes the
  // cut valid -- two windows, no race, verdicts still identical.
  model::Trace u = model::Trace::with_init(2);
  const int c1 = u.append(model::make_begin(2));
  u.append(model::make_write(2, 0, 1, Rational(1)));
  u.append(model::make_write(2, 1, 1, Rational(1)));
  u.append(model::make_commit(2, u[static_cast<std::size_t>(c1)].name));
  const int c2 = u.append(model::make_begin(1));  // privatizing read
  u.append(model::make_read(1, 0, 1, Rational(1)));
  u.append(model::make_commit(1, u[static_cast<std::size_t>(c2)].name));
  u.append(model::make_write(1, 0, 5, Rational(2)));
  const int c3 = u.append(model::make_begin(1));  // publication txn
  u.append(model::make_read(1, 0, 5, Rational(2)));
  u.append(model::make_commit(1, u[static_cast<std::size_t>(c3)].name));
  u.append(model::make_qfence(3, 0));
  u.append(model::make_qfence(3, 1));
  const int c4 = u.append(model::make_begin(2));
  u.append(model::make_read(2, 0, 5, Rational(2)));
  u.append(model::make_write(2, 0, 7, Rational(3)));
  u.append(model::make_commit(2, u[static_cast<std::size_t>(c4)].name));
  const ConformanceReport mu = check_conformance(u);
  EXPECT_EQ(mu.l_races, 0u) << u.str();
  const ConformanceReport wu = check_conformance_windowed(
      u, model::ModelConfig::implementation(), wnd);
  EXPECT_EQ(wu.windows, 2u);
  EXPECT_EQ(wu.verdict(), mu.verdict());
}

TEST(Record, LongRecordingWindowedConformance) {
  // The scaling regime: a fence-rich recording far beyond what the
  // monolithic O(n^2)-relations checker should be asked to judge.  Kept to
  // a few thousand events so debug/sanitizer CI jobs stay fast; the
  // 10^4-event runs live in bench_checker / bench_stm_scaling.
  auto stm = make_backend("tl2");
  WorkloadOptions o;
  o.threads = 3;
  o.seed = 21;
  o.ops_per_thread = 120;
  const RecordedRun run = run_recorded_workload("bank_priv", *stm, o);
  EXPECT_TRUE(run.invariant_ok);
  EXPECT_GT(run.rec.trace.size(), 2000u);
  const ConformanceReport rep = check_conformance_windowed(run.rec.trace);
  EXPECT_GT(rep.windows, 4u) << "fences did not spread across the recording";
  EXPECT_TRUE(rep.wf.ok()) << rep.wf.str();
  EXPECT_EQ(rep.l_races, 0u);
  EXPECT_FALSE(rep.mixed_race);
  EXPECT_TRUE(rep.opaque_committed);
}

TEST(Record, CampaignRecordedJobGrid) {
  campaign::CampaignOptions opts;
  opts.litmus_jobs = false;
  opts.record_jobs = true;
  opts.record_threads = {1, 2};
  opts.record_ops = 4;
  opts.threads = 1;
  const campaign::CampaignResult serial = campaign::run_campaign(opts);
  ASSERT_EQ(serial.recorded.size(),
            workload_names().size() * backend_names().size() * 2);
  EXPECT_EQ(serial.mismatches, 0u);
  for (const campaign::RecordRow& row : serial.recorded) {
    SCOPED_TRACE(row.workload + "/" + row.backend);
    EXPECT_TRUE(row.ok());
    EXPECT_TRUE(row.wellformed);
    EXPECT_TRUE(row.opaque_committed);
  }

  // Scheduling-independent surface: a parallel campaign produces the same
  // signature (committed counts are fixed by workload x seed x threads).
  campaign::CampaignOptions par = opts;
  par.threads = 4;
  const campaign::CampaignResult parallel = campaign::run_campaign(par);
  EXPECT_EQ(campaign::verdict_signature(serial),
            campaign::verdict_signature(parallel));

  // Reports carry the rows.
  const std::string json = campaign::to_json(serial, "test");
  EXPECT_NE(json.find("\"recorded\""), std::string::npos);
  EXPECT_NE(json.find("\"workload\": \"bank\""), std::string::npos);
  const std::string csv = campaign::to_csv(serial);
  EXPECT_NE(csv.find("rec:bank:tl2:t1,record,conformant,conformant,yes"),
            std::string::npos);
}

}  // namespace
}  // namespace mtx::record
