// Deterministic assembly of a RecordSession's per-thread logs into a
// model::Trace (§2 syntax): the init transaction writing 0 to every touched
// location at timestamp 0, then every recorded event in global sequence
// order.  Write timestamps are the recorder's per-location versions
// (rational q = version), reads carry their fulfilling write's version, so
// the model's wr/ww relations reconstruct the execution exactly.
//
// Quiescence fences need one adjustment.  The model's <Qx> action is
// atomic, but the runtime fence spans time: transactions that began after
// the fence's epoch cutoff may still be in flight when the fence returns
// (and takes its sequence ticket), which would violate WF12.  Assembly
// therefore treats each fence as its family of per-location <Qx> — a
// domain-scoped fence (Event::cover >= 0) the cells its QuiesceDomain
// enumerated, an unscoped fence every location — and *sinks* each <Qx>
// just past the resolution of every open transaction that touches x.
// Sinking only drops po edges out of <Qx> (which can add races, never hide
// them) and adds HBCQ edges from transactions that began after the
// runtime's cutoff — in the §5 protocols those are gate bounces, which
// abort.  And it never carries a <Qx> past the fencing thread's later
// access to a location no open transaction touches, so po out of the fence
// stays intact where the protocols need it.  An unscoped family whose
// members all settle at one index stays a single *summary* fence <Q*>
// (model::kAllLocs); otherwise it is emitted member by member, like a
// scoped fence.  Recorded traces thus pay one QFence per accessed location
// only where a whole-store fence really straddles a transaction.
#pragma once

#include <cstdint>
#include <string>

#include "model/trace.hpp"
#include "record/recorder.hpp"

namespace mtx::record {

struct RecordedTrace {
  model::Trace trace;

  // Assembly metadata (not part of the model trace).
  struct Meta {
    std::size_t events = 0;          // merged events (pre fence-expansion)
    std::size_t txns = 0;            // begins (excluding init)
    std::size_t committed = 0;
    std::size_t aborted = 0;
    std::size_t reads = 0;           // transactional reads recorded
    std::size_t writes = 0;          // transactional writes recorded
    std::size_t plain_reads = 0;
    std::size_t plain_writes = 0;
    std::size_t fences = 0;
    std::size_t buffered_reads = 0;  // redo-log hits (not in the trace)
    int num_locs = 0;
    int threads = 0;                 // distinct recorded thread ids
    std::string plain_order;         // Cell plain-access mode in effect
  } meta;
};

// Merge all logs of `s`.  Call only after every recording thread has been
// joined and every ScopedRecorder destroyed.
RecordedTrace assemble(const RecordSession& s);

// ----- assembly building blocks (shared with the streaming cutter) -------

// One recorded event tagged with its thread; the unit both assemble() and
// the streaming segment assembler merge and convert.
struct MergedEvent {
  Event ev;
  int thread = 0;
};

// Sink each fence past the resolutions of the transactions open at its
// position (the WF12 adjustment described above), one rule for both fence
// kinds.  Each covered location settles independently: its <Qx> sinks only
// past open transactions that touch x (any access between begin and
// resolution, plain ones included), never past the fencing thread's
// unrelated neighbors' spans — crucial when another thread's long-preempted
// transaction brackets the fence owner's subsequent plain phase.  A fence
// whose members settle apart is split into per-location events
// (Event::cover = kFenceCoverSingle, Event::loc = the covered location); an
// unscoped fence whose members all settle together stays one event.  `evs`
// must be in seq order; it is rewritten in place; covers resolve through
// `s`.
void sink_fences(std::vector<MergedEvent>& evs, const RecordSession& s);

// Append `evs` (seq-sorted, fences already sunk) to `t`, converting each
// event to its model action: versions become write timestamps, fence covers
// expand through `s`'s cover table (unsplit unscoped fences become one
// summary <Q*>).  Tallies into `meta` when non-null.
void append_events(model::Trace& t, const std::vector<MergedEvent>& evs,
                   const RecordSession& s, RecordedTrace::Meta* meta);

// ----- fence-bounded windowing (§5: races are bounded in space and time) --
//
// A quiescence fence group (one runtime fence, expanded to a <Qx> per
// covered location) is a *cut candidate*: HBCQ orders every committed
// pre-group transaction touching a covered x before <Qx>, and HBQB orders
// <Qx> before every post-group transaction touching x.  A candidate becomes
// a *valid cut* when the fence provably bounds every conflict across it:
//
//   (a) no transaction spans the group (begins before it resolve before it);
//   (b) every pre-group plain access to a covered x is published -- followed
//       in its thread by a commit of a transaction touching x before the
//       group -- or belongs to the fencing thread itself (po into the fence);
//   (c) every post-group plain access to a covered x is privatized --
//       preceded in its thread (after the group) by a begin of a transaction
//       touching x -- or belongs to the fencing thread (po out of the fence);
//   (d) every location the group does NOT cover is accessed on one side of
//       the group only (no exemptions: with no <Qy> in the group, nothing
//       orders a cross-cut pair on y, whoever runs it).
//
// Under (a)-(d) every conflicting pair straddling the cut is happens-before
// ordered through some <Qx>, so no L-race, mixed race, or serialization edge
// cycle can cross it: windows may be judged independently.  A racy access
// that would straddle a cut (e.g. an unpublished plain write, or any
// double-sided traffic on an uncovered location) *invalidates* the cut,
// growing the window until the race is internal -- which is how seeded
// races are still caught, and why a shard-scoped KV fence only cuts windows
// whose surrounding traffic stays confined to that shard.
//
// Each window trace is rebuilt as: fresh init transaction, a synthetic
// committed *carry* transaction writing the last visible (value, timestamp)
// at the cut for each location the window actually accesses (sparse: an
// unaccessed location's carry write fulfils no read and joins no race, so
// it is omitted rather than paying O(|store|) per window), the opening
// fence group (shared with the previous window -- the "overlap" -- so
// HBCQ/HBQB edges anchor the carry state), then the slice up to and
// including the closing group.
struct TraceWindow {
  model::Trace trace;
  std::size_t first = 0;    // source-trace slice [first, last], inclusive
  std::size_t last = 0;
  std::size_t carried = 0;  // carry writes prepended
};

struct WindowPlan {
  std::vector<TraceWindow> windows;
  std::size_t cut_candidates = 0;  // fence groups seen (any coverage)
  std::size_t cuts = 0;            // valid cuts taken
};

// Cuts `t` at every valid quiescence boundary; a valid cut is skipped
// while the window it would close holds fewer than `min_window_events`
// source actions.  A trace with no valid cuts yields one window whose trace
// is `t` itself.
WindowPlan cut_windows(const model::Trace& t, std::size_t min_window_events = 0);

}  // namespace mtx::record
