// Runtime trace recording (the bridge from src/stm to src/model).
//
// A RecordSession captures one concurrent execution as per-thread event
// logs.  Each participating thread installs a ThreadRecorder (via
// ScopedRecorder) into the stm::TxObserver thread-local slot; the STM
// backends and Cell plain accesses then funnel every model-relevant event
// through it:
//
//   thread log:  append-only vector owned by one thread — lock-free.
//   global seq:  one atomic counter; every event draws a ticket, which
//                fixes the merged trace's index order.
//   shadow locs: the session lazily names each touched Cell with a small
//                location id and keeps a per-location (spinlock, write
//                version) shadow.  Accesses are performed *under* the
//                location's spinlock together with their seq ticket, so
//                per-location recorded order is exactly real memory order:
//                reads-from is reconstructed by version (no value-matching
//                heuristics), coherence order equals version order, and the
//                merged trace satisfies the per-location well-formedness
//                rules (WF3, WF6, WF8–WF11) by construction.
//
// The spinlocks serialize only same-location accesses and only while
// recording; this perturbs timing (recording is an oracle mode, not a
// performance mode) but not outcomes.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "stm/api.hpp"

namespace mtx::record {

enum class Ev : std::uint8_t {
  Begin,
  Commit,
  Abort,
  Read,        // transactional read (actual memory load)
  Write,       // transactional write reaching memory
  PlainRead,   // Cell::plain_load
  PlainWrite,  // Cell::plain_store
  Fence,       // quiescence fence (all locations or a recorded cover set)
};

struct Event {
  std::uint64_t seq = 0;
  Ev kind = Ev::Begin;
  std::int32_t loc = -1;        // accesses only
  stm::word_t value = 0;        // accesses only
  std::uint64_t version = 0;    // write: version created; read: version seen
  // Fence events only: -1 = whole store (claims every location);
  // >= 0 = index into the session's fence-cover table, and the fence claims
  // ordering for exactly those locations.  kFenceCoverSingle is produced
  // only by the assembler's sink_fences split (loc holds the one covered
  // location; loc < 0 marks an empty cover kept for fence accounting) —
  // recorders never emit it.
  std::int32_t cover = -1;
};

inline constexpr std::int32_t kFenceCoverSingle = -2;

class RecordSession;
class EventRing;

// Per-thread event log implementing the stm::TxObserver hooks.  Created and
// owned by the session (so logs survive thread exit until assembly); the
// installing thread is the only writer.
//
// Two capture modes share the hook implementations: post-hoc (default;
// events append to the owned vector, read at assembly) and streaming
// (stream_to(ring) set; events flow through a one-slot pending stage into a
// lock-free EventRing the window cutter drains concurrently).  The pending
// stage exists for retract_read: a backend that discovers a redo-log hit
// retracts the just-recorded read, which must therefore not yet be visible
// to the consumer.  flush() pushes the stage down; mark_epoch() flushes and
// publishes the round boundary the cutter seals segments at.
class ThreadRecorder final : public stm::TxObserver {
 public:
  ThreadRecorder(RecordSession& s, int thread_id)
      : session_(s), thread_(thread_id) {}

  void on_begin() override;
  void on_commit() override;
  void on_abort() override;
  void on_fence() override;
  void on_fence_scoped(const stm::QuiesceDomain& d) override;
  stm::word_t tx_read(const stm::Cell& c) override;
  void retract_read() override;
  void on_buffered_read() override { ++buffered_reads_; }
  void tx_publish(stm::Cell& c, stm::word_t v) override;
  std::uint64_t loc_version(const stm::Cell& c) override;
  void tx_unpublish(stm::Cell& c, stm::word_t v, std::uint64_t version) override;
  stm::word_t plain_load(const stm::Cell& c) override;
  void plain_store(stm::Cell& c, stm::word_t v) override;

  // Synthetic transaction brackets: lets a workload mark a plain setup or
  // teardown phase as one committed transaction, giving its plain writes
  // the happens-before edges (cwr/cww) real thread-creation order provides
  // but the paper's model cannot see.
  void synthetic_begin() { on_begin(); }
  void synthetic_commit() { on_commit(); }

  int thread_id() const { return thread_; }
  const std::vector<Event>& events() const { return log_; }
  std::uint64_t buffered_reads() const { return buffered_reads_; }

  // Streaming capture: route events into `ring` (nullptr restores post-hoc
  // capture).  Call from the recording thread only, outside a transaction.
  void stream_to(EventRing* ring);
  // Push the pending event down to the ring (no-op in post-hoc mode).
  void flush();
  // Flush, then publish the end-of-epoch mark the cutter seals segments at.
  void mark_epoch(std::uint64_t epoch);

 private:
  void push_marker(Ev kind);
  void emit(const Event& e);

  RecordSession& session_;
  int thread_;
  std::vector<Event> log_;
  std::uint64_t buffered_reads_ = 0;
  EventRing* ring_ = nullptr;
  Event pending_{};
  bool pending_valid_ = false;
};

// One recorded execution.  Create, attach recorders, run the workload, join
// all recording threads, then assemble (record/assemble.hpp).
class RecordSession {
 public:
  RecordSession() = default;
  RecordSession(const RecordSession&) = delete;
  RecordSession& operator=(const RecordSession&) = delete;

  // Creates a session-owned recorder for `thread_id` (model thread ids;
  // use small nonnegative ints).  A thread id may be attached more than
  // once (e.g. main-thread setup and teardown phases).
  ThreadRecorder* attach(int thread_id);

  // Number of distinct locations touched so far.
  int num_locs() const;

  // Location id assigned to `c` (first-touch order), or -1 when the cell was
  // never touched by a recorded access.  Lets a harness that owns the cells
  // (the fuzz interpreter) translate between its own location numbering and
  // the recorded trace's.
  int loc_id(const stm::Cell& c) const;

  // All recorders, in attach order.  Only safe to read once every
  // recording thread has finished (logs are single-writer).
  const std::vector<std::unique_ptr<ThreadRecorder>>& recorders() const {
    return recorders_;
  }

  // The location set a scoped fence covered (sorted, unique); index comes
  // from Event::cover.
  const std::vector<std::int32_t>& fence_cover(std::int32_t idx) const;

 private:
  friend class ThreadRecorder;

  struct LocShadow {
    std::atomic_flag lk = ATOMIC_FLAG_INIT;
    std::uint64_t version = 0;  // version visible now (0 = the init write)
    // Monotone allocator for new write versions.  Kept separate from
    // `version` so an undo store (which restores `version`) can never cause
    // a later write to reuse an aborted write's version — per-location
    // write timestamps must stay unique (WF3).
    std::uint64_t next = 0;
    std::int32_t loc = -1;
  };

  LocShadow& shadow_of(const stm::Cell& c);
  std::uint64_t next_seq() { return seq_.fetch_add(1, std::memory_order_acq_rel) + 1; }

  static void lock(LocShadow& s) {
    while (s.lk.test_and_set(std::memory_order_acquire)) {}
  }
  static void unlock(LocShadow& s) { s.lk.clear(std::memory_order_release); }

  std::atomic<std::uint64_t> seq_{0};

  mutable std::shared_mutex loc_mu_;
  std::unordered_map<const stm::Cell*, std::int32_t> loc_of_;
  std::deque<LocShadow> shadows_;  // stable references

  std::int32_t add_fence_cover(std::vector<std::int32_t> cover);

  std::mutex recorders_mu_;
  std::vector<std::unique_ptr<ThreadRecorder>> recorders_;

  mutable std::mutex covers_mu_;
  std::deque<std::vector<std::int32_t>> fence_covers_;  // stable references
};

// RAII installer: attaches a recorder for this thread and plants it in the
// stm::TxObserver slot for the scope.
class ScopedRecorder {
 public:
  ScopedRecorder(RecordSession& s, int thread_id)
      : rec_(s.attach(thread_id)), prev_(stm::tx_observer()) {
    stm::set_tx_observer(rec_);
  }
  ~ScopedRecorder() { stm::set_tx_observer(prev_); }
  ScopedRecorder(const ScopedRecorder&) = delete;
  ScopedRecorder& operator=(const ScopedRecorder&) = delete;

  ThreadRecorder& rec() { return *rec_; }

 private:
  ThreadRecorder* rec_;
  stm::TxObserver* prev_;
};

}  // namespace mtx::record
