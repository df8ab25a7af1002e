// Sharded transactional key-value store over the StmBackend registry, with
// the paper's two bounded mixed-access protocols as first-class fast paths.
//
// Layout: N shards, each an independent THash table plus a privatization
// flag, a scan-result cell, a small immutable snapshot array and its OWN
// snap_ready publication cell.  Keys route to shards by multiplicative
// hashing; all shards share ONE backend instance, but each shard owns a
// quiescence *domain* (stm::QuiesceDomain): every shard operation runs its
// transactions under the shard's domain annotation, so a privatize-scan or
// a snapshot refresh fences only its own shard — writers on other shards
// are not waited for.  Privatization bounds mixed races in SPACE (only the
// privatized shard's cells are plain-accessed) while the shard-scoped fence
// bounds them in TIME, which is exactly the paper's pitch, sharpened by
// locality.  Options::scoped_fences = false restores the conservative
// whole-store fence (the pre-domain baseline, kept for A/B verdict pins
// and benchmarks).
//
// The shard is also the store's UNIT OF OWNERSHIP.  All mutation, scan and
// snapshot entry points live on ShardHandle — a capability to exactly one
// shard, minted by KvStore::shard(i).  A caller that holds handles only for
// the shards it owns (the multi-reactor serving tier hands each reactor a
// disjoint handle set) cannot address another reactor's shard at all:
// cross-shard access is a missing-capability type error, not a runtime
// race.  The whole-store convenience API (put/get/scan/... on KvStore)
// routes keys and delegates to handles — single-owner callers keep the
// simple surface.
//
// Mixed-access protocols (and their fence obligations):
//
//   privatize-scan (§5 privatization):  a scanner transactionally CASes the
//   shard's flag open→closed (the flag READ matters: it is the hb link from
//   the previous owner's reopen commit), then quiesces — every transaction
//   that might still write the shard either committed before the fence or
//   will re-validate its flag read and abort.  The scanner now owns the
//   shard: it walks the table with plain loads and plain-writes the scan
//   result, then publishes the shard back by transactionally reopening the
//   flag.  Mutators re-check the flag inside every writing transaction (and
//   wait out closed shards), so their later writes are ordered after the
//   reopen commit by the cwr edge of that flag read.  Read-only gets skip
//   the flag entirely: they race with nothing the scanner does (plain reads
//   vs transactional reads conflict on no cell), so readers keep flowing
//   through a privatized shard — privatization here is a *writer* pause.
//
//   snapshot-read (publication):  publish_snapshot() plain-writes a chosen
//   key set's current values into per-shard snapshot slots, then publishes
//   each shard with a single transactional write of THAT SHARD's snap_ready
//   cell.  The slots are immutable from that commit on, so any thread that
//   has observed the shard's snap_ready — ShardHandle::snapshot_attach()
//   runs one transactional read, the publication pattern's handoff — may
//   read the shard's slots with pure plain loads: the paper's "plain reads
//   of published immutable values", no fence or flag on the per-read path.
//   Because the ready cell is per shard and INSIDE the shard's domain,
//   ShardHandle::refresh_snapshot re-runs the whole protocol (retract,
//   quiesce, rewrite, republish) scoped to one shard — the serving tier's
//   per-reactor quiet points refresh owned shards without ever fencing the
//   whole store on the hot path.
//
// Both protocols are auditable at runtime: under a RecordSession every
// plain access above is captured, and the streaming-conformance driver
// (src/kv/workload.hpp) feeds the captured segments to the model layer.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "containers/thash.hpp"
#include "kv/routing.hpp"
#include "stm/backend.hpp"

namespace mtx::kv {

// Canonical keyed-value form, shared by every driver of the store (the
// in-process workload engine, the network serving tier and its load
// generator): a value files its key in the high digits — value =
// key * kValueStride + payload with payload in [0, kValueStride).  Any
// reader holding a (key, value) pair can audit the pair against the key it
// was filed under, a schedule-independent correctness check that survives
// arbitrary interleaving and staleness (a stale value is still *that key's*
// value).  The wire protocol's RMW op and batch_mutate bump the payload
// modulo the stride, so the form is preserved forever — no audit ever
// degrades into "probably fine until a counter overflows the stride".
constexpr std::int64_t kValueStride = 1'000'000;

inline std::int64_t value_of(std::int64_t key, std::int64_t payload) {
  return key * kValueStride + payload % kValueStride;
}
inline std::int64_t payload_of(std::int64_t value) {
  return ((value % kValueStride) + kValueStride) % kValueStride;
}
inline bool value_form_ok(std::int64_t key, std::int64_t value) {
  return value / kValueStride == key;
}

// The store geometry every tier agrees on: shard count, preloaded
// key-space, published hot-set size.  One struct, embedded by the KV
// workload driver, the server config and the load generator, so a
// (server, client) pair is configured from ONE value instead of three
// re-declared field triples that can silently drift.
struct StoreShape {
  std::size_t shards = 8;
  std::size_t preload_keys = 1024;  // keys 0..N-1 preloaded as value_of(k, 0)
  std::size_t snap_keys = 16;       // hottest ranks published for snap reads

  // Human-readable reason the shape is unservable, "" when fine.  The shard
  // ceiling is the QuiescenceRegistry domain budget: each shard owns one
  // scoped-fence domain and ids live in [1, kMaxQuiesceDomains); a larger
  // store would silently alias domain ids and fence the wrong shards, so it
  // is rejected up front instead.
  std::string validate() const;
};

// Copyable snapshot of one shard's operation counters.
struct ShardStats {
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t erases = 0;
  std::uint64_t rmws = 0;
  std::uint64_t scans = 0;       // privatize-scans completed on this shard
  std::uint64_t scan_busy = 0;   // privatize attempts that found it closed
  std::uint64_t snap_reads = 0;
  std::uint64_t priv_waits = 0;  // mutator retries against a closed flag
  std::uint64_t mig_waits = 0;   // reader retries against a migrating shard
  std::uint64_t moved = 0;       // ops bounced for stale routing
};

struct ScanResult {
  bool privatized = false;  // false: another scanner already owned the shard
  std::size_t keys = 0;
  std::int64_t value_sum = 0;
};

// One decoded operation of a same-shard batch (ShardHandle::batch_mutate):
// the serving front end coalesces a run of pipelined ops from one
// connection into a single transaction, so the STM begin/commit overhead —
// and the §5 mutator flag check — amortize across the run.  Results are
// written back in place; a conflict retry re-runs the whole batch body, so
// the executor resets outputs at the top of every attempt.
struct WriteOp {
  enum class Kind : std::uint8_t {
    get,  // transactional read; applied = found, result = value
    put,  // applied = fresh insert, result = stored value
    rmw,  // form-preserving payload bump by `arg` (see kValueStride);
          // applied = key present, result = new value
  };
  Kind kind = Kind::put;
  std::int64_t key = 0;
  std::int64_t arg = 0;  // put: value to store; rmw: payload delta
  bool applied = false;
  // The key no longer routes to the shard the batch executed on (a live
  // migration re-homed it between coalescing and execution).  The op did
  // NOT run; the caller re-routes on the current table (the serving tier
  // answers Status::moved and lets the client retry).
  bool moved = false;
  std::int64_t result = 0;
};

class KvStore;

// A capability to one shard: every mutation, scan and snapshot entry point
// of the store, scoped to the shard the handle was minted for.  Handles are
// small value types (store pointer + index) — copy them freely, hand a
// reactor exactly the set it owns.  Keyed operations assert the key routes
// here; calling through the wrong handle is a routing bug, not a fallback.
class ShardHandle {
 public:
  ShardHandle() = default;

  std::size_t index() const { return idx_; }
  std::size_t bucket_count() const;
  ShardStats stats() const;

  // ----- transactional operations (writers wait out a privatized shard) ---
  //
  // All keyed ops take an optional `moved` out-flag for live-migration
  // callers: when non-null, the op re-checks the routing table INSIDE its
  // flag-checked transaction and — if the key was re-homed away from this
  // shard — sets *moved and returns without executing (return value false).
  // The in-transaction check is what makes detection sound: the migration
  // flag read is cwr-ordered after the migration's reopen commit, which is
  // po-after its routing-table stores, so a transaction that passes the
  // gate always sees post-migration routing.  Callers that pass nullptr
  // assert the pre-migration contract (key statically routes here).
  bool put(std::int64_t key, std::int64_t value, bool* moved = nullptr);
  bool get(std::int64_t key, std::int64_t* out, bool* moved = nullptr);
  bool erase(std::int64_t key, bool* moved = nullptr);
  bool rmw(std::int64_t key, const std::function<std::int64_t(std::int64_t)>& f,
           std::int64_t* out = nullptr, bool* moved = nullptr);

  // Execute `n` decoded ops — every one keyed to THIS shard — inside ONE
  // flag-checked transaction (the serving tier's per-connection batch).
  // Semantically equivalent to issuing the ops one at a time on a single
  // thread: gets observe earlier puts of the same batch (read-your-writes
  // inside the transaction).  Results land in the WriteOp entries.
  void batch_mutate(WriteOp* ops, std::size_t n);

  // ----- mixed-access fast paths ------------------------------------------

  // Privatize this shard, plain-scan it (fn(key, value) per live entry,
  // when fn is given), plain-write the value sum into the shard's scan
  // cell, publish the shard back.  Returns privatized=false without
  // scanning when another scanner holds the shard.
  ScanResult privatize_scan(
      const std::function<void(std::int64_t, std::int64_t)>& fn = nullptr);

  // The publication handoff for this shard: one transactional read of its
  // snap_ready cell (under the shard's domain).  Run it once per reading
  // thread before its first snapshot_read of this shard; every later
  // snapshot access in that thread is ordered after the publication by po
  // from this transaction.  False while nothing is published.
  bool snapshot_attach();

  // Pure plain-load read of a frozen value of this shard.  Requires a prior
  // successful snapshot_attach() in this thread (or the publishing thread
  // itself); false when the key was not frozen here.
  bool snapshot_read(std::int64_t key, std::int64_t* out);

  // Hot-key refresh, scoped to this shard: transactionally retract the
  // shard's snap_ready, quiesce THE SHARD'S DOMAIN ONLY (whole-store when
  // the store was built with scoped_fences off), plain re-write the shard's
  // slots with the CURRENT values of the keys routing here (in `keys`
  // order, front to back), re-publish with one transactional snap_ready
  // write.  Caller contract: a quiet point for THIS shard — no concurrent
  // mutator of the refreshed keys and no snapshot_read of this shard in
  // flight.  The multi-reactor serving tier satisfies it per reactor: all
  // mutations and snap reads of an owned shard execute on the owning
  // reactor thread, so between its requests the shard is quiet.  False when
  // nothing was ever published.
  bool refresh_snapshot(const std::vector<std::int64_t>& keys);

  // Re-establish this shard's cells' current values with recorded plain
  // stores (same contract as KvStore::replay_state_plain, per shard) — the
  // per-reactor streaming pipeline's state-carry anchor over exactly the
  // owned domain set.
  void replay_state_plain();

  // Cells replay_state_plain touches (trace-size planning).
  std::size_t cell_count() const;

 private:
  friend class KvStore;
  ShardHandle(KvStore* store, std::size_t idx) : store_(store), idx_(idx) {}

  KvStore* store_ = nullptr;
  std::size_t idx_ = 0;
};

class KvStore {
 public:
  struct Options {
    std::size_t shards = 8;
    // Sizing hint: per-shard bucket counts come from
    // THash::recommended_buckets(expected_keys / shards).
    std::size_t expected_keys = 1024;
    std::size_t snap_slots = 8;  // immutable snapshot capacity per shard
    // Give each shard its own quiescence domain so privatize-scan and
    // snapshot refresh fence only that shard (false = whole-store fences,
    // the pre-domain behavior).
    bool scoped_fences = true;
  };

  // Throws std::invalid_argument when the shard count exceeds the
  // QuiescenceRegistry domain budget (see StoreShape::validate).
  explicit KvStore(stm::StmBackend& stm);  // default Options
  KvStore(stm::StmBackend& stm, const Options& opt);

  stm::StmBackend& stm() { return stm_; }
  std::size_t shards() const { return shards_.size(); }

  // Current routing decision for `key` — a hint that can go stale under a
  // live migration; the keyed ops' in-transaction re-check (see
  // ShardHandle) is the authoritative gate.
  std::size_t shard_of(std::int64_t key) const;

  // The epoch-stamped routing table itself (migration engine + serving
  // tier: slot re-homing, epoch echo in `moved` responses).
  RoutingTable& routing() { return routing_; }
  const RoutingTable& routing() const { return routing_; }

  // The shard capability: all per-shard operations live on the handle.
  ShardHandle shard(std::size_t i) {
    assert(i < shards_.size());
    return ShardHandle(this, i);
  }

  std::size_t bucket_count(std::size_t shard) const;
  ShardStats stats(std::size_t shard) const;

  // ----- whole-store convenience surface (routes and delegates) -----------

  // The whole-store ops route on the current table and transparently chase
  // a concurrent migration: a `moved` verdict re-routes and retries, so
  // callers never observe the topology change.
  bool put(std::int64_t key, std::int64_t value);  // true = fresh insert
  bool get(std::int64_t key, std::int64_t* out);
  bool erase(std::int64_t key);
  bool rmw(std::int64_t key, const std::function<std::int64_t(std::int64_t)>& f,
           std::int64_t* out = nullptr);
  std::size_t size();  // transactional count, one transaction per shard

  ScanResult privatize_scan(std::size_t shard,
                            const std::function<void(std::int64_t, std::int64_t)>& fn = nullptr);

  // Freeze the CURRENT values of `keys` (at most snap_slots per shard) into
  // the immutable snapshot and publish every shard's snap_ready.  Once-only
  // for the whole store; returns false (and publishes nothing) on a second
  // call.  Caller must be in a quiet phase (no concurrent mutators of the
  // snapshotted keys).  Every shard publishes — including shards no key
  // routes to — so per-shard refresh is uniformly available afterwards.
  bool publish_snapshot(const std::vector<std::int64_t>& keys);

  // The whole-store publication handoff: ONE transaction reading every
  // shard's snap_ready cell, ordering this thread's later plain snapshot
  // loads of ANY shard after the publication.  (Single-owner callers attach
  // once here; shard-owning callers use ShardHandle::snapshot_attach per
  // owned shard instead.)  False while nothing is published.
  bool snapshot_attach();

  // Pure plain-load read of a frozen value (routes to the key's shard).
  bool snapshot_read(std::int64_t key, std::int64_t* out);

  // Refresh every shard's published hot set: per-shard scoped refreshes in
  // shard order (see ShardHandle::refresh_snapshot).  Caller contract is
  // the per-shard quiet point, for all shards at once.  False when nothing
  // was ever published.
  bool refresh_snapshot(const std::vector<std::int64_t>& keys);

  // ----- conformance support ----------------------------------------------

  // Re-establish every cell's current value with a recorded plain store
  // (value re-written in place).  Caller contract: every other thread is
  // paused with no transaction in flight, and the call runs inside a
  // synthetic committed transaction of an installed recorder — it becomes
  // the recorded segment's state-carry transaction, so mid-execution
  // segments are well-formed (reads-from resolves against the carry instead
  // of dangling on the all-zero init).  Covers unlinked nodes too: zombie
  // readers can still reach them.
  void replay_state_plain();

  // Total cells replay_state_plain touches (trace-size planning for tests).
  std::size_t cell_count() const;

 private:
  friend class ShardHandle;
  friend class MigrationEngine;  // src/kv/migrate.hpp: flag-CAS, plain copy,
                                 // reopen handoff on the endpoint shards

  struct SnapSlot {
    stm::Cell key;  // key + 1; 0 = empty slot
    stm::Cell value;
  };

  struct Shard {
    Shard(stm::StmBackend& stm, std::size_t buckets, std::size_t snap_slots)
        : table(stm, buckets), snap(snap_slots) {}
    containers::THash<stm::StmBackend> table;
    stm::Cell priv_flag;    // 0 = open, 1 = privatized
    stm::Cell scan_result;  // plain-written by the owning scanner
    // Migration gate + publication cell.  mig_flag is the READER-side gate:
    // a privatize-scan pauses only writers (readers race with nothing it
    // does), but a migration plain-WRITES table cells, so readers must be
    // excluded too — keyed reads gate on mig_flag inside their transaction
    // and wait while it is set.  mig_epoch is the routing epoch the
    // migration's reopen commit publishes (the snapshot-publication
    // handoff's ready cell): the same transaction clears both flags and
    // stamps the epoch, so any gate-passing transaction is cwr-ordered
    // after the whole migration (plain copy AND routing stores).
    stm::Cell mig_flag;     // 0 = open, 1 = a migration owns this shard
    stm::Cell mig_epoch;    // routing epoch of the last migration reopen
    std::vector<SnapSlot> snap;
    stm::Cell snap_ready;   // 0 until THIS shard's publication commits;
                            // inside the shard's domain, so refresh fences
                            // stay shard-scoped
    // The shard's quiescence domain: id 0 + null cells when scoped fences
    // are off (or the backend has no scoped wait path AND recording scope
    // is unwanted); otherwise id from create_domain() and an enumerator
    // over exactly this shard's cells.
    stm::QuiesceDomain domain;
    // Advisory "shard is closed" hint — a raw atomic, NOT a Cell, so it is
    // invisible to the STM and to recording.  Raised by a privatize owner
    // (scan or migration) once it wins the flag CAS, cleared after its
    // reopen commit.  Bounced gate-spinners park on it instead of retrying
    // transactionally; correctness still rests entirely on the
    // in-transaction flag read (the hint may be stale in either direction —
    // a stale value only delays a retry).  Parking matters for recorded
    // runs: spinners that busy-retry through the STM flood the trace with
    // back-to-back gate transactions for the whole closure, leaving no
    // point at which no transaction is open — and the assembler, which must
    // place each recorded fence after the transactions it waited out, would
    // be pushed past the owner's own plain accesses, inverting program
    // order in the recorded trace (see sink_fences in record/assemble.cpp).
    std::atomic<std::uint32_t> gate_hint{0};

    struct Counters {
      std::atomic<std::uint64_t> gets{0}, puts{0}, erases{0}, rmws{0},
          scans{0}, scan_busy{0}, snap_reads{0}, priv_waits{0}, mig_waits{0},
          moved{0};
    } counters;
  };

  // Runs fn inside one transaction once the shard's flag reads open; the
  // flag read is part of the transaction (the §5 mutator obligation).
  // Template (not std::function): this is the per-op hot path, and a
  // capturing std::function would heap-allocate on every mutation.
  template <class Fn>
  void mutate(Shard& s, Fn&& fn) {
    // Annotate the transaction with the shard's domain: it touches only this
    // shard's cells, so scoped fences on other shards need not wait for it.
    stm::DomainScope scope(s.domain.id);
    for (;;) {
      bool closed = false;
      stm_.atomically([&](stm::TxHandle& tx) {
        closed = tx.read(s.priv_flag) != 0;
        if (closed) return;
        fn(tx);
      });
      if (!closed) return;
      // The shard is privatized: its owner is mid-plain-scan.  Park until
      // the hint clears, then retry; the flag read above re-validates on
      // every retry, so the first transaction to see the reopen commit
      // proceeds (and is hb-ordered after the scanner's plain accesses
      // through that read).
      s.counters.priv_waits.fetch_add(1, std::memory_order_relaxed);
      priv_wait_pause();
      gate_park(s);
    }
  }

  static void priv_wait_pause();
  // Wait (outside any transaction) while the shard's advisory closed hint
  // is up.  Purely a retry throttle: callers always re-check the real gate
  // flag transactionally afterwards.
  static void gate_park(Shard& s);

  stm::StmBackend& stm_;
  std::vector<std::unique_ptr<Shard>> shards_;
  RoutingTable routing_;
  bool scoped_fences_ = true;
  std::atomic<bool> snap_published_{false};  // whole-store once-only latch
};

}  // namespace mtx::kv
