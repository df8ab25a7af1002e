// Happens-before (§2): the least transitive relation closed under
//
//   HBdefn   a hb c  if  a (init U po U cwr U cww) c
//   HBtrans  a hb c  if  a hb b hb c
//   HBww     a hb c  if  c plain, a lww c, and a crw b hb c   (programmer model)
//   ... plus the Example 2.3 variants, selected by ModelConfig.
//
// In the implementation model (§5) the side conditions are replaced by
// fence ordering:
//
//   HBCQ  <a:Cb> hb <c:Qx>  if a index-> c and txn b touches x
//   HBQB  <c:Qx> hb <b:B>   if c index-> b and txn b touches x
//
// Computed as a monotone fixpoint, semi-naively: one whole-relation closure
// seeds hb, then each round gathers the side-condition edges not yet
// present and inserts them with an incremental closure step that
// repropagates only the newly-derived reachability (see insert_closed in
// the .cpp).  The result is the same least fixpoint as the naive
// close/apply/repeat loop, without re-running Warshall per round.
#pragma once

#include "model/derived.hpp"
#include "model/model_config.hpp"
#include "model/trace.hpp"

namespace mtx::model {

BitRel compute_hb(const Trace& t, const Relations& rel, const ModelConfig& cfg);

// Same least fixpoint, with a closure fast path for *acyclic* seeds (true of
// recorded traces, whose events append in global sequence order with
// monotone per-location versions): one pass along a topological order of
// the seed replaces the O(n^3/64) Warshall closure.  Falls back to
// compute_hb's general closure on a cyclic seed, so the result is identical
// on every input (pinned by tests).  The streaming checker's per-window
// contexts use it.
BitRel compute_hb_fast(const Trace& t, const Relations& rel,
                       const ModelConfig& cfg);

}  // namespace mtx::model
