#include "model/happens_before.hpp"

#include <utility>
#include <vector>

#include "model/analysis.hpp"

namespace mtx::model {

namespace {

// Inserts edge (a, c) into the transitively-closed `hb`, restoring closure
// by repropagating only the new reachability: every predecessor of a (and a
// itself) absorbs {c} plus c's successor row.  This is the semi-naive step
// -- derived edges that were already present cost nothing, and a fixpoint
// round that adds k edges costs O(k * n^2/64) instead of a whole-relation
// Warshall pass per round.
void insert_closed(BitRel& hb, std::size_t a, std::size_t c) {
  if (hb.test(a, c)) return;
  const std::size_t n = hb.size();
  for (std::size_t p = 0; p < n; ++p) {
    if (p != a && !hb.test(p, a)) continue;
    hb.set(p, c);
    hb.or_row(p, hb, c);
  }
}

// The hb seed: HBdefn edges plus (when the model has fences) the HBCQ/HBQB
// edges, which do not depend on hb and are added once.
BitRel seed_hb(const Trace& t, const Relations& rel, const ModelConfig& cfg) {
  const std::size_t n = t.size();
  BitRel hb = rel.init | rel.po | rel.cwr | rel.cww;

  if (cfg.qfences) {
    // A summary fence <Q*> stands for a <Qx> on every location, so its
    // touch test is "touches anything" — the per-location expansion would
    // produce exactly the same commit->fence / fence->begin edges.  The
    // touch tests run per fence x transaction pair (recorded scoped fences
    // expand to one <Qx> per covered location), so they go through a
    // one-pass TxnLocCover instead of a trace scan per query.
    std::vector<std::size_t> fences;
    for (std::size_t q = 0; q < n; ++q)
      if (t[q].is_qfence()) fences.push_back(q);
    if (!fences.empty()) {
      const TxnLocCover cover(t);
      for (std::size_t q : fences) {
        const Loc x = t[q].loc;
        for (std::size_t i = 0; i < n; ++i) {
          if (t[i].is_commit() && i < q) {
            const int b = t.index_of_name(t[i].peer);
            if (b >= 0 && cover.touches(static_cast<std::size_t>(b), x))
              hb.set(i, q);
          }
          if (t[i].is_begin() && q < i && cover.touches(i, x)) hb.set(q, i);
        }
      }
    }
  }
  return hb;
}

// The semi-naive side-condition fixpoint over an already-closed hb.
BitRel rule_fixpoint(const Trace& t, const Relations& rel,
                     const ModelConfig& cfg, BitRel hb) {
  auto plain = [&](std::size_t i) { return t.plain(i); };

  for (;;) {
    // M1(a,c): exists b with a crw b hb c.   M2(a,c): exists b, a hb b crw c.
    const BitRel m1 = rel.crw.compose(hb);
    const BitRel m2 = hb.compose(rel.crw);
    std::vector<std::pair<std::size_t, std::size_t>> fresh;
    auto gather = [&](const BitRel& lifted, const BitRel& m, bool plain_target) {
      lifted.for_each([&](std::size_t a, std::size_t c) {
        if (!m.test(a, c)) return;
        if (plain_target ? !plain(c) : !plain(a)) return;
        if (!hb.test(a, c)) fresh.emplace_back(a, c);
      });
    };
    if (cfg.hb_ww) gather(rel.lww, m1, /*plain_target=*/true);
    if (cfg.hb_rw) gather(rel.lrw, m1, /*plain_target=*/true);
    if (cfg.hb_wr) gather(rel.lwr, m1, /*plain_target=*/true);
    if (cfg.hb_ww_p) gather(rel.lww, m2, /*plain_target=*/false);
    if (cfg.hb_rw_p) gather(rel.lrw, m2, /*plain_target=*/false);
    if (cfg.hb_wr_p) gather(rel.lwr, m2, /*plain_target=*/false);

    if (fresh.empty()) return hb;
    for (const auto& [a, c] : fresh) insert_closed(hb, a, c);
  }
}

// One-pass closure of an acyclic seed along one of its topological orders.
// Builds successor rows in reverse order: when i is reached, every direct
// successor j of i comes later and has its own successor row final, so
// succ(i) is the union of {j} ∪ succ(j) over direct successors j.  A direct
// successor already in succ(i) is skipped — succ(j) ⊆ succ(i) then — and
// the row is walked word-wise against that mask, lowest index first: the
// next po event of i's thread comes first and covers every later one.  Each
// row is built once, in place — no Warshall pivots, no transposes.
BitRel ordered_closure(const BitRel& seed, const std::vector<std::size_t>& order) {
  BitRel succ(seed.size());
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t i = *it;
    const std::uint64_t* direct = seed.row(i);
    const std::uint64_t* covered = succ.row(i);
    for (std::size_t w = 0; w < seed.row_words(); ++w) {
      std::uint64_t fresh;
      while ((fresh = direct[w] & ~covered[w]) != 0) {
        const std::size_t j =
            w * 64 + static_cast<std::size_t>(__builtin_ctzll(fresh));
        succ.set(i, j);
        succ.or_row(i, succ, j);
      }
    }
  }
  return succ;
}

}  // namespace

BitRel compute_hb(const Trace& t, const Relations& rel, const ModelConfig& cfg) {
  detail::count_hb_compute();
  BitRel hb = seed_hb(t, rel, cfg);

  // One whole-relation closure seeds the fixpoint; afterwards hb stays
  // closed and each side-condition round only repropagates its fresh edges.
  hb = hb.transitive_closure();
  if (!cfg.any_hb_rule()) return hb;
  return rule_fixpoint(t, rel, cfg, std::move(hb));
}

BitRel compute_hb_fast(const Trace& t, const Relations& rel,
                       const ModelConfig& cfg) {
  detail::count_hb_compute();
  BitRel hb = seed_hb(t, rel, cfg);

  // A recorded seed is acyclic: events append in global sequence order and
  // per-location versions grow with it.  It is not always forward in index
  // order, though — the class-lifted cww/cwr edges also reach the begin of
  // a later-serialized transaction that opened before the earlier one's
  // write.  Any topological order serves: a single pass along it replaces
  // the O(n^3/64) Warshall.  A cyclic seed (possible in enumerated litmus
  // traces) falls back to the general closure.  Both produce the same least
  // closure.
  std::vector<std::size_t> order;
  if (hb.topological_order_dfs(&order)) {
    hb = ordered_closure(hb, order);
  } else {
    hb = hb.transitive_closure();
  }
  if (!cfg.any_hb_rule()) return hb;
  return rule_fixpoint(t, rel, cfg, std::move(hb));
}

}  // namespace mtx::model
