// Dense binary relations over {0..n-1} as bit matrices.
//
// All derived relations of the paper (po, ww, wr, rw, the lifted l/x/c
// variants, and happens-before) are finite relations over the events of a
// trace.  Litmus traces have tens of events, so an n x n bit matrix with
// word-parallel row operations makes closures and compositions effectively
// free, and keeps the axiomatic checker simple and obviously correct.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace mtx {

class BitRel {
 public:
  BitRel() : n_(0), words_per_row_(0) {}
  explicit BitRel(std::size_t n);

  std::size_t size() const { return n_; }

  void set(std::size_t a, std::size_t b, bool v = true);
  bool test(std::size_t a, std::size_t b) const;

  // Number of related pairs.
  std::size_t count() const;
  bool empty() const { return count() == 0; }

  // In-place union / intersection / difference.  Sizes must match.
  BitRel& operator|=(const BitRel& o);
  BitRel& operator&=(const BitRel& o);
  BitRel& operator-=(const BitRel& o);
  friend BitRel operator|(BitRel a, const BitRel& b) { return a |= b; }
  friend BitRel operator&(BitRel a, const BitRel& b) { return a &= b; }
  friend BitRel operator-(BitRel a, const BitRel& b) { return a -= b; }
  friend bool operator==(const BitRel& a, const BitRel& b) {
    return a.n_ == b.n_ && a.bits_ == b.bits_;
  }

  // Relational composition: (a,c) in result iff exists b with (a,b) in this
  // and (b,c) in o.
  BitRel compose(const BitRel& o) const;

  BitRel transposed() const;

  // ORs row `from` of `src` into row `into` of this relation (row = successor
  // set).  Returns true iff any new bit appeared.  `src` may alias *this.
  // This is the word-parallel primitive the semi-naive happens-before
  // closure repropagates newly-derived edges with.
  bool or_row(std::size_t into, const BitRel& src, std::size_t from);

  // Raw word access to row `a` (row_words() words of 64 bits each, column b
  // at word b/64, bit b%64; tail bits beyond n are zero and must stay so).
  // The word-parallel relation builders (Relations::compute_fast) construct
  // rows from precomputed masks through these instead of per-pair set().
  std::size_t row_words() const { return words_per_row_; }
  std::uint64_t* row(std::size_t a) { return &bits_[a * words_per_row_]; }
  const std::uint64_t* row(std::size_t a) const { return &bits_[a * words_per_row_]; }

  // Sets bits [lo, hi) of row a.
  void set_range(std::size_t a, std::size_t lo, std::size_t hi);

  // Single-source reachability: all b with a ->+ b (a itself only if it lies
  // on a cycle), in ascending order.  BFS over bit rows: O(reachable * n/64)
  // instead of the whole-relation closure.
  std::vector<std::size_t> reachable_from(std::size_t a) const;

  // Reflexive-free transitive closure (Warshall over bit rows).
  BitRel transitive_closure() const;

  bool is_irreflexive() const;
  // Acyclic iff no directed cycle, self-loops included (see
  // topological_order_dfs).
  bool is_acyclic() const;

  // True if every pair of this is also a pair of o.
  bool subset_of(const BitRel& o) const;

  // Keep only pairs (a,b) with keep(a,b).
  BitRel filtered(const std::function<bool(std::size_t, std::size_t)>& keep) const;

  // Restrict both endpoints to elements flagged in mask (mask.size()==n).
  BitRel restricted(const std::vector<bool>& mask) const;

  // Calls fn(a,b) for every related pair.
  void for_each(const std::function<void(std::size_t, std::size_t)>& fn) const;

  // Successors of a as indices.
  std::vector<std::size_t> successors(std::size_t a) const;

  // A topological order of the relation viewed as a DAG, or empty if cyclic.
  std::vector<std::size_t> topological_order() const;

  // Some topological order of the relation, written to *order; false
  // (order untouched) iff it has a cycle, self-loops included.  Word-wise
  // depth-first search: every node is entered once and its row is scanned
  // against the unvisited and on-stack masks, so the cost is O(n^2/64)
  // however dense the relation is -- a transitively closed happens-before
  // with n^2/2 pairs costs the same as its seed.  The order may differ from
  // topological_order()'s smallest-index-first one.
  bool topological_order_dfs(std::vector<std::size_t>* order) const;

  std::string str() const;  // "{(0,1),(2,3)}" for debugging

 private:
  std::size_t word_index(std::size_t a, std::size_t b) const {
    return a * words_per_row_ + b / 64;
  }
  std::size_t n_;
  std::size_t words_per_row_;
  std::vector<std::uint64_t> bits_;
};

}  // namespace mtx
