#include "substrate/bitrel.hpp"

#include <cassert>
#include <stdexcept>

namespace mtx {

namespace {

// C++17 stand-ins for std::popcount / std::countr_zero (<bit> is C++20).
inline int popcount64(std::uint64_t w) { return __builtin_popcountll(w); }
inline int ctz64(std::uint64_t w) { return __builtin_ctzll(w); }

}  // namespace

BitRel::BitRel(std::size_t n)
    : n_(n), words_per_row_((n + 63) / 64), bits_(n * words_per_row_, 0) {}

void BitRel::set(std::size_t a, std::size_t b, bool v) {
  assert(a < n_ && b < n_);
  const std::uint64_t mask = std::uint64_t{1} << (b % 64);
  if (v) {
    bits_[word_index(a, b)] |= mask;
  } else {
    bits_[word_index(a, b)] &= ~mask;
  }
}

bool BitRel::test(std::size_t a, std::size_t b) const {
  assert(a < n_ && b < n_);
  return (bits_[word_index(a, b)] >> (b % 64)) & 1;
}

std::size_t BitRel::count() const {
  std::size_t c = 0;
  for (std::uint64_t w : bits_) c += static_cast<std::size_t>(popcount64(w));
  return c;
}

BitRel& BitRel::operator|=(const BitRel& o) {
  if (n_ != o.n_) throw std::invalid_argument("BitRel size mismatch");
  for (std::size_t i = 0; i < bits_.size(); ++i) bits_[i] |= o.bits_[i];
  return *this;
}

BitRel& BitRel::operator&=(const BitRel& o) {
  if (n_ != o.n_) throw std::invalid_argument("BitRel size mismatch");
  for (std::size_t i = 0; i < bits_.size(); ++i) bits_[i] &= o.bits_[i];
  return *this;
}

BitRel& BitRel::operator-=(const BitRel& o) {
  if (n_ != o.n_) throw std::invalid_argument("BitRel size mismatch");
  for (std::size_t i = 0; i < bits_.size(); ++i) bits_[i] &= ~o.bits_[i];
  return *this;
}

BitRel BitRel::compose(const BitRel& o) const {
  if (n_ != o.n_) throw std::invalid_argument("BitRel size mismatch");
  BitRel r(n_);
  for (std::size_t a = 0; a < n_; ++a) {
    std::uint64_t* out = &r.bits_[a * words_per_row_];
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      std::uint64_t row = bits_[a * words_per_row_ + w];
      while (row) {
        const std::size_t b = w * 64 + static_cast<std::size_t>(ctz64(row));
        row &= row - 1;
        const std::uint64_t* brow = &o.bits_[b * words_per_row_];
        for (std::size_t w2 = 0; w2 < words_per_row_; ++w2) out[w2] |= brow[w2];
      }
    }
  }
  return r;
}

BitRel BitRel::transposed() const {
  BitRel r(n_);
  for (std::size_t a = 0; a < n_; ++a) {
    const std::uint64_t abit = std::uint64_t{1} << (a % 64);
    const std::size_t aword = a / 64;
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      std::uint64_t row = bits_[a * words_per_row_ + w];
      while (row) {
        const std::size_t b = w * 64 + static_cast<std::size_t>(ctz64(row));
        row &= row - 1;
        r.bits_[b * words_per_row_ + aword] |= abit;
      }
    }
  }
  return r;
}

void BitRel::set_range(std::size_t a, std::size_t lo, std::size_t hi) {
  assert(a < n_ && hi <= n_);
  if (lo >= hi) return;
  std::uint64_t* row = &bits_[a * words_per_row_];
  const std::size_t wlo = lo / 64, whi = (hi - 1) / 64;
  const std::uint64_t first = ~std::uint64_t{0} << (lo % 64);
  const std::uint64_t last = ~std::uint64_t{0} >> (63 - (hi - 1) % 64);
  if (wlo == whi) {
    row[wlo] |= first & last;
    return;
  }
  row[wlo] |= first;
  for (std::size_t w = wlo + 1; w < whi; ++w) row[w] = ~std::uint64_t{0};
  row[whi] |= last;
}

bool BitRel::or_row(std::size_t into, const BitRel& src, std::size_t from) {
  if (n_ != src.n_) throw std::invalid_argument("BitRel size mismatch");
  std::uint64_t* dst = &bits_[into * words_per_row_];
  const std::uint64_t* s = &src.bits_[from * src.words_per_row_];
  std::uint64_t changed = 0;
  for (std::size_t w = 0; w < words_per_row_; ++w) {
    changed |= s[w] & ~dst[w];
    dst[w] |= s[w];
  }
  return changed != 0;
}

std::vector<std::size_t> BitRel::reachable_from(std::size_t a) const {
  // Accumulate the reachable set as a row bitmask; the frontier holds nodes
  // whose successor rows have not been absorbed yet.
  std::vector<std::uint64_t> seen(words_per_row_, 0);
  std::vector<std::size_t> frontier = successors(a);
  for (std::size_t b : frontier) seen[b / 64] |= std::uint64_t{1} << (b % 64);
  while (!frontier.empty()) {
    std::vector<std::size_t> next;
    for (std::size_t b : frontier) {
      const std::uint64_t* row = &bits_[b * words_per_row_];
      for (std::size_t w = 0; w < words_per_row_; ++w) {
        std::uint64_t fresh = row[w] & ~seen[w];
        seen[w] |= row[w];
        while (fresh) {
          next.push_back(w * 64 + static_cast<std::size_t>(ctz64(fresh)));
          fresh &= fresh - 1;
        }
      }
    }
    frontier = std::move(next);
  }
  std::vector<std::size_t> out;  // ascending by construction
  for (std::size_t w = 0; w < words_per_row_; ++w) {
    std::uint64_t word = seen[w];
    while (word) {
      out.push_back(w * 64 + static_cast<std::size_t>(ctz64(word)));
      word &= word - 1;
    }
  }
  return out;
}

BitRel BitRel::transitive_closure() const {
  BitRel r = *this;
  // Warshall: for each pivot k, every row that reaches k absorbs k's row.
  for (std::size_t k = 0; k < n_; ++k) {
    const std::uint64_t* krow = &r.bits_[k * words_per_row_];
    for (std::size_t a = 0; a < n_; ++a) {
      if (!r.test(a, k)) continue;
      std::uint64_t* arow = &r.bits_[a * words_per_row_];
      for (std::size_t w = 0; w < words_per_row_; ++w) arow[w] |= krow[w];
    }
  }
  return r;
}

bool BitRel::is_irreflexive() const {
  for (std::size_t a = 0; a < n_; ++a)
    if (test(a, a)) return false;
  return true;
}

bool BitRel::is_acyclic() const {
  std::vector<std::size_t> order;
  return topological_order_dfs(&order);
}

bool BitRel::subset_of(const BitRel& o) const {
  if (n_ != o.n_) throw std::invalid_argument("BitRel size mismatch");
  for (std::size_t i = 0; i < bits_.size(); ++i)
    if (bits_[i] & ~o.bits_[i]) return false;
  return true;
}

BitRel BitRel::filtered(
    const std::function<bool(std::size_t, std::size_t)>& keep) const {
  BitRel r(n_);
  for_each([&](std::size_t a, std::size_t b) {
    if (keep(a, b)) r.set(a, b);
  });
  return r;
}

BitRel BitRel::restricted(const std::vector<bool>& mask) const {
  return filtered([&](std::size_t a, std::size_t b) { return mask[a] && mask[b]; });
}

void BitRel::for_each(
    const std::function<void(std::size_t, std::size_t)>& fn) const {
  for (std::size_t a = 0; a < n_; ++a) {
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      std::uint64_t row = bits_[a * words_per_row_ + w];
      while (row) {
        const std::size_t b = w * 64 + static_cast<std::size_t>(ctz64(row));
        row &= row - 1;
        fn(a, b);
      }
    }
  }
}

std::vector<std::size_t> BitRel::successors(std::size_t a) const {
  std::vector<std::size_t> out;
  for (std::size_t w = 0; w < words_per_row_; ++w) {
    std::uint64_t row = bits_[a * words_per_row_ + w];
    while (row) {
      out.push_back(w * 64 + static_cast<std::size_t>(ctz64(row)));
      row &= row - 1;
    }
  }
  return out;
}

std::vector<std::size_t> BitRel::topological_order() const {
  std::vector<std::size_t> indeg(n_, 0);
  for_each([&](std::size_t, std::size_t b) { ++indeg[b]; });
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < n_; ++i)
    if (indeg[i] == 0) ready.push_back(i);
  std::vector<std::size_t> order;
  order.reserve(n_);
  // Pop smallest-index-first so the order is deterministic.
  while (!ready.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < ready.size(); ++i)
      if (ready[i] < ready[best]) best = i;
    const std::size_t v = ready[best];
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(best));
    order.push_back(v);
    for (std::size_t s : successors(v))
      if (--indeg[s] == 0) ready.push_back(s);
  }
  if (order.size() != n_) return {};
  return order;
}

bool BitRel::topological_order_dfs(std::vector<std::size_t>* order) const {
  const auto bit = [](std::size_t v) { return std::uint64_t{1} << (v % 64); };
  std::vector<std::uint64_t> unvisited(words_per_row_, ~std::uint64_t{0});
  if (n_ % 64 != 0) unvisited.back() = bit(n_) - 1;
  std::vector<std::uint64_t> on_stack(words_per_row_, 0);

  // A frame's word cursor only moves forward: the unvisited mask only
  // shrinks, so words already scanned hold no unvisited successor.
  struct Frame {
    std::size_t v;
    std::size_t word;
  };
  std::vector<Frame> stack;
  std::vector<std::size_t> post;
  post.reserve(n_);

  // Entering v: the on-stack set stays exactly v's ancestors plus v for as
  // long as v is on top, so one check here sees every back edge out of v.
  const auto enter = [&](std::size_t v) {
    unvisited[v / 64] &= ~bit(v);
    on_stack[v / 64] |= bit(v);
    const std::uint64_t* r = row(v);
    for (std::size_t w = 0; w < words_per_row_; ++w)
      if (r[w] & on_stack[w]) return false;
    stack.push_back({v, 0});
    return true;
  };

  for (std::size_t root = 0; root < n_; ++root) {
    if (!(unvisited[root / 64] & bit(root))) continue;
    if (!enter(root)) return false;
    while (!stack.empty()) {
      Frame& f = stack.back();
      const std::uint64_t* r = row(f.v);
      std::uint64_t fresh = 0;
      while (f.word < words_per_row_ && !(fresh = r[f.word] & unvisited[f.word]))
        ++f.word;
      if (fresh) {
        const std::size_t next =
            f.word * 64 + static_cast<std::size_t>(ctz64(fresh));
        if (!enter(next)) return false;  // f dangles from here on
        continue;
      }
      on_stack[f.v / 64] &= ~bit(f.v);
      post.push_back(f.v);
      stack.pop_back();
    }
  }
  order->assign(post.rbegin(), post.rend());
  return true;
}

std::string BitRel::str() const {
  std::string s = "{";
  bool first = true;
  for_each([&](std::size_t a, std::size_t b) {
    if (!first) s += ",";
    first = false;
    s += "(" + std::to_string(a) + "," + std::to_string(b) + ")";
  });
  return s + "}";
}

}  // namespace mtx
