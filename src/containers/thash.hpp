// Striped transactional hash map: fixed bucket array of sorted chains.
// Operations on different buckets conflict only through the STM's orec
// hashing, so the map scales where the single list cannot.
//
// Sizing: the bucket array is fixed at construction (`bucket_count`); there
// is no rehashing, so chains grow linearly once the load factor passes ~2.
// Callers that know their key volume up front should size with
// `recommended_buckets(expected_keys)` instead of taking the seed default —
// the KV shards (src/kv/kvstore.hpp) do exactly that.
//
// Every operation also exists in a txn-parameterized `*_in(tx, ...)` form so
// callers can compose a map operation with their own transactional state
// (e.g. a privatization flag read) inside ONE atomic block — the wrapper
// forms simply run the `_in` body under a fresh transaction.
#pragma once

#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

#include "stm/api.hpp"

namespace mtx::containers {

template <class Stm>
class THash {
 public:
  static constexpr std::size_t kDefaultBuckets = 64;

  THash(Stm& stm, std::size_t bucket_count = kDefaultBuckets)
      : stm_(stm), heads_(bucket_count ? bucket_count : 1) {}

  ~THash() {
    std::lock_guard<std::mutex> g(nodes_mu_);
    for (Node* n : nodes_) delete n;
  }

  THash(const THash&) = delete;
  THash& operator=(const THash&) = delete;

  std::size_t bucket_count() const { return heads_.size(); }

  // Power-of-two bucket count targeting a load factor of ~2 at
  // `expected_keys`, clamped to [kDefaultBuckets/4, 2^20]: small tables keep
  // a floor so orec striping still spreads, huge hints stay bounded.
  static std::size_t recommended_buckets(std::size_t expected_keys) {
    const std::size_t target = expected_keys / 2;
    std::size_t b = kDefaultBuckets / 4;
    while (b < target && b < (std::size_t{1} << 20)) b <<= 1;
    return b;
  }

  // ----- txn-parameterized operations ------------------------------------

  // Inserts or updates; returns true when the key was new.
  template <class Tx>
  bool put_in(Tx& tx, std::int64_t key, std::int64_t value) {
    stm::Cell& head = heads_[bucket(key)];
    Node* prev = nullptr;
    Node* cur = decode(tx.read(head));
    while (cur && cur->key < key) {
      prev = cur;
      cur = decode(tx.read(cur->next));
    }
    if (cur && cur->key == key) {
      tx.write(cur->value, static_cast<stm::word_t>(value));
      return false;
    }
    Node* fresh_node = new_node(key, value);
    fresh_node->next.plain_store(encode(cur));
    if (prev)
      tx.write(prev->next, encode(fresh_node));
    else
      tx.write(head, encode(fresh_node));
    return true;
  }

  // Returns true and sets *out when present.
  template <class Tx>
  bool get_in(Tx& tx, std::int64_t key, std::int64_t* out) {
    Node* cur = decode(tx.read(heads_[bucket(key)]));
    while (cur && cur->key < key) cur = decode(tx.read(cur->next));
    if (cur && cur->key == key) {
      if (out) *out = static_cast<std::int64_t>(tx.read(cur->value));
      return true;
    }
    return false;
  }

  template <class Tx>
  bool erase_in(Tx& tx, std::int64_t key) {
    stm::Cell& head = heads_[bucket(key)];
    Node* prev = nullptr;
    Node* cur = decode(tx.read(head));
    while (cur && cur->key < key) {
      prev = cur;
      cur = decode(tx.read(cur->next));
    }
    if (!cur || cur->key != key) return false;
    const stm::word_t nxt = tx.read(cur->next);
    if (prev)
      tx.write(prev->next, nxt);
    else
      tx.write(head, nxt);
    return true;
  }

  // ----- single-transaction wrappers -------------------------------------

  bool put(std::int64_t key, std::int64_t value) {
    bool fresh = false;
    stm_.atomically([&](auto& tx) { fresh = put_in(tx, key, value); });
    return fresh;
  }

  bool get(std::int64_t key, std::int64_t* out) {
    bool found = false;
    stm_.atomically([&](auto& tx) { found = get_in(tx, key, out); });
    return found;
  }

  bool erase(std::int64_t key) {
    bool removed = false;
    stm_.atomically([&](auto& tx) { removed = erase_in(tx, key); });
    return removed;
  }

  // Entry count inside the caller's transaction (composes with a migration
  // flag read the way the other `_in` forms do).
  template <class Tx>
  std::size_t size_in(Tx& tx) {
    std::size_t n = 0;
    for (stm::Cell& head : heads_) {
      Node* cur = decode(tx.read(head));
      while (cur) {
        ++n;
        cur = decode(tx.read(cur->next));
      }
    }
    return n;
  }

  std::size_t size() {
    std::size_t n = 0;
    stm_.atomically([&](auto& tx) { n = size_in(tx); });
    return n;
  }

  // ----- plain (nontransactional) access ---------------------------------
  //
  // Both traversals use Cell::plain_load/plain_store only, so they are the
  // paper's ordinary accesses: legal ONLY while the caller owns the table —
  // after a privatizing flag write plus quiescence fence (the KV
  // privatize-scan), or while every other thread is provably quiescent (the
  // conformance state replay).  Under a recording session every
  // access is captured, so protocol mistakes surface as model races.

  // fn(key, value) for every live entry, bucket-major, keys ascending within
  // a bucket.
  template <class Fn>
  void for_each_plain(Fn&& fn) {
    for (stm::Cell& head : heads_) {
      Node* cur = decode(head.plain_load());
      while (cur) {
        fn(cur->key, static_cast<std::int64_t>(cur->value.plain_load()));
        cur = decode(cur->next.plain_load());
      }
    }
  }

  // Plain-access insert-or-update: the uninstrumented copy path a migration
  // uses after privatizing BOTH endpoint shards (writers fenced out by the
  // flag-CAS + quiesce, readers by the migration flag).  Same chain
  // discipline as put_in — sorted position, fresh node's own cells
  // initialized before the link store — so a recorded copy is a faithful
  // plain-write image of the transactional insert.  Returns true when the
  // key was new.
  bool plain_put(std::int64_t key, std::int64_t value) {
    stm::Cell& head = heads_[bucket(key)];
    Node* prev = nullptr;
    Node* cur = decode(head.plain_load());
    while (cur && cur->key < key) {
      prev = cur;
      cur = decode(cur->next.plain_load());
    }
    if (cur && cur->key == key) {
      cur->value.plain_store(static_cast<stm::word_t>(value));
      return false;
    }
    Node* fresh_node = new_node(key, value);
    fresh_node->next.plain_store(encode(cur));
    if (prev)
      prev->next.plain_store(encode(fresh_node));
    else
      head.plain_store(encode(fresh_node));
    return true;
  }

  // Plain-access unlink (the migration source's post-copy erase).  The node
  // stays allocated and enumerable (for_each_cell) — a doomed zombie reader
  // may still dereference it.  Returns true when the key was present.
  bool plain_erase(std::int64_t key) {
    stm::Cell& head = heads_[bucket(key)];
    Node* prev = nullptr;
    Node* cur = decode(head.plain_load());
    while (cur && cur->key < key) {
      prev = cur;
      cur = decode(cur->next.plain_load());
    }
    if (!cur || cur->key != key) return false;
    const stm::word_t nxt = cur->next.plain_load();
    if (prev)
      prev->next.plain_store(nxt);
    else
      head.plain_store(nxt);
    return true;
  }

  // fn(cell) for every Cell the table has ever allocated: bucket heads plus
  // the value/next cells of every node, INCLUDING unlinked (erased) ones —
  // a doomed zombie reader can still dereference an unlinked node, so a
  // state replay that skipped them would leave dangling reads-from.
  template <class Fn>
  void for_each_cell(Fn&& fn) {
    for (stm::Cell& head : heads_) fn(head);
    std::lock_guard<std::mutex> g(nodes_mu_);
    for (Node* n : nodes_) {
      fn(n->value);
      fn(n->next);
    }
  }

 private:
  struct Node {
    // The value cell is initialized through plain_store so recording
    // sessions observe the write (see TList::Node).
    Node(std::int64_t k, std::int64_t v) : key(k) {
      value.plain_store(static_cast<stm::word_t>(v));
    }
    const std::int64_t key;
    stm::Cell value;
    stm::Cell next;
  };

  static stm::word_t encode(Node* n) { return reinterpret_cast<stm::word_t>(n); }
  static Node* decode(stm::word_t w) { return reinterpret_cast<Node*>(w); }

  std::size_t bucket(std::int64_t key) const {
    auto h = static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h >> 33) % heads_.size();
  }

  Node* new_node(std::int64_t key, std::int64_t value) {
    Node* n = new Node(key, value);
    std::lock_guard<std::mutex> g(nodes_mu_);
    nodes_.push_back(n);
    return n;
  }

  Stm& stm_;
  std::vector<stm::Cell> heads_;
  std::mutex nodes_mu_;
  std::vector<Node*> nodes_;
};

}  // namespace mtx::containers
