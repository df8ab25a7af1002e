// The shared analysis engine: one memoized context per (trace, config).
//
// Every checker in the model layer needs the same two expensive artifacts --
// the derived relations of §2 (Relations::compute, dense O(n^2)) and the
// happens-before closure (compute_hb, a semi-naive fixpoint).  Before this
// engine existed each checker recomputed both privately, so one conformance
// check over a recorded execution paid the relation build and the closure
// 5-7 times.  An AnalysisContext computes each artifact lazily, exactly
// once, and every checker (wellformedness, races, opacity, causal removal,
// sequentiality, suborders, the consistency axioms) has an overload that
// reads from the context instead of recomputing.
//
// The context borrows the trace; keep the trace alive for the context's
// lifetime and do not mutate it while analyses are cached.
#pragma once

#include <cstdint>
#include <optional>

#include "model/derived.hpp"
#include "model/happens_before.hpp"
#include "model/model_config.hpp"
#include "model/trace.hpp"
#include "model/wellformed.hpp"

namespace mtx::model {

class AnalysisContext {
 public:
  explicit AnalysisContext(const Trace& t,
                           ModelConfig cfg = ModelConfig::programmer())
      : t_(t), cfg_(std::move(cfg)) {}

  AnalysisContext(const AnalysisContext&) = delete;
  AnalysisContext& operator=(const AnalysisContext&) = delete;

  const Trace& trace() const { return t_; }
  const ModelConfig& config() const { return cfg_; }

  // Memoized artifacts: computed on first use, then shared by reference.
  const Relations& relations();
  const BitRel& hb();
  const WfReport& wf_report();
  bool wellformed() { return wf_report().ok(); }

 private:
  friend class ChainedAnalysis;

  const Trace& t_;
  ModelConfig cfg_;
  // Chained contexts dispatch to the word-parallel builders
  // (Relations::compute_fast / compute_hb_fast); standalone contexts keep
  // the reference path, so litmus-scale checking never depends on the fast
  // builders' equivalence and the two paths can be pinned against each
  // other end to end.
  bool fast_ = false;
  std::optional<Relations> rel_;
  std::optional<BitRel> hb_;
  std::optional<WfReport> wf_;
};

// Window-chain analysis engine for the streaming checker.
//
// A fence-bounded window chain analyzes the same *shape* of trace over and
// over: fresh init block, sparse carry transaction, opening fence group,
// then a recorded slice whose hb seed is acyclic (events append in global
// sequence order).  A ChainedAnalysis carries the cross-window state from
// window N into window N+1 -- the model config and the running chain
// tallies -- and builds each window's context through the word-parallel
// relation builders and the one-pass (topological) hb closure that the
// chain's shape guarantees is applicable.  Verdicts are bit-identical to a
// fresh AnalysisContext on the same window (pinned by tests); advance()
// costs the fast build instead of the reference build.
//
// The returned context borrows chain-owned storage: it stays valid until
// the next advance() and must not outlive the chain or the window trace.
class ChainedAnalysis {
 public:
  explicit ChainedAnalysis(ModelConfig cfg = ModelConfig::implementation())
      : cfg_(std::move(cfg)) {}

  // Analyze the next window of the chain.
  AnalysisContext& advance(const Trace& w);

  const ModelConfig& config() const { return cfg_; }
  std::size_t windows() const { return windows_; }
  std::size_t events() const { return events_; }

 private:
  ModelConfig cfg_;
  std::optional<AnalysisContext> ctx_;
  std::size_t windows_ = 0;
  std::size_t events_ = 0;  // cumulative actions analyzed across the chain
};

// Computation counters, incremented by Relations::compute and compute_hb.
// They exist so tests can pin the "exactly once per context" guarantee --
// the whole point of the shared engine -- against regression; they are
// plain thread-local tallies and cost one increment per build.
struct AnalysisCounters {
  std::uint64_t relations_computes = 0;
  std::uint64_t hb_computes = 0;
};

AnalysisCounters analysis_counters();
void reset_analysis_counters();

namespace detail {
void count_relations_compute();
void count_hb_compute();
}  // namespace detail

}  // namespace mtx::model
