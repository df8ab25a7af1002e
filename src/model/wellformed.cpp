#include "model/wellformed.hpp"

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "model/analysis.hpp"

namespace mtx::model {

bool WfReport::violates(int rule) const {
  for (const auto& v : violations)
    if (v.rule == rule) return true;
  return false;
}

std::string WfReport::str() const {
  std::string s;
  for (const auto& v : violations)
    s += "WF" + std::to_string(v.rule) + ": " + v.msg + "\n";
  return s;
}

namespace {

void check_wf1(const Trace& t, WfReport& out) {
  // The trace starts with an initializing transaction: <B> by init, exactly
  // one write per location at timestamp 0, then <C>.
  const int nlocs = t.num_locs();
  const std::size_t expect = static_cast<std::size_t>(nlocs) + 2;
  if (t.size() < expect) {
    out.violations.push_back({1, "trace shorter than initializing transaction"});
    return;
  }
  if (!t[0].is_begin() || t[0].thread != kInitThread) {
    out.violations.push_back({1, "trace does not start with init begin"});
    return;
  }
  std::set<Loc> seen;
  for (std::size_t i = 1; i + 1 < expect; ++i) {
    const Action& a = t[i];
    if (!a.is_write() || a.thread != kInitThread || a.ts != Rational(0) ||
        a.value != 0) {
      out.violations.push_back({1, "malformed init write at index " + std::to_string(i)});
      return;
    }
    if (!seen.insert(a.loc).second) {
      out.violations.push_back({1, "duplicate init write for location"});
      return;
    }
  }
  const Action& c = t[expect - 1];
  if (!c.is_commit() || c.thread != kInitThread || c.peer != t[0].name) {
    out.violations.push_back({1, "initializing transaction does not commit"});
    return;
  }
  if (static_cast<int>(seen.size()) != nlocs)
    out.violations.push_back({1, "init transaction does not cover all locations"});
  for (std::size_t i = expect; i < t.size(); ++i)
    if (t[i].thread == kInitThread)
      out.violations.push_back({1, "init thread acts after initialization"});
}

void check_wf2(const Trace& t, WfReport& out) {
  std::set<int> names;
  for (std::size_t i = 0; i < t.size(); ++i)
    if (!names.insert(t[i].name).second)
      out.violations.push_back({2, "duplicate action name " + std::to_string(t[i].name)});
}

void check_wf3(const Trace& t, WfReport& out) {
  // Write timestamps are per-location unique.
  std::map<Loc, std::set<std::pair<std::int64_t, std::int64_t>>> stamps;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const Action& a = t[i];
    if (!a.is_write()) continue;
    if (!stamps[a.loc].insert({a.ts.num(), a.ts.den()}).second)
      out.violations.push_back(
          {3, "duplicate timestamp " + a.ts.str() + " on location " + std::to_string(a.loc)});
  }
}

void check_wf4_wf5(const Trace& t, WfReport& out) {
  // WF4: each begin has at most one resolution; each resolution exactly one
  // begin.  WF5: each resolution follows its begin in po with no intervening
  // begin or resolution.
  std::map<int, int> resolutions;  // begin name -> count
  for (std::size_t i = 0; i < t.size(); ++i) {
    const Action& a = t[i];
    if (!a.is_resolution()) continue;
    ++resolutions[a.peer];
    const int b = t.index_of_name(a.peer);
    if (b < 0 || !t[static_cast<std::size_t>(b)].is_begin()) {
      out.violations.push_back({4, "resolution without matching begin"});
      continue;
    }
    const Action& ba = t[static_cast<std::size_t>(b)];
    if (ba.thread != a.thread || static_cast<std::size_t>(b) >= i) {
      out.violations.push_back({5, "resolution does not follow its begin in po"});
      continue;
    }
    for (std::size_t j = static_cast<std::size_t>(b) + 1; j < i; ++j) {
      if (t[j].thread != a.thread) continue;
      if (t[j].is_begin() || t[j].is_resolution()) {
        out.violations.push_back({5, "intervening boundary between begin and resolution"});
        break;
      }
    }
  }
  for (const auto& [name, count] : resolutions)
    if (count > 1)
      out.violations.push_back({4, "begin " + std::to_string(name) + " resolved twice"});
}

// Calls fn(c) for every c < bound in row a of r, ascending — a word-wise
// walk of the row's set bits, for the WF rules that quantify over earlier
// actions related to a.
template <class Fn>
void for_each_below(const BitRel& r, std::size_t a, std::size_t bound, Fn fn) {
  const std::uint64_t* row = r.row(a);
  for (std::size_t w = 0; w * 64 < bound; ++w) {
    std::uint64_t word = row[w];
    if ((w + 1) * 64 > bound) word &= (std::uint64_t{1} << (bound % 64)) - 1;
    while (word) {
      fn(w * 64 + static_cast<std::size_t>(__builtin_ctzll(word)));
      word &= word - 1;
    }
  }
}

// sources[b]: the writes b reads from (wr predecessors), ascending.
std::vector<std::vector<std::size_t>> wr_sources(const Trace& t,
                                                 const Relations& rel) {
  std::vector<std::vector<std::size_t>> sources(t.size());
  rel.wr.for_each([&](std::size_t a, std::size_t b) { sources[b].push_back(a); });
  return sources;
}

void check_wf6(const Trace& t,
               const std::vector<std::vector<std::size_t>>& sources,
               WfReport& out) {
  for (std::size_t b = 0; b < t.size(); ++b) {
    if (!t[b].is_read()) continue;
    if (sources[b].empty())
      out.violations.push_back({6, "unfulfilled read " + t[b].str()});
  }
}

void check_wf7(const Trace& t, const Relations& rel, WfReport& out) {
  rel.wr.for_each([&](std::size_t a, std::size_t b) {
    if ((t.aborted(a) || t.live(a)) && !t.same_txn(a, b))
      out.violations.push_back(
          {7, "read " + t[b].str() + " sees unresolved/aborted write " + t[a].str()});
  });
}

void check_wf8(const Trace& t, const Relations& rel, WfReport& out) {
  rel.wr.for_each([&](std::size_t a, std::size_t b) {
    if (a > b)
      out.violations.push_back({8, "read " + t[b].str() + " sees the future"});
  });
}

void check_wf9(const Trace& t, const Relations& rel, WfReport& out) {
  // If b is transactional (write), no committed-or-live c before b in index
  // with b ww c.  "Committed or live" are transaction states, so c ranges
  // over transactional actions only (the paper says "plain or nonaborted"
  // explicitly, e.g. in the rw definition, when it wants plain included).
  // Aborted b is exempt too: aborted writes are invisible, and constraining
  // them would contradict Lemma A.5 (a consistent trace whose aborted txn
  // reads from one txn and ww-precedes another could not be made
  // contiguous).
  for (std::size_t b = 0; b < t.size(); ++b) {
    if (!t[b].is_write() || !t.transactional(b) || t.aborted(b)) continue;
    for_each_below(rel.ww, b, b, [&](std::size_t c) {
      if (!t.transactional(c) || t.aborted(c)) return;
      out.violations.push_back(
          {9, "transactional write " + t[b].str() + " behind earlier " + t[c].str()});
    });
  }
}

void check_wf10(const Trace& t, const Relations& rel,
                const std::vector<std::vector<std::size_t>>& sources,
                WfReport& out) {
  // If b is a transactional read from a transactional write a, no
  // committed-or-live c before b in index with a ww c (c transactional, as
  // in WF9).
  for (std::size_t b = 0; b < t.size(); ++b) {
    if (!t[b].is_read() || !t.transactional(b)) continue;
    for (std::size_t a : sources[b]) {
      if (!t.transactional(a)) continue;
      for_each_below(rel.ww, a, b, [&](std::size_t c) {
        if (!t.transactional(c) || t.aborted(c)) return;
        out.violations.push_back(
            {10, "transactional read " + t[b].str() + " stale: " + t[c].str() +
                     " already overwrote its source"});
      });
    }
  }
}

void check_wf11(const Trace& t, const Relations& rel,
                const std::vector<std::vector<std::size_t>>& sources,
                WfReport& out) {
  // If b is a transactional read from a, no same-transaction write c before
  // b in index with a ww c.
  for (std::size_t b = 0; b < t.size(); ++b) {
    if (!t[b].is_read() || !t.transactional(b)) continue;
    for (std::size_t a : sources[b]) {
      for_each_below(rel.ww, a, b, [&](std::size_t c) {
        if (!t.same_txn(c, b) || c == a) return;
        out.violations.push_back(
            {11, "read " + t[b].str() + " ignores own transaction's write " + t[c].str()});
      });
    }
  }
}

void check_wf12(const Trace& t, WfReport& out) {
  // A quiescence fence <Qx> may not be interleaved with a transaction that
  // touches x: if <b:B> index-> <Qx> then <Cb> index-> <Qx>, <Ab> index-> <Qx>,
  // or b neither reads nor writes x.  A summary fence <Q*> covers every
  // location, so any access at all counts as touching.
  // Recorded scoped fences expand to one <Qx> per covered location, so this
  // check runs per fence x transaction pair; the one-pass TxnLocCover keeps
  // each touch query O(1) instead of a whole-trace scan.
  std::vector<std::size_t> fences;
  for (std::size_t q = 0; q < t.size(); ++q)
    if (t[q].is_qfence()) fences.push_back(q);
  if (fences.empty()) return;
  const TxnLocCover cover(t);
  for (std::size_t q : fences) {
    for (std::size_t b = 0; b < q; ++b) {
      if (!t[b].is_begin()) continue;
      if (!cover.touches(b, t[q].loc)) continue;
      const int r = t.resolution_of(b);
      if (r < 0 || static_cast<std::size_t>(r) > q)
        out.violations.push_back(
            {12, "fence " + t[q].str() + " interleaved with open transaction touching its location"});
    }
  }
}

}  // namespace

WfReport check_wellformed(const Trace& t) {
  return check_wellformed(t, Relations::compute(t));
}

WfReport check_wellformed(const Trace& t, const Relations& rel) {
  WfReport out;
  check_wf1(t, out);
  check_wf2(t, out);
  check_wf3(t, out);
  check_wf4_wf5(t, out);
  const std::vector<std::vector<std::size_t>> sources = wr_sources(t, rel);
  check_wf6(t, sources, out);
  check_wf7(t, rel, out);
  check_wf8(t, rel, out);
  check_wf9(t, rel, out);
  check_wf10(t, rel, sources, out);
  check_wf11(t, rel, sources, out);
  check_wf12(t, out);
  return out;
}

WfReport check_wellformed(AnalysisContext& ctx) { return ctx.wf_report(); }

bool wellformed(const Trace& t) { return check_wellformed(t).ok(); }

}  // namespace mtx::model
