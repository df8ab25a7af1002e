#include "record/assemble.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>

namespace mtx::record {

// Sink each fence past the resolutions of the transactions open at its
// position (see header).  Fences are pulled out first and their insertion
// points computed against the *fence-free* event list, whose indices are
// stable: each fence's target only ever increases and is bounded by the
// list length, so the fixpoint terminates, and fences cannot perturb each
// other's spans (two concurrent fences inside one transaction both sink
// just past its resolution, keeping their relative order).
//
// One rule serves both fence kinds: a fence is a family of per-location
// <Qx>, and each <Qx> sinks only past spans whose transaction touches x.
// WF12 is a per-location constraint, so this is exactly as much motion as
// the adjustment needs — and no more.  The restraint is what keeps program
// order honest: an unrelated transaction in another thread can bracket
// thousands of events (a long-preempted thread resumes after a privatize
// owner's tight plain-copy loop has drawn that many seq tickets), and a
// fence that sank past every open span would cross its own thread's later
// plain accesses, inverting po and severing the commit -> <Qx> -> po ->
// plain-access happens-before chain the §5 protocols rest on.  Spans that
// DO touch x are short-lived gate bounces the runtime really did not wait
// for; sinking past them is the WF12 adjustment working as intended.
//
// A scoped fence's family is its recorded cover set.  A whole-store fence's
// is every location; only locations some event accesses can take part in
// an edge or a check, so those are the ones enumerated.  When every member
// of a whole-store family settles at the same index (the common case: no
// open span touches anything) it stays one summary <Q*>; otherwise it
// splits like a scoped fence.
void sink_fences(std::vector<MergedEvent>& evs, const RecordSession& s) {
  std::vector<MergedEvent> fences, rest;  // fences in seq order, unsplit
  std::vector<std::size_t> at;            // insertion index in `rest`
  for (const MergedEvent& m : evs) {
    if (m.ev.kind == Ev::Fence) {
      fences.push_back(m);
      at.push_back(rest.size());
    } else {
      rest.push_back(m);
    }
  }
  if (fences.empty()) return;

  // Transaction spans (begin index, resolution index) over `rest`, with
  // the locations the transaction touches: every access between its begin
  // and resolution in its thread, plain ones included — the model counts a
  // plain store inside a transaction (a fresh node's initialization in
  // THash::put_in) as a transaction member, so WF12's cover check does too.
  struct Span {
    std::size_t begin, end;
    std::vector<std::int32_t> locs;
    bool touches(std::int32_t x) const {
      return std::find(locs.begin(), locs.end(), x) != locs.end();
    }
  };
  std::vector<Span> spans;
  std::map<int, Span> open;  // thread -> open transaction
  std::vector<std::int32_t> accessed;  // every accessed location
  for (std::size_t i = 0; i < rest.size(); ++i) {
    const Event& e = rest[i].ev;
    const int th = rest[i].thread;
    if (e.kind == Ev::Begin) {
      open[th] = {i, i, {}};
    } else if (e.kind == Ev::Commit || e.kind == Ev::Abort) {
      auto it = open.find(th);
      if (it != open.end()) {
        it->second.end = i;
        spans.push_back(std::move(it->second));
        open.erase(it);
      }
    } else if (e.loc >= 0) {  // an access
      accessed.push_back(e.loc);
      auto it = open.find(th);
      if (it != open.end() && !it->second.touches(e.loc))
        it->second.locs.push_back(e.loc);
    }
  }

  std::sort(accessed.begin(), accessed.end());
  accessed.erase(std::unique(accessed.begin(), accessed.end()), accessed.end());

  // A <Qx> inserted at index t has rest[0..t-1] before it; a span is open
  // across it iff begin < t <= end.  Sinking to end+1 may enter new spans,
  // so iterate to the (monotone, bounded) fixpoint.
  const auto sink = [&](std::size_t t, std::int32_t x) {
    bool moved = true;
    while (moved) {
      moved = false;
      for (const Span& sp : spans) {
        if (sp.begin < t && sp.end >= t && sp.touches(x)) {
          t = sp.end + 1;
          moved = true;
        }
      }
    }
    return t;
  };

  std::vector<MergedEvent> out_fences;
  std::vector<std::size_t> targets;  // insertion index of each out fence
  for (std::size_t fi = 0; fi < fences.size(); ++fi) {
    const MergedEvent& m = fences[fi];
    const bool whole = m.ev.cover < 0;
    std::vector<std::int32_t> cover =
        whole ? accessed : s.fence_cover(m.ev.cover);
    // Only locations some span open at the fence touches can move at all.
    std::set<std::int32_t> movable;
    for (const Span& sp : spans)
      if (sp.begin < at[fi] && sp.end >= at[fi])
        movable.insert(sp.locs.begin(), sp.locs.end());
    std::vector<std::size_t> t(cover.size(), at[fi]);
    for (std::size_t k = 0; k < cover.size(); ++k)
      if (movable.count(cover[k])) t[k] = sink(at[fi], cover[k]);
    if (whole && std::adjacent_find(t.begin(), t.end(),
                                    std::not_equal_to<>()) == t.end()) {
      out_fences.push_back(m);  // one summary <Q*>
      targets.push_back(t.empty() ? at[fi] : t[0]);
      continue;
    }
    // Split: one single-location fence event per covered location.  The
    // first carries version = 1 so assembly still counts ONE fence; an
    // empty scoped cover keeps a loc < 0 event for that accounting only.
    if (cover.empty()) {
      cover.push_back(-1);
      t.push_back(at[fi]);
    }
    for (std::size_t k = 0; k < cover.size(); ++k) {
      MergedEvent f = m;
      f.ev.loc = cover[k];
      f.ev.cover = kFenceCoverSingle;
      f.ev.version = k == 0 ? 1 : 0;
      out_fences.push_back(f);
      targets.push_back(t[k]);
    }
  }

  // Rebuild: walk `rest`, interleaving fences at their targets.  Sinking
  // can carry an early fence past a later one's target, so order fences by
  // (target, original position) — stable for equal targets.
  std::vector<std::size_t> order(out_fences.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return targets[a] < targets[b];
  });
  std::vector<MergedEvent> out;
  out.reserve(rest.size() + out_fences.size());
  std::size_t f = 0;
  for (std::size_t i = 0; i <= rest.size(); ++i) {
    while (f < order.size() && targets[order[f]] == i)
      out.push_back(out_fences[order[f++]]);
    if (i < rest.size()) out.push_back(rest[i]);
  }
  evs = std::move(out);
}

void append_events(model::Trace& t, const std::vector<MergedEvent>& evs,
                   const RecordSession& s, RecordedTrace::Meta* meta) {
  RecordedTrace::Meta scratch;
  RecordedTrace::Meta& m_ = meta ? *meta : scratch;
  std::map<int, int> open_begin;  // thread -> begin action name
  for (const MergedEvent& m : evs) {
    const Event& e = m.ev;
    switch (e.kind) {
      case Ev::Begin: {
        const int idx = t.append(model::make_begin(m.thread));
        open_begin[m.thread] = t[static_cast<std::size_t>(idx)].name;
        ++m_.txns;
        break;
      }
      case Ev::Commit:
      case Ev::Abort: {
        auto it = open_begin.find(m.thread);
        if (it == open_begin.end()) break;  // unmatched marker: drop
        if (e.kind == Ev::Commit) {
          t.append(model::make_commit(m.thread, it->second));
          ++m_.committed;
        } else {
          t.append(model::make_abort(m.thread, it->second));
          ++m_.aborted;
        }
        open_begin.erase(it);
        break;
      }
      case Ev::Read:
      case Ev::PlainRead:
        t.append(model::make_read(
            m.thread, e.loc, static_cast<model::Value>(e.value),
            Rational(static_cast<std::int64_t>(e.version))));
        ++(e.kind == Ev::Read ? m_.reads : m_.plain_reads);
        break;
      case Ev::Write:
      case Ev::PlainWrite:
        t.append(model::make_write(
            m.thread, e.loc, static_cast<model::Value>(e.value),
            Rational(static_cast<std::int64_t>(e.version))));
        ++(e.kind == Ev::Write ? m_.writes : m_.plain_writes);
        break;
      case Ev::Fence:
        if (e.cover == kFenceCoverSingle) {
          // Post-split scoped fence (sink_fences): one <Qx> for this
          // event's location; loc < 0 is an empty cover kept for counting.
          if (e.loc >= 0) t.append(model::make_qfence(m.thread, e.loc));
          if (e.version != 0) ++m_.fences;
          break;
        }
        if (e.cover >= 0) {
          // Domain-scoped fence: the runtime only waited for transactions
          // that can touch the recorded cover set, so the model gets one
          // <Qx> per covered location and nothing more.
          for (std::int32_t x : s.fence_cover(e.cover))
            t.append(model::make_qfence(m.thread, x));
        } else {
          // Whole-store fence (conservative §5 variant): one summary <Q*>
          // standing for a <Qx> on every location of the trace.
          t.append(model::make_qfence_all(m.thread));
        }
        ++m_.fences;
        break;
    }
  }
}

RecordedTrace assemble(const RecordSession& s) {
  RecordedTrace out;
  auto& meta = out.meta;

  std::vector<MergedEvent> evs;
  std::set<int> threads;
  for (const auto& rec : s.recorders()) {
    threads.insert(rec->thread_id());
    meta.buffered_reads += rec->buffered_reads();
    for (const Event& e : rec->events()) evs.push_back({e, rec->thread_id()});
  }
  std::sort(evs.begin(), evs.end(), [](const MergedEvent& a, const MergedEvent& b) {
    return a.ev.seq < b.ev.seq;
  });

  sink_fences(evs, s);

  meta.events = evs.size();
  meta.threads = static_cast<int>(threads.size());
  meta.num_locs = s.num_locs();
  meta.plain_order = stm::plain_order_name(stm::plain_order());

  out.trace = model::Trace::with_init(meta.num_locs);
  append_events(out.trace, evs, s, &meta);
  return out;
}

// ----- fence-bounded windowing ----------------------------------------

namespace {

using model::Action;
using model::Loc;
using model::Thread;
using model::Trace;

struct FenceGroup {
  std::size_t start, end;  // inclusive run of consecutive qfences, one thread
  Thread thread;
  bool full = false;          // covers every location of the trace
  std::vector<bool> covered;  // per-location <Qx> membership
};

std::vector<FenceGroup> find_fence_groups(const Trace& t) {
  const int nlocs = t.num_locs();
  std::vector<FenceGroup> groups;
  std::size_t i = 0;
  while (i < t.size()) {
    if (!t[i].is_qfence()) {
      ++i;
      continue;
    }
    FenceGroup g{i, i, t[i].thread, false, {}};
    g.covered.assign(static_cast<std::size_t>(nlocs), false);
    while (g.end < t.size() && t[g.end].is_qfence() && t[g.end].thread == g.thread) {
      if (t[g.end].loc >= 0) g.covered[static_cast<std::size_t>(t[g.end].loc)] = true;
      if (t[g.end].loc == model::kAllLocs)
        g.covered.assign(static_cast<std::size_t>(nlocs), true);
      ++g.end;
    }
    --g.end;
    g.full = std::find(g.covered.begin(), g.covered.end(), false) == g.covered.end();
    groups.push_back(g);
    i = g.end + 1;
  }
  return groups;
}

// Copies t[i] into `w`, renaming it (window names are fresh) and remapping
// resolution peers through `names` (old begin name -> new begin name).
void copy_action(Trace& w, const Trace& t, std::size_t i,
                 std::unordered_map<int, int>& names) {
  Action a = t[i];
  const int old_name = a.name;
  a.name = -1;
  if (a.is_resolution()) {
    auto it = names.find(a.peer);
    if (it != names.end()) a.peer = it->second;
  }
  const int idx = w.append(a);
  if (t[i].is_begin()) names[old_name] = w[static_cast<std::size_t>(idx)].name;
}

}  // namespace

WindowPlan cut_windows(const Trace& t, std::size_t min_window_events) {
  WindowPlan plan;
  const std::size_t n = t.size();
  const int nlocs = t.num_locs();

  // The source's initializing transaction is replaced by each window's own.
  std::size_t body_begin = 0;
  if (n > 0 && t[0].is_begin() && t[0].thread == model::kInitThread) {
    const int r = t.resolution_of(0);
    body_begin = r >= 0 ? static_cast<std::size_t>(r) + 1 : 0;
  }

  // open_at[p]: transactions open across position p (begin < p <= resolution;
  // live transactions stay open forever).  Validity (a) needs open_at == 0.
  std::vector<int> open_delta(n + 2, 0);
  for (std::size_t b : t.begins()) {
    const int r = t.resolution_of(b);
    open_delta[b + 1] += 1;
    if (r >= 0) open_delta[static_cast<std::size_t>(r) + 1] -= 1;
  }
  std::vector<int> open_at(n + 1, 0);
  int running = 0;
  for (std::size_t p = 0; p <= n; ++p) {
    running += open_delta[p];
    open_at[p] = running;
  }

  // Per-transaction touched-location sets (keyed by begin index).
  std::unordered_map<int, std::vector<bool>> touches;
  for (std::size_t i = 0; i < n; ++i) {
    if (!t[i].is_memory_access() || t.plain(i) || t[i].loc < 0) continue;
    auto& set = touches[t.txn_of(i)];
    if (set.empty()) set.assign(static_cast<std::size_t>(nlocs), false);
    set[static_cast<std::size_t>(t[i].loc)] = true;
  }
  auto txn_touches = [&](int begin_idx, Loc x) {
    auto it = touches.find(begin_idx);
    return it != touches.end() && it->second[static_cast<std::size_t>(x)];
  };

  // Dense thread ids.
  std::unordered_map<Thread, std::size_t> tid_of;
  Thread max_thread = 0;
  for (std::size_t i = 0; i < n; ++i) {
    tid_of.emplace(t[i].thread, tid_of.size());
    max_thread = std::max(max_thread, t[i].thread);
  }
  const std::size_t nthreads = tid_of.size();
  const Thread carry_thread = max_thread + 1;

  // Publication (validity b): for each plain access i on x by thread s, the
  // smallest j > i, same thread, that commits a transaction touching x.
  // Backward sweep over per-(thread, loc) "next commit touching" state.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> pub_commit(n, kNone);
  {
    std::vector<std::vector<std::size_t>> next_commit(
        nthreads, std::vector<std::size_t>(static_cast<std::size_t>(nlocs), kNone));
    for (std::size_t i = n; i-- > 0;) {
      const Action& a = t[i];
      const std::size_t s = tid_of[a.thread];
      if (a.is_memory_access() && t.plain(i) && a.loc >= 0)
        pub_commit[i] = next_commit[s][static_cast<std::size_t>(a.loc)];
      if (a.is_commit()) {
        const int b = t.txn_of(i);
        for (Loc x = 0; x < nlocs; ++x)
          if (txn_touches(b, x)) next_commit[s][static_cast<std::size_t>(x)] = i;
      }
    }
  }
  // Privatization (validity c): the largest j < i, same thread, that begins
  // a transaction touching x.  Forward sweep.
  std::vector<std::size_t> priv_begin(n, kNone);
  {
    std::vector<std::vector<std::size_t>> prev_begin(
        nthreads, std::vector<std::size_t>(static_cast<std::size_t>(nlocs), kNone));
    for (std::size_t i = 0; i < n; ++i) {
      const Action& a = t[i];
      const std::size_t s = tid_of[a.thread];
      if (a.is_begin()) {
        for (Loc x = 0; x < nlocs; ++x)
          if (txn_touches(static_cast<int>(i), x))
            prev_begin[s][static_cast<std::size_t>(x)] = i;
      }
      if (a.is_memory_access() && t.plain(i) && a.loc >= 0)
        priv_begin[i] = prev_begin[s][static_cast<std::size_t>(a.loc)];
    }
  }

  // Plain accesses in index order (validity scans walk only these).
  std::vector<std::size_t> plain_accesses;
  for (std::size_t i = 0; i < n; ++i)
    if (t[i].is_memory_access() && t.plain(i)) plain_accesses.push_back(i);

  // First/last body access per location (transactional or plain, committed
  // or aborted).  A scoped fence group has no <Qy> for its uncovered
  // locations, so nothing orders accesses to y across the group: such a
  // group can only cut the trace if each uncovered location's accesses lie
  // entirely on one side (d).  This also covers locations that come into
  // existence after the fence (e.g. hash nodes a post-fence insert
  // allocates): all their accesses are post-group.
  constexpr std::size_t kNone2 = static_cast<std::size_t>(-1);
  std::vector<std::size_t> first_acc(static_cast<std::size_t>(nlocs), kNone2);
  std::vector<std::size_t> last_acc(static_cast<std::size_t>(nlocs), kNone2);
  for (std::size_t i = body_begin; i < n; ++i) {
    if (!t[i].is_memory_access() || t[i].loc < 0) continue;
    const auto y = static_cast<std::size_t>(t[i].loc);
    if (first_acc[y] == kNone2) first_acc[y] = i;
    last_acc[y] = i;
  }

  auto cut_valid = [&](const FenceGroup& g) {
    if (open_at[g.start] != 0) return false;
    // (b)/(c) for covered locations: the group's <Qx> orders published
    // pre-group and privatized post-group plain accesses through the fence,
    // and the fencing thread's own accesses by po through <Qx>.
    for (std::size_t i : plain_accesses) {
      if (t[i].loc < 0 || !g.covered[static_cast<std::size_t>(t[i].loc)])
        continue;  // uncovered: rule (d) below decides
      if (i < g.start) {
        // Published before the group, or po into the group's own fence.
        if (t[i].thread == g.thread) continue;
        if (pub_commit[i] == kNone || pub_commit[i] >= g.start) return false;
      } else if (i > g.end) {
        // Privatized after the group, or po out of the group's own fence.
        if (t[i].thread == g.thread) continue;
        if (priv_begin[i] == kNone || priv_begin[i] <= g.end) return false;
      }
    }
    // (d) for uncovered locations: no access on both sides — without a
    // <Qy> there is no edge to order a cross-cut pair on y, and no
    // exemption applies (not even the fencing thread's own po: its partner
    // on the other side may be any thread).
    for (std::size_t y = 0; y < static_cast<std::size_t>(nlocs); ++y) {
      if (g.covered[y]) continue;
      if (first_acc[y] == kNone2) continue;
      if (first_acc[y] < g.start && last_acc[y] > g.end) return false;
    }
    return true;
  };

  // Pick cuts greedily in index order, honoring the minimum window size.
  std::vector<FenceGroup> cuts;
  std::size_t window_start = body_begin;
  for (const FenceGroup& g : find_fence_groups(t)) {
    if (g.start < body_begin) continue;
    ++plan.cut_candidates;
    if (g.end + 1 - window_start < min_window_events) continue;
    if (!cut_valid(g)) continue;
    cuts.push_back(g);
    window_start = g.end + 1;
  }
  plan.cuts = cuts.size();

  // Materialize windows.  Window k spans (previous cut's start .. this
  // cut's end]; sharing the cut group gives adjacent windows their overlap.
  std::vector<std::pair<Rational, model::Value>> carry(
      static_cast<std::size_t>(nlocs), {Rational(0), 0});
  std::size_t carry_scanned = body_begin;  // carry reflects t[0, carry_scanned)

  for (std::size_t k = 0; k <= cuts.size(); ++k) {
    TraceWindow win;
    win.first = k == 0 ? body_begin : cuts[k - 1].start;
    win.last = k < cuts.size() ? cuts[k].end : (n == 0 ? 0 : n - 1);
    win.trace = Trace::with_init(nlocs);

    if (k > 0) {
      // Advance carry over the slice consumed by earlier windows: every
      // nonaborted write before the opening group is the visible state.
      while (carry_scanned < cuts[k - 1].start) {
        const std::size_t i = carry_scanned++;
        if (t[i].is_write() && !t.aborted(i))
          carry[static_cast<std::size_t>(t[i].loc)] = {t[i].ts, t[i].value};
      }
      // Sparse carry: only locations this window actually accesses need
      // their pre-cut state re-established.  An unaccessed location's carry
      // write would fulfil no read, join no race pair (races are
      // same-location), and add only an init->carry coherence edge — inert
      // for every verdict — while inflating each window by O(|store|).
      std::vector<bool> accessed(static_cast<std::size_t>(nlocs), false);
      for (std::size_t i = win.first; i <= win.last && i < n; ++i)
        if (t[i].is_memory_access() && t[i].loc >= 0)
          accessed[static_cast<std::size_t>(t[i].loc)] = true;
      std::vector<Loc> carried;
      for (Loc x = 0; x < nlocs; ++x)
        if (accessed[static_cast<std::size_t>(x)] &&
            carry[static_cast<std::size_t>(x)].first > Rational(0))
          carried.push_back(x);
      if (!carried.empty()) {
        const int b = win.trace.append(model::make_begin(carry_thread));
        const int bname = win.trace[static_cast<std::size_t>(b)].name;
        for (Loc x : carried) {
          const auto& [ts, v] = carry[static_cast<std::size_t>(x)];
          win.trace.append(model::make_write(carry_thread, x, v, ts));
        }
        win.trace.append(model::make_commit(carry_thread, bname));
        win.carried = carried.size();
      }
    }

    std::unordered_map<int, int> names;
    if (n > 0)
      for (std::size_t i = win.first; i <= win.last; ++i)
        copy_action(win.trace, t, i, names);
    plan.windows.push_back(std::move(win));
  }
  return plan;
}

}  // namespace mtx::record
