#include "model/race.hpp"

#include <algorithm>

namespace mtx::model {

LocSet all_locs(const Trace& t) {
  return LocSet(static_cast<std::size_t>(t.num_locs()), true);
}

LocSet loc_set(std::initializer_list<Loc> locs, int num_locs) {
  LocSet s(static_cast<std::size_t>(num_locs), false);
  for (Loc x : locs) s[static_cast<std::size_t>(x)] = true;
  return s;
}

bool touches_locset(const Action& a, const LocSet& locs) {
  return a.is_memory_access() && a.loc >= 0 &&
         static_cast<std::size_t>(a.loc) < locs.size() &&
         locs[static_cast<std::size_t>(a.loc)];
}

bool l_conflict(const Trace& t, std::size_t i, std::size_t j, const LocSet& locs) {
  const Action& a = t[i];
  const Action& b = t[j];
  if (!a.is_memory_access() || !b.is_memory_access()) return false;
  if (a.loc != b.loc) return false;
  if (!touches_locset(a, locs)) return false;
  if (!a.is_write() && !b.is_write()) return false;
  if (!t.plain(i) && !t.plain(j)) return false;  // at least one plain
  if (t.aborted(i) || t.aborted(j)) return false;
  return true;
}

bool is_l_race(const Trace& t, const BitRel& hb, std::size_t b, std::size_t c,
               const LocSet& locs) {
  if (b >= c) return false;  // need b index-> c
  if (!l_conflict(t, b, c, locs)) return false;
  return !hb.test(b, c);
}

namespace {

// Calls visit(b, c) for every b index-> c pair of accesses to one location
// of `locs`, grouped by location; stops early once visit returns true.
// Conflicting actions share a location, so the pairs skipped here can
// never race — the scan costs the sum of squared per-location access
// counts instead of the square of the trace length.
template <class Visit>
bool for_each_same_loc_pair(const Trace& t, const LocSet& locs, Visit visit) {
  std::vector<std::vector<std::size_t>> by_loc(locs.size());
  for (std::size_t i = 0; i < t.size(); ++i)
    if (touches_locset(t[i], locs))
      by_loc[static_cast<std::size_t>(t[i].loc)].push_back(i);
  for (const std::vector<std::size_t>& acc : by_loc)
    for (std::size_t x = 0; x < acc.size(); ++x)
      for (std::size_t y = x + 1; y < acc.size(); ++y)
        if (visit(acc[x], acc[y])) return true;
  return false;
}

}  // namespace

std::vector<Race> find_l_races(const Trace& t, const BitRel& hb, const LocSet& locs) {
  std::vector<Race> out;
  for_each_same_loc_pair(t, locs, [&](std::size_t b, std::size_t c) {
    if (is_l_race(t, hb, b, c, locs)) out.push_back({b, c});
    return false;
  });
  std::sort(out.begin(), out.end(), [](const Race& x, const Race& y) {
    return x.first != y.first ? x.first < y.first : x.second < y.second;
  });
  return out;
}

bool has_l_race(const Trace& t, const BitRel& hb, const LocSet& locs) {
  return for_each_same_loc_pair(t, locs, [&](std::size_t b, std::size_t c) {
    return is_l_race(t, hb, b, c, locs);
  });
}

std::vector<Race> find_l_races(AnalysisContext& ctx, const LocSet& locs) {
  return find_l_races(ctx.trace(), ctx.hb(), locs);
}

bool has_l_race(AnalysisContext& ctx, const LocSet& locs) {
  return has_l_race(ctx.trace(), ctx.hb(), locs);
}

bool has_mixed_race(AnalysisContext& ctx) {
  return has_mixed_race(ctx.trace(), ctx.hb());
}

bool has_mixed_race(const Trace& t, const BitRel& hb) {
  const LocSet everything = all_locs(t);
  return for_each_same_loc_pair(t, everything, [&](std::size_t b, std::size_t c) {
    if (!t[b].is_write() || !t[c].is_write()) return false;
    // one transactional write, one plain write
    const bool mixed = (t.transactional(b) && t.plain(c)) ||
                       (t.plain(b) && t.transactional(c));
    return mixed && is_l_race(t, hb, b, c, everything);
  });
}

}  // namespace mtx::model
