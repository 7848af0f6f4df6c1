#include "src/core/greedy_rank.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/metrics.hpp"
#include "src/util/trace.hpp"

namespace iarank::core {

namespace {

util::Counter& kGreedyRuns = util::MetricsRegistry::counter(
    "iarank_greedy_runs_total", "greedy_rank invocations");

}  // namespace

RankResult greedy_rank(const Instance& inst) {
  TRACE_SPAN("greedy_rank");
  kGreedyRuns.inc();
  const std::size_t m = inst.pair_count();

  RankResult res;
  res.total_wires = inst.total_wires();
  res.usage.resize(m);
  for (std::size_t j = 0; j < m; ++j) res.usage[j].pair_name = inst.pair(j).name;

  std::size_t j = 0;
  double area_used = 0.0;
  double wires_above = 0.0;     // wires on pairs < j
  double reps_above = 0.0;      // repeaters on pairs < j
  std::int64_t placed_in_pair = 0;
  std::int64_t reps_in_pair = 0;
  double budget_left = inst.repeater_budget();
  bool prefix_intact = true;
  std::int64_t rank = 0;
  bool overflow = false;

  res.usage[0].via_blockage = inst.blockage(0, 0.0, 0.0);

  for (std::size_t b = 0; b < inst.bunch_count() && !overflow; ++b) {
    const Bunch& bunch = inst.bunch(b);
    std::int64_t remaining = bunch.count;
    while (remaining > 0) {
      if (j >= m) {
        overflow = true;
        break;
      }
      const std::int64_t offset = bunch.count - remaining;
      const std::int64_t fit =
          inst.max_fit(b, j, offset, area_used, wires_above, reps_above);
      if (fit <= 0) {
        // Advance to the next pair down. A pair left behind must be legal
        // as it stands: if the via shadow from above already overruns its
        // capacity (possible when it was skipped outright), nothing placed
        // below can repair it — the greedy gives up (Definition 3).
        if (area_used + inst.blockage(j, wires_above, reps_above) >
            inst.pair_capacity() * (1.0 + 1e-9)) {
          overflow = true;
          break;
        }
        wires_above += static_cast<double>(placed_in_pair);
        reps_above += static_cast<double>(reps_in_pair);
        ++j;
        area_used = 0.0;
        placed_in_pair = 0;
        reps_in_pair = 0;
        if (j < m) {
          res.usage[j].via_blockage = inst.blockage(j, wires_above, reps_above);
        }
        continue;
      }
      const std::int64_t take = std::min(fit, remaining);

      std::int64_t met = 0;
      if (prefix_intact) {
        const DelayPlan plan = inst.plan(b, j);
        if (!plan.feasible) {
          prefix_intact = false;
        } else {
          std::int64_t affordable = take;
          if (plan.area_per_wire > 0.0) {
            affordable = static_cast<std::int64_t>(
                std::floor((budget_left + 1e-30) / plan.area_per_wire));
          }
          met = std::clamp<std::int64_t>(affordable, 0, take);
          budget_left -= static_cast<double>(met) * plan.area_per_wire;
          reps_in_pair += met * plan.repeaters_per_wire();
          rank += met;
          res.usage[j].wires_meeting_delay += met;
          res.usage[j].repeaters += met * plan.repeaters_per_wire();
          res.usage[j].repeater_area +=
              static_cast<double>(met) * plan.area_per_wire;
          res.repeater_count += met * plan.repeaters_per_wire();
          res.repeater_area_used +=
              static_cast<double>(met) * plan.area_per_wire;
          if (met < take) prefix_intact = false;
        }
      }

      const double added = inst.wire_area(b, j, take);
      area_used += added;
      placed_in_pair += take;
      remaining -= take;
      res.usage[j].wires_total += take;
      res.usage[j].wire_area += added;
      res.placements.push_back({b, j, take, met});
    }
  }

  // Trailing pairs below the last one used carry the via shadow of every
  // wire and repeater placed; the per-pair constraint binds there too,
  // even though they end up empty (the certificate checker enforces it).
  if (!overflow) {
    const double wa = wires_above + static_cast<double>(placed_in_pair);
    const double ra = reps_above + static_cast<double>(reps_in_pair);
    for (std::size_t q = j + 1; q < m; ++q) {
      res.usage[q].via_blockage = inst.blockage(q, wa, ra);
      if (res.usage[q].via_blockage > inst.pair_capacity() * (1.0 + 1e-9)) {
        overflow = true;
      }
    }
  }

  res.all_assigned = !overflow;
  res.rank = overflow ? 0 : rank;  // Definition 3
  res.normalized = res.total_wires > 0
                       ? static_cast<double>(res.rank) /
                             static_cast<double>(res.total_wires)
                       : 0.0;
  return res;
}

}  // namespace iarank::core
