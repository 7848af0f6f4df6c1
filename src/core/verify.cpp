#include "src/core/verify.hpp"

#include <sstream>
#include <vector>

namespace iarank::core {

namespace {

VerifyOutcome fail(const std::string& reason) { return {false, reason}; }

}  // namespace

VerifyOutcome verify_placements(const Instance& inst,
                                const RankResult& result) {
  if (!result.all_assigned) {
    // A Definition-3 result carries no certificate; rank must be 0.
    if (result.rank != 0) return fail("infeasible result with nonzero rank");
    return {true, ""};
  }
  if (result.placements.empty()) {
    return fail("no placement certificate (trace not built?)");
  }

  const std::size_t n = inst.bunch_count();
  const std::size_t m = inst.pair_count();
  const double tol = inst.pair_capacity() * 1e-6;

  std::vector<std::int64_t> placed(n, 0);
  std::vector<std::int64_t> meeting(n, 0);
  std::vector<std::size_t> min_pair(n, m);
  std::vector<std::size_t> max_pair(n, 0);
  std::vector<double> pair_wire_area(m, 0.0);
  std::vector<double> pair_wires(m, 0.0);
  std::vector<double> pair_repeaters(m, 0.0);
  double rep_area = 0.0;
  std::int64_t rep_count = 0;

  for (const BunchPlacement& p : result.placements) {
    if (p.bunch >= n || p.pair >= m) return fail("placement out of range");
    if (p.wires <= 0 || p.meeting_delay < 0 || p.meeting_delay > p.wires) {
      return fail("malformed placement row");
    }
    placed[p.bunch] += p.wires;
    meeting[p.bunch] += p.meeting_delay;
    min_pair[p.bunch] = std::min(min_pair[p.bunch], p.pair);
    max_pair[p.bunch] = std::max(max_pair[p.bunch], p.pair);
    pair_wire_area[p.pair] += inst.wire_area(p.bunch, p.pair, p.wires);
    pair_wires[p.pair] += static_cast<double>(p.wires);

    if (p.meeting_delay > 0) {
      const DelayPlan plan = inst.plan(p.bunch, p.pair);
      if (!plan.feasible) {
        return fail("delay-met wires on a pair with no feasible plan");
      }
      rep_area += static_cast<double>(p.meeting_delay) * plan.area_per_wire;
      rep_count += p.meeting_delay * plan.repeaters_per_wire();
      pair_repeaters[p.pair] +=
          static_cast<double>(p.meeting_delay * plan.repeaters_per_wire());
    }
  }

  // Every wire placed exactly once.
  for (std::size_t b = 0; b < n; ++b) {
    if (placed[b] != inst.bunch(b).count) {
      std::ostringstream os;
      os << "bunch " << b << " places " << placed[b] << " of "
         << inst.bunch(b).count << " wires";
      return fail(os.str());
    }
  }

  // Order constraint: a longer bunch may not sit strictly below a
  // shorter one (ties in length are interchangeable).
  for (std::size_t b = 0; b + 1 < n; ++b) {
    if (inst.bunch(b).length > inst.bunch(b + 1).length &&
        max_pair[b] > min_pair[b + 1]) {
      std::ostringstream os;
      os << "order violation: bunch " << b << " below bunch " << b + 1;
      return fail(os.str());
    }
  }

  // Prefix property: delay-met wires are exactly the `rank` longest.
  std::int64_t total_meeting = 0;
  bool broken = false;
  for (std::size_t b = 0; b < n; ++b) {
    total_meeting += meeting[b];
    if (broken && meeting[b] > 0) {
      return fail("delay-met wires after the prefix boundary");
    }
    if (meeting[b] < placed[b]) broken = true;
  }
  if (total_meeting != result.rank) {
    std::ostringstream os;
    os << "certificate meets " << total_meeting << " wires, result claims "
       << result.rank;
    return fail(os.str());
  }

  // Repeater budget and bookkeeping.
  if (rep_area > inst.repeater_budget() * (1.0 + 1e-6) + 1e-18) {
    return fail("repeater area exceeds the budget");
  }
  if (rep_count != result.repeater_count) {
    return fail("repeater count mismatch vs result");
  }

  // Per-pair capacity with via blockage from above.
  double wires_above = 0.0;
  double reps_above = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    const double capacity =
        inst.pair_capacity() - inst.blockage(j, wires_above, reps_above);
    if (pair_wire_area[j] > capacity + tol) {
      std::ostringstream os;
      os << "pair " << j << " over capacity: " << pair_wire_area[j] << " > "
         << capacity;
      return fail(os.str());
    }
    wires_above += pair_wires[j];
    reps_above += pair_repeaters[j];
  }

  return {true, ""};
}

}  // namespace iarank::core
