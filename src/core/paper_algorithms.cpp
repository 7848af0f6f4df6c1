#include "src/core/paper_algorithms.hpp"

#include "src/util/error.hpp"

namespace iarank::core {

WireAssignResult paper_wire_assign(const Instance& inst, std::size_t i1_prime,
                                   std::size_t i2_prime, std::size_t i_total,
                                   std::size_t j, double r3, double z_r1) {
  iarank::util::require(j < inst.pair_count(),
                        "paper_wire_assign: pair out of range");
  iarank::util::require(i1_prime + i2_prime <= i_total &&
                            i_total <= inst.bunch_count(),
                        "paper_wire_assign: inconsistent wire counts");
  WireAssignResult out;

  // Step 1: B_j = A_d - A_{v,j-1} - A_{u,j-1}.
  const double a_v = inst.vias().vias_per_wire *
                     static_cast<double>(inst.wires_before(i1_prime)) *
                     inst.pair(j).via_area;
  const double a_u = inst.vias().vias_per_repeater * z_r1 *
                     inst.pair(j).via_area;
  double b_j = inst.pair_capacity() - a_v - a_u;
  const double tol = inst.pair_capacity() * 1e-9;

  // Steps 2-12: assign wires i1'+1 .. i1'+i2' with repeater insertion.
  double repeater_area = 0.0;
  for (std::size_t p = i1_prime; p < i1_prime + i2_prime; ++p) {
    const Bunch& bunch = inst.bunch(p);
    // Step 4: wire_area = l_p * (W_j + S_j), per wire of the bunch.
    const double wire_area = inst.wire_area(p, j, bunch.count);
    // Step 5: area check.
    if (wire_area > b_j + tol) return out;  // return(0)
    // Steps 6-7: assign wire p; B_j -= wire_area.
    b_j -= wire_area;
    out.wire_area += wire_area;

    // Steps 8-11: incremental insertion until D_p <= d_p or the repeater
    // area r3 is exhausted. The precomputed plan encodes the fixed point
    // of the "compute D_p; add one repeater" loop: the target is reached
    // exactly when stages == plan.stages (never, if !plan.feasible).
    const DelayPlan plan = inst.plan(p, j);
    const double per_repeater = inst.pair(j).repeater_area;
    // "repeaters cannot be placed at appropriate intervals": for a wire
    // whose plan is infeasible the loop would never satisfy D <= d; the
    // spacing rule (emulated by a stage cap) terminates it.
    constexpr std::int64_t kEtaCap = 4096;
    for (std::int64_t w = 0; w < bunch.count; ++w) {
      const std::int64_t needed = plan.feasible ? plan.stages : kEtaCap;
      for (std::int64_t eta = 1; eta < needed; ++eta) {
        if (repeater_area + per_repeater > r3 + r3 * 1e-9 + 1e-30) {
          return out;  // step 11: repeater area exhausted -> return(0)
        }
        repeater_area += per_repeater;
        ++out.repeaters;
      }
      if (!plan.feasible) return out;  // target never reached
    }
  }
  out.repeater_area = repeater_area;  // the paper's r_2

  // Step 13: the remaining i - i1' - i2' wires go on this pair ignoring
  // delay; only the area matters.
  for (std::size_t p = i1_prime + i2_prime; p < i_total; ++p) {
    const double wire_area = inst.wire_area(p, j, inst.bunch(p).count);
    if (wire_area > b_j + tol) return out;
    b_j -= wire_area;
    out.wire_area += wire_area;
  }

  out.feasible = true;  // step 14: return(1)
  return out;
}

bool paper_greedy_assign(const Instance& inst, std::size_t i,
                         std::size_t j_plus_1, double z_total) {
  iarank::util::require(i <= inst.bunch_count(),
                        "paper_greedy_assign: bunch index out of range");
  const std::size_t m = inst.pair_count();
  if (i == inst.bunch_count()) return true;  // nothing to assign
  if (j_plus_1 >= m) return false;

  const double tol = inst.pair_capacity() * 1e-9;
  const double wires_above = static_cast<double>(inst.wires_before(i));

  // Steps 3-4: start at the bottommost pair with the smallest wire.
  std::size_t q = m;          // 1-based from the top, so q == m is bottom
  std::size_t p = inst.bunch_count();  // p-1 is the current (smallest) bunch
  std::int64_t assigned_free = 0;      // the paper's (p - i) via term

  // Step 5: while (q > j+1) — pairs j_plus_1..m-1 in 0-based terms.
  while (q > j_plus_1) {
    const std::size_t pair = q - 1;
    // Steps 1-2: B_q = A_d - ((z_r1 + z_r2) + v * i) * v_a.
    const double b_q =
        inst.pair_capacity() -
        (inst.vias().vias_per_repeater * z_total +
         inst.vias().vias_per_wire * wires_above) *
            inst.pair(pair).via_area;

    // Steps 7-14: pack bunches while A_{w,q} + A_{v,q} <= B_q. The paper
    // charges the free wires assigned so far ((p - i) * v * v_a) against
    // the current pair — a conservative accounting kept verbatim here.
    double a_w = 0.0;
    while (p > i) {
      const std::size_t bunch = p - 1;
      const double wire_area =
          inst.wire_area(bunch, pair, inst.bunch(bunch).count);
      const double a_v =
          inst.vias().vias_per_wire *
          static_cast<double>(assigned_free + inst.bunch(bunch).count) *
          inst.pair(pair).via_area;
      if (a_w + wire_area + a_v > b_q + tol) break;
      a_w += wire_area;  // steps 10-12
      assigned_free += inst.bunch(bunch).count;
      --p;
      if (p == i) return true;  // step 14
    }
    --q;  // step 15
  }
  return false;  // step 16
}

}  // namespace iarank::core
