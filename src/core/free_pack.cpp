#include "src/core/free_pack.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/error.hpp"
#include "src/util/fault_injector.hpp"
#include "src/util/metrics.hpp"

namespace iarank::core {

namespace {

/// Relative slack for floating-point capacity comparisons.
constexpr double kAreaTol = 1e-9;

const util::FaultSite kSiteFreePack{"core.free_pack"};

// One "bunch take" is a (bunch, pair) placement decision — the packer's
// unit of work. Deterministic per call, hence across thread counts.
util::Counter& kFreePackCalls = util::MetricsRegistry::counter(
    "iarank_free_pack_calls_total", "free_pack invocations");
util::Counter& kFreePackTakes = util::MetricsRegistry::counter(
    "iarank_free_pack_bunch_takes_total",
    "(bunch, pair) takes performed by the packer");

}  // namespace

namespace {

/// The packing loop shared by the detailed and feasibility-only entry
/// points. `out == nullptr` skips placement recording entirely — the DP's
/// verify path calls this thousands of times per sweep and must stay off
/// the heap (DESIGN.md Section 10.6). The take counter is maintained
/// either way, so the free-pack metrics are identical on both paths.
bool pack_core(const Instance& inst, const FreePackInput& input,
               std::vector<BunchPlacement>* out) {
  util::maybe_inject(kSiteFreePack);
  kFreePackCalls.inc();
  const std::size_t m = inst.pair_count();
  const std::size_t n_bunches = inst.bunch_count();
  iarank::util::require(input.first_pair <= m,
                        "free_pack: first_pair out of range");
  iarank::util::require(input.first_bunch <= n_bunches,
                        "free_pack: first_bunch out of range");
  if (input.first_bunch < n_bunches) {
    iarank::util::require(
        input.first_bunch_offset >= 0 &&
            input.first_bunch_offset <= inst.bunch(input.first_bunch).count,
        "free_pack: first_bunch_offset out of range");
  }

  // Total wires still to place.
  std::int64_t to_place = inst.total_wires() -
                          inst.wires_before(input.first_bunch) -
                          (input.first_bunch < n_bunches
                               ? input.first_bunch_offset
                               : 0);
  if (input.first_pair >= m) {
    return to_place == 0;
  }

  const double die = inst.pair_capacity();
  const double tol = die * kAreaTol;
  const double total_wires = static_cast<double>(inst.total_wires());

  // Walk bunches from the shortest backward.
  std::size_t b = n_bunches;  // b-1 is the current bunch
  std::int64_t remaining_in_bunch = 0;
  auto advance_bunch = [&]() -> bool {
    while (remaining_in_bunch == 0) {
      if (b == input.first_bunch) return false;
      --b;
      remaining_in_bunch = inst.bunch(b).count;
      if (b == input.first_bunch) {
        remaining_in_bunch -= input.first_bunch_offset;
        if (remaining_in_bunch == 0) return false;
      }
    }
    return true;
  };

  std::int64_t takes = 0;   // (bunch, pair) placement rows decided
  std::int64_t packed = 0;  // free wires placed in pairs >= current pair

  for (std::size_t qi = m; qi-- > input.first_pair;) {
    const std::size_t q = qi;
    const bool fixed_blockage = (q == input.first_pair);
    const double initial_area =
        fixed_blockage ? input.area_used_first_pair : 0.0;
    double area = initial_area;

    while (advance_bunch()) {
      const Bunch& bunch = inst.bunch(b);
      const double per_wire = bunch.length * inst.pair(q).pitch;
      const std::int64_t avail = remaining_in_bunch;
      std::int64_t w = 0;

      if (fixed_blockage) {
        // Blockage here is fixed: only the prefix pairs sit above.
        const double blocked = inst.blockage(q, input.wires_above_first,
                                             input.repeaters_above_first);
        const double free_area = die + tol - blocked - area;
        if (per_wire <= 0.0) {
          w = free_area >= 0.0 ? avail : 0;
        } else {
          w = std::clamp<std::int64_t>(
              static_cast<std::int64_t>(std::floor(free_area / per_wire)), 0,
              avail);
        }
      } else {
        // Blockage shrinks as wires are packed at or below this pair:
        //   area + w*per_wire + blockage(q, T - packed - w, Z) <= A_d.
        const double va = inst.pair(q).via_area;
        const double vw = inst.vias().vias_per_wire;
        const double vr = inst.vias().vias_per_repeater;
        const double coef = per_wire - va * vw;
        if (coef <= 0.0) {
          // Shadow-dominant: each wire moved down to this pair frees at
          // least its own wiring area in via blockage, so the full take is
          // never worse — even if the pair is over-blocked right now, later
          // (longer) bunches keep relaxing it. Legality of the final load
          // is settled by the close-of-pair check below.
          w = avail;
        } else {
          const double fixed_block =
              va * (vr * input.repeaters_total +
                    vw * (total_wires - static_cast<double>(packed)));
          const double rhs = die + tol - area - fixed_block;
          w = std::clamp<std::int64_t>(
              static_cast<std::int64_t>(std::floor(rhs / coef)), 0, avail);
        }
      }

      if (w <= 0) break;  // pair q is full for this (and any longer) bunch
      area += static_cast<double>(w) * per_wire;
      packed += w;
      remaining_in_bunch -= w;
      to_place -= w;
      ++takes;
      if (out != nullptr) out->push_back({b, q, w, 0});
      if (w < avail) break;  // pair q filled mid-bunch
    }

    // Close of pair q: the per-pair constraint must hold for the final
    // load — including a pair left empty, whose routing area is still
    // consumed by the via shadow of everything that stays above it.
    const double wires_above =
        fixed_blockage ? input.wires_above_first
                       : total_wires - static_cast<double>(packed);
    const double reps_above = fixed_blockage ? input.repeaters_above_first
                                             : input.repeaters_total;
    if (area > die + tol - inst.blockage(q, wires_above, reps_above)) {
      kFreePackTakes.inc(takes);
      return false;
    }
  }

  kFreePackTakes.inc(takes);
  return to_place == 0;  // wires left over fail the topmost available pair
}

}  // namespace

std::optional<std::vector<BunchPlacement>> free_pack_detailed(
    const Instance& inst, const FreePackInput& input) {
  std::vector<BunchPlacement> placements;
  if (!pack_core(inst, input, &placements)) {
    return std::nullopt;
  }
  return placements;
}

std::optional<std::vector<PairLoad>> free_pack(const Instance& inst,
                                               const FreePackInput& input) {
  const auto detail = free_pack_detailed(inst, input);
  if (!detail) return std::nullopt;

  // Aggregate per pair, emitting top-pair-first.
  std::vector<PairLoad> loads;
  for (std::size_t q = input.first_pair; q < inst.pair_count(); ++q) {
    PairLoad load{q, 0, 0.0};
    for (const BunchPlacement& p : *detail) {
      if (p.pair != q) continue;
      load.wires += p.wires;
      load.wire_area += inst.wire_area(p.bunch, q, p.wires);
    }
    if (load.wires > 0) loads.push_back(load);
  }
  return loads;
}

bool free_pack_feasible(const Instance& inst, const FreePackInput& input) {
  return pack_core(inst, input, nullptr);
}

}  // namespace iarank::core
