/// \file free_pack.hpp
/// \brief Delay-free wire packing — the paper's greedy_assign (Alg. 5, M'').
///
/// Packs a suffix of the bunch list into the lower layer-pairs bottom-up,
/// ignoring delay, accounting for via blockage from wires and repeaters on
/// higher pairs. Paper Lemma 1: bottom-up packing uses the minimum wiring
/// demand in upper pairs, so it is optimal — if it fails, no delay-free
/// assignment of the suffix exists. Our blockage term for a pair only
/// *shrinks* as more wires are packed below it (fewer wires remain above),
/// which preserves the exchange argument.
///
/// Bunches may split across pairs here: delay-free wires are independent,
/// so packing at wire granularity matches the paper's wire-at-a-time loop.
///
/// The per-pair constraint applies to every pair, including pairs the
/// packer leaves empty: the via shadow of wires and repeaters that stay
/// above a pair consumes its routing area whether or not a wire lands
/// there (DESIGN.md Section 6). When a pair's via shadow exceeds the
/// per-wire wiring area (shadow-dominant regime), moving a whole group of
/// wires down can be legal where moving one is not; the packer handles
/// both by taking full bunches in that regime and validating each pair's
/// final load as it closes.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/instance.hpp"
#include "src/core/rank_result.hpp"

namespace iarank::core {

/// Where the delay-met prefix left off and what it consumed.
struct FreePackInput {
  std::size_t first_pair = 0;   ///< topmost pair still accepting wires
  std::size_t first_bunch = 0;  ///< first (longest) unassigned bunch
  std::int64_t first_bunch_offset = 0;  ///< wires of that bunch already placed
  double area_used_first_pair = 0.0;    ///< wiring area already in first_pair
  double wires_above_first = 0.0;       ///< wires on pairs < first_pair
  double repeaters_above_first = 0.0;   ///< repeaters on pairs < first_pair
  double repeaters_total = 0.0;         ///< all repeaters (pairs <= first_pair)
};

/// Wires placed on one pair by the packer.
struct PairLoad {
  std::size_t pair = 0;
  std::int64_t wires = 0;
  double wire_area = 0.0;
};

/// Result: per-pair loads for pairs first_pair..m-1 (bottom pair last in
/// the vector's natural order — entries are emitted top-first), or nullopt
/// when the suffix does not fit (paper Definition 3 territory).
[[nodiscard]] std::optional<std::vector<PairLoad>> free_pack(
    const Instance& inst, const FreePackInput& input);

/// Convenience: feasibility only.
[[nodiscard]] bool free_pack_feasible(const Instance& inst,
                                      const FreePackInput& input);

/// Detailed variant: per (pair, bunch) placements of the packed suffix
/// (meeting_delay is 0 for all rows — this is the delay-free phase), or
/// nullopt when the suffix does not fit. free_pack() aggregates this.
[[nodiscard]] std::optional<std::vector<BunchPlacement>> free_pack_detailed(
    const Instance& inst, const FreePackInput& input);

}  // namespace iarank::core
