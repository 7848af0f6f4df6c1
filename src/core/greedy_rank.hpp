/// \file greedy_rank.hpp
/// \brief Greedy top-down rank computation — the baseline the paper's
///        Figure 2 proves suboptimal.
///
/// Wires are taken longest-first and placed on the highest layer-pair with
/// room; repeaters are inserted per wire until its target is met, first
/// come first served against the budget. The first wire that cannot meet
/// its target (budget exhausted, no feasible repeatering, or nothing
/// proactively saved for cheaper pairs below) ends the delay-met prefix;
/// remaining wires are packed on for the Definition-3 feasibility check.
/// dp_rank() >= greedy_rank() when every bunch is one wire; strict on
/// Figure-2-like instances. Greedy splits bunches, so on bunched instances
/// it can beat the bunch-granular DP (see core/dp_rank.hpp).
///
/// Emits a full placement certificate (RankResult::placements), so greedy
/// results re-validate under core::verify_placements just like the DP's —
/// the differential self-check harness relies on this. If a pair it skips
/// (or a trailing pair below the packing) is over-blocked by via shadows
/// from above, no greedy completion is legal and the result degrades to
/// Definition 3 (all_assigned = false, rank 0); the DP may still find a
/// feasible assignment there.

#pragma once

#include "src/core/instance.hpp"
#include "src/core/rank_result.hpp"

namespace iarank::core {

/// Computes the greedy assignment's rank on the same Instance the DP uses.
[[nodiscard]] RankResult greedy_rank(const Instance& inst);

}  // namespace iarank::core
