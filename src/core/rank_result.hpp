/// \file rank_result.hpp
/// \brief Result of a rank computation, with an optional assignment trace.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/small_vec.hpp"

namespace iarank::core {

/// Per-layer-pair utilization in the winning assignment (the textual
/// equivalent of the paper's Figure 1).
struct PairUsage {
  std::string pair_name;
  std::int64_t wires_meeting_delay = 0;  ///< delay-met wires on this pair
  std::int64_t wires_total = 0;          ///< all wires on this pair
  double wire_area = 0.0;                ///< wiring area consumed [m^2]
  double via_blockage = 0.0;             ///< blockage charged [m^2]
  std::int64_t repeaters = 0;            ///< repeaters driving this pair's wires
  double repeater_area = 0.0;            ///< their silicon area [m^2]
};

/// One row of the assignment certificate: `wires` wires of bunch `bunch`
/// placed on layer-pair `pair`, `meeting_delay` of them buffered to meet
/// their target. A bunch may appear in several rows (splitting).
struct BunchPlacement {
  std::size_t bunch = 0;
  std::size_t pair = 0;
  std::int64_t wires = 0;
  std::int64_t meeting_delay = 0;
};

/// Compact description of the winning break candidate of a DP solve: the
/// prefix partition (first bunch of each pair's delay-met chunk), the
/// break pair and its chunk, and the boundary-refinement wire count.
struct DpWitness {
  /// size break_pair + 1; [j] = first bunch of pair j's chunk. Inline up
  /// to 24 pairs: paper-scale stacks fit the buffer, keeping the witness
  /// of every result (and its copies) off the heap (the steady-state
  /// zero-allocation contract).
  util::SmallVec<std::int64_t, 24> chunk_first;
  std::int64_t break_pair = -1;  ///< pair whose chunk ends the prefix
  std::int64_t first_bunch = 0;  ///< == chunk_first[break_pair]
  std::int64_t chunk_len = 0;    ///< delay-met bunches on the break pair
  std::int64_t w_extra = 0;      ///< refined wires of the first failing bunch
};

/// Outcome of one rank evaluation.
struct RankResult {
  /// r(alpha): number of longest wires meeting their target delay in the
  /// best feasible assignment; 0 when the WLD cannot be assigned at all
  /// (paper Definition 3).
  std::int64_t rank = 0;

  /// rank / total wires (the paper's Table 4 reports this).
  double normalized = 0.0;

  /// False iff even delay-free assignment is infeasible (Definition 3).
  bool all_assigned = false;

  /// Bunches fully inside the delay-met prefix (coarsening granularity).
  std::int64_t prefix_bunches = 0;

  /// Wires added to the prefix by the boundary-refinement extension.
  std::int64_t refined_wires = 0;

  std::int64_t repeater_count = 0;     ///< repeaters used by the prefix
  double repeater_area_used = 0.0;     ///< [m^2], <= budget
  std::int64_t total_wires = 0;        ///< WLD size

  /// DP observability, filled by dp_rank: wall time, state-space size and
  /// search effort. Zero for other engines. Timing fields vary run to run;
  /// the count fields are deterministic and comparable across hosts.
  struct DpStats {
    double seconds = 0.0;          ///< wall time inside dp_rank
    double forward_seconds = 0.0;  ///< of which: the forward pass
    std::int64_t arena_nodes = 0;  ///< state elements created
    std::int64_t max_frontier = 0; ///< largest per-(pair,bunch) frontier
    std::int64_t heap_pops = 0;    ///< best-first candidates examined
    std::int64_t verify_calls = 0; ///< free-pack verifications run
    /// Always 0: the DP prunes no heap push. Kept only because the
    /// perfbench ledger (perfbench/src/{ledger,workloads}.cpp) reads it.
    std::int64_t pruned_entries = 0;
    std::int64_t frontier_dominated = 0;  ///< newcomers dropped as dominated
    std::int64_t frontier_erased = 0;     ///< incumbents erased by newcomers
    /// Bytes the solve drew from the kernel's monotonic pool (arena lanes,
    /// frontiers, wake lists, heap storage). Deterministic per instance;
    /// 0 for the scalar reference path, which allocates from the heap.
    std::int64_t arena_bytes = 0;
  };
  DpStats dp;

  /// Winning break candidate, filled by dp_rank whenever all_assigned —
  /// independent of build_trace.
  DpWitness witness;

  /// Per-pair trace of the winning assignment (top pair first). Filled by
  /// engines when trace reconstruction is requested.
  std::vector<PairUsage> usage;

  /// Full assignment certificate (bunch-by-bunch placements, bunch order).
  /// Filled by dp_rank when the trace is built; core::verify_placements
  /// re-checks it against the instance from first principles.
  std::vector<BunchPlacement> placements;
};

}  // namespace iarank::core
