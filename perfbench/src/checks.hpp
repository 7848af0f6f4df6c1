/// \file checks.hpp
/// \brief Correctness checks of the three workloads' outputs.
///
/// Every check compares against a computation made apart from the DP or
/// against a property the method must have; none compares against a
/// stored copy of earlier output. Each returns the list of violations
/// (empty when the output is correct), each naming what reproduces it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/instance.hpp"
#include "src/core/rank_result.hpp"

namespace perfbench {

struct Violation {
  std::int64_t index = -1;  ///< grid index / lattice key / corpus entry
  std::string what;
};

// --- explore_table4 ----------------------------------------------------------

/// The Table 4 axes of an explore grid (node, Rent exponent and target
/// model fixed), in grid order: K slowest, then M, C, and R fastest.
struct ExploreGrid {
  std::vector<double> k, m, c, r;
  [[nodiscard]] std::int64_t size() const {
    return static_cast<std::int64_t>(k.size() * m.size() * c.size() * r.size());
  }
  [[nodiscard]] std::int64_t index(std::size_t ki, std::size_t mi,
                                   std::size_t ci, std::size_t ri) const {
    return static_cast<std::int64_t>(((ki * m.size() + mi) * c.size() + ci) *
                                         r.size() +
                                     ri);
  }
};

/// One row of points.csv.
struct ExploreRow {
  std::int64_t index = -1;
  double k = 0.0, m = 0.0, c = 0.0, r = 0.0;
  std::string status;
  std::int64_t rank = -1;
  std::int64_t total_wires = -1;
};

/// Parses points.csv (header + rows). Malformed rows become violations.
[[nodiscard]] std::vector<ExploreRow> parse_points_csv(
    const std::string& text, std::vector<Violation>& violations);

/// Every grid index exactly once with status ok and its own K/M/C/R;
/// rank <= total_wires; rank non-increasing along every K, M and C line
/// (higher permittivity, coupling or clock cannot let more wires meet
/// target); rank not constant along any of those axes.
[[nodiscard]] std::vector<Violation> check_explore(
    const ExploreGrid& grid, const std::vector<ExploreRow>& rows);

// --- service_warm ------------------------------------------------------------

/// The K x M lattice of override sets, K descending (3.9 first), M
/// descending (2.0 first). Key index = ki * m.size() + mi.
struct Lattice {
  std::vector<double> k, m;
  [[nodiscard]] std::size_t size() const { return k.size() * m.size(); }
};

/// Checks the first response of every lattice key: ok, rank within
/// [0, total_wires], non-increasing along K and along M, and the corners
/// (3.9, 2.0) and (1.8, 1.0) differ.
[[nodiscard]] std::vector<Violation> check_lattice(
    const Lattice& lattice, const std::vector<std::string>& first_responses);

/// A later response for `key` must be byte-identical to the first one.
[[nodiscard]] bool same_response(const std::string& first,
                                 const std::string& later);

// --- dp_hard -----------------------------------------------------------------

/// Upper bound on the rank from the instance alone: the longest wire
/// prefix whose cheapest feasible repeater area (each wire on its
/// cheapest delay-feasible pair, capacity ignored) fits the budget.
[[nodiscard]] std::int64_t rank_upper_bound(const iarank::core::Instance& inst);

/// Checks one DP answer: its placement certificate passes
/// verify_placements; greedy_rank <= rank (when `greedy_rank` >= 0: a
/// contract only on wire-granular instances); rank <= `upper_bound`; and
/// rank equals `oracle_rank` when one is given (>= 0).
[[nodiscard]] std::vector<Violation> check_dp_answer(
    const iarank::core::Instance& inst, const iarank::core::RankResult& result,
    std::int64_t greedy_rank, std::int64_t upper_bound,
    std::int64_t oracle_rank);

/// A repeated solve must reproduce the first answer exactly.
[[nodiscard]] bool same_answer(const iarank::core::RankResult& first,
                               const iarank::core::RankResult& later);

}  // namespace perfbench
