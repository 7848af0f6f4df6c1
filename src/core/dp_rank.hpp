/// \file dp_rank.hpp
/// \brief Exact rank computation by dynamic programming.
///
/// Semantically equivalent to the paper's Algorithms 1-3 / Equation 1, but
/// reformulated for exactness and speed (DESIGN.md Section 3.2):
///
///  * A feasible embedding is a partition of the (longest-first) bunch list
///    into contiguous chunks, one per layer-pair top-down, with a prefix of
///    delay-met bunches. The DP state after filling pairs 0..j-1 with
///    bunches 0..b-1 (all meeting delay) is the Pareto frontier of
///    (repeater area used, repeater count used) — repeater area is budget,
///    repeater count drives via blockage below. No discretization of
///    repeater area is needed: for a given assignment the paper's
///    "incremental insertion until the target is met" fixes the repeater
///    area exactly (delay::WireDelayModel::stages_to_meet).
///
///  * Once the prefix breaks, the rest is delay-free packing, which
///    bottom-up greedy solves optimally (paper Lemma 1; core/free_pack).
///
///  * Break candidates are verified best-first (highest rank first), so
///    the expensive suffix-packing check runs only a handful of times on
///    typical instances.
///
/// The result is the exact optimum at bunch granularity — the paper's own
/// granularity (Section 5.1), where every bunch sits whole on one
/// layer-pair. It is not within one bunch of the wire-granular optimum:
/// splitting bunches across pairs can use capacity and repeater area that
/// whole bunches leave stranded on every pair, so the gap can span several
/// bunches (on a tight-capacity 8-pair instance of 500 bunches of at most
/// 20 wires, this DP gives 59 and the wire-granular greedy_rank 135). The
/// optional boundary refinement extends the prefix into the first failing
/// bunch wire-by-wire when the leftover budget allows.

#pragma once

#include <memory>

#include "src/core/instance.hpp"
#include "src/core/rank_result.hpp"

namespace iarank::core {

/// Engine knobs.
struct DpOptions {
  bool build_trace = true;       ///< reconstruct per-pair usage
  bool refine_boundary = true;   ///< wire-level extension into failing bunch

  /// Validate the sorted-frontier invariant (r strictly ascending, z
  /// strictly descending) after every bucket the forward sweep line
  /// materializes. Test-only: O(frontier) per bucket.
  bool check_invariants = false;
};

/// Reusable DP kernel (the data-oriented v2 engine). One kernel owns a
/// monotonic pool backing every per-solve structure — arena lanes,
/// frontier lanes, wake lists, the search heap — which is reset (not
/// freed) between solves, so a kernel reused across sweep points performs
/// zero steady-state heap allocation (DESIGN.md Section 10.6). Results
/// are bitwise-identical to the retained scalar reference path
/// (dp_rank_reference) and independent of whether a kernel is fresh or
/// reused. Not thread-safe: use one kernel per thread (the free dp_rank()
/// wrapper keeps one per thread automatically).
class DpKernel {
 public:
  DpKernel();
  ~DpKernel();
  DpKernel(DpKernel&&) noexcept;
  DpKernel& operator=(DpKernel&&) noexcept;
  DpKernel(const DpKernel&) = delete;
  DpKernel& operator=(const DpKernel&) = delete;

  [[nodiscard]] RankResult solve(const Instance& inst,
                                 const DpOptions& options = {});

  /// Like solve(), but reuses `out`'s existing buffer capacities (usage,
  /// placements, witness) instead of returning a fresh result — the
  /// zero-allocation variant for hot sweep loops.
  void solve_into(const Instance& inst, const DpOptions& options,
                  RankResult& out);

  /// Pool accounting of this kernel (mirrored into the iarank_pool_* /
  /// iarank_dp_arena_bytes metrics after every solve).
  struct PoolStats {
    std::int64_t arena_bytes = 0;      ///< pool bytes drawn by the last solve
    std::int64_t high_water_bytes = 0; ///< lifetime max of arena_bytes
    std::int64_t chunks_allocated = 0; ///< pool chunks ever heap-allocated
  };
  [[nodiscard]] PoolStats pool_stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Computes r(alpha) for the instance. Never throws on well-formed
/// instances; infeasible assignment (Definition 3) yields rank 0 with
/// all_assigned = false. Solves on a thread-local DpKernel, so repeated
/// calls from the same thread (every sweep/optimizer/server worker)
/// reuse the kernel's pool automatically.
[[nodiscard]] RankResult dp_rank(const Instance& inst,
                                 const DpOptions& options = {});

/// dp_rank() with caller-owned result storage (thread-local kernel +
/// solve_into): the per-point form the sweep engine uses to keep its
/// steady state allocation-free.
void dp_rank_into(const Instance& inst, const DpOptions& options,
                  RankResult& out);

/// The retained scalar reference path: the pre-v2 nested-vector solver,
/// kept verbatim (dp_rank_reference.cpp) as the oracle the data-oriented
/// kernel is pinned against bitwise — including the deterministic effort
/// counters. Test-only by intent; publishes no metrics.
[[nodiscard]] RankResult dp_rank_reference(const Instance& inst,
                                           const DpOptions& options = {});

}  // namespace iarank::core
