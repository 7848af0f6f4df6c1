/// Property tests of the DP kernel hot path (PR: DP-kernel overhaul):
///
///  * the prefix-cost tables agree with sequential accumulation on every
///    (pair, bunch-range) of sampled scenarios;
///  * max_feasible_chunk (binary search over the prefixes) matches a
///    linear scan for arbitrary limits;
///  * the sorted-frontier invariant holds after every bucket the forward
///    sweep line materializes (DpOptions::check_invariants throws on
///    violation);
///  * the data-oriented v2 kernel is pinned bitwise against the retained
///    scalar reference path (dp_rank_reference) — rank, certificate,
///    placements, witness and the deterministic effort counters — over a
///    200-seed scenario block and the option variants;
///  * one DpKernel reused across every scenario produces results identical
///    to a fresh kernel per solve, and solve_into into dirty storage
///    equals solve into fresh storage.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/dp_rank.hpp"
#include "src/core/instance.hpp"
#include "src/core/selfcheck.hpp"

namespace core = iarank::core;

namespace {

constexpr std::uint64_t kSeeds = 200;

/// Bitwise equality of two rank results, certificate and witness included.
void expect_identical(const core::RankResult& a, const core::RankResult& b) {
  EXPECT_EQ(a.rank, b.rank);
  EXPECT_EQ(a.normalized, b.normalized);  // exact, not NEAR
  EXPECT_EQ(a.all_assigned, b.all_assigned);
  EXPECT_EQ(a.prefix_bunches, b.prefix_bunches);
  EXPECT_EQ(a.refined_wires, b.refined_wires);
  EXPECT_EQ(a.repeater_count, b.repeater_count);
  EXPECT_EQ(a.repeater_area_used, b.repeater_area_used);
  EXPECT_EQ(a.witness.break_pair, b.witness.break_pair);
  EXPECT_EQ(a.witness.first_bunch, b.witness.first_bunch);
  EXPECT_EQ(a.witness.chunk_len, b.witness.chunk_len);
  EXPECT_EQ(a.witness.w_extra, b.witness.w_extra);
  EXPECT_EQ(a.witness.chunk_first, b.witness.chunk_first);
  ASSERT_EQ(a.placements.size(), b.placements.size());
  for (std::size_t p = 0; p < a.placements.size(); ++p) {
    EXPECT_EQ(a.placements[p].bunch, b.placements[p].bunch);
    EXPECT_EQ(a.placements[p].pair, b.placements[p].pair);
    EXPECT_EQ(a.placements[p].wires, b.placements[p].wires);
    EXPECT_EQ(a.placements[p].meeting_delay, b.placements[p].meeting_delay);
  }
}

/// expect_identical plus the usage trace and every deterministic DpStats
/// counter. Timings are excluded, and so is arena_bytes: the scalar
/// reference path allocates from the heap and reports 0 there.
void expect_identical_with_stats(const core::RankResult& a,
                                 const core::RankResult& b) {
  expect_identical(a, b);
  ASSERT_EQ(a.usage.size(), b.usage.size());
  for (std::size_t j = 0; j < a.usage.size(); ++j) {
    EXPECT_EQ(a.usage[j].pair_name, b.usage[j].pair_name);
    EXPECT_EQ(a.usage[j].wires_meeting_delay, b.usage[j].wires_meeting_delay);
    EXPECT_EQ(a.usage[j].wires_total, b.usage[j].wires_total);
    EXPECT_EQ(a.usage[j].wire_area, b.usage[j].wire_area);
    EXPECT_EQ(a.usage[j].via_blockage, b.usage[j].via_blockage);
    EXPECT_EQ(a.usage[j].repeaters, b.usage[j].repeaters);
    EXPECT_EQ(a.usage[j].repeater_area, b.usage[j].repeater_area);
  }
  EXPECT_EQ(a.dp.arena_nodes, b.dp.arena_nodes);
  EXPECT_EQ(a.dp.max_frontier, b.dp.max_frontier);
  EXPECT_EQ(a.dp.heap_pops, b.dp.heap_pops);
  EXPECT_EQ(a.dp.verify_calls, b.dp.verify_calls);
  EXPECT_EQ(a.dp.pruned_entries, b.dp.pruned_entries);
  EXPECT_EQ(a.dp.frontier_dominated, b.dp.frontier_dominated);
  EXPECT_EQ(a.dp.frontier_erased, b.dp.frontier_erased);
}

}  // namespace

// --- prefix-cost tables --------------------------------------------------------

TEST(DpKernelPrefixTables, MatchSequentialAccumulation) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const core::Instance inst = core::sample_scenario(seed).instance();
    const std::size_t n = inst.bunch_count();
    for (std::size_t j = 0; j < inst.pair_count(); ++j) {
      for (std::size_t b = 0; b < n; ++b) {
        double wire = 0.0;
        double rep = 0.0;
        std::int64_t count = 0;
        bool feasible_so_far = true;
        for (std::size_t e = b; e < n; ++e) {
          const core::DelayPlan& plan = inst.plan(e, j);
          const std::int64_t wires = inst.bunch(e).count;
          wire += inst.wire_area(e, j, wires);
          if (plan.feasible) {
            rep += static_cast<double>(wires) * plan.area_per_wire;
            count += wires * plan.repeaters_per_wire();
          } else {
            feasible_so_far = false;
          }
          const std::size_t c = e - b + 1;
          // Plan feasibility of the whole range is one table lookup.
          EXPECT_EQ(inst.first_infeasible(j, b) >= b + c, feasible_so_far)
              << "seed " << seed << " j=" << j << " [" << b << "," << b + c
              << ")";
          const core::Instance::ChunkTotals t = inst.chunk_totals(j, b, c);
          const double tol = 1e-9 * (1.0 + wire + rep);
          EXPECT_NEAR(t.wire_area, wire, tol) << "seed " << seed;
          EXPECT_NEAR(t.rep_area, rep, tol) << "seed " << seed;
          EXPECT_EQ(t.rep_count, count) << "seed " << seed;  // integral: exact
        }
      }
    }
  }
}

TEST(DpKernelPrefixTables, MaxFeasibleChunkMatchesLinearScan) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const core::Instance inst = core::sample_scenario(seed).instance();
    const std::size_t n = inst.bunch_count();
    // A limit grid bracketing the interesting region, degenerate values
    // included.
    const double wire_limits[] = {-1.0, 0.0, inst.pair_capacity() * 0.3,
                                  inst.pair_capacity(), 1e30};
    const double rep_limits[] = {-1.0, 0.0, inst.repeater_budget() * 0.5,
                                 inst.repeater_budget(), 1e30};
    for (std::size_t j = 0; j < inst.pair_count(); ++j) {
      for (std::size_t b = 0; b < n; ++b) {
        for (const double wl : wire_limits) {
          for (const double rl : rep_limits) {
            std::int64_t expect = 0;
            while (b + static_cast<std::size_t>(expect) < n) {
              const auto c = static_cast<std::size_t>(expect) + 1;
              if (inst.first_infeasible(j, b) < b + c) break;
              const core::Instance::ChunkTotals t = inst.chunk_totals(j, b, c);
              if (t.wire_area > wl || t.rep_area > rl) break;
              ++expect;
            }
            EXPECT_EQ(inst.max_feasible_chunk(j, b, wl, rl), expect)
                << "seed " << seed << " j=" << j << " b=" << b << " wl=" << wl
                << " rl=" << rl;
          }
        }
      }
    }
  }
}

// --- frontier invariant --------------------------------------------------------

TEST(DpKernelFrontier, SortInvariantHoldsOnEveryMaterializedBucket) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const core::Instance inst = core::sample_scenario(seed).instance();
    core::DpOptions checked;
    checked.check_invariants = true;  // util::require throws on violation
    core::RankResult a;
    ASSERT_NO_THROW(a = core::dp_rank(inst, checked)) << "seed " << seed;
    const core::RankResult b = core::dp_rank(inst, {});
    expect_identical(a, b);
  }
}

// --- v2 kernel vs the retained scalar reference --------------------------------

TEST(DpKernelReference, BitwiseEqualAcrossSeedBlock) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const core::Instance inst = core::sample_scenario(seed).instance();
    expect_identical_with_stats(core::dp_rank(inst, {}),
                                core::dp_rank_reference(inst, {}));
  }
}

TEST(DpKernelReference, BitwiseEqualUnderOptionVariants) {
  // Exercise the option axes that change which kernel paths run: trace
  // reconstruction off and boundary refinement off.
  for (std::uint64_t seed = 0; seed < kSeeds; seed += 4) {
    const core::Instance inst = core::sample_scenario(seed).instance();

    core::DpOptions no_trace;
    no_trace.build_trace = false;
    expect_identical_with_stats(core::dp_rank(inst, no_trace),
                                core::dp_rank_reference(inst, no_trace));

    core::DpOptions no_refine;
    no_refine.refine_boundary = false;
    expect_identical_with_stats(core::dp_rank(inst, no_refine),
                                core::dp_rank_reference(inst, no_refine));
  }
}

// --- kernel reuse --------------------------------------------------------------

TEST(DpKernelReuse, ReusedKernelMatchesFreshKernelPerSolve) {
  // One kernel carried across the whole seed block — its pool is reset,
  // never freed, so any stale-state leak between solves would surface as
  // a mismatch against the fresh-kernel oracle.
  core::DpKernel reused;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const core::Instance inst = core::sample_scenario(seed).instance();
    const core::RankResult a = reused.solve(inst, {});
    core::DpKernel fresh;
    expect_identical_with_stats(a, fresh.solve(inst, {}));
  }
}

TEST(DpKernelReuse, SolveIntoDirtyStorageEqualsSolve) {
  // solve_into reuses the previous result's buffers; alternating between
  // scenarios of different shapes checks both growth and shrink reuse.
  core::DpKernel kernel;
  core::RankResult dirty;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const core::Instance inst = core::sample_scenario(seed).instance();
    kernel.solve_into(inst, {}, dirty);
    core::DpKernel fresh;
    expect_identical_with_stats(dirty, fresh.solve(inst, {}));
  }
}

TEST(DpKernelReuse, PoolAccountingIsMonotone) {
  core::DpKernel kernel;
  std::int64_t high_water = 0;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    const core::Instance inst = core::sample_scenario(seed).instance();
    const core::RankResult r = kernel.solve(inst, {});
    const core::DpKernel::PoolStats stats = kernel.pool_stats();
    EXPECT_EQ(stats.arena_bytes, r.dp.arena_bytes) << "seed " << seed;
    EXPECT_GE(stats.high_water_bytes, stats.arena_bytes) << "seed " << seed;
    EXPECT_GE(stats.high_water_bytes, high_water) << "seed " << seed;
    high_water = stats.high_water_bytes;
  }
  // Re-solving the block draws the same bytes per solve (deterministic
  // pool accounting) without raising the high-water mark.
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    const core::Instance inst = core::sample_scenario(seed).instance();
    const core::RankResult r = kernel.solve(inst, {});
    EXPECT_EQ(r.dp.arena_bytes, kernel.pool_stats().arena_bytes);
  }
  EXPECT_EQ(kernel.pool_stats().high_water_bytes, high_water);
}
