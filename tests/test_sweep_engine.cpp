/// Tests for the sweep-engine overhaul: the shared util::ThreadPool, the
/// LRU stage caches and staged InstanceBuilder, sweep determinism across
/// thread counts and cache states (cached evaluations must be
/// bitwise-identical to cold ones), the sweep observability counters, and
/// the direction-aware value_reaching_rank.

#include <array>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine.hpp"
#include "src/core/instance_builder.hpp"
#include "src/core/paper_setup.hpp"
#include "src/core/sweep.hpp"
#include "src/util/error.hpp"
#include "src/util/lru_cache.hpp"
#include "src/util/stopwatch.hpp"
#include "src/util/thread_pool.hpp"
#include "src/util/units.hpp"

namespace core = iarank::core;
namespace util = iarank::util;
namespace wld = iarank::wld;
namespace units = iarank::util::units;

namespace {

/// Small paper-regime setup (50k gates) so each rank evaluation is fast,
/// rescaled to stay in the paper's budget-limited operating point.
core::PaperSetup small_setup() {
  core::PaperSetup setup =
      core::paper_baseline("130nm", 50000, core::scaled_regime(50000));
  setup.options.bunch_size = 500;
  return setup;
}

const wld::Wld& small_wld() {
  static const wld::Wld w = core::default_wld(small_setup().design);
  return w;
}

/// Bitwise equality of two rank results, including the full certificate.
void expect_identical(const core::RankResult& a, const core::RankResult& b) {
  EXPECT_EQ(a.rank, b.rank);
  EXPECT_EQ(a.normalized, b.normalized);  // exact, not NEAR
  EXPECT_EQ(a.all_assigned, b.all_assigned);
  EXPECT_EQ(a.prefix_bunches, b.prefix_bunches);
  EXPECT_EQ(a.refined_wires, b.refined_wires);
  EXPECT_EQ(a.repeater_count, b.repeater_count);
  EXPECT_EQ(a.repeater_area_used, b.repeater_area_used);
  EXPECT_EQ(a.total_wires, b.total_wires);
  ASSERT_EQ(a.usage.size(), b.usage.size());
  for (std::size_t j = 0; j < a.usage.size(); ++j) {
    EXPECT_EQ(a.usage[j].wires_meeting_delay, b.usage[j].wires_meeting_delay);
    EXPECT_EQ(a.usage[j].wires_total, b.usage[j].wires_total);
    EXPECT_EQ(a.usage[j].wire_area, b.usage[j].wire_area);
    EXPECT_EQ(a.usage[j].via_blockage, b.usage[j].via_blockage);
    EXPECT_EQ(a.usage[j].repeaters, b.usage[j].repeaters);
    EXPECT_EQ(a.usage[j].repeater_area, b.usage[j].repeater_area);
  }
  ASSERT_EQ(a.placements.size(), b.placements.size());
  for (std::size_t p = 0; p < a.placements.size(); ++p) {
    EXPECT_EQ(a.placements[p].bunch, b.placements[p].bunch);
    EXPECT_EQ(a.placements[p].pair, b.placements[p].pair);
    EXPECT_EQ(a.placements[p].wires, b.placements[p].wires);
    EXPECT_EQ(a.placements[p].meeting_delay, b.placements[p].meeting_delay);
  }
}

void expect_identical(const core::SweepResult& a, const core::SweepResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].value, b.points[i].value);
    expect_identical(a.points[i].result, b.points[i].result);
  }
}

core::SweepResult synthetic_sweep(const std::vector<double>& values,
                                  const std::vector<double>& normalized) {
  core::SweepResult sweep;
  sweep.parameter = core::SweepParameter::kClockFrequency;
  for (std::size_t i = 0; i < values.size(); ++i) {
    core::RankResult r;
    r.normalized = normalized[i];
    sweep.points.push_back({values[i], r});
  }
  return sweep;
}

}  // namespace

// --- thread pool ------------------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(3);
  std::vector<std::atomic<int>> seen(257);
  pool.parallel_for(seen.size(), 0, [&](std::size_t i) {
    seen[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPool, ZeroItemsIsANoop) {
  util::ThreadPool pool(2);
  pool.parallel_for(0, 4, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, SequentialWhenParallelismOne) {
  util::ThreadPool pool(3);
  std::vector<std::size_t> order;
  pool.parallel_for(8, 1, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, PropagatesLowestIndexException) {
  util::ThreadPool pool(3);
  // Every index throws; index 0 is the first claimed, so its error is the
  // lowest recorded one regardless of scheduling.
  try {
    pool.parallel_for(16, 0, [](std::size_t i) {
      throw util::Error("boom " + std::to_string(i));
    });
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_STREQ(e.what(), "boom 0");
  }
}

TEST(ThreadPool, ExceptionStopsClaimingNewWork) {
  util::ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(10000, 0,
                                 [&](std::size_t) {
                                   ran.fetch_add(1);
                                   throw std::runtime_error("stop");
                                 }),
               std::runtime_error);
  // Claimed-but-running tasks finish; the vast majority is never started.
  EXPECT_LT(ran.load(), 100);
}

TEST(ThreadPool, ConcurrentThrowersYieldLowestExecutedIndex) {
  util::ThreadPool pool(4);
  // Indices 1 and 3 both throw. Claiming is monotonic from 0, so index 1
  // is always claimed (and thus executed) before claiming can stop —
  // whichever thrower finishes first, the lowest *executed* failing index
  // is deterministically 1.
  for (int round = 0; round < 25; ++round) {
    try {
      pool.parallel_for(8, 0, [](std::size_t i) {
        if (i == 1 || i == 3) {
          throw util::Error("thrower " + std::to_string(i));
        }
      });
      FAIL() << "expected util::Error";
    } catch (const util::Error& e) {
      EXPECT_STREQ(e.what(), "thrower 1");
    }
  }
}

TEST(ThreadPool, ZeroWorkerPoolRunsInlineAndPropagates) {
  util::ThreadPool pool(0);  // batches run inline on the calling thread
  EXPECT_EQ(pool.worker_count(), 0u);
  int ran = 0;
  try {
    pool.parallel_for(6, 0, [&](std::size_t i) {
      ++ran;
      if (i == 2) throw util::Error("inline failure");
    });
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_STREQ(e.what(), "inline failure");
  }
  // Inline execution is sequential: 0..2 ran, the rest were skipped.
  EXPECT_EQ(ran, 3);
}

TEST(ThreadPool, PoolIsReusableAfterAFailedBatch) {
  util::ThreadPool pool(3);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(
        pool.parallel_for(32, 0,
                          [](std::size_t i) {
                            if (i % 2 == 0) throw std::runtime_error("even");
                          }),
        std::runtime_error);
    // The same pool must run a full clean batch right after the failure.
    std::vector<std::atomic<int>> seen(64);
    pool.parallel_for(seen.size(), 0, [&](std::size_t i) {
      seen[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
  }
}

TEST(ThreadPool, ReturnsOnlyAfterEveryIndexRan) {
  // Many tiny batches over state on the caller's stack: a helper that
  // claims an index late must still finish before parallel_for returns,
  // or it writes into the frame the next round reuses.
  util::ThreadPool pool(3);
  for (int round = 0; round < 200000; ++round) {
    std::array<int, 3> slots{};
    pool.parallel_for(slots.size(), 0, [&slots](std::size_t i) {
      slots[i] = static_cast<int>(i) + 1;
    });
    ASSERT_EQ(slots[0] + slots[1] + slots[2], 6) << "round " << round;
  }
}

TEST(ThreadPool, FailedBatchReturnsOnlyAfterClaimedIndicesFinished) {
  // Index 0 throws at once while the others are still running: the
  // failure must not let the caller return before they have finished.
  util::ThreadPool pool(3);
  std::atomic<int> in_flight{0};
  const auto fn = [&in_flight](std::size_t i) {
    if (i == 0) throw std::runtime_error("first");
    in_flight.fetch_add(1);
    for (int spin = 0; spin < 64; ++spin) {  // widen the in-flight window
      std::atomic_signal_fence(std::memory_order_seq_cst);
    }
    in_flight.fetch_sub(1);
  };
  for (int round = 0; round < 20000; ++round) {
    ASSERT_THROW(pool.parallel_for(3, 0, fn), std::runtime_error)
        << "round " << round;
    ASSERT_EQ(in_flight.load(), 0) << "round " << round;
  }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  util::ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(4, 0, [&](std::size_t) {
    pool.parallel_for(4, 0,
                      [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPool, SharedPoolIsUsableAndStable) {
  util::ThreadPool& a = util::ThreadPool::shared();
  util::ThreadPool& b = util::ThreadPool::shared();
  EXPECT_EQ(&a, &b);
  std::atomic<int> n{0};
  a.parallel_for(5, 2, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 5);
}

// --- lru cache --------------------------------------------------------------------

TEST(LruCache, ComputesOnceThenHits) {
  util::LruCache<int, int> cache(4);
  int computed = 0;
  bool hit = true;
  EXPECT_EQ(cache.get_or_compute(7, [&] { ++computed; return 70; }, &hit), 70);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.get_or_compute(7, [&] { ++computed; return 70; }, &hit), 70);
  EXPECT_TRUE(hit);
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  util::LruCache<int, int> cache(2);
  bool hit = false;
  (void)cache.get_or_compute(1, [] { return 10; }, &hit);
  (void)cache.get_or_compute(2, [] { return 20; }, &hit);
  (void)cache.get_or_compute(1, [] { return 10; }, &hit);  // 1 is now MRU
  (void)cache.get_or_compute(3, [] { return 30; }, &hit);  // evicts 2
  EXPECT_EQ(cache.size(), 2u);
  (void)cache.get_or_compute(1, [] { return -1; }, &hit);
  EXPECT_TRUE(hit);  // still cached
  (void)cache.get_or_compute(2, [] { return 21; }, &hit);
  EXPECT_FALSE(hit);  // was evicted
}

TEST(Stopwatch, MeasuresForwardAndRestarts) {
  util::Stopwatch sw;
  const double first = sw.seconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(sw.seconds(), first);
  sw.restart();
  EXPECT_LT(sw.seconds(), 60.0);  // sanity: restarted, not epoch-based
}

// --- staged instance builder ------------------------------------------------------

TEST(InstanceBuilder, CachedBuildMatchesColdBitwise) {
  const auto setup = small_setup();
  core::InstanceBuilder warm(setup.design, small_wld());
  const core::Instance first = warm.build(setup.options);
  const core::Instance second = warm.build(setup.options);  // all stages hit

  core::InstanceBuilder cold(setup.design, small_wld());
  const core::Instance fresh = cold.build(setup.options);

  const core::RankResult a = core::dp_rank(first);
  const core::RankResult b = core::dp_rank(second);
  const core::RankResult c = core::dp_rank(fresh);
  expect_identical(a, b);
  expect_identical(a, c);

  const core::BuildProfile prof = warm.profile();
  EXPECT_EQ(prof.builds, 2);
  EXPECT_EQ(prof.coarsen.misses, 1);
  EXPECT_EQ(prof.coarsen.hits, 1);
  EXPECT_EQ(prof.plans.misses, 1);
  EXPECT_EQ(prof.plans.hits, 1);
}

TEST(InstanceBuilder, StagesKeyOnTheFieldsTheyRead) {
  const auto setup = small_setup();
  core::InstanceBuilder builder(setup.design, small_wld());
  (void)builder.build(setup.options);

  // A K change must rebuild only the RC-dependent stages.
  core::RankOptions k_changed = setup.options;
  k_changed.ild_permittivity = 2.7;
  (void)builder.build(k_changed);
  core::BuildProfile prof = builder.profile();
  EXPECT_EQ(prof.coarsen.misses, 1);
  EXPECT_EQ(prof.coarsen.hits, 1);
  EXPECT_EQ(prof.die.misses, 1);
  EXPECT_EQ(prof.die.hits, 1);
  EXPECT_EQ(prof.stack.misses, 2);
  EXPECT_EQ(prof.plans.misses, 2);

  // A C change reuses the stack too; only the plans stage recomputes.
  core::RankOptions c_changed = setup.options;
  c_changed.clock_frequency = 0.9 * units::GHz;
  (void)builder.build(c_changed);
  prof = builder.profile();
  EXPECT_EQ(prof.stack.misses, 2);
  EXPECT_EQ(prof.stack.hits, 1);
  EXPECT_EQ(prof.plans.misses, 3);

  // A bunch-size change re-coarsens (and re-plans), nothing electrical.
  core::RankOptions b_changed = setup.options;
  b_changed.bunch_size = 1000;
  (void)builder.build(b_changed);
  prof = builder.profile();
  EXPECT_EQ(prof.coarsen.misses, 2);
  EXPECT_EQ(prof.stack.misses, 2);
  EXPECT_EQ(prof.plans.misses, 4);
  EXPECT_EQ(prof.builds, 4);
}

TEST(InstanceBuilder, ValidatesLikeBuildInstance) {
  const auto setup = small_setup();
  EXPECT_THROW(core::InstanceBuilder(setup.design, wld::Wld{}),
               iarank::util::Error);

  core::DesignSpec bad = setup.design;
  bad.gate_count = 0;
  EXPECT_THROW(core::InstanceBuilder(bad, small_wld()), iarank::util::Error);

  core::InstanceBuilder builder(setup.design, small_wld());
  core::RankOptions bad_options = setup.options;
  bad_options.ild_permittivity = -1.0;
  EXPECT_THROW((void)builder.build(bad_options), iarank::util::Error);
}

// --- sweep determinism ------------------------------------------------------------

TEST(SweepEngine, ThreadCountDoesNotChangeResults) {
  const auto setup = small_setup();
  const std::vector<double> k_values = {3.9, 3.3, 2.7, 2.1};
  const auto one =
      core::sweep_parameter(setup.design, setup.options, small_wld(),
                            core::SweepParameter::kIldPermittivity, k_values, 1);
  const auto four =
      core::sweep_parameter(setup.design, setup.options, small_wld(),
                            core::SweepParameter::kIldPermittivity, k_values, 4);
  const auto eight =
      core::sweep_parameter(setup.design, setup.options, small_wld(),
                            core::SweepParameter::kIldPermittivity, k_values, 8);
  expect_identical(one, four);
  expect_identical(one, eight);
  EXPECT_EQ(four.profile.dp_arena_nodes, one.profile.dp_arena_nodes);
  EXPECT_EQ(four.profile.dp_heap_pops, one.profile.dp_heap_pops);
}

TEST(SweepEngine, CachedSweepsMatchColdOnAllTable4Columns) {
  const auto setup = small_setup();
  const struct {
    core::SweepParameter parameter;
    std::vector<double> values;
  } columns[] = {
      {core::SweepParameter::kIldPermittivity, core::table4_k_values()},
      {core::SweepParameter::kMillerFactor, core::table4_m_values()},
      {core::SweepParameter::kClockFrequency, core::table4_c_values()},
      {core::SweepParameter::kRepeaterFraction, core::table4_r_values()},
  };

  core::InstanceBuilder shared(setup.design, small_wld());
  for (const auto& column : columns) {
    const auto cold =
        core::sweep_parameter(setup.design, setup.options, small_wld(),
                              column.parameter, column.values, 1);
    const auto warm1 = core::sweep_parameter(shared, setup.options,
                                             column.parameter, column.values, 1);
    // Second pass over the same grid: every stage is a cache hit.
    const auto warm2 = core::sweep_parameter(shared, setup.options,
                                             column.parameter, column.values, 1);
    expect_identical(cold, warm1);
    expect_identical(cold, warm2);
    EXPECT_EQ(warm2.profile.build.coarsen.misses, 0);
    EXPECT_EQ(warm2.profile.build.die.misses, 0);
    EXPECT_EQ(warm2.profile.build.stack.misses, 0);
    EXPECT_EQ(warm2.profile.build.plans.misses, 0);
    EXPECT_EQ(warm2.profile.build.builds,
              static_cast<std::int64_t>(column.values.size()));
  }
}

TEST(SweepEngine, ProfileCountsStagesAndDpEffort) {
  const auto setup = small_setup();
  const std::vector<double> k_values = {3.9, 3.5, 3.1};
  const auto sweep =
      core::sweep_parameter(setup.design, setup.options, small_wld(),
                            core::SweepParameter::kIldPermittivity, k_values, 1);
  const core::SweepProfile& prof = sweep.profile;
  EXPECT_EQ(prof.build.builds, 3);
  // K only perturbs the electrical stages: coarsening and die sizing are
  // computed once and hit twice.
  EXPECT_EQ(prof.build.coarsen.misses, 1);
  EXPECT_EQ(prof.build.coarsen.hits, 2);
  EXPECT_EQ(prof.build.die.misses, 1);
  EXPECT_EQ(prof.build.die.hits, 2);
  EXPECT_EQ(prof.build.stack.misses, 3);
  EXPECT_EQ(prof.build.plans.misses, 3);
  EXPECT_GT(prof.dp_arena_nodes, 0);
  EXPECT_GT(prof.dp_heap_pops, 0);
  EXPECT_GT(prof.dp_verify_calls, 0);
  EXPECT_GE(prof.dp_max_frontier, 1);
  EXPECT_GE(prof.total_seconds, 0.0);
  EXPECT_EQ(prof.threads, 1u);

  // Per-point DP stats are also surfaced on each result.
  for (const auto& p : sweep.points) {
    EXPECT_GT(p.result.dp.arena_nodes, 0);
    EXPECT_GE(p.result.dp.seconds, 0.0);
  }
}

// --- value_reaching_rank: all four sweep shapes -----------------------------------

TEST(ValueReachingRank, IncreasingSweepInterpolatesFirstCrossing) {
  const auto sweep =
      synthetic_sweep({3.9, 3.4, 2.9}, {0.40, 0.50, 0.60});
  EXPECT_NEAR(core::value_reaching_rank(sweep, 0.45), 3.65, 1e-12);
  EXPECT_NEAR(core::value_reaching_rank(sweep, 0.55), 3.15, 1e-12);
  // Already met at the first point: no extrapolation beyond the grid.
  EXPECT_EQ(core::value_reaching_rank(sweep, 0.40), 3.9);
  EXPECT_TRUE(std::isnan(core::value_reaching_rank(sweep, 0.9)));
}

TEST(ValueReachingRank, DecreasingSweepFindsEndOfMetPrefix) {
  // C-shaped: values ascend, rank declines. The met region is a prefix.
  const auto sweep =
      synthetic_sweep({1.0, 2.0, 3.0, 4.0}, {0.50, 0.40, 0.20, 0.10});
  // Crossing 0.30 sits halfway between the 2.0 and 3.0 points. The old
  // code returned points[0].value (1.0) for every reachable target.
  EXPECT_NEAR(core::value_reaching_rank(sweep, 0.30), 2.5, 1e-12);
  EXPECT_NEAR(core::value_reaching_rank(sweep, 0.45), 1.5, 1e-12);
  // Every point meets a low-enough target: the whole grid qualifies and
  // the largest swept value is the answer.
  EXPECT_EQ(core::value_reaching_rank(sweep, 0.05), 4.0);
  // Target above the best point: unreachable.
  EXPECT_TRUE(std::isnan(core::value_reaching_rank(sweep, 0.60)));
}

TEST(ValueReachingRank, FlatSweepReturnsFirstValue) {
  const auto sweep = synthetic_sweep({1.0, 2.0, 3.0}, {0.30, 0.30, 0.30});
  EXPECT_EQ(core::value_reaching_rank(sweep, 0.30), 1.0);
  EXPECT_TRUE(std::isnan(core::value_reaching_rank(sweep, 0.31)));
}

TEST(ValueReachingRank, EmptySweepIsNaN) {
  core::SweepResult sweep;
  EXPECT_TRUE(std::isnan(core::value_reaching_rank(sweep, 0.1)));
}
