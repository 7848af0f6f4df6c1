/// Tests for core::Instance (raw construction, accounting helpers, shared
/// immutable tables), build_instance (the physical flow of paper Section
/// 5.2) and the InstanceBuilder's cached instances.

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "src/core/dp_rank.hpp"
#include "src/core/engine.hpp"
#include "src/core/instance.hpp"
#include "src/core/instance_builder.hpp"
#include "src/core/selfcheck.hpp"
#include "src/tech/die.hpp"
#include "src/core/paper_setup.hpp"
#include "src/util/alloc_count.hpp"
#include "src/util/error.hpp"
#include "src/util/units.hpp"
#include "src/wld/synthetic.hpp"

namespace core = iarank::core;
namespace tech = iarank::tech;
namespace wld = iarank::wld;
namespace units = iarank::util::units;
using iarank::util::Error;

namespace {

core::Instance tiny_instance() {
  std::vector<core::Bunch> bunches = {{4.0, 2, 1.0}, {2.0, 3, 0.5}};
  std::vector<core::PairInfo> pairs = {{"top", 1.0, 0.01, 1.0, 0.5},
                                       {"bottom", 0.5, 0.02, 1.0, 0.25}};
  core::DelayPlan ok;
  ok.feasible = true;
  ok.stages = 3;
  ok.area_per_wire = 1.0;
  core::DelayPlan no;  // infeasible
  std::vector<std::vector<core::DelayPlan>> plans = {{ok, no}, {ok, ok}};
  return core::Instance::from_raw(bunches, pairs, plans, 20.0, 5.0,
                                  tech::ViaSpec{});
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same_plan(const core::DelayPlan& got, const core::DelayPlan& want) {
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.stages, want.stages);
  EXPECT_TRUE(same_bits(got.delay, want.delay));
  EXPECT_TRUE(same_bits(got.area_per_wire, want.area_per_wire));
}

void expect_same_bunch(const core::Bunch& got, const core::Bunch& want) {
  EXPECT_TRUE(same_bits(got.length, want.length));
  EXPECT_EQ(got.count, want.count);
  EXPECT_TRUE(same_bits(got.target_delay, want.target_delay));
}

/// Every value an engine can read from the two instances is bitwise equal:
/// bunches, pair header, globals, plans and every lane including the
/// sentinel row.
void expect_bitwise_equal(const core::Instance& a, const core::Instance& b) {
  ASSERT_EQ(a.bunch_count(), b.bunch_count());
  ASSERT_EQ(a.pair_count(), b.pair_count());
  const std::size_t n = a.bunch_count();
  EXPECT_TRUE(same_bits(a.pair_capacity(), b.pair_capacity()));
  EXPECT_TRUE(same_bits(a.repeater_budget(), b.repeater_budget()));
  EXPECT_TRUE(same_bits(a.vias().vias_per_wire, b.vias().vias_per_wire));
  EXPECT_TRUE(
      same_bits(a.vias().vias_per_repeater, b.vias().vias_per_repeater));
  for (std::size_t bb = 0; bb < n; ++bb) {
    expect_same_bunch(a.bunch(bb), b.bunch(bb));
  }
  for (std::size_t bb = 0; bb <= n; ++bb) {
    EXPECT_EQ(a.wires_before_lane()[bb], b.wires_before_lane()[bb]);
  }
  for (std::size_t j = 0; j < a.pair_count(); ++j) {
    EXPECT_EQ(a.pair(j).name, b.pair(j).name);
    EXPECT_TRUE(same_bits(a.pair(j).pitch, b.pair(j).pitch));
    EXPECT_TRUE(same_bits(a.pair(j).via_area, b.pair(j).via_area));
    EXPECT_TRUE(same_bits(a.pair(j).s_opt, b.pair(j).s_opt));
    EXPECT_TRUE(same_bits(a.pair(j).repeater_area, b.pair(j).repeater_area));
    for (std::size_t bb = 0; bb < n; ++bb) {
      expect_same_plan(a.plan(bb, j), b.plan(bb, j));
    }
    for (std::size_t bb = 0; bb <= n; ++bb) {
      EXPECT_TRUE(same_bits(a.prefix_wire_area_lane(j)[bb],
                            b.prefix_wire_area_lane(j)[bb]));
      EXPECT_TRUE(same_bits(a.prefix_repeater_area_lane(j)[bb],
                            b.prefix_repeater_area_lane(j)[bb]));
      EXPECT_EQ(a.prefix_repeater_count_lane(j)[bb],
                b.prefix_repeater_count_lane(j)[bb]);
      EXPECT_EQ(a.first_infeasible(j, bb), b.first_infeasible(j, bb));
      EXPECT_TRUE(same_bits(a.plan_area_per_wire_lane(j)[bb],
                            b.plan_area_per_wire_lane(j)[bb]));
      EXPECT_EQ(a.plan_reps_per_wire_lane(j)[bb],
                b.plan_reps_per_wire_lane(j)[bb]);
    }
  }
}

/// Small physical setup shared by the builder tests: a few hundred
/// bunches, cheap enough for the sanitizer legs.
struct BuilderSetup {
  core::PaperSetup paper =
      core::paper_baseline("130nm", 50000, core::scaled_regime(50000));
  const core::DesignSpec& design = paper.design;
  wld::Wld wld = core::default_wld(paper.design);
  core::RankOptions options;
  BuilderSetup() : options(paper.options) { options.bunch_size = 500; }

  /// Option set `key`: a distinct clock per key, so every key is its own
  /// plans-stage entry with its own rank.
  [[nodiscard]] core::RankOptions keyed(int key) const {
    core::RankOptions o = options;
    o.clock_frequency = (0.5 + 0.25 * key) * units::GHz;
    return o;
  }
};

}  // namespace

TEST(Instance, Shape) {
  const auto inst = tiny_instance();
  EXPECT_EQ(inst.bunch_count(), 2u);
  EXPECT_EQ(inst.pair_count(), 2u);
  EXPECT_EQ(inst.total_wires(), 5);
}

TEST(Instance, WiresBeforePrefixSums) {
  const auto inst = tiny_instance();
  EXPECT_EQ(inst.wires_before(0), 0);
  EXPECT_EQ(inst.wires_before(1), 2);
  EXPECT_EQ(inst.wires_before(2), 5);
  EXPECT_THROW((void)inst.wires_before(3), Error);
}

TEST(Instance, WireAreaFormula) {
  const auto inst = tiny_instance();
  EXPECT_DOUBLE_EQ(inst.wire_area(0, 0, 2), 4.0 * 1.0 * 2.0);
  EXPECT_DOUBLE_EQ(inst.wire_area(1, 1, 3), 2.0 * 0.5 * 3.0);
}

TEST(Instance, BlockageUsesPairViaArea) {
  const auto inst = tiny_instance();
  // vias_per_wire = 2, vias_per_repeater = 1 (defaults)
  EXPECT_DOUBLE_EQ(inst.blockage(0, 10.0, 4.0), (2.0 * 10.0 + 4.0) * 0.01);
  EXPECT_DOUBLE_EQ(inst.blockage(1, 10.0, 4.0), (2.0 * 10.0 + 4.0) * 0.02);
}

TEST(Instance, MaxFitRespectsAreaAndCount) {
  const auto inst = tiny_instance();
  // Pair 0, bunch 0: per-wire area 4.0, capacity 20 -> 5 would fit, but
  // the bunch only has 2 wires.
  EXPECT_EQ(inst.max_fit(0, 0, 0, 0.0, 0.0, 0.0), 2);
  // With 18 units already used only half a wire fits -> 0.
  EXPECT_EQ(inst.max_fit(0, 0, 0, 18.0, 0.0, 0.0), 0);
  // Offset consumes bunch wires.
  EXPECT_EQ(inst.max_fit(0, 0, 1, 0.0, 0.0, 0.0), 1);
}

TEST(Instance, MaxFitDegeneratePitchClampsBeforeCast) {
  // A near-zero (but positive) pitch makes free_area / per_wire exceed
  // the int64 range; the old code cast that double directly — undefined
  // behaviour. The clamp must resolve it to "everything fits".
  std::vector<core::Bunch> bunches = {{1.0, 7, 1.0}};
  std::vector<core::PairInfo> pairs = {{"thin", 1e-300, 0.0, 1.0, 0.0}};
  core::DelayPlan ok;
  ok.feasible = true;
  ok.stages = 1;
  std::vector<std::vector<core::DelayPlan>> plans = {{ok}};
  const auto inst =
      core::Instance::from_raw(bunches, pairs, plans, 20.0, 5.0,
                               tech::ViaSpec{});
  EXPECT_EQ(inst.max_fit(0, 0, 0, 0.0, 0.0, 0.0), 7);
  EXPECT_EQ(inst.max_fit(0, 0, 3, 0.0, 0.0, 0.0), 4);
  // Exhausted area still yields zero, not a wrapped negative.
  EXPECT_EQ(inst.max_fit(0, 0, 0, 25.0, 0.0, 0.0), 0);
}

TEST(Instance, PlanLookup) {
  const auto inst = tiny_instance();
  EXPECT_TRUE(inst.plan(0, 0).feasible);
  EXPECT_FALSE(inst.plan(0, 1).feasible);
  EXPECT_EQ(inst.plan(0, 0).repeaters_per_wire(), 2);
  EXPECT_THROW((void)inst.plan(2, 0), Error);
}

TEST(Instance, CopiesShareTheTables) {
  const core::Instance a = tiny_instance();
  const core::Instance b = a;
  core::Instance c;
  c = b;
  const core::Instance* copies[] = {&b, &c};
  for (const core::Instance* copy : copies) {
    EXPECT_EQ(&copy->bunches(), &a.bunches());
    EXPECT_EQ(&copy->pairs(), &a.pairs());
    EXPECT_EQ(copy->wires_before_lane(), a.wires_before_lane());
    for (std::size_t j = 0; j < a.pair_count(); ++j) {
      EXPECT_EQ(copy->prefix_wire_area_lane(j), a.prefix_wire_area_lane(j));
      EXPECT_EQ(copy->prefix_repeater_area_lane(j),
                a.prefix_repeater_area_lane(j));
      EXPECT_EQ(copy->prefix_repeater_count_lane(j),
                a.prefix_repeater_count_lane(j));
      EXPECT_EQ(copy->plan_area_per_wire_lane(j), a.plan_area_per_wire_lane(j));
      EXPECT_EQ(copy->plan_reps_per_wire_lane(j), a.plan_reps_per_wire_lane(j));
    }
  }
}

TEST(Instance, PlanAndBunchRoundTripSelfcheckRawInstances) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    core::Scenario s = core::sample_scenario(seed);
    // Infeasible plans keep whatever stages/delay/area they were given:
    // plan() must return them unchanged even though no engine reads them.
    for (std::size_t b = 0; b < s.plans.size(); ++b) {
      for (std::size_t j = 0; j < s.plans[b].size(); ++j) {
        core::DelayPlan& p = s.plans[b][j];
        if (p.feasible || (b + j) % 2 == 0) continue;
        p.stages = 2 + static_cast<std::int64_t>(b % 5);
        p.delay = 1.25 + static_cast<double>(j);
        p.area_per_wire = 0.375 * static_cast<double>(j + 1);
      }
    }
    const core::Instance inst = s.instance();
    ASSERT_EQ(inst.bunch_count(), s.bunches.size()) << "seed " << seed;
    ASSERT_EQ(inst.pair_count(), s.pairs.size()) << "seed " << seed;
    for (std::size_t b = 0; b < s.bunches.size(); ++b) {
      expect_same_bunch(inst.bunch(b), s.bunches[b]);
      EXPECT_EQ(inst.wires_before(b + 1) - inst.wires_before(b),
                s.bunches[b].count);
      for (std::size_t j = 0; j < s.pairs.size(); ++j) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " bunch " << b
                                          << " pair " << j);
        expect_same_plan(inst.plan(b, j), s.plans[b][j]);
      }
    }
  }
}

TEST(Instance, InfeasiblePlanWithCostRoundTrips) {
  std::vector<core::Bunch> bunches = {{4.0, 2, 1.0}, {2.0, 3, 0.5}};
  std::vector<core::PairInfo> pairs = {{"top", 1.0, 0.01, 1.0, 0.5}};
  core::DelayPlan no;
  no.feasible = false;
  no.stages = 4;
  no.delay = 3.5;
  no.area_per_wire = 1.5;
  core::DelayPlan ok;
  ok.feasible = true;
  ok.stages = 2;
  ok.delay = 0.25;
  ok.area_per_wire = 0.5;
  const auto inst = core::Instance::from_raw(bunches, pairs, {{no}, {ok}},
                                             20.0, 5.0, tech::ViaSpec{});
  expect_same_plan(inst.plan(0, 0), no);
  expect_same_plan(inst.plan(1, 0), ok);
  // The infeasible plan's cost stays out of the delay-met prefix sums.
  EXPECT_EQ(inst.prefix_repeater_count(0, 1), 0);
  EXPECT_EQ(inst.prefix_repeater_area(0, 1), 0.0);
  EXPECT_EQ(inst.prefix_repeater_count(0, 2), 3);
  EXPECT_EQ(inst.first_infeasible(0, 0), 0u);
  EXPECT_EQ(inst.first_infeasible(0, 1), 2u);
}

TEST(Instance, FromRawValidation) {
  std::vector<core::Bunch> unsorted = {{2.0, 1, 1.0}, {4.0, 1, 1.0}};
  std::vector<core::PairInfo> pairs = {{"p", 1.0, 0.0, 1.0, 0.5}};
  std::vector<std::vector<core::DelayPlan>> plans(2,
                                                  std::vector<core::DelayPlan>(1));
  EXPECT_THROW((void)core::Instance::from_raw(unsorted, pairs, plans, 10.0,
                                              1.0, tech::ViaSpec{}),
               Error);

  std::vector<core::Bunch> ok = {{4.0, 1, 1.0}, {2.0, 1, 1.0}};
  EXPECT_THROW((void)core::Instance::from_raw(ok, {}, plans, 10.0, 1.0,
                                              tech::ViaSpec{}),
               Error);
  EXPECT_THROW((void)core::Instance::from_raw(ok, pairs, plans, 0.0, 1.0,
                                              tech::ViaSpec{}),
               Error);
  std::vector<std::vector<core::DelayPlan>> short_plans(
      1, std::vector<core::DelayPlan>(1));
  EXPECT_THROW((void)core::Instance::from_raw(ok, pairs, short_plans, 10.0,
                                              1.0, tech::ViaSpec{}),
               Error);
}

// --- build_instance ------------------------------------------------------------------

TEST(BuildInstance, BaselineDimensions) {
  const core::DesignSpec design = core::baseline_design("130nm", 10000);
  core::RankOptions options;
  options.bunch_size = 100;
  const auto wld_pitches = wld::uniform_spread(1.0, 50.0, 10, 1000);
  const auto inst = core::build_instance(design, options, wld_pitches);

  EXPECT_EQ(inst.pair_count(), 4u);
  EXPECT_EQ(inst.total_wires(), 1000);
  // 10 groups x ceil(100/100) bunches each.
  EXPECT_EQ(inst.bunch_count(), 10u);
  EXPECT_GT(inst.repeater_budget(), 0.0);
  // Capacity defaults to 2 x A_d.
  const tech::DieModel die({10000, design.node.gate_pitch(), 0.4});
  EXPECT_NEAR(inst.pair_capacity(), 2.0 * die.die_area(), 1e-18);
}

TEST(BuildInstance, LengthsScaledByEffectivePitch) {
  const core::DesignSpec design = core::baseline_design("130nm", 10000);
  const core::RankOptions options;
  const auto wld_pitches = wld::uniform_length(50.0, 10);
  const auto inst = core::build_instance(design, options, wld_pitches);
  const tech::DieModel die({10000, design.node.gate_pitch(), 0.4});
  EXPECT_NEAR(inst.bunch(0).length, 50.0 * die.effective_gate_pitch(), 1e-15);
}

TEST(BuildInstance, TargetsFollowLinearModel) {
  const core::DesignSpec design = core::baseline_design("130nm", 10000);
  core::RankOptions options;  // linear targets, 500 MHz
  const auto wld_pitches = wld::Wld({{100.0, 5}, {50.0, 5}});
  const auto inst = core::build_instance(design, options, wld_pitches);
  // Longest wire gets the full period; the half-length wire half of it.
  EXPECT_NEAR(inst.bunch(0).target_delay, 2.0 * units::ns, 1e-15);
  EXPECT_NEAR(inst.bunch(1).target_delay, 1.0 * units::ns, 1e-15);
}

TEST(BuildInstance, BunchSizeControlsGranularity) {
  const core::DesignSpec design = core::baseline_design("130nm", 10000);
  core::RankOptions coarse;
  coarse.bunch_size = 1000;
  core::RankOptions fine;
  fine.bunch_size = 10;
  const auto wld_pitches = wld::uniform_length(20.0, 100);
  EXPECT_EQ(core::build_instance(design, coarse, wld_pitches).bunch_count(),
            1u);
  EXPECT_EQ(core::build_instance(design, fine, wld_pitches).bunch_count(),
            10u);
}

TEST(BuildInstance, BinningReducesBunches) {
  const core::DesignSpec design = core::baseline_design("130nm", 10000);
  core::RankOptions options;
  options.bin_window = 5.0;
  const auto wld_pitches =
      wld::Wld({{100.0, 1}, {99.0, 1}, {98.0, 1}, {50.0, 1}});
  const auto inst = core::build_instance(design, options, wld_pitches);
  EXPECT_EQ(inst.bunch_count(), 2u);
  EXPECT_EQ(inst.total_wires(), 4);
}

TEST(BuildInstance, MinRepeaterSpacingCapsStages) {
  core::PaperSetup setup = core::paper_baseline("130nm", 10000);
  // One long and one very short wire.
  const auto wld_pitches = wld::Wld({{500.0, 1}, {1.0, 1}});
  setup.options.clock_frequency = 100.0 * units::GHz;  // brutally tight
  const auto inst =
      core::build_instance(setup.design, setup.options, wld_pitches);
  // The 1-pitch wire can hold at most a handful of stages; at 100 GHz the
  // quadratic target is unattainable within that cap on every pair.
  for (std::size_t j = 0; j < inst.pair_count(); ++j) {
    EXPECT_FALSE(inst.plan(1, j).feasible) << "pair " << j;
  }
}

TEST(BuildInstance, EmptyWldThrows) {
  const core::DesignSpec design = core::baseline_design("130nm", 10000);
  EXPECT_THROW(
      (void)core::build_instance(design, core::RankOptions{}, wld::Wld{}),
      Error);
}

TEST(BuildInstance, InvalidOptionsThrow) {
  const core::DesignSpec design = core::baseline_design("130nm", 10000);
  core::RankOptions options;
  options.repeater_fraction = 1.0;
  EXPECT_THROW((void)core::build_instance(design, options,
                                          wld::uniform_length(10.0, 5)),
               Error);
}

// --- InstanceBuilder's shared instances --------------------------------------------

TEST(InstanceBuilder, EvictedHandleStaysValidAndEqualToColdBuild) {
  const BuilderSetup setup;
  core::InstanceBuilder builder(setup.design, setup.wld, 1);
  const core::Instance held = builder.build(setup.keyed(0));
  const core::RankResult held_rank = core::dp_rank(held);
  (void)builder.build(setup.keyed(1));  // evicts key 0
  (void)builder.build(setup.keyed(2));  // evicts key 1
  const core::Instance rebuilt = builder.build(setup.keyed(0));
  const core::BuildProfile prof = builder.profile();
  EXPECT_EQ(prof.plans.misses, 4);  // capacity 1: the rebuild misses too
  EXPECT_EQ(prof.plans.hits, 0);

  const core::Instance cold = core::build_instance(setup.design, setup.keyed(0),
                                                   setup.wld);
  expect_bitwise_equal(held, cold);
  expect_bitwise_equal(rebuilt, cold);
  const core::RankResult cold_rank = core::dp_rank(cold);
  EXPECT_EQ(held_rank.rank, cold_rank.rank);
  EXPECT_TRUE(same_bits(held_rank.normalized, cold_rank.normalized));
  EXPECT_EQ(core::dp_rank(held).rank, cold_rank.rank);
}

TEST(InstanceBuilder, WarmBuildSharesTheCachedTables) {
  const BuilderSetup setup;
  core::InstanceBuilder builder(setup.design, setup.wld);
  const core::Instance first = builder.build(setup.options);
  const core::Instance second = builder.build(setup.options);
  EXPECT_EQ(first.wires_before_lane(), second.wires_before_lane());
  EXPECT_EQ(first.prefix_wire_area_lane(0), second.prefix_wire_area_lane(0));
  core::Instance into;
  builder.build_into(setup.options, into);
  EXPECT_EQ(into.wires_before_lane(), first.wires_before_lane());
}

TEST(InstanceBuilder, ZeroCapacityThrows) {
  const BuilderSetup setup;
  EXPECT_THROW(core::InstanceBuilder(setup.design, setup.wld, 0), Error);
}

TEST(InstanceBuilder, WarmBuildAllocatesNothing) {
  if (!iarank::util::alloc_counter_enabled()) {
    GTEST_SKIP() << "built with IARANK_COUNT_ALLOCS=OFF";
  }
  const BuilderSetup setup;
  core::InstanceBuilder builder(setup.design, setup.wld);
  (void)builder.build(setup.options);  // cold: fills every stage
  (void)builder.build(setup.options);  // settle once-only statics
  const std::int64_t before = iarank::util::alloc_total();
  for (int i = 0; i < 10; ++i) {
    const core::Instance inst = builder.build(setup.options);
    EXPECT_GT(inst.bunch_count(), 0u);
  }
  EXPECT_EQ(iarank::util::alloc_total() - before, 0);
}

TEST(InstanceBuilder, ConcurrentBuildsSurviveEvictionWhileHandlesAreHeld) {
  // 8 threads over 6 option sets through a 2-entry builder: nearly every
  // build evicts an entry some other thread still holds and solves.
  const BuilderSetup setup;
  constexpr int kKeys = 6;
  constexpr int kThreads = 8;
  constexpr int kRounds = 12;
  std::vector<core::RankResult> expected;
  for (int k = 0; k < kKeys; ++k) {
    expected.push_back(core::dp_rank(
        core::build_instance(setup.design, setup.keyed(k), setup.wld)));
  }

  // The keys must be told apart by their answers.
  ASSERT_NE(expected.front().rank, expected.back().rank);

  core::InstanceBuilder builder(setup.design, setup.wld, 2);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      core::Instance held[2];
      for (int i = 0; i < kRounds; ++i) {
        const int key = (t + 5 * i) % kKeys;
        held[i % 2] = builder.build(setup.keyed(key));
        const core::RankResult r = core::dp_rank(held[i % 2]);
        if (r.rank != expected[static_cast<std::size_t>(key)].rank ||
            !same_bits(r.normalized,
                       expected[static_cast<std::size_t>(key)].normalized)) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
      // The older handle was likely evicted long ago; it still solves.
      const int old_key = (t + 5 * (kRounds - 2)) % kKeys;
      if (core::dp_rank(held[0]).rank !=
          expected[static_cast<std::size_t>(old_key)].rank) {
        ++mismatches[static_cast<std::size_t>(t)];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
  const core::BuildProfile prof = builder.profile();
  EXPECT_EQ(prof.builds, kThreads * kRounds);
  EXPECT_GT(prof.plans.misses, kKeys);  // entries were evicted and rebuilt
}
