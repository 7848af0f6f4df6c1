#include "src/core/instance_builder.hpp"

#include <cmath>
#include <optional>
#include <utility>

#include "src/core/checkpoint.hpp"
#include "src/delay/target.hpp"
#include "src/tech/noise.hpp"
#include "src/util/error.hpp"
#include "src/util/fault_injector.hpp"
#include "src/util/metrics.hpp"
#include "src/util/stopwatch.hpp"
#include "src/util/trace.hpp"
#include "src/wld/coarsen.hpp"

namespace iarank::core {

namespace {

/// Per-stage LRU hit/miss counters, mirrored into the process registry so
/// `--metrics` sees them without plumbing a BuildProfile anywhere. The
/// totals are deterministic across thread counts (stage lookups are
/// serialized under the builder mutex and keyed only by option values).
struct StageMetrics {
  iarank::util::Counter& hits;
  iarank::util::Counter& misses;
};

StageMetrics stage_metrics(const char* stage) {
  const std::string base = std::string("iarank_builder_") + stage;
  return {iarank::util::MetricsRegistry::counter(base + "_hits_total"),
          iarank::util::MetricsRegistry::counter(base + "_misses_total")};
}

StageMetrics kCoarsenMetrics = stage_metrics("coarsen");
StageMetrics kDieMetrics = stage_metrics("die");
StageMetrics kStackMetrics = stage_metrics("stack");
StageMetrics kPlansMetrics = stage_metrics("plans");

iarank::util::Counter& kBuilds = iarank::util::MetricsRegistry::counter(
    "iarank_builder_builds_total", "instances assembled by InstanceBuilder");

// Fault-injection sites, one per cacheable stage plus the instance
// assembly that ends the plans stage. All sit inside the compute lambdas
// (the miss path), so `rank_tool faultcheck` exercises exactly the case
// that must not corrupt a cache: an exception thrown mid-compute.
const util::FaultSite kSiteCoarsen{"core.instance_builder.coarsen"};
const util::FaultSite kSiteDie{"core.instance_builder.die"};
const util::FaultSite kSiteStack{"core.instance_builder.stack"};
const util::FaultSite kSitePlans{"core.instance_builder.plans"};
const util::FaultSite kSiteAssemble{"core.instance_builder.assemble"};

/// Validates the fixed inputs before any member that derives from them
/// is initialized (arch_ and wld_max_pitches_ both need a valid design
/// and a non-empty WLD).
tech::Architecture make_arch(const DesignSpec& design, const wld::Wld& wld) {
  design.validate();
  iarank::util::require(!wld.empty(),
                        "build_instance: empty wire length distribution");
  return tech::Architecture::build(design.node, design.arch);
}

/// Cache lookup wrapper that books the hit/miss and miss wall-time into
/// `counters`, mirroring the counts into the process metric registry.
template <typename Cache, typename Key, typename Compute>
const auto& cached(Cache& cache, const Key& key, StageCounters& counters,
                   StageMetrics& metrics, Compute&& compute) {
  bool hit = false;
  util::Stopwatch timer;
  const auto& value =
      cache.get_or_compute(key, std::forward<Compute>(compute), &hit);
  if (hit) {
    ++counters.hits;
    metrics.hits.inc();
  } else {
    ++counters.misses;
    metrics.misses.inc();
    counters.seconds += timer.seconds();
  }
  return value;
}

}  // namespace

InstanceBuilder::InstanceBuilder(DesignSpec design, wld::Wld wld_in_pitches,
                                 std::size_t instance_capacity)
    : design_(std::move(design)),
      wld_(std::move(wld_in_pitches)),
      arch_(make_arch(design_, wld_)),
      wld_max_pitches_(wld_.max_length()),
      plan_cache_(instance_capacity) {
  iarank::util::require(instance_capacity >= 1,
                        "InstanceBuilder: instance_capacity must be >= 1");
  util::Digest d;
  digest_design(d, design_);
  digest_wld(d, wld_);
  fingerprint_ = d.value();
}

const std::vector<wld::WireGroup>& InstanceBuilder::coarsen_stage(
    const RankOptions& options) {
  const CoarsenKey key{options.bin_window, options.bunch_size};
  return cached(coarsen_cache_, key, profile_.coarsen, kCoarsenMetrics, [&] {
    TRACE_SPAN("builder.coarsen");
    util::maybe_inject(kSiteCoarsen);
    const wld::Wld coarse =
        options.bin_window > 0.0
            ? wld::bin_absolute(wld_, options.bin_window)
            : wld_;
    return wld::bunch(coarse, options.bunch_size);
  });
}

const tech::DieModel& InstanceBuilder::die_stage(const RankOptions& options) {
  const DieKey key = options.repeater_fraction;
  return cached(die_cache_, key, profile_.die, kDieMetrics, [&] {
    TRACE_SPAN("builder.die");
    util::maybe_inject(kSiteDie);
    // Die sizing (paper Eq. 6): repeater area inflates the die, gates are
    // redistributed, and the effective gate pitch converts WLD lengths.
    return tech::DieModel({design_.gate_count, design_.node.gate_pitch(),
                           options.repeater_fraction});
  });
}

const InstanceBuilder::StackStage& InstanceBuilder::stack_stage(
    const RankOptions& options) {
  const StackKey key{options.ild_permittivity, options.miller_factor,
                     static_cast<int>(options.cap_model), options.switching.a,
                     options.switching.b};
  return cached(stack_cache_, key, profile_.stack, kStackMetrics, [&] {
    TRACE_SPAN("builder.stack");
    util::maybe_inject(kSiteStack);
    const tech::RcParams rc{design_.node.conductor, options.ild_permittivity,
                            options.miller_factor, options.cap_model};
    return StackStage{rc, delay::ElectricalStack(arch_, rc, options.switching)};
  });
}

const Instance& InstanceBuilder::plan_stage(
    const RankOptions& options, const std::vector<wld::WireGroup>& groups,
    const tech::DieModel& die, const StackStage& electrical) {
  const StackKey stack_key{options.ild_permittivity, options.miller_factor,
                           static_cast<int>(options.cap_model),
                           options.switching.a, options.switching.b};
  const PlanKey key{
      stack_key,
      options.repeater_fraction,
      CoarsenKey{options.bin_window, options.bunch_size},
      static_cast<int>(options.target_model),
      options.clock_frequency,
      options.min_repeater_spacing,
      options.max_stages ? *options.max_stages : std::int64_t{-1},
      options.charge_drivers,
      options.max_noise_ratio,
      options.pair_capacity_factor,
      options.vias.vias_per_wire,
      options.vias.vias_per_repeater};
  return cached(plan_cache_, key, profile_.plans, kPlansMetrics, [&] {
    TRACE_SPAN("builder.plans");
    util::maybe_inject(kSitePlans);
    // Target delays from the longest *physical* wire.
    const double pitch_to_m = die.effective_gate_pitch();
    const double l_max = wld_max_pitches_ * pitch_to_m;
    const delay::TargetDelay targets(options.target_model,
                                     options.clock_frequency, l_max);

    std::vector<Bunch> bunches;
    bunches.reserve(groups.size());
    for (const wld::WireGroup& g : groups) {
      const double length_m = g.length * pitch_to_m;
      bunches.push_back({length_m, g.count, targets.target(length_m)});
    }

    // A layer-pair offers `pair_capacity_factor` layers' worth of routing
    // area; a via cut blocks that many layers' worth of via area.
    const std::size_t m = arch_.pair_count();
    const double a_inv = design_.node.device.min_inv_area;
    std::vector<PairInfo> pairs(m);
    for (std::size_t j = 0; j < m; ++j) {
      const tech::LayerPair& lp = arch_.pair(j);
      const delay::PairElectricals& el = electrical.stack.pair(j);
      pairs[j] = {lp.name, lp.geometry.pitch(),
                  options.pair_capacity_factor * lp.geometry.via_area(),
                  el.s_opt, el.s_opt * a_inv};
    }
    Instance::RowWriter writer(std::move(bunches), std::move(pairs),
                               options.pair_capacity_factor * die.die_area(),
                               die.repeater_area_budget(), options.vias);

    // Noise gate hoisted out of the bunch loop: the coupling ratio
    // depends only on pair geometry and RC, so one evaluation per pair
    // replaces one per (bunch, pair) — bitwise-identical plans.
    std::vector<char> noise_blocked(m, 0);
    if (options.max_noise_ratio < 1.0) {
      for (std::size_t j = 0; j < m; ++j) {
        noise_blocked[j] =
            tech::coupling_noise_ratio(arch_.pair(j).geometry, electrical.rc) >
                    options.max_noise_ratio
                ? 1
                : 0;
      }
    }

    // One stages_to_meet row per bunch, planned serially on the calling
    // thread: the rows are cheap, and the builder holds its mutex here, so
    // it never re-enters the shared pool (DESIGN.md Section 3.8). Each row
    // goes straight into the instance's lanes.
    std::vector<DelayPlan> row(m);
    for (const Bunch& bunch : writer.bunches()) {
      // Repeater-interval cap: at most floor(l / spacing) stages per wire
      // (paper Section 4.1: insertion stops when repeaters cannot be
      // placed at appropriate intervals).
      std::optional<std::int64_t> max_stages = options.max_stages;
      if (options.min_repeater_spacing > 0.0) {
        const auto by_spacing = static_cast<std::int64_t>(
            std::floor(bunch.length / options.min_repeater_spacing));
        const std::int64_t capped = std::max<std::int64_t>(1, by_spacing);
        max_stages = max_stages ? std::min(*max_stages, capped) : capped;
      }
      for (std::size_t j = 0; j < m; ++j) {
        DelayPlan& p = row[j];
        p = DelayPlan{};
        // Noise-constrained pairs cannot carry delay-met wires.
        if (noise_blocked[j] != 0) continue;
        const auto sol = electrical.stack.pair(j).model.stages_to_meet(
            bunch.length, bunch.target_delay, max_stages);
        if (sol) {
          p.feasible = true;
          p.stages = sol->stages;
          p.delay = sol->delay;
          // Footnote 3: optionally charge the sized driver too.
          const auto cells =
              options.charge_drivers ? sol->stages : sol->stages - 1;
          p.area_per_wire = static_cast<double>(cells) *
                            (electrical.stack.pair(j).s_opt * a_inv);
        }
      }
      writer.add_row(row.data());
    }
    util::maybe_inject(kSiteAssemble);
    return std::move(writer).finish();
  });
}

Instance InstanceBuilder::build(const RankOptions& options) {
  TRACE_SPAN("builder.build");
  options.validate();
  const std::scoped_lock lock(mutex_);
  const util::ScopedTimer timer(&profile_.total_seconds);

  const std::vector<wld::WireGroup>& groups = coarsen_stage(options);
  const tech::DieModel& die = die_stage(options);
  const StackStage& electrical = stack_stage(options);
  Instance inst = plan_stage(options, groups, die, electrical);

  ++profile_.builds;
  kBuilds.inc();
  return inst;
}

void InstanceBuilder::build_into(const RankOptions& options, Instance& out) {
  out = build(options);
}

BuildProfile InstanceBuilder::profile() const {
  const std::scoped_lock lock(mutex_);
  return profile_;
}

Instance build_instance(const DesignSpec& design, const RankOptions& options,
                        const wld::Wld& wld_in_pitches) {
  return InstanceBuilder(design, wld_in_pitches).build(options);
}

}  // namespace iarank::core
