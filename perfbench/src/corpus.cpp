#include "corpus.hpp"

#include <algorithm>
#include <iterator>
#include <cmath>
#include <sstream>

#include "src/core/brute_force.hpp"
#include "src/core/config_run.hpp"
#include "src/core/instance_builder.hpp"
#include "src/core/reference_dp.hpp"
#include "src/util/config.hpp"
#include "src/util/rng.hpp"
#include "src/util/strings.hpp"

namespace perfbench {

using iarank::core::Bunch;
using iarank::core::DelayPlan;
using iarank::core::Instance;
using iarank::core::PairInfo;
using iarank::util::Rng;

namespace {

// Corpus shape. The synthetic part is where the DP's search and
// verification layers do real work: no physical input reaches them (every
// physical config solves with max_frontier 1 and 2 heap pops).
constexpr std::size_t kSyntheticInstances = 24;
constexpr std::size_t kBruteInstances = 6;
constexpr std::size_t kReferenceInstances = 6;

Rng stream(std::uint64_t seed, std::uint64_t part, std::uint64_t index) {
  return Rng(seed * 0x9E3779B97F4A7C15ULL + part * 0x100000001B3ULL + index);
}

/// Physical instances: fine bunching, 6-8 layer-pairs, via blockage on,
/// at one Table 4 K and C each. They are the same for every seed: their
/// solve times differ by up to 10x with K and C, and drawing those from
/// the seed would make the corpus's total work depend on it.
struct PhysicalDesign {
  int global_pairs;
  int semi_global_pairs;
  int local_pairs;
  std::int64_t bunch_size;
  double k;
  double c;
};
constexpr PhysicalDesign kPhysical[] = {{1, 4, 1, 2000, 2.5, 6e8},
                                        {2, 4, 1, 1500, 2.6, 8e8},
                                        {2, 4, 2, 1000, 3.0, 1.2e9},
                                        {2, 4, 2, 3000, 3.8, 5e8}};

}  // namespace

const char* part_name(Part part) {
  switch (part) {
    case Part::kPhysical: return "physical";
    case Part::kSynthetic: return "synthetic";
    case Part::kExact: return "exact";
  }
  return "?";
}

std::vector<PhysicalPoint> physical_points() {
  std::vector<PhysicalPoint> out;
  for (const PhysicalDesign& d : kPhysical) {
    std::ostringstream os;
    os << "node = 130nm\ngates = 1000000\n"
       << "arch.global_pairs = " << d.global_pairs << "\n"
       << "arch.semi_global_pairs = " << d.semi_global_pairs << "\n"
       << "arch.local_pairs = " << d.local_pairs << "\n"
       << "bunch_size = " << d.bunch_size << "\n"
       << "ild_permittivity = " << iarank::util::format_double_shortest(d.k) << "\n"
       << "clock_hz = " << iarank::util::format_double_shortest(d.c) << "\n"
       << "vias_per_wire = 2\nvias_per_repeater = 1\n";
    out.push_back({os.str(), d.k, d.c});
  }
  return out;
}

namespace {

/// Seed-drawn shape of a synthetic instance; `instantiate` turns it into
/// an Instance for a given routing-capacity slack.
struct SyntheticShape {
  std::vector<Bunch> bunches;
  std::vector<PairInfo> pairs;
  std::vector<std::vector<DelayPlan>> plans;
  double wire_area = 0.0;  ///< all wires at the middle pair's pitch
  double budget = 0.0;
  std::string label;
};

SyntheticShape synthetic_shape(std::uint64_t variant, std::size_t slot,
                               std::uint64_t attempt) {
  Rng rng = stream(variant, 2, slot * 1024 + attempt);
  // Pair count is fixed per slot, so the corpus's mix of shapes does not
  // depend on the seed.
  const std::size_t m = 4 + slot % 5;
  constexpr std::size_t n = 500;
  SyntheticShape shape;

  // Lengths longest first; counts small so the prefix boundary is fine.
  std::vector<double> lengths(n);
  for (double& l : lengths) l = std::exp(rng.uniform(0.0, std::log(200.0)));
  std::sort(lengths.rbegin(), lengths.rend());
  for (const double l : lengths) {
    shape.bunches.push_back({l, rng.uniform_int(1, 20), 1.0});
  }

  // Top pairs are wide with large repeaters; lower pairs are narrow and
  // resistive (more, smaller repeaters). That trade of repeater area
  // against repeater count (which blocks vias below) is what grows the
  // DP's Pareto frontiers.
  std::vector<double> resistance;
  for (std::size_t j = 0; j < m; ++j) {
    const double depth = static_cast<double>(j);
    PairInfo p;
    p.name = "p";
    p.name += std::to_string(j);
    p.pitch = 2.0 * std::pow(0.8, depth) * rng.uniform(0.9, 1.1);
    p.via_area = 0.02 * p.pitch * p.pitch;
    p.s_opt = 1.0;
    p.repeater_area = 3.0 * std::pow(0.75, depth) * rng.uniform(0.9, 1.1);
    shape.pairs.push_back(p);
    resistance.push_back(std::pow(1.35, depth) * rng.uniform(0.9, 1.1));
  }

  const double reach = rng.uniform(15.0, 30.0);  // unbuffered reach, top pair
  constexpr std::int64_t kMaxStages = 16;
  shape.plans.assign(n, std::vector<DelayPlan>(m));
  double cheapest_prefix_area = 0.0;
  for (std::size_t b = 0; b < n; ++b) {
    const Bunch& bunch = shape.bunches[b];
    double cheapest = -1.0;
    for (std::size_t j = 0; j < m; ++j) {
      const auto stages =
          static_cast<std::int64_t>(std::ceil(bunch.length * resistance[j] / reach));
      DelayPlan& plan = shape.plans[b][j];
      plan.feasible = stages <= kMaxStages;
      if (!plan.feasible) continue;
      plan.stages = std::max<std::int64_t>(stages, 1);
      plan.delay = 0.9;
      plan.area_per_wire =
          static_cast<double>(plan.stages - 1) * shape.pairs[j].repeater_area;
      const double a = plan.area_per_wire * static_cast<double>(bunch.count);
      cheapest = cheapest < 0.0 ? a : std::min(cheapest, a);
    }
    if (cheapest > 0.0) cheapest_prefix_area += cheapest;
    shape.wire_area += bunch.length * static_cast<double>(bunch.count) *
                       shape.pairs[m / 2].pitch;
  }
  const double budget_share = rng.uniform(0.2, 0.6);
  shape.budget = budget_share * cheapest_prefix_area;
  std::ostringstream os;
  os << "synthetic variant=" << variant << " slot=" << slot << " attempt=" << attempt
     << " n=" << n << " m=" << m << " reach=" << reach
     << " budget_share=" << budget_share;
  shape.label = os.str();
  return shape;
}

Instance instantiate(const SyntheticShape& shape, double capacity_slack) {
  iarank::tech::ViaSpec vias;
  vias.vias_per_wire = 2.0;
  vias.vias_per_repeater = 1.0;
  const double capacity =
      capacity_slack * shape.wire_area / static_cast<double>(shape.pairs.size());
  return Instance::from_raw(shape.bunches, shape.pairs, shape.plans, capacity,
                            shape.budget, vias);
}

// Hardness band of a synthetic slot. The DP's verification count depends
// chaotically on the inputs but grows as routing capacity tightens, until
// the instance becomes unassignable. select_synthetic therefore draws a
// shape, drops it unless its frontier reaches kMinFrontier, then tightens
// capacity step by step, keeping the tightest instance whose solve needs
// at most kMaxVerify free-pack verifications; the shape is accepted when
// that instance needs at least kMinVerify. Every accepted solve costs about
// the same, so the corpus's total work varies little from variant to
// variant.
constexpr std::int64_t kMinVerify = 100;
constexpr std::int64_t kMaxVerify = 200;
constexpr std::int64_t kMinFrontier = 7;

// The selection runs the program's DP, so it is made once, when the
// benchmark is defined, and checked in (synthetic_slots.inc, printed by
// `perfbench --select-corpus`): the corpus must not change with the
// program it measures.
#include "synthetic_slots.inc"
static_assert(std::size(kSlotChoices[0]) == kSyntheticInstances);

}  // namespace

Instance synthetic_instance(std::uint64_t seed, std::size_t slot,
                            std::string* label) {
  const std::uint64_t variant = seed % std::size(kSlotChoices);
  const SlotChoice& choice = kSlotChoices[variant][slot];
  const SyntheticShape shape = synthetic_shape(variant, slot, choice.attempt);
  if (label != nullptr) {
    std::ostringstream os;
    os << shape.label << " capacity_slack=" << choice.slack;
    *label = os.str();
  }
  return instantiate(shape, choice.slack);
}

SlotChoice select_synthetic(std::uint64_t variant, std::size_t slot) {
  iarank::core::DpKernel kernel;
  iarank::core::RankResult result;
  iarank::core::DpOptions probe;
  probe.build_trace = false;
  for (std::uint32_t attempt = 0;; ++attempt) {
    const SyntheticShape shape = synthetic_shape(variant, slot, attempt);
    const auto solve = [&](double slack) {
      const Instance inst = instantiate(shape, slack);
      kernel.solve_into(inst, probe, result);
      return result.dp;
    };
    constexpr double kLoose = 1.4;
    if (solve(kLoose).max_frontier < kMinFrontier) continue;
    double best = -1.0;  // tightest slack with verify_calls <= kMaxVerify
    std::int64_t best_verify = 0;
    double under = kLoose;
    for (int step = 1; step <= 20; ++step) {  // slack 1.38 down to 1.0
      const double slack = kLoose - 0.02 * step;
      const iarank::core::RankResult::DpStats st = solve(slack);
      if (!result.all_assigned) break;
      if (st.verify_calls <= kMaxVerify) {
        under = slack;
        if (st.verify_calls >= best_verify) {
          best = slack;
          best_verify = st.verify_calls;
        }
        continue;
      }
      // Overshot: bisect back towards the last slack under the cap.
      double over = slack;
      for (int halving = 0; halving < 3; ++halving) {
        const double mid = 0.5 * (under + over);
        const iarank::core::RankResult::DpStats mst = solve(mid);
        if (result.all_assigned && mst.verify_calls <= kMaxVerify) {
          under = mid;
          if (mst.verify_calls >= best_verify) {
            best = mid;
            best_verify = mst.verify_calls;
          }
        } else {
          over = mid;
        }
      }
      break;
    }
    if (best_verify >= kMinVerify) return {attempt, best};
  }
}

std::size_t synthetic_slots() { return kSyntheticInstances; }

namespace {

/// Wire-granular instance (one wire per bunch) small enough for the
/// brute-force oracle (`reference` = false) or, with unit repeater areas,
/// an integer budget and no vias, for the reference DP in its exact
/// regime (`reference` = true).
CorpusEntry exact_instance(std::uint64_t seed, std::size_t index,
                           bool reference) {
  Rng rng = stream(seed, reference ? 4 : 3, index);
  const auto m = static_cast<std::size_t>(rng.uniform_int(2, 4));
  const auto n = static_cast<std::size_t>(
      reference ? rng.uniform_int(16, 24) : rng.uniform_int(8, 11));
  std::vector<double> lengths(n);
  for (double& l : lengths) l = rng.uniform(1.0, 10.0);
  std::sort(lengths.rbegin(), lengths.rend());
  std::vector<Bunch> bunches;
  for (const double l : lengths) bunches.push_back({l, 1, 1.0});

  const bool vias_on = !reference && rng.chance(0.6);
  std::vector<PairInfo> pairs;
  for (std::size_t j = 0; j < m; ++j) {
    PairInfo p;
    p.name = "p";
    p.name += std::to_string(j);
    p.pitch = rng.uniform(0.3, 2.0);
    p.via_area = vias_on ? rng.uniform(0.0, 0.08) : 0.0;
    p.s_opt = 1.0;
    p.repeater_area = reference ? 1.0 : rng.uniform(0.2, 1.5);
    pairs.push_back(p);
  }
  std::vector<std::vector<DelayPlan>> plans(n, std::vector<DelayPlan>(m));
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t j = 0; j < m; ++j) {
      DelayPlan& plan = plans[b][j];
      plan.feasible = rng.chance(0.9);
      if (!plan.feasible) continue;
      plan.stages = rng.uniform_int(1, 4);
      plan.delay = 0.9;
      plan.area_per_wire =
          static_cast<double>(plan.stages - 1) * pairs[j].repeater_area;
    }
  }
  // Capacity around the total wiring area and a budget below the cheapest
  // full prefix, so most instances are assignable and budget-bound.
  double wire_area = 0.0;
  double cheapest_area = 0.0;
  for (std::size_t b = 0; b < n; ++b) {
    wire_area += bunches[b].length * pairs[m / 2].pitch;
    double cheapest = -1.0;
    for (std::size_t j = 0; j < m; ++j) {
      if (!plans[b][j].feasible) continue;
      const double a = plans[b][j].area_per_wire;
      cheapest = cheapest < 0.0 ? a : std::min(cheapest, a);
    }
    if (cheapest > 0.0) cheapest_area += cheapest;
  }
  const double capacity =
      rng.uniform(1.3, 2.5) * wire_area / static_cast<double>(m);
  const double budget_share = rng.uniform(0.1, 0.8);
  const auto budget_units = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(budget_share * cheapest_area));
  const double budget = reference ? static_cast<double>(budget_units)
                                  : budget_share * cheapest_area;
  iarank::tech::ViaSpec vias;
  vias.vias_per_wire = vias_on ? 2.0 : 0.0;
  vias.vias_per_repeater = vias_on ? 1.0 : 0.0;

  CorpusEntry e;
  e.part = Part::kExact;
  e.instance = Instance::from_raw(std::move(bunches), std::move(pairs),
                                  std::move(plans), capacity, budget, vias);
  // The oracles work at bunch granularity without boundary refinement.
  e.options.refine_boundary = false;
  e.oracle = reference ? "reference_dp" : "brute_force";
  e.oracle_quanta = static_cast<int>(budget_units);
  std::ostringstream os;
  os << "exact seed=" << seed << " index=" << index << " oracle=" << e.oracle
     << " n=" << n << " m=" << m;
  e.label = os.str();
  return e;
}

}  // namespace

std::int64_t oracle_rank(const CorpusEntry& entry) {
  if (entry.oracle == "brute_force") {
    return iarank::core::brute_force_rank(entry.instance).rank;
  }
  if (entry.oracle == "reference_dp") {
    iarank::core::ReferenceDpOptions ref;
    ref.area_quanta = entry.oracle_quanta;
    return iarank::core::reference_dp_rank(entry.instance, ref).rank;
  }
  return -1;
}

std::vector<CorpusEntry> build_corpus(std::uint64_t seed) {
  std::vector<CorpusEntry> corpus;
  std::size_t index = 0;
  for (const PhysicalPoint& point : physical_points()) {
    const std::string& text = point.config;
    const iarank::core::RunSpec spec = iarank::core::run_spec_from_config(
        iarank::util::Config::parse(text));
    iarank::core::InstanceBuilder builder(spec.design,
                                          iarank::core::resolve_wld(spec));
    CorpusEntry e;
    e.part = Part::kPhysical;
    e.instance = builder.build(spec.options);
    e.options.refine_boundary = spec.options.refine_boundary;
    std::string flat = text;
    std::replace(flat.begin(), flat.end(), '\n', ';');
    e.label = "physical index=" + std::to_string(index++) + " config: " + flat;
    corpus.push_back(std::move(e));
  }
  for (std::size_t i = 0; i < kSyntheticInstances; ++i) {
    CorpusEntry e;
    e.part = Part::kSynthetic;
    e.instance = synthetic_instance(seed, i, &e.label);
    e.label = "seed=" + std::to_string(seed) + " " + e.label;
    corpus.push_back(std::move(e));
  }
  for (CorpusEntry& e : exact_part(seed)) corpus.push_back(std::move(e));
  return corpus;
}

std::vector<CorpusEntry> exact_part(std::uint64_t seed) {
  std::vector<CorpusEntry> part;
  for (std::size_t i = 0; i < kBruteInstances; ++i) {
    part.push_back(exact_instance(seed, i, false));
  }
  for (std::size_t i = 0; i < kReferenceInstances; ++i) {
    part.push_back(exact_instance(seed, i, true));
  }
  return part;
}

}  // namespace perfbench
