#include "src/core/instance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/error.hpp"

namespace iarank::core {

Instance::RowWriter::RowWriter(std::vector<Bunch> bunches,
                               std::vector<PairInfo> pairs,
                               double pair_capacity, double repeater_budget,
                               tech::ViaSpec vias) {
  iarank::util::require(!pairs.empty(), "Instance: need >= 1 layer-pair");
  // next_infeasible lanes hold bunch indices as uint32_t.
  iarank::util::require(
      bunches.size() < std::numeric_limits<std::uint32_t>::max(),
      "Instance: too many bunches");
  for (std::size_t b = 0; b + 1 < bunches.size(); ++b) {
    iarank::util::require(bunches[b].length >= bunches[b + 1].length,
                          "Instance: bunches must be sorted longest first");
  }
  for (const Bunch& b : bunches) {
    iarank::util::require(b.length > 0.0 && b.count >= 1,
                          "Instance: bunches need positive length and count");
    iarank::util::require(b.target_delay >= 0.0,
                          "Instance: target delay must be >= 0");
  }
  for (const PairInfo& p : pairs) {
    iarank::util::require(p.pitch > 0.0 && p.via_area >= 0.0 &&
                              p.repeater_area >= 0.0,
                          "Instance: invalid pair parameters");
  }
  iarank::util::require(pair_capacity > 0.0,
                        "Instance: pair_capacity must be > 0");
  iarank::util::require(repeater_budget >= 0.0,
                        "Instance: repeater_budget must be >= 0");
  vias.validate();

  const std::size_t n = bunches.size();
  t_ = std::make_shared<Tables>();
  Tables& t = *t_;
  t.pair_capacity = pair_capacity;
  t.repeater_budget = repeater_budget;
  t.vias = vias;
  t.wires_before.assign(n + 1, 0);
  for (std::size_t b = 0; b < n; ++b) {
    t.wires_before[b + 1] = t.wires_before[b] + bunches[b].count;
  }
  // [pair][bunch] lanes with a sentinel row at index n (zero cost,
  // next_infeasible n) so chunk-boundary reads at b + c == n stay in
  // bounds.
  t.stride = n + 1;
  const std::size_t cells = pairs.size() * t.stride;
  t.reps_per_wire.assign(cells, 0);
  t.area_per_wire.assign(cells, 0.0);
  t.delay.assign(cells, 0.0);
  t.prefix_wire_area.assign(cells, 0.0);
  t.prefix_rep_area.assign(cells, 0.0);
  t.prefix_rep_count.assign(cells, 0);
  t.next_infeasible.assign(cells, static_cast<std::uint32_t>(n));
  t.bunches = std::move(bunches);
  t.pairs = std::move(pairs);
}

void Instance::RowWriter::add_row(const DelayPlan* row) {
  Tables& t = *t_;
  iarank::util::require(rows_ < t.bunches.size(),
                        "Instance: plans rows must match bunch count");
  const std::size_t b = rows_++;
  const std::int64_t count = t.bunches[b].count;
  for (std::size_t j = 0; j < t.pairs.size(); ++j) {
    const DelayPlan& plan = row[j];
    const std::size_t e = j * t.stride + b;
    const double wire =
        t.bunches[b].length * t.pairs[j].pitch * static_cast<double>(count);
    t.reps_per_wire[e] = plan.repeaters_per_wire();
    t.area_per_wire[e] = plan.area_per_wire;
    t.delay[e] = plan.delay;
    // Infeasible plans contribute zero repeater cost: delay-met chunk
    // queries never span them (next_infeasible guards), and the
    // wire-area prefix is plan-independent so it stays usable across
    // them (the reference DP's delay-free spans rely on that).
    t.prefix_wire_area[e + 1] = t.prefix_wire_area[e] + wire;
    t.prefix_rep_area[e + 1] =
        t.prefix_rep_area[e] +
        (plan.feasible ? static_cast<double>(count) * plan.area_per_wire
                       : 0.0);
    t.prefix_rep_count[e + 1] =
        t.prefix_rep_count[e] +
        (plan.feasible ? count * plan.repeaters_per_wire() : 0);
    // Marks the infeasible bunch itself; finish() resolves the rest.
    if (!plan.feasible) t.next_infeasible[e] = static_cast<std::uint32_t>(b);
  }
}

Instance Instance::RowWriter::finish() && {
  Tables& t = *t_;
  const std::size_t n = t.bunches.size();
  iarank::util::require(rows_ == n,
                        "Instance: plans rows must match bunch count");
  // Backward pass: first infeasible bunch at or after b.
  for (std::size_t j = 0; j < t.pairs.size(); ++j) {
    const std::size_t base = j * t.stride;
    for (std::size_t b = n; b-- > 0;) {
      if (t.next_infeasible[base + b] != b) {
        t.next_infeasible[base + b] = t.next_infeasible[base + b + 1];
      }
    }
  }
  Instance inst;
  inst.t_ = std::move(t_);
  return inst;
}

Instance Instance::from_raw(std::vector<Bunch> bunches,
                            std::vector<PairInfo> pairs,
                            std::vector<std::vector<DelayPlan>> plans,
                            double pair_capacity, double repeater_budget,
                            tech::ViaSpec vias) {
  iarank::util::require(plans.size() == bunches.size(),
                        "Instance: plans rows must match bunch count");
  for (const auto& row : plans) {
    iarank::util::require(row.size() == pairs.size(),
                          "Instance: plans columns must match pair count");
  }
  RowWriter writer(std::move(bunches), std::move(pairs), pair_capacity,
                   repeater_budget, vias);
  for (const std::vector<DelayPlan>& row : plans) writer.add_row(row.data());
  return std::move(writer).finish();
}

std::int64_t Instance::max_feasible_chunk(std::size_t j, std::size_t b,
                                          double wire_limit,
                                          double rep_limit) const {
  const Tables& t = *t_;
  const std::size_t base = j * t.stride;
  const std::size_t cap = std::min(first_infeasible(j, b), bunch_count());
  const double w0 = t.prefix_wire_area[base + b];
  const double r0 = t.prefix_rep_area[base + b];
  // Invariant: chunk [b, b+lo) satisfies both limits, [b, b+hi+1) does not
  // (or hi is the feasibility cap). The prefix sums are nondecreasing, so
  // the predicate is monotone in c.
  std::int64_t lo = 0;
  std::int64_t hi = static_cast<std::int64_t>(cap - b);
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo + 1) / 2;
    const auto e = base + b + static_cast<std::size_t>(mid);
    if (t.prefix_wire_area[e] - w0 <= wire_limit &&
        t.prefix_rep_area[e] - r0 <= rep_limit) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

std::int64_t Instance::wires_before(std::size_t b) const {
  iarank::util::require(b < t_->wires_before.size(),
                        "Instance: bunch index out of range");
  return t_->wires_before[b];
}

double Instance::wire_area(std::size_t b, std::size_t j,
                           std::int64_t wires) const {
  return bunch(b).length * pair(j).pitch * static_cast<double>(wires);
}

DelayPlan Instance::plan(std::size_t b, std::size_t j) const {
  iarank::util::require(b < bunch_count() && j < pair_count(),
                        "Instance: plan index out of range");
  const Tables& t = *t_;
  const std::size_t e = j * t.stride + b;
  DelayPlan p;
  p.feasible = t.next_infeasible[e] != b;
  p.stages = t.reps_per_wire[e] + 1;
  p.delay = t.delay[e];
  p.area_per_wire = t.area_per_wire[e];
  return p;
}

double Instance::blockage(std::size_t j, double wires_above,
                          double repeaters_above) const {
  return (t_->vias.vias_per_wire * wires_above +
          t_->vias.vias_per_repeater * repeaters_above) *
         pair(j).via_area;
}

std::int64_t Instance::max_fit(std::size_t b, std::size_t j,
                               std::int64_t offset, double area_used,
                               double wires_above,
                               double repeaters_above) const {
  const Bunch& group = bunch(b);
  const std::int64_t available = group.count - offset;
  if (available <= 0) return 0;
  const double free_area = pair_capacity() - area_used -
                           blockage(j, wires_above, repeaters_above);
  const double per_wire = group.length * pair(j).pitch;
  if (per_wire <= 0.0) return available;
  if (free_area <= 0.0) return 0;
  // Clamp in double space: for degenerate (near-zero) pitches the quotient
  // can exceed the int64 range, and casting such a double is undefined
  // behaviour. `available` is a wire count, so the round-trip through
  // double below is exact.
  const double fit = std::floor(free_area / per_wire * (1.0 + 1e-12));
  if (fit <= 0.0) return 0;
  if (fit >= static_cast<double>(available)) return available;
  return static_cast<std::int64_t>(fit);
}

// build_instance lives in instance_builder.cpp: it is a thin wrapper over
// the staged InstanceBuilder, which caches per-stage results across sweep
// points.

}  // namespace iarank::core
