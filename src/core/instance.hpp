/// \file instance.hpp
/// \brief The concrete assignment problem consumed by every rank engine.
///
/// An Instance freezes one rank computation: the coarsened WLD (bunches of
/// identical-length wires, longest first — paper Section 5.1), the
/// layer-pair stack with derived electrical and area parameters (topmost
/// first), the die area, the repeater area budget, and a precomputed
/// (bunch x pair) table of wiring areas and repeater plans. All engines —
/// the exact DP, the paper-faithful 4-D reference DP, the greedy baseline
/// and the brute-force oracle — operate on this one structure, which is
/// what makes their cross-validation meaningful.
///
/// Geometry and blockage conventions (paper Section 3 / 4.2 / 4.3):
///  * wire area of a length-l wire on pair j is l * (W_j + S_j); the
///    L-corner via is folded into this area;
///  * a wire on pair j blocks via area in every pair strictly below j
///    (vias_per_wire cuts of that pair's via size);
///  * a repeater on pair j blocks one via cut in every pair strictly
///    below j;
///  * available area per pair is the pair's routing capacity
///    (pair_capacity_factor x A_d; two layers per pair by default) minus
///    that blockage.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/options.hpp"
#include "src/delay/stack.hpp"
#include "src/wld/wld.hpp"

namespace iarank::core {

/// One assignment unit: `count` wires of identical physical length.
struct Bunch {
  double length = 0.0;        ///< physical wire length [m]
  std::int64_t count = 0;     ///< wires in this bunch
  double target_delay = 0.0;  ///< d_i of each wire [s]
};

/// Per-layer-pair parameters needed by the assignment engines.
struct PairInfo {
  std::string name;        ///< e.g. "G1 (global)"
  double pitch = 0.0;      ///< W_j + S_j [m]
  double via_area = 0.0;   ///< v_a of this pair [m^2]
  double s_opt = 0.0;      ///< optimal repeater size [min-inverter units]
  double repeater_area = 0.0;  ///< silicon area of ONE repeater (s_opt x a_inv) [m^2]
};

/// Result of planning repeater insertion for one wire of a bunch on one
/// pair (paper Section 4.1 incremental insertion, solved in closed form).
struct DelayPlan {
  bool feasible = false;        ///< can this wire meet its target here?
  std::int64_t stages = 1;      ///< eta; repeaters per wire = stages - 1
  double delay = 0.0;           ///< achieved delay [s]
  double area_per_wire = 0.0;   ///< repeater area per wire [m^2]

  [[nodiscard]] std::int64_t repeaters_per_wire() const { return stages - 1; }
};

/// Frozen rank-computation input: a value handle over one immutable
/// table set. Build via `build_instance` / `InstanceBuilder` (physical
/// flow) or `Instance::from_raw` (hand-crafted scenarios, e.g. the
/// Figure 2 counterexample and unit tests). The tables — bunches, pair
/// header, plan lanes and prefix tables — are computed once (by a
/// RowWriter, which from_raw drives) and never change, so copying an
/// Instance is a reference-count bump and copies share every lane; a copy
/// stays valid however long the builder cache that produced it keeps its
/// entry. A default-constructed Instance is an empty handle: assign to it
/// before calling any accessor.
class Instance {
  struct Tables;  // defined below

 public:
  /// Raw constructor: bunches must be sorted by non-increasing length,
  /// pairs ordered top to bottom. `plans[b][j]` gives the delay plan of
  /// bunch b on pair j. Throws util::Error on inconsistent shapes.
  [[nodiscard]] static Instance from_raw(std::vector<Bunch> bunches,
                                         std::vector<PairInfo> pairs,
                                         std::vector<std::vector<DelayPlan>> plans,
                                         double pair_capacity,
                                         double repeater_budget,
                                         tech::ViaSpec vias);

  /// from_raw fed one bunch row of plans at a time, so a caller that
  /// computes plans row by row (the builder's plans stage) never holds the
  /// nested plan matrix next to the tables. Same validation, same tables.
  class RowWriter {
   public:
    /// Validates everything but the plans. Throws util::Error.
    RowWriter(std::vector<Bunch> bunches, std::vector<PairInfo> pairs,
              double pair_capacity, double repeater_budget,
              tech::ViaSpec vias);

    [[nodiscard]] const std::vector<Bunch>& bunches() const {
      return t_->bunches;
    }
    /// Plans of the next bunch on pairs 0..pair_count()-1.
    void add_row(const DelayPlan* row);
    /// The instance; every bunch row must have been added.
    [[nodiscard]] Instance finish() &&;

   private:
    std::shared_ptr<Tables> t_;
    std::size_t rows_ = 0;
  };

  Instance() = default;

  // --- Shape ----------------------------------------------------------------
  [[nodiscard]] std::size_t bunch_count() const { return t_->bunches.size(); }
  [[nodiscard]] std::size_t pair_count() const { return t_->pairs.size(); }
  [[nodiscard]] const std::vector<Bunch>& bunches() const {
    return t_->bunches;
  }
  [[nodiscard]] const std::vector<PairInfo>& pairs() const {
    return t_->pairs;
  }
  [[nodiscard]] const Bunch& bunch(std::size_t b) const {
    return t_->bunches[b];
  }
  [[nodiscard]] const PairInfo& pair(std::size_t j) const {
    return t_->pairs[j];
  }

  // --- Globals ----------------------------------------------------------------
  [[nodiscard]] double pair_capacity() const { return t_->pair_capacity; }
  [[nodiscard]] double repeater_budget() const { return t_->repeater_budget; }
  [[nodiscard]] const tech::ViaSpec& vias() const { return t_->vias; }
  [[nodiscard]] std::int64_t total_wires() const {
    return t_->wires_before.back();
  }

  /// Wires in bunches [0, b) — the number of wires strictly above the
  /// first wire of bunch b in rank order.
  [[nodiscard]] std::int64_t wires_before(std::size_t b) const;

  // --- Per (bunch, pair) quantities ---------------------------------------------
  /// Wiring area of `wires` wires of bunch b on pair j.
  [[nodiscard]] double wire_area(std::size_t b, std::size_t j,
                                 std::int64_t wires) const;

  /// Delay/repeater plan of one wire of bunch b on pair j, reassembled
  /// from the lanes; every field equals the one given to from_raw.
  [[nodiscard]] DelayPlan plan(std::size_t b, std::size_t j) const;

  /// Via blockage charged against pair j when `wires_above` wires and
  /// `repeaters_above` repeaters live on pairs 0..j-1.
  [[nodiscard]] double blockage(std::size_t j, double wires_above,
                                double repeaters_above) const;

  /// Max wires of bunch b, starting at `offset` wires already consumed,
  /// that fit in pair j given `area_used` wiring area already in the pair
  /// and the blockage arguments. Used by the packing engines.
  [[nodiscard]] std::int64_t max_fit(std::size_t b, std::size_t j,
                                     std::int64_t offset, double area_used,
                                     double wires_above,
                                     double repeaters_above) const;

  // --- Prefix-cost tables ----------------------------------------------------
  // Per-pair cumulative delay-met costs over bunches [0, b), built once in
  // from_raw so the engines' chunk loops become prefix differences plus a
  // binary search (DESIGN.md Section 10). Sums skip infeasible plans (a
  // feasible chunk never crosses one — guard with first_infeasible). All
  // four rank engines read these same tables, so any floating-point
  // difference vs. sequential accumulation is shared and cross-engine
  // agreement is preserved.

  /// Cumulative wiring area of bunches [0, b) fully placed on pair j.
  [[nodiscard]] double prefix_wire_area(std::size_t j, std::size_t b) const {
    return t_->prefix_wire_area[j * t_->stride + b];
  }
  /// Cumulative repeater area of delay-met bunches [0, b) on pair j.
  [[nodiscard]] double prefix_repeater_area(std::size_t j, std::size_t b) const {
    return t_->prefix_rep_area[j * t_->stride + b];
  }
  /// Cumulative repeater count of delay-met bunches [0, b) on pair j.
  [[nodiscard]] std::int64_t prefix_repeater_count(std::size_t j,
                                                   std::size_t b) const {
    return t_->prefix_rep_count[j * t_->stride + b];
  }
  /// First bunch t >= b whose plan on pair j is infeasible (bunch_count()
  /// when every bunch from b on is feasible). A delay-met chunk [b, b+c)
  /// on pair j is plan-feasible iff first_infeasible(j, b) >= b + c, and
  /// plan(b, j) is feasible iff first_infeasible(j, b) != b.
  [[nodiscard]] std::size_t first_infeasible(std::size_t j,
                                             std::size_t b) const {
    return t_->next_infeasible[j * t_->stride + b];
  }

  /// Aggregate cost of the delay-met chunk [b, b+c) on pair j, as prefix
  /// differences. Caller guarantees plan feasibility over the range.
  struct ChunkTotals {
    double wire_area = 0.0;
    double rep_area = 0.0;
    std::int64_t rep_count = 0;
  };
  [[nodiscard]] ChunkTotals chunk_totals(std::size_t j, std::size_t b,
                                         std::size_t c) const {
    const Tables& t = *t_;
    const std::size_t base = j * t.stride;
    return {t.prefix_wire_area[base + b + c] - t.prefix_wire_area[base + b],
            t.prefix_rep_area[base + b + c] - t.prefix_rep_area[base + b],
            t.prefix_rep_count[base + b + c] - t.prefix_rep_count[base + b]};
  }

  /// Largest c such that the delay-met chunk [b, b+c) on pair j has every
  /// plan feasible, wire area <= wire_limit and repeater area <= rep_limit
  /// (absolute limits, tolerances folded in by the caller). Binary search
  /// over the monotone prefix sums.
  [[nodiscard]] std::int64_t max_feasible_chunk(std::size_t j, std::size_t b,
                                                double wire_limit,
                                                double rep_limit) const;

  // --- Structure-of-arrays lanes ---------------------------------------------
  // Flat per-pair views for the data-oriented DP kernel: the forward pass
  // reads one field of many bunches at a time. Each pair lane is
  // bunch_count() + 1 long — index bunch_count() is a sentinel row (zero
  // cost) so batched reads at a chunk's one-past-the-end bunch stay in
  // bounds. Lane values are the plan()/bunch() fields themselves, so lane
  // reads are bitwise-identical to AoS reads.

  /// plan(b, j).area_per_wire, lane of pair j (sentinel 0.0 at index n).
  [[nodiscard]] const double* plan_area_per_wire_lane(std::size_t j) const {
    return t_->area_per_wire.data() + j * t_->stride;
  }
  /// plan(b, j).repeaters_per_wire(), lane of pair j (sentinel 0).
  [[nodiscard]] const std::int64_t* plan_reps_per_wire_lane(
      std::size_t j) const {
    return t_->reps_per_wire.data() + j * t_->stride;
  }
  /// wires_before(b) for b in [0, bunch_count()], unchecked; bunch b holds
  /// lane[b + 1] - lane[b] wires.
  [[nodiscard]] const std::int64_t* wires_before_lane() const {
    return t_->wires_before.data();
  }
  /// prefix_repeater_area(j, b) for b in [0, bunch_count()].
  [[nodiscard]] const double* prefix_repeater_area_lane(std::size_t j) const {
    return t_->prefix_rep_area.data() + j * t_->stride;
  }
  /// prefix_repeater_count(j, b) for b in [0, bunch_count()].
  [[nodiscard]] const std::int64_t* prefix_repeater_count_lane(
      std::size_t j) const {
    return t_->prefix_rep_count.data() + j * t_->stride;
  }
  /// prefix_wire_area(j, b) for b in [0, bunch_count()].
  [[nodiscard]] const double* prefix_wire_area_lane(std::size_t j) const {
    return t_->prefix_wire_area.data() + j * t_->stride;
  }
  /// first_infeasible(j, b) for b in [0, bunch_count()].
  [[nodiscard]] const std::uint32_t* first_infeasible_lane(
      std::size_t j) const {
    return t_->next_infeasible.data() + j * t_->stride;
  }

 private:
  /// Everything an Instance reads, built once by a RowWriter. The plan
  /// matrix is stored only as flat [pair][bunch] lanes of stride `stride`
  /// (bunch_count() + 1): feasibility is next_infeasible[b] != b, stages
  /// is reps_per_wire + 1, and a bunch's wire count is the wires_before
  /// difference, so no field is held twice.
  struct Tables {
    std::vector<Bunch> bunches;
    std::vector<PairInfo> pairs;
    std::vector<std::int64_t> wires_before;  ///< prefix sums, size B+1
    std::size_t stride = 0;                  ///< bunch_count() + 1
    std::vector<std::int64_t> reps_per_wire;
    std::vector<double> area_per_wire;
    std::vector<double> delay;
    std::vector<double> prefix_wire_area;
    std::vector<double> prefix_rep_area;
    std::vector<std::int64_t> prefix_rep_count;
    std::vector<std::uint32_t> next_infeasible;
    double pair_capacity = 0.0;
    double repeater_budget = 0.0;
    tech::ViaSpec vias;
  };

  std::shared_ptr<const Tables> t_;
};

/// Builds the physical instance: scales the (gate-pitch) WLD to metres via
/// the die model, derives per-pair electricals, computes target delays and
/// the (bunch x pair) plan table, applies binning and bunching.
/// Throws util::Error on invalid inputs.
[[nodiscard]] Instance build_instance(const DesignSpec& design,
                                      const RankOptions& options,
                                      const wld::Wld& wld_in_pitches);

}  // namespace iarank::core
