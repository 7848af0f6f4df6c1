/// \file instance_builder.hpp
/// \brief Staged, cached construction of rank-computation instances.
///
/// `build_instance` recomputes everything — coarsening, die sizing, the
/// electrical stack and the (bunch x pair) delay-plan matrix — on every
/// call, even though a Table 4 sweep changes a single RankOptions field
/// per point. The builder splits the construction into four cacheable
/// stages, each keyed on exactly the option fields it reads:
///
///  | stage   | output                          | cache key                              |
///  |---------|---------------------------------|----------------------------------------|
///  | coarsen | binned + bunched WLD groups     | (bin_window, bunch_size)               |
///  | die     | die model (paper Eq. 6)         | (repeater_fraction)                    |
///  | stack   | RC params + electrical stack    | (K, M, cap_model, switching a, b)      |
///  | plans   | the finished Instance: target-  | stack key + die key + coarsen key +    |
///  |         | delay bunches, pair header,     | (target_model, C, spacing, max_stages, |
///  |         | plan lanes and prefix tables    |  charge_drivers, max_noise_ratio,      |
///  |         |                                 |  pair_capacity_factor, vias_per_wire,  |
///  |         |                                 |  vias_per_repeater)                    |
///
/// The design and the WLD are fixed per builder (the architecture is
/// derived once from the design). A K-column sweep therefore recomputes
/// only the stack and plans stages; a C-column sweep only the plans
/// stage; repeating an already-seen option set costs four cache hits and
/// a reference-count bump, because the plans stage holds the Instance
/// itself (an immutable, shared table set — copying it shares the
/// tables). Cached builds are bitwise-identical to cold ones: the stages
/// run the very same arithmetic in the same order, and a hit returns a
/// previously computed value unchanged.
///
/// Thread-safety: `build` may be called concurrently (the sweep engine
/// does). Stage lookup/compute is serialized under one mutex; a warm
/// build holds it for four lookups. A returned Instance owns its share of
/// the tables, so it stays valid and unchanged after the builder evicts
/// (or destroys) its cache entry, on any thread.

#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <tuple>
#include <vector>

#include "src/core/instance.hpp"
#include "src/delay/stack.hpp"
#include "src/tech/architecture.hpp"
#include "src/tech/die.hpp"
#include "src/tech/rc.hpp"
#include "src/util/lru_cache.hpp"
#include "src/wld/wld.hpp"

namespace iarank::core {

/// Hit/miss counters and miss wall-time of one builder stage.
struct StageCounters {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  double seconds = 0.0;  ///< wall time spent computing misses
};

/// Aggregate profile of one InstanceBuilder (all builds so far).
struct BuildProfile {
  StageCounters coarsen;  ///< WLD binning + bunching
  StageCounters die;      ///< die sizing (Eq. 6)
  StageCounters stack;    ///< RC extraction + electrical stack
  StageCounters plans;    ///< targets + delay plans + instance tables
  std::int64_t builds = 0;
  double total_seconds = 0.0;  ///< wall time inside build(), all stages
};

class InstanceBuilder {
 public:
  /// Binds the builder to one design and one WLD (in gate pitches).
  /// Validates both and derives the architecture. `instance_capacity` is
  /// how many finished instances (plans-stage entries, ~350 KiB each at
  /// the 1M-gate baseline) the builder keeps; must be >= 1. Drivers whose
  /// every build has a new option set pass 1. Throws util::Error on
  /// invalid design, empty WLD or zero capacity.
  InstanceBuilder(DesignSpec design, wld::Wld wld_in_pitches,
                  std::size_t instance_capacity = 64);

  /// The instance for `options`, reusing every cached stage whose key is
  /// unchanged; a fully warm build allocates nothing. Thread-safe. Throws
  /// util::Error on invalid options.
  [[nodiscard]] Instance build(const RankOptions& options);

  /// `out = build(options)`.
  void build_into(const RankOptions& options, Instance& out);

  /// Snapshot of the cache/timing counters.
  [[nodiscard]] BuildProfile profile() const;

  /// FNV-1a digest of the fixed inputs (design + WLD), computed once at
  /// construction. Two builders with equal fingerprints produce bitwise
  /// identical instances for equal options; the sweep checkpoint key is
  /// built on this.
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  // Stage keys: tuples of exactly the option fields each stage reads.
  using CoarsenKey = std::tuple<double, std::int64_t>;
  using DieKey = double;
  using StackKey = std::tuple<double, double, int, double, double>;
  using PlanKey = std::tuple<StackKey, DieKey, CoarsenKey, int, double,
                             double, std::int64_t, bool, double, double,
                             double, double>;

  struct StackStage {
    tech::RcParams rc;
    delay::ElectricalStack stack;
  };

  [[nodiscard]] const std::vector<wld::WireGroup>& coarsen_stage(
      const RankOptions& options);
  [[nodiscard]] const tech::DieModel& die_stage(const RankOptions& options);
  [[nodiscard]] const StackStage& stack_stage(const RankOptions& options);
  [[nodiscard]] const Instance& plan_stage(
      const RankOptions& options, const std::vector<wld::WireGroup>& groups,
      const tech::DieModel& die, const StackStage& electrical);

  DesignSpec design_;
  wld::Wld wld_;
  tech::Architecture arch_;  ///< derived once; design is fixed per builder
  double wld_max_pitches_ = 0.0;
  std::uint64_t fingerprint_ = 0;

  mutable std::mutex mutex_;
  util::LruCache<CoarsenKey, std::vector<wld::WireGroup>> coarsen_cache_{8};
  util::LruCache<DieKey, tech::DieModel> die_cache_{32};
  util::LruCache<StackKey, StackStage> stack_cache_{32};
  util::LruCache<PlanKey, Instance> plan_cache_;
  BuildProfile profile_;
};

}  // namespace iarank::core
