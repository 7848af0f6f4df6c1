/// \file sweep.hpp
/// \brief Parameter sweeps reproducing the paper's Table 4, and the
///        K-vs-M equivalence analysis of Section 5.2.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/instance_builder.hpp"
#include "src/util/status.hpp"

namespace iarank::core {

/// Which RankOptions field a sweep varies.
enum class SweepParameter {
  kIldPermittivity,   ///< Table 4 column K
  kMillerFactor,      ///< Table 4 column M
  kClockFrequency,    ///< Table 4 column C [Hz]
  kRepeaterFraction,  ///< Table 4 column R
};

[[nodiscard]] std::string to_string(SweepParameter p);

/// Parses the Table 4 column letter ("K", "M", "C", "R") used by the CLI
/// and the rank-server protocol. Throws util::Error(kBadInput) on any
/// other token.
[[nodiscard]] SweepParameter sweep_parameter_from_string(
    std::string_view token);

/// One evaluated sweep point. A point whose evaluation threw carries the
/// failure in `status` (result is value-initialized); the rest of the
/// grid still completes — per-point isolation is the sweep engine's
/// failure model.
struct SweepPoint {
  double value = 0.0;  ///< the swept parameter's value
  RankResult result;
  util::Status status;  ///< kOk, or why this point has no result
};

/// Observability of one sweep run: the builder's per-stage cache profile
/// plus the DP effort summed over all points. The count fields are
/// deterministic (identical across thread counts and hosts); the seconds
/// fields are wall-clock and vary run to run.
struct SweepProfile {
  BuildProfile build;                ///< staged instance construction
  double dp_seconds = 0.0;           ///< total wall time inside dp_rank
  std::int64_t dp_arena_nodes = 0;   ///< DP state elements, all points
  std::int64_t dp_max_frontier = 0;  ///< largest frontier seen at any point
  std::int64_t dp_heap_pops = 0;     ///< best-first candidates examined
  std::int64_t dp_verify_calls = 0;  ///< free-pack verifications run
  double total_seconds = 0.0;        ///< wall time of the whole sweep
  unsigned threads = 1;              ///< parallelism requested
  std::int64_t failed_points = 0;    ///< points with a non-ok status
  std::int64_t resumed_points = 0;   ///< points recovered from a checkpoint
  double checkpoint_seconds = 0.0;   ///< wall time in the journal (open+appends)
  double failed_point_seconds = 0.0;  ///< wall time spent on failed points
};

/// A completed sweep.
struct SweepResult {
  SweepParameter parameter{};
  std::vector<SweepPoint> points;
  SweepProfile profile;
};

/// Execution knobs of one sweep run.
struct SweepRunOptions {
  unsigned threads = 1;  ///< points evaluated concurrently (>= 1)

  /// Journaled checkpoint/resume: when non-empty, every completed point
  /// is appended to this CRC-guarded journal (util::CheckpointJournal),
  /// keyed by a digest of (design, WLD, options, parameter, grid). A rerun
  /// after a crash — SIGKILL included — salvages all completed points and
  /// evaluates only the missing ones; resumed results are bitwise
  /// identical to an uninterrupted run. A key mismatch (the file belongs
  /// to different work) restarts the journal from scratch.
  std::string checkpoint_path;

  /// fsync the journal after every point (durable through power loss).
  /// Off still flushes per point, bounding loss to what the kernel had
  /// not written back at the crash.
  bool fsync_checkpoint = true;
};

/// Evaluates `values` of `parameter`, all other options at `base`.
/// The WLD is in gate pitches and shared across points. Points are
/// independent; `threads` > 1 evaluates them concurrently on the shared
/// util::ThreadPool (results are identical and ordered regardless of
/// thread count). A point whose evaluation throws is recorded in its
/// SweepPoint::status and the rest of the grid completes; only journal IO
/// errors (and pool misuse) propagate out of the sweep itself.
[[nodiscard]] SweepResult sweep_parameter(const DesignSpec& design,
                                          const RankOptions& base,
                                          const wld::Wld& wld_in_pitches,
                                          SweepParameter parameter,
                                          const std::vector<double>& values,
                                          unsigned threads = 1);

/// Same, against a caller-owned builder, so the stage caches persist
/// across sweeps (a K sweep after a C sweep reuses the coarsening and die
/// stages; repeating a sweep costs only cache hits plus the DP). Cached
/// evaluations are bitwise-identical to cold ones.
[[nodiscard]] SweepResult sweep_parameter(InstanceBuilder& builder,
                                          const RankOptions& base,
                                          SweepParameter parameter,
                                          const std::vector<double>& values,
                                          unsigned threads = 1);

/// Full-control variants (checkpointing lives here).
[[nodiscard]] SweepResult sweep_parameter(const DesignSpec& design,
                                          const RankOptions& base,
                                          const wld::Wld& wld_in_pitches,
                                          SweepParameter parameter,
                                          const std::vector<double>& values,
                                          const SweepRunOptions& run);

[[nodiscard]] SweepResult sweep_parameter(InstanceBuilder& builder,
                                          const RankOptions& base,
                                          SweepParameter parameter,
                                          const std::vector<double>& values,
                                          const SweepRunOptions& run);

/// The exact value grids of the paper's Table 4 (130 nm, 1M gates).
/// Generated by index (value = formula(i)), not by repeated addition, so
/// the grids have the documented sizes (22, 21, 13, 5) on every platform
/// and each entry is the double nearest the printed decimal.
[[nodiscard]] std::vector<double> table4_k_values();  ///< 3.9 down to 1.8
[[nodiscard]] std::vector<double> table4_m_values();  ///< 2.00 down to 1.00
[[nodiscard]] std::vector<double> table4_c_values();  ///< 0.5 to 1.7 GHz
[[nodiscard]] std::vector<double> table4_r_values();  ///< 0.1 to 0.5

/// The swept value at which normalized rank crosses `target` (linear
/// interpolation between the adjacent points). Handles both sweep shapes:
/// when rank increases along the sweep (K, M, R — the met region is a
/// suffix) it returns the first crossing; when rank decreases along the
/// sweep (C — the met region is a prefix) it returns the crossing out of
/// the met prefix, i.e. the largest clock still reaching `target`. Used
/// for the paper's headline: the K reduction and the M reduction that buy
/// the same rank. Returns NaN when the target is never reached.
[[nodiscard]] double value_reaching_rank(const SweepResult& sweep,
                                         double target_normalized);

}  // namespace iarank::core
