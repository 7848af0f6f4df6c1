#include "src/core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>

#include "src/core/checkpoint.hpp"
#include "src/util/error.hpp"
#include "src/util/event_log.hpp"
#include "src/util/journal.hpp"
#include "src/util/metrics.hpp"
#include "src/util/stopwatch.hpp"
#include "src/util/thread_pool.hpp"
#include "src/util/trace.hpp"
#include "src/util/units.hpp"

namespace iarank::core {

namespace units = iarank::util::units;

std::string to_string(SweepParameter p) {
  switch (p) {
    case SweepParameter::kIldPermittivity:
      return "K (ILD permittivity)";
    case SweepParameter::kMillerFactor:
      return "M (Miller coupling factor)";
    case SweepParameter::kClockFrequency:
      return "C (target clock frequency)";
    case SweepParameter::kRepeaterFraction:
      return "R (max repeater fraction)";
  }
  return "unknown";
}

SweepParameter sweep_parameter_from_string(std::string_view token) {
  if (token == "K") return SweepParameter::kIldPermittivity;
  if (token == "M") return SweepParameter::kMillerFactor;
  if (token == "C") return SweepParameter::kClockFrequency;
  if (token == "R") return SweepParameter::kRepeaterFraction;
  throw util::Error("sweep: unknown parameter '" + std::string(token) +
                    "' (expected K, M, C or R)");
}

namespace {

// Point outcomes are deterministic (a point either evaluates or throws
// regardless of scheduling), so ok/failed/resumed totals are identical
// across thread counts.
util::Counter& kSweepRuns = util::MetricsRegistry::counter(
    "iarank_sweep_runs_total", "sweep_parameter invocations");
util::Counter& kSweepPointsOk = util::MetricsRegistry::counter(
    "iarank_sweep_points_ok_total", "sweep points evaluated successfully");
util::Counter& kSweepPointsFailed = util::MetricsRegistry::counter(
    "iarank_sweep_points_failed_total",
    "sweep points whose evaluation threw");
util::Counter& kSweepPointsResumed = util::MetricsRegistry::counter(
    "iarank_sweep_points_resumed_total",
    "sweep points recovered from a checkpoint journal");
util::Histogram& kSweepPointSeconds = util::MetricsRegistry::histogram(
    "iarank_sweep_point_seconds", util::Histogram::duration_bounds(),
    "wall time per evaluated sweep point");

RankOptions with_value(const RankOptions& base, SweepParameter parameter,
                       double v) {
  RankOptions opt = base;
  switch (parameter) {
    case SweepParameter::kIldPermittivity:
      opt.ild_permittivity = v;
      break;
    case SweepParameter::kMillerFactor:
      opt.miller_factor = v;
      break;
    case SweepParameter::kClockFrequency:
      opt.clock_frequency = v;
      break;
    case SweepParameter::kRepeaterFraction:
      opt.repeater_fraction = v;
      break;
  }
  return opt;
}

}  // namespace

SweepResult sweep_parameter(InstanceBuilder& builder, const RankOptions& base,
                            SweepParameter parameter,
                            const std::vector<double>& values,
                            const SweepRunOptions& run) {
  iarank::util::require(run.threads >= 1,
                        "sweep_parameter: threads must be >= 1");
  TRACE_SPAN("sweep");
  kSweepRuns.inc();
  util::Stopwatch total;
  auto& events = util::EventLog::instance();
  if (events.enabled()) {
    util::Json fields;
    fields["parameter"] = to_string(parameter);
    fields["points"] = static_cast<std::int64_t>(values.size());
    fields["threads"] = static_cast<std::int64_t>(run.threads);
    events.emit(util::Severity::kInfo, "sweep.start", std::move(fields));
  }
  const BuildProfile before = builder.profile();

  SweepResult out;
  out.parameter = parameter;
  out.points.resize(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    out.points[i].value = values[i];
  }

  // Checkpoint/resume: recover every journaled point whose index and
  // value still match the grid (the key digest already pins the whole
  // configuration; the per-point value check is belt and braces against
  // a hand-edited journal).
  std::unique_ptr<util::CheckpointJournal> journal;
  std::vector<char> done(values.size(), 0);
  std::atomic<std::int64_t> checkpoint_nanos{0};
  if (!run.checkpoint_path.empty()) {
    util::Stopwatch open_timer;
    util::CheckpointJournal::Options jopt;
    jopt.fsync_each_append = run.fsync_checkpoint;
    journal = std::make_unique<util::CheckpointJournal>(
        run.checkpoint_path,
        sweep_checkpoint_key(builder.fingerprint(), base, parameter, values),
        jopt);
    for (const auto& [index, payload] : journal->entries()) {
      if (index < 0 || static_cast<std::size_t>(index) >= values.size()) {
        continue;
      }
      const auto i = static_cast<std::size_t>(index);
      SweepPoint point;
      if (!decode_sweep_point(payload, point)) continue;
      if (std::bit_cast<std::uint64_t>(point.value) !=
          std::bit_cast<std::uint64_t>(values[i])) {
        continue;
      }
      out.points[i] = std::move(point);
      done[i] = 1;
      ++out.profile.resumed_points;
    }
    checkpoint_nanos.fetch_add(
        static_cast<std::int64_t>(open_timer.seconds() * 1e9),
        std::memory_order_relaxed);
  }

  // Points are independent and write disjoint slots; the pool propagates
  // the lowest-index exception. Each evaluation mirrors compute_rank, but
  // through the shared builder so unchanged stages are cache hits. A
  // throwing evaluation is captured as the point's status — one bad point
  // must not discard the rest of the grid. Journal appends stay outside
  // the catch: losing the checkpoint file is a run-level failure.
  std::atomic<std::int64_t> failed_nanos{0};

  util::ThreadPool::shared().parallel_for(
      values.size(), run.threads, [&](std::size_t i) {
        if (done[i]) return;
        TRACE_SPAN("sweep.point");
        SweepPoint& point = out.points[i];
        util::Stopwatch point_timer;
        try {
          const RankOptions opt = with_value(base, parameter, values[i]);
          // A warm build is a shared handle into the builder's cache and
          // allocates nothing, and neither does the thread-local DP kernel
          // behind dp_rank_into. Per-pair usage/placement traces are
          // skipped — sweep consumers (CSV, server, figure tables,
          // checkpoint resume) read the headline fields only — which
          // keeps the steady-state point evaluation heap-silent
          // (DESIGN.md Section 10.6).
          const Instance inst = builder.build(opt);
          DpOptions dp;
          dp.build_trace = false;
          dp.refine_boundary = opt.refine_boundary;
          dp_rank_into(inst, dp, point.result);
          point.status = util::Status::make_ok();
        } catch (const std::exception& e) {
          point.result = RankResult{};
          point.status = util::Status::from_exception(e);
          // Wasted work is invisible in dp_seconds (a failed point has no
          // result); tally it separately so operators see the cost of
          // failures, not just their count.
          failed_nanos.fetch_add(
              static_cast<std::int64_t>(point_timer.seconds() * 1e9),
              std::memory_order_relaxed);
        }
        kSweepPointSeconds.observe(point_timer.seconds());
        if (events.enabled()) {
          util::Json fields;
          fields["index"] = static_cast<std::int64_t>(i);
          fields["value"] = values[i];
          fields["ok"] = point.status.ok();
          fields["seconds"] = point_timer.seconds();
          events.emit(util::Severity::kDebug, "sweep.point",
                      std::move(fields));
        }
        if (journal) {
          util::Stopwatch append_timer;
          journal->append(static_cast<std::int64_t>(i),
                          encode_sweep_point(point));
          checkpoint_nanos.fetch_add(
              static_cast<std::int64_t>(append_timer.seconds() * 1e9),
              std::memory_order_relaxed);
        }
      });

  // Aggregate observability. The DP counters are sums of deterministic
  // per-point values, so they too are identical across thread counts.
  const BuildProfile after = builder.profile();
  out.profile.build = after;
  out.profile.build.coarsen.hits -= before.coarsen.hits;
  out.profile.build.coarsen.misses -= before.coarsen.misses;
  out.profile.build.coarsen.seconds -= before.coarsen.seconds;
  out.profile.build.die.hits -= before.die.hits;
  out.profile.build.die.misses -= before.die.misses;
  out.profile.build.die.seconds -= before.die.seconds;
  out.profile.build.stack.hits -= before.stack.hits;
  out.profile.build.stack.misses -= before.stack.misses;
  out.profile.build.stack.seconds -= before.stack.seconds;
  out.profile.build.plans.hits -= before.plans.hits;
  out.profile.build.plans.misses -= before.plans.misses;
  out.profile.build.plans.seconds -= before.plans.seconds;
  out.profile.build.builds -= before.builds;
  out.profile.build.total_seconds -= before.total_seconds;
  for (const SweepPoint& p : out.points) {
    if (!p.status.ok()) {
      ++out.profile.failed_points;
      continue;
    }
    out.profile.dp_seconds += p.result.dp.seconds;
    out.profile.dp_arena_nodes += p.result.dp.arena_nodes;
    out.profile.dp_heap_pops += p.result.dp.heap_pops;
    out.profile.dp_verify_calls += p.result.dp.verify_calls;
    out.profile.dp_max_frontier =
        std::max(out.profile.dp_max_frontier, p.result.dp.max_frontier);
  }
  out.profile.threads = run.threads;
  out.profile.failed_point_seconds =
      static_cast<double>(failed_nanos.load(std::memory_order_relaxed)) / 1e9;
  kSweepPointsOk.inc(static_cast<std::int64_t>(values.size()) -
                     out.profile.failed_points);
  kSweepPointsFailed.inc(out.profile.failed_points);
  kSweepPointsResumed.inc(out.profile.resumed_points);
  out.profile.checkpoint_seconds =
      static_cast<double>(checkpoint_nanos.load(std::memory_order_relaxed)) /
      1e9;
  out.profile.total_seconds = total.seconds();
  if (events.enabled()) {
    util::Json fields;
    fields["ok"] = static_cast<std::int64_t>(values.size()) -
                   out.profile.failed_points;
    fields["failed"] = out.profile.failed_points;
    fields["resumed"] = out.profile.resumed_points;
    fields["seconds"] = out.profile.total_seconds;
    events.emit(util::Severity::kInfo, "sweep.done", std::move(fields));
  }
  return out;
}

SweepResult sweep_parameter(InstanceBuilder& builder, const RankOptions& base,
                            SweepParameter parameter,
                            const std::vector<double>& values,
                            unsigned threads) {
  SweepRunOptions run;
  run.threads = threads;
  return sweep_parameter(builder, base, parameter, values, run);
}

SweepResult sweep_parameter(const DesignSpec& design, const RankOptions& base,
                            const wld::Wld& wld_in_pitches,
                            SweepParameter parameter,
                            const std::vector<double>& values,
                            const SweepRunOptions& run) {
  InstanceBuilder builder(design, wld_in_pitches);
  return sweep_parameter(builder, base, parameter, values, run);
}

SweepResult sweep_parameter(const DesignSpec& design, const RankOptions& base,
                            const wld::Wld& wld_in_pitches,
                            SweepParameter parameter,
                            const std::vector<double>& values,
                            unsigned threads) {
  SweepRunOptions run;
  run.threads = threads;
  return sweep_parameter(design, base, wld_in_pitches, parameter, values, run);
}

std::vector<double> table4_k_values() {
  // K = 3.9, 3.8, ..., 1.8 — 22 points. Integer numerators keep every
  // entry exact-by-rounding instead of drifting with a running sum.
  std::vector<double> values;
  values.reserve(22);
  for (int i = 0; i < 22; ++i) {
    values.push_back(static_cast<double>(39 - i) / 10.0);
  }
  return values;
}

std::vector<double> table4_m_values() {
  // M = 2.00, 1.95, ..., 1.00 — 21 points.
  std::vector<double> values;
  values.reserve(21);
  for (int i = 0; i < 21; ++i) {
    values.push_back(static_cast<double>(200 - 5 * i) / 100.0);
  }
  return values;
}

std::vector<double> table4_c_values() {
  // C = 0.5, 0.6, ..., 1.7 GHz — 13 points.
  std::vector<double> values;
  values.reserve(13);
  for (int i = 0; i < 13; ++i) {
    values.push_back(static_cast<double>(5 + i) / 10.0 * units::GHz);
  }
  return values;
}

std::vector<double> table4_r_values() {
  return {0.1, 0.2, 0.3, 0.4, 0.5};
}

double value_reaching_rank(const SweepResult& sweep,
                           double target_normalized) {
  const auto& pts = sweep.points;
  if (pts.empty()) return std::numeric_limits<double>::quiet_NaN();

  // Sweep shape: K/M/R improve rank along the sweep order (the met region
  // is a suffix), C degrades it (the met region is a prefix).
  const bool rank_decreases =
      pts.back().result.normalized < pts.front().result.normalized;

  if (!rank_decreases) {
    // First point at or above the target; interpolate from its unmet
    // predecessor.
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (pts[i].result.normalized >= target_normalized) {
        if (i == 0) return pts[0].value;
        const double r0 = pts[i - 1].result.normalized;
        const double r1 = pts[i].result.normalized;
        if (r1 == r0) return pts[i].value;
        const double t = (target_normalized - r0) / (r1 - r0);
        return pts[i - 1].value + t * (pts[i].value - pts[i - 1].value);
      }
    }
    return std::numeric_limits<double>::quiet_NaN();
  }

  // Rank decreases along the sweep: walking forward, find where the met
  // prefix ends and interpolate across that crossing. (The old code took
  // the "first met point" here, which is always point 0 of a C sweep —
  // it reported the smallest swept clock no matter the target.)
  if (pts.front().result.normalized < target_normalized) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
    if (pts[i + 1].result.normalized < target_normalized) {
      const double r0 = pts[i].result.normalized;
      const double r1 = pts[i + 1].result.normalized;
      if (r1 == r0) return pts[i].value;
      const double t = (target_normalized - r0) / (r1 - r0);
      return pts[i].value + t * (pts[i + 1].value - pts[i].value);
    }
  }
  return pts.back().value;  // every point meets the target
}

}  // namespace iarank::core
