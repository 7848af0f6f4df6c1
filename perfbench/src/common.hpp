/// \file common.hpp
/// \brief Shared plumbing of the benchmark program: command-line arguments,
///        clocks, sample summaries, process-level measurements and the
///        result line every workload prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Parsed command line: `--workload W --seed N --seconds S --trace 0|1`,
/// `--corpus --seed N` for the dp_hard corpus listing, or
/// `--select-corpus V` to regenerate the synthetic slot table.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corpus = false;
  int select_variants = 0;  ///< > 0: print the synthetic slot table
  std::string work_dir;  ///< scratch space inside the checkout
};

/// Median, sample count and the highest standard percentile that still
/// has at least ten samples beyond it (absent below forty samples).
struct Summary {
  double median = 0.0;
  std::size_t count = 0;
  double tail_percentile = 0.0;  ///< 0 when no tail is reported
  double tail_value = 0.0;
  double max = 0.0;
};

[[nodiscard]] Summary summarize(std::vector<double> samples);
[[nodiscard]] double median_of(std::vector<double> samples);

/// Largest resident set of this process and of every child it has waited
/// for (forked explore workers included), in MB.
[[nodiscard]] double peak_rss_mb();

/// Current value of the shared pool's iarank_pool_batches_total counter:
/// parallel_for batches that took the pool's multi-threaded path.
[[nodiscard]] std::int64_t pool_batches();

/// One reported number.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// One per-layer figure of the traced run, with its distribution.
struct LayerMetric {
  std::string name;
  std::string unit;
  Summary summary;
  std::string source;  ///< which calls produced it, for the trace file
};

/// Outcome of the timed phase of one workload run.
struct RunOutcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  std::vector<Metric> end_to_end;
  std::vector<LayerMetric> layers;
  std::vector<Metric> notes;  ///< extra figures written to the trace file
};

/// Records a failed check: adds `operations` to `failed`, clears
/// `correct` and prints the reproducer on stderr (the first few only).
void report_failure(RunOutcome& out, const std::string& workload,
                    std::uint64_t seed, const std::string& what,
                    std::int64_t operations = 1);

/// Shortest round-trip spelling of a double for JSON output.
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(const std::string& s);

/// Runs `round` (which times its own operations and returns
/// {operations, seconds}) until `seconds` of wall time have passed,
/// always completing whole rounds and at least three, and returns the
/// operations completed per second of the rounds' own time. With
/// `rotate_cpus`, the calling process moves to the next CPU it may run on
/// every second, so a single-threaded workload samples every CPU in each
/// run instead of whichever one the scheduler happened to pick.
struct RoundTiming {
  std::int64_t operations = 0;
  double seconds = 0.0;
};
[[nodiscard]] double run_rounds(double seconds, bool rotate_cpus,
                                const std::function<RoundTiming()>& round);

/// Repeats `setup` `times` times and returns the median wall time.
[[nodiscard]] double median_setup_seconds(int times,
                                          const std::function<void()>& setup);

}  // namespace perfbench
