/// \file ledger.hpp
/// \brief Per-layer figures of the traced run.
///
/// The traced run of every workload reports the same list of per-layer
/// metrics. Metrics of the layers a workload's own operations pass
/// through come from per-call timers around those operations; the rest
/// come from this ledger, which replays points of the workload's own
/// input space through the public calls an explore worker and the rank
/// service make: spec parse, WLD generation, cold and warm builds, the
/// stages_to_meet grid of a cold build, DP solves, journal append and
/// scan, lease claim and complete, and RankService::handle split into
/// parse / build / DP / format. It runs in a child forked after the
/// shared thread pool exists, so the plans stage runs serially there, as
/// in an explore worker.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "src/core/options.hpp"

namespace perfbench {

/// Per-layer samples by metric name.
struct LayerSamples {
  struct Series {
    std::string unit;
    std::string source;
    std::vector<double> values;
  };
  std::map<std::string, Series> series;

  void add(const std::string& name, const std::string& unit,
           const std::string& source, double value);
  /// Replaces `name` with `values` (a workload's own per-call figures
  /// take precedence over the ledger's replay).
  void set(const std::string& name, const std::string& unit,
           const std::string& source, std::vector<double> values);
};

/// What the ledger replays: an explore spec over the workload's input
/// space and how many of its grid points to sample (in grid order).
struct LedgerInput {
  std::string spec_text;
  std::int64_t sample_points = 240;
  std::int64_t first_point = 0;
  /// Run one explore over the spec for explore.useful_ratio (the explore
  /// workload measures it on its own rounds instead).
  bool run_explore = true;
};

/// Runs the ledger in a forked child and returns its samples. `work_dir`
/// is scratch space (journal, lease queue, explore run directory).
[[nodiscard]] LayerSamples run_ledger(const LedgerInput& input,
                                      const std::string& work_dir);

/// The per-layer metric list every traced run reports, in order, with
/// units. A name missing from `samples` is a bug in the benchmark.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metric_names();

/// A rank request overriding the Table 4 parameters K, M, C and R with
/// those of `options`.
[[nodiscard]] std::string rank_request(const iarank::core::RankOptions& options);

/// DP effort samples of one solve, in the ledger's naming.
struct DpEffort {
  double arena_nodes, max_frontier, heap_pops, verify_calls, pruned_entries;
};
void add_dp_effort(LayerSamples& samples, const std::string& source,
                   const DpEffort& effort);

}  // namespace perfbench
