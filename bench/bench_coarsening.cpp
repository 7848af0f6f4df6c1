/// Experiment E8 — paper Section 5.1: WLD coarsening. Measures the
/// accuracy/runtime trade of bunching (and binning, footnote 7) on the
/// 130 nm / 1M gate baseline, and checks the rank error from bunching
/// against one bunch per layer-pair (the paper's one-bunch bound does not
/// hold at pair boundaries; see core/dp_rank.hpp).

#include <chrono>
#include <cstdlib>
#include <iostream>

#include "bench/bench_common.hpp"
#include "src/core/dp_rank.hpp"
#include "src/wld/coarsen.hpp"

int main() {
  using namespace iarank;
  const core::PaperSetup setup = core::paper_baseline();
  bench::print_header("E8 / Section 5.1: coarsening accuracy vs runtime",
                      setup);
  const wld::Wld wld = core::default_wld(setup.design);

  auto timed_rank = [&](const core::RankOptions& opts, double* ms) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = core::compute_rank(setup.design, opts, wld);
    const auto t1 = std::chrono::steady_clock::now();
    *ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    return r;
  };

  // Reference: the finest practical granularity.
  core::RankOptions fine = setup.options;
  fine.bunch_size = 500;
  fine.refine_boundary = false;
  double fine_ms = 0.0;
  const auto ref = timed_rank(fine, &fine_ms);

  // Error bound: the paper states the prefix-rounding loss is at most one
  // bunch; rounding the per-pair chunk boundaries can cost up to one more
  // bunch per layer-pair, so we check against bunch_size * pair_count
  // (plus the reference run's own granularity).
  const auto pairs = static_cast<std::int64_t>(
      core::build_instance(setup.design, fine, wld).pair_count());

  util::TextTable table("bunching sweep (no boundary refinement)");
  table.set_header({"bunch_size", "bunches", "rank", "error_vs_fine",
                    "bound_ok", "runtime_ms"});
  table.add_row({"500 (ref)", std::to_string(wld::bunch_count(wld, 500)),
                 std::to_string(ref.rank), "0", "yes",
                 util::TextTable::num(fine_ms, 1)});
  for (const std::int64_t bs : {2000LL, 10000LL, 50000LL, 200000LL}) {
    core::RankOptions opts = fine;
    opts.bunch_size = bs;
    double ms = 0.0;
    const auto r = timed_rank(opts, &ms);
    const std::int64_t err = std::llabs(r.rank - ref.rank);
    const std::int64_t bound = bs * pairs + 500 * pairs;
    table.add_row({std::to_string(bs),
                   std::to_string(wld::bunch_count(wld, bs)),
                   std::to_string(r.rank), std::to_string(err),
                   err <= bound ? "yes" : "NO", util::TextTable::num(ms, 1)});
  }
  std::cout << table << "\n";

  // Boundary refinement (our extension) recovers most of the error.
  util::TextTable refine_table("boundary refinement at bunch 50000");
  refine_table.set_header({"refinement", "rank", "error_vs_fine"});
  for (const bool refine : {false, true}) {
    core::RankOptions opts = fine;
    opts.bunch_size = 50000;
    opts.refine_boundary = refine;
    double ms = 0.0;
    const auto r = timed_rank(opts, &ms);
    refine_table.add_row({refine ? "on" : "off", std::to_string(r.rank),
                          std::to_string(std::llabs(r.rank - ref.rank))});
  }
  std::cout << refine_table << "\n";

  // Binning (paper footnote 7) on top of bunching.
  util::TextTable bin_table("binning (window in gate pitches) + bunch 10000");
  bin_table.set_header({"bin_window", "bunches", "rank", "error_vs_fine",
                        "runtime_ms"});
  for (const double window : {0.0, 1.0, 3.0, 10.0}) {
    core::RankOptions opts = fine;
    opts.bunch_size = 10000;
    opts.bin_window = window;
    double ms = 0.0;
    const auto r = timed_rank(opts, &ms);
    const auto binned =
        window > 0.0 ? wld::bin_absolute(wld, window) : wld;
    bin_table.add_row({util::TextTable::num(window, 1),
                       std::to_string(wld::bunch_count(binned, 10000)),
                       std::to_string(r.rank),
                       std::to_string(std::llabs(r.rank - ref.rank)),
                       util::TextTable::num(ms, 1)});
  }
  std::cout << bin_table;
  return 0;
}
