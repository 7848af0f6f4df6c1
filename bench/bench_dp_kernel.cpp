/// \file bench_dp_kernel.cpp
/// \brief Microbenchmarks of the DP hot path at paper scale: the full
///        solve (cold / steady-state kernel), the delay-free packer it
///        leans on, and the per-iteration counter profile. Run by
///        tests/bench_snapshot.sh to produce BENCH_dp.json.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "src/core/dp_rank.hpp"
#include "src/core/engine.hpp"
#include "src/core/free_pack.hpp"
#include "src/core/instance_builder.hpp"
#include "src/core/paper_setup.hpp"
#include "src/core/sweep.hpp"
#include "src/util/alloc_count.hpp"
#include "src/wld/wld.hpp"

namespace {

using namespace iarank;

/// The Table 4 baseline instance (130 nm, 1M gates), built once.
const core::Instance& baseline_instance() {
  static const core::Instance inst = [] {
    const core::PaperSetup setup = core::paper_baseline();
    const wld::Wld wld = core::default_wld(setup.design);
    return core::InstanceBuilder(setup.design, wld).build(setup.options);
  }();
  return inst;
}

/// Full exact solve, cold. Counters expose where the time goes: the
/// forward sweep line's share, states committed, and how few candidates
/// the best-first search actually verifies.
void BM_DpRankCold(benchmark::State& state) {
  const core::Instance& inst = baseline_instance();
  core::DpOptions opt;
  opt.build_trace = false;
  core::RankResult last;
  for (auto _ : state) {
    last = core::dp_rank(inst, opt);
    benchmark::DoNotOptimize(last.rank);
  }
  state.counters["arena_nodes"] = static_cast<double>(last.dp.arena_nodes);
  state.counters["max_frontier"] = static_cast<double>(last.dp.max_frontier);
  state.counters["heap_pops"] = static_cast<double>(last.dp.heap_pops);
  state.counters["verify_calls"] = static_cast<double>(last.dp.verify_calls);
  state.counters["arena_bytes"] = static_cast<double>(last.dp.arena_bytes);
  state.counters["forward_frac"] =
      last.dp.seconds > 0.0 ? last.dp.forward_seconds / last.dp.seconds : 0.0;
}
BENCHMARK(BM_DpRankCold)->Unit(benchmark::kMicrosecond);

/// The sweep engine's per-point configuration: one warm kernel,
/// solve_into reusing the result's buffers. The `steady_allocs` counter
/// is the exact operator-new count of 1000 warm solves measured outside
/// the timed loop — the steady-state zero-allocation contract
/// (DESIGN.md Section 10.6); bench_compare.py --strict-counters fails
/// the run if it ever leaves zero.
void BM_DpRankSteady(benchmark::State& state) {
  const core::Instance& inst = baseline_instance();
  core::DpOptions opt;
  opt.build_trace = false;
  core::DpKernel kernel;
  core::RankResult last;
  kernel.solve_into(inst, opt, last);  // warm-up: pool + result buffers

  const std::int64_t before = util::alloc_total();
  for (int i = 0; i < 1000; ++i) kernel.solve_into(inst, opt, last);
  const std::int64_t steady = util::alloc_total() - before;

  for (auto _ : state) {
    kernel.solve_into(inst, opt, last);
    benchmark::DoNotOptimize(last.rank);
  }
  if (util::alloc_counter_enabled()) {
    state.counters["steady_allocs"] = static_cast<double>(steady);
  }
  state.counters["arena_bytes"] = static_cast<double>(last.dp.arena_bytes);
}
BENCHMARK(BM_DpRankSteady)->Unit(benchmark::kMicrosecond);

/// The Lemma-1 delay-free packer on its own — the per-candidate cost the
/// best-first search pays for each verification.
void BM_FreePack(benchmark::State& state) {
  const core::Instance& inst = baseline_instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::free_pack_feasible(inst, core::FreePackInput{}));
  }
}
BENCHMARK(BM_FreePack)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
