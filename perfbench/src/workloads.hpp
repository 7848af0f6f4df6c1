/// \file workloads.hpp
/// \brief The benchmark's three workloads.
///
///  * explore_table4 — a seeded cross product of the paper's Table 4
///    column values on the calibrated 130 nm / 1M-gate baseline, run
///    through core::run_explore with forked workers. Operation: one merged
///    grid point.
///  * service_warm — one caller in a closed loop over a K x M lattice of
///    override sets, all warmed during set-up, through
///    server::RankService::handle in-process. Operation: one request.
///  * dp_hard — one thread runs DpKernel::solve_into over a fixed corpus
///    (corpus.hpp). Operation: one solve.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "checks.hpp"
#include "common.hpp"

namespace perfbench {

/// Runs `args.workload` (set-up, timed rounds, checks; plus the per-layer
/// replay when args.trace). Throws std::invalid_argument on an unknown
/// workload name.
[[nodiscard]] RunOutcome run_workload(const Args& args);

/// True for the workloads that run whole, set-up included, in a child
/// forked after the shared thread pool exists (service_warm, dp_hard). In
/// such a child every parallel_for runs inline, so their set-up's cold
/// builds never take the pool's multi-threaded path, whose completion race
/// (Batch::drain) can crash the process or corrupt a build. Their timed
/// phases take no pool path either way.
[[nodiscard]] bool runs_in_forked_child(const std::string& workload);

/// Forks after ThreadPool::shared() exists, runs `body` in the child and
/// waits for it. Returns the child's exit code; throws std::runtime_error
/// when a signal killed it.
[[nodiscard]] int in_forked_child(const std::function<int()>& body);

/// Prints the dp_hard corpus of `seed`, one line per instance with its
/// part, shape, max_frontier, heap_pops and solve time.
void print_corpus(std::uint64_t seed);

/// Prints synthetic_slots.inc: the checked-in choice of every synthetic
/// slot for `variants` corpus variants, found by select_synthetic.
void print_slot_table(int variants);

/// The explore_table4 grid and spec of `seed` (exposed for the tests).
[[nodiscard]] ExploreGrid table4_grid(std::uint64_t seed);
[[nodiscard]] std::string explore_spec_text(const ExploreGrid& grid);

/// The service_warm lattice of `seed`.
[[nodiscard]] Lattice service_lattice(std::uint64_t seed);

}  // namespace perfbench
