#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "corpus.hpp"
#include "ledger.hpp"
#include "src/core/config_run.hpp"
#include "src/core/dp_rank.hpp"
#include "src/core/explore.hpp"
#include "src/core/greedy_rank.hpp"
#include "src/server/service.hpp"
#include "src/util/atomic_file.hpp"
#include "src/util/config.hpp"
#include "src/util/rng.hpp"
#include "src/util/strings.hpp"
#include "src/util/subprocess.hpp"
#include "src/util/thread_pool.hpp"

namespace perfbench {

namespace core = iarank::core;
namespace util = iarank::util;

namespace {

// Forked explore workers: fixed, and fewer than the cores of a 4-core
// host, so the coordinator and the machine's other load keep a core.
constexpr int kExploreWorkers = 2;

// Set-up repetitions whose median is setup_s.
constexpr int kExploreSetups = 7;
constexpr int kServiceSetups = 7;
constexpr int kDpSetups = 5;

/// The calibrated 130 nm / 1M-gate baseline (configs/baseline_130nm.cfg).
const char* const kBaselineConfig =
    "node = 130nm\n"
    "gates = 1000000\n"
    "ild_permittivity = 3.9\n"
    "miller_factor = 2.0\n"
    "clock_hz = 5e8\n"
    "repeater_fraction = 0.4\n"
    "bunch_size = 10000\n";

std::string value_list(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    if (!out.empty()) out += ", ";
    out += util::format_double_shortest(v);
  }
  return out;
}

/// Keeps the first and last of `all` and `count - 2` distinct interior
/// values drawn by `rng`, in the order of `all`.
std::vector<double> pick(util::Rng& rng, const std::vector<double>& all,
                         std::size_t count) {
  std::set<std::size_t> chosen = {0, all.size() - 1};
  while (chosen.size() < std::min(count, all.size())) {
    chosen.insert(static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(all.size()) - 2)));
  }
  std::vector<double> out;
  for (const std::size_t i : chosen) out.push_back(all[i]);
  return out;
}

/// Values i * num / den for i from `first` to `last` by `step`: the Table
/// 4 columns K 3.9 -> 1.8, M 2.0 -> 1.0, C 0.5 -> 1.7 GHz and R 0.1 -> 0.5,
/// each the double nearest its decimal value.
std::vector<double> column(int first, int last, int step, double num, double den) {
  std::vector<double> out;
  for (int i = first; step > 0 ? i <= last : i >= last; i += step) {
    out.push_back(static_cast<double>(i) * num / den);
  }
  return out;
}

void add_layer_samples(RunOutcome& out, LayerSamples& samples,
                       std::int64_t batches_timed) {
  samples.set("pool.batches_timed", "count",
              "iarank_pool_batches_total moved during the timed phase",
              {static_cast<double>(batches_timed)});
  for (const auto& [name, unit] : per_layer_metric_names()) {
    const auto it = samples.series.find(name);
    if (it == samples.series.end() || it->second.values.empty()) {
      throw std::logic_error("traced run produced no samples for " + name);
    }
    LayerMetric m;
    m.name = name;
    m.unit = unit;
    m.source = it->second.source;
    m.summary = summarize(it->second.values);
    out.layers.push_back(std::move(m));
  }
}

// --- explore_table4 ------------------------------------------------------------

RunOutcome run_explore_table4(const Args& args) {
  RunOutcome out;
  const ExploreGrid grid = table4_grid(args.seed);
  const std::string spec_text = explore_spec_text(grid);
  const util::Config config = util::Config::parse(spec_text);

  std::unique_ptr<core::ExploreSpec> spec;
  const double setup_s = median_setup_seconds(kExploreSetups, [&] {
    spec = std::make_unique<core::ExploreSpec>(core::ExploreSpec::parse(config));
  });

  const std::string run_dir = args.work_dir + "/explore-run";
  std::string first_csv;
  std::vector<double> useful;
  const std::int64_t batches_before = pool_batches();
  const double ops_per_s = run_rounds(args.seconds, false, [&] {
    std::filesystem::remove_all(run_dir);
    core::ExploreOptions options;
    options.dir = run_dir;
    options.workers = kExploreWorkers;
    const Clock::time_point t0 = Clock::now();
    const core::ExploreResult result = core::run_explore(*spec, options);
    const double seconds = seconds_between(t0, Clock::now());

    out.attempted += grid.size();
    useful.push_back(static_cast<double>(grid.size()) /
                     static_cast<double>(result.resumed + result.duplicates));
    std::ifstream in(run_dir + "/points.csv");
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string csv = buffer.str();
    std::vector<Violation> violations;
    const std::vector<ExploreRow> rows = parse_points_csv(csv, violations);
    for (Violation& v : check_explore(grid, rows)) violations.push_back(std::move(v));
    if (first_csv.empty()) {
      first_csv = csv;
    } else if (csv != first_csv) {
      violations.push_back({-1, "points.csv differs from the first round's"});
    }
    // A violation names its grid index (-1 for the grid as a whole); each
    // distinct index is one failed operation.
    std::set<std::int64_t> failed_indices;
    for (const Violation& v : violations) {
      const bool new_index = failed_indices.insert(v.index).second;
      report_failure(out, "explore_table4", args.seed,
                     "grid index " + std::to_string(v.index) + ": " + v.what,
                     new_index ? 1 : 0);
    }
    std::filesystem::remove_all(run_dir);
    return RoundTiming{grid.size(), seconds};
  });
  const std::int64_t batches_timed = pool_batches() - batches_before;

  out.end_to_end = {{"ops_per_s", "1/s", ops_per_s},
                    {"setup_s", "s", setup_s},
                    {"peak_rss_mb", "MB", peak_rss_mb()}};
  if (args.trace) {
    util::Rng rng(args.seed ^ 0x7ab1e4ULL);
    LedgerInput input;
    input.spec_text = spec_text;
    input.sample_points = 240;
    input.first_point =
        16 * rng.uniform_int(0, std::max<std::int64_t>(0, (grid.size() - 240) / 16));
    input.run_explore = false;
    LayerSamples samples = run_ledger(input, args.work_dir);
    samples.set("explore.useful_ratio", "ratio",
                "grid points / journaled evaluations, per timed round", useful);
    add_layer_samples(out, samples, batches_timed);
  }
  return out;
}

// --- service_warm ----------------------------------------------------------------

RunOutcome run_service_warm(const Args& args) {
  RunOutcome out;
  const Lattice lattice = service_lattice(args.seed);
  const util::Config config = util::Config::parse(kBaselineConfig);
  std::vector<std::string> requests;
  for (const double k : lattice.k) {
    for (const double m : lattice.m) {
      core::RankOptions options = core::run_spec_from_config(config).options;
      options.ild_permittivity = k;
      options.miller_factor = m;
      requests.push_back(rank_request(options));
    }
  }

  std::unique_ptr<iarank::server::RankService> service;
  std::vector<std::string> first(requests.size());
  const double setup_s = median_setup_seconds(kServiceSetups, [&] {
    const core::RunSpec spec = core::run_spec_from_config(config);
    service = std::make_unique<iarank::server::RankService>(
        spec, core::resolve_wld(spec));
    for (std::size_t key = 0; key < requests.size(); ++key) {
      first[key] = service->handle(requests[key]);
    }
  });
  for (const Violation& v : check_lattice(lattice, first)) {
    report_failure(out, "service_warm", args.seed,
                   "lattice key " + std::to_string(v.index) + ": " + v.what);
  }

  // A fixed, seeded visiting order of the lattice keys.
  std::vector<std::size_t> order(requests.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  util::Rng rng(args.seed ^ 0x5e7a1ceULL);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(
                                rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }

  std::vector<std::string> got(requests.size());
  std::vector<double> handle_us;
  const std::int64_t batches_before = pool_batches();
  const double ops_per_s = run_rounds(args.seconds, true, [&] {
    const Clock::time_point t0 = Clock::now();
    if (args.trace) {
      for (const std::size_t key : order) {
        const Clock::time_point c0 = Clock::now();
        got[key] = service->handle(requests[key]);
        handle_us.push_back(seconds_between(c0, Clock::now()) * 1e6);
      }
    } else {
      for (const std::size_t key : order) got[key] = service->handle(requests[key]);
    }
    const double seconds = seconds_between(t0, Clock::now());
    out.attempted += static_cast<std::int64_t>(order.size());
    for (std::size_t key = 0; key < got.size(); ++key) {
      if (!same_response(first[key], got[key])) {
        report_failure(out, "service_warm", args.seed,
                       "response for " + requests[key] +
                           " differs from its first response: " + got[key]);
      }
    }
    return RoundTiming{static_cast<std::int64_t>(order.size()), seconds};
  });
  const std::int64_t batches_timed = pool_batches() - batches_before;

  out.end_to_end = {{"ops_per_s", "1/s", ops_per_s},
                    {"setup_s", "s", setup_s},
                    {"peak_rss_mb", "MB", peak_rss_mb()}};
  if (args.trace) {
    LedgerInput input;
    input.spec_text = std::string(kBaselineConfig) +
                      "explore.K = " + value_list(lattice.k) + "\n" +
                      "explore.M = " + value_list(lattice.m) + "\n";
    input.sample_points = static_cast<std::int64_t>(lattice.size());
    LayerSamples samples = run_ledger(input, args.work_dir);
    samples.set("service.handle_us", "us",
                "RankService::handle in the timed closed loop", handle_us);
    add_layer_samples(out, samples, batches_timed);
  }
  return out;
}

// --- dp_hard -----------------------------------------------------------------------

RunOutcome run_dp_hard(const Args& args) {
  RunOutcome out;
  std::vector<CorpusEntry> corpus;
  const double setup_s = median_setup_seconds(kDpSetups, [&] {
    corpus = build_corpus(args.seed);
  });

  core::DpKernel kernel;
  std::vector<core::RankResult> results(corpus.size());
  std::vector<core::RankResult> first;
  std::vector<std::vector<double>> solve_ms(corpus.size());
  const std::int64_t batches_before = pool_batches();
  const double ops_per_s = run_rounds(args.seconds, true, [&] {
    const Clock::time_point t0 = Clock::now();
    if (args.trace) {
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        const Clock::time_point c0 = Clock::now();
        kernel.solve_into(corpus[i].instance, corpus[i].options, results[i]);
        solve_ms[i].push_back(seconds_between(c0, Clock::now()) * 1e3);
      }
    } else {
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        kernel.solve_into(corpus[i].instance, corpus[i].options, results[i]);
      }
    }
    const double seconds = seconds_between(t0, Clock::now());
    out.attempted += static_cast<std::int64_t>(corpus.size());
    if (first.empty()) {
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        const core::Instance& inst = corpus[i].instance;
        // greedy_rank <= rank is a contract only at wire granularity:
        // greedy splits bunches across pairs, the DP does not.
        const bool wire_granular =
            std::all_of(inst.bunches().begin(), inst.bunches().end(),
                        [](const core::Bunch& b) { return b.count == 1; });
        const std::vector<Violation> violations = check_dp_answer(
            inst, results[i], wire_granular ? core::greedy_rank(inst).rank : -1,
            rank_upper_bound(inst), oracle_rank(corpus[i]));
        // One failed operation per instance, however many checks it failed.
        for (std::size_t v = 0; v < violations.size(); ++v) {
          report_failure(out, "dp_hard", args.seed,
                         corpus[i].label + ": " + violations[v].what, v == 0 ? 1 : 0);
        }
      }
      first = results;
    } else {
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        if (!same_answer(first[i], results[i])) {
          report_failure(out, "dp_hard", args.seed,
                         corpus[i].label + ": repeated solve changed the answer");
        }
      }
    }
    return RoundTiming{static_cast<std::int64_t>(corpus.size()), seconds};
  });
  const std::int64_t batches_timed = pool_batches() - batches_before;

  out.end_to_end = {{"ops_per_s", "1/s", ops_per_s},
                    {"setup_s", "s", setup_s},
                    {"peak_rss_mb", "MB", peak_rss_mb()}};
  if (args.trace) {
    const std::vector<PhysicalPoint> physical = physical_points();
    std::vector<double> ks, cs;
    for (const PhysicalPoint& p : physical) {
      ks.push_back(p.k);
      cs.push_back(p.c);
    }
    std::sort(ks.begin(), ks.end());
    ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
    std::sort(cs.begin(), cs.end());
    cs.erase(std::unique(cs.begin(), cs.end()), cs.end());
    LedgerInput input;
    input.spec_text = physical.front().config + "explore.K = " + value_list(ks) +
                      "\nexplore.C = " + value_list(cs) + "\n";
    input.sample_points = static_cast<std::int64_t>(ks.size() * cs.size());
    LayerSamples samples = run_ledger(input, args.work_dir);

    // The corpus solves replace the ledger's DP figures.
    std::vector<double> all_ms;
    for (const char* name : {"dp.arena_nodes", "dp.max_frontier", "dp.heap_pops",
                             "dp.verify_calls", "dp.pruned_entries",
                             "dp.verify_yield"}) {
      samples.series.erase(name);
      samples.series.erase(std::string(name) + "_max");
    }
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const core::RankResult::DpStats& st = first[i].dp;
      add_dp_effort(samples, "RankResult::dp of the corpus solves",
                    {static_cast<double>(st.arena_nodes),
                     static_cast<double>(st.max_frontier),
                     static_cast<double>(st.heap_pops),
                     static_cast<double>(st.verify_calls),
                     static_cast<double>(st.pruned_entries)});
      all_ms.insert(all_ms.end(), solve_ms[i].begin(), solve_ms[i].end());
    }
    for (const Part part : {Part::kPhysical, Part::kSynthetic, Part::kExact}) {
      std::vector<double> part_ms;
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        if (corpus[i].part != part) continue;
        part_ms.insert(part_ms.end(), solve_ms[i].begin(), solve_ms[i].end());
      }
      out.notes.push_back({std::string("dp.solve_ms.") + part_name(part), "ms",
                           median_of(part_ms)});
    }
    samples.set("dp.solve_ms", "ms", "DpKernel::solve_into over the corpus", all_ms);
    samples.set("dp.pool_high_water_mb", "MB", "DpKernel::pool_stats of the corpus kernel",
                {static_cast<double>(kernel.pool_stats().high_water_bytes) /
                 1048576.0});
    add_layer_samples(out, samples, batches_timed);
  }
  return out;
}

}  // namespace

ExploreGrid table4_grid(std::uint64_t seed) {
  util::Rng rng(seed ^ 0x7ab1e4ULL);
  ExploreGrid grid;
  grid.k = pick(rng, column(39, 18, -1, 1, 10), 6);
  grid.m = pick(rng, column(40, 20, -1, 1, 20), 6);
  grid.c = pick(rng, column(5, 17, 1, 1e8, 1), 7);
  grid.r = column(1, 5, 1, 1, 10);
  return grid;
}

std::string explore_spec_text(const ExploreGrid& grid) {
  return std::string(kBaselineConfig) + "explore.K = " + value_list(grid.k) +
         "\nexplore.M = " + value_list(grid.m) +
         "\nexplore.C = " + value_list(grid.c) +
         "\nexplore.R = " + value_list(grid.r) + "\n";
}

Lattice service_lattice(std::uint64_t seed) {
  util::Rng rng(seed ^ 0x1a771ceULL);
  Lattice lattice;
  lattice.k = pick(rng, column(39, 18, -1, 1, 10), 4);
  lattice.m = pick(rng, column(40, 20, -1, 1, 20), 4);
  return lattice;
}

RunOutcome run_workload(const Args& args) {
  if (args.workload == "explore_table4") return run_explore_table4(args);
  if (args.workload == "service_warm") return run_service_warm(args);
  if (args.workload == "dp_hard") return run_dp_hard(args);
  throw std::invalid_argument("unknown workload '" + args.workload + "'");
}

bool runs_in_forked_child(const std::string& workload) {
  return workload == "service_warm" || workload == "dp_hard";
}

int in_forked_child(const std::function<int()>& body) {
  (void)util::ThreadPool::shared();
  const pid_t pid = util::spawn_child(body);
  const util::ChildExit exit = util::wait_child(pid);
  if (exit.exited) return exit.exit_code;
  throw std::runtime_error("workload process killed by signal " +
                           std::to_string(exit.term_signal));
}

void print_slot_table(int variants) {
  std::cout << "// Generated by `perfbench --select-corpus " << variants
            << "` (corpus.cpp): per corpus variant, the shape draw and\n"
               "// routing-capacity slack of each synthetic slot.\n"
               "constexpr SlotChoice kSlotChoices["
            << variants << "][" << synthetic_slots() << "] = {\n";
  for (int v = 0; v < variants; ++v) {
    std::cout << "    {";
    for (std::size_t slot = 0; slot < synthetic_slots(); ++slot) {
      const SlotChoice c = select_synthetic(static_cast<std::uint64_t>(v), slot);
      std::cout << (slot == 0 ? "" : ",") << (slot % 4 == 0 ? "\n     " : " ")
                << "{" << c.attempt << ", " << json_number(c.slack) << "}";
    }
    std::cout << "},\n" << std::flush;
  }
  std::cout << "};\n";
}

void print_corpus(std::uint64_t seed) {
  const std::vector<CorpusEntry> corpus = build_corpus(seed);
  core::DpKernel kernel;
  core::RankResult result;
  std::cout << "part\tbunches\tpairs\trank\tmax_frontier\theap_pops\t"
               "verify_calls\tsolve_ms\tlabel\n";
  for (const CorpusEntry& e : corpus) {
    std::vector<double> ms;
    for (int rep = 0; rep < 5; ++rep) {
      const Clock::time_point t0 = Clock::now();
      kernel.solve_into(e.instance, e.options, result);
      ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    std::cout << part_name(e.part) << '\t' << e.instance.bunch_count() << '\t'
              << e.instance.pair_count() << '\t' << result.rank << '\t'
              << result.dp.max_frontier << '\t' << result.dp.heap_pops << '\t'
              << result.dp.verify_calls << '\t' << median_of(ms) << '\t'
              << e.label << '\n';
  }
}

}  // namespace perfbench
