#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/core/checkpoint.hpp"
#include "src/core/config_run.hpp"
#include "src/core/dp_rank.hpp"
#include "src/core/explore.hpp"
#include "src/core/sweep.hpp"
#include "src/core/instance_builder.hpp"
#include "src/delay/stack.hpp"
#include "src/server/service.hpp"
#include "src/tech/architecture.hpp"
#include "src/util/atomic_file.hpp"
#include "src/util/config.hpp"
#include "src/util/journal.hpp"
#include "src/util/json.hpp"
#include "src/util/lease_queue.hpp"
#include "src/util/subprocess.hpp"
#include "src/util/thread_pool.hpp"

namespace perfbench {

namespace core = iarank::core;
namespace util = iarank::util;

void LayerSamples::add(const std::string& name, const std::string& unit,
                       const std::string& source, double value) {
  Series& s = series[name];
  s.unit = unit;
  s.source = source;
  s.values.push_back(value);
}

void LayerSamples::set(const std::string& name, const std::string& unit,
                       const std::string& source, std::vector<double> values) {
  series[name] = Series{unit, source, std::move(values)};
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metric_names() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"wld.generate_ms", "ms"},
      {"explore.spec_parse_ms", "ms"},
      {"builder.build_cold_ms", "ms"},
      {"builder.build_warm_us", "us"},
      {"builder.plans_misses", "count"},
      {"builder.stack_misses", "count"},
      {"delay.stages_to_meet_calls", "count"},
      {"delay.stages_to_meet_ns", "ns"},
      {"dp.solve_ms", "ms"},
      {"dp.arena_nodes", "count"},
      {"dp.arena_nodes_max", "count"},
      {"dp.max_frontier", "count"},
      {"dp.max_frontier_max", "count"},
      {"dp.heap_pops", "count"},
      {"dp.heap_pops_max", "count"},
      {"dp.verify_calls", "count"},
      {"dp.verify_calls_max", "count"},
      {"dp.pruned_entries", "count"},
      {"dp.pruned_entries_max", "count"},
      {"dp.verify_yield", "ratio"},
      {"dp.pool_high_water_mb", "MB"},
      {"service.handle_us", "us"},
      {"service.parse_us", "us"},
      {"service.format_us", "us"},
      {"service.residual_us", "us"},
      {"journal.append_us", "us"},
      {"journal.scan_ms", "ms"},
      {"lease.claim_us", "us"},
      {"lease.complete_us", "us"},
      {"explore.useful_ratio", "ratio"},
      {"pool.batches_timed", "count"},
  };
  return kNames;
}

void add_dp_effort(LayerSamples& samples, const std::string& source,
                   const DpEffort& e) {
  // The *_max series carry the same samples; the trace reports their max.
  const std::pair<const char*, double> counts[] = {
      {"dp.arena_nodes", e.arena_nodes},
      {"dp.max_frontier", e.max_frontier},
      {"dp.heap_pops", e.heap_pops},
      {"dp.verify_calls", e.verify_calls},
      {"dp.pruned_entries", e.pruned_entries}};
  for (const auto& [name, value] : counts) {
    samples.add(name, "count", source, value);
    samples.add(std::string(name) + "_max", "count", source, value);
  }
  // The search returns at the first verified candidate it pops, so the
  // successful verifications it used are heap_pops - verify_calls (one per
  // solved instance); verified candidates still in the heap at return are
  // not visible in RankResult::dp.
  if (e.verify_calls > 0) {
    samples.add("dp.verify_yield", "ratio", source,
                (e.heap_pops - e.verify_calls) / e.verify_calls);
  }
}

std::string rank_request(const core::RankOptions& o) {
  util::Json overrides;
  overrides["ild_permittivity"] = o.ild_permittivity;
  overrides["miller_factor"] = o.miller_factor;
  overrides["clock_hz"] = o.clock_frequency;
  overrides["repeater_fraction"] = o.repeater_fraction;
  util::Json request;
  request["type"] = "rank";
  request["overrides"] = std::move(overrides);
  return request.dump();
}

namespace {

/// Results of the replayed calls feed this, so the calls cannot be
/// optimized away.
volatile std::int64_t g_sink = 0;

double us_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now()) * 1e6;
}

/// Same max-stage rule the plans stage applies per bunch.
std::optional<std::int64_t> stage_cap(const core::RankOptions& options,
                                      double length) {
  std::optional<std::int64_t> max_stages = options.max_stages;
  if (options.min_repeater_spacing > 0.0) {
    const auto by_spacing = static_cast<std::int64_t>(
        std::floor(length / options.min_repeater_spacing));
    const std::int64_t capped = std::max<std::int64_t>(1, by_spacing);
    max_stages = max_stages ? std::min(*max_stages, capped) : capped;
  }
  return max_stages;
}

void replay(const LedgerInput& input, const std::string& dir,
            LayerSamples& out) {
  const util::Config config = util::Config::parse(input.spec_text);
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point t0 = Clock::now();
    const core::ExploreSpec parsed = core::ExploreSpec::parse(config);
    out.add("explore.spec_parse_ms", "ms", "ExploreSpec::parse",
            us_since(t0) / 1e3);
  }
  const core::ExploreSpec spec = core::ExploreSpec::parse(config);
  const core::RunSpec run_spec = core::run_spec_from_config(config);
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point t0 = Clock::now();
    const iarank::wld::Wld wld = core::resolve_wld(run_spec);
    out.add("wld.generate_ms", "ms", "resolve_wld (Davis generate)",
            us_since(t0) / 1e3);
  }

  // --- Worker replay: lease, journal, cold + warm build, DP ------------
  const std::int64_t first =
      std::clamp<std::int64_t>(input.first_point, 0, spec.total_points() - 1);
  const std::int64_t last =
      std::min(spec.total_points(), first + input.sample_points);
  util::LeaseQueue queue(dir + "/queue", util::LeaseQueue::Options{});
  constexpr std::int64_t kChunk = 16;
  for (std::int64_t lo = first; lo < last; lo += kChunk) {
    queue.enqueue(lo, std::min(last, lo + kChunk), 0);
  }
  const std::string journal_path = dir + "/worker.journal";
  util::CheckpointJournal journal(journal_path, spec.key(), {false});
  const core::DesignSpec& design = spec.design(0);
  core::InstanceBuilder builder(design, spec.wld(0, 0));
  const iarank::tech::Architecture arch =
      iarank::tech::Architecture::build(design.node, design.arch);
  const core::BuildProfile start = builder.profile();
  core::Instance inst;
  core::DpKernel kernel;
  std::int64_t sink = 0;
  const std::string worker = "ledger";
  for (;;) {
    Clock::time_point t0 = Clock::now();
    const std::optional<util::LeaseChunk> chunk = queue.claim(worker);
    if (!chunk) break;
    out.add("lease.claim_us", "us", "LeaseQueue::claim", us_since(t0));
    for (std::int64_t index = chunk->lo; index < chunk->hi; ++index) {
      t0 = Clock::now();
      journal.append(index, "!");
      out.add("journal.append_us", "us", "CheckpointJournal::append",
              us_since(t0));
      const core::RankOptions options = spec.options_at(spec.scenario(index));

      const core::BuildProfile pre = builder.profile();
      t0 = Clock::now();
      builder.build_into(options, inst);
      const double cold_ms = us_since(t0) / 1e3;
      const core::BuildProfile post = builder.profile();
      if (post.plans.misses > pre.plans.misses) {
        out.add("builder.build_cold_ms", "ms",
                "InstanceBuilder::build_into, plans key new", cold_ms);
        // The plans stage's stages_to_meet grid of this build, replayed
        // through the same public delay model (one bunch row per timer).
        const iarank::tech::RcParams rc{design.node.conductor,
                                        options.ild_permittivity,
                                        options.miller_factor,
                                        options.cap_model};
        const iarank::delay::ElectricalStack stack(arch, rc, options.switching);
        // Every pair is unblocked: the ledger's specs keep max_noise_ratio
        // at 1, which disables the plans stage's noise gate.
        const std::size_t pairs = stack.size();
        out.add("delay.stages_to_meet_calls", "count",
                "bunches x unblocked pairs of a cold build",
                static_cast<double>(inst.bunch_count() * pairs));
        for (std::size_t b = 0; b < inst.bunch_count(); ++b) {
          const core::Bunch& bunch = inst.bunch(b);
          const std::optional<std::int64_t> cap = stage_cap(options, bunch.length);
          t0 = Clock::now();
          for (std::size_t j = 0; j < pairs; ++j) {
            const auto sol = stack.pair(j).model.stages_to_meet(
                bunch.length, bunch.target_delay, cap);
            sink += sol ? sol->stages : 0;
          }
          out.add("delay.stages_to_meet_ns", "ns",
                  "WireDelayModel::stages_to_meet, per call of a bunch row",
                  us_since(t0) * 1e3 / static_cast<double>(pairs));
        }
      }
      t0 = Clock::now();
      builder.build_into(options, inst);
      out.add("builder.build_warm_us", "us",
              "InstanceBuilder::build_into, all four stages hit", us_since(t0));

      core::DpOptions dp;
      dp.build_trace = false;  // as an explore worker solves
      dp.refine_boundary = options.refine_boundary;
      core::SweepPoint point;
      point.value = static_cast<double>(index);
      t0 = Clock::now();
      kernel.solve_into(inst, dp, point.result);
      out.add("dp.solve_ms", "ms", "DpKernel::solve_into (explore worker options)",
              us_since(t0) / 1e3);
      const core::RankResult::DpStats& st = point.result.dp;
      add_dp_effort(out, "RankResult::dp of the replayed solves",
                    {static_cast<double>(st.arena_nodes),
                     static_cast<double>(st.max_frontier),
                     static_cast<double>(st.heap_pops),
                     static_cast<double>(st.verify_calls),
                     static_cast<double>(st.pruned_entries)});
      point.status = util::Status::make_ok();
      point.result.dp = core::RankResult::DpStats{};
      point.result.witness = core::DpWitness{};
      const std::string payload = core::encode_sweep_point(point);
      t0 = Clock::now();
      journal.append(index, payload);
      out.add("journal.append_us", "us", "CheckpointJournal::append",
              us_since(t0));
    }
    t0 = Clock::now();
    queue.complete(*chunk, worker);
    out.add("lease.complete_us", "us", "LeaseQueue::complete", us_since(t0));
  }
  const core::BuildProfile end = builder.profile();
  out.add("builder.plans_misses", "count", "BuildProfile over the replay",
          static_cast<double>(end.plans.misses - start.plans.misses));
  out.add("builder.stack_misses", "count", "BuildProfile over the replay",
          static_cast<double>(end.stack.misses - start.stack.misses));
  out.add("dp.pool_high_water_mb", "MB", "DpKernel::pool_stats",
          static_cast<double>(kernel.pool_stats().high_water_bytes) / 1048576.0);
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point t0 = Clock::now();
    const util::CheckpointJournal::Scan scan =
        util::CheckpointJournal::scan(journal_path, spec.key());
    sink += static_cast<std::int64_t>(scan.entries.size());
    out.add("journal.scan_ms", "ms", "CheckpointJournal::scan of the replay journal",
            us_since(t0) / 1e3);
  }

  // --- Rank service: handle, split into parse / build / DP / format ----
  iarank::server::RankService service(run_spec, spec.wld(0, 0));
  core::InstanceBuilder service_builder(design, spec.wld(0, 0));
  core::RankResult result;
  const std::int64_t service_last = std::min(last, first + 64);
  for (std::int64_t index = first; index < service_last; ++index) {
    const core::RankOptions options = spec.options_at(spec.scenario(index));
    const std::string request = rank_request(options);
    (void)service.handle(request);  // cold: fills the service's caches
    service_builder.build_into(options, inst);
    Clock::time_point t0 = Clock::now();
    const std::string response = service.handle(request);
    const double handle_us = us_since(t0);
    t0 = Clock::now();
    const util::Json parsed = util::Json::parse(request);
    const double parse_us = us_since(t0);
    t0 = Clock::now();
    service_builder.build_into(options, inst);
    const double build_us = us_since(t0);
    core::DpOptions dp;  // as RankService solves: trace on
    dp.refine_boundary = options.refine_boundary;
    t0 = Clock::now();
    kernel.solve_into(inst, dp, result);
    const double dp_us = us_since(t0);
    const util::Json response_json = util::Json::parse(response);
    t0 = Clock::now();
    const std::string formatted = response_json.dump();
    const double format_us = us_since(t0);
    sink += static_cast<std::int64_t>(formatted.size() + parsed.dump().size());
    out.add("service.handle_us", "us", "RankService::handle, warm key", handle_us);
    out.add("service.parse_us", "us", "Json::parse of the request", parse_us);
    out.add("service.format_us", "us", "Json::dump of the response", format_us);
    out.add("service.residual_us", "us",
            "handle - parse - warm build - DP - format",
            handle_us - parse_us - build_us - dp_us - format_us);
  }

  if (input.run_explore) {
    core::ExploreOptions options;
    options.dir = dir + "/explore";
    options.workers = 2;
    const core::ExploreResult explored = core::run_explore(spec, options);
    out.add("explore.useful_ratio", "ratio",
            "grid points / journaled evaluations of one explore run",
            static_cast<double>(spec.total_points()) /
                static_cast<double>(explored.resumed + explored.duplicates));
  }
  g_sink = sink;
}

void write_samples(const LayerSamples& samples, const std::string& path) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& [name, s] : samples.series) {
    os << name << '\t' << s.unit << '\t' << s.source << '\t';
    for (const double v : s.values) os << v << ' ';
    os << '\n';
  }
  util::atomic_write_file(path, os.str());
}

LayerSamples read_samples(const std::string& path) {
  LayerSamples samples;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string name, unit, source, values;
    std::getline(row, name, '\t');
    std::getline(row, unit, '\t');
    std::getline(row, source, '\t');
    std::getline(row, values);
    std::istringstream vs(values);
    LayerSamples::Series& s = samples.series[name];
    s.unit = unit;
    s.source = source;
    double v = 0.0;
    while (vs >> v) s.values.push_back(v);
  }
  return samples;
}

}  // namespace

LayerSamples run_ledger(const LedgerInput& input, const std::string& work_dir) {
  const std::string dir = work_dir + "/ledger";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/samples.tsv";
  // Forked after the shared pool exists, as explore workers are: the
  // plans stage then runs inline.
  (void)util::ThreadPool::shared();
  const pid_t pid = util::spawn_child([&] {
    LayerSamples samples;
    replay(input, dir, samples);
    write_samples(samples, path);
    return 0;
  });
  const util::ChildExit exit = util::wait_child(pid);
  if (!exit.ok()) {
    throw std::runtime_error("ledger replay child failed (exit " +
                             std::to_string(exit.exit_code) + ", signal " +
                             std::to_string(exit.term_signal) + ")");
  }
  LayerSamples samples = read_samples(path);
  std::filesystem::remove_all(dir);
  return samples;
}

}  // namespace perfbench
