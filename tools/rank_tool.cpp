/// \file rank_tool.cpp
/// \brief Config-driven command-line front end for the rank metric.
///
/// Usage:
///   rank_tool <config-file> [command] [args...]
///   rank_tool selfcheck <seeds> [--shrink] [--first-seed N] [--jobs N]
///                       [--checkpoint FILE]
///   rank_tool faultcheck <seeds> [--first-seed N]
///
/// Global observability flags, accepted anywhere on any command line:
///   --trace FILE.json   capture spans and write Chrome trace-event JSON
///                       (load in Perfetto / chrome://tracing); written
///                       even when the command fails
///   --metrics FILE      write the process metric registry; a .json path
///                       gets JSON, anything else Prometheus text
///   --log FILE          append structured JSONL events (one object per
///                       line: ts_ms, sev, type, fields) to FILE
///   --flight-recorder FILE
///                       arm the in-memory event ring; its last ~256
///                       events are dumped to FILE on SIGTERM/SIGINT, on
///                       server backpressure trips, and at exit
///
/// Commands:
///   rank                      (default) compute and print the rank
///   sweep <K|M|C|R> <lo> <hi> <steps> [--csv] [--out file.csv]
///         [--checkpoint FILE] [--jobs N]
///                             sweep one Table 4 parameter (--jobs
///                             concurrent points, default 4).
///                             With --checkpoint, every completed point is
///                             journaled; rerunning after a crash (SIGKILL
///                             included) resumes from the journal and the
///                             results are bitwise identical to an
///                             uninterrupted run. Failed points print as
///                             n/a (<reason>) and never discard the grid.
///   profile                   print the per-layer-pair assignment trace,
///                             DP effort counters and the staged builder's
///                             cache profile, and verify its placement
///                             certificate
///   sensitivity               print rank elasticities of K, M, C, R
///   wld                       print the WLD summary used for this design
///   selfcheck                 differential self-check: run every rank
///                             engine on <seeds> random scenarios and
///                             cross-check the engine-equivalence
///                             contracts (DESIGN.md Section 6); needs no
///                             config file. Exit 1 on any mismatch, with a
///                             seed repro (minimized when --shrink).
///                             --checkpoint journals checked seeds for
///                             crash-resume.
///   trace                     run one instance build + exact DP with
///                             tracing force-enabled and print the
///                             aggregated span tree (count, total ms,
///                             self ms per span path)
///   faultcheck                deterministic fault injection: sweep
///                             one-shot failures across every registered
///                             fault site x <seeds> seeds and assert each
///                             surfaces as an isolated per-point status
///                             (or the injected error), with builder
///                             caches bitwise-reusable afterwards. Needs
///                             no config file. Exit 1 on any violation.
///   serve <config> (--socket PATH | --port N [--host A.B.C.D])
///         [--workers N] [--queue-cap N] [--sweep-jobs N]
///         [--http-port N [--http-host A.B.C.D]] [--slow-ms MS]
///                             run the rank daemon for the configured
///                             scenario (framed JSON protocol, DESIGN.md
///                             Section 11). --http-port adds a plain-HTTP
///                             listener (GET /metrics Prometheus text,
///                             /metrics.json, /healthz, plus the debug
///                             surfaces /debug/requests, /debug/slow and
///                             /debug/trace?ms=N; 0 = kernel-assigned).
///                             Requests slower than --slow-ms (default
///                             100) land in /debug/slow with their stage
///                             breakdown. Prints `listening on <addr>`
///                             (and `http listening on <addr>`) when
///                             ready; SIGTERM/SIGINT drain in-flight
///                             requests, then the process exits 0.
///   request <addr> ping | metrics | rank [key=value ...]
///           | sweep <K|M|C|R> <lo> <hi> <steps> [key=value ...]
///           | raw <json>
///                             one request against a running daemon.
///                             <addr> is unix:<path> or tcp:<host>:<port>.
///                             key=value pairs become per-request option
///                             overrides (same keys as the config file's
///                             Table 4 / modelling block). Exit 0 on an
///                             ok response, 2 on a request error, 1 on an
///                             internal server error. --timeout S bounds
///                             connect and each read (default 30 s);
///                             --retries N reconnects with exponential
///                             backoff on transport failures.
///   explore <spec> [--dir D] [--workers N] [--jobs N] [--chunk N]
///           [--lease-ttl S] [--poison-threshold N] [--fsync] [--worker]
///                             evaluate the cross product of the spec's
///                             explore.* dimension lists (node, rent_p,
///                             target_model, K, M, C, R), sharded across
///                             --workers forked processes through a leased
///                             file work queue with work-stealing; crash-
///                             tolerant (SIGKILLed workers are respawned,
///                             their leases reclaimed, their journals
///                             merged with a bitwise audit) and resumable
///                             (rerun with the same --dir). Writes
///                             points.csv + pareto.csv into --dir.
///                             --worker attaches one standalone worker to
///                             an existing run directory instead.
///
/// Exit codes: 0 success, 1 internal error (or selfcheck/faultcheck
/// failure), 2 user error (bad usage, bad config, bad input file).
///
/// The config format is documented in src/core/config_run.hpp; sample
/// files live under configs/.

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <csignal>
#include <iostream>
#include <string>
#include <vector>

#include "src/iarank.hpp"
#include "src/core/config_run.hpp"
#include "src/core/explore.hpp"
#include "src/core/faultcheck.hpp"
#include "src/core/instance_builder.hpp"
#include "src/core/selfcheck.hpp"
#include "src/core/sensitivity.hpp"
#include "src/core/verify.hpp"
#include "src/server/protocol.hpp"
#include "src/server/server.hpp"
#include "src/server/service.hpp"
#include "src/util/event_log.hpp"
#include "src/util/json.hpp"
#include "src/util/metrics.hpp"
#include "src/util/strings.hpp"
#include "src/util/trace.hpp"

namespace {

using namespace iarank;

int cmd_rank(const core::RunSpec& spec, const wld::Wld& wld) {
  const auto r = core::compute_rank(spec.design, spec.options, wld);
  std::cout << "rank            = " << r.rank << "\n";
  std::cout << "normalized_rank = " << util::TextTable::num(r.normalized, 6)
            << "\n";
  std::cout << "all_assigned    = " << (r.all_assigned ? "yes" : "no") << "\n";
  std::cout << "repeaters       = " << r.repeater_count << "\n";
  std::cout << "repeater_area   = " << r.repeater_area_used << " m^2\n";
  return 0;
}

int cmd_profile(const core::RunSpec& spec, const wld::Wld& wld) {
  core::InstanceBuilder builder(spec.design, wld);
  const auto inst = builder.build(spec.options);
  const auto r = core::dp_rank(inst);
  util::TextTable table("assignment profile (top pair first)");
  table.set_header({"pair", "wires", "meet_delay", "repeaters"});
  for (const auto& u : r.usage) {
    table.add_row({u.pair_name, std::to_string(u.wires_total),
                   std::to_string(u.wires_meeting_delay),
                   std::to_string(u.repeaters)});
  }
  std::cout << table;

  util::TextTable dp_table("dp effort");
  dp_table.set_header({"metric", "value"});
  dp_table.add_row({"arena nodes", std::to_string(r.dp.arena_nodes)});
  dp_table.add_row({"max frontier", std::to_string(r.dp.max_frontier)});
  dp_table.add_row({"heap pops", std::to_string(r.dp.heap_pops)});
  dp_table.add_row({"verify calls", std::to_string(r.dp.verify_calls)});
  dp_table.add_row(
      {"frontier dominated", std::to_string(r.dp.frontier_dominated)});
  dp_table.add_row({"frontier erased", std::to_string(r.dp.frontier_erased)});
  dp_table.add_row(
      {"forward ms", util::TextTable::num(r.dp.forward_seconds * 1e3, 3)});
  dp_table.add_row({"total ms", util::TextTable::num(r.dp.seconds * 1e3, 3)});
  std::cout << dp_table;

  // Kernel pool accounting (the iarank_dp_arena_bytes / iarank_pool_*
  // gauges, read back from the registry the solve just published to):
  // chunks going flat across solves is the zero-steady-state-allocation
  // property of the reusable kernel.
  const auto gauges = util::MetricsRegistry::instance().snapshot_values();
  const auto gauge_row = [&](util::TextTable& t, const char* label,
                             const char* metric) {
    const auto it = gauges.find(metric);
    t.add_row({label, it != gauges.end()
                          ? std::to_string(static_cast<long long>(it->second))
                          : "n/a"});
  };
  util::TextTable pool_table("dp kernel pool");
  pool_table.set_header({"metric", "value"});
  pool_table.add_row({"arena bytes (this solve)",
                      std::to_string(r.dp.arena_bytes)});
  gauge_row(pool_table, "pool bytes (high water)", "iarank_pool_bytes");
  gauge_row(pool_table, "pool chunks allocated", "iarank_pool_chunks_total");
  std::cout << pool_table;

  // Rebuild once more: the second pass hits every stage cache, which is
  // what a Table 4 sweep exploits point to point.
  (void)builder.build(spec.options);
  const core::BuildProfile prof = builder.profile();
  util::TextTable stage_table("instance builder stages (2 builds)");
  stage_table.set_header({"stage", "hits", "misses", "miss ms"});
  const auto stage_row = [&](const char* name,
                             const core::StageCounters& c) {
    stage_table.add_row({name, std::to_string(c.hits),
                         std::to_string(c.misses),
                         util::TextTable::num(c.seconds * 1e3, 3)});
  };
  stage_row("coarsen", prof.coarsen);
  stage_row("die", prof.die);
  stage_row("stack", prof.stack);
  stage_row("plans", prof.plans);
  std::cout << stage_table;

  const auto verdict = core::verify_placements(inst, r);
  std::cout << "certificate: " << (verdict.ok ? "PASS" : verdict.failure)
            << "\n";
  return 0;
}

int cmd_sensitivity(const core::RunSpec& spec, const wld::Wld& wld) {
  const auto sens =
      core::rank_sensitivities(spec.design, spec.options, wld, 0.05);
  util::TextTable table("rank elasticities (+-5%)");
  table.set_header({"parameter", "value", "elasticity"});
  for (const auto& s : sens) {
    table.add_row({core::to_string(s.parameter),
                   util::TextTable::num(s.base_value, 3),
                   util::TextTable::num(s.elasticity, 2)});
  }
  std::cout << table;
  return 0;
}

int cmd_wld(const core::RunSpec& /*spec*/, const wld::Wld& wld) {
  std::cout << wld.describe() << "\n";
  const auto stats = wld.stats();
  std::cout << "mean length   = " << stats.mean_length << " pitches\n";
  std::cout << "median length = " << stats.median_length << " pitches\n";
  std::cout << "total length  = " << stats.total_length << " pitches\n";
  return 0;
}

int cmd_trace(const core::RunSpec& spec, const wld::Wld& wld) {
  // Force-enable even without --trace: this command IS the trace viewer.
  util::Trace::enable();
  core::InstanceBuilder builder(spec.design, wld);
  const auto inst = builder.build(spec.options);
  const auto r = core::dp_rank(inst);
  std::cout << "rank = " << r.rank << " (normalized "
            << util::TextTable::num(r.normalized, 6) << ")\n\n";
  std::cout << util::Trace::summary_report();
  return 0;
}

int sweep_usage() {
  std::cerr << "usage: rank_tool <config> sweep <K|M|C|R> <lo> <hi> <steps>"
               " [--csv] [--out file.csv] [--checkpoint file.journal]"
               " [--jobs N]\n";
  return 2;
}

int cmd_sweep(const core::RunSpec& spec, const wld::Wld& wld, int argc,
              char** argv) {
  if (argc < 4) return sweep_usage();

  const std::string token = argv[0];
  core::SweepParameter parameter;
  try {
    parameter = core::sweep_parameter_from_string(token);
  } catch (const util::Error&) {
    std::cerr << "sweep: unknown parameter '" << token << "'\n";
    return sweep_usage();
  }

  double lo = 0.0;
  double hi = 0.0;
  long long steps = 0;
  try {
    lo = util::parse_double(argv[1]);
    hi = util::parse_double(argv[2]);
    steps = util::parse_int(argv[3]);
  } catch (const util::Error& e) {
    std::cerr << "sweep: " << e.what() << "\n";
    return sweep_usage();
  }
  if (!std::isfinite(lo) || !std::isfinite(hi)) {
    std::cerr << "sweep: bounds must be finite, got lo=" << argv[1]
              << " hi=" << argv[2] << "\n";
    return sweep_usage();
  }
  if (steps < 2) {
    std::cerr << "sweep: steps must be >= 2, got " << steps << "\n";
    return sweep_usage();
  }

  bool csv = false;
  std::string out;
  core::SweepRunOptions run;
  run.threads = 4;
  for (int a = 4; a < argc; ++a) {
    const std::string flag = argv[a];
    if (flag == "--csv") {
      csv = true;
    } else if (flag == "--out") {
      if (a + 1 >= argc) {
        std::cerr << "sweep: --out needs a file argument\n";
        return sweep_usage();
      }
      out = argv[++a];
    } else if (flag == "--checkpoint") {
      if (a + 1 >= argc) {
        std::cerr << "sweep: --checkpoint needs a file argument\n";
        return sweep_usage();
      }
      run.checkpoint_path = argv[++a];
    } else if (flag == "--jobs") {
      if (a + 1 >= argc) {
        std::cerr << "sweep: --jobs needs a value\n";
        return sweep_usage();
      }
      try {
        const long long jobs = util::parse_int(argv[++a]);
        if (jobs < 1) throw util::Error("jobs must be >= 1");
        run.threads = static_cast<unsigned>(jobs);
      } catch (const util::Error& e) {
        std::cerr << "sweep: " << e.what() << "\n";
        return sweep_usage();
      }
    } else {
      std::cerr << "sweep: unknown flag '" << flag << "'\n";
      return sweep_usage();
    }
  }

  const auto sweep = core::sweep_parameter(
      spec.design, spec.options, wld, parameter,
      util::linspace(lo, hi, static_cast<std::size_t>(steps)), run);
  if (!run.checkpoint_path.empty()) {
    std::cout << "checkpoint: " << run.checkpoint_path << " ("
              << sweep.profile.resumed_points << " of "
              << sweep.points.size() << " points resumed)\n";
  }
  if (sweep.profile.failed_points > 0) {
    std::cout << "warning: " << sweep.profile.failed_points
              << " point(s) failed; see the n/a rows ("
              << util::TextTable::num(
                     sweep.profile.failed_point_seconds * 1e3, 3)
              << " ms spent on failed points)\n";
  }
  if (!out.empty()) {
    core::save_sweep_csv(out, sweep);
    std::cout << "wrote " << out << "\n";
  }
  util::TextTable table(core::to_string(parameter));
  table.set_header({"value", "normalized_rank", "rank"});
  for (const auto& p : sweep.points) {
    if (!p.status.ok()) {
      table.add_row({util::TextTable::num(p.value, 4), p.status.label(),
                     "n/a"});
      continue;
    }
    table.add_row({util::TextTable::num(p.value, 4),
                   util::TextTable::num(p.result.normalized, 6),
                   std::to_string(p.result.rank)});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    std::cout << table;
  }
  return 0;
}

int selfcheck_usage() {
  std::cerr << "usage: rank_tool selfcheck <seeds> [--shrink]"
               " [--first-seed N] [--jobs N] [--checkpoint file.journal]\n";
  return 2;
}

int cmd_selfcheck(int argc, char** argv) {
  if (argc < 1) return selfcheck_usage();

  long long seeds = 0;
  core::SelfCheckOptions options;
  options.shrink = false;
  try {
    seeds = util::parse_int(argv[0]);
    for (int a = 1; a < argc; ++a) {
      const std::string flag = argv[a];
      if (flag == "--shrink") {
        options.shrink = true;
      } else if (flag == "--first-seed") {
        if (a + 1 >= argc) {
          std::cerr << "selfcheck: --first-seed needs a value\n";
          return selfcheck_usage();
        }
        options.first_seed =
            static_cast<std::uint64_t>(util::parse_int(argv[++a]));
      } else if (flag == "--jobs") {
        if (a + 1 >= argc) {
          std::cerr << "selfcheck: --jobs needs a value\n";
          return selfcheck_usage();
        }
        options.parallelism =
            static_cast<unsigned>(util::parse_int(argv[++a]));
      } else if (flag == "--checkpoint") {
        if (a + 1 >= argc) {
          std::cerr << "selfcheck: --checkpoint needs a file argument\n";
          return selfcheck_usage();
        }
        options.checkpoint_path = argv[++a];
      } else {
        std::cerr << "selfcheck: unknown flag '" << flag << "'\n";
        return selfcheck_usage();
      }
    }
  } catch (const util::Error& e) {
    std::cerr << "selfcheck: " << e.what() << "\n";
    return selfcheck_usage();
  }
  if (seeds < 1) {
    std::cerr << "selfcheck: seed count must be >= 1, got " << seeds << "\n";
    return selfcheck_usage();
  }

  const core::SelfCheckReport report = core::run_selfcheck(seeds, options);
  std::cout << "selfcheck: " << report.scenarios << " scenarios from seed "
            << options.first_seed << "\n";
  if (!options.checkpoint_path.empty()) {
    std::cout << "  resumed from checkpoint    " << report.resumed << "\n";
  }
  std::cout << "  brute-force oracle ran on " << report.brute_checked
            << "\n";
  std::cout << "  reference dp ran on       " << report.reference_checked
            << "\n";
  std::cout << "  mismatches                " << report.failures.size()
            << "\n";
  if (report.scenarios > report.resumed) {
    std::cout << "  seed time p50/p95/max ms  "
              << util::TextTable::num(report.seed_seconds_p50 * 1e3, 3) << " / "
              << util::TextTable::num(report.seed_seconds_p95 * 1e3, 3) << " / "
              << util::TextTable::num(report.seed_seconds_max * 1e3, 3)
              << "\n";
  }
  for (const core::SelfCheckFailure& f : report.failures) {
    std::cout << "\nMISMATCH seed " << f.seed << ": " << f.mismatch << "\n";
    std::cout << (options.shrink ? "--- shrunk repro ---\n"
                                 : "--- repro ---\n");
    std::cout << f.shrunk.describe();
    std::cout << "repro: rank_tool selfcheck 1 --first-seed " << f.seed
              << " --shrink\n";
  }
  std::cout << (report.ok() ? "OK" : "FAIL") << "\n";
  return report.ok() ? 0 : 1;
}

int faultcheck_usage() {
  std::cerr << "usage: rank_tool faultcheck <seeds> [--first-seed N]\n";
  return 2;
}

int cmd_faultcheck(int argc, char** argv) {
  if (argc < 1) return faultcheck_usage();

  core::FaultCheckOptions options;
  try {
    options.seeds = util::parse_int(argv[0]);
    for (int a = 1; a < argc; ++a) {
      const std::string flag = argv[a];
      if (flag == "--first-seed") {
        if (a + 1 >= argc) {
          std::cerr << "faultcheck: --first-seed needs a value\n";
          return faultcheck_usage();
        }
        options.first_seed =
            static_cast<std::uint64_t>(util::parse_int(argv[++a]));
      } else {
        std::cerr << "faultcheck: unknown flag '" << flag << "'\n";
        return faultcheck_usage();
      }
    }
  } catch (const util::Error& e) {
    std::cerr << "faultcheck: " << e.what() << "\n";
    return faultcheck_usage();
  }
  if (options.seeds < 1) {
    std::cerr << "faultcheck: seed count must be >= 1\n";
    return faultcheck_usage();
  }

  const core::FaultCheckReport report = core::run_faultcheck(options);
  util::TextTable table("fault injection (" + std::to_string(options.seeds) +
                        " seeds per site)");
  table.set_header(
      {"site", "hits", "injected", "isolated", "propagated", "recovered"});
  for (const core::FaultSiteOutcome& s : report.sites) {
    table.add_row({s.site, std::to_string(s.workload_hits),
                   std::to_string(s.injections), std::to_string(s.isolated),
                   std::to_string(s.propagated),
                   std::to_string(s.recovered)});
  }
  std::cout << table;
  std::cout << "armed runs: " << report.runs << "\n";
  if (report.runs > 0) {
    std::cout << "run time p50/p95/max ms: "
              << util::TextTable::num(report.run_seconds_p50 * 1e3, 3) << " / "
              << util::TextTable::num(report.run_seconds_p95 * 1e3, 3) << " / "
              << util::TextTable::num(report.run_seconds_max * 1e3, 3) << "\n";
  }
  for (const std::string& v : report.violations) {
    std::cout << "VIOLATION: " << v << "\n";
  }
  std::cout << (report.ok() ? "OK" : "FAIL") << "\n";
  return report.ok() ? 0 : 1;
}

int serve_usage() {
  std::cerr << "usage: rank_tool serve <config>"
               " (--socket PATH | --port N [--host A.B.C.D])"
               " [--workers N] [--queue-cap N] [--sweep-jobs N]"
               " [--http-port N [--http-host A.B.C.D]] [--slow-ms MS]\n";
  return 2;
}

// SIGTERM/SIGINT handoff to the main thread: the handler's only
// async-signal-safe job is one write to this self-pipe; the main thread
// blocks on the read end and runs the orderly drain.
int g_shutdown_pipe[2] = {-1, -1};

void on_shutdown_signal(int /*signo*/) {
  const char byte = 's';
  [[maybe_unused]] const ::ssize_t n = ::write(g_shutdown_pipe[1], &byte, 1);
}

int cmd_serve(int argc, char** argv) {
  if (argc < 1) return serve_usage();
  const std::string config_path = argv[0];

  server::ServerOptions options;
  server::ServiceOptions service_options;
  bool have_address = false;
  const auto int_flag = [&](int& a, const char* name) {
    if (a + 1 >= argc) {
      throw util::Error(std::string("serve: ") + name + " needs a value");
    }
    return util::parse_int(argv[++a]);
  };
  try {
    for (int a = 1; a < argc; ++a) {
      const std::string flag = argv[a];
      if (flag == "--socket") {
        if (a + 1 >= argc) throw util::Error("serve: --socket needs a path");
        options.address.kind = server::Address::Kind::kUnix;
        options.address.path = argv[++a];
        have_address = true;
      } else if (flag == "--port") {
        const long long port = int_flag(a, "--port");
        if (port < 0 || port > 65535) {
          throw util::Error("serve: port out of range");
        }
        options.address.kind = server::Address::Kind::kTcp;
        options.address.port = static_cast<int>(port);
        have_address = true;
      } else if (flag == "--host") {
        if (a + 1 >= argc) throw util::Error("serve: --host needs a value");
        options.address.host = argv[++a];
      } else if (flag == "--workers") {
        const long long workers = int_flag(a, "--workers");
        if (workers < 1) throw util::Error("serve: --workers must be >= 1");
        options.workers = static_cast<unsigned>(workers);
      } else if (flag == "--queue-cap") {
        const long long cap = int_flag(a, "--queue-cap");
        if (cap < 1) throw util::Error("serve: --queue-cap must be >= 1");
        options.queue_capacity = static_cast<std::size_t>(cap);
      } else if (flag == "--http-port") {
        const long long port = int_flag(a, "--http-port");
        if (port < 0 || port > 65535) {
          throw util::Error("serve: http port out of range");
        }
        options.http_port = static_cast<int>(port);
      } else if (flag == "--http-host") {
        if (a + 1 >= argc) {
          throw util::Error("serve: --http-host needs a value");
        }
        options.http_host = argv[++a];
      } else if (flag == "--sweep-jobs") {
        const long long jobs = int_flag(a, "--sweep-jobs");
        if (jobs < 1) throw util::Error("serve: --sweep-jobs must be >= 1");
        service_options.sweep_threads = static_cast<unsigned>(jobs);
      } else if (flag == "--slow-ms") {
        if (a + 1 >= argc) throw util::Error("serve: --slow-ms needs a value");
        options.slow_ms = util::parse_double(argv[++a]);
      } else if (flag == "--test-endpoints") {
        // Undocumented: enables the sleep request type (load tests only).
        service_options.enable_test_endpoints = true;
      } else {
        std::cerr << "serve: unknown flag '" << flag << "'\n";
        return serve_usage();
      }
    }
  } catch (const util::Error& e) {
    std::cerr << e.what() << "\n";
    return serve_usage();
  }
  if (!have_address) {
    std::cerr << "serve: one of --socket or --port is required\n";
    return serve_usage();
  }

  const auto config = util::Config::load(config_path);
  const auto spec = core::run_spec_from_config(config);
  const auto wld = core::resolve_wld(spec);
  server::RankService service(spec, wld, service_options);
  server::Server daemon(service, options);

  if (::pipe(g_shutdown_pipe) != 0) {
    std::cerr << "serve: pipe() failed\n";
    return 1;
  }
  std::signal(SIGTERM, on_shutdown_signal);
  std::signal(SIGINT, on_shutdown_signal);

  // The readiness lines scripts wait for (flushed before blocking). The
  // http line carries the resolved port when --http-port 0 asked the
  // kernel to pick one.
  std::cout << "listening on " << server::to_string(daemon.address())
            << std::endl;
  if (daemon.http_enabled()) {
    std::cout << "http listening on "
              << server::to_string(daemon.http_address()) << std::endl;
  }

  char byte;
  ::ssize_t n;
  do {
    n = ::read(g_shutdown_pipe[0], &byte, 1);
  } while (n < 0 && errno == EINTR);

  std::cout << "shutdown signal received; draining" << std::endl;
  daemon.stop();
  ::close(g_shutdown_pipe[0]);
  ::close(g_shutdown_pipe[1]);
  std::cout << "drained; exiting" << std::endl;
  return 0;
}

int request_usage() {
  std::cerr << "usage: rank_tool request <addr> ping\n"
               "       rank_tool request <addr> metrics\n"
               "       rank_tool request <addr> rank [key=value ...]\n"
               "       rank_tool request <addr> sweep <K|M|C|R> <lo> <hi>"
               " <steps> [key=value ...]\n"
               "       rank_tool request <addr> raw <json>\n"
               "  <addr>: unix:<path> or tcp:<host>:<port>\n"
               "  flags: --timeout S (connect/read deadline, default 30;"
               " 0 = none)\n"
               "         --retries N (reconnect attempts on transport"
               " failure, default 0)\n";
  return 2;
}

int explore_usage() {
  std::cerr
      << "usage: rank_tool explore <spec> [--dir D] [--workers N] [--jobs N]\n"
         "                 [--chunk N] [--lease-ttl S] [--poison-threshold N]\n"
         "                 [--fsync] [--worker]\n"
         "  <spec>: a rank_tool config plus explore.* dimension lists\n"
         "          (explore.node, explore.rent_p, explore.target_model,\n"
         "          explore.K/M/C/R as comma lists or lo:hi:n ranges)\n"
         "  --dir D          run directory (default explore-run); a rerun\n"
         "                   with the same spec resumes from its journals\n"
         "  --workers N      worker processes to fork (default 0 = evaluate\n"
         "                   in-process); SIGKILLed workers are respawned\n"
         "                   and their leases reclaimed\n"
         "  --jobs N         threads for in-process evaluation (default 1)\n"
         "  --chunk N        lease granularity in grid points (default 256)\n"
         "  --lease-ttl S    heartbeat staleness before reclaim (default 10)\n"
         "  --worker         run one worker attached to --dir's queue (a\n"
         "                   coordinator must have populated it)\n";
  return 2;
}

int cmd_explore(int argc, char** argv) {
  if (argc < 1) return explore_usage();
  const std::string spec_path = argv[0];
  core::ExploreOptions options;
  bool worker_mode = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--fsync") {
      options.fsync_journal = true;
      continue;
    }
    if (arg == "--worker") {
      worker_mode = true;
      continue;
    }
    if (a + 1 >= argc) return explore_usage();
    const std::string value = argv[++a];
    if (arg == "--dir") {
      options.dir = value;
    } else if (arg == "--workers") {
      options.workers = static_cast<int>(util::parse_int(value));
    } else if (arg == "--jobs") {
      const long long jobs = util::parse_int(value);
      if (jobs < 1) return explore_usage();
      options.jobs = static_cast<unsigned>(jobs);
    } else if (arg == "--chunk") {
      options.chunk_points = util::parse_int(value);
    } else if (arg == "--lease-ttl") {
      options.lease_ttl_seconds = util::parse_double(value);
    } else if (arg == "--poison-threshold") {
      options.poison_threshold = static_cast<int>(util::parse_int(value));
    } else {
      return explore_usage();
    }
  }

  const core::ExploreSpec spec = core::ExploreSpec::load(spec_path);
  if (worker_mode) return core::run_explore_worker(spec, options);

  const core::ExploreResult result = core::run_explore(spec, options);
  std::cout << "explore: " << spec.total_points() << " points, ok "
            << result.ok << ", failed " << result.failed << ", quarantined "
            << result.quarantined << "\n"
            << "merge: resumed " << result.resumed << ", duplicates "
            << result.duplicates << ", torn tails " << result.torn_tails
            << "\n"
            << "pareto front: " << result.pareto.size() << " points\n"
            << "results: " << options.dir << "/points.csv, " << options.dir
            << "/pareto.csv\n";
  return 0;
}

util::Json overrides_from_args(int argc, char** argv, int start) {
  util::Json overrides;
  for (int a = start; a < argc; ++a) {
    const std::string pair = argv[a];
    const auto eq = pair.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw util::Error("request: expected key=value, got '" + pair + "'");
    }
    overrides[pair.substr(0, eq)] = pair.substr(eq + 1);
  }
  return overrides;
}

int cmd_request(int argc, char** argv) {
  // Client resilience flags, accepted anywhere: a wedged daemon must be a
  // bounded-time failure, and a restarting one is worth a few retries.
  server::ClientOptions client;
  client.timeout_seconds = 30.0;
  {
    std::vector<char*> kept;
    kept.reserve(static_cast<std::size_t>(argc));
    for (int a = 0; a < argc; ++a) {
      const std::string arg = argv[a];
      if (arg == "--timeout" || arg == "--retries") {
        if (a + 1 >= argc) {
          std::cerr << "request: " << arg << " needs a value\n";
          return request_usage();
        }
        if (arg == "--timeout") {
          client.timeout_seconds = util::parse_double(argv[++a]);
        } else {
          client.retries = static_cast<int>(util::parse_int(argv[++a]));
        }
        continue;
      }
      kept.push_back(argv[a]);
    }
    for (std::size_t i = 0; i < kept.size(); ++i) argv[i] = kept[i];
    argc = static_cast<int>(kept.size());
  }
  if (argc < 2) return request_usage();
  const server::Address address = server::parse_address(argv[0]);
  const std::string what = argv[1];

  std::string payload;
  if (what == "ping" || what == "metrics") {
    util::Json request;
    request["type"] = what;
    payload = request.dump();
  } else if (what == "rank") {
    util::Json request;
    request["type"] = "rank";
    if (argc > 2) request["overrides"] = overrides_from_args(argc, argv, 2);
    payload = request.dump();
  } else if (what == "sweep") {
    if (argc < 6) return request_usage();
    util::Json request;
    request["type"] = "sweep";
    request["parameter"] = argv[2];
    request["lo"] = util::parse_double(argv[3]);
    request["hi"] = util::parse_double(argv[4]);
    request["steps"] = static_cast<std::int64_t>(util::parse_int(argv[5]));
    if (argc > 6) request["overrides"] = overrides_from_args(argc, argv, 6);
    payload = request.dump();
  } else if (what == "raw") {
    if (argc < 3) return request_usage();
    payload = argv[2];
  } else {
    std::cerr << "request: unknown request '" << what << "'\n";
    return request_usage();
  }

  const std::string response_text =
      server::request_with_retry(address, payload, client);

  // An unparseable response is a server bug; report it verbatim.
  util::Json response;
  try {
    response = util::Json::parse(response_text);
  } catch (const util::Error&) {
    std::cerr << "request: unparseable response: " << response_text << "\n";
    return 1;
  }
  const util::Json* ok = response.is_object() ? response.find("ok") : nullptr;
  if (ok != nullptr && ok->is_bool() && ok->as_bool()) {
    // Metrics unwrap to the Prometheus text itself; everything else prints
    // as the response JSON.
    const util::Json* body = response.find("body");
    if (what == "metrics" && body != nullptr && body->is_string()) {
      std::cout << body->as_string();
    } else {
      std::cout << response_text << "\n";
    }
    return 0;
  }
  std::cerr << response_text << "\n";
  const util::Json* error = response.find("error");
  if (error != nullptr && error->is_object()) {
    const util::Json* code = error->find("code");
    if (code != nullptr && code->is_string() &&
        code->as_string() == "internal") {
      return 1;
    }
  }
  return 2;
}

/// Global observability flags, stripped from argv before dispatch so every
/// subcommand accepts them in any position.
struct ObservabilityFlags {
  std::string trace_path;
  std::string metrics_path;
  std::string log_path;
  std::string flight_path;
  bool bad_usage = false;
};

ObservabilityFlags strip_observability_flags(int& argc, char** argv) {
  ObservabilityFlags flags;
  std::vector<char*> kept;
  kept.reserve(static_cast<std::size_t>(argc));
  for (int a = 0; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--trace" || arg == "--metrics" || arg == "--log" ||
        arg == "--flight-recorder") {
      if (a + 1 >= argc) {
        std::cerr << "rank_tool: " << arg << " needs a file argument\n";
        flags.bad_usage = true;
        return flags;
      }
      std::string& slot = arg == "--trace"     ? flags.trace_path
                          : arg == "--metrics" ? flags.metrics_path
                          : arg == "--log"     ? flags.log_path
                                               : flags.flight_path;
      slot = argv[++a];
      continue;
    }
    kept.push_back(argv[a]);
  }
  for (std::size_t i = 0; i < kept.size(); ++i) argv[i] = kept[i];
  argc = static_cast<int>(kept.size());
  return flags;
}

/// SIGTERM/SIGINT with the flight recorder armed: the only async-signal-
/// safe work is the recorder's raw-syscall dump; then the default action
/// runs so the exit status still says "killed by signal".
void on_fatal_signal(int signo) {
  iarank::util::EventLog::instance().dump_flight_recorder_signal_safe();
  std::signal(signo, SIG_DFL);
  ::raise(signo);
}

int dispatch(int argc, char** argv) {
  // Single top-level handler: util::Error categories map onto exit codes
  // (user error -> 2, internal/unknown -> 1), so scripts and CI can tell
  // "you gave me a bad config" from "the tool itself broke".
  try {
    if (std::string(argv[1]) == "selfcheck") {
      return cmd_selfcheck(argc - 2, argv + 2);
    }
    if (std::string(argv[1]) == "faultcheck") {
      return cmd_faultcheck(argc - 2, argv + 2);
    }
    if (std::string(argv[1]) == "serve") {
      return cmd_serve(argc - 2, argv + 2);
    }
    if (std::string(argv[1]) == "request") {
      return cmd_request(argc - 2, argv + 2);
    }
    if (std::string(argv[1]) == "explore") {
      return cmd_explore(argc - 2, argv + 2);
    }
    const auto config = iarank::util::Config::load(argv[1]);
    const auto spec = iarank::core::run_spec_from_config(config);
    const auto wld = iarank::core::resolve_wld(spec);

    const std::string command = argc > 2 ? argv[2] : "rank";
    if (command == "rank") return cmd_rank(spec, wld);
    if (command == "profile") return cmd_profile(spec, wld);
    if (command == "wld") return cmd_wld(spec, wld);
    if (command == "sensitivity") return cmd_sensitivity(spec, wld);
    if (command == "trace") return cmd_trace(spec, wld);
    if (command == "sweep") return cmd_sweep(spec, wld, argc - 3, argv + 3);
    std::cerr << "unknown command '" << command << "'\n";
    return 2;
  } catch (const iarank::util::Error& e) {
    std::cerr << "rank_tool: error (" << to_string(e.category())
              << "): " << e.what() << "\n";
    switch (e.category()) {
      case iarank::util::ErrorCategory::kBadInput:
      case iarank::util::ErrorCategory::kInfeasible:
      case iarank::util::ErrorCategory::kIo:
        return 2;
      case iarank::util::ErrorCategory::kInternal:
        return 1;
    }
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "rank_tool: internal error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const ObservabilityFlags obs = strip_observability_flags(argc, argv);
  if (obs.bad_usage) return 2;
  if (argc < 2) {
    std::cerr << "usage: rank_tool <config-file>"
                 " [rank|sweep|profile|sensitivity|trace|wld] ...\n"
                 "       rank_tool selfcheck <seeds> [--shrink]\n"
                 "       rank_tool faultcheck <seeds> [--first-seed N]\n"
                 "       rank_tool serve <config-file>"
                 " (--socket PATH | --port N) [--workers N]\n"
                 "       rank_tool request <addr>"
                 " ping|metrics|rank|sweep|raw ...\n"
                 "       rank_tool explore <spec> [--dir D] [--workers N]"
                 " [--worker] ...\n"
                 "       any command also accepts --trace FILE.json,"
                 " --metrics FILE,\n"
                 "       --log FILE (JSONL events) and --flight-recorder"
                 " FILE\n";
    return 2;
  }

  if (!obs.trace_path.empty()) iarank::util::Trace::enable();
  try {
    if (!obs.log_path.empty()) {
      iarank::util::EventLog::instance().open(obs.log_path);
    }
    if (!obs.flight_path.empty()) {
      iarank::util::EventLog::instance().arm_flight_recorder(obs.flight_path);
      // Dump the ring before dying on a signal; serve installs its own
      // drain handler later, and its orderly exit reaches the exit-time
      // dump below instead.
      std::signal(SIGTERM, on_fatal_signal);
      std::signal(SIGINT, on_fatal_signal);
    }
  } catch (const std::exception& e) {
    std::cerr << "rank_tool: cannot open event log: " << e.what() << "\n";
    return 2;
  }
  {
    iarank::util::EventLog& events = iarank::util::EventLog::instance();
    if (events.enabled()) {
      iarank::util::Json fields;
      iarank::util::Json args(iarank::util::Json::Array{});
      for (int a = 1; a < argc; ++a) args.push_back(std::string(argv[a]));
      fields["argv"] = std::move(args);
      fields["pid"] = static_cast<std::int64_t>(::getpid());
      events.emit(iarank::util::Severity::kInfo, "tool.start",
                  std::move(fields));
    }
  }
  int rc = dispatch(argc, argv);
  {
    iarank::util::EventLog& events = iarank::util::EventLog::instance();
    if (events.enabled()) {
      iarank::util::Json fields;
      fields["exit_code"] = static_cast<std::int64_t>(rc);
      events.emit(iarank::util::Severity::kInfo, "tool.exit",
                  std::move(fields));
    }
  }

  // Exports happen even when the command failed: a trace of the failing
  // run is exactly what the flag was passed for.
  try {
    if (!obs.trace_path.empty()) {
      iarank::util::Trace::disable();
      iarank::util::Trace::save_chrome_json(obs.trace_path);
      std::cerr << "trace written to " << obs.trace_path << "\n";
    }
    if (!obs.metrics_path.empty()) {
      iarank::util::MetricsRegistry::instance().save(obs.metrics_path);
      std::cerr << "metrics written to " << obs.metrics_path << "\n";
    }
    if (!obs.log_path.empty()) {
      iarank::util::EventLog::instance().close();
      std::cerr << "events written to " << obs.log_path << "\n";
    }
    if (!obs.flight_path.empty()) {
      // A run that ends without crashing still leaves its last events on
      // disk — the recorder is a postmortem either way.
      iarank::util::EventLog::instance().dump_flight_recorder();
      std::cerr << "flight recorder written to " << obs.flight_path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "rank_tool: observability export failed: " << e.what()
              << "\n";
    if (rc == 0) rc = 2;
  }
  return rc;
}
