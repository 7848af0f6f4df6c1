/// \file main.cpp
/// \brief Entry point of the perfbench program.
///
///   perfbench --workload W --seed N --seconds S --trace 0|1 [--work-dir D]
///   perfbench --corpus --seed N
///   perfbench --select-corpus V > src/synthetic_slots.inc
///
/// Prints, as the last line of stdout, one JSON object with the keys
/// correct, attempted, failed and metrics: the end-to-end metrics with
/// --trace 0, the per-layer metrics with --trace 1. A traced run also
/// writes every per-layer metric with its median, sample count and tail
/// percentile to <work-dir>/trace-<workload>.json and prints that object
/// on the line before.
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "src/util/atomic_file.hpp"
#include "workloads.hpp"

namespace {

using perfbench::json_number;
using perfbench::json_string;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload explore_table4|service_warm|dp_hard"
               " --seed N --seconds S --trace 0|1 [--work-dir DIR]\n"
               "       perfbench --corpus --seed N\n"
               "       perfbench --select-corpus VARIANTS\n";
  std::exit(2);
}

perfbench::Args parse_args(int argc, char** argv) {
  perfbench::Args args;
  args.work_dir = ".bench_build/work";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corpus") {
      args.corpus = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--select-corpus") {
        args.select_variants = std::stoi(value);
        if (args.select_variants <= 0) usage("--select-corpus takes a positive count");
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!args.corpus && args.select_variants == 0 && args.workload.empty()) {
    usage("--workload is required");
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

std::string metric_json(const std::string& name, const std::string& unit,
                        double value) {
  return json_string(name) + ": {\"value\": " + json_number(value) +
         ", \"unit\": " + json_string(unit) + "}";
}

std::string trace_json(const perfbench::Args& args,
                       const perfbench::RunOutcome& out) {
  std::ostringstream os;
  os << "{\"workload\": " << json_string(args.workload)
     << ", \"seed\": " << args.seed << ", \"seconds\": " << json_number(args.seconds)
     << ", \"per_layer\": {";
  bool first = true;
  for (const perfbench::LayerMetric& m : out.layers) {
    os << (first ? "" : ", ") << json_string(m.name) << ": {\"unit\": "
       << json_string(m.unit) << ", \"median\": " << json_number(m.summary.median)
       << ", \"samples\": " << m.summary.count
       << ", \"max\": " << json_number(m.summary.max);
    if (m.summary.tail_percentile > 0.0) {
      os << ", \"tail_percentile\": " << json_number(m.summary.tail_percentile)
         << ", \"tail_value\": " << json_number(m.summary.tail_value);
    }
    os << ", \"source\": " << json_string(m.source) << "}";
    first = false;
  }
  os << "}, \"end_to_end_traced\": {";
  first = true;
  for (const perfbench::Metric& m : out.end_to_end) {
    os << (first ? "" : ", ") << metric_json(m.name, m.unit, m.value);
    first = false;
  }
  os << "}, \"notes\": {";
  first = true;
  for (const perfbench::Metric& m : out.notes) {
    os << (first ? "" : ", ") << metric_json(m.name, m.unit, m.value);
    first = false;
  }
  os << "}}";
  return os.str();
}

int run_and_print(const perfbench::Args& args) {
  try {
    const perfbench::RunOutcome out = perfbench::run_workload(args);
    std::ostringstream line;
    line << "{\"correct\": " << (out.correct ? "true" : "false")
         << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
         << ", \"metrics\": {";
    bool first = true;
    if (args.trace) {
      const std::string trace = trace_json(args, out);
      iarank::util::atomic_write_file(
          args.work_dir + "/trace-" + args.workload + ".json", trace + "\n");
      std::cout << trace << "\n";
      for (const perfbench::LayerMetric& m : out.layers) {
        // *_max metrics report the largest sample, every other the median.
        const bool is_max = m.name.size() > 4 &&
                            m.name.compare(m.name.size() - 4, 4, "_max") == 0;
        line << (first ? "" : ", ")
             << metric_json(m.name, m.unit, is_max ? m.summary.max : m.summary.median);
        first = false;
      }
    } else {
      for (const perfbench::Metric& m : out.end_to_end) {
        line << (first ? "" : ", ") << metric_json(m.name, m.unit, m.value);
        first = false;
      }
    }
    line << "}}";
    // Flushed here: a forked child leaves through _exit.
    std::cout << line.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: workload=" << args.workload << " seed=" << args.seed
              << " failed: " << e.what() << std::endl;
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse_args(argc, argv);
  try {
    if (args.corpus) {
      perfbench::print_corpus(args.seed);
      return 0;
    }
    if (args.select_variants > 0) {
      perfbench::print_slot_table(args.select_variants);
      return 0;
    }
    std::filesystem::create_directories(args.work_dir);
    if (perfbench::runs_in_forked_child(args.workload)) {
      return perfbench::in_forked_child([&] { return run_and_print(args); });
    }
    return run_and_print(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: workload=" << args.workload << " seed=" << args.seed
              << " failed: " << e.what() << "\n";
    return 1;
  }
}
