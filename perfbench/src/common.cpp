#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iostream>

#include "src/util/metrics.hpp"

namespace perfbench {

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  s.median = n % 2 == 1 ? samples[n / 2]
                        : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  s.max = samples.back();
  if (n >= 40) {
    for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
      // Nearest-rank percentile; the samples strictly above its rank are
      // the ones "beyond" it.
      const auto rank = static_cast<std::size_t>(
          std::ceil(p / 100.0 * static_cast<double>(n)));
      if (rank >= 1 && n - rank >= 10) {
        s.tail_percentile = p;
        s.tail_value = samples[rank - 1];
        break;
      }
    }
  }
  return s;
}

double median_of(std::vector<double> samples) {
  return summarize(std::move(samples)).median;
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  const long kb = std::max(self.ru_maxrss, children.ru_maxrss);
  return static_cast<double>(kb) / 1024.0;
}

std::int64_t pool_batches() {
  return iarank::util::MetricsRegistry::counter("iarank_pool_batches_total")
      .value();
}

void report_failure(RunOutcome& out, const std::string& workload,
                    std::uint64_t seed, const std::string& what,
                    std::int64_t operations) {
  static int printed = 0;
  out.failed += operations;
  out.correct = false;
  if (++printed <= 20) {
    std::cerr << "perfbench: FAILED workload=" << workload << " seed=" << seed
              << ": " << what << "\n";
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

namespace {

/// Pins the calling process to `cpu` alone.
void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

double run_rounds(double seconds, bool rotate_cpus,
                  const std::function<RoundTiming()>& round) {
  constexpr std::size_t kMinRounds = 3;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (rotate_cpus && ::sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  std::size_t rounds = 0;
  std::int64_t operations = 0;
  double busy = 0.0;
  std::size_t next_cpu = 0;
  Clock::time_point moved = Clock::now() - std::chrono::hours(1);
  const Clock::time_point start = Clock::now();
  while (rounds < kMinRounds || seconds_between(start, Clock::now()) < seconds) {
    if (cpus.size() > 1 && seconds_between(moved, Clock::now()) >= 1.0) {
      pin_to(cpus[next_cpu++ % cpus.size()]);
      moved = Clock::now();
    }
    const RoundTiming t = round();
    operations += t.operations;
    busy += t.seconds;
    ++rounds;
  }
  if (cpus.size() > 1) ::sched_setaffinity(0, sizeof allowed, &allowed);
  return static_cast<double>(operations) / busy;
}

double median_setup_seconds(int times, const std::function<void()>& setup) {
  std::vector<double> samples;
  for (int i = 0; i < times; ++i) {
    const Clock::time_point t0 = Clock::now();
    setup();
    samples.push_back(seconds_between(t0, Clock::now()));
  }
  return median_of(std::move(samples));
}

}  // namespace perfbench
