#include "src/core/explore.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

#include "src/core/checkpoint.hpp"
#include "src/core/instance_builder.hpp"
#include "src/util/atomic_file.hpp"
#include "src/util/digest.hpp"
#include "src/util/error.hpp"
#include "src/util/event_log.hpp"
#include "src/util/journal.hpp"
#include "src/util/json.hpp"
#include "src/util/lease_queue.hpp"
#include "src/util/metrics.hpp"
#include "src/util/numeric.hpp"
#include "src/util/stopwatch.hpp"
#include "src/util/strings.hpp"
#include "src/util/subprocess.hpp"
#include "src/util/thread_pool.hpp"
#include "src/util/trace.hpp"

namespace iarank::core {

namespace {

// Per-process point accounting: each worker exports its own registry
// snapshot into <dir>/metrics/, so these read as per-worker totals there
// and as coordinator totals in coordinator.prom.
util::Counter& kPointsOk = util::MetricsRegistry::counter(
    "iarank_explore_points_ok_total", "exploration points evaluated ok");
util::Counter& kPointsFailed = util::MetricsRegistry::counter(
    "iarank_explore_points_failed_total",
    "exploration points whose evaluation threw");
util::Counter& kPointsQuarantined = util::MetricsRegistry::counter(
    "iarank_explore_points_quarantined_total",
    "poisoned points that crashed their salvage child too");
util::Counter& kMergeDuplicates = util::MetricsRegistry::counter(
    "iarank_explore_merge_duplicates_total",
    "duplicate journal records collapsed at merge (bitwise-audited)");
util::Counter& kMergeTornTails = util::MetricsRegistry::counter(
    "iarank_explore_merge_torn_tails_total",
    "journals whose torn tail was dropped at merge");
util::Counter& kWorkersRespawned = util::MetricsRegistry::counter(
    "iarank_explore_workers_respawned_total",
    "worker processes respawned after an exit mid-run");

/// Journal payload of "this worker is about to evaluate the index". A
/// completion record for the same index overwrites it in the entries map;
/// a trailing intent with no completion is the fingerprint of the point a
/// killed worker was inside (the poison-detection signal).
constexpr std::string_view kIntentMarker = "!";

void make_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    throw util::Error("explore: cannot create '" + path +
                          "': " + std::strerror(errno),
                      util::ErrorCategory::kIo);
  }
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return std::string(s.substr(b, e - b));
}

std::vector<std::string> split_list(const std::string& text,
                                    const std::string& key) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    const std::string token = trim(std::string_view(text).substr(start, end - start));
    util::require(!token.empty(), "explore: empty entry in '" + key + "'");
    out.push_back(token);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  util::require(!out.empty(), "explore: '" + key + "' has no entries");
  return out;
}

/// Parses one dimension value list: comma-separated doubles, where a
/// `lo:hi:n` token expands to an n-point linspace.
std::vector<double> parse_value_list(const util::Config& config,
                                     const std::string& key, double fallback) {
  if (!config.has(key)) return {fallback};
  std::vector<double> out;
  for (const std::string& token : split_list(config.get(key), key)) {
    const std::size_t first = token.find(':');
    if (first == std::string::npos) {
      out.push_back(util::parse_double(token));
      continue;
    }
    const std::size_t second = token.find(':', first + 1);
    util::require(second != std::string::npos &&
                      token.find(':', second + 1) == std::string::npos,
                  "explore: '" + key + "' range token '" + token +
                      "' is not lo:hi:n");
    const double lo = util::parse_double(token.substr(0, first));
    const double hi = util::parse_double(token.substr(first + 1, second - first - 1));
    const long long n = util::parse_int(token.substr(second + 1));
    util::require(n >= 1, "explore: '" + key + "' range count must be >= 1");
    for (const double v : util::linspace(lo, hi, static_cast<std::size_t>(n))) {
      out.push_back(v);
    }
  }
  return out;
}

delay::TargetModel target_model_from_name(const std::string& name) {
  if (name == "linear") return delay::TargetModel::kLinear;
  if (name == "sqrt") return delay::TargetModel::kSqrt;
  if (name == "quadratic") return delay::TargetModel::kQuadratic;
  if (name == "uniform") return delay::TargetModel::kUniform;
  throw util::Error("explore: unknown target_model '" + name + "'");
}

// ---------------------------------------------------------------------------
// Poison bookkeeping: "<index> <crash count>" lines, atomically rewritten by
// the coordinator, re-read by workers at each chunk claim.

std::map<std::int64_t, int> load_poison(const std::string& path) {
  std::map<std::int64_t, int> out;
  std::ifstream in(path);
  std::int64_t index = 0;
  long long count = 0;
  while (in >> index >> count) out[index] = static_cast<int>(count);
  return out;
}

void save_poison(const std::string& path,
                 const std::map<std::int64_t, int>& poison) {
  std::ostringstream os;
  for (const auto& [index, count] : poison) {
    os << index << " " << count << "\n";
  }
  util::atomic_write_file(path, os.str());
}

// ---------------------------------------------------------------------------
// Chaos-test hook: IARANK_EXPLORE_CRASH="<index>:<times>:<statefile>" makes
// the evaluating process SIGKILL itself the first <times> times <index> is
// attempted (crash count persisted in <statefile>, one line per crash).
// This is how the tests manufacture a deterministically poisoned point;
// after <times> crashes the point evaluates normally, which is exactly the
// shape the salvage path must recover. Test-only: unset in production.

void maybe_crash_for_test(std::int64_t index) {
  struct Hook {
    std::int64_t index = -1;
    long long times = 0;
    std::string state;
  };
  // Parsed per call: an evaluation costs a DP solve, so a getenv is free,
  // and tests may set the hook after this process already evaluated points.
  const Hook hook = [] {
    Hook h;
    const char* env = std::getenv("IARANK_EXPLORE_CRASH");
    if (env == nullptr) return h;
    const std::string text(env);
    const std::size_t a = text.find(':');
    const std::size_t b = text.find(':', a + 1);
    if (a == std::string::npos || b == std::string::npos) return h;
    try {
      h.index = util::parse_int(text.substr(0, a));
      h.times = util::parse_int(text.substr(a + 1, b - a - 1));
    } catch (const std::exception&) {
      return Hook{};
    }
    h.state = text.substr(b + 1);
    return h;
  }();
  if (hook.index != index || hook.state.empty()) return;
  long long prior = 0;
  {
    std::ifstream in(hook.state);
    std::string line;
    while (std::getline(in, line)) ++prior;
  }
  if (prior >= hook.times) return;
  const int fd = ::open(hook.state.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (fd >= 0) {
    (void)!::write(fd, "x\n", 2);
    ::close(fd);
  }
  (void)::raise(SIGKILL);
}

// ---------------------------------------------------------------------------
// Point evaluation, shared by workers, the salvage children and the
// coordinator's in-process path. One lazily-built InstanceBuilder per
// (node, rent) group so stage caches are reused across the grid.

class PointEvaluator {
 public:
  explicit PointEvaluator(const ExploreSpec& spec)
      : spec_(spec),
        groups_(spec.nodes().size() * spec.rent_ps().size()) {}

  [[nodiscard]] SweepPoint evaluate(std::int64_t index) {
    TRACE_SPAN("explore.point");
    const ExploreSpec::Scenario s = spec_.scenario(index);
    Group& group = groups_[s.node * spec_.rent_ps().size() + s.rent];
    {
      const std::scoped_lock lock(group.mutex);
      if (group.builder == nullptr) {
        // Capacity 1: every grid point is a new option set, so older
        // instances would never be hit again.
        group.builder = std::make_unique<InstanceBuilder>(
            spec_.design(s.node), spec_.wld(s.node, s.rent), 1);
      }
    }
    maybe_crash_for_test(index);
    SweepPoint point;
    point.value = static_cast<double>(index);
    try {
      const RankOptions opt = spec_.options_at(s);
      const Instance inst = group.builder->build(opt);
      DpOptions dp;
      dp.build_trace = false;  // journal carries headline fields only
      dp.refine_boundary = opt.refine_boundary;
      dp_rank_into(inst, dp, point.result);
      point.status = util::Status::make_ok();
    } catch (const std::exception& e) {
      point.result = RankResult{};
      point.status = util::Status::from_exception(e);
    }
    // The journal payload must be a pure function of the grid index: zero
    // the stats, whose timings are wall-clock (they are in the codec), and
    // the witness so a chaos run's records are bitwise-identical to a
    // clean run's.
    point.result.dp = RankResult::DpStats{};
    point.result.witness = DpWitness{};
    if (point.status.ok()) {
      kPointsOk.inc();
    } else {
      kPointsFailed.inc();
    }
    return point;
  }

 private:
  struct Group {
    std::mutex mutex;
    std::unique_ptr<InstanceBuilder> builder;
  };

  const ExploreSpec& spec_;
  std::vector<Group> groups_;  ///< sized at construction, never resized
};

std::string journals_dir(const ExploreOptions& options) {
  return options.dir + "/journals";
}

std::string events_dir(const ExploreOptions& options) {
  return options.dir + "/events";
}

/// Same clock as the lease heartbeats (CLOCK_MONOTONIC, system-wide on
/// Linux), so heartbeat ages in status.json are meaningful.
std::int64_t monotonic_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 +
         static_cast<std::int64_t>(ts.tv_nsec) / 1000000;
}

// ---------------------------------------------------------------------------
// Live status surface: <dir>/status.json, atomically rewritten by the
// coordinator — while workers run, a snapshot of the queue (per-worker
// progress, ETA); after the merge, the final reconciled counts. Readers
// (humans, the chaos smoke) always see a complete JSON document.

void write_running_status(const std::string& path, std::int64_t total,
                          util::LeaseQueue& queue, double elapsed_seconds,
                          std::size_t live_workers,
                          std::size_t poisoned_points) {
  const util::LeaseQueue::Snapshot snap = queue.snapshot();
  std::int64_t todo_points = 0;
  for (const util::LeaseChunk& chunk : snap.todos) {
    todo_points += chunk.hi - chunk.lo;
  }
  const std::int64_t now = monotonic_ms();
  std::int64_t leased_points = 0;
  util::Json workers(util::Json::Array{});
  for (const util::LeaseQueue::LeaseView& lease : snap.leases) {
    leased_points += lease.chunk.hi - lease.progress;
    util::Json w;
    w["worker"] = lease.worker;  // "" for a torn claim awaiting reclaim
    w["lo"] = lease.chunk.lo;
    w["hi"] = lease.chunk.hi;
    w["progress"] = lease.progress;
    w["attempts"] = static_cast<std::int64_t>(lease.chunk.attempts);
    w["heartbeat_age_ms"] =
        std::max<std::int64_t>(0, now - lease.heartbeat_ms);
    workers.push_back(std::move(w));
  }
  const std::int64_t remaining = todo_points + leased_points;
  const std::int64_t done = std::max<std::int64_t>(0, total - remaining);

  util::Json out;
  out["state"] = "running";
  out["total_points"] = total;
  out["done_points"] = done;
  out["todo_points"] = todo_points;
  out["leased_points"] = leased_points;
  out["live_workers"] = static_cast<std::int64_t>(live_workers);
  out["poisoned_points"] = static_cast<std::int64_t>(poisoned_points);
  out["elapsed_seconds"] = elapsed_seconds;
  if (done > 0 && elapsed_seconds > 0.0) {
    out["eta_seconds"] = elapsed_seconds * static_cast<double>(remaining) /
                         static_cast<double>(done);
  }
  out["workers"] = std::move(workers);
  util::atomic_write_file(path, out.dump() + "\n");
}

void write_final_status(const std::string& path, std::int64_t total,
                        const ExploreResult& result, double elapsed_seconds) {
  util::Json out;
  out["state"] = "done";
  out["total_points"] = total;
  out["ok"] = result.ok;
  out["failed"] = result.failed;
  out["quarantined"] = result.quarantined;
  out["resumed"] = result.resumed;
  out["duplicates"] = result.duplicates;
  out["torn_tails"] = result.torn_tails;
  out["pareto_points"] = static_cast<std::int64_t>(result.pareto.size());
  out["elapsed_seconds"] = elapsed_seconds;
  util::atomic_write_file(path, out.dump() + "\n");
}

/// Concatenates every per-worker event log into <dir>/events.jsonl. Each
/// worker file is complete, line-oriented JSONL, so plain concatenation
/// (in sorted name order, for reproducible diagnostics) is a valid merge.
void merge_event_logs(const ExploreOptions& options) {
  std::vector<std::string> names;
  if (DIR* d = ::opendir(events_dir(options).c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      const std::string_view name(entry->d_name);
      if (name.size() > 6 &&
          name.substr(name.size() - 6) == std::string_view(".jsonl")) {
        names.emplace_back(name);
      }
    }
    ::closedir(d);
  }
  if (names.empty()) return;
  std::sort(names.begin(), names.end());
  std::string merged;
  for (const std::string& name : names) {
    std::ifstream in(events_dir(options) + "/" + name, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    merged += buf.str();
    if (!merged.empty() && merged.back() != '\n') merged += '\n';
  }
  util::atomic_write_file(options.dir + "/events.jsonl", merged);
}

/// Every journal file of the run, sorted by name for a deterministic merge
/// order (first-complete-wins only ever keeps bitwise-equal copies, but a
/// stable order keeps diagnostics reproducible).
std::vector<std::string> list_journal_files(const std::string& dir) {
  std::vector<std::string> names;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      const std::string_view name(entry->d_name);
      if (name.size() > 8 &&
          name.substr(name.size() - 8) == std::string_view(".journal")) {
        names.emplace_back(name);
      }
    }
    ::closedir(d);
  }
  std::sort(names.begin(), names.end());
  for (std::string& n : names) n = dir + "/" + n;
  return names;
}

void validate_options(const ExploreOptions& options) {
  util::require(options.workers >= 0, "explore: workers must be >= 0");
  util::require(options.jobs >= 1, "explore: jobs must be >= 1");
  util::require(options.chunk_points >= 1, "explore: chunk_points must be >= 1");
  util::require(options.lease_ttl_seconds > 0.0,
                "explore: lease_ttl_seconds must be > 0");
  util::require(options.poison_threshold >= 1,
                "explore: poison_threshold must be >= 1");
}

}  // namespace

// ---------------------------------------------------------------------------
// ExploreSpec

ExploreSpec ExploreSpec::parse(const util::Config& config) {
  ExploreSpec spec;

  // Node dimension first: every other dimension's fallback comes from the
  // per-node resolved base spec.
  if (config.has("explore.node")) {
    spec.node_names_ = split_list(config.get("explore.node"), "explore.node");
  } else {
    spec.node_names_ = {config.has("node") ? config.get("node")
                                           : std::string("130nm")};
  }

  util::require(!(config.has("explore.rent_p") && config.has("wld.file")),
                "explore: explore.rent_p cannot be combined with wld.file "
                "(a file pins the distribution, so a Rent sweep would be a "
                "lie)");

  std::vector<RunSpec> run_specs;
  run_specs.reserve(spec.node_names_.size());
  for (const std::string& node : spec.node_names_) {
    util::Config node_config = config;
    node_config.set("node", node);
    RunSpec rs = run_spec_from_config(node_config);
    spec.designs_.push_back(rs.design);
    spec.base_options_.push_back(rs.options);
    run_specs.push_back(std::move(rs));
  }
  const RunSpec& base = run_specs.front();

  spec.rent_ps_ =
      parse_value_list(config, "explore.rent_p", base.wld.rent_p);
  if (config.has("explore.target_model")) {
    for (const std::string& name :
         split_list(config.get("explore.target_model"),
                    "explore.target_model")) {
      spec.target_models_.push_back(target_model_from_name(name));
    }
  } else {
    // run_spec_from_config applies the same config overlay to every node,
    // so the base target model (like the base K/M/C/R below) is
    // node-independent.
    spec.target_models_ = {base.options.target_model};
  }
  spec.k_ = parse_value_list(config, "explore.K", base.options.ild_permittivity);
  spec.m_ = parse_value_list(config, "explore.M", base.options.miller_factor);
  spec.c_ = parse_value_list(config, "explore.C", base.options.clock_frequency);
  spec.r_ =
      parse_value_list(config, "explore.R", base.options.repeater_fraction);

  constexpr std::int64_t kMaxPoints = 1'000'000'000;
  std::int64_t total = 1;
  for (const std::size_t dim :
       {spec.node_names_.size(), spec.rent_ps_.size(),
        spec.target_models_.size(), spec.k_.size(), spec.m_.size(),
        spec.c_.size(), spec.r_.size()}) {
    util::require(total <= kMaxPoints / static_cast<std::int64_t>(dim),
                  "explore: grid exceeds 1e9 points");
    total *= static_cast<std::int64_t>(dim);
  }

  // Generate (or load) every WLD eagerly: a worker must never discover a
  // bad spec mid-run, and the digest key needs the resolved distributions.
  spec.wlds_.reserve(spec.node_names_.size() * spec.rent_ps_.size());
  for (std::size_t n = 0; n < spec.node_names_.size(); ++n) {
    for (const double rent : spec.rent_ps_) {
      if (!run_specs[n].wld_file.empty()) {
        spec.wlds_.push_back(resolve_wld(run_specs[n]));
        continue;
      }
      WldParams params = run_specs[n].wld;
      params.rent_p = rent;
      spec.wlds_.push_back(default_wld(spec.designs_[n], params));
    }
  }
  return spec;
}

ExploreSpec ExploreSpec::load(const std::string& path) {
  return parse(util::Config::load(path));
}

std::int64_t ExploreSpec::total_points() const {
  return static_cast<std::int64_t>(node_names_.size() * rent_ps_.size() *
                                   target_models_.size() * k_.size() *
                                   m_.size() * c_.size() * r_.size());
}

std::uint64_t ExploreSpec::key() const {
  util::Digest d;
  d.str("iarank-explore-v1");
  d.u64(node_names_.size());
  for (std::size_t n = 0; n < node_names_.size(); ++n) {
    d.str(node_names_[n]);
    digest_design(d, designs_[n]);
    digest_rank_options(d, base_options_[n]);
  }
  d.u64(rent_ps_.size());
  for (const double v : rent_ps_) d.f64(v);
  d.u64(target_models_.size());
  for (const delay::TargetModel m : target_models_) {
    d.i64(static_cast<std::int64_t>(m));
  }
  for (const std::vector<double>* dim : {&k_, &m_, &c_, &r_}) {
    d.u64(dim->size());
    for (const double v : *dim) d.f64(v);
  }
  for (const wld::Wld& w : wlds_) digest_wld(d, w);
  return d.value();
}

ExploreSpec::Scenario ExploreSpec::scenario(std::int64_t index) const {
  util::require(index >= 0 && index < total_points(),
                "explore: grid index out of range");
  auto idx = static_cast<std::size_t>(index);
  Scenario s;
  s.r = idx % r_.size();
  idx /= r_.size();
  s.c = idx % c_.size();
  idx /= c_.size();
  s.m = idx % m_.size();
  idx /= m_.size();
  s.k = idx % k_.size();
  idx /= k_.size();
  s.target = idx % target_models_.size();
  idx /= target_models_.size();
  s.rent = idx % rent_ps_.size();
  idx /= rent_ps_.size();
  s.node = idx;
  return s;
}

RankOptions ExploreSpec::options_at(const Scenario& s) const {
  RankOptions opt = base_options_[s.node];
  opt.target_model = target_models_[s.target];
  opt.ild_permittivity = k_[s.k];
  opt.miller_factor = m_[s.m];
  opt.clock_frequency = c_[s.c];
  opt.repeater_fraction = r_[s.r];
  return opt;
}

// ---------------------------------------------------------------------------
// Worker

int run_explore_worker(const ExploreSpec& spec, const ExploreOptions& options) {
  validate_options(options);
  std::string name = "w";
  name += std::to_string(::getpid());
  util::LeaseQueue::Options queue_options;
  queue_options.lease_ttl_seconds = options.lease_ttl_seconds;
  util::LeaseQueue queue(options.dir + "/queue", queue_options);
  util::CheckpointJournal journal(
      journals_dir(options) + "/" + name + ".journal", spec.key(),
      {options.fsync_journal});
  // Per-worker event log (merged into <dir>/events.jsonl by the
  // coordinator). Best-effort: a worker that cannot log still evaluates.
  // close() first drops any sink fd inherited across fork.
  util::EventLog& events = util::EventLog::instance();
  try {
    events.close();
    make_dir(events_dir(options));
    events.open(events_dir(options) + "/" + name + ".jsonl");
    util::Json fields;
    fields["worker"] = name;
    events.emit(util::Severity::kInfo, "worker.start", std::move(fields));
  } catch (const std::exception&) {
  }
  PointEvaluator evaluator(spec);
  const std::string poison_path = options.dir + "/poison.txt";
  // Renew well inside the TTL so one slow point (or a scheduling hiccup)
  // does not read as a death.
  const double heartbeat_seconds =
      std::clamp(options.lease_ttl_seconds / 4.0, 0.05, 1.0);

  for (;;) {
    std::optional<util::LeaseChunk> chunk = queue.claim(name);
    if (!chunk.has_value()) {
      if (queue.steal(name)) continue;  // a chunk appeared: claim it
      if (queue.idle()) break;          // every index is completed
      ::usleep(20 * 1000);              // all work leased; wait to steal
      continue;
    }
    if (events.enabled()) {
      util::Json fields;
      fields["worker"] = name;
      fields["lo"] = chunk->lo;
      fields["hi"] = chunk->hi;
      fields["attempts"] = static_cast<std::int64_t>(chunk->attempts);
      events.emit(util::Severity::kDebug, "chunk.claim", std::move(fields));
    }
    const std::map<std::int64_t, int> poison = load_poison(poison_path);
    std::int64_t hi = chunk->hi;
    util::Stopwatch since_renew;
    bool abandoned = false;
    for (std::int64_t index = chunk->lo; index < hi; ++index) {
      const auto it = poison.find(index);
      if (it != poison.end() && it->second >= options.poison_threshold) {
        continue;  // quarantined: the coordinator salvages it at merge
      }
      journal.append(index, kIntentMarker);
      const SweepPoint point = evaluator.evaluate(index);
      journal.append(index, encode_sweep_point(point));
      if (since_renew.seconds() >= heartbeat_seconds) {
        const std::optional<std::int64_t> current =
            queue.renew(*chunk, name, index + 1);
        if (!current.has_value()) {
          // Reclaimed from under us (we stalled past the TTL). The new
          // owner re-evaluates the remainder; our journal still counts.
          abandoned = true;
          break;
        }
        hi = std::min(hi, *current);  // a thief may have split our range
        since_renew.restart();
      }
    }
    if (!abandoned) queue.complete(*chunk, name);
    if (events.enabled()) {
      util::Json fields;
      fields["worker"] = name;
      fields["lo"] = chunk->lo;
      fields["hi"] = hi;
      events.emit(abandoned ? util::Severity::kWarn : util::Severity::kDebug,
                  abandoned ? "chunk.abandoned" : "chunk.complete",
                  std::move(fields));
    }
  }
  if (events.enabled()) {
    util::Json fields;
    fields["worker"] = name;
    events.emit(util::Severity::kInfo, "worker.exit", std::move(fields));
    try {
      events.close();
    } catch (const std::exception&) {
    }
  }
  util::MetricsRegistry::instance().save(options.dir + "/metrics/" + name +
                                         ".prom");
  return 0;
}

// ---------------------------------------------------------------------------
// Coordinator

ExploreResult run_explore(const ExploreSpec& spec,
                          const ExploreOptions& options) {
  validate_options(options);
  make_dir(options.dir);
  make_dir(journals_dir(options));
  make_dir(options.dir + "/metrics");
  make_dir(events_dir(options));
  const std::uint64_t key = spec.key();
  const std::int64_t total = spec.total_points();
  const std::string poison_path = options.dir + "/poison.txt";
  const std::string status_path = options.dir + "/status.json";
  std::map<std::int64_t, int> poison = load_poison(poison_path);
  util::Stopwatch run_timer;

  util::EventLog& events = util::EventLog::instance();
  if (events.enabled()) {
    util::Json fields;
    fields["total_points"] = total;
    fields["workers"] = static_cast<std::int64_t>(options.workers);
    events.emit(util::Severity::kInfo, "explore.start", std::move(fields));
    // Flush before forking: a worker child inherits this process's
    // buffered lines and would duplicate them into its own close().
    events.flush();
  }

  // Fork-ordering discipline (subprocess.hpp): materialize the shared pool
  // now, while no pool thread can hold a lock, so every child forked below
  // inherits a pool it will bypass (parallel_for runs inline in children).
  util::ThreadPool::shared();

  if (options.workers > 0 && total > 0) {
    // Resume: everything already journaled (by any previous run of this
    // spec) is not re-enqueued.
    std::vector<char> done(static_cast<std::size_t>(total), 0);
    for (const std::string& path : list_journal_files(journals_dir(options))) {
      const util::CheckpointJournal::Scan scan =
          util::CheckpointJournal::scan(path, key);
      for (const auto& [index, payload] : scan.entries) {
        if (index < 0 || index >= total) continue;
        if (payload == kIntentMarker) continue;
        done[static_cast<std::size_t>(index)] = 1;
      }
    }

    util::LeaseQueue::Options queue_options;
    queue_options.lease_ttl_seconds = options.lease_ttl_seconds;
    util::LeaseQueue queue(options.dir + "/queue", queue_options);
    queue.clear();  // chunk files of a dead previous coordinator are stale
    for (std::int64_t lo = 0; lo < total;) {
      if (done[static_cast<std::size_t>(lo)] != 0) {
        ++lo;
        continue;
      }
      std::int64_t hi = lo;
      while (hi < total && hi - lo < options.chunk_points &&
             done[static_cast<std::size_t>(hi)] == 0) {
        ++hi;
      }
      queue.enqueue(lo, hi, 0);
      lo = hi;
    }

    std::vector<pid_t> live;
    // Enough for a sustained kill storm; if something systemic kills every
    // worker instantly, stop respawning and let the merge phase finish the
    // leftovers in-process.
    std::int64_t respawn_budget = 10000;
    const auto spawn_worker = [&] {
      live.push_back(util::spawn_child(
          [&] { return run_explore_worker(spec, options); }));
    };
    if (!queue.idle()) {
      for (int i = 0; i < options.workers; ++i) spawn_worker();
    }
    write_running_status(status_path, total, queue, run_timer.seconds(),
                         live.size(), poison.size());
    util::Stopwatch since_status;

    bool poison_dirty = false;
    while (!queue.idle()) {
      while (const std::optional<util::ChildExit> exit = util::try_wait_any()) {
        live.erase(std::remove(live.begin(), live.end(), exit->pid),
                   live.end());
      }
      if (since_status.seconds() >= 0.5) {
        write_running_status(status_path, total, queue, run_timer.seconds(),
                             live.size(), poison.size());
        since_status.restart();
      }
      for (const util::LeaseQueue::Reclaimed& r : queue.reclaim_expired()) {
        if (r.worker.empty()) continue;  // torn claim: nothing was evaluated
        // The dead worker's journal ends with an intent marker for the
        // point it was inside when it died (a completed point's record
        // overwrites its marker). Two deaths inside the same point
        // quarantine it.
        const util::CheckpointJournal::Scan scan = util::CheckpointJournal::scan(
            journals_dir(options) + "/" + r.worker + ".journal", key);
        for (const auto& [index, payload] : scan.entries) {
          if (payload != kIntentMarker) continue;
          if (index < r.taken_lo || index >= r.chunk.hi) continue;
          ++poison[index];
          poison_dirty = true;
        }
      }
      if (poison_dirty) {
        save_poison(poison_path, poison);
        poison_dirty = false;
      }
      while (static_cast<int>(live.size()) < options.workers &&
             respawn_budget > 0 && !queue.idle()) {
        spawn_worker();
        --respawn_budget;
        kWorkersRespawned.inc();
      }
      if (respawn_budget <= 0 && live.empty()) break;
      ::usleep(25 * 1000);
    }
    // Idle (or out of respawns): the survivors observe the empty queue and
    // exit on their own; reap them all before the merge reads journals.
    for (const pid_t pid : live) (void)util::wait_child(pid);
  }

  // ---- Merge: journals -> table, with bitwise audit --------------------
  ExploreResult result;
  result.points.resize(static_cast<std::size_t>(total));
  std::vector<char> have(static_cast<std::size_t>(total), 0);

  std::map<std::int64_t, std::string> merged;
  const auto absorb = [&](const std::string& path) {
    const util::CheckpointJournal::Scan scan =
        util::CheckpointJournal::scan(path, key);
    if (scan.torn_tail) {
      ++result.torn_tails;
      kMergeTornTails.inc();
    }
    for (const auto& [index, payload] : scan.entries) {
      if (index < 0 || index >= total) continue;
      if (payload == kIntentMarker) continue;
      const auto [it, inserted] = merged.emplace(index, payload);
      if (inserted) continue;
      ++result.duplicates;
      kMergeDuplicates.inc();
      if (it->second != payload) {
        // Two completion records for one grid index MUST be bitwise equal
        // (same index => same inputs => same deterministic evaluation).
        // Divergence means the determinism contract is broken — refuse to
        // pick silently.
        throw util::Error(
            "explore: bitwise audit failed at grid index " +
                std::to_string(index) + " merging '" + path +
                "': duplicate records differ",
            util::ErrorCategory::kInternal);
      }
    }
  };
  for (const std::string& path : list_journal_files(journals_dir(options))) {
    absorb(path);
  }
  for (const auto& [index, payload] : merged) {
    SweepPoint point;
    if (!decode_sweep_point(payload, point)) continue;  // recompute below
    result.points[static_cast<std::size_t>(index)] = std::move(point);
    have[static_cast<std::size_t>(index)] = 1;
    ++result.resumed;
  }

  // ---- Salvage quarantined points in sacrificial children --------------
  // A point that crashed two workers may still be innocent (two random
  // kills landed on it) — or genuinely lethal. Either way the coordinator
  // must not evaluate it in its own image, so each one gets a forked child
  // (sequential, and before the threaded in-process pass below).
  std::vector<std::int64_t> quarantine;
  for (const auto& [index, count] : poison) {
    if (count < options.poison_threshold) continue;
    if (index < 0 || index >= total) continue;
    if (have[static_cast<std::size_t>(index)] == 0) quarantine.push_back(index);
  }
  if (!quarantine.empty()) {
    const std::string salvage_path = journals_dir(options) + "/salvage.journal";
    for (const std::int64_t index : quarantine) {
      const pid_t pid = util::spawn_child([&spec, &salvage_path, key, index] {
        util::CheckpointJournal salvage_journal(salvage_path, key, {true});
        PointEvaluator evaluator(spec);
        const SweepPoint point = evaluator.evaluate(index);
        salvage_journal.append(index, encode_sweep_point(point));
        return 0;
      });
      (void)util::wait_child(pid);
    }
    const util::CheckpointJournal::Scan scan =
        util::CheckpointJournal::scan(salvage_path, key);
    for (const auto& [index, payload] : scan.entries) {
      if (index < 0 || index >= total) continue;
      if (payload == kIntentMarker) continue;
      if (have[static_cast<std::size_t>(index)] != 0) continue;
      SweepPoint point;
      if (!decode_sweep_point(payload, point)) continue;
      result.points[static_cast<std::size_t>(index)] = std::move(point);
      have[static_cast<std::size_t>(index)] = 1;
    }
    for (const std::int64_t index : quarantine) {
      if (have[static_cast<std::size_t>(index)] != 0) continue;
      // The salvage child died too: the point deterministically kills its
      // process. Record it as quarantined rather than poisoning the run.
      SweepPoint& point = result.points[static_cast<std::size_t>(index)];
      point.value = static_cast<double>(index);
      point.result = RankResult{};
      point.status = util::Status::failure(
          util::StatusCode::kInternal,
          "quarantined: evaluation repeatedly crashed its worker");
      have[static_cast<std::size_t>(index)] = 1;
      ++result.quarantined;
      kPointsQuarantined.inc();
    }
  }

  // ---- In-process evaluation of whatever is still missing --------------
  // The whole grid in workers = 0 mode; normally nothing after a worker
  // run. Journaled so a killed coordinator resumes here too.
  std::vector<std::int64_t> missing;
  for (std::int64_t index = 0; index < total; ++index) {
    if (have[static_cast<std::size_t>(index)] == 0) missing.push_back(index);
  }
  if (!missing.empty()) {
    util::CheckpointJournal inline_journal(
        journals_dir(options) + "/inline.journal", key,
        {options.fsync_journal});
    PointEvaluator evaluator(spec);
    util::ThreadPool::shared().parallel_for(
        missing.size(), options.jobs, [&](std::size_t i) {
          const std::int64_t index = missing[i];
          SweepPoint point = evaluator.evaluate(index);
          inline_journal.append(index, encode_sweep_point(point));
          result.points[static_cast<std::size_t>(index)] = std::move(point);
        });
  }

  for (std::int64_t index = 0; index < total; ++index) {
    const SweepPoint& point = result.points[static_cast<std::size_t>(index)];
    if (point.status.ok()) ++result.ok;
  }
  result.failed = total - result.ok - result.quarantined;

  // ---- Pareto front: normalized rank up, repeater area down ------------
  std::vector<std::int64_t> order;
  for (std::int64_t index = 0; index < total; ++index) {
    if (result.points[static_cast<std::size_t>(index)].status.ok()) {
      order.push_back(index);
    }
  }
  std::sort(order.begin(), order.end(), [&](std::int64_t a, std::int64_t b) {
    const RankResult& ra = result.points[static_cast<std::size_t>(a)].result;
    const RankResult& rb = result.points[static_cast<std::size_t>(b)].result;
    if (ra.normalized != rb.normalized) return ra.normalized > rb.normalized;
    if (ra.repeater_area_used != rb.repeater_area_used) {
      return ra.repeater_area_used < rb.repeater_area_used;
    }
    return a < b;
  });
  double best_area = std::numeric_limits<double>::infinity();
  for (const std::int64_t index : order) {
    const RankResult& r = result.points[static_cast<std::size_t>(index)].result;
    if (r.repeater_area_used < best_area) {
      best_area = r.repeater_area_used;
      result.pareto.push_back(index);
    }
  }

  write_explore_csv(options.dir + "/points.csv", spec, result, false);
  write_explore_csv(options.dir + "/pareto.csv", spec, result, true);
  merge_event_logs(options);
  write_final_status(status_path, total, result, run_timer.seconds());
  if (events.enabled()) {
    util::Json fields;
    fields["ok"] = result.ok;
    fields["failed"] = result.failed;
    fields["quarantined"] = result.quarantined;
    fields["resumed"] = result.resumed;
    events.emit(util::Severity::kInfo, "explore.done", std::move(fields));
  }
  util::MetricsRegistry::instance().save(options.dir +
                                         "/metrics/coordinator.prom");
  return result;
}

// ---------------------------------------------------------------------------
// CSV

void write_explore_csv(const std::string& path, const ExploreSpec& spec,
                       const ExploreResult& result, bool pareto_only) {
  std::string out =
      "index,node,rent_p,target_model,K,M,C,R,status,rank,normalized,"
      "prefix_bunches,refined_wires,repeaters,repeater_area_m2,total_wires\n";
  const auto row = [&](std::int64_t index) {
    const ExploreSpec::Scenario s = spec.scenario(index);
    const RankOptions opt = spec.options_at(s);
    const SweepPoint& point = result.points[static_cast<std::size_t>(index)];
    const RankResult& r = point.result;
    out += std::to_string(index);
    out += ',';
    out += spec.nodes()[s.node];
    out += ',';
    out += util::format_double_shortest(spec.rent_ps()[s.rent]);
    out += ',';
    out += delay::to_string(opt.target_model);
    out += ',';
    out += util::format_double_shortest(opt.ild_permittivity);
    out += ',';
    out += util::format_double_shortest(opt.miller_factor);
    out += ',';
    out += util::format_double_shortest(opt.clock_frequency);
    out += ',';
    out += util::format_double_shortest(opt.repeater_fraction);
    out += ',';
    out += point.status.label();  // flattens commas/newlines
    out += ',';
    out += std::to_string(r.rank);
    out += ',';
    out += util::format_double_shortest(r.normalized);
    out += ',';
    out += std::to_string(r.prefix_bunches);
    out += ',';
    out += std::to_string(r.refined_wires);
    out += ',';
    out += std::to_string(r.repeater_count);
    out += ',';
    out += util::format_double_shortest(r.repeater_area_used);
    out += ',';
    out += std::to_string(r.total_wires);
    out += '\n';
  };
  if (pareto_only) {
    for (const std::int64_t index : result.pareto) row(index);
  } else {
    for (std::int64_t index = 0;
         index < static_cast<std::int64_t>(result.points.size()); ++index) {
      row(index);
    }
  }
  util::atomic_write_file(path, out);
}

}  // namespace iarank::core
