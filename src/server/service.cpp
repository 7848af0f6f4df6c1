#include "src/server/service.hpp"

#include <chrono>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "src/core/dp_rank.hpp"
#include "src/core/sweep.hpp"
#include "src/server/context.hpp"
#include "src/util/build_info.hpp"
#include "src/util/error.hpp"
#include "src/util/json.hpp"
#include "src/util/metrics.hpp"
#include "src/util/strings.hpp"
#include "src/util/trace.hpp"

namespace iarank::server {

namespace {

util::Counter& kRequestsTotal = util::MetricsRegistry::counter(
    "iarank_server_requests_total", "requests received (any outcome)");
util::Counter& kRequestsOk = util::MetricsRegistry::counter(
    "iarank_server_requests_ok_total", "requests answered with ok:true");
util::Counter& kRequestsFailed = util::MetricsRegistry::counter(
    "iarank_server_requests_failed_total",
    "requests answered with an error response");
util::Counter& kMalformed = util::MetricsRegistry::counter(
    "iarank_server_malformed_total",
    "request payloads that were not valid JSON");
util::Histogram& kRequestSeconds = util::MetricsRegistry::histogram(
    "iarank_server_request_seconds", util::Histogram::duration_bounds(),
    "request service time (parse to response bytes)");

/// The RankOptions-level config keys a request may override — exactly the
/// set core::apply_rank_options reads. Design/WLD keys are absent on
/// purpose: the shared builder is bound to one design for its lifetime.
const std::set<std::string>& override_keys() {
  static const std::set<std::string> keys = {
      "ild_permittivity", "miller_factor", "clock_hz", "repeater_fraction",
      "cap_model",        "target_model",  "max_noise_ratio",
      "charge_drivers",   "bunch_size",    "bin_window",
      "refine_boundary",  "vias_per_wire", "vias_per_repeater"};
  return keys;
}

/// Renders one override value as config text. Numbers use the locale-
/// independent shortest round-trip spelling, so the value that reaches
/// util::parse_double is bit-identical to the JSON number sent.
std::string override_value_to_config(const std::string& key,
                                     const util::Json& value) {
  switch (value.type()) {
    case util::Json::Type::kString:
      return value.as_string();
    case util::Json::Type::kNumber:
      return util::format_double_shortest(value.as_double());
    case util::Json::Type::kBool:
      return value.as_bool() ? "1" : "0";
    default:
      throw util::Error("override '" + key +
                            "': value must be a number, string or bool",
                        util::ErrorCategory::kBadInput);
  }
}

/// Protocol error code for an ErrorCategory ("malformed"/"overloaded" are
/// assigned by the callers that detect those conditions).
const char* code_for(util::ErrorCategory category) {
  switch (category) {
    case util::ErrorCategory::kBadInput: return "bad-input";
    case util::ErrorCategory::kInfeasible: return "infeasible";
    case util::ErrorCategory::kIo: return "io";
    case util::ErrorCategory::kInternal: return "internal";
  }
  return "internal";
}

/// The deterministic subset of a RankResult: counts and model outputs,
/// never timings — concurrent clients must receive identical bytes.
util::Json rank_result_to_json(const core::RankResult& result) {
  util::Json out;
  out["rank"] = result.rank;
  out["normalized"] = result.normalized;
  out["all_assigned"] = result.all_assigned;
  out["prefix_bunches"] = result.prefix_bunches;
  out["refined_wires"] = result.refined_wires;
  out["repeater_count"] = result.repeater_count;
  out["repeater_area_m2"] = result.repeater_area_used;
  out["total_wires"] = result.total_wires;
  return out;
}

}  // namespace

RankService::RankService(core::RunSpec spec, const wld::Wld& wld_in_pitches,
                         ServiceOptions options)
    : spec_(std::move(spec)),
      builder_(spec_.design, wld_in_pitches),
      options_(options) {
  // Every service-backed export (framed metrics requests, the HTTP
  // listener) should carry the build-info and start-time gauges.
  util::register_build_metrics();
}

std::string RankService::error_response(std::string_view code,
                                        std::string_view message) {
  util::Json error;
  error["code"] = code;
  error["message"] = message;
  util::Json out;
  out["ok"] = false;
  out["error"] = std::move(error);
  return out.dump();
}

bool RankService::response_ok(std::string_view response) {
  try {
    const util::Json parsed = util::Json::parse(response);
    const util::Json* ok = parsed.find("ok");
    return ok != nullptr && ok->as_bool();
  } catch (...) {
    return false;
  }
}

std::string RankService::handle(std::string_view request_text) {
  return handle(request_text, nullptr);
}

std::string RankService::handle(std::string_view request_text,
                                RequestContext* context) {
  TRACE_SPAN("server.request");
  kRequestsTotal.inc();
  const util::ScopedTimer timer(nullptr, &kRequestSeconds);

  // Records the outcome into the context and — only for requests that
  // opted in with a `trace` field — re-renders the response with the
  // server-assigned request_id. The re-render is paid by traced requests
  // alone; default responses are returned untouched, byte for byte.
  const auto finalize = [&](std::string response, bool ok,
                            std::string_view status) {
    if (context != nullptr) {
      context->ok = ok;
      context->status = std::string(status);
      if (context->trace_requested && context->request_id != 0) {
        util::Json parsed = util::Json::parse(response);
        parsed["request_id"] = static_cast<std::int64_t>(context->request_id);
        response = parsed.dump();
      }
    }
    return response;
  };

  util::Json request;
  try {
    const util::ScopedTimer parse_timer(
        context != nullptr ? &context->parse_seconds : nullptr);
    request = util::Json::parse(request_text);
  } catch (const std::exception& e) {
    kMalformed.inc();
    kRequestsFailed.inc();
    return finalize(error_response("malformed", e.what()), false, "malformed");
  }

  try {
    util::require(request.is_object(), "request must be a JSON object");
    const std::string& type = request.at("type").as_string();
    if (context != nullptr) {
      context->type = type;
      context->trace_requested =
          context->trace_requested || request.contains("trace");
    }
    if (type == "metrics") {
      // Count the scrape as completed before rendering, so the export it
      // returns satisfies requests_total == ok + failed instead of showing
      // itself as perpetually in flight.
      kRequestsOk.inc();
      return finalize(handle_parsed(type, request, context), true, "ok");
    }
    std::string response = handle_parsed(type, request, context);
    kRequestsOk.inc();
    return finalize(std::move(response), true, "ok");
  } catch (const util::Error& e) {
    kRequestsFailed.inc();
    const char* code = code_for(e.category());
    return finalize(error_response(code, e.what()), false, code);
  } catch (const std::exception& e) {
    kRequestsFailed.inc();
    return finalize(error_response("internal", e.what()), false, "internal");
  }
}

std::string RankService::handle_parsed(const std::string& type,
                                       const util::Json& request,
                                       RequestContext* context) {
  if (type == "ping") {
    util::Json out;
    out["ok"] = true;
    out["type"] = "pong";
    return out.dump();
  }

  if (type == "metrics") {
    util::touch_uptime();
    std::ostringstream body;
    util::MetricsRegistry::instance().write_prometheus(body);
    util::Json out;
    out["ok"] = true;
    out["type"] = "metrics";
    out["format"] = "prometheus";
    out["body"] = body.str();
    return out.dump();
  }

  if (type == "sleep" && options_.enable_test_endpoints) {
    const std::int64_t ms = request.at("ms").as_int();
    util::require(ms >= 0 && ms <= 60000, "sleep: ms out of range");
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    util::Json out;
    out["ok"] = true;
    out["type"] = "slept";
    out["ms"] = ms;
    return out.dump();
  }

  if (type == "rank") {
    const core::RankOptions options = options_with_overrides(request);
    // A warm repeat request allocates nothing in the build/solve stages:
    // the instance is a shared handle into the builder's cache, and the
    // result and the DP kernel inside dp_rank_into are reused per thread.
    core::Instance inst;
    {
      const util::ScopedTimer build_timer(
          context != nullptr ? &context->build_seconds : nullptr);
      inst = builder_.build(options);
    }
    core::DpOptions dp;
    dp.refine_boundary = options.refine_boundary;
    thread_local core::RankResult result;
    {
      const util::ScopedTimer dp_timer(
          context != nullptr ? &context->dp_seconds : nullptr);
      core::dp_rank_into(inst, dp, result);
    }
    const util::ScopedTimer format_timer(
        context != nullptr ? &context->format_seconds : nullptr);
    util::Json out = rank_result_to_json(result);
    out["ok"] = true;
    out["type"] = "rank";
    return out.dump();
  }

  if (type == "sweep") {
    const core::RankOptions base = options_with_overrides(request);
    const core::SweepParameter parameter =
        core::sweep_parameter_from_string(request.at("parameter").as_string());
    const double lo = request.at("lo").as_double();
    const double hi = request.at("hi").as_double();
    const std::int64_t steps = request.at("steps").as_int();
    util::require(steps >= 1 && steps <= options_.max_sweep_steps,
                  "sweep: steps must be in [1, " +
                      std::to_string(options_.max_sweep_steps) + "]");
    // Grid by index (not repeated addition), matching the Table 4 grids'
    // construction, so every entry is host-independent.
    std::vector<double> values;
    values.reserve(static_cast<std::size_t>(steps));
    for (std::int64_t i = 0; i < steps; ++i) {
      values.push_back(steps == 1 ? lo
                                  : lo + (hi - lo) * static_cast<double>(i) /
                                             static_cast<double>(steps - 1));
    }

    core::SweepRunOptions run;
    run.threads = options_.sweep_threads;
    const core::SweepResult sweep =
        core::sweep_parameter(builder_, base, parameter, values, run);

    util::Json points(util::Json::Array{});
    for (const core::SweepPoint& point : sweep.points) {
      util::Json entry;
      entry["value"] = point.value;
      entry["status"] = util::to_string(point.status.code);
      if (point.status.ok()) {
        entry["rank"] = point.result.rank;
        entry["normalized"] = point.result.normalized;
      } else {
        entry["message"] = point.status.message;
      }
      points.push_back(std::move(entry));
    }
    util::Json out;
    out["ok"] = true;
    out["type"] = "sweep";
    out["parameter"] = core::to_string(parameter);
    out["points"] = std::move(points);
    return out.dump();
  }

  throw util::Error("unknown request type '" + type + "'",
                    util::ErrorCategory::kBadInput);
}

core::RankOptions RankService::options_with_overrides(
    const util::Json& request) const {
  core::RankOptions options = spec_.options;
  const util::Json* overrides = request.find("overrides");
  if (overrides == nullptr) return options;
  util::require(overrides->is_object(), "overrides must be a JSON object");

  util::Config overlay;
  for (const auto& [key, value] : overrides->as_object()) {
    if (override_keys().count(key) == 0) {
      throw util::Error(
          "override '" + key +
              "' is not a per-request option (design and WLD are fixed "
              "for the served scenario)",
          util::ErrorCategory::kBadInput);
    }
    overlay.set(key, override_value_to_config(key, value));
  }
  core::apply_rank_options(overlay, options);
  options.validate();
  return options;
}

}  // namespace iarank::server
