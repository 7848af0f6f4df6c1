#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <sstream>

#include "src/core/verify.hpp"
#include "src/util/json.hpp"
#include "src/util/strings.hpp"

namespace perfbench {

namespace {

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::string cell;
  std::istringstream in(line);
  while (std::getline(in, cell, sep)) out.push_back(cell);
  if (!line.empty() && line.back() == sep) out.emplace_back();
  return out;
}

/// Walks every line of the grid along one axis (`axis` 0 = K, 1 = M,
/// 2 = C) and checks rank is non-increasing in the axis value. Returns
/// true when at least one line is not constant.
bool check_axis(const ExploreGrid& grid, const std::vector<const ExploreRow*>& at,
                int axis, std::vector<Violation>& out) {
  static const char* const kNames[] = {"K", "M", "C"};
  const std::vector<double>* values[] = {&grid.k, &grid.m, &grid.c};
  const std::vector<double>& axis_values = *values[axis];
  // Positions along the axis in ascending value order.
  std::vector<std::size_t> order(axis_values.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return axis_values[a] < axis_values[b];
  });
  bool varies = false;
  for (std::size_t ki = 0; ki < grid.k.size(); ++ki) {
    for (std::size_t mi = 0; mi < grid.m.size(); ++mi) {
      for (std::size_t ci = 0; ci < grid.c.size(); ++ci) {
        for (std::size_t ri = 0; ri < grid.r.size(); ++ri) {
          // Visit each line once: from its first position on the axis.
          const std::size_t pos[] = {ki, mi, ci};
          if (pos[axis] != 0) continue;
          const ExploreRow* prev = nullptr;
          for (const std::size_t v : order) {
            std::size_t p[] = {ki, mi, ci};
            p[axis] = v;
            const ExploreRow* row =
                at[static_cast<std::size_t>(grid.index(p[0], p[1], p[2], ri))];
            if (row == nullptr) break;  // reported as missing already
            if (prev != nullptr) {
              if (row->rank != prev->rank) varies = true;
              if (row->rank > prev->rank) {
                out.push_back({row->index,
                               std::string("rank rises with ") + kNames[axis] +
                                   ": index " + std::to_string(prev->index) +
                                   " rank " + std::to_string(prev->rank) +
                                   " -> index " + std::to_string(row->index) +
                                   " rank " + std::to_string(row->rank)});
              }
            }
            prev = row;
          }
        }
      }
    }
  }
  return varies;
}

std::int64_t response_rank(const std::string& body, std::string* error,
                           std::int64_t* total_wires) {
  try {
    const iarank::util::Json j = iarank::util::Json::parse(body);
    const iarank::util::Json* ok = j.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
      *error = "response not ok: " + body;
      return -1;
    }
    *total_wires = j.at("total_wires").as_int();
    return j.at("rank").as_int();
  } catch (const std::exception& e) {
    *error = std::string("unparseable response: ") + e.what();
    return -1;
  }
}

}  // namespace

std::vector<ExploreRow> parse_points_csv(const std::string& text,
                                         std::vector<Violation>& violations) {
  std::vector<ExploreRow> rows;
  std::istringstream in(text);
  std::string line;
  bool header = true;
  std::map<std::string, std::size_t> col;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> cells = split(line, ',');
    if (header) {
      for (std::size_t i = 0; i < cells.size(); ++i) col[cells[i]] = i;
      header = false;
      for (const char* name : {"index", "K", "M", "C", "R", "status", "rank",
                               "total_wires"}) {
        if (col.count(name) == 0) {
          violations.push_back({-1, std::string("points.csv lacks column ") + name});
          return rows;
        }
      }
      continue;
    }
    if (cells.size() != col.size()) {
      violations.push_back({-1, "malformed points.csv row: " + line});
      continue;
    }
    try {
      ExploreRow row;
      row.index = iarank::util::parse_int(cells[col["index"]]);
      row.k = iarank::util::parse_double(cells[col["K"]]);
      row.m = iarank::util::parse_double(cells[col["M"]]);
      row.c = iarank::util::parse_double(cells[col["C"]]);
      row.r = iarank::util::parse_double(cells[col["R"]]);
      row.status = cells[col["status"]];
      row.rank = iarank::util::parse_int(cells[col["rank"]]);
      row.total_wires =
          iarank::util::parse_int(cells[col["total_wires"]]);
      rows.push_back(std::move(row));
    } catch (const std::exception& e) {
      violations.push_back({-1, "malformed points.csv row '" + line +
                                    "': " + e.what()});
    }
  }
  return rows;
}

std::vector<Violation> check_explore(const ExploreGrid& grid,
                                     const std::vector<ExploreRow>& rows) {
  std::vector<Violation> out;
  const std::int64_t total = grid.size();
  std::vector<const ExploreRow*> at(static_cast<std::size_t>(total), nullptr);
  for (const ExploreRow& row : rows) {
    if (row.index < 0 || row.index >= total) {
      out.push_back({row.index, "row index outside the grid"});
      continue;
    }
    const ExploreRow*& slot = at[static_cast<std::size_t>(row.index)];
    if (slot != nullptr) {
      out.push_back({row.index, "grid index appears twice"});
      continue;
    }
    slot = &row;
    const std::int64_t i = row.index;
    const std::size_t ri = static_cast<std::size_t>(i) % grid.r.size();
    const std::size_t ci = static_cast<std::size_t>(i) / grid.r.size() % grid.c.size();
    const std::size_t mi = static_cast<std::size_t>(i) / grid.r.size() /
                           grid.c.size() % grid.m.size();
    const std::size_t ki = static_cast<std::size_t>(i) / grid.r.size() /
                           grid.c.size() / grid.m.size();
    if (row.k != grid.k[ki] || row.m != grid.m[mi] || row.c != grid.c[ci] ||
        row.r != grid.r[ri]) {
      out.push_back({i, "row carries the wrong K/M/C/R for its index"});
    }
    if (row.status != "ok") {
      out.push_back({i, "status '" + row.status + "'"});
    }
    if (row.rank < 0 || row.total_wires <= 0 || row.rank > row.total_wires) {
      out.push_back({i, "rank " + std::to_string(row.rank) +
                            " outside [0, total_wires " +
                            std::to_string(row.total_wires) + "]"});
    }
  }
  for (std::int64_t i = 0; i < total; ++i) {
    if (at[static_cast<std::size_t>(i)] == nullptr) {
      out.push_back({i, "grid index missing from points.csv"});
    }
  }
  static const char* const kAxis[] = {"K", "M", "C"};
  for (int axis = 0; axis < 3; ++axis) {
    if (!check_axis(grid, at, axis, out)) {
      out.push_back({-1, std::string("rank constant along every ") +
                             kAxis[axis] + " line: the option had no effect"});
    }
  }
  return out;
}

std::vector<Violation> check_lattice(
    const Lattice& lattice, const std::vector<std::string>& first_responses) {
  std::vector<Violation> out;
  const std::size_t nk = lattice.k.size();
  const std::size_t nm = lattice.m.size();
  if (first_responses.size() != nk * nm) {
    out.push_back({-1, "expected one response per lattice key"});
    return out;
  }
  std::vector<std::int64_t> rank(first_responses.size(), -1);
  for (std::size_t key = 0; key < first_responses.size(); ++key) {
    std::string error;
    std::int64_t total = 0;
    rank[key] = response_rank(first_responses[key], &error, &total);
    if (rank[key] < 0) {
      out.push_back({static_cast<std::int64_t>(key), error});
    } else if (rank[key] > total) {
      out.push_back({static_cast<std::int64_t>(key), "rank exceeds total_wires"});
    }
  }
  const auto value_order = [](const std::vector<double>& v) {
    std::vector<std::size_t> order(v.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    return order;
  };
  const std::vector<std::size_t> k_order = value_order(lattice.k);
  const std::vector<std::size_t> m_order = value_order(lattice.m);
  const auto key_of = [nm](std::size_t ki, std::size_t mi) { return ki * nm + mi; };
  for (std::size_t mi = 0; mi < nm; ++mi) {
    for (std::size_t a = 1; a < nk; ++a) {
      const std::size_t lo = key_of(k_order[a - 1], mi);
      const std::size_t hi = key_of(k_order[a], mi);
      if (rank[lo] >= 0 && rank[hi] > rank[lo]) {
        out.push_back({static_cast<std::int64_t>(hi),
                       "rank rises with K at key " + std::to_string(hi)});
      }
    }
  }
  for (std::size_t ki = 0; ki < nk; ++ki) {
    for (std::size_t a = 1; a < nm; ++a) {
      const std::size_t lo = key_of(ki, m_order[a - 1]);
      const std::size_t hi = key_of(ki, m_order[a]);
      if (rank[lo] >= 0 && rank[hi] > rank[lo]) {
        out.push_back({static_cast<std::int64_t>(hi),
                       "rank rises with M at key " + std::to_string(hi)});
      }
    }
  }
  const std::size_t best = key_of(k_order.front(), m_order.front());
  const std::size_t worst = key_of(k_order.back(), m_order.back());
  if (rank[best] == rank[worst]) {
    out.push_back({static_cast<std::int64_t>(best),
                   "lattice corners have equal rank: the overrides had no effect"});
  }
  return out;
}

bool same_response(const std::string& first, const std::string& later) {
  return first == later;
}

std::int64_t rank_upper_bound(const iarank::core::Instance& inst) {
  const double budget = inst.repeater_budget() * (1.0 + 1e-6) + 1e-30;
  double used = 0.0;
  std::int64_t wires = 0;
  for (std::size_t b = 0; b < inst.bunch_count(); ++b) {
    double cheapest = -1.0;
    for (std::size_t j = 0; j < inst.pair_count(); ++j) {
      const iarank::core::DelayPlan& plan = inst.plan(b, j);
      if (!plan.feasible) continue;
      if (cheapest < 0.0 || plan.area_per_wire < cheapest) {
        cheapest = plan.area_per_wire;
      }
    }
    if (cheapest < 0.0) return wires;  // no pair meets this bunch's target
    const std::int64_t count = inst.bunch(b).count;
    const double need = cheapest * static_cast<double>(count);
    if (used + need <= budget) {
      used += need;
      wires += count;
      continue;
    }
    const auto partial =
        static_cast<std::int64_t>(std::floor((budget - used) / cheapest));
    return wires + std::clamp<std::int64_t>(partial, 0, count);
  }
  return wires;
}

std::vector<Violation> check_dp_answer(const iarank::core::Instance& inst,
                                       const iarank::core::RankResult& result,
                                       std::int64_t greedy_rank,
                                       std::int64_t upper_bound,
                                       std::int64_t oracle_rank) {
  std::vector<Violation> out;
  const iarank::core::VerifyOutcome verdict =
      iarank::core::verify_placements(inst, result);
  if (!verdict.ok) out.push_back({-1, "certificate rejected: " + verdict.failure});
  if (greedy_rank >= 0 && result.rank < greedy_rank) {
    out.push_back({-1, "rank " + std::to_string(result.rank) +
                           " below greedy_rank " + std::to_string(greedy_rank)});
  }
  if (result.rank > upper_bound) {
    out.push_back({-1, "rank " + std::to_string(result.rank) +
                           " above the budget bound " +
                           std::to_string(upper_bound)});
  }
  if (oracle_rank >= 0 && result.rank != oracle_rank) {
    out.push_back({-1, "rank " + std::to_string(result.rank) +
                           " differs from the oracle's " +
                           std::to_string(oracle_rank)});
  }
  return out;
}

bool same_answer(const iarank::core::RankResult& first,
                 const iarank::core::RankResult& later) {
  if (first.rank != later.rank || first.all_assigned != later.all_assigned ||
      first.placements.size() != later.placements.size()) {
    return false;
  }
  for (std::size_t i = 0; i < first.placements.size(); ++i) {
    const auto& a = first.placements[i];
    const auto& b = later.placements[i];
    if (a.bunch != b.bunch || a.pair != b.pair || a.wires != b.wires ||
        a.meeting_delay != b.meeting_delay) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
