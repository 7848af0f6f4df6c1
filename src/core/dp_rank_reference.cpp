/// \file dp_rank_reference.cpp
/// \brief The retained scalar reference DP kernel (the pre-v2 solver).
///
/// This is the v1 sweep-line solver, kept verbatim as the oracle the
/// data-oriented kernel in dp_rank.cpp is pinned against: nested-vector
/// frontiers, AoS nodes, a std::priority_queue, per-solve heap
/// allocation. The property suite in tests/test_dp_kernel.cpp requires
/// dp_rank() to match this path bitwise — rank, witness, placements AND
/// the deterministic effort counters — over hundreds of seeded scenarios,
/// in every option combination. It publishes nothing to the process
/// metrics registry and traces nothing: it exists only to be compared
/// against (DESIGN.md Section 10.5).
///
/// Do not optimize this file. Its value is being boring.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "src/core/dp_rank.hpp"
#include "src/core/free_pack.hpp"
#include "src/util/error.hpp"
#include "src/util/stopwatch.hpp"

namespace iarank::core {

namespace {

constexpr double kRelTol = 1e-9;

/// One Pareto-frontier element: repeater area and count consumed by the
/// delay-met prefix placed on pairs 0..level-1, plus reconstruction links.
struct Node {
  double r = 0.0;        ///< repeater area used [m^2]
  std::int64_t z = 0;    ///< repeater count used
  std::int32_t parent = -1;  ///< arena index of the predecessor
  std::int32_t c = 0;    ///< bunches assigned to the previous pair
};

/// Frontier entry: the Pareto key duplicated next to the arena index.
struct FrontEntry {
  double r = 0.0;
  std::int64_t z = 0;
  std::int32_t idx = -1;  ///< arena index of the full node
};

/// A chunk source in the forward sweep line (see dp_rank.cpp for the
/// target-independence argument that underlies the active Pareto set).
struct ActiveSource {
  double kr = 0.0;           ///< r - prefix_repeater_area at the source bucket
  std::int64_t kz = 0;       ///< z - prefix_repeater_count at the source bucket
  std::int64_t end = 0;      ///< last admissible target bucket, inclusive
  std::int64_t b = 0;        ///< source bucket (chunk length at t is t - b)
  std::int32_t parent = -1;  ///< arena index of the source node
};

/// Heap entry: either an unverified iterator positioned at its best
/// remaining break point, or a verified candidate.
struct HeapEntry {
  std::int64_t key = 0;  ///< upper bound (optimistic) or exact (verified) rank
  bool verified = false;
  std::int32_t node = -1;  ///< arena index of the state element
  std::int32_t j = 0;      ///< break pair
  std::int64_t b = 0;      ///< first bunch of pair j's chunk
  std::int64_t c = 0;      ///< delay-met bunches on pair j
  std::int64_t w_extra = 0;  ///< refined wires (verified entries only)
};

/// Strict total order: no two live entries compare equivalent, so the pop
/// sequence is the fully sorted order regardless of heap layout.
struct HeapCmp {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.key != b.key) return a.key < b.key;  // max-heap on rank
    if (a.verified != b.verified) return a.verified < b.verified;
    if (a.node != b.node) return a.node > b.node;  // older state first
    return a.c < b.c;                              // longer chunk first
  }
};

/// Cumulative cost of placing bunches b..b+c-1, all meeting delay, on
/// pair j.
struct ChunkCost {
  double wire_area = 0.0;
  double rep_area = 0.0;
  std::int64_t rep_count = 0;
  bool ok = true;
};

class ReferenceSolver {
 public:
  ReferenceSolver(const Instance& inst, const DpOptions& opt)
      : inst_(inst), opt_(opt), m_(inst.pair_count()),
        n_bunches_(static_cast<std::int64_t>(inst.bunch_count())) {}

  RankResult solve();

 private:
  const Instance& inst_;
  const DpOptions& opt_;
  const std::size_t m_;
  const std::int64_t n_bunches_;

  std::vector<Node> arena_;
  std::vector<std::vector<std::vector<FrontEntry>>> levels_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapCmp> heap_;
  RankResult::DpStats stats_;

  [[nodiscard]] double budget_tol() const {
    return inst_.repeater_budget() * kRelTol + 1e-30;
  }
  [[nodiscard]] double area_tol() const {
    return inst_.pair_capacity() * kRelTol;
  }

  std::vector<ActiveSource> actives_;
  std::vector<std::vector<ActiveSource>> wakes_;
  std::vector<Node> chunk_cands_;
  std::vector<Node> c0_cands_;
  std::vector<Node> merged_;

  [[nodiscard]] ChunkCost chunk_cost(std::int64_t b, std::size_t j,
                                     std::int64_t c, double base_r,
                                     double capacity) const;
  void activate(const ActiveSource& s);
  void merge_and_materialize(std::size_t level, std::size_t t);
  void forward_pass();
  void push_iterator(std::int32_t node, std::size_t j, std::int64_t b,
                     std::int64_t c);
  [[nodiscard]] std::int64_t refine_extra(std::size_t j, std::int64_t b,
                                          std::int64_t c, double node_r,
                                          const ChunkCost& cost,
                                          double capacity) const;
  [[nodiscard]] std::optional<HeapEntry> verify(const HeapEntry& e) const;
  [[nodiscard]] FreePackInput pack_input(std::size_t j, std::int64_t b,
                                         std::int64_t c, std::int64_t node_z,
                                         const ChunkCost& cost,
                                         std::int64_t w_extra) const;
  [[nodiscard]] RankResult assemble(const HeapEntry& best) const;
};

ChunkCost ReferenceSolver::chunk_cost(std::int64_t b, std::size_t j,
                                      std::int64_t c, double base_r,
                                      double capacity) const {
  ChunkCost cost;
  if (c <= 0) return cost;
  const auto bb = static_cast<std::size_t>(b);
  const auto cc = static_cast<std::size_t>(c);
  if (inst_.first_infeasible(j, bb) < bb + cc) {
    cost.ok = false;
    return cost;
  }
  const Instance::ChunkTotals totals = inst_.chunk_totals(j, bb, cc);
  cost.wire_area = totals.wire_area;
  cost.rep_area = totals.rep_area;
  cost.rep_count = totals.rep_count;
  if (cost.wire_area > capacity + area_tol() ||
      base_r + cost.rep_area > inst_.repeater_budget() + budget_tol()) {
    cost.ok = false;
  }
  return cost;
}

std::int64_t ReferenceSolver::refine_extra(std::size_t j, std::int64_t b,
                                           std::int64_t c, double node_r,
                                           const ChunkCost& cost,
                                           double capacity) const {
  if (!opt_.refine_boundary || b + c >= n_bunches_) return 0;
  const auto bb = static_cast<std::size_t>(b + c);
  const DelayPlan plan = inst_.plan(bb, j);
  if (!plan.feasible) return 0;
  const Bunch& bunch = inst_.bunch(bb);
  std::int64_t by_budget = bunch.count;
  if (plan.area_per_wire > 0.0) {
    const double left =
        inst_.repeater_budget() + budget_tol() - node_r - cost.rep_area;
    by_budget = left <= 0.0
                    ? 0
                    : static_cast<std::int64_t>(
                          std::floor(left / plan.area_per_wire));
  }
  const double area_left = capacity + area_tol() - cost.wire_area;
  const double per_wire = bunch.length * inst_.pair(j).pitch;
  const auto by_area = static_cast<std::int64_t>(
      std::floor(std::max(0.0, area_left) / per_wire));
  return std::clamp<std::int64_t>(std::min(by_budget, by_area), 0,
                                  bunch.count);
}

void ReferenceSolver::push_iterator(std::int32_t node, std::size_t j,
                                    std::int64_t b, std::int64_t c) {
  const Node& nd = arena_[static_cast<std::size_t>(node)];
  const std::int64_t base =
      inst_.wires_before(static_cast<std::size_t>(std::min(b + c, n_bunches_)));
  std::int64_t key = base;
  if (opt_.refine_boundary && b + c < n_bunches_) {
    const double wires_above =
        static_cast<double>(inst_.wires_before(static_cast<std::size_t>(b)));
    const double capacity =
        inst_.pair_capacity() -
        inst_.blockage(j, wires_above, static_cast<double>(nd.z));
    ChunkCost cost;
    if (c > 0) {
      const Instance::ChunkTotals totals = inst_.chunk_totals(
          j, static_cast<std::size_t>(b), static_cast<std::size_t>(c));
      cost.wire_area = totals.wire_area;
      cost.rep_area = totals.rep_area;
      cost.rep_count = totals.rep_count;
    }
    key = base + refine_extra(j, b, c, nd.r, cost, capacity);
  }
  heap_.push({key, false, node, static_cast<std::int32_t>(j), b, c, 0});
}

void ReferenceSolver::activate(const ActiveSource& s) {
  const auto pos = std::lower_bound(
      actives_.begin(), actives_.end(), s.kr,
      [](const ActiveSource& have, double kr) { return have.kr < kr; });
  std::int64_t dom_end = -1;
  if (pos != actives_.begin() && std::prev(pos)->kz <= s.kz) {
    dom_end = std::prev(pos)->end;
  }
  if (pos != actives_.end() && pos->kr == s.kr && pos->kz <= s.kz) {
    dom_end = std::max(dom_end, pos->end);
  }
  if (dom_end >= s.end) {
    ++stats_.frontier_dominated;
    return;
  }
  if (dom_end >= 0) {
    wakes_[static_cast<std::size_t>(dom_end) + 1].push_back(s);
    return;
  }
  auto q = pos;
  while (q != actives_.end() && q->kz >= s.kz) {
    if (q->end > s.end) {
      wakes_[static_cast<std::size_t>(s.end) + 1].push_back(*q);
    } else {
      ++stats_.frontier_erased;
    }
    ++q;
  }
  const auto at = actives_.erase(pos, q);
  actives_.insert(at, s);
}

void ReferenceSolver::merge_and_materialize(std::size_t level, std::size_t t) {
  merged_.clear();
  const auto push_cand = [this](const Node& nd) {
    if (!merged_.empty()) {
      const Node& back = merged_.back();
      if (nd.z >= back.z) {
        ++stats_.frontier_dominated;
        return;
      }
      if (nd.r == back.r) {
        ++stats_.frontier_erased;
        merged_.pop_back();
      }
    }
    merged_.push_back(nd);
  };
  std::size_t i = 0;
  std::size_t k = 0;
  while (i < chunk_cands_.size() || k < c0_cands_.size()) {
    bool take_chunk;
    if (i >= chunk_cands_.size()) {
      take_chunk = false;
    } else if (k >= c0_cands_.size()) {
      take_chunk = true;
    } else {
      const Node& a = chunk_cands_[i];
      const Node& b = c0_cands_[k];
      take_chunk = a.r < b.r || (a.r == b.r && a.z <= b.z);
    }
    push_cand(take_chunk ? chunk_cands_[i++] : c0_cands_[k++]);
  }

  std::vector<FrontEntry>& frontier = levels_[level][t];
  frontier.reserve(merged_.size());
  for (const Node& nd : merged_) {
    arena_.push_back(nd);
    frontier.push_back(
        {nd.r, nd.z, static_cast<std::int32_t>(arena_.size() - 1)});
  }
  stats_.max_frontier = std::max(stats_.max_frontier,
                                 static_cast<std::int64_t>(frontier.size()));
  if (opt_.check_invariants) {
    for (std::size_t x = 1; x < frontier.size(); ++x) {
      iarank::util::require(frontier[x - 1].r < frontier[x].r &&
                                frontier[x - 1].z > frontier[x].z,
                            "dp_rank_reference: frontier invariant violated");
    }
  }
}

void ReferenceSolver::forward_pass() {
  const std::size_t buckets = static_cast<std::size_t>(n_bunches_) + 1;
  levels_.assign(m_ + 1, std::vector<std::vector<FrontEntry>>(buckets));

  const std::size_t estimate =
      std::min<std::size_t>((m_ + 1) * buckets * 2, std::size_t{1} << 22);
  arena_.reserve(estimate);
  {
    std::vector<HeapEntry> storage;
    storage.reserve(estimate);
    heap_ = std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapCmp>(
        HeapCmp{}, std::move(storage));
  }

  arena_.push_back({0.0, 0, -1, 0});
  levels_[0][0].push_back({0.0, 0, 0});
  stats_.max_frontier = std::max<std::int64_t>(stats_.max_frontier, 1);

  wakes_.assign(buckets + 1, {});

  for (std::size_t j = 0; j < m_; ++j) {
    const bool build_next = j + 1 < m_;
    actives_.clear();
    for (std::size_t t = 0; t < buckets; ++t) {
      const auto tb = static_cast<std::int64_t>(t);
      if (build_next) {
        if (!actives_.empty()) {
          actives_.erase(
              std::remove_if(
                  actives_.begin(), actives_.end(),
                  [tb](const ActiveSource& a) { return a.end < tb; }),
              actives_.end());
        }
        std::vector<ActiveSource>& wl = wakes_[t];
        for (const ActiveSource& s : wl) activate(s);
        wl.clear();
      }

      chunk_cands_.clear();
      if (build_next && t >= 1 && tb < n_bunches_ && !actives_.empty()) {
        const double pr = inst_.prefix_repeater_area(j, t);
        const std::int64_t pz = inst_.prefix_repeater_count(j, t);
        for (const ActiveSource& a : actives_) {
          chunk_cands_.push_back({pr + a.kr, pz + a.kz, a.parent,
                                  static_cast<std::int32_t>(tb - a.b)});
        }
      }

      c0_cands_.clear();
      const std::vector<FrontEntry>& frontier = levels_[j][t];
      if (!frontier.empty()) {
        const double wires_above = static_cast<double>(inst_.wires_before(t));
        for (const FrontEntry& entry : frontier) {
          const Node node = arena_[static_cast<std::size_t>(entry.idx)];
          const double capacity =
              inst_.pair_capacity() -
              inst_.blockage(j, wires_above, static_cast<double>(node.z));

          if (build_next && capacity >= -area_tol()) {
            c0_cands_.push_back({node.r, node.z, entry.idx, 0});
          }

          const std::int64_t c_max = inst_.max_feasible_chunk(
              j, t, capacity + area_tol(),
              inst_.repeater_budget() + budget_tol() - node.r);
          if (build_next && c_max >= 1) {
            const std::int64_t end = std::min(tb + c_max, n_bunches_ - 1);
            if (end > tb) {
              activate({node.r - inst_.prefix_repeater_area(j, t),
                        node.z - inst_.prefix_repeater_count(j, t), end, tb,
                        entry.idx});
            }
          }
          push_iterator(entry.idx, j, tb, c_max);
        }
      }

      if (!chunk_cands_.empty() || !c0_cands_.empty()) {
        merge_and_materialize(j + 1, t);
      }
    }
  }
}

FreePackInput ReferenceSolver::pack_input(std::size_t j, std::int64_t b,
                                          std::int64_t c, std::int64_t node_z,
                                          const ChunkCost& cost,
                                          std::int64_t w_extra) const {
  FreePackInput in;
  in.first_pair = j;
  in.first_bunch = static_cast<std::size_t>(std::min(b + c, n_bunches_));
  in.first_bunch_offset = w_extra;
  in.area_used_first_pair = cost.wire_area;
  in.wires_above_first =
      static_cast<double>(inst_.wires_before(static_cast<std::size_t>(b)));
  in.repeaters_above_first = static_cast<double>(node_z);
  in.repeaters_total = static_cast<double>(node_z + cost.rep_count);
  if (w_extra > 0) {
    const auto bb = static_cast<std::size_t>(b + c);
    const DelayPlan plan = inst_.plan(bb, j);
    in.area_used_first_pair += inst_.wire_area(bb, j, w_extra);
    in.repeaters_total +=
        static_cast<double>(w_extra * plan.repeaters_per_wire());
  }
  return in;
}

std::optional<HeapEntry> ReferenceSolver::verify(const HeapEntry& e) const {
  const Node& node = arena_[static_cast<std::size_t>(e.node)];
  const auto j = static_cast<std::size_t>(e.j);
  const double wires_above =
      static_cast<double>(inst_.wires_before(static_cast<std::size_t>(e.b)));
  const double capacity =
      inst_.pair_capacity() -
      inst_.blockage(j, wires_above, static_cast<double>(node.z));
  const ChunkCost cost = chunk_cost(e.b, j, e.c, node.r, capacity);
  if (!cost.ok) return std::nullopt;

  const std::int64_t base = inst_.wires_before(
      static_cast<std::size_t>(std::min(e.b + e.c, n_bunches_)));

  const std::int64_t w_extra =
      refine_extra(j, e.b, e.c, node.r, cost, capacity);

  for (const std::int64_t w : {w_extra, std::int64_t{0}}) {
    if (free_pack_feasible(inst_, pack_input(j, e.b, e.c, node.z, cost, w))) {
      HeapEntry out = e;
      out.verified = true;
      out.w_extra = w;
      out.key = base + w;
      return out;
    }
    if (w == 0) break;
  }
  return std::nullopt;
}

RankResult ReferenceSolver::assemble(const HeapEntry& best) const {
  RankResult res;
  res.total_wires = inst_.total_wires();
  res.rank = best.key;
  res.normalized = res.total_wires > 0
                       ? static_cast<double>(res.rank) /
                             static_cast<double>(res.total_wires)
                       : 0.0;
  res.all_assigned = true;
  res.prefix_bunches = best.b + best.c;
  res.refined_wires = best.w_extra;

  const Node& node = arena_[static_cast<std::size_t>(best.node)];
  const double wires_above =
      static_cast<double>(inst_.wires_before(static_cast<std::size_t>(best.b)));
  const double capacity =
      inst_.pair_capacity() - inst_.blockage(static_cast<std::size_t>(best.j),
                                             wires_above,
                                             static_cast<double>(node.z));
  const ChunkCost cost = chunk_cost(best.b, static_cast<std::size_t>(best.j),
                                    best.c, node.r, capacity);

  double refine_rep_area = 0.0;
  std::int64_t refine_rep_count = 0;
  if (best.w_extra > 0) {
    const auto bb = static_cast<std::size_t>(best.b + best.c);
    const DelayPlan plan = inst_.plan(bb, static_cast<std::size_t>(best.j));
    refine_rep_area = static_cast<double>(best.w_extra) * plan.area_per_wire;
    refine_rep_count = best.w_extra * plan.repeaters_per_wire();
  }
  res.repeater_area_used = node.r + cost.rep_area + refine_rep_area;
  res.repeater_count = node.z + cost.rep_count + refine_rep_count;

  auto& chunk_first = res.witness.chunk_first;
  chunk_first.assign(static_cast<std::size_t>(best.j) + 1, 0);
  {
    std::int64_t b = best.b;
    std::int32_t idx = best.node;
    for (std::int32_t j = best.j; j > 0; --j) {
      chunk_first[static_cast<std::size_t>(j)] = b;
      const Node& nd = arena_[static_cast<std::size_t>(idx)];
      b -= nd.c;
      idx = nd.parent;
    }
    chunk_first[0] = 0;
  }
  res.witness.break_pair = best.j;
  res.witness.first_bunch = best.b;
  res.witness.chunk_len = best.c;
  res.witness.w_extra = best.w_extra;

  if (!opt_.build_trace) return res;

  res.usage.resize(m_);
  double z_above = 0.0;
  for (std::size_t j = 0; j < m_; ++j) {
    res.usage[j].pair_name = inst_.pair(j).name;
  }

  res.placements.reserve(static_cast<std::size_t>(n_bunches_) + 2 * m_);

  for (std::size_t j = 0; j <= static_cast<std::size_t>(best.j); ++j) {
    const std::int64_t lo = chunk_first[j];
    const std::int64_t hi = (j == static_cast<std::size_t>(best.j))
                                ? best.b + best.c
                                : chunk_first[j + 1];
    PairUsage& u = res.usage[j];
    u.via_blockage = inst_.blockage(
        j,
        static_cast<double>(inst_.wires_before(static_cast<std::size_t>(lo))),
        z_above);
    for (std::int64_t t = lo; t < hi; ++t) {
      const auto bb = static_cast<std::size_t>(t);
      const DelayPlan plan = inst_.plan(bb, j);
      const std::int64_t count = inst_.bunch(bb).count;
      u.wires_meeting_delay += count;
      u.wires_total += count;
      u.wire_area += inst_.wire_area(bb, j, count);
      u.repeaters += count * plan.repeaters_per_wire();
      u.repeater_area += static_cast<double>(count) * plan.area_per_wire;
      res.placements.push_back({bb, j, count, count});
    }
    if (j == static_cast<std::size_t>(best.j) && best.w_extra > 0) {
      const auto bb = static_cast<std::size_t>(best.b + best.c);
      const DelayPlan plan = inst_.plan(bb, j);
      u.wires_meeting_delay += best.w_extra;
      u.wires_total += best.w_extra;
      u.wire_area += inst_.wire_area(bb, j, best.w_extra);
      u.repeaters += best.w_extra * plan.repeaters_per_wire();
      u.repeater_area += static_cast<double>(best.w_extra) * plan.area_per_wire;
      res.placements.push_back({bb, j, best.w_extra, best.w_extra});
    }
    z_above += static_cast<double>(u.repeaters);
  }

  const auto detail = free_pack_detailed(
      inst_, pack_input(static_cast<std::size_t>(best.j), best.b, best.c,
                        node.z, cost, best.w_extra));
  iarank::util::require(detail.has_value(),
                        "dp_rank_reference: winning candidate failed re-pack");
  for (const BunchPlacement& p : *detail) {
    PairUsage& u = res.usage[p.pair];
    u.wires_total += p.wires;
    u.wire_area += inst_.wire_area(p.bunch, p.pair, p.wires);
    res.placements.push_back(p);
  }
  std::sort(res.placements.begin(), res.placements.end(),
            [](const BunchPlacement& a, const BunchPlacement& b) {
              if (a.bunch != b.bunch) return a.bunch < b.bunch;
              return a.pair < b.pair;
            });

  double wires_above_total = 0.0;
  double reps_above_total = 0.0;
  for (std::size_t j = 0; j < m_; ++j) {
    res.usage[j].via_blockage =
        inst_.blockage(j, wires_above_total, reps_above_total);
    wires_above_total += static_cast<double>(res.usage[j].wires_total);
    reps_above_total += static_cast<double>(res.usage[j].repeaters);
  }
  return res;
}

RankResult ReferenceSolver::solve() {
  util::Stopwatch total;

  if (!free_pack_feasible(inst_, FreePackInput{})) {
    RankResult res;
    res.total_wires = inst_.total_wires();
    res.rank = 0;
    res.normalized = 0.0;
    res.all_assigned = false;
    res.dp = stats_;
    res.dp.seconds = total.seconds();
    return res;
  }

  {
    util::Stopwatch forward;
    forward_pass();
    stats_.forward_seconds = forward.seconds();
  }
  stats_.arena_nodes = static_cast<std::int64_t>(arena_.size());

  while (!heap_.empty()) {
    const HeapEntry e = heap_.top();
    heap_.pop();
    ++stats_.heap_pops;
    if (e.verified) {
      RankResult res = assemble(e);
      res.dp = stats_;
      res.dp.seconds = total.seconds();
      return res;
    }
    ++stats_.verify_calls;
    const auto verified = verify(e);
    if (verified) heap_.push(*verified);
    if (e.c > 0) {
      push_iterator(e.node, static_cast<std::size_t>(e.j), e.b, e.c - 1);
    }
  }

  RankResult res;
  res.total_wires = inst_.total_wires();
  res.rank = 0;
  res.normalized = 0.0;
  res.all_assigned = false;
  res.dp = stats_;
  res.dp.seconds = total.seconds();
  return res;
}

}  // namespace

RankResult dp_rank_reference(const Instance& inst, const DpOptions& options) {
  ReferenceSolver solver(inst, options);
  return solver.solve();
}

}  // namespace iarank::core
