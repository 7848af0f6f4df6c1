/// \file dp_rank.cpp
/// \brief The data-oriented DP kernel (v2 engine).
///
/// Same algorithm as the retained scalar reference (dp_rank_reference.cpp;
/// DESIGN.md Sections 3.2 and 10): a sweep-line forward pass builds the
/// per-(pair, bunch) Pareto frontiers, then a best-first search over break
/// candidates verifies the winner with delay-free packing. What changed is
/// the memory layout, not the mathematics — every comparison, tie-break
/// and counter matches the reference bitwise (tests/test_dp_kernel.cpp
/// pins that over hundreds of seeded scenarios).
///
/// Layout (DESIGN.md Section 10.6):
///
///  * Every per-solve structure lives in one util::MonotonicPool owned by
///    the DpKernel. The pool is reset — not freed — between solves, so a
///    kernel reused across sweep points performs zero steady-state heap
///    allocation (the IARANK_COUNT_ALLOCS hook is the referee).
///
///  * The node arena, the frontiers, the active set, the wake lists and
///    the candidate scratch are structure-of-arrays: one contiguous lane
///    per field. Only two frontier levels are ever alive (level j is read
///    while level j+1 is written, and reconstruction walks the arena's
///    parent links instead of the frontiers), so the nested
///    vector<vector<vector>> of the reference collapses into two flat
///    CSR-style lane sets swapped per level.
///
///  * Wake lists are a pooled linked list (per-step head/tail plus a next
///    lane over an append-only entry store), FIFO per step like the
///    reference's per-step vectors.
///
///  * The hot mapping loops of the forward pass — active Pareto set onto
///    bucket t's chunk candidates — are branch-free lane loops tagged
///    `VEC-LOOP`; CI compiles this file with -fopt-info-vec and fails if a
///    tagged loop stops vectorizing (tests/check_vectorization.py).
///    Element-wise IEEE adds vectorize value-safely, so SIMD here cannot
///    perturb results.

#include "src/core/dp_rank.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "src/core/free_pack.hpp"
#include "src/util/error.hpp"
#include "src/util/fault_injector.hpp"
#include "src/util/metrics.hpp"
#include "src/util/pool.hpp"
#include "src/util/stopwatch.hpp"
#include "src/util/trace.hpp"

namespace iarank::core {

namespace {

// DP effort mirrored into the process registry once per solve. Every
// count except pruned_entries and the warm-start pair is deterministic
// per instance, so those totals are identical across thread counts and
// hosts. Pruned/warm counts depend on which warm witness a sweep point
// received, which is scheduling-dependent — results are not (DESIGN.md
// Section 10.4).
util::Counter& kDpRuns = util::MetricsRegistry::counter(
    "iarank_dp_runs_total", "dp_rank invocations");
util::Counter& kDpCells = util::MetricsRegistry::counter(
    "iarank_dp_cells_total", "DP state elements (arena nodes) evaluated");
util::Counter& kDpHeapPops = util::MetricsRegistry::counter(
    "iarank_dp_heap_pops_total", "best-first candidates examined");
util::Counter& kDpVerifyCalls = util::MetricsRegistry::counter(
    "iarank_dp_verify_calls_total", "free-pack verifications run by the DP");
util::Counter& kDpPrunedEntries = util::MetricsRegistry::counter(
    "iarank_dp_pruned_entries_total",
    "heap pushes skipped by incumbent/warm-start bounds");
util::Counter& kDpWarmChecks = util::MetricsRegistry::counter(
    "iarank_dp_warm_start_checks_total",
    "solves offered a warm-start witness");
util::Counter& kDpWarmHits = util::MetricsRegistry::counter(
    "iarank_dp_warm_start_hits_total",
    "warm-start witnesses verified feasible on the new instance");
util::Counter& kDpFrontierDominated = util::MetricsRegistry::counter(
    "iarank_dp_frontier_dominated_total",
    "frontier newcomers dropped as dominated");
util::Counter& kDpFrontierErased = util::MetricsRegistry::counter(
    "iarank_dp_frontier_erased_total",
    "frontier incumbents erased by a dominating newcomer");
util::Gauge& kDpMaxFrontier = util::MetricsRegistry::gauge(
    "iarank_dp_max_frontier", "largest Pareto frontier seen (high-water)");

// Pool accounting (satellite of the v2 kernel): how many bytes one solve
// draws from its kernel's pool, the process-wide pool high-water, and how
// many chunks the pools ever requested from the heap. The chunk counter
// going flat while solves keep running IS the zero-steady-state-allocation
// property, visible from /metrics.
util::Gauge& kDpArenaBytes = util::MetricsRegistry::gauge(
    "iarank_dp_arena_bytes",
    "pool bytes drawn by one DP solve (high-water across solves)");
util::Gauge& kPoolBytes = util::MetricsRegistry::gauge(
    "iarank_pool_bytes", "DP kernel pool bytes in use (high-water)");
util::Counter& kPoolChunks = util::MetricsRegistry::counter(
    "iarank_pool_chunks_total",
    "pool chunks heap-allocated by DP kernels (flat once warm)");

constexpr double kRelTol = 1e-9;

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
/// sequence is the fully sorted order regardless of heap layout. That is
/// what makes push-time pruning invisible — removing entries that would
/// never pop cannot reorder ties among the ones that do. It is also why a
/// PoolVec + push_heap/pop_heap pops the exact sequence the reference's
/// std::priority_queue does.
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

void publish_stats(const RankResult::DpStats& stats) {
  kDpRuns.inc();
  kDpCells.inc(stats.arena_nodes);
  kDpHeapPops.inc(stats.heap_pops);
  kDpVerifyCalls.inc(stats.verify_calls);
  kDpPrunedEntries.inc(stats.pruned_entries);
  kDpFrontierDominated.inc(stats.frontier_dominated);
  kDpFrontierErased.inc(stats.frontier_erased);
  if (stats.warm_start_checked) kDpWarmChecks.inc();
  if (stats.warm_start_hit) kDpWarmHits.inc();
  kDpMaxFrontier.set_max(stats.max_frontier);
  kDpArenaBytes.set_max(stats.arena_bytes);
}

const util::FaultSite kSiteDpRank{"core.dp_rank"};

}  // namespace

using util::MonotonicPool;
using util::PoolVec;

/// The kernel state. Everything below `// --- per-solve lanes` is backed by
/// pool_ and re-attached at the start of every solve; nothing in this
/// struct touches the heap once the pool's high-water chunk is in place.
struct DpKernel::Impl {
  MonotonicPool pool_;

  // Persistent accounting (heap members of the kernel itself, allocated
  // once at kernel construction).
  std::int64_t last_solve_bytes_ = 0;
  std::int64_t chunks_published_ = 0;

  // --- per-solve problem view (set at the top of solve) -----------------
  const Instance* inst_ = nullptr;
  DpOptions opt_;
  std::size_t m_ = 0;
  std::int64_t n_bunches_ = 0;
  const std::int64_t* wb_ = nullptr;  ///< wires_before lane, size n+1
  const PairInfo* pairs_ = nullptr;   ///< the instance's pair header
  // Cached per solve (deterministic functions of the instance; identical
  // to recomputing them per use as the reference does).
  double pair_capacity_ = 0.0;
  double atol_ = 0.0;             ///< area_tol()
  double budget_plus_tol_ = 0.0;  ///< repeater_budget() + budget_tol()
  double vias_per_wire_ = 0.0;
  double vias_per_repeater_ = 0.0;

  /// Instance::blockage with the via spec cached: same expression, same
  /// evaluation order, minus a cross-TU call per frontier entry.
  [[nodiscard]] double blockage_j(std::size_t j, double wires_above,
                                  double repeaters_above) const {
    return (vias_per_wire_ * wires_above +
            vias_per_repeater_ * repeaters_above) *
           pairs_[j].via_area;
  }

  RankResult::DpStats stats_;

  /// Strict lower bound from a verified warm-start witness. Unverified
  /// pushes with key < warm_bound_ are dropped; the witness itself is
  /// never pushed, so it can never be returned (DESIGN.md Section 10.4).
  std::int64_t warm_bound_ = std::numeric_limits<std::int64_t>::min();
  /// Best verified key currently in the heap. Unverified pushes with
  /// key <= incumbent_ are dropped: verified entries win ties, so such an
  /// entry could never pop before the search terminates.
  std::int64_t incumbent_ = std::numeric_limits<std::int64_t>::min();

  // --- per-solve lanes (pool-backed, re-attached every solve) -----------

  /// Node arena, one lane per field of the reference's Node struct.
  PoolVec<double> arena_r_;
  PoolVec<std::int64_t> arena_z_;
  PoolVec<std::int32_t> arena_parent_;
  PoolVec<std::int32_t> arena_c_;

  /// Frontier of the level being read (j) and the one being written
  /// (j+1), CSR over buckets: entries of bucket t are [off[t], off[t+1]).
  /// Each frontier entry duplicates the Pareto key (r, z) next to the
  /// arena index, sorted r ascending / z descending. Swapped per level —
  /// reconstruction walks arena parent links, so older levels need not
  /// stay alive (the memory insight behind the two-lane layout).
  PoolVec<std::int32_t> cur_off_, next_off_;
  PoolVec<double> cur_r_, next_r_;
  PoolVec<std::int64_t> cur_z_, next_z_;
  PoolVec<std::int32_t> cur_idx_, next_idx_;

  /// Active chunk sources (the sweep line's Pareto set), sorted by kr.
  /// See dp_rank_reference.cpp for the target-independence argument. Lanes
  /// of the reference's ActiveSource; act_n_ is the live count (lane
  /// size() lags and is synced before any reserve).
  PoolVec<double> act_kr_;
  PoolVec<std::int64_t> act_kz_, act_end_, act_b_;
  PoolVec<std::int32_t> act_parent_;
  std::size_t act_n_ = 0;
  std::size_t act_cap_ = 0;

  /// Wake lists: suspended sources, FIFO per wake step. Append-only entry
  /// store + intrusive next links + per-step head/tail — the pooled
  /// equivalent of the reference's vector-per-step wakes_ (and the v2 home
  /// of the formerly heap-allocated `wakes_[s.end + 1]` lists).
  PoolVec<double> wk_kr_;
  PoolVec<std::int64_t> wk_kz_, wk_end_, wk_b_;
  PoolVec<std::int32_t> wk_parent_, wk_next_;
  PoolVec<std::int32_t> wake_head_, wake_tail_;  ///< -1 = empty, per step

  /// Per-bucket scratch: actives mapped to bucket t (chunk candidates),
  /// c = 0 carries, and the fused frontier. Counts tracked manually; the
  /// cand_c_ lane is int64 so the mapping loop is a pure int64 subtract
  /// (int64→int32 narrowing does not vectorize on SSE; the cast happens
  /// at materialize time, where the reference also created its int32).
  PoolVec<double> cand_r_;
  PoolVec<std::int64_t> cand_z_, cand_c_;
  PoolVec<std::int32_t> cand_parent_;
  std::size_t n_cand_ = 0;
  PoolVec<double> c0_r_;
  PoolVec<std::int64_t> c0_z_;
  PoolVec<std::int32_t> c0_idx_;
  std::size_t c0_n_ = 0;
  PoolVec<double> mg_r_;
  PoolVec<std::int64_t> mg_z_;
  PoolVec<std::int32_t> mg_parent_, mg_c_;
  std::size_t mg_n_ = 0;

  /// Best-first search pool. During the forward pass entries are only
  /// appended; the search then pops by linear max-scan for the first few
  /// pops (the typical search terminates after a handful) and heapifies
  /// only if it runs long. Sound because HeapCmp is a strict total order
  /// — (node, c) is unique per entry — so the pop sequence is the fully
  /// sorted order no matter how the entries are arranged.
  PoolVec<HeapEntry> heap_;
  bool heapified_ = false;

  /// Scan pops before falling back to make_heap + push/pop_heap. The
  /// baseline instance pops twice out of ~3.9k entries; paying O(n) per
  /// scan beats the O(n) heap build plus per-push sift-ups until the pop
  /// count grows past a handful.
  static constexpr std::int64_t kScanPops = 8;

  // ----------------------------------------------------------------------

  [[nodiscard]] double budget_tol() const {
    return inst_->repeater_budget() * kRelTol + 1e-30;
  }
  [[nodiscard]] double area_tol() const {
    return inst_->pair_capacity() * kRelTol;
  }

  /// Instance::max_feasible_chunk inlined over cached lane pointers: the
  /// forward pass calls this once per frontier entry and the cross-TU
  /// call plus per-call base-pointer arithmetic were measurable. Same
  /// arrays, same comparisons — bitwise-identical result.
  [[nodiscard]] static std::int64_t max_chunk_lanes(
      const double* pw, const double* pr, std::size_t cap, std::size_t b,
      double wire_limit, double rep_limit) {
    const double w0 = pw[b];
    const double r0 = pr[b];
    std::int64_t lo = 0;
    std::int64_t hi = static_cast<std::int64_t>(cap - b);
    while (lo < hi) {
      const std::int64_t mid = lo + (hi - lo + 1) / 2;
      const std::size_t e = b + static_cast<std::size_t>(mid);
      if (pw[e] - w0 <= wire_limit && pr[e] - r0 <= rep_limit) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return lo;
  }

  /// max_chunk_lanes with a locality hint: the answer barely moves from
  /// one bucket to the next, so a short walk from the previous entry's
  /// result usually settles in one or two probes where the binary search
  /// pays ~log2(B) unpredictable branches. The predicate is monotone in c
  /// (non-decreasing prefix sums), so the largest feasible c is unique and
  /// every search strategy returns the identical value — this changes how
  /// the answer is found, never what it is.
  [[nodiscard]] static std::int64_t max_chunk_hinted(
      const double* pw, const double* pr, std::size_t cap, std::size_t b,
      double wire_limit, double rep_limit, std::int64_t hint_c) {
    const auto n = static_cast<std::int64_t>(cap - b);
    if (n <= 0) return 0;
    const double w0 = pw[b];
    const double r0 = pr[b];
    const auto ok = [&](std::int64_t c) {
      const std::size_t e = b + static_cast<std::size_t>(c);
      return pw[e] - w0 <= wire_limit && pr[e] - r0 <= rep_limit;
    };
    std::int64_t c = std::clamp<std::int64_t>(hint_c, 0, n);
    if (ok(c)) {
      for (int s = 0; s < 8; ++s) {
        if (c == n || !ok(c + 1)) return c;
        ++c;
      }
    } else {
      for (int s = 0; s < 8; ++s) {
        --c;
        if (c <= 0) return 0;  // !ok(1) held, so nothing beyond 0 fits
        if (ok(c)) return c;
      }
    }
    return max_chunk_lanes(pw, pr, cap, b, wire_limit, rep_limit);
  }

  void attach_lanes() {
    for (PoolVec<double>* v :
         {&arena_r_, &cur_r_, &next_r_, &act_kr_, &wk_kr_, &cand_r_, &c0_r_,
          &mg_r_}) {
      v->attach(&pool_);
    }
    for (PoolVec<std::int64_t>* v :
         {&arena_z_, &cur_z_, &next_z_, &act_kz_, &act_end_, &act_b_,
          &wk_kz_, &wk_end_, &wk_b_, &cand_z_, &cand_c_, &c0_z_, &mg_z_}) {
      v->attach(&pool_);
    }
    for (PoolVec<std::int32_t>* v :
         {&arena_parent_, &arena_c_, &cur_off_, &next_off_, &cur_idx_,
          &next_idx_, &act_parent_, &wk_parent_, &wk_next_, &wake_head_,
          &wake_tail_, &cand_parent_, &c0_idx_, &mg_parent_, &mg_c_}) {
      v->attach(&pool_);
    }
    heap_.attach(&pool_);
    act_n_ = act_cap_ = 0;
    n_cand_ = c0_n_ = mg_n_ = 0;
  }

  std::int32_t arena_push(double r, std::int64_t z, std::int32_t parent,
                          std::int32_t c) {
    arena_r_.push_back(r);
    arena_z_.push_back(z);
    arena_parent_.push_back(parent);
    arena_c_.push_back(c);
    return static_cast<std::int32_t>(arena_r_.size() - 1);
  }

  void heap_push(const HeapEntry& e) {
    heap_.push_back(e);
    if (heapified_) std::push_heap(heap_.begin(), heap_.end(), HeapCmp{});
  }

  // --- shared arithmetic (identical expressions to the reference) -------

  [[nodiscard]] ChunkCost chunk_cost(std::int64_t b, std::size_t j,
                                     std::int64_t c, double base_r,
                                     double capacity) const {
    ChunkCost cost;
    if (c <= 0) return cost;
    const auto bb = static_cast<std::size_t>(b);
    const auto cc = static_cast<std::size_t>(c);
    if (inst_->first_infeasible(j, bb) < bb + cc) {
      cost.ok = false;
      return cost;
    }
    const Instance::ChunkTotals totals = inst_->chunk_totals(j, bb, cc);
    cost.wire_area = totals.wire_area;
    cost.rep_area = totals.rep_area;
    cost.rep_count = totals.rep_count;
    if (cost.wire_area > capacity + area_tol() ||
        base_r + cost.rep_area > inst_->repeater_budget() + budget_tol()) {
      cost.ok = false;
    }
    return cost;
  }

  [[nodiscard]] std::int64_t refine_extra(std::size_t j, std::int64_t b,
                                          std::int64_t c, double node_r,
                                          const ChunkCost& cost,
                                          double capacity) const {
    if (!opt_.refine_boundary || b + c >= n_bunches_) return 0;
    const auto bb = static_cast<std::size_t>(b + c);
    if (inst_->first_infeasible(j, bb) == bb) return 0;
    const std::int64_t bunch_count = wb_[bb + 1] - wb_[bb];
    const double area_per_wire = inst_->plan_area_per_wire_lane(j)[bb];
    std::int64_t by_budget = bunch_count;
    if (area_per_wire > 0.0) {
      const double left = budget_plus_tol_ - node_r - cost.rep_area;
      by_budget = left <= 0.0
                      ? 0
                      : static_cast<std::int64_t>(
                            std::floor(left / area_per_wire));
    }
    const double area_left = capacity + area_tol() - cost.wire_area;
    const double per_wire = inst_->bunch(bb).length * pairs_[j].pitch;
    const auto by_area = static_cast<std::int64_t>(
        std::floor(std::max(0.0, area_left) / per_wire));
    return std::clamp<std::int64_t>(std::min(by_budget, by_area), 0,
                                    bunch_count);
  }

  /// `capacity` is the node's free area on pair j at bucket b — callers
  /// already have it (the forward loop computes it per entry; the search
  /// retry recomputes it), so it is passed in instead of re-derived.
  void push_iterator(std::int32_t node, std::size_t j, std::int64_t b,
                     std::int64_t c, double capacity) {
    const auto ni = static_cast<std::size_t>(node);
    const std::int64_t base = wb_[std::min(b + c, n_bunches_)];
    std::int64_t key = base;
    if (opt_.refine_boundary && b + c < n_bunches_) {
      ChunkCost cost;
      if (c > 0) {
        const Instance::ChunkTotals totals = inst_->chunk_totals(
            j, static_cast<std::size_t>(b), static_cast<std::size_t>(c));
        cost.wire_area = totals.wire_area;
        cost.rep_area = totals.rep_area;
        cost.rep_count = totals.rep_count;
      }
      key = base + refine_extra(j, b, c, arena_r_[ni], cost, capacity);
    }
    if (key < warm_bound_ || (opt_.enable_pruning && key <= incumbent_)) {
      ++stats_.pruned_entries;
      return;
    }
    heap_push({key, false, node, static_cast<std::int32_t>(j), b, c, 0});
  }

  // --- active set / wake lists ------------------------------------------

  void act_grow(std::size_t need) {
    std::size_t cap = act_cap_ == 0 ? 16 : act_cap_ * 2;
    if (cap < need) cap = need;
    // Sync lane sizes so reserve() carries the live elements.
    act_kr_.set_size(act_n_);
    act_kz_.set_size(act_n_);
    act_end_.set_size(act_n_);
    act_b_.set_size(act_n_);
    act_parent_.set_size(act_n_);
    act_kr_.reserve(cap);
    act_kz_.reserve(cap);
    act_end_.reserve(cap);
    act_b_.reserve(cap);
    act_parent_.reserve(cap);
    act_cap_ = cap;
  }

  /// Replaces actives [pos, q) with the single source given — the lane
  /// form of the reference's erase(pos, q) + insert(at, s).
  void act_replace(std::size_t pos, std::size_t q, double kr, std::int64_t kz,
                   std::int64_t end, std::int64_t b, std::int32_t parent) {
    const std::size_t tail = act_n_ - q;
    const std::size_t new_n = pos + 1 + tail;
    if (new_n > act_cap_) act_grow(new_n);
    if (tail > 0 && q != pos + 1) {
      std::memmove(act_kr_.data() + pos + 1, act_kr_.data() + q,
                   tail * sizeof(double));
      std::memmove(act_kz_.data() + pos + 1, act_kz_.data() + q,
                   tail * sizeof(std::int64_t));
      std::memmove(act_end_.data() + pos + 1, act_end_.data() + q,
                   tail * sizeof(std::int64_t));
      std::memmove(act_b_.data() + pos + 1, act_b_.data() + q,
                   tail * sizeof(std::int64_t));
      std::memmove(act_parent_.data() + pos + 1, act_parent_.data() + q,
                   tail * sizeof(std::int32_t));
    }
    act_kr_[pos] = kr;
    act_kz_[pos] = kz;
    act_end_[pos] = end;
    act_b_[pos] = b;
    act_parent_[pos] = parent;
    act_n_ = new_n;
  }

  void wake_push(std::int64_t step, double kr, std::int64_t kz,
                 std::int64_t end, std::int64_t b, std::int32_t parent) {
    const auto s = static_cast<std::size_t>(step);
    const auto idx = static_cast<std::int32_t>(wk_kr_.size());
    wk_kr_.push_back(kr);
    wk_kz_.push_back(kz);
    wk_end_.push_back(end);
    wk_b_.push_back(b);
    wk_parent_.push_back(parent);
    wk_next_.push_back(-1);
    if (wake_tail_[s] >= 0) {
      wk_next_[static_cast<std::size_t>(wake_tail_[s])] = idx;
    } else {
      wake_head_[s] = idx;
    }
    wake_tail_[s] = idx;
  }

  void activate(double kr, std::int64_t kz, std::int64_t end, std::int64_t b,
                std::int32_t parent) {
    // lower_bound over the kr lane.
    std::size_t lo = 0;
    std::size_t hi = act_n_;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (act_kr_[mid] < kr) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    const std::size_t pos = lo;
    std::int64_t dom_end = -1;
    if (pos > 0 && act_kz_[pos - 1] <= kz) dom_end = act_end_[pos - 1];
    if (pos < act_n_ && act_kr_[pos] == kr && act_kz_[pos] <= kz) {
      dom_end = std::max(dom_end, act_end_[pos]);
    }
    if (dom_end >= end) {
      ++stats_.frontier_dominated;
      return;
    }
    if (dom_end >= 0) {
      wake_push(dom_end + 1, kr, kz, end, b, parent);
      return;
    }
    std::size_t q = pos;
    while (q < act_n_ && act_kz_[q] >= kz) {
      if (act_end_[q] > end) {
        wake_push(end + 1, act_kr_[q], act_kz_[q], act_end_[q], act_b_[q],
                  act_parent_[q]);
      } else {
        ++stats_.frontier_erased;
      }
      ++q;
    }
    act_replace(pos, q, kr, kz, end, b, parent);
  }

  // --- forward pass ------------------------------------------------------

  /// Fuses bucket t's chunk candidates and c = 0 carries into the merged
  /// frontier, then commits it to the arena and the next-level lanes.
  void merge_and_materialize() {
    mg_n_ = 0;
    mg_r_.clear();
    mg_z_.clear();
    mg_parent_.clear();
    mg_c_.clear();
    mg_r_.reserve(n_cand_ + c0_n_);
    mg_z_.reserve(n_cand_ + c0_n_);
    mg_parent_.reserve(n_cand_ + c0_n_);
    mg_c_.reserve(n_cand_ + c0_n_);
    const auto push_cand = [this](double r, std::int64_t z,
                                  std::int32_t parent, std::int32_t c) {
      if (mg_n_ > 0) {
        if (z >= mg_z_[mg_n_ - 1]) {
          ++stats_.frontier_dominated;
          return;
        }
        if (r == mg_r_[mg_n_ - 1]) {
          ++stats_.frontier_erased;
          --mg_n_;
        }
      }
      mg_r_[mg_n_] = r;
      mg_z_[mg_n_] = z;
      mg_parent_[mg_n_] = parent;
      mg_c_[mg_n_] = c;
      ++mg_n_;
    };
    std::size_t i = 0;
    std::size_t k = 0;
    while (i < n_cand_ || k < c0_n_) {
      bool take_chunk;
      if (i >= n_cand_) {
        take_chunk = false;
      } else if (k >= c0_n_) {
        take_chunk = true;
      } else {
        take_chunk = cand_r_[i] < c0_r_[k] ||
                     (cand_r_[i] == c0_r_[k] && cand_z_[i] <= c0_z_[k]);
      }
      if (take_chunk) {
        push_cand(cand_r_[i], cand_z_[i], cand_parent_[i],
                  static_cast<std::int32_t>(cand_c_[i]));
        ++i;
      } else {
        push_cand(c0_r_[k], c0_z_[k], c0_idx_[k], 0);
        ++k;
      }
    }

    const std::size_t seg0 = next_r_.size();
    for (std::size_t x = 0; x < mg_n_; ++x) {
      const std::int32_t idx =
          arena_push(mg_r_[x], mg_z_[x], mg_parent_[x], mg_c_[x]);
      next_r_.push_back(mg_r_[x]);
      next_z_.push_back(mg_z_[x]);
      next_idx_.push_back(idx);
    }
    stats_.max_frontier =
        std::max(stats_.max_frontier, static_cast<std::int64_t>(mg_n_));
    if (opt_.check_invariants) {
      for (std::size_t x = seg0 + 1; x < next_r_.size(); ++x) {
        iarank::util::require(next_r_[x - 1] < next_r_[x] &&
                                  next_z_[x - 1] > next_z_[x],
                              "dp_rank: frontier invariant violated");
      }
    }
  }

  void forward_pass() {
    const std::size_t buckets = static_cast<std::size_t>(n_bunches_) + 1;
    const std::size_t estimate =
        std::min<std::size_t>((m_ + 1) * buckets * 2, std::size_t{1} << 22);
    arena_r_.reserve(estimate);
    arena_z_.reserve(estimate);
    arena_parent_.reserve(estimate);
    arena_c_.reserve(estimate);
    heap_.reserve(estimate);

    arena_push(0.0, 0, -1, 0);
    // Level-0 frontier: the root at bucket 0, nothing elsewhere.
    cur_off_.resize(buckets + 1);
    cur_off_[0] = 0;
    for (std::size_t t = 1; t <= buckets; ++t) cur_off_[t] = 1;
    cur_r_.reserve(buckets);
    cur_z_.reserve(buckets);
    cur_idx_.reserve(buckets);
    cur_r_.push_back(0.0);
    cur_z_.push_back(0);
    cur_idx_.push_back(0);
    next_off_.resize(buckets + 1);
    next_r_.reserve(buckets);
    next_z_.reserve(buckets);
    next_idx_.reserve(buckets);
    stats_.max_frontier = std::max<std::int64_t>(stats_.max_frontier, 1);

    wake_head_.resize(buckets + 1);
    wake_tail_.resize(buckets + 1);
    std::fill(wake_head_.begin(), wake_head_.end(), -1);
    std::fill(wake_tail_.begin(), wake_tail_.end(), -1);

    for (std::size_t j = 0; j < m_; ++j) {
      const bool build_next = j + 1 < m_;
      act_n_ = 0;
      next_r_.clear();
      next_z_.clear();
      next_idx_.clear();
      next_off_[0] = 0;

      const double* pr_area = inst_->prefix_repeater_area_lane(j);
      const std::int64_t* pr_count = inst_->prefix_repeater_count_lane(j);
      const double* pw_area = inst_->prefix_wire_area_lane(j);
      const std::uint32_t* next_inf = inst_->first_infeasible_lane(j);

      // Absolute end bunch of the previous entry's feasible chunk: the
      // locality hint for max_chunk_hinted across this level's sweep.
      std::int64_t hint_e = 0;

      for (std::size_t t = 0; t < buckets; ++t) {
        const auto tb = static_cast<std::int64_t>(t);
        if (build_next) {
          if (act_n_ > 0) {
            // Expire sources whose admissible range ended (stable, like
            // the reference's remove_if).
            std::size_t w = 0;
            for (std::size_t i = 0; i < act_n_; ++i) {
              if (act_end_[i] >= tb) {
                if (w != i) {
                  act_kr_[w] = act_kr_[i];
                  act_kz_[w] = act_kz_[i];
                  act_end_[w] = act_end_[i];
                  act_b_[w] = act_b_[i];
                  act_parent_[w] = act_parent_[i];
                }
                ++w;
              }
            }
            act_n_ = w;
          }
          // Drain this step's wake list (FIFO). activate() may park new
          // entries, always at strictly later steps, so the chain we are
          // walking is never extended under us — but lane storage may
          // move, hence the scalar copies before the call.
          std::int32_t wi = wake_head_[t];
          if (wi >= 0) {
            wake_head_[t] = -1;
            wake_tail_[t] = -1;
            while (wi >= 0) {
              const auto w = static_cast<std::size_t>(wi);
              const double kr = wk_kr_[w];
              const std::int64_t kz = wk_kz_[w];
              const std::int64_t end = wk_end_[w];
              const std::int64_t b = wk_b_[w];
              const std::int32_t parent = wk_parent_[w];
              const std::int32_t nxt = wk_next_[w];
              activate(kr, kz, end, b, parent);
              wi = nxt;
            }
          }
        }

        // Map the active Pareto set onto bucket t's chunk candidates:
        //   (r, z) = (prefix_rep_area[t] + kr, prefix_rep_count[t] + kz),
        // chunk length t - b. The actives are sorted by kr and the prefix
        // shift is monotone, so the candidates inherit the frontier order
        // — this is the insight that turns per-candidate insertion into
        // three branch-free lane loops.
        n_cand_ = 0;
        if (build_next && t >= 1 && tb < n_bunches_ && act_n_ > 0) {
          const std::size_t n_act = act_n_;
          cand_r_.clear();
          cand_z_.clear();
          cand_c_.clear();
          cand_parent_.clear();
          cand_r_.reserve(n_act);
          cand_z_.reserve(n_act);
          cand_c_.reserve(n_act);
          cand_parent_.reserve(n_act);
          const double pr = pr_area[t];
          const std::int64_t pz = pr_count[t];
          const double* __restrict__ akr = act_kr_.data();
          const std::int64_t* __restrict__ akz = act_kz_.data();
          const std::int64_t* __restrict__ ab = act_b_.data();
          double* __restrict__ cr = cand_r_.data();
          std::int64_t* __restrict__ cz = cand_z_.data();
          std::int64_t* __restrict__ cc = cand_c_.data();
          // VEC-LOOP: map-chunk-area
          for (std::size_t i = 0; i < n_act; ++i) cr[i] = pr + akr[i];
          // VEC-LOOP: map-chunk-count
          for (std::size_t i = 0; i < n_act; ++i) cz[i] = pz + akz[i];
          // VEC-LOOP: map-chunk-len
          for (std::size_t i = 0; i < n_act; ++i) cc[i] = tb - ab[i];
          std::memcpy(cand_parent_.data(), act_parent_.data(),
                      n_act * sizeof(std::int32_t));
          n_cand_ = n_act;
        }

        c0_n_ = 0;
        const auto f0 = static_cast<std::size_t>(cur_off_[t]);
        const auto f1 = static_cast<std::size_t>(cur_off_[t + 1]);
        if (f1 > f0) {
          c0_r_.clear();
          c0_z_.clear();
          c0_idx_.clear();
          c0_r_.reserve(f1 - f0);
          c0_z_.reserve(f1 - f0);
          c0_idx_.reserve(f1 - f0);
          const double wires_above = static_cast<double>(wb_[t]);
          for (std::size_t i = f0; i < f1; ++i) {
            const double node_r = cur_r_[i];
            const std::int64_t node_z = cur_z_[i];
            const std::int32_t idx = cur_idx_[i];
            const double capacity =
                pair_capacity_ -
                blockage_j(j, wires_above, static_cast<double>(node_z));

            if (build_next && capacity >= -atol_) {
              c0_r_[c0_n_] = node_r;
              c0_z_[c0_n_] = node_z;
              c0_idx_[c0_n_] = idx;
              ++c0_n_;
            }

            const std::size_t chunk_cap =
                std::min(static_cast<std::size_t>(next_inf[t]),
                         static_cast<std::size_t>(n_bunches_));
            const std::int64_t c_max =
                max_chunk_hinted(pw_area, pr_area, chunk_cap, t,
                                 capacity + atol_, budget_plus_tol_ - node_r,
                                 hint_e - tb);
            hint_e = tb + c_max;
            if (build_next && c_max >= 1) {
              const std::int64_t end = std::min(tb + c_max, n_bunches_ - 1);
              if (end > tb) {
                activate(node_r - pr_area[t], node_z - pr_count[t], end, tb,
                         idx);
              }
            }
            push_iterator(idx, j, tb, c_max, capacity);
          }
        }

        if (n_cand_ > 0 || c0_n_ > 0) merge_and_materialize();
        next_off_[t + 1] = static_cast<std::int32_t>(next_r_.size());
      }

      std::swap(cur_off_, next_off_);
      std::swap(cur_r_, next_r_);
      std::swap(cur_z_, next_z_);
      std::swap(cur_idx_, next_idx_);
    }
  }

  // --- verification / warm start / reconstruction ------------------------

  [[nodiscard]] FreePackInput pack_input(std::size_t j, std::int64_t b,
                                         std::int64_t c, std::int64_t node_z,
                                         const ChunkCost& cost,
                                         std::int64_t w_extra) const {
    FreePackInput in;
    in.first_pair = j;
    in.first_bunch = static_cast<std::size_t>(std::min(b + c, n_bunches_));
    in.first_bunch_offset = w_extra;
    in.area_used_first_pair = cost.wire_area;
    in.wires_above_first = static_cast<double>(wb_[b]);
    in.repeaters_above_first = static_cast<double>(node_z);
    in.repeaters_total = static_cast<double>(node_z + cost.rep_count);
    if (w_extra > 0) {
      const auto bb = static_cast<std::size_t>(b + c);
      const DelayPlan plan = inst_->plan(bb, j);
      in.area_used_first_pair += inst_->wire_area(bb, j, w_extra);
      in.repeaters_total +=
          static_cast<double>(w_extra * plan.repeaters_per_wire());
    }
    return in;
  }

  [[nodiscard]] std::optional<HeapEntry> verify(const HeapEntry& e) const {
    const auto ni = static_cast<std::size_t>(e.node);
    const double node_r = arena_r_[ni];
    const std::int64_t node_z = arena_z_[ni];
    const auto j = static_cast<std::size_t>(e.j);
    const double wires_above = static_cast<double>(wb_[e.b]);
    const double capacity =
        inst_->pair_capacity() -
        blockage_j(j, wires_above, static_cast<double>(node_z));
    const ChunkCost cost = chunk_cost(e.b, j, e.c, node_r, capacity);
    if (!cost.ok) return std::nullopt;

    const std::int64_t base = wb_[std::min(e.b + e.c, n_bunches_)];
    const std::int64_t w_extra =
        refine_extra(j, e.b, e.c, node_r, cost, capacity);

    // Try the refined width first; fall back to the bare chunk.
    for (const std::int64_t w : {w_extra, std::int64_t{0}}) {
      if (free_pack_feasible(*inst_,
                             pack_input(j, e.b, e.c, node_z, cost, w))) {
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

  void try_warm_start() {
    if (opt_.warm_start == nullptr) return;
    const DpWitness& wit = *opt_.warm_start;
    if (!wit.valid()) return;
    stats_.warm_start_checked = true;

    const auto jb = static_cast<std::size_t>(wit.break_pair);
    if (jb >= m_) return;
    if (wit.first_bunch != wit.chunk_first.back()) return;
    if (wit.first_bunch < 0 || wit.chunk_len < 0 ||
        wit.first_bunch + wit.chunk_len > n_bunches_) {
      return;
    }
    if (wit.chunk_first.front() != 0) return;
    for (std::size_t j = 0; j + 1 < wit.chunk_first.size(); ++j) {
      if (wit.chunk_first[j] > wit.chunk_first[j + 1]) return;
    }

    // Replay the witness prefix on THIS instance, chunk by chunk.
    double r = 0.0;
    std::int64_t z = 0;
    for (std::size_t j = 0; j < jb; ++j) {
      const std::int64_t lo = wit.chunk_first[j];
      const std::int64_t hi = wit.chunk_first[j + 1];
      const double wires_above = static_cast<double>(wb_[lo]);
      const double capacity =
          inst_->pair_capacity() -
          blockage_j(j, wires_above, static_cast<double>(z));
      if (hi == lo) {
        if (capacity < -area_tol()) return;
        continue;
      }
      const ChunkCost cost = chunk_cost(lo, j, hi - lo, r, capacity);
      if (!cost.ok) return;
      r += cost.rep_area;
      z += cost.rep_count;
    }

    const double wires_above = static_cast<double>(wb_[wit.first_bunch]);
    const double capacity =
        inst_->pair_capacity() -
        blockage_j(jb, wires_above, static_cast<double>(z));
    const ChunkCost cost =
        chunk_cost(wit.first_bunch, jb, wit.chunk_len, r, capacity);
    if (!cost.ok) return;
    const std::int64_t base =
        wb_[std::min(wit.first_bunch + wit.chunk_len, n_bunches_)];
    const std::int64_t w_extra =
        refine_extra(jb, wit.first_bunch, wit.chunk_len, r, cost, capacity);
    for (const std::int64_t w : {w_extra, std::int64_t{0}}) {
      if (free_pack_feasible(
              *inst_,
              pack_input(jb, wit.first_bunch, wit.chunk_len, z, cost, w),
              /*count_metrics=*/false)) {
        warm_bound_ = base + w;
        stats_.warm_start_hit = true;
        return;
      }
      if (w == 0) break;
    }
  }

  void assemble(const HeapEntry& best, RankResult& res) const {
    res.total_wires = inst_->total_wires();
    res.rank = best.key;
    res.normalized = res.total_wires > 0
                         ? static_cast<double>(res.rank) /
                               static_cast<double>(res.total_wires)
                         : 0.0;
    res.all_assigned = true;
    res.prefix_bunches = best.b + best.c;
    res.refined_wires = best.w_extra;

    const auto ni = static_cast<std::size_t>(best.node);
    const double node_r = arena_r_[ni];
    const std::int64_t node_z = arena_z_[ni];
    const double wires_above = static_cast<double>(wb_[best.b]);
    const double capacity =
        inst_->pair_capacity() -
        blockage_j(static_cast<std::size_t>(best.j), wires_above,
                        static_cast<double>(node_z));
    const ChunkCost cost = chunk_cost(best.b, static_cast<std::size_t>(best.j),
                                      best.c, node_r, capacity);

    double refine_rep_area = 0.0;
    std::int64_t refine_rep_count = 0;
    if (best.w_extra > 0) {
      const auto bb = static_cast<std::size_t>(best.b + best.c);
      const DelayPlan plan = inst_->plan(bb, static_cast<std::size_t>(best.j));
      refine_rep_area = static_cast<double>(best.w_extra) * plan.area_per_wire;
      refine_rep_count = best.w_extra * plan.repeaters_per_wire();
    }
    res.repeater_area_used = node_r + cost.rep_area + refine_rep_area;
    res.repeater_count = node_z + cost.rep_count + refine_rep_count;

    // Backtrack the chunk boundaries through the arena's parent links.
    auto& chunk_first = res.witness.chunk_first;
    chunk_first.assign(static_cast<std::size_t>(best.j) + 1, 0);
    {
      std::int64_t b = best.b;
      std::int32_t idx = best.node;
      for (std::int32_t j = best.j; j > 0; --j) {
        chunk_first[static_cast<std::size_t>(j)] = b;
        const auto ai = static_cast<std::size_t>(idx);
        b -= arena_c_[ai];
        idx = arena_parent_[ai];
      }
      chunk_first[0] = 0;
    }
    res.witness.break_pair = best.j;
    res.witness.first_bunch = best.b;
    res.witness.chunk_len = best.c;
    res.witness.w_extra = best.w_extra;

    if (!opt_.build_trace) return;

    res.usage.resize(m_);
    double z_above = 0.0;
    for (std::size_t j = 0; j < m_; ++j) {
      res.usage[j].pair_name = inst_->pair(j).name;
    }

    // n_bunches placements is the prefix ceiling; the packed suffix adds
    // at most one split row per pair on top of its bunch rows.
    res.placements.reserve(static_cast<std::size_t>(n_bunches_) + 2 * m_);

    for (std::size_t j = 0; j <= static_cast<std::size_t>(best.j); ++j) {
      const std::int64_t lo = chunk_first[j];
      const std::int64_t hi = (j == static_cast<std::size_t>(best.j))
                                  ? best.b + best.c
                                  : chunk_first[j + 1];
      PairUsage& u = res.usage[j];
      u.via_blockage =
          blockage_j(j, static_cast<double>(wb_[lo]), z_above);
      for (std::int64_t t = lo; t < hi; ++t) {
        const auto bb = static_cast<std::size_t>(t);
        const DelayPlan plan = inst_->plan(bb, j);
        const std::int64_t count = inst_->bunch(bb).count;
        u.wires_meeting_delay += count;
        u.wires_total += count;
        u.wire_area += inst_->wire_area(bb, j, count);
        u.repeaters += count * plan.repeaters_per_wire();
        u.repeater_area += static_cast<double>(count) * plan.area_per_wire;
        res.placements.push_back({bb, j, count, count});
      }
      if (j == static_cast<std::size_t>(best.j) && best.w_extra > 0) {
        const auto bb = static_cast<std::size_t>(best.b + best.c);
        const DelayPlan plan = inst_->plan(bb, j);
        u.wires_meeting_delay += best.w_extra;
        u.wires_total += best.w_extra;
        u.wire_area += inst_->wire_area(bb, j, best.w_extra);
        u.repeaters += best.w_extra * plan.repeaters_per_wire();
        u.repeater_area +=
            static_cast<double>(best.w_extra) * plan.area_per_wire;
        res.placements.push_back({bb, j, best.w_extra, best.w_extra});
      }
      z_above += static_cast<double>(u.repeaters);
    }

    // Suffix loads from the packer, at per-bunch detail.
    const auto detail = free_pack_detailed(
        *inst_, pack_input(static_cast<std::size_t>(best.j), best.b, best.c,
                           node_z, cost, best.w_extra));
    iarank::util::require(detail.has_value(),
                          "dp_rank: winning candidate failed re-packing");
    for (const BunchPlacement& p : *detail) {
      PairUsage& u = res.usage[p.pair];
      u.wires_total += p.wires;
      u.wire_area += inst_->wire_area(p.bunch, p.pair, p.wires);
      res.placements.push_back(p);
    }
    std::sort(res.placements.begin(), res.placements.end(),
              [](const BunchPlacement& a, const BunchPlacement& b) {
                if (a.bunch != b.bunch) return a.bunch < b.bunch;
                return a.pair < b.pair;
              });

    // Recompute blockage uniformly now that every pair's load is known.
    double wires_above_total = 0.0;
    double reps_above_total = 0.0;
    for (std::size_t j = 0; j < m_; ++j) {
      res.usage[j].via_blockage =
          blockage_j(j, wires_above_total, reps_above_total);
      wires_above_total += static_cast<double>(res.usage[j].wires_total);
      reps_above_total += static_cast<double>(res.usage[j].repeaters);
    }
  }

  // --- orchestration -----------------------------------------------------

  static void reset_result(RankResult& out) {
    out.rank = 0;
    out.normalized = 0.0;
    out.all_assigned = false;
    out.prefix_bunches = 0;
    out.refined_wires = 0;
    out.repeater_count = 0;
    out.repeater_area_used = 0.0;
    out.total_wires = 0;
    out.dp = {};
    out.witness.chunk_first.clear();
    out.witness.break_pair = -1;
    out.witness.first_bunch = 0;
    out.witness.chunk_len = 0;
    out.witness.w_extra = 0;
    out.usage.clear();
    out.placements.clear();
  }

  void finish(RankResult& out, const util::Stopwatch& total) {
    stats_.arena_bytes = pool_.bytes_used();
    last_solve_bytes_ = stats_.arena_bytes;
    out.dp = stats_;
    out.dp.seconds = total.seconds();
    publish_stats(out.dp);
    kPoolBytes.set_max(pool_.high_water_bytes());
    const std::int64_t chunks = pool_.chunks_allocated();
    kPoolChunks.inc(chunks - chunks_published_);
    chunks_published_ = chunks;
  }

  void solve(const Instance& inst, const DpOptions& options, RankResult& out) {
    util::Stopwatch total;
    // Full reinit up front (not on exit) so a solve aborted by an
    // exception — e.g. an injected free-pack fault — leaves the kernel
    // reusable.
    inst_ = &inst;
    opt_ = options;
    m_ = inst.pair_count();
    n_bunches_ = static_cast<std::int64_t>(inst.bunch_count());
    wb_ = inst.wires_before_lane();
    pairs_ = inst.pairs().data();
    pair_capacity_ = inst.pair_capacity();
    atol_ = area_tol();
    budget_plus_tol_ = inst.repeater_budget() + budget_tol();
    vias_per_wire_ = inst.vias().vias_per_wire;
    vias_per_repeater_ = inst.vias().vias_per_repeater;
    stats_ = {};
    warm_bound_ = std::numeric_limits<std::int64_t>::min();
    incumbent_ = std::numeric_limits<std::int64_t>::min();
    pool_.reset();
    attach_lanes();
    heapified_ = false;
    reset_result(out);
    out.total_wires = inst.total_wires();

    // Definition 3 fast path: delay-free packing of the whole WLD is the
    // least constrained assignment (Lemma 1); if it fails, nothing fits.
    if (!free_pack_feasible(inst, FreePackInput{})) {
      finish(out, total);
      return;
    }

    // Establish the warm-start bound before the forward pass so it prunes
    // pushes from the start.
    try_warm_start();

    {
      TRACE_SPAN("dp.forward");
      util::Stopwatch forward;
      forward_pass();
      stats_.forward_seconds = forward.seconds();
    }
    stats_.arena_nodes = static_cast<std::int64_t>(arena_r_.size());

    TRACE_SPAN("dp.search");
    while (!heap_.empty()) {
      if (!heapified_ && stats_.heap_pops >= kScanPops) {
        std::make_heap(heap_.begin(), heap_.end(), HeapCmp{});
        heapified_ = true;
      }
      if (heapified_) {
        std::pop_heap(heap_.begin(), heap_.end(), HeapCmp{});
      } else {
        // Selection pop: the strict total order has a unique maximum, so
        // swapping it to the back pops the same entry a heap would.
        HeapEntry* best =
            std::max_element(heap_.begin(), heap_.end(), HeapCmp{});
        std::swap(*best, heap_.back());
      }
      const HeapEntry e = heap_.back();
      heap_.pop_back();
      ++stats_.heap_pops;
      if (e.verified) {
        assemble(e, out);
        finish(out, total);
        return;
      }
      ++stats_.verify_calls;
      const auto verified = verify(e);
      if (verified) {
        incumbent_ = std::max(incumbent_, verified->key);
        heap_push(*verified);
      }
      if (e.c > 0) {
        // Retry this state's next-lower break point later.
        const auto j = static_cast<std::size_t>(e.j);
        const double capacity =
            pair_capacity_ -
            blockage_j(j, static_cast<double>(wb_[e.b]),
                       static_cast<double>(
                           arena_z_[static_cast<std::size_t>(e.node)]));
        push_iterator(e.node, j, e.b, e.c - 1, capacity);
      }
    }

    // Not even delay-free assignment exists: Definition 3.
    finish(out, total);
  }
};

DpKernel::DpKernel() : impl_(std::make_unique<Impl>()) {}
DpKernel::~DpKernel() = default;
DpKernel::DpKernel(DpKernel&&) noexcept = default;
DpKernel& DpKernel::operator=(DpKernel&&) noexcept = default;

RankResult DpKernel::solve(const Instance& inst, const DpOptions& options) {
  RankResult out;
  impl_->solve(inst, options, out);
  return out;
}

void DpKernel::solve_into(const Instance& inst, const DpOptions& options,
                          RankResult& out) {
  impl_->solve(inst, options, out);
}

DpKernel::PoolStats DpKernel::pool_stats() const {
  return {impl_->last_solve_bytes_, impl_->pool_.high_water_bytes(),
          impl_->pool_.chunks_allocated()};
}

namespace {

DpKernel& thread_kernel() {
  thread_local DpKernel kernel;
  return kernel;
}

}  // namespace

RankResult dp_rank(const Instance& inst, const DpOptions& options) {
  TRACE_SPAN("dp_rank");
  util::maybe_inject(kSiteDpRank);
  return thread_kernel().solve(inst, options);
}

void dp_rank_into(const Instance& inst, const DpOptions& options,
                  RankResult& out) {
  TRACE_SPAN("dp_rank");
  util::maybe_inject(kSiteDpRank);
  thread_kernel().solve_into(inst, options, out);
}

}  // namespace iarank::core
