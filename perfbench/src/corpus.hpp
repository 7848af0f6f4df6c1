/// \file corpus.hpp
/// \brief The dp_hard instance corpus: large physical instances, seeded
///        synthetic raw instances with large frontiers, and small exact
///        instances the brute-force and reference engines can solve.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/dp_rank.hpp"
#include "src/core/instance.hpp"

namespace perfbench {

enum class Part { kPhysical, kSynthetic, kExact };
[[nodiscard]] const char* part_name(Part part);

struct CorpusEntry {
  Part part = Part::kSynthetic;
  std::string label;  ///< reproducer: seed, index and generator parameters
  iarank::core::Instance instance;
  iarank::core::DpOptions options;
  /// Engine independent of the DP that solves this entry exactly:
  /// "brute_force", "reference_dp" (in its exact regime, with
  /// `oracle_quanta` area units) or "" for none.
  std::string oracle;
  int oracle_quanta = 0;
};

/// Rank of `entry` from its oracle engine; -1 when it has none.
[[nodiscard]] std::int64_t oracle_rank(const CorpusEntry& entry);

/// One physical instance of the corpus: rank_tool config text of a fixed
/// design (fine bunching, 6-8 layer-pairs, via blockage on) at a fixed K
/// and C, the same for every seed.
struct PhysicalPoint {
  std::string config;
  double k = 0.0;
  double c = 0.0;
};
[[nodiscard]] std::vector<PhysicalPoint> physical_points();

/// Builds the whole corpus for `seed`. Deterministic: the same seed gives
/// bitwise-identical instances. Physical instances go through a cold
/// InstanceBuilder, one per design.
[[nodiscard]] std::vector<CorpusEntry> build_corpus(std::uint64_t seed);

/// The exact part alone: wire-granular instances small enough for
/// brute_force_rank or, in its exact regime, reference_dp_rank.
[[nodiscard]] std::vector<CorpusEntry> exact_part(std::uint64_t seed);

/// Synthetic raw instance `slot` of the corpus of `seed`: 500 bunches,
/// 4-8 layer-pairs, tight routing capacity, in the corpus's hardness band
/// (corpus.cpp). The seed picks one of the checked-in variants of
/// synthetic_slots.inc (seed mod their count). `label` receives the
/// reproducer.
[[nodiscard]] iarank::core::Instance synthetic_instance(std::uint64_t seed,
                                                        std::size_t slot,
                                                        std::string* label);

/// Shape draw and routing-capacity slack of one synthetic slot.
struct SlotChoice {
  std::uint32_t attempt;
  double slack;
};

/// Searches variant `variant`, slot `slot` for an instance in the hardness
/// band by solving candidates with the DP. Used only to regenerate the
/// checked-in table (perfbench --select-corpus), never by a run.
[[nodiscard]] SlotChoice select_synthetic(std::uint64_t variant,
                                          std::size_t slot);

/// Synthetic instances per corpus.
[[nodiscard]] std::size_t synthetic_slots();

}  // namespace perfbench
