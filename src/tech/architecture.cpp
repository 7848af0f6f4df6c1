#include "src/tech/architecture.hpp"

#include <sstream>
#include <string>

#include "src/util/error.hpp"
#include "src/util/units.hpp"

namespace iarank::tech {

namespace units = iarank::util::units;

void ArchitectureSpec::validate() const {
  iarank::util::require(global_pairs >= 0 && semi_global_pairs >= 0 &&
                            local_pairs >= 0,
                        "ArchitectureSpec: pair counts must be >= 0");
  iarank::util::require(total_pairs() >= 1,
                        "ArchitectureSpec: architecture needs >= 1 layer-pair");
  iarank::util::require(ild_height_factor > 0.0,
                        "ArchitectureSpec: ild_height_factor must be > 0");
}

namespace {

LayerGeometry make_geometry(const TierGeometry& tier, double ild_factor) {
  LayerGeometry g;
  g.width = tier.min_width;
  g.spacing = tier.min_spacing;
  g.thickness = tier.thickness;
  g.ild_height = ild_factor * tier.thickness;
  g.via_width = tier.via_width;
  g.validate();
  return g;
}

/// "<prefix><index> (<tier>)", e.g. "G1 (global)". Built by appending:
/// GCC 12's -Wrestrict misfires on `"G" + std::to_string(...)`, which
/// inserts at the front of the temporary.
std::string pair_name(char prefix, int index, const char* tier) {
  std::string name(1, prefix);
  name += std::to_string(index);
  name += " (";
  name += tier;
  name += ')';
  return name;
}

}  // namespace

Architecture Architecture::build(const TechNode& node,
                                 const ArchitectureSpec& spec) {
  node.validate();
  spec.validate();

  std::vector<LayerPair> pairs;
  pairs.reserve(static_cast<std::size_t>(spec.total_pairs()));

  for (int i = 0; i < spec.global_pairs; ++i) {
    pairs.push_back({pair_name('G', i + 1, "global"), Tier::kGlobal,
                     make_geometry(node.global, spec.ild_height_factor)});
  }
  for (int i = 0; i < spec.semi_global_pairs; ++i) {
    pairs.push_back({pair_name('S', i + 1, "semi-global"),
                     Tier::kSemiGlobal,
                     make_geometry(node.semi_global, spec.ild_height_factor)});
  }
  for (int i = 0; i < spec.local_pairs; ++i) {
    pairs.push_back({pair_name('L', i + 1, "local"), Tier::kLocal,
                     make_geometry(node.local, spec.ild_height_factor)});
  }
  return Architecture(node, spec, std::move(pairs));
}

Architecture::Architecture(TechNode node, ArchitectureSpec spec,
                           std::vector<LayerPair> pairs)
    : node_(std::move(node)), spec_(spec), pairs_(std::move(pairs)) {}

const LayerPair& Architecture::pair(std::size_t index) const {
  iarank::util::require(index < pairs_.size(),
                        "Architecture: layer-pair index out of range");
  return pairs_[index];
}

std::string Architecture::describe() const {
  std::ostringstream os;
  os << node_.name << " architecture, " << pairs_.size()
     << " layer-pairs (top to bottom):\n";
  for (const LayerPair& p : pairs_) {
    os << "  " << p.name << "  W=" << p.geometry.width / units::um
       << "um S=" << p.geometry.spacing / units::um
       << "um T=" << p.geometry.thickness / units::um
       << "um H=" << p.geometry.ild_height / units::um
       << "um via=" << p.geometry.via_width / units::um << "um\n";
  }
  return os.str();
}

}  // namespace iarank::tech
