/// \file coarsen.hpp
/// \brief WLD coarsening: bunching (paper Section 5.1) and binning
///        (paper footnote 7).
///
/// Rank computation cost grows steeply with the number of assignment units,
/// so the paper assigns *bunches* of identical-length wires instead of
/// single wires. The rank is then exact at bunch granularity only: a
/// bunch sits whole on one layer-pair, so it can lose more than one
/// bunch's worth of wires against single-wire assignment (see
/// core/dp_rank.hpp). Binning is an orthogonal reduction that replaces a group of
/// nearby lengths with a single wire length at their (count-weighted) mean.

#pragma once

#include <cstdint>
#include <vector>

#include "src/wld/wld.hpp"

namespace iarank::wld {

/// Splits every length-group into bunches of at most `bunch_size` wires.
/// A group of 100 wires with bunch_size 40 yields bunches of 40, 40, 20
/// (the paper's example). Result is ordered longest-first; each element's
/// count is in [1, bunch_size]. Throws util::Error for bunch_size < 1.
[[nodiscard]] std::vector<WireGroup> bunch(const Wld& wld,
                                           std::int64_t bunch_size);

/// Number of bunches `bunch` would produce, without materializing them
/// (ceil(count / bunch_size) per group).
[[nodiscard]] std::int64_t bunch_count(const Wld& wld, std::int64_t bunch_size);

/// Binning with an absolute length window: scanning longest-first, groups
/// whose length is within `window` [pitches] of the first group in the
/// current bin are merged into one group at the count-weighted mean
/// length. The paper's example (lengths 5996..6000, counts 3,2,2,1,1 ->
/// one group of 9 at length 5998) corresponds to window >= 4.
/// Total wire count is preserved exactly. Throws for window < 0.
[[nodiscard]] Wld bin_absolute(const Wld& wld, double window);

/// Binning with a relative window: a group joins the current bin while
/// (first_length - length) <= relative_width * first_length.
/// Throws for relative_width < 0.
[[nodiscard]] Wld bin_relative(const Wld& wld, double relative_width);

}  // namespace iarank::wld
