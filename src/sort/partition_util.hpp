// Block-distribution helpers shared by the Presort and the engines' re-tiling.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace scalparc::sort {

// Sizes of the `parts` chunks of a block distribution of `total` elements:
// the first (total % parts) chunks get one extra element. This is the
// canonical "equal fragments" layout the paper assumes for attribute lists.
std::vector<std::size_t> equal_partition_sizes(std::size_t total, int parts);

// Weighted block distribution: chunk i targets total * weights[i] / sum(w)
// elements, rounded by largest-remainder apportionment (remainder ties break
// toward the lower index). Deterministic, sums exactly to `total`, and with
// uniform weights reproduces equal_partition_sizes bit for bit — so a
// weight-aware call site degrades to the canonical layout when no rank is
// being steered away from. Weights must be positive and finite.
std::vector<std::size_t> weighted_partition_sizes(std::size_t total,
                                                  std::span<const double> weights);

// Exclusive prefix (start offsets) of a size vector, plus the total as the
// final element; result has sizes.size() + 1 entries.
std::vector<std::size_t> offsets_from_sizes(const std::vector<std::size_t>& sizes);

// The rank whose chunk holds `global_index`, given chunk offsets
// (target_offsets.size() == p + 1); empty chunks are skipped. Throws
// std::out_of_range for an index at or beyond the total.
int owner_of_global_index(std::size_t global_index,
                          const std::vector<std::size_t>& target_offsets);

}  // namespace scalparc::sort
