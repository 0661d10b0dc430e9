#include "sort/partition_util.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace scalparc::sort {

std::vector<std::size_t> equal_partition_sizes(std::size_t total, int parts) {
  if (parts <= 0) {
    throw std::invalid_argument("equal_partition_sizes: parts must be positive");
  }
  const std::size_t base = total / static_cast<std::size_t>(parts);
  const std::size_t extra = total % static_cast<std::size_t>(parts);
  std::vector<std::size_t> sizes(static_cast<std::size_t>(parts), base);
  for (std::size_t i = 0; i < extra; ++i) ++sizes[i];
  return sizes;
}

std::vector<std::size_t> weighted_partition_sizes(std::size_t total,
                                                  std::span<const double> weights) {
  if (weights.empty()) {
    throw std::invalid_argument(
        "weighted_partition_sizes: weights must be non-empty");
  }
  double sum = 0.0;
  for (const double w : weights) {
    if (!(w > 0.0) || !std::isfinite(w)) {
      throw std::invalid_argument(
          "weighted_partition_sizes: weights must be positive and finite");
    }
    sum += w;
  }
  const std::size_t parts = weights.size();
  std::vector<std::size_t> sizes(parts, 0);
  std::vector<double> remainder(parts, 0.0);
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < parts; ++i) {
    const double quota = static_cast<double>(total) * (weights[i] / sum);
    const double floored = std::floor(quota);
    sizes[i] = static_cast<std::size_t>(floored);
    remainder[i] = quota - floored;
    assigned += sizes[i];
  }
  // Largest-remainder apportionment for the leftover elements; ties break
  // toward the lower index so uniform weights reproduce the canonical
  // first-extra layout of equal_partition_sizes.
  std::vector<std::size_t> order(parts);
  for (std::size_t i = 0; i < parts; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return remainder[a] > remainder[b];
                   });
  for (std::size_t k = 0; assigned < total; ++k) {
    ++sizes[order[k % parts]];
    ++assigned;
  }
  return sizes;
}

std::vector<std::size_t> offsets_from_sizes(const std::vector<std::size_t>& sizes) {
  std::vector<std::size_t> offsets(sizes.size() + 1, 0);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    offsets[i + 1] = offsets[i] + sizes[i];
  }
  return offsets;
}

int owner_of_global_index(std::size_t global_index,
                          const std::vector<std::size_t>& target_offsets) {
  if (global_index >= target_offsets.back()) {
    throw std::out_of_range("owner_of_global_index: index beyond total");
  }
  // The last rank whose start offset is <= global_index; its chunk is
  // non-empty because the next start offset exceeds global_index.
  const auto it = std::upper_bound(target_offsets.begin(), target_offsets.end(),
                                   global_index);
  return static_cast<int>(it - target_offsets.begin()) - 1;
}

}  // namespace scalparc::sort
