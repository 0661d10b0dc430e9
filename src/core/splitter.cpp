#include "core/splitter.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace scalparc::core {

void assign_children_continuous(std::span<const double> values,
                                double threshold, std::span<std::int32_t> out) {
  if (values.size() != out.size()) {
    throw std::invalid_argument("assign_children_continuous: size mismatch");
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] = values[i] < threshold ? 0 : 1;
  }
}

void assign_children_categorical(std::span<const std::int32_t> values,
                                 std::span<const std::int32_t> value_to_child,
                                 std::span<std::int32_t> out) {
  if (values.size() != out.size()) {
    throw std::invalid_argument("assign_children_categorical: size mismatch");
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::int32_t v = values[i];
    if (v < 0 || v >= static_cast<std::int32_t>(value_to_child.size()) ||
        value_to_child[static_cast<std::size_t>(v)] < 0) {
      throw std::logic_error(
          "assign_children_categorical: training value missing from mapping");
    }
    out[i] = value_to_child[static_cast<std::size_t>(v)];
  }
}

std::vector<std::int32_t> value_to_child_multiway(const CountMatrix& global) {
  std::vector<std::int32_t> mapping(static_cast<std::size_t>(global.rows()), -1);
  std::int32_t next = 0;
  for (int v = 0; v < global.rows(); ++v) {
    if (global.row_total(v) > 0) mapping[static_cast<std::size_t>(v)] = next++;
  }
  return mapping;
}

std::vector<std::int32_t> value_to_child_subset(const CountMatrix& global,
                                                std::uint64_t subset) {
  std::vector<std::int32_t> mapping(static_cast<std::size_t>(global.rows()), -1);
  for (int v = 0; v < global.rows(); ++v) {
    if (global.row_total(v) == 0) continue;
    mapping[static_cast<std::size_t>(v)] = (subset >> v) & 1u ? 0 : 1;
  }
  return mapping;
}

int num_children_of(std::span<const std::int32_t> value_to_child) {
  std::int32_t max_slot = -1;
  for (const std::int32_t slot : value_to_child) {
    max_slot = std::max(max_slot, slot);
  }
  return static_cast<int>(max_slot) + 1;
}

}  // namespace scalparc::core
