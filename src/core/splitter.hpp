// Splitting-phase helpers (PerformSplitI / PerformSplitII, §4): child-slot
// assignment for the splitting attribute's list and construction of the
// categorical value -> child mapping from the winning decision.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/count_matrix.hpp"

namespace scalparc::core {

// Continuous split "A < threshold": child 0 below, child 1 at or above.
// Reads only the value column; the branchless compare-and-select loop
// auto-vectorizes.
void assign_children_continuous(std::span<const double> values,
                                double threshold, std::span<std::int32_t> out);

// Categorical split via a value -> child-slot mapping over the value column
// (-1 never occurs in training data by construction; hitting one throws).
void assign_children_categorical(std::span<const std::int32_t> values,
                                 std::span<const std::int32_t> value_to_child,
                                 std::span<std::int32_t> out);

// Multi-way mapping from the node's global count matrix: values with records
// get consecutive child slots in value order; absent values map to -1.
std::vector<std::int32_t> value_to_child_multiway(const CountMatrix& global);

// Binary-subset mapping: present values in the subset -> 0, other present
// values -> 1, absent values -> -1.
std::vector<std::int32_t> value_to_child_subset(const CountMatrix& global,
                                                std::uint64_t subset);

// Number of children implied by a mapping (max slot + 1; 0 if all absent).
int num_children_of(std::span<const std::int32_t> value_to_child);

}  // namespace scalparc::core
