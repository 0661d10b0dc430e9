#include "data/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace scalparc::data {

Dataset::Dataset(Schema schema) : schema_(std::move(schema)) {
  schema_.validate();
  slot_of_attribute_.reserve(static_cast<std::size_t>(schema_.num_attributes()));
  for (int a = 0; a < schema_.num_attributes(); ++a) {
    if (schema_.attribute(a).kind == AttributeKind::kContinuous) {
      slot_of_attribute_.push_back(static_cast<int>(continuous_columns_.size()));
      continuous_columns_.emplace_back();
    } else {
      slot_of_attribute_.push_back(static_cast<int>(categorical_columns_.size()));
      categorical_columns_.emplace_back();
    }
  }
}

Dataset::Dataset(Schema schema, std::vector<std::vector<double>> continuous,
                 std::vector<std::vector<std::int32_t>> categorical,
                 std::vector<std::int32_t> labels)
    : Dataset(std::move(schema)) {
  if (continuous.size() != continuous_columns_.size() ||
      categorical.size() != categorical_columns_.size()) {
    throw std::invalid_argument("Dataset: column count mismatch");
  }
  const auto same_length = [&](const auto& column) {
    return column.size() == labels.size();
  };
  if (!std::all_of(continuous.begin(), continuous.end(), same_length) ||
      !std::all_of(categorical.begin(), categorical.end(), same_length)) {
    throw std::invalid_argument("Dataset: column length mismatch");
  }
  continuous_columns_ = std::move(continuous);
  categorical_columns_ = std::move(categorical);
  labels_ = std::move(labels);
}

int Dataset::column_slot(int attribute, AttributeKind expected) const {
  if (attribute < 0 || attribute >= schema_.num_attributes()) {
    throw std::out_of_range("Dataset: attribute index out of range");
  }
  if (schema_.attribute(attribute).kind != expected) {
    throw std::invalid_argument("Dataset: attribute kind mismatch");
  }
  return slot_of_attribute_[static_cast<std::size_t>(attribute)];
}

void Dataset::append(std::span<const double> continuous,
                     std::span<const std::int32_t> categorical,
                     std::int32_t label) {
  if (static_cast<int>(continuous.size()) != schema_.num_continuous() ||
      static_cast<int>(categorical.size()) != schema_.num_categorical()) {
    throw std::invalid_argument("Dataset::append: value count mismatch");
  }
  std::size_t c = 0;
  std::size_t g = 0;
  for (int a = 0; a < schema_.num_attributes(); ++a) {
    const int slot = slot_of_attribute_[static_cast<std::size_t>(a)];
    if (schema_.attribute(a).kind == AttributeKind::kContinuous) {
      continuous_columns_[static_cast<std::size_t>(slot)].push_back(continuous[c++]);
    } else {
      categorical_columns_[static_cast<std::size_t>(slot)].push_back(categorical[g++]);
    }
  }
  labels_.push_back(label);
}

double Dataset::continuous_value(int attribute, std::size_t row) const {
  const int slot = column_slot(attribute, AttributeKind::kContinuous);
  return continuous_columns_[static_cast<std::size_t>(slot)].at(row);
}

std::int32_t Dataset::categorical_value(int attribute, std::size_t row) const {
  const int slot = column_slot(attribute, AttributeKind::kCategorical);
  return categorical_columns_[static_cast<std::size_t>(slot)].at(row);
}

std::span<const double> Dataset::continuous_column(int attribute) const {
  const int slot = column_slot(attribute, AttributeKind::kContinuous);
  return continuous_columns_[static_cast<std::size_t>(slot)];
}

std::span<const std::int32_t> Dataset::categorical_column(int attribute) const {
  const int slot = column_slot(attribute, AttributeKind::kCategorical);
  return categorical_columns_[static_cast<std::size_t>(slot)];
}

Dataset Dataset::slice(std::size_t begin, std::size_t end) const {
  if (begin > end || end > num_records()) {
    throw std::out_of_range("Dataset::slice: bad range");
  }
  Dataset out(schema_);
  std::vector<double> cont(static_cast<std::size_t>(schema_.num_continuous()));
  std::vector<std::int32_t> cat(static_cast<std::size_t>(schema_.num_categorical()));
  for (std::size_t row = begin; row < end; ++row) {
    std::size_t c = 0;
    std::size_t g = 0;
    for (int a = 0; a < schema_.num_attributes(); ++a) {
      const int slot = slot_of_attribute_[static_cast<std::size_t>(a)];
      if (schema_.attribute(a).kind == AttributeKind::kContinuous) {
        cont[c++] = continuous_columns_[static_cast<std::size_t>(slot)][row];
      } else {
        cat[g++] = categorical_columns_[static_cast<std::size_t>(slot)][row];
      }
    }
    out.append(cont, cat, labels_[row]);
  }
  return out;
}

std::size_t Dataset::payload_bytes() const {
  std::size_t bytes = labels_.size() * sizeof(std::int32_t);
  for (const auto& col : continuous_columns_) bytes += col.size() * sizeof(double);
  for (const auto& col : categorical_columns_) {
    bytes += col.size() * sizeof(std::int32_t);
  }
  return bytes;
}

void Dataset::validate() const {
  for (std::size_t row = 0; row < labels_.size(); ++row) {
    if (labels_[row] < 0 || labels_[row] >= schema_.num_classes()) {
      throw std::out_of_range("Dataset: label out of range");
    }
  }
  for (int a = 0; a < schema_.num_attributes(); ++a) {
    const AttributeInfo& info = schema_.attribute(a);
    if (info.kind == AttributeKind::kCategorical) {
      for (std::int32_t code : categorical_column(a)) {
        if (code < 0 || code >= info.cardinality) {
          throw std::out_of_range("Dataset: categorical code out of range for '" +
                                  info.name + "'");
        }
      }
    } else {
      // NaN breaks the strict weak order of the presort; infinities break
      // split-threshold arithmetic. Both are input errors.
      for (const double value : continuous_column(a)) {
        if (!std::isfinite(value)) {
          throw std::invalid_argument(
              "Dataset: non-finite continuous value in '" + info.name + "'");
        }
      }
    }
  }
}

}  // namespace scalparc::data
