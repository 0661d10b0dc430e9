// Columnar in-memory training set.
//
// Records are addressed by a dense row index; the *global* record id used by
// the distributed algorithms is row index + block offset of the owning rank.
// Continuous values are doubles, categorical values are integer codes in
// [0, cardinality).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "data/schema.hpp"

namespace scalparc::data {

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(Schema schema);
  // Adopts whole columns: `continuous` / `categorical` hold the columns of
  // the schema's continuous / categorical attributes in schema order, each as
  // long as `labels`. Throws std::invalid_argument when a count or a length
  // does not match; the values are checked by validate(), not here.
  Dataset(Schema schema, std::vector<std::vector<double>> continuous,
          std::vector<std::vector<std::int32_t>> categorical,
          std::vector<std::int32_t> labels);

  const Schema& schema() const { return schema_; }
  std::size_t num_records() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }

  // Appends one record. `continuous` / `categorical` must hold the values of
  // this record's continuous / categorical attributes in schema order
  // (i.e. the k-th continuous attribute's value is continuous[k]).
  void append(std::span<const double> continuous,
              std::span<const std::int32_t> categorical, std::int32_t label);

  double continuous_value(int attribute, std::size_t row) const;
  std::int32_t categorical_value(int attribute, std::size_t row) const;
  std::int32_t label(std::size_t row) const { return labels_[row]; }

  std::span<const std::int32_t> labels() const { return labels_; }
  // Whole column access (attribute must be of the matching kind).
  std::span<const double> continuous_column(int attribute) const;
  std::span<const std::int32_t> categorical_column(int attribute) const;

  // Copies rows [begin, end) into a new dataset with the same schema.
  Dataset slice(std::size_t begin, std::size_t end) const;

  // Total payload bytes (for memory accounting).
  std::size_t payload_bytes() const;

  // Throws std::out_of_range / std::invalid_argument if any categorical code
  // or label is outside its declared domain.
  void validate() const;

 private:
  // Maps attribute index -> index within its kind-specific column pool.
  int column_slot(int attribute, AttributeKind expected) const;

  Schema schema_;
  std::vector<int> slot_of_attribute_;
  std::vector<std::vector<double>> continuous_columns_;
  std::vector<std::vector<std::int32_t>> categorical_columns_;
  std::vector<std::int32_t> labels_;
};

}  // namespace scalparc::data
