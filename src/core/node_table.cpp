#include "core/node_table.hpp"

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "mp/metrics.hpp"

namespace scalparc::core {

void NodeTable::update(std::span<const std::int64_t> rids,
                       std::span<const std::int32_t> children,
                       std::int64_t block_limit) {
  if (rids.size() != children.size()) {
    throw std::invalid_argument("NodeTable::update: rid/child size mismatch");
  }
  if (mp::MetricsSnapshot* sink = mp::metrics_sink()) {
    sink->add("nodetable.updates", 1);
    sink->add("nodetable.update_entries", static_cast<double>(rids.size()));
  }
  const std::uint32_t epoch = epoch_;
  table_.update(
      rids.size(),
      [rids, children, epoch](std::size_t i) {
        return DistributedHashTable<NodeTableEntry>::Update{
            rids[i], NodeTableEntry{children[i], epoch}};
      },
      block_limit);
}

void NodeTable::enquire(std::span<const std::int64_t> rids,
                        std::span<std::int32_t> children) {
  if (rids.size() != children.size()) {
    throw std::invalid_argument("NodeTable::enquire: rid/child size mismatch");
  }
  if (mp::MetricsSnapshot* sink = mp::metrics_sink()) {
    sink->add("nodetable.enquiries", 1);
    sink->add("nodetable.enquiry_entries", static_cast<double>(rids.size()));
  }
  const std::uint32_t epoch = epoch_;
  table_.enquire(rids, [children, epoch](std::size_t i,
                                         const NodeTableEntry& entry) {
    if (entry.epoch != epoch) {
      throw std::logic_error(
          "NodeTable::enquire: record was not assigned a child this level "
          "(stale entry)");
    }
    children[i] = entry.child;
  });
}

}  // namespace scalparc::core
