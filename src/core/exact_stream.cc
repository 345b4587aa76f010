#include "core/exact_stream.h"

#include <utility>

#include "snapshot/codec.h"
#include "util/check.h"

namespace cyclestream {
namespace core {

void ExactStreamTriangleCounter::BeginList(VertexId /*u*/) {
  current_list_.clear();
}

void ExactStreamTriangleCounter::HandlePair(VertexId u, VertexId v) {
  ++pair_events_;
  current_list_.push_back(v);
  (void)u;
}

void ExactStreamTriangleCounter::EndList(VertexId u) {
  // A triangle {x, y, u} is counted at u's list iff edge {x, y} has fully
  // appeared in earlier lists — true exactly when u's list is the last of
  // the three, so each triangle is counted once. That needs x's and y's
  // lists to be earlier, i.e. {u, x} and {u, y} already in edge_state_.
  // One probe per neighbour records this list's copy of {u, v} and swaps
  // the earlier-list neighbours to the front (in place, no allocation);
  // pairs are then probed within that prefix only. The {u, v} updates
  // cannot affect the pair probes: those edges avoid u.
  std::size_t earlier = 0;
  for (std::size_t i = 0; i < current_list_.size(); ++i) {
    auto [it, inserted] =
        edge_state_.try_emplace(MakeEdgeKey(u, current_list_[i]), 0);
    ++it->second;
    if (!inserted) std::swap(current_list_[earlier++], current_list_[i]);
  }
  for (std::size_t i = 0; i < earlier; ++i) {
    for (std::size_t j = i + 1; j < earlier; ++j) {
      auto it = edge_state_.find(MakeEdgeKey(current_list_[i], current_list_[j]));
      if (it != edge_state_.end() && it->second == 2) ++triangles_;
    }
  }
  current_list_.clear();
}

void ExactStreamTriangleCounter::Serialize(snapshot::SnapshotWriter& w) const {
  w.WriteU64(pair_events_);
  w.WriteU64(triangles_);
  snapshot::WriteScratchCapacity(w, current_list_);
  snapshot::WriteBucketCount(w, edge_state_);
  w.WriteU64(edge_state_.size());
  for (const EdgeKey key : snapshot::SortedKeys(edge_state_)) {
    w.WriteU64(key);
    w.WriteU8(edge_state_.find(key)->second);
  }
}

Status ExactStreamTriangleCounter::Restore(snapshot::SnapshotReader& r) {
  CYCLESTREAM_CHECK_EQ(edge_state_.size(), 0u);
  pair_events_ = r.ReadU64();
  triangles_ = r.ReadU64();
  snapshot::ReadScratchCapacity(r, current_list_);
  snapshot::RestoreBucketCount(r, edge_state_);
  const std::uint64_t edges = r.ReadU64();
  if (!r.status().ok()) return r.status();
  for (std::uint64_t i = 0; i < edges && r.status().ok(); ++i) {
    const EdgeKey key = r.ReadU64();
    edge_state_.emplace(key, r.ReadU8());
  }
  return r.status();
}

std::size_t ExactStreamTriangleCounter::CurrentSpaceBytes() const {
  constexpr std::size_t kMapEntryOverhead = 16;
  return edge_state_.size() *
             (sizeof(EdgeKey) + sizeof(std::uint8_t) + kMapEntryOverhead) +
         current_list_.capacity() * sizeof(VertexId);
}

}  // namespace core
}  // namespace cyclestream
