// Materialization of a graph as an adjacency-list-ordered stream.
//
// An `AdjacencyListStream` fixes (from a seed) a permutation of the adjacency
// lists and a permutation within each list, then replays that exact order on
// every pass — the strongest form of the model's replay guarantee, which the
// two-pass triangle algorithm requires. The orderings are adversarially
// controllable: callers can supply an explicit list order (the lower-bound
// protocol simulation orders lists by player) or shuffle by seed.
//
// Delivery follows the model's one promise, that a list arrives in one
// piece: every stream in src/stream speaks BeginList(u) / OnList(u, span) /
// EndList(u) with exactly one OnList per list, so the list is the unit
// every sink (contract, driver, recorder) consumes.

#ifndef CYCLESTREAM_STREAM_ADJACENCY_STREAM_H_
#define CYCLESTREAM_STREAM_ADJACENCY_STREAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "stream/model.h"

namespace cyclestream {
namespace stream {

/// An adjacency-list stream over a graph, replayable pass after pass.
class AdjacencyListStream {
 public:
  /// Stream over `graph` with list order and within-list orders shuffled
  /// deterministically from `seed`. `graph` must outlive the stream.
  AdjacencyListStream(const Graph* graph, std::uint64_t seed);

  /// Stream with an explicit list order (a permutation of all vertex ids;
  /// vertices with empty lists are permitted and contribute nothing).
  /// Within-list orders are shuffled from `seed`.
  AdjacencyListStream(const Graph* graph, std::vector<VertexId> list_order,
                      std::uint64_t seed);

  const Graph& graph() const { return *graph_; }

  /// The model this stream implements: plain adjacency-list order, with the
  /// seed its list/within-list permutations were derived from.
  const ModelDescriptor& descriptor() const { return descriptor_; }

  /// Vertices in the order their adjacency lists appear (empty lists
  /// included; they emit no pairs).
  const std::vector<VertexId>& list_order() const { return list_order_; }

  /// Number of pairs in one pass (2m).
  std::size_t stream_length() const { return 2 * graph_->num_edges(); }

  /// Neighbors of `u` in this stream's within-list order.
  std::span<const VertexId> ListOf(VertexId u) const;

  /// Replays one pass: for each list in stream order, fn.BeginList(u),
  /// one fn.OnList(u, span) carrying the whole list (the lists are stored
  /// back to back in `list_entries_`), then fn.EndList(u).
  template <typename Sink>
  void ReplayPass(Sink&& fn) const {
    for (VertexId u : list_order_) {
      fn.BeginList(u);
      fn.OnList(u, ListOf(u));
      fn.EndList(u);
    }
  }

 private:
  void BuildShuffledLists(std::uint64_t seed);

  const Graph* graph_;
  ModelDescriptor descriptor_;
  std::vector<VertexId> list_order_;
  // Within-list orders, stored contiguously with per-vertex offsets.
  std::vector<VertexId> list_entries_;
  std::vector<std::size_t> list_offsets_;
};

}  // namespace stream
}  // namespace cyclestream

#endif  // CYCLESTREAM_STREAM_ADJACENCY_STREAM_H_
