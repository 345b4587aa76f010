// The single-copy edge-stream substrates (arbitrary order here; the
// random-order / ε-perturbed variants live in stream/random_order_stream.h
// and share `EdgeStreamBase`).
//
// The paper's Section 1.1 contrasts the adjacency-list model against the
// classic arbitrary-order model, where each edge appears exactly once at an
// arbitrary position and no grouping promise holds. In that model sublinear
// one-pass triangle counting is impossible without extra parameters (Ω(m)
// to distinguish 0 from T < n triangles [Braverman et al.]), which is what
// makes the adjacency-list results interesting. These substrates exist so
// the model gap is measurable: bench/model_comparison runs matched
// estimators over all models on the same graphs.
//
// Unified delivery: edge streams speak the SAME list grammar as
// AdjacencyListStream — BeginList(u) / OnList(u, span) / EndList(u), one
// OnList per list — by grouping maximal runs of consecutive edges sharing a
// first endpoint (canonical u < v orientation) into "u-runs". A u-run is
// packaging, not a promise: in a random permutation nearly every run has
// length 1, so the driver's run-boundary space samples are effectively
// per-edge, and the per-model contract (stream/contract.h) never checks
// contiguity on these streams. The payoff is that every driver entry point,
// checkpoint path, and the estimator service consume edge streams with
// zero special-casing.

#ifndef CYCLESTREAM_STREAM_ARBITRARY_STREAM_H_
#define CYCLESTREAM_STREAM_ARBITRARY_STREAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "stream/contract.h"
#include "stream/model.h"
#include "util/check.h"

namespace cyclestream {
namespace stream {

/// Shared substrate for the edge-order models: a fixed edge permutation
/// replayed pass after pass through the unified list grammar.
/// Subclasses build `order_` (and their descriptor) then call
/// `FinalizeOrder()` once.
class EdgeStreamBase {
 public:
  const Graph& graph() const { return *graph_; }

  /// Number of elements in one pass (m — each edge exactly once).
  std::size_t stream_length() const { return order_.size(); }

  /// The edges in stream order.
  const std::vector<Edge>& order() const { return order_; }

  /// The model this stream implements.
  const ModelDescriptor& descriptor() const { return descriptor_; }

  /// The per-model contract for this stream: exactly-once-per-edge checks,
  /// plus declared-permutation checks when the model pins its order.
  /// The stream must outlive the returned contract.
  EdgeStreamContract MakeContract() const {
    return EdgeStreamContract(
        graph_, descriptor_,
        HasDeclaredOrder(descriptor_.model) ? &order_ : nullptr);
  }

  /// Replays one pass through the unified grammar: for each u-run,
  /// fn.BeginList(u), one fn.OnList(u, span) of the run's second endpoints,
  /// then fn.EndList(u). Each element (u, v) is the undirected edge {u, v},
  /// seen exactly once per pass, with u < v.
  template <typename Sink>
  void ReplayPass(Sink&& fn) const {
    for (std::size_t run = 0; run + 1 < run_offsets_.size(); ++run) {
      const VertexId u = run_vertex_[run];
      fn.BeginList(u);
      fn.OnList(u, std::span<const VertexId>(
                       run_entries_.data() + run_offsets_[run],
                       run_offsets_[run + 1] - run_offsets_[run]));
      fn.EndList(u);
    }
  }

 protected:
  EdgeStreamBase(const Graph* graph, ModelDescriptor descriptor)
      : graph_(graph), descriptor_(descriptor) {
    CYCLESTREAM_CHECK(graph != nullptr);
    CYCLESTREAM_CHECK(IsEdgeModel(descriptor.model));
  }

  /// Flattens `order_` into u-runs (maximal consecutive subsequences with
  /// the same first endpoint). Call exactly once, after `order_` is final.
  void FinalizeOrder();

  const Graph* graph_;
  ModelDescriptor descriptor_;
  std::vector<Edge> order_;

 private:
  // u-runs, flattened: run r covers second endpoints
  // run_entries_[run_offsets_[r] .. run_offsets_[r+1]) under first
  // endpoint run_vertex_[r].
  std::vector<VertexId> run_vertex_;
  std::vector<VertexId> run_entries_;
  std::vector<std::size_t> run_offsets_;
};

/// A graph materialized as a replayable arbitrary-order edge stream: each
/// edge exactly once, positions shuffled deterministically from `seed`, no
/// order promise declared (the contract checks exactly-once only).
class ArbitraryOrderStream final : public EdgeStreamBase {
 public:
  ArbitraryOrderStream(const Graph* graph, std::uint64_t seed);
};

}  // namespace stream
}  // namespace cyclestream

#endif  // CYCLESTREAM_STREAM_ARBITRARY_STREAM_H_
