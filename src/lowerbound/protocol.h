// Communication-protocol simulation over the Figure 1 gadgets.
//
// The reductions of Section 5.1 turn a streaming algorithm into a protocol:
// each player inserts the adjacency lists of their vertices, then ships the
// algorithm's working state to the next player. This module executes that
// construction literally — the gadget's lists are streamed grouped by player
// and the algorithm's CurrentSpaceBytes() at each player boundary is the
// message size. One pass of a c-pass algorithm crosses (players - 1)
// boundaries; total communication = Σ message sizes, and the protocol output
// is derived from the final estimate (> promised/2 → "1").
//
// Delivery goes through a `stream::StreamSession`, the pass/list state
// machine the driver and the service run on, so protocol runs get the same
// metering, the same batch fast path (one devirtualized OnListBatch per
// list when given a concrete algorithm), and the same optional
// `obs::Observer` + `obs::SpaceTracer` instrumentation as
// `stream::RunPasses`. One difference is the protocol's
// own: space is sampled at list boundaries only, with no extra sample after
// EndPass (messages between passes are read directly).

#ifndef CYCLESTREAM_LOWERBOUND_PROTOCOL_H_
#define CYCLESTREAM_LOWERBOUND_PROTOCOL_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/triangle_distinguisher.h"
#include "lowerbound/gadget.h"
#include "snapshot/snapshot.h"
#include "stream/adjacency_stream.h"
#include "stream/algorithm.h"
#include "stream/driver.h"
#include "stream/session.h"
#include "util/check.h"
#include "util/status.h"

namespace cyclestream {
namespace lowerbound {

/// Outcome of running a streaming algorithm as a communication protocol.
struct ProtocolRun {
  /// State size at every player boundary, in stream order across all passes.
  std::vector<std::size_t> message_bytes;
  /// Largest single message (the one-way communication cost per round).
  std::size_t max_message_bytes = 0;
  /// Sum over all boundaries and passes (the multi-round total).
  std::size_t total_message_bytes = 0;
  /// Peak self-reported working space of the algorithm anywhere in the run.
  std::size_t reported_peak_bytes = 0;
  /// Peak allocator-measured live bytes at the same sample points (0 when
  /// the algorithm exposes no memory domain).
  std::size_t audited_peak_bytes = 0;
  /// Largest |audited - reported| over all samples (0 when unaudited).
  std::size_t max_divergence_bytes = 0;
};

/// Builds the player-grouped adjacency-list stream for a gadget: all of
/// Alice's lists, then Bob's, then (if present) Charlie's; order within each
/// player and within each list shuffled from `seed`.
stream::AdjacencyListStream MakeProtocolStream(const Gadget& gadget,
                                               std::uint64_t seed);

namespace internal {

// Copies the session's peaks and tallies max/total over the recorded
// boundary messages.
inline void FinishProtocolRun(const stream::RunReport& report,
                              ProtocolRun* run) {
  run->reported_peak_bytes = report.reported_peak_bytes;
  run->audited_peak_bytes = report.audited_peak_bytes;
  run->max_divergence_bytes = report.max_divergence_bytes;
  for (std::size_t bytes : run->message_bytes) {
    run->max_message_bytes = std::max(run->max_message_bytes, bytes);
    run->total_message_bytes += bytes;
  }
}

// Contiguous per-player segments [begin, end) of the list order.
inline std::vector<std::pair<std::size_t, std::size_t>> PlayerSegments(
    const Gadget& gadget, const std::vector<VertexId>& order) {
  std::vector<std::pair<std::size_t, std::size_t>> segments;
  std::size_t begin = 0;
  for (std::size_t i = 1; i <= order.size(); ++i) {
    if (i == order.size() ||
        gadget.player_of[order[i]] != gadget.player_of[order[begin]]) {
      segments.push_back({begin, i});
      begin = i;
    }
  }
  return segments;
}

}  // namespace internal

/// Runs all passes of `algorithm` over the gadget's player-grouped stream,
/// recording the message sizes. The caller reads the estimate from the
/// concrete algorithm afterwards. Like `stream::RunPasses`, `AlgoT` is
/// deduced: a concrete algorithm pointer takes the devirtualized batch path,
/// a `stream::StreamAlgorithm*` the virtual one — bit-identical results.
/// `observe` and `space` instrument the run exactly as in the driver (pass
/// spans, per-pass logs and prof scopes, "driver.*" counters, space
/// timeline).
template <typename AlgoT>
ProtocolRun RunProtocol(const Gadget& gadget, AlgoT* algorithm,
                        std::uint64_t seed, const obs::Observer& observe = {},
                        obs::SpaceTracer* space = nullptr) {
  CYCLESTREAM_CHECK(algorithm != nullptr);
  stream::AdjacencyListStream protocol_stream =
      MakeProtocolStream(gadget, seed);
  const std::vector<VertexId>& order = protocol_stream.list_order();

  ProtocolRun run;
  const auto segments = internal::PlayerSegments(gadget, order);
  stream::StreamSession<AlgoT> session(algorithm, observe, space);
  while (!session.finished()) {
    session.BeginPass();
    for (const auto& [begin, end] : segments) {
      if (begin != 0) {
        // Player boundary: the algorithm state is the message.
        run.message_bytes.push_back(algorithm->CurrentSpaceBytes());
      }
      for (std::size_t i = begin; i < end; ++i) {
        session.ConsumeList(order[i], protocol_stream.ListOf(order[i]));
      }
    }
    // No pass-end sample: the protocol's peak is defined over list
    // boundaries only; pass-end state is measured by the message below.
    session.EndPass(/*sample_space=*/false);
    if (!session.finished()) {
      // Multi-pass: the last player sends the state back to the first.
      run.message_bytes.push_back(algorithm->CurrentSpaceBytes());
    }
  }
  internal::FinishProtocolRun(session.report(), &run);
  stream::internal::ExportDriverMetrics(session.report(), observe.metrics);
  return run;
}

/// The reduction made fully literal: each player is a SEPARATE algorithm
/// instance; at every boundary the current player's state is serialized into
/// a snapshot envelope and the next player resumes from those bytes alone.
/// message_bytes are the actual envelope sizes (payload plus the fixed
/// snapshot::kEnvelopeBytes framing) — the same bytes the crash-recovery
/// checkpoints ship. The final player's instance is written to
/// *final_player, whose result must be identical to a monolithic RunProtocol
/// with the same options and seeds — asserted in tests.
///
/// `Algo` must implement the snapshot contract Serialize()/Restore()
/// (stream/algorithm.h; e.g. core::TriangleDistinguisher,
/// core::TwoPassTriangleCounter) and be constructible from `Options`.
/// Restore failures are CHECKed: the wire was produced in-process, so a bad
/// envelope is a programming error, not input corruption.
template <typename Algo, typename Options>
ProtocolRun RunSerializedProtocol(const Gadget& gadget, const Options& options,
                                  std::uint64_t seed,
                                  std::unique_ptr<Algo>* final_player) {
  stream::AdjacencyListStream protocol_stream =
      MakeProtocolStream(gadget, seed);
  const std::vector<VertexId>& order = protocol_stream.list_order();

  ProtocolRun run;
  const auto segments = internal::PlayerSegments(gadget, order);
  CYCLESTREAM_CHECK(!segments.empty());

  // One session across all players: each player takes it over from the
  // previous one, so its report peaks over every player's samples.
  auto player = std::make_unique<Algo>(options);
  stream::StreamSession<Algo> session(player.get());
  while (!session.finished()) {
    for (const auto& [seg_begin, seg_end] : segments) {
      if (seg_begin == 0) session.BeginPass();
      for (std::size_t i = seg_begin; i < seg_end; ++i) {
        session.ConsumeList(order[i], protocol_stream.ListOf(order[i]));
      }
      if (seg_end == order.size()) session.EndPass(/*sample_space=*/false);
      if (session.finished()) break;
      snapshot::SnapshotWriter writer;
      player->Serialize(writer);
      const std::vector<std::uint8_t> wire = std::move(writer).Finish();
      run.message_bytes.push_back(wire.size());
      // A brand-new player knowing only the public options and the wire.
      player = std::make_unique<Algo>(options);
      StatusOr<snapshot::SnapshotReader> reader =
          snapshot::SnapshotReader::Open(wire);
      CYCLESTREAM_CHECK(reader.ok());
      CYCLESTREAM_CHECK(player->Restore(*reader).ok());
      CYCLESTREAM_CHECK(reader->Final().ok());
      session.Rebind(player.get());
    }
  }
  *final_player = std::move(player);
  internal::FinishProtocolRun(session.report(), &run);
  return run;
}

/// Convenience wrapper over RunSerializedProtocol for the two-pass
/// distinguisher (kept for the benches' C-style call sites).
ProtocolRun RunSerializedDistinguisherProtocol(
    const Gadget& gadget, const core::TriangleDistinguisherOptions& options,
    std::uint64_t seed, core::TriangleDistinguisherResult* result);

}  // namespace lowerbound
}  // namespace cyclestream

#endif  // CYCLESTREAM_LOWERBOUND_PROTOCOL_H_
