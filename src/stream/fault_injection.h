// Deliberate model violations: fault-injecting stream decorators.
//
// `FaultInjectingStream` wraps an `AdjacencyListStream` and replays it with
// one seeded, deterministic violation of the adjacency-list contract;
// `EdgeFaultInjectingStream` does the same for the edge-order models
// (arbitrary / random-order / ε-perturbed). These are the exact violation
// classes the per-model contracts (stream/contract.h) detect. They exist to
// make the model boundary executable: tests inject each fault and assert the
// contract flags it (and nothing else), benches measure what estimators do
// when the model's promises bend, and `RunPassesChecked` demonstrates
// recoverable rejection instead of a wrong estimate or a CHECK abort.
//
// Model applicability is itself part of the contract: each fault class
// declares which models it applies to (`FaultAppliesTo`), and
// `FaultSpec::ValidateFor` / the `Make` factories reject model-inapplicable
// injections with a typed kInvalidArgument Status — there is no adjacency
// list to split in an edge stream, and silently injecting nothing would let
// a test "pass" while testing nothing.
//
// The decorators mirror the stream replay interface (`graph()`,
// `stream_length()`, `ReplayPass(sink)`, `descriptor()`) so they drop into
// the driver and the contracts unchanged. Faults that depend on the pass
// number (truncating pass 1, diverging replay) key off an internal pass
// counter advanced by each `ReplayPass` call; `ResetPasses()` rewinds it so
// one decorator can be replayed from scratch.

#ifndef CYCLESTREAM_STREAM_FAULT_INJECTION_H_
#define CYCLESTREAM_STREAM_FAULT_INJECTION_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/types.h"
#include "stream/adjacency_stream.h"
#include "stream/arbitrary_stream.h"
#include "stream/model.h"
#include "util/check.h"
#include "util/random.h"
#include "util/status.h"

namespace cyclestream {
namespace stream {

/// The injectable violation classes (matching `ViolationKind` coverage).
enum class FaultKind {
  kNone,              // pass-through; wrapping overhead only
  kSplitList,         // one list is delivered in two separated segments
  kDropPair,          // one stream element vanishes
  kDuplicatePair,     // one stream element is delivered twice
  kDropReverseEdge,   // edge {u,v}: the copy in the later list vanishes
  kTruncatePass,      // the target pass stops mid-stream
  kReplayDivergence,  // the target pass permutes adjacent elements
};

/// Stable, log-friendly name of a fault kind ("split-list", ...).
const char* FaultKindName(FaultKind kind);

/// Whether `kind` is meaningful under `model`. Contiguity faults
/// (split-list) and pair-copy faults (drop-reverse-edge) presuppose the
/// adjacency-list model's structure; drop/duplicate/truncate/divergence
/// corrupt any element sequence. Pass-number constraints (replay divergence
/// needs a pass whose order is already pinned) are checked by
/// `FaultSpec::ValidateFor`, not here.
bool FaultAppliesTo(FaultKind kind, StreamModel model);

/// Which fault to inject and where. Targets are derived deterministically
/// from `seed` in the decorator's constructor, so a spec plus a stream seed
/// reproduces the same corrupted stream bit for bit.
struct FaultSpec {
  /// `truncate_at` sentinel: derive the cut position from `seed`.
  static constexpr std::size_t kDeriveFromSeed =
      static_cast<std::size_t>(-1);

  FaultKind kind = FaultKind::kNone;
  /// Pass to corrupt (0-based). `kReplayDivergence` requires a pass whose
  /// order is already pinned: pass >= 1 everywhere (pass 0 *defines* the
  /// replay order), except that declared-order models (random-order,
  /// ε-perturbed) also admit pass 0 — their permutation is pinned by the
  /// seed, so even the first pass can detectably diverge.
  int pass = 0;
  std::uint64_t seed = 0;
  /// For `kTruncatePass` only: exact element count after which the stream
  /// stops (must be < stream_length()). The default derives a random cut
  /// from `seed`. Setting it to a value that falls exactly on an
  /// adjacency-list boundary produces a *clean-boundary* truncation — every
  /// delivered list closes normally and the remaining lists simply never
  /// arrive — which the validator must still flag (a truncated pass is a
  /// truncated pass whether or not a list was mid-flight).
  std::size_t truncate_at = kDeriveFromSeed;

  /// OK iff this spec can be injected into a stream of `model`: the fault
  /// class must apply to the model (`FaultAppliesTo`) and the pass
  /// constraints above must hold. Violations come back as typed
  /// kInvalidArgument Statuses naming the fault and the model.
  Status ValidateFor(StreamModel model) const;
};

namespace internal {
// One whole list (or u-run) in the stream grammar.
template <typename Sink>
void EmitList(Sink& sink, VertexId u, std::span<const VertexId> list) {
  sink.BeginList(u);
  sink.OnList(u, list);
  sink.EndList(u);
}
}  // namespace internal

/// An `AdjacencyListStream` with one injected model violation.
class FaultInjectingStream {
 public:
  /// Wraps `base` (which must outlive the decorator). CHECK-fails if the
  /// graph cannot host the fault (e.g. splitting a list needs a vertex of
  /// degree >= 2, dropping a pair needs an edge) or if the spec fails
  /// `ValidateFor` — use `Make` to get a typed Status instead.
  FaultInjectingStream(const AdjacencyListStream* base, FaultSpec spec);

  /// Validating factory: kInvalidArgument when the spec does not apply to
  /// the adjacency-list model (e.g. replay divergence at pass 0), instead
  /// of the constructor's CHECK.
  static StatusOr<FaultInjectingStream> Make(const AdjacencyListStream* base,
                                             FaultSpec spec);

  const Graph& graph() const { return base_->graph(); }
  const FaultSpec& spec() const { return spec_; }

  /// The wrapped stream's model: injecting faults does not change which
  /// contract applies (the faults are exactly what the contract catches).
  const ModelDescriptor& descriptor() const { return base_->descriptor(); }

  /// Length of an *uncorrupted* pass (2m); a faulty pass may deliver fewer
  /// or more pairs.
  std::size_t stream_length() const { return base_->stream_length(); }

  /// Stream position (pair index) at which the fault first manifests in the
  /// corrupted pass. For `kSplitList` this is the first pair of the second
  /// segment; for `kReplayDivergence` the first permuted pair.
  std::size_t fault_position() const { return fault_position_; }

  /// Pass counter advanced by ReplayPass; `ResetPasses()` rewinds so the
  /// stream can be replayed from pass 0 again.
  int next_pass() const { return next_pass_; }
  void ResetPasses() const { next_pass_ = 0; }

  /// Replays the next pass, injecting the configured fault if this is the
  /// target pass. Mirrors `AdjacencyListStream::ReplayPass`: each list
  /// still arrives as one span, possibly corrupted. A split list is two
  /// slices of the base list, the second one reopening it after the next
  /// list; a dropped, duplicated or swapped element comes from one
  /// corrupted copy of the target list; a truncated pass ends with a prefix
  /// of the cut list and no EndList.
  template <typename Sink>
  void ReplayPass(Sink&& sink) const {
    const FaultKind fault =
        next_pass_++ == spec_.pass ? spec_.kind : FaultKind::kNone;
    std::size_t emitted = 0;         // elements delivered this pass
    std::span<const VertexId> owed;  // second slice of a split list
    for (VertexId u : base_->list_order()) {
      std::span<const VertexId> list = base_->ListOf(u);
      if (fault == FaultKind::kTruncatePass) {
        if (emitted == truncate_after_) return;  // clean-boundary cut
        if (truncate_after_ - emitted < list.size()) {
          sink.BeginList(u);
          sink.OnList(u, list.first(truncate_after_ - emitted));
          return;  // mid-list: no EndList, no further lists
        }
      } else if (fault == FaultKind::kSplitList && u == target_list_) {
        owed = list.subspan(list.size() / 2);
        internal::EmitList(sink, u, list.first(list.size() / 2));
        continue;
      } else if (fault != FaultKind::kNone && u == target_list_) {
        list = corrupted_list_;
      }
      internal::EmitList(sink, u, list);
      emitted += list.size();
      if (!owed.empty()) {
        internal::EmitList(sink, target_list_, owed);
        owed = {};
      }
    }
    // Target list was last in order: the second slice still reopens it.
    if (!owed.empty()) internal::EmitList(sink, target_list_, owed);
  }

 private:
  const AdjacencyListStream* base_;
  FaultSpec spec_;
  mutable int next_pass_ = 0;

  VertexId target_list_ = 0;      // list hosting the fault
  std::size_t target_index_ = 0;  // index within that list
  std::size_t truncate_after_ = 0;
  std::size_t fault_position_ = 0;
  // The target list with a drop, duplicate or swap applied.
  std::vector<VertexId> corrupted_list_;
};

/// An edge-order stream (any `EdgeStreamBase` subclass) with one injected
/// model violation. Supports exactly the faults that apply to edge models —
/// drop, duplicate, truncate, divergence — and rejects the rest through
/// `Make` with the same typed Status `FaultSpec::ValidateFor` produces.
///
/// Replay detail: every element is delivered as its own singleton u-run
/// (BeginList, a one-element OnList, EndList). Runs are packaging, not
/// promises, so this is contract-neutral; it sidesteps re-deriving run
/// boundaries around injected/removed elements. On a declared-order
/// stream, a pass-0 divergence or drop surfaces as kPermutationDivergence
/// at the fault position; on an arbitrary stream, drops surface at end of
/// pass as kMissingPair and only duplicates carry an in-stream position.
template <typename BaseT>
class EdgeFaultInjectingStream {
  static_assert(std::is_base_of_v<EdgeStreamBase, BaseT>);

 public:
  /// Validating factory; `base` must outlive the decorator.
  static StatusOr<EdgeFaultInjectingStream> Make(const BaseT* base,
                                                 FaultSpec spec) {
    CYCLESTREAM_CHECK(base != nullptr);
    Status valid = spec.ValidateFor(base->descriptor().model);
    if (!valid.ok()) return valid;
    return EdgeFaultInjectingStream(base, spec);
  }

  const Graph& graph() const { return base_->graph(); }
  const FaultSpec& spec() const { return spec_; }
  const ModelDescriptor& descriptor() const { return base_->descriptor(); }

  /// Forwards the base stream's contract (including its declared
  /// permutation, when the model pins one) — the injected fault is exactly
  /// what that contract is supposed to catch.
  EdgeStreamContract MakeContract() const { return base_->MakeContract(); }

  /// Length of an *uncorrupted* pass (m); a faulty pass may deliver fewer
  /// or more elements.
  std::size_t stream_length() const { return base_->stream_length(); }

  /// Stream position (element index) at which the fault first manifests in
  /// the corrupted pass.
  std::size_t fault_position() const { return fault_position_; }

  int next_pass() const { return next_pass_; }
  void ResetPasses() const { next_pass_ = 0; }

  template <typename Sink>
  void ReplayPass(Sink&& sink) const {
    const FaultKind fault =
        next_pass_++ == spec_.pass ? spec_.kind : FaultKind::kNone;
    const std::vector<Edge>& order = base_->order();
    auto emit = [&sink](const Edge& e) {
      internal::EmitList(sink, e.u, std::span<const VertexId>(&e.v, 1));
    };
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (fault == FaultKind::kTruncatePass && i == truncate_after_) return;
      if (i == target_pos_) {
        switch (fault) {
          case FaultKind::kDropPair:
            continue;  // this element vanishes
          case FaultKind::kDuplicatePair:
            emit(order[i]);
            break;
          case FaultKind::kReplayDivergence:
            // Swap elements target_pos_ and target_pos_ + 1.
            emit(order[i + 1]);
            emit(order[i]);
            ++i;
            continue;
          default:
            break;
        }
      }
      emit(order[i]);
    }
  }

 private:
  EdgeFaultInjectingStream(const BaseT* base, FaultSpec spec)
      : base_(base), spec_(spec) {
    Rng rng(spec_.seed);
    const std::size_t m = base_->stream_length();
    switch (spec_.kind) {
      case FaultKind::kNone:
        break;
      case FaultKind::kDropPair:
        CYCLESTREAM_CHECK_GE(m, 1u);
        target_pos_ = rng.NextBounded(m);
        fault_position_ = target_pos_;
        break;
      case FaultKind::kDuplicatePair:
        CYCLESTREAM_CHECK_GE(m, 1u);
        target_pos_ = rng.NextBounded(m);
        // The second (duplicate) delivery is the offending element.
        fault_position_ = target_pos_ + 1;
        break;
      case FaultKind::kReplayDivergence:
        CYCLESTREAM_CHECK_GE(m, 2u);
        target_pos_ = rng.NextBounded(m - 1);
        fault_position_ = target_pos_;
        break;
      case FaultKind::kTruncatePass:
        CYCLESTREAM_CHECK_GE(m, 1u);
        if (spec_.truncate_at == FaultSpec::kDeriveFromSeed) {
          truncate_after_ = rng.NextBounded(m);
        } else {
          CYCLESTREAM_CHECK_LT(spec_.truncate_at, m);
          truncate_after_ = spec_.truncate_at;
        }
        fault_position_ = truncate_after_;
        break;
      default:
        CYCLESTREAM_CHECK(false);  // Make() rejected it already
    }
  }

  const BaseT* base_;
  FaultSpec spec_;
  mutable int next_pass_ = 0;

  std::size_t target_pos_ = 0;  // element index hosting the fault
  std::size_t truncate_after_ = 0;
  std::size_t fault_position_ = 0;
};

}  // namespace stream
}  // namespace cyclestream

#endif  // CYCLESTREAM_STREAM_FAULT_INJECTION_H_
