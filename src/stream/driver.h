// Multi-pass driver: runs a StreamAlgorithm over a stream of any model
// (adjacency-list, arbitrary, random-order, ε-perturbed) through a
// `StreamSession` (stream/session.h), which owns the pass cursor, the
// RunReport and the space sampler.
//
// Model awareness: every stream declares a `ModelDescriptor`
// (stream/model.h; plain adjacency-list when it declares nothing) and every
// algorithm declares which models it accepts (`AcceptsModel`). The driver
// enforces the match — `RunPasses` CHECK-aborts on a mismatch, the checked
// runners return a typed kFailedPrecondition — so an adjacency-list
// estimator can never silently consume an edge stream whose promises its
// analysis does not hold under. The checked runners validate with the
// *model's own* contract via `MakeContractForStream`: adjacency streams get
// `AdjacencyListContract` (contiguity + replay), edge streams get
// `EdgeStreamContract` (exactly-once + declared-permutation checks).
//
// One pass loop, one sink. All four entry points replay the stream into
// `internal::SessionSink`, which feeds the session and takes two optional
// parts:
//   - a model contract (`RunPassesChecked` and friends): the contract sees
//     every event first and the algorithm receives only the contract's
//     ok-prefix, so it stops receiving elements at the first violation and
//     the run returns an error `Status` (with the violation's stream
//     position) instead of a wrong answer. Without one (`RunPasses`) the
//     stream is trusted, and a malformed stream produces an arbitrary
//     estimate or a CHECK abort inside the algorithm.
//   - a checkpoint callback (`RunPassesCheckedWithCheckpoints`): after
//     every adjacency list the contract accepted, the complete run —
//     pass/list cursor, RunReport, contract and algorithm state — goes to
//     the callback as one snapshot envelope. `ResumePassesChecked` rebuilds
//     the run from those bytes alone on fresh objects, skips the lists the
//     checkpoint covers, and finishes bit-identically to an uninterrupted
//     run (tests/chaos_recovery_test.cc crashes at every boundary and
//     asserts exactly that). Corrupt or hostile snapshots come back as a
//     typed error Status — a damaged checkpoint can never turn into a
//     silently wrong estimate, an abort, or an unbounded allocation.
//
// Every stream hands the sink each list as one span (`OnList`, once per
// list), and the sink hands the session that span, or the contract's
// ok-prefix of it in a checked run, as the list's one `OnListBatch`.
// The entry points are templates over the stream type — any type with
// `graph()` / `ReplayPass` speaking the BeginList / OnList / EndList
// grammar drives identically; edge streams package their elements as
// u-runs (stream/arbitrary_stream.h) — and over the algorithm type: a
// concrete (ideally `final`) algorithm pointer binds the per-list calls
// statically, a `StreamAlgorithm*` keeps them virtual, with bit-identical
// reports and estimates either way.
//
// Observability: every entry point takes an optional `obs::Observer`
// (obs/observer.h) and then an optional per-run `obs::SpaceTracer`, and
// hands both to its session (stream/session.h). The observer's
// `MetricsRegistry` additionally receives driver counters — and, for
// checked runs, the contract's counters — when the run ends. The driver
// writes no flight events.

#ifndef CYCLESTREAM_STREAM_DRIVER_H_
#define CYCLESTREAM_STREAM_DRIVER_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/prof.h"
#include "obs/space_tracer.h"
#include "obs/trace.h"
#include "snapshot/snapshot.h"
#include "stream/adjacency_stream.h"
#include "stream/algorithm.h"
#include "stream/model.h"
#include "stream/session.h"
#include "stream/validator.h"
#include "util/check.h"
#include "util/status.h"

namespace cyclestream {
namespace stream {

/// Caller verdict after receiving one checkpoint snapshot.
enum class CheckpointAction {
  kContinue,  // keep streaming
  kStop,      // simulate a crash: deliver nothing further this run
};

/// Result of a checkpointed run. When `stopped` is true the run was cut
/// short by the callback (a simulated crash) and `report` covers only the
/// delivered prefix; resume from the last snapshot to finish it. `status`
/// carries the validator verdict exactly as `RunPassesChecked` would
/// return it (OK unless the stream broke the model contract).
struct CheckpointedRun {
  Status status;
  bool stopped = false;
  RunReport report;
};

namespace internal {

using NoCheckpoint = CheckpointAction (*)(int, std::size_t,
                                          std::vector<std::uint8_t>);

inline void ExportDriverMetrics(const RunReport& report,
                                obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  metrics->GetCounter("driver.runs").Increment();
  metrics->GetCounter("driver.passes")
      .Increment(report.per_pass.size());
  metrics->GetCounter("driver.passes_requested")
      .Increment(static_cast<std::uint64_t>(report.passes_requested));
  metrics->GetCounter("driver.pairs_processed")
      .Increment(report.pairs_processed);
  if (report.prof.IsZero()) return;
  for (const auto& [name, field] : obs::kProfFields) {
    metrics->GetCounter(std::string("driver.prof.") + name)
        .Increment(report.prof.*field);
  }
}

// Contract type of a trusted run: the sink then compiles without any
// contract, skip or checkpoint logic.
struct NoContract;

// The driver's one ReplayPass sink: forwards events to a session, behind an
// optional contract (ContractT is the concrete contract type so its calls
// bind statically; NoContract for a trusted run) and an optional per-list
// checkpoint callback (nullable; checked runs only). After a kStop verdict
// the sink goes inert — the crash point: nothing past the checkpointed
// boundary reaches the contract or the algorithm.
template <typename AlgoT, typename ContractT,
          typename CheckpointFn = NoCheckpoint>
class SessionSink {
  static constexpr bool kChecked = !std::is_same_v<ContractT, NoContract>;

 public:
  SessionSink(StreamSession<AlgoT>* session, ContractT* contract,
              CheckpointFn* on_checkpoint)
      : session_(session), contract_(contract), on_checkpoint_(on_checkpoint) {
    CYCLESTREAM_CHECK(kChecked ? contract != nullptr
                               : on_checkpoint == nullptr);
  }

  // The one pass loop. The current pass has been begun (or resumed);
  // replays until the session finishes, the contract flags a violation
  // (the violating pass still ends), or a checkpoint callback stops the
  // run (mid-pass: pass-end bookkeeping belongs to the resumed run).
  // Exports metrics unless stopped — driver counters only for runs the
  // contract accepted — and returns the contract's verdict.
  template <typename StreamT>
  CheckpointedRun ReplayToEnd(const StreamT& stream,
                              obs::MetricsRegistry* metrics) {
    bool ok = true;
    for (;;) {
      stream.ReplayPass(*this);
      if (stopped_) break;
      EndPass();
      if constexpr (kChecked) ok = contract_->ok();
      if (!ok || session_->finished()) break;
      BeginPass();
    }
    CheckpointedRun run;
    run.stopped = stopped_;
    run.report = session_->TakeReport();
    if (stopped_) return run;
    if (ok) ExportDriverMetrics(run.report, metrics);
    if constexpr (kChecked) {
      if (metrics != nullptr) contract_->ExportMetrics(metrics);
      run.status = contract_->ToStatus();
    }
    return run;
  }

  void BeginPass() {
    if constexpr (kChecked) contract_->BeginPass(session_->pass());
    session_->BeginPass();
    lists_done_ = 0;
  }

  // Drops the next `lists` complete lists the stream replays: the ones a
  // resumed run's checkpoint already covers.
  void SkipLists(std::size_t lists) { skip_ = lists; }

  void EndPass() {
    if constexpr (kChecked) contract_->EndPass(session_->pass());
    session_->EndPass();
  }

  void BeginList(VertexId u) {
    if constexpr (kChecked) {
      if (skip_ != 0 || stopped_) return;
      contract_->BeginList(u);
      if (!contract_->ok()) return;
    }
    session_->BeginList(u);
  }

  void OnList(VertexId u, std::span<const VertexId> list) {
    if constexpr (kChecked) {
      if (skip_ != 0 || stopped_) return;
      if (!contract_->ok()) {
        contract_->OnList(u, list);  // keeps tallying violations
        return;
      }
      obs::TraceSession::Span span;
      if (obs::TraceSession* spans = session_->window_spans()) {
        span = obs::TraceSession::Begin(spans, "validate", "validate");
        span.SetArg("vertex", obs::Json(u));
        span.SetArg("pairs", obs::Json(list.size()));
      }
      // The contract consumes the whole span; the algorithm gets the
      // leading elements consumed while it still held.
      list = list.first(contract_->OnList(u, list));
    }
    session_->OnListBatch(u, list);
  }

  void EndList(VertexId u) {
    if constexpr (kChecked) {
      if (skip_ != 0) {
        --skip_;
        return;
      }
      if (stopped_) return;
      contract_->EndList(u);
      if (!contract_->ok()) return;
    }
    session_->EndList(u);
    if constexpr (kChecked) {
      if (on_checkpoint_ != nullptr) Checkpoint();
    }
  }

 private:
  void Checkpoint() {
    ++lists_done_;
    const int pass = session_->pass();
    snapshot::SnapshotWriter w;
    w.WriteU64(static_cast<std::uint64_t>(pass));
    w.WriteU64(lists_done_);
    session_->Serialize(w);
    contract_->Serialize(w);
    session_->algorithm()->Serialize(w);
    stopped_ = (*on_checkpoint_)(pass, lists_done_, std::move(w).Finish()) ==
               CheckpointAction::kStop;
  }

  StreamSession<AlgoT>* session_;
  ContractT* contract_;
  CheckpointFn* on_checkpoint_;
  std::size_t lists_done_ = 0;  // lists checkpointed this pass
  std::size_t skip_ = 0;        // lists the next replay drops
  bool stopped_ = false;
};

// Model-compatibility gate: OK iff the algorithm declares it accepts the
// stream's declared model.
template <typename StreamT, typename AlgoT>
Status CheckModelAccepted(const StreamT& stream, const AlgoT* algorithm) {
  CYCLESTREAM_CHECK(algorithm != nullptr);
  const ModelDescriptor descriptor = DescriptorOf(stream);
  if (algorithm->AcceptsModel(descriptor.model)) return Status::Ok();
  return Status::FailedPrecondition(
      std::string("algorithm does not accept the ") +
      StreamModelName(descriptor.model) + " stream model");
}

// A run from pass 0 on fresh objects, behind the model gate.
template <typename StreamT, typename AlgoT, typename ContractT,
          typename CheckpointFn = NoCheckpoint>
CheckpointedRun RunFromStart(const StreamT& stream, AlgoT* algorithm,
                             ContractT* contract, const obs::Observer& observe,
                             obs::SpaceTracer* space,
                             CheckpointFn* on_checkpoint = nullptr) {
  if (Status model_check = CheckModelAccepted(stream, algorithm);
      !model_check.ok()) {
    CheckpointedRun rejected;
    rejected.status = std::move(model_check);
    return rejected;
  }
  // FaultInjectingStream keeps a pass cursor; a run starts from pass 0.
  if constexpr (requires { stream.ResetPasses(); }) stream.ResetPasses();
  StreamSession<AlgoT> session(algorithm, observe, space);
  SessionSink<AlgoT, ContractT, CheckpointFn> sink(&session, contract,
                                                   on_checkpoint);
  sink.BeginPass();
  return sink.ReplayToEnd(stream, observe.metrics);
}

}  // namespace internal

/// Runs all of `algorithm`'s passes over `stream` (replaying the identical
/// order each pass) and returns the space/throughput report. The algorithm's
/// estimate is read from the concrete algorithm object afterwards. The
/// stream is trusted; use `RunPassesChecked` for untrusted streams.
///
/// `AlgoT` is deduced: pass a concrete algorithm pointer for the
/// devirtualized fast path, or a `StreamAlgorithm*` for the type-erased
/// virtual path — results are bit-identical either way.
template <typename StreamT, typename AlgoT>
RunReport RunPasses(const StreamT& stream, AlgoT* algorithm,
                    const obs::Observer& observe = {},
                    obs::SpaceTracer* space = nullptr) {
  CheckpointedRun run = internal::RunFromStart(
      stream, algorithm, static_cast<internal::NoContract*>(nullptr), observe,
      space);
  CYCLESTREAM_CHECK(run.status.ok());
  return std::move(run.report);
}

/// Strict-mode driver: validates the stream online while running the
/// algorithm. On the first model-contract violation the algorithm stops
/// receiving events, the remaining passes are skipped, and the violation is
/// returned as an error Status (position included). The algorithm's
/// estimate is only meaningful when the returned status is OK.
template <typename StreamT, typename AlgoT>
StatusOr<RunReport> RunPassesChecked(const StreamT& stream,
                                     AlgoT* algorithm,
                                     const obs::Observer& observe = {},
                                     obs::SpaceTracer* space = nullptr) {
  auto contract = MakeContractForStream(stream);
  CheckpointedRun run =
      internal::RunFromStart(stream, algorithm, &contract, observe, space);
  if (!run.status.ok()) return run.status;
  return std::move(run.report);
}

/// `RunPassesChecked` with crash-recovery checkpoints: after every completed
/// adjacency list (while the validator is still happy) the full run state —
/// pass/list position, RunReport so far, validator, algorithm — is
/// serialized into one snapshot envelope and passed to `on_checkpoint` as
/// `(pass, lists_done, bytes)`. The callback decides the run's fate:
/// kContinue keeps streaming, kStop simulates a crash at exactly that
/// boundary (nothing further is delivered; `stopped` is set in the result).
/// Feed the last snapshot to `ResumePassesChecked` on fresh objects to
/// finish the run bit-identically.
///
/// Checkpointing never perturbs the run itself: with a kContinue-always
/// callback, the estimate and RunReport equal a plain `RunPassesChecked`.
template <typename StreamT, typename AlgoT, typename CheckpointFn>
CheckpointedRun RunPassesCheckedWithCheckpoints(
    const StreamT& stream, AlgoT* algorithm, CheckpointFn&& on_checkpoint,
    const obs::Observer& observe = {}, obs::SpaceTracer* space = nullptr) {
  auto contract = MakeContractForStream(stream);
  return internal::RunFromStart(stream, algorithm, &contract, observe, space,
                                &on_checkpoint);
}

/// Resumes a checkpointed run from `snapshot` bytes alone. `algorithm` must
/// be a FRESH instance constructed with the same options as the
/// checkpointed one, and `stream` must replay the same stream; everything
/// else — pass/list cursor, RunReport, validator bookkeeping, algorithm
/// state — is restored from the snapshot. The remaining lists are then
/// streamed under the same online validation as `RunPassesChecked`, and the
/// returned RunReport (and the algorithm's estimate) is bit-identical to an
/// uninterrupted checked run.
///
/// Every corruption class maps to a typed error before any state is
/// trusted: truncated/bit-flipped envelopes → kDataLoss, wrong magic →
/// kInvalidArgument, wrong version or an options/graph/pass-shape mismatch
/// → kFailedPrecondition. On error the algorithm may be partially restored
/// and must be discarded — but no estimate is ever produced from bad bytes.
template <typename StreamT, typename AlgoT>
StatusOr<RunReport> ResumePassesChecked(
    const StreamT& stream, AlgoT* algorithm,
    std::span<const std::uint8_t> snapshot_bytes,
    const obs::Observer& observe = {}, obs::SpaceTracer* space = nullptr) {
  if (Status model_check = internal::CheckModelAccepted(stream, algorithm);
      !model_check.ok()) {
    return model_check;
  }
  StatusOr<snapshot::SnapshotReader> reader =
      snapshot::SnapshotReader::Open(snapshot_bytes);
  if (!reader.ok()) return reader.status();
  const std::uint64_t resume_pass = reader->ReadU64();
  const std::uint64_t lists_done = reader->ReadU64();
  StreamSession<AlgoT> session(algorithm, observe, space);
  auto contract = MakeContractForStream(stream);
  Status restored = session.Restore(*reader, resume_pass, /*finished=*/false);
  if (restored.ok()) restored = contract.Restore(*reader);
  if (restored.ok()) restored = algorithm->Restore(*reader);
  if (restored.ok()) restored = reader->Final();
  if (!restored.ok()) return restored;

  internal::SessionSink<AlgoT, decltype(contract)> sink(&session, &contract,
                                                        nullptr);
  if constexpr (requires { stream.ResetPasses(); }) {
    // Stateful stream: rewind, then burn the completed passes so its
    // per-pass cursor (e.g. a fault schedule keyed on the pass number)
    // lines up.
    stream.ResetPasses();
    for (int pass = 0; pass < session.pass(); ++pass) {
      sink.SkipLists(std::numeric_limits<std::size_t>::max());
      stream.ReplayPass(sink);
    }
  }
  // The checkpoint's pass is already under way.
  session.ResumePass();
  sink.SkipLists(static_cast<std::size_t>(lists_done));
  CheckpointedRun run = sink.ReplayToEnd(stream, observe.metrics);
  if (!run.status.ok()) return run.status;
  return std::move(run.report);
}

}  // namespace stream
}  // namespace cyclestream

#endif  // CYCLESTREAM_STREAM_DRIVER_H_
