// StreamSession: the model's one rule, executed in one place.
//
// An algorithm sees passes() replays of whole adjacency lists, and its
// space is measured at every list boundary and once more after each
// EndPass. `StreamSession<AlgoT>` owns everything that rule implies — the
// pass cursor, the `finished` flag, the RunReport, the space sampler and
// the report's checkpoint codec — and is the only caller of an
// algorithm's BeginPass / BeginList / OnListBatch / EndList / EndPass.
// The stream driver (stream/driver.h), the estimator service
// (service/service.h) and the lower-bound protocol simulation
// (lowerbound/protocol.h) all run algorithms through a session, so a
// service stream, a driver run and a protocol run of the same event
// sequence produce the same report by construction.
//
// Elements arrive through one entry point, `OnListBatch`, called exactly
// once per list: the whole list, or in a checked run the contract's
// ok-prefix of it (stream/driver.h). Every stream emits one span per list,
// so the algorithm sees the stream's own list boundaries.
//
// Space audit: every sample reads the algorithm's self-reported
// `CurrentSpaceBytes()` and, when `memory_domain()` is non-null, the
// allocator-measured live bytes of its containers. The report carries both
// peaks plus the largest divergence seen at any sample, so self-reporting
// bugs show up as a number (tests/space_audit_test.cc pins the slack).
//
// Observability never touches the algorithm's inputs. The session reads
// three sinks of its `obs::Observer` (obs/observer.h): a `TraceSession`
// gets pass spans and one "list" span per `kListSpanStride` lists; a
// `Logger` one debug record per completed pass; a `Profiler` per-pass
// hardware-counter deltas. The optional per-run `SpaceTracer` receives
// exactly the samples the peaks are computed from, so its timeline max
// equals `reported_peak_bytes`.

#ifndef CYCLESTREAM_STREAM_SESSION_H_
#define CYCLESTREAM_STREAM_SESSION_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/logger.h"
#include "obs/observer.h"
#include "obs/prof.h"
#include "obs/space_tracer.h"
#include "obs/trace.h"
#include "snapshot/snapshot.h"
#include "stream/algorithm.h"
#include "util/check.h"
#include "util/status.h"

namespace cyclestream {
namespace stream {

/// Space/throughput of one pass (RunReport::per_pass).
struct PassReport {
  /// Peak of CurrentSpaceBytes() within this pass.
  std::size_t reported_peak_bytes = 0;
  /// Peak of allocator-measured live bytes within this pass (0 when the
  /// algorithm exposes no memory domain).
  std::size_t audited_peak_bytes = 0;
  /// Pairs delivered in this pass.
  std::size_t pairs_processed = 0;
  /// Hardware counters spent in this pass (all zero unless the observer
  /// has a profiler). Observability, not algorithm state:
  /// excluded from snapshot serialization, so a resumed run's counters
  /// cover only post-resume work and checkpoint bytes stay identical
  /// with profiling on or off.
  obs::ProfCounters prof;
};

/// Result of driving an algorithm over a stream.
struct RunReport {
  /// Peak of CurrentSpaceBytes() sampled at every list boundary and at pass
  /// boundaries, across all passes.
  std::size_t reported_peak_bytes = 0;
  /// Peak of allocator-measured live bytes at the same sample points
  /// (0 when the algorithm exposes no memory domain).
  std::size_t audited_peak_bytes = 0;
  /// Largest |audited - reported| over all samples (0 when unaudited).
  std::size_t max_divergence_bytes = 0;
  /// Total pairs delivered across all passes.
  std::size_t pairs_processed = 0;
  /// The algorithm's passes() at launch — the pass count the driver set out
  /// to run, NOT the number completed. A checked run that aborts on a
  /// violation completes fewer; `per_pass.size()` is always the count of
  /// passes actually started/completed.
  int passes_requested = 0;
  /// Per-pass breakdown; size() == passes completed (may be <
  /// passes_requested if a checked run aborted on a violation).
  std::vector<PassReport> per_pass;
  /// Sum of per_pass prof counters (see PassReport::prof).
  obs::ProfCounters prof;
};

/// Adjacency lists per "list" span. The window also closes at every pass
/// end, so a pass shorter than the stride still gets its span.
inline constexpr std::size_t kListSpanStride = 1024;

/// One algorithm's run over one stream: pass/list state machine, space
/// sampler and report codec. Templating over the concrete algorithm type
/// devirtualizes the per-list calls; AlgoT = StreamAlgorithm is the
/// type-erased form — both produce bit-identical reports.
///
/// Lifecycle per pass: BeginPass(); for each list BeginList(u),
/// OnListBatch(u, list) once, EndList(u); EndPass(). The cursor `pass()`
/// advances at EndPass; `finished()` turns true after the last pass ends.
template <typename AlgoT = StreamAlgorithm>
class StreamSession {
  static_assert(std::is_base_of_v<StreamAlgorithm, AlgoT>);

 public:
  /// `observe`'s trace, logger and prof sinks instrument the run; `space`
  /// (single-writer, this run only) receives every space sample.
  explicit StreamSession(AlgoT* algorithm, const obs::Observer& observe = {},
                         obs::SpaceTracer* space = nullptr)
      : algorithm_(algorithm),
        domain_(algorithm->memory_domain()),
        observe_(observe),
        space_(space) {
    if (observe.trace != nullptr || observe.prof != nullptr) {
      scopes_ = std::make_unique<Scopes>();
    }
    report_.passes_requested = algorithm->passes();
    CYCLESTREAM_CHECK_GE(report_.passes_requested, 1);
  }

  AlgoT* algorithm() const { return algorithm_; }
  const RunReport& report() const { return report_; }
  /// Moves the report out of a session whose run is over.
  RunReport TakeReport() { return std::move(report_); }
  /// The in-progress pass; == passes_requested once finished.
  int pass() const { return pass_; }
  bool finished() const { return finished_; }
  /// The span session when the next list opens a list-span window, else
  /// null: a checked run times one contract call per window.
  obs::TraceSession* window_spans() const {
    return lists_in_window_ == 0 ? observe_.trace : nullptr;
  }

  /// Hands the session to another instance of the same algorithm that
  /// restored the current one's state — the next player of a protocol.
  void Rebind(AlgoT* algorithm) {
    algorithm_ = algorithm;
    domain_ = algorithm->memory_domain();
  }

  void BeginPass() {
    CYCLESTREAM_CHECK(!finished_);
    report_.per_pass.emplace_back();
    OpenPass();
    algorithm_->BeginPass(pass_);
  }

  /// Re-enters the in-progress pass of a restored session: the restored
  /// report already holds its PassReport and the algorithm already began
  /// it, so only the tracing side of BeginPass runs.
  void ResumePass() {
    CYCLESTREAM_CHECK(!finished_ && !report_.per_pass.empty());
    OpenPass();
  }

  void BeginList(VertexId u) {
    if (observe_.trace != nullptr && lists_in_window_ == 0) {
      window_start_vertex_ = u;
      scopes_->list_span =
          obs::TraceSession::Begin(observe_.trace, "lists", "list");
    }
    algorithm_->BeginList(u);
  }

  /// u's list in stream order, or a checked run's ok-prefix of it.
  void OnListBatch(VertexId u, std::span<const VertexId> list) {
    algorithm_->OnListBatch(u, list);
    report_.pairs_processed += list.size();
    report_.per_pass.back().pairs_processed += list.size();
  }

  void EndList(VertexId u) {
    algorithm_->EndList(u);
    SampleSpace();
    if (observe_.trace != nullptr && ++lists_in_window_ >= kListSpanStride) {
      CloseListSpan(u);
    }
  }

  /// BeginList + one whole-list batch + EndList.
  void ConsumeList(VertexId u, std::span<const VertexId> list) {
    BeginList(u);
    OnListBatch(u, list);
    EndList(u);
  }

  /// Ends the current pass. `sample_space` = false skips the pass-end
  /// sample (the protocol simulation measures pass-end state as a
  /// message instead).
  void EndPass(bool sample_space = true) {
    algorithm_->EndPass(pass_);
    if (sample_space) SampleSpace();
    PassReport& pass = report_.per_pass.back();
    if (observe_.trace != nullptr) {
      if (lists_in_window_ != 0) CloseListSpan(window_start_vertex_);
      obs::TraceSession::Span& span = scopes_->pass_span;
      span.SetArg("pairs_processed", obs::Json(pass.pairs_processed));
      span.End();
    }
    if (observe_.prof != nullptr) {
      const obs::ProfCounters delta = scopes_->pass_prof.End();
      pass.prof.Add(delta);
      report_.prof.Add(delta);
    }
    LogPass(pass);
    finished_ = ++pass_ == report_.passes_requested;
  }

  /// Report codec for checkpoints. Prof counters are deliberately not
  /// written: they are observability, not stream-position state, and
  /// hardware counts are nondeterministic — writing them would make
  /// checkpoint bytes differ between profiled and unprofiled runs.
  void Serialize(snapshot::SnapshotWriter& w) const {
    w.WriteU64(report_.reported_peak_bytes);
    w.WriteU64(report_.audited_peak_bytes);
    w.WriteU64(report_.max_divergence_bytes);
    w.WriteU64(report_.pairs_processed);
    w.WriteU64(static_cast<std::uint64_t>(report_.passes_requested));
    w.WriteU64(report_.per_pass.size());
    for (const PassReport& pass : report_.per_pass) {
      w.WriteU64(pass.reported_peak_bytes);
      w.WriteU64(pass.audited_peak_bytes);
      w.WriteU64(pass.pairs_processed);
    }
  }

  /// Decodes a report written by Serialize into this fresh session and
  /// places the cursor at `pass` (`finished`: every pass has ended). The
  /// pass bookkeeping is checked against the algorithm before anything is
  /// sized from the bytes: the pass count must equal passes(), and the
  /// report must hold one PassReport per pass begun — `pass` + 1 while a
  /// pass is open, all of them once finished. kFailedPrecondition
  /// otherwise; the reader's kDataLoss when the bytes run short. On error
  /// the session must be discarded.
  Status Restore(snapshot::SnapshotReader& r, std::uint64_t pass,
                 bool finished) {
    report_.reported_peak_bytes = static_cast<std::size_t>(r.ReadU64());
    report_.audited_peak_bytes = static_cast<std::size_t>(r.ReadU64());
    report_.max_divergence_bytes = static_cast<std::size_t>(r.ReadU64());
    report_.pairs_processed = static_cast<std::size_t>(r.ReadU64());
    const std::uint64_t passes_requested = r.ReadU64();
    const std::uint64_t passes_begun = r.ReadU64();
    if (!r.status().ok()) return r.status();
    const auto passes = static_cast<std::uint64_t>(report_.passes_requested);
    if (passes_requested != passes ||
        (finished ? pass != passes || passes_begun != passes
                  : pass >= passes || passes_begun != pass + 1)) {
      return Status::FailedPrecondition(
          "checkpoint pass bookkeeping does not match the algorithm");
    }
    report_.per_pass.assign(static_cast<std::size_t>(passes_begun), {});
    for (PassReport& p : report_.per_pass) {
      p.reported_peak_bytes = static_cast<std::size_t>(r.ReadU64());
      p.audited_peak_bytes = static_cast<std::size_t>(r.ReadU64());
      p.pairs_processed = static_cast<std::size_t>(r.ReadU64());
    }
    pass_ = static_cast<int>(pass);
    finished_ = finished;
    return r.status();
  }

 private:
  // Span and profiler scopes of the open pass. Allocated only when the
  // session records them, so an unobserved session — every service
  // stream — stays small.
  struct Scopes {
    obs::TraceSession::Span pass_span;
    obs::TraceSession::Span list_span;
    obs::ProfScope pass_prof;
  };

  void OpenPass() {
    if (space_ != nullptr) {
      space_->BeginPass(static_cast<std::size_t>(pass_));
    }
    if (observe_.trace != nullptr) {
      scopes_->pass_span = obs::TraceSession::Begin(
          observe_.trace, "pass " + std::to_string(pass_), "pass");
      lists_in_window_ = 0;
      window_start_vertex_ = 0;
    }
    if (observe_.prof != nullptr) {
      scopes_->pass_prof = obs::Profiler::Begin(
          observe_.prof, "driver.pass/pass=" + std::to_string(pass_));
    }
  }

  void SampleSpace() {
    const std::size_t reported = algorithm_->CurrentSpaceBytes();
    PassReport& pass = report_.per_pass.back();
    pass.reported_peak_bytes = std::max(pass.reported_peak_bytes, reported);
    report_.reported_peak_bytes =
        std::max(report_.reported_peak_bytes, reported);
    std::size_t audited = 0;
    if (domain_ != nullptr) {
      audited = domain_->live_bytes();
      pass.audited_peak_bytes = std::max(pass.audited_peak_bytes, audited);
      report_.audited_peak_bytes =
          std::max(report_.audited_peak_bytes, audited);
      const std::size_t divergence =
          audited > reported ? audited - reported : reported - audited;
      report_.max_divergence_bytes =
          std::max(report_.max_divergence_bytes, divergence);
    }
    if (space_ != nullptr) {
      space_->Sample(pass.pairs_processed, reported, audited);
    }
  }

  void CloseListSpan(VertexId last_vertex) {
    obs::TraceSession::Span& span = scopes_->list_span;
    span.SetArg("first_vertex", obs::Json(window_start_vertex_));
    span.SetArg("last_vertex", obs::Json(last_vertex));
    span.SetArg("lists", obs::Json(lists_in_window_));
    span.End();
    lists_in_window_ = 0;
  }

  // One structured record per completed pass (debug level).
  void LogPass(const PassReport& p) const {
    obs::Logger* logger = observe_.logger;
    if (logger == nullptr || !logger->Enabled(obs::LogLevel::kDebug)) return;
    obs::Json fields = obs::Json::Object();
    fields.Set("pass", obs::Json(static_cast<std::uint64_t>(pass_)));
    fields.Set("pairs",
               obs::Json(static_cast<std::uint64_t>(p.pairs_processed)));
    fields.Set("peak_bytes",
               obs::Json(static_cast<std::uint64_t>(p.reported_peak_bytes)));
    logger->Log(obs::LogLevel::kDebug, "driver", "pass complete", fields);
  }

  AlgoT* algorithm_;
  const obs::MemoryDomain* domain_;
  obs::Observer observe_;
  obs::SpaceTracer* space_;
  RunReport report_;
  int pass_ = 0;
  bool finished_ = false;
  std::unique_ptr<Scopes> scopes_;  // null unless trace or prof is on
  std::size_t lists_in_window_ = 0;
  VertexId window_start_vertex_ = 0;
};

}  // namespace stream
}  // namespace cyclestream

#endif  // CYCLESTREAM_STREAM_SESSION_H_
