#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <span>
#include <string>
#include <utility>

#include "obs/exposition.h"
#include "service/mailbox.h"
#include "snapshot/snapshot.h"
#include "util/check.h"
#include "util/hashing.h"

namespace cyclestream {
namespace service {
namespace {

enum class OpKind : std::uint8_t {
  kCreate,
  kList,
  kEndPass,
  kQuery,
  kCheckpoint,
  kRestore,
  kKill,
  kBarrier,
};

constexpr double kLatencyBounds[] = {1e-6, 1e-5, 1e-4, 1e-3,
                                     1e-2, 0.1,  1.0,  10.0};

// Distinct flow-id namespace per service instance (never reused).
std::uint64_t NextServiceSalt() {
  static std::atomic<std::uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) * 0x9e3779b97f4a7c15ULL;
}

const char* OpName(OpKind kind) {
  switch (kind) {
    case OpKind::kCreate: return "create";
    case OpKind::kList: return "append";
    case OpKind::kEndPass: return "end_pass";
    case OpKind::kQuery: return "query";
    case OpKind::kCheckpoint: return "checkpoint";
    case OpKind::kRestore: return "restore";
    case OpKind::kKill: return "kill";
    case OpKind::kBarrier: return "barrier";
  }
  return "unknown";
}

}  // namespace

// One mailbox message. Exactly one promise pointer is set, matching the
// kind; data-path ops (kList, kEndPass) carry none.
struct EstimatorService::Op {
  OpKind kind = OpKind::kBarrier;
  StreamId id = 0;
  TraceContext trace;
  VertexId u = 0;
  std::vector<VertexId> list;
  EstimatorSpec spec;
  std::vector<std::uint8_t> manifest;
  std::chrono::steady_clock::time_point enqueued;
  std::unique_ptr<std::promise<Status>> status_promise;
  std::unique_ptr<std::promise<StatusOr<StreamView>>> view_promise;
  std::unique_ptr<std::promise<StatusOr<std::vector<std::uint8_t>>>>
      bytes_promise;
  std::unique_ptr<std::promise<StatusOr<std::size_t>>> count_promise;
  std::unique_ptr<std::promise<void>> barrier_promise;
};

// Complete state of one hosted stream: the estimator and the session the
// driver would run it in.
struct EstimatorService::StreamState {
  StreamState(const EstimatorSpec& s, HostedEstimator h)
      : spec(s), hosted(std::move(h)), session(hosted.algo.get()) {}

  EstimatorSpec spec;
  HostedEstimator hosted;
  Status error;  // latched by misuse; OK in the normal lifecycle
  stream::StreamSession<> session;
};

struct EstimatorService::Shard {
  std::size_t index = 0;
  Mailbox<Op> mailbox;
  std::atomic<bool> scheduled{false};
  // Consumer-only (the shard's drain task): never touched off-thread.
  std::map<StreamId, StreamState> streams;
  // Bound metric handles (unset when the service runs unmetered).
  obs::Counter ops, lists, pairs, queries, checkpoints, restores, kills,
      drains, dropped, errors;
  obs::Histogram queue_depth, latency, occupancy;
  // Latency attribution beyond mailbox wait: whole-batch drain time and
  // single-op estimator compute time.
  obs::Histogram drain_seconds, process_seconds;
};

EstimatorService::EstimatorService(const ServiceOptions& options)
    : drain_budget_(std::max<std::size_t>(options.drain_budget, 1)),
      observe_(options.observe),
      trace_salt_(NextServiceSalt()),
      log_(options.observe.logger, "service"),
      pool_(options.threads > 0 ? options.threads
                                : std::max(options.shards, 1)) {
  const int shards = std::max(options.shards, 1);
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = static_cast<std::size_t>(i);
    if (observe_.metrics != nullptr) {
      // Error latches and drops carry a per-shard label suffix so a scrape
      // can localize a failing shard; high-rate data-path counters stay
      // unlabeled (one merged series).
      const std::string by_shard = "/shard=" + std::to_string(i);
      shard->ops = observe_.metrics->GetCounter("service.ops");
      shard->lists = observe_.metrics->GetCounter("service.lists");
      shard->pairs = observe_.metrics->GetCounter("service.pairs");
      shard->queries = observe_.metrics->GetCounter("service.queries");
      shard->checkpoints =
          observe_.metrics->GetCounter("service.checkpoints");
      shard->restores = observe_.metrics->GetCounter("service.restores");
      shard->kills = observe_.metrics->GetCounter("service.kills");
      shard->drains = observe_.metrics->GetCounter("service.drains");
      shard->dropped =
          observe_.metrics->GetCounter("service.dropped_ops" + by_shard);
      shard->errors =
          observe_.metrics->GetCounter("service.errors_latched" + by_shard);
      // Materialize the error-class series at 0 so a clean run still
      // exposes them — operators alert on value, not absence.
      shard->dropped.Increment(0);
      shard->errors.Increment(0);
      shard->queue_depth = observe_.metrics->GetHistogram(
          "service.queue_depth", obs::Log2Bounds(0, 20));
      shard->latency = observe_.metrics->GetHistogram(
          "service.op_latency_seconds",
          std::vector<double>(std::begin(kLatencyBounds),
                              std::end(kLatencyBounds)));
      shard->occupancy = observe_.metrics->GetHistogram(
          "service.shard_occupancy", obs::Log2Bounds(0, 20));
      shard->drain_seconds = observe_.metrics->GetHistogram(
          "service.drain_batch_seconds",
          std::vector<double>(std::begin(kLatencyBounds),
                              std::end(kLatencyBounds)));
      shard->process_seconds = observe_.metrics->GetHistogram(
          "service.op_process_seconds",
          std::vector<double>(std::begin(kLatencyBounds),
                              std::end(kLatencyBounds)));
    }
    shards_.push_back(std::move(shard));
  }
  if (log_.Enabled(obs::LogLevel::kInfo)) {
    obs::Json fields = obs::Json::Object();
    fields.Set("shards", obs::Json(static_cast<std::uint64_t>(shards)));
    fields.Set("threads",
               obs::Json(static_cast<std::uint64_t>(pool_.num_threads())));
    fields.Set("drain_budget",
               obs::Json(static_cast<std::uint64_t>(drain_budget_)));
    log_.Info("service started", fields);
  }
}

EstimatorService::~EstimatorService() {
  // Resolve everything in flight; the pool destructor then finishes any
  // still-running drain task and joins.
  Flush();
}

int EstimatorService::ShardOf(StreamId id, int shards) {
  CYCLESTREAM_CHECK_GE(shards, 1);
  return static_cast<int>(Mix64(id) % static_cast<std::uint64_t>(shards));
}

EstimatorService::Shard& EstimatorService::ShardFor(StreamId id) {
  return *shards_[static_cast<std::size_t>(ShardOf(id, shards()))];
}

TraceContext EstimatorService::StampTrace(StreamId id) {
  TraceContext context;
  // All-zero when untraced: the data path never touches the fields.
  if (observe_.trace == nullptr) return context;
  // Stable per-stream flow id, salted per service instance so two services
  // sharing one TraceSession (e.g. a sweep) never merge their arrow
  // chains. Mix64 maps exactly one input to 0, which would read as
  // "untraced" — nudge it to 1.
  context.trace_id = Mix64(id ^ trace_salt_);
  if (context.trace_id == 0) context.trace_id = 1;
  context.span_id = next_span_id_.fetch_add(1, std::memory_order_relaxed);
  return context;
}

void EstimatorService::Enqueue(Shard& shard, Op op) {
  if (observe_.metrics != nullptr || observe_.trace != nullptr) {
    op.enqueued = std::chrono::steady_clock::now();
  }
  if (observe_.trace != nullptr && op.trace.trace_id != 0) {
    // Producer side of the request flow: a small slice on the caller's
    // lane with the flow anchor inside it, so the arrow starts (Create) or
    // steps (everything else) from where the client handed the op off.
    const std::uint64_t start = observe_.trace->NowNs();
    observe_.trace->EmitFlow(op.kind == OpKind::kCreate
                                 ? obs::TraceSession::FlowPhase::kStart
                                 : obs::TraceSession::FlowPhase::kStep,
                             "stream", "service", op.trace.trace_id, start);
    obs::Json args = obs::Json::Object();
    args.Set("stream", obs::Json(op.id));
    args.Set("span", obs::Json(op.trace.span_id));
    observe_.trace->EmitComplete(
        std::string("service.enqueue ") + OpName(op.kind), "service", start,
        observe_.trace->NowNs(), std::move(args));
  }
  if (observe_.flight != nullptr) {
    observe_.flight->Record(obs::FlightEventKind::kEnqueue,
                            static_cast<std::uint32_t>(shard.index), op.id,
                            static_cast<std::uint64_t>(op.kind));
  }
  shard.mailbox.Push(std::move(op));
  // First producer to observe the shard unscheduled owns submitting its
  // drain task; everyone else is guaranteed a consumer is (or will be)
  // running and will see their op.
  if (!shard.scheduled.exchange(true, std::memory_order_acq_rel)) {
    pool_.Submit([this, i = shard.index] { Drain(i); });
  }
}

void EstimatorService::Drain(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  std::size_t processed = 0;
  for (;;) {
    std::vector<Op> batch = shard.mailbox.TakeAll();
    if (batch.empty()) {
      // Release shard state to whichever producer re-schedules next.
      shard.scheduled.store(false, std::memory_order_release);
      if (shard.mailbox.Empty()) return;
      // An op raced in after TakeAll; reclaim the consumer role unless
      // its producer already submitted a replacement task.
      if (shard.scheduled.exchange(true, std::memory_order_acq_rel)) return;
      continue;
    }
    if (observe_.metrics != nullptr) {
      shard.drains.Increment();
      shard.queue_depth.Observe(static_cast<double>(batch.size()));
      shard.occupancy.Observe(static_cast<double>(shard.streams.size()));
      const auto now = std::chrono::steady_clock::now();
      for (const Op& op : batch) {
        shard.latency.Observe(
            std::chrono::duration<double>(now - op.enqueued).count());
      }
    }
    if (observe_.flight != nullptr) {
      observe_.flight->Record(obs::FlightEventKind::kDrain,
                              static_cast<std::uint32_t>(shard.index),
                              batch.size(), shard.mailbox.Empty() ? 0 : 1);
    }
    if (log_.Enabled(obs::LogLevel::kDebug)) {
      obs::Json fields = obs::Json::Object();
      fields.Set("shard",
                 obs::Json(static_cast<std::uint64_t>(shard.index)));
      fields.Set("batch", obs::Json(static_cast<std::uint64_t>(batch.size())));
      fields.Set("streams",
                 obs::Json(static_cast<std::uint64_t>(shard.streams.size())));
      log_.Debug("drain batch", fields);
    }
    obs::TraceSession::Span drain_span;
    if (observe_.trace != nullptr) {
      drain_span =
          obs::TraceSession::Begin(observe_.trace, "service.drain", "service");
      drain_span.SetArg("shard",
                        obs::Json(static_cast<std::uint64_t>(shard.index)));
      drain_span.SetArg("batch",
                        obs::Json(static_cast<std::uint64_t>(batch.size())));
    }
    obs::ProfScope drain_prof =
        obs::Profiler::Begin(observe_.prof, "service.drain");
    const auto batch_start = std::chrono::steady_clock::now();
    for (Op& op : batch) Process(shard, op);
    if (observe_.metrics != nullptr) {
      shard.drain_seconds.Observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        batch_start)
              .count());
    }
    drain_prof.End();
    drain_span.End();
    processed += batch.size();
    if (processed >= drain_budget_) {
      // Yield the worker; keep the scheduled flag (this task still owns
      // the consumer role, the continuation inherits it).
      pool_.Submit([this, shard_index] { Drain(shard_index); });
      return;
    }
  }
}

void EstimatorService::Process(Shard& shard, Op& op) {
  if (observe_.metrics != nullptr) shard.ops.Increment();
  obs::TraceSession::Span span;
  if (observe_.trace != nullptr) {
    span = obs::TraceSession::Begin(
        observe_.trace, std::string("service.") + OpName(op.kind), "service");
    span.SetArg("stream", obs::Json(op.id));
    span.SetArg("shard", obs::Json(static_cast<std::uint64_t>(shard.index)));
    if (op.trace.trace_id != 0) {
      span.SetArg("span", obs::Json(op.trace.span_id));
      // Consumer side of the request flow, anchored inside this op's
      // slice. The stream's arrow chain terminates at its Query reply.
      observe_.trace->EmitFlow(op.kind == OpKind::kQuery
                                   ? obs::TraceSession::FlowPhase::kEnd
                                   : obs::TraceSession::FlowPhase::kStep,
                               "stream", "service", op.trace.trace_id,
                               observe_.trace->NowNs());
    }
  }
  std::chrono::steady_clock::time_point start;
  if (observe_.metrics != nullptr) start = std::chrono::steady_clock::now();
  switch (op.kind) {
    case OpKind::kCreate: DoCreate(shard, op); break;
    case OpKind::kList: DoList(shard, op); break;
    case OpKind::kEndPass: DoEndPass(shard, op); break;
    case OpKind::kQuery: DoQuery(shard, op); break;
    case OpKind::kCheckpoint: DoCheckpoint(shard, op); break;
    case OpKind::kRestore: DoRestore(shard, op); break;
    case OpKind::kKill: DoKill(shard, op); break;
    case OpKind::kBarrier: op.barrier_promise->set_value(); break;
  }
  if (observe_.metrics != nullptr) {
    shard.process_seconds.Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
  }
}

void EstimatorService::OnErrorLatched(Shard& shard, StreamId id,
                                      const Status& error) {
  if (observe_.metrics != nullptr) shard.errors.Increment();
  if (log_.Enabled(obs::LogLevel::kError)) {
    obs::Json fields = obs::Json::Object();
    fields.Set("shard", obs::Json(static_cast<std::uint64_t>(shard.index)));
    fields.Set("stream", obs::Json(id));
    fields.Set("code", obs::Json(StatusCodeName(error.code())));
    log_.Error(error.message(), fields);
  }
  if (observe_.flight != nullptr) {
    observe_.flight->Record(obs::FlightEventKind::kError,
                            static_cast<std::uint32_t>(shard.index), id,
                            static_cast<std::uint64_t>(error.code()));
    // Fatal-Status hook: dump the rings while the crash context is fresh
    // (no-op unless CYCLESTREAM_FLIGHT_DUMP names a path).
    observe_.flight->DumpToEnvPath();
  }
}

void EstimatorService::DoCreate(Shard& shard, Op& op) {
  if (shard.streams.count(op.id) != 0) {
    op.status_promise->set_value(Status::FailedPrecondition(
        "stream " + std::to_string(op.id) + " already exists"));
    return;
  }
  StatusOr<HostedEstimator> hosted = MakeHosted(op.spec);
  if (!hosted.ok()) {
    op.status_promise->set_value(hosted.status());
    return;
  }
  shard.streams.emplace(op.id, StreamState(op.spec, std::move(hosted).value()))
      .first->second.session.BeginPass();
  if (observe_.flight != nullptr) {
    observe_.flight->Record(obs::FlightEventKind::kCreate,
                            static_cast<std::uint32_t>(shard.index), op.id);
  }
  if (log_.Enabled(obs::LogLevel::kDebug)) {
    obs::Json fields = obs::Json::Object();
    fields.Set("shard", obs::Json(static_cast<std::uint64_t>(shard.index)));
    fields.Set("stream", obs::Json(op.id));
    fields.Set("kind", obs::Json(KindName(op.spec.kind)));
    log_.Debug("stream created", fields);
  }
  op.status_promise->set_value(Status::Ok());
}

EstimatorService::StreamState* EstimatorService::LiveStream(
    Shard& shard, const Op& op, const char* action) {
  auto it = shard.streams.find(op.id);
  if (it == shard.streams.end()) {
    if (observe_.metrics != nullptr) shard.dropped.Increment();
    return nullptr;
  }
  StreamState& state = it->second;
  if (!state.error.ok()) return nullptr;  // already latched; drop silently
  if (state.session.finished()) {
    state.error = Status::FailedPrecondition(
        std::string(action) + " stream " + std::to_string(op.id) +
        " after its final pass ended");
    OnErrorLatched(shard, op.id, state.error);
    return nullptr;
  }
  return &state;
}

void EstimatorService::DoList(Shard& shard, Op& op) {
  StreamState* state = LiveStream(shard, op, "append to");
  if (state == nullptr) return;
  state->session.ConsumeList(op.u, op.list);
  if (observe_.metrics != nullptr) {
    shard.lists.Increment();
    shard.pairs.Increment(op.list.size());
  }
  if (observe_.flight != nullptr) {
    observe_.flight->Record(obs::FlightEventKind::kList,
                            static_cast<std::uint32_t>(shard.index), op.id,
                            op.list.size());
  }
}

void EstimatorService::DoEndPass(Shard& shard, Op& op) {
  StreamState* state = LiveStream(shard, op, "pass boundary on");
  if (state == nullptr) return;
  state->session.EndPass();
  if (observe_.flight != nullptr) {
    observe_.flight->Record(obs::FlightEventKind::kEndPass,
                            static_cast<std::uint32_t>(shard.index), op.id,
                            static_cast<std::uint64_t>(state->session.pass()));
  }
  if (!state->session.finished()) state->session.BeginPass();
}

void EstimatorService::DoQuery(Shard& shard, Op& op) {
  if (observe_.metrics != nullptr) shard.queries.Increment();
  auto it = shard.streams.find(op.id);
  if (it == shard.streams.end()) {
    if (observe_.flight != nullptr) {
      observe_.flight->Record(obs::FlightEventKind::kQuery,
                              static_cast<std::uint32_t>(shard.index), op.id,
                              1);
    }
    op.view_promise->set_value(
        Status::NotFound("unknown stream " + std::to_string(op.id)));
    return;
  }
  const StreamState& state = it->second;
  if (observe_.flight != nullptr) {
    observe_.flight->Record(obs::FlightEventKind::kQuery,
                            static_cast<std::uint32_t>(shard.index), op.id,
                            state.error.ok() ? 0 : 1);
  }
  if (!state.error.ok()) {
    op.view_promise->set_value(state.error);
    return;
  }
  StreamView view;
  view.spec = state.spec;
  view.estimate = state.hosted.estimate(*state.hosted.algo);
  view.pass = state.session.pass();
  view.passes_requested = state.session.report().passes_requested;
  view.finished = state.session.finished();
  view.report = state.session.report();
  op.view_promise->set_value(std::move(view));
}

void EstimatorService::DoCheckpoint(Shard& shard, Op& op) {
  if (observe_.metrics != nullptr) shard.checkpoints.Increment();
  snapshot::SnapshotWriter outer;
  outer.WriteU64(shard.streams.size());
  for (const auto& [id, state] : shard.streams) {
    outer.WriteU64(id);
    snapshot::SnapshotWriter inner;
    SerializeSpec(state.spec, inner);
    inner.WriteU64(static_cast<std::uint64_t>(state.session.pass()));
    inner.WriteBool(state.session.finished());
    inner.WriteBool(!state.error.ok());
    if (!state.error.ok()) {
      inner.WriteU32(static_cast<std::uint32_t>(state.error.code()));
      inner.WriteString(state.error.message());
    }
    state.session.Serialize(inner);
    if (state.error.ok()) state.hosted.algo->Serialize(inner);
    const std::vector<std::uint8_t> bytes = std::move(inner).Finish();
    outer.WriteBytes(std::span<const std::uint8_t>(bytes));
  }
  std::vector<std::uint8_t> manifest = std::move(outer).Finish();
  if (observe_.flight != nullptr) {
    observe_.flight->Record(obs::FlightEventKind::kCheckpoint,
                            static_cast<std::uint32_t>(shard.index),
                            shard.streams.size(), manifest.size());
  }
  if (log_.Enabled(obs::LogLevel::kInfo)) {
    obs::Json fields = obs::Json::Object();
    fields.Set("shard", obs::Json(static_cast<std::uint64_t>(shard.index)));
    fields.Set("streams",
               obs::Json(static_cast<std::uint64_t>(shard.streams.size())));
    fields.Set("bytes",
               obs::Json(static_cast<std::uint64_t>(manifest.size())));
    log_.Info("shard checkpoint", fields);
  }
  op.bytes_promise->set_value(std::move(manifest));
}

void EstimatorService::DoRestore(Shard& shard, Op& op) {
  if (observe_.metrics != nullptr) shard.restores.Increment();
  Status status = DoRestoreImpl(shard, op);
  if (observe_.flight != nullptr) {
    observe_.flight->Record(obs::FlightEventKind::kRestore,
                            static_cast<std::uint32_t>(shard.index),
                            status.ok() ? 1 : 0,
                            static_cast<std::uint64_t>(status.code()));
  }
  const obs::LogLevel level =
      status.ok() ? obs::LogLevel::kInfo : obs::LogLevel::kError;
  if (log_.Enabled(level)) {
    obs::Json fields = obs::Json::Object();
    fields.Set("shard", obs::Json(static_cast<std::uint64_t>(shard.index)));
    fields.Set("ok", obs::Json(status.ok()));
    fields.Set("code", obs::Json(StatusCodeName(status.code())));
    fields.Set("streams",
               obs::Json(static_cast<std::uint64_t>(shard.streams.size())));
    if (status.ok()) {
      log_.Info("shard restored", fields);
    } else {
      log_.Error("shard restore failed: " + status.message(), fields);
    }
  }
  op.status_promise->set_value(std::move(status));
}

Status EstimatorService::DoRestoreImpl(Shard& shard, Op& op) {
  const int shard_index = static_cast<int>(shard.index);
  StatusOr<snapshot::SnapshotReader> outer =
      snapshot::SnapshotReader::Open(op.manifest);
  if (!outer.ok()) {
    return outer.status();
  }
  const std::uint64_t count = outer->ReadU64();
  std::map<StreamId, StreamState> restored;
  for (std::uint64_t i = 0; i < count; ++i) {
    const StreamId id = outer->ReadU64();
    const std::vector<std::uint8_t> bytes = outer->ReadBytesVec();
    if (!outer->status().ok()) {
      return outer->status();
    }
    if (ShardOf(id, shards()) != shard_index) {
      return Status::FailedPrecondition(
          "manifest stream " + std::to_string(id) +
          " does not belong to shard " + std::to_string(shard_index));
    }
    StatusOr<snapshot::SnapshotReader> inner =
        snapshot::SnapshotReader::Open(bytes);
    if (!inner.ok()) {
      return inner.status();
    }
    StatusOr<EstimatorSpec> spec = RestoreSpec(*inner);
    if (!spec.ok()) {
      return spec.status();
    }
    StatusOr<HostedEstimator> hosted = MakeHosted(*spec);
    if (!hosted.ok()) {
      return hosted.status();
    }
    StreamState state(*spec, std::move(hosted).value());
    const std::uint64_t pass = inner->ReadU64();
    const bool finished = inner->ReadBool();
    const bool has_error = inner->ReadBool();
    if (has_error) {
      const StatusCode code = static_cast<StatusCode>(inner->ReadU32());
      std::string message = inner->ReadString();
      if (inner->status().ok() && code != StatusCode::kOk) {
        state.error = Status(code, std::move(message));
      }
    }
    Status report_status = state.session.Restore(*inner, pass, finished);
    if (!report_status.ok()) return report_status;
    if (state.error.ok()) {
      Status algo_status = state.hosted.algo->Restore(*inner);
      if (!algo_status.ok()) {
        return algo_status;
      }
    }
    Status final_status = inner->Final();
    if (!final_status.ok()) {
      return final_status;
    }
    restored.emplace(id, std::move(state));
  }
  Status outer_final = outer->Final();
  if (!outer_final.ok()) {
    return outer_final;
  }
  shard.streams = std::move(restored);
  return Status::Ok();
}

void EstimatorService::DoKill(Shard& shard, Op& op) {
  if (observe_.metrics != nullptr) shard.kills.Increment();
  const std::size_t lost = shard.streams.size();
  shard.streams.clear();
  if (observe_.flight != nullptr) {
    observe_.flight->Record(obs::FlightEventKind::kKill,
                            static_cast<std::uint32_t>(shard.index), lost);
    // Chaos crash point: dump the rings so the post-mortem shows what the
    // killed shard was doing (no-op unless CYCLESTREAM_FLIGHT_DUMP is set).
    observe_.flight->DumpToEnvPath();
  }
  if (log_.Enabled(obs::LogLevel::kWarn)) {
    obs::Json fields = obs::Json::Object();
    fields.Set("shard", obs::Json(static_cast<std::uint64_t>(shard.index)));
    fields.Set("streams_lost", obs::Json(static_cast<std::uint64_t>(lost)));
    log_.Warn("shard killed", fields);
  }
  op.count_promise->set_value(lost);
}

std::future<Status> EstimatorService::Create(StreamId id, EstimatorSpec spec) {
  Op op;
  op.kind = OpKind::kCreate;
  op.id = id;
  op.trace = StampTrace(id);
  op.spec = spec;
  op.status_promise = std::make_unique<std::promise<Status>>();
  std::future<Status> future = op.status_promise->get_future();
  Enqueue(ShardFor(id), std::move(op));
  return future;
}

void EstimatorService::Append(StreamId id, VertexId u,
                              std::vector<VertexId> list) {
  Op op;
  op.kind = OpKind::kList;
  op.id = id;
  op.trace = StampTrace(id);
  op.u = u;
  op.list = std::move(list);
  Enqueue(ShardFor(id), std::move(op));
}

void EstimatorService::EndPass(StreamId id) {
  Op op;
  op.kind = OpKind::kEndPass;
  op.id = id;
  op.trace = StampTrace(id);
  Enqueue(ShardFor(id), std::move(op));
}

std::future<StatusOr<StreamView>> EstimatorService::Query(StreamId id) {
  Op op;
  op.kind = OpKind::kQuery;
  op.id = id;
  op.trace = StampTrace(id);
  op.view_promise =
      std::make_unique<std::promise<StatusOr<StreamView>>>();
  std::future<StatusOr<StreamView>> future = op.view_promise->get_future();
  Enqueue(ShardFor(id), std::move(op));
  return future;
}

std::future<StatusOr<std::vector<std::uint8_t>>>
EstimatorService::CheckpointShard(int shard) {
  Op op;
  op.kind = OpKind::kCheckpoint;
  op.bytes_promise = std::make_unique<
      std::promise<StatusOr<std::vector<std::uint8_t>>>>();
  auto future = op.bytes_promise->get_future();
  if (Status bad = CheckShardIndex(shard); !bad.ok()) {
    op.bytes_promise->set_value(std::move(bad));
  } else {
    Enqueue(*shards_[static_cast<std::size_t>(shard)], std::move(op));
  }
  return future;
}

Status EstimatorService::CheckShardIndex(int shard) const {
  if (shard >= 0 && shard < shards()) return Status::Ok();
  return Status::InvalidArgument("shard " + std::to_string(shard) +
                                 " outside [0, " + std::to_string(shards()) +
                                 ")");
}

std::future<StatusOr<std::size_t>> EstimatorService::KillShard(int shard) {
  Op op;
  op.kind = OpKind::kKill;
  op.count_promise = std::make_unique<std::promise<StatusOr<std::size_t>>>();
  auto future = op.count_promise->get_future();
  if (Status bad = CheckShardIndex(shard); !bad.ok()) {
    op.count_promise->set_value(std::move(bad));
  } else {
    Enqueue(*shards_[static_cast<std::size_t>(shard)], std::move(op));
  }
  return future;
}

std::future<Status> EstimatorService::RestoreShard(
    int shard, std::vector<std::uint8_t> manifest) {
  Op op;
  op.kind = OpKind::kRestore;
  op.manifest = std::move(manifest);
  op.status_promise = std::make_unique<std::promise<Status>>();
  std::future<Status> future = op.status_promise->get_future();
  if (Status bad = CheckShardIndex(shard); !bad.ok()) {
    op.status_promise->set_value(std::move(bad));
  } else {
    Enqueue(*shards_[static_cast<std::size_t>(shard)], std::move(op));
  }
  return future;
}

std::string EstimatorService::ScrapeMetrics() const {
  if (observe_.metrics == nullptr) return std::string();
  // Refresh the profiler's gauge surface so a scrape carries the latest
  // drain-loop hardware-counter aggregates alongside the op metrics.
  if (observe_.prof != nullptr) observe_.prof->ExportMetrics(observe_.metrics);
  return obs::PrometheusText(observe_.metrics->Read());
}

void EstimatorService::Flush() {
  std::vector<std::future<void>> barriers;
  barriers.reserve(shards_.size());
  for (auto& shard : shards_) {
    Op op;
    op.kind = OpKind::kBarrier;
    op.barrier_promise = std::make_unique<std::promise<void>>();
    barriers.push_back(op.barrier_promise->get_future());
    Enqueue(*shard, std::move(op));
  }
  for (auto& barrier : barriers) barrier.wait();
}

}  // namespace service
}  // namespace cyclestream
