// Observer: where one run's (or one service's) telemetry goes.
//
// Every instrumented layer — the stream session and its four driver entry
// points, the protocol simulation, the estimator service and the trial
// runner — takes one `Observer` and learns from it, and only from it,
// which process-wide sinks to write. All five sinks are thread-safe and
// caller-owned (they must outlive whatever holds the observer); a null
// field means "not observed", and a default-constructed Observer leaves
// every layer bare. A layer ignores the sinks it has nothing to say to:
// the driver, for one, never writes flight events.
//
// The per-run `SpaceTracer` is deliberately not a field: it records one
// run's samples from a single writer, like the RunReport, so it travels as
// a separate argument next to the observer instead of being shared.

#ifndef CYCLESTREAM_OBS_OBSERVER_H_
#define CYCLESTREAM_OBS_OBSERVER_H_

namespace cyclestream {
namespace obs {

class MetricsRegistry;
class Logger;
class TraceSession;
class Profiler;
class FlightRecorder;

struct Observer {
  /// Counters and histograms ("driver.*", "validator.*", "service.*").
  MetricsRegistry* metrics = nullptr;
  /// Structured records: per-pass "driver" debug records, "service"
  /// control-op and error records.
  Logger* logger = nullptr;
  /// Chrome-trace spans and flow events ("pass", "list", "validate",
  /// "trial", "service.*").
  TraceSession* trace = nullptr;
  /// Hardware-counter scopes ("driver.pass/pass=N", "runtime.trial",
  /// "service.drain").
  Profiler* prof = nullptr;
  /// Wait-free post-mortem event ring (the service's ops).
  FlightRecorder* flight = nullptr;
};

}  // namespace obs
}  // namespace cyclestream

#endif  // CYCLESTREAM_OBS_OBSERVER_H_
