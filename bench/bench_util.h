// Shared infrastructure for the Table 1 / Figure 1 reproduction benches.
//
// Each bench binary prints a deterministic, paper-style table (fixed seeds)
// followed by a PASS/FAIL-style shape verdict where applicable. All binaries
// accept:
//   --full        enlarge the sweeps (default sizes keep every binary in the
//                 tens of seconds on a laptop core)
//   --threads N   fan trials out over N worker threads (default: all
//                 hardware threads). Results are bit-identical for every N:
//                 trial seeds are derived per trial index
//                 (runtime::TrialSeed), never from scheduling.
//   --csv         machine-readable output: tables become CSV (one header row
//                 + data rows), prose becomes '#'-prefixed comments.
//   --metrics-out FILE   write a JSONL run manifest: run header, per-batch
//                 per-trial estimate/space/time records, space timelines,
//                 curve points + slope verdicts, a MetricsRegistry snapshot,
//                 and a run_end trailer (schema: src/obs/manifest.h;
//                 consumer: scripts/bench_report.py).
//   --trace-out FILE     write a timelines-only manifest (run header +
//                 timeline + run_end) — for fine-grained space traces kept
//                 apart from the metrics manifest.
//   --chrome-trace FILE  write a Chrome trace-event JSON file (loadable in
//                 Perfetto / chrome://tracing) with execution spans: bench
//                 phases, trials on their worker lanes, streaming passes,
//                 strided list windows, and validator work.
//   --prof        open hardware counters (obs::Profiler): per-pass and
//                 per-trial cycles/instructions/cache/branch counts land in
//                 `prof` manifest records, Prometheus prof.* gauges, and
//                 Chrome-trace counter tracks. Falls back to a
//                 task-clock-only rusage backend when perf_event_open is
//                 denied (no PMU / perf_event_paranoid); the fallback is
//                 flagged in every surface, never fatal.
//   --log-level LVL      structured-log verbosity for obs::Logger::Global()
//                 ("off"/"error"/"warn"/"info"/"debug"; default off, so
//                 stdout/stderr stay byte-identical across thread counts).
//                 Overrides the CYCLESTREAM_LOG environment variable.
//   --log-file FILE      mirror log records to FILE in addition to stderr.
//
// Every value-carrying flag accepts both `--flag value` and `--flag=value`.
//
// None of the new flags touch stdout: manifests go to their files, wall
// time and logs to stderr, so bench tables stay byte-identical traced,
// logged, or not.
//
// Trial batches run through the shared runtime::TrialRunner returned by
// bench::Runner(); call bench::ParseOptions first so --threads takes effect.
// Batches that should appear in manifests go through bench::RunBatch, which
// traces trial 0, collects per-trial timings outside the deterministic
// result slots, and emits the batch/timeline records.

#ifndef CYCLESTREAM_BENCH_BENCH_UTIL_H_
#define CYCLESTREAM_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/median.h"
#include "obs/accuracy.h"
#include "obs/build_info.h"
#include "obs/json.h"
#include "obs/logger.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/prof.h"
#include "obs/space_tracer.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "runtime/trial_runner.h"
#include "stream/driver.h"

namespace cyclestream {
namespace bench {

inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

namespace internal {

// "--flag=value" support: if argv[i] is `flag` immediately followed by
// '=', returns the text after it; null otherwise. Both `--flag value` and
// `--flag=value` spellings work for every value-carrying flag.
inline const char* InlineFlagValue(const char* arg, const char* flag) {
  const std::size_t len = std::strlen(flag);
  if (std::strncmp(arg, flag, len) == 0 && arg[len] == '=') {
    return arg + len + 1;
  }
  return nullptr;
}

}  // namespace internal

/// Value of `--flag N` / `--flag=N`; `fallback` when absent or malformed.
inline int FlagValue(int argc, char** argv, const char* flag, int fallback) {
  for (int i = 1; i < argc; ++i) {
    const char* text = nullptr;
    if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
      text = argv[i + 1];
    } else {
      text = internal::InlineFlagValue(argv[i], flag);
    }
    if (text != nullptr) {
      int value = std::atoi(text);
      return value > 0 ? value : fallback;
    }
  }
  return fallback;
}

/// Value of `--flag STR` / `--flag=STR`; empty when absent.
inline std::string FlagString(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) return argv[i + 1];
    if (const char* text = internal::InlineFlagValue(argv[i], flag)) {
      return text;
    }
  }
  return "";
}

/// Flags shared by every bench binary.
struct BenchOptions {
  bool full = false;
  bool csv = false;
  int threads = 1;  // resolved worker count (>= 1)
  std::string metrics_out;       // --metrics-out FILE ("" = off)
  std::string trace_out;         // --trace-out FILE ("" = off)
  std::string chrome_trace;      // --chrome-trace FILE ("" = off)
  bool prof = false;             // --prof (hardware counters)
  std::string log_level;         // --log-level LVL ("" = env/default)
  std::string log_file;          // --log-file FILE ("" = stderr only)
};

namespace internal {

inline std::unique_ptr<runtime::TrialRunner>& RunnerSlot() {
  static std::unique_ptr<runtime::TrialRunner> runner;
  return runner;
}

struct RunInfo {
  std::chrono::steady_clock::time_point start;
  int threads = 1;
};

inline RunInfo& GlobalRunInfo() {
  static RunInfo info;
  return info;
}

// Wall time goes to stderr so stdout (the table / CSV) stays bit-identical
// across thread counts.
inline void PrintElapsedAtExit() {
  const RunInfo& info = GlobalRunInfo();
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - info.start)
                    .count();
  std::fprintf(stderr, "[bench] threads=%d wall=%.2fs\n", info.threads, secs);
}

// Manifest/metrics state behind --metrics-out / --trace-out. One instance
// per bench process (function-static); inert unless Configure() saw one of
// the flags, so untraced runs pay nothing but a null check.
class Observability {
 public:
  static Observability& Get() {
    static Observability instance;
    return instance;
  }

  void Configure(const BenchOptions& opts, int argc, char** argv) {
    if (!opts.chrome_trace.empty()) {
      chrome_trace_path_ = opts.chrome_trace;
      trace_session_ = std::make_unique<obs::TraceSession>();
      trace_session_->SetProcessName(BenchName(argc, argv));
      // Lane 0 is the bench main thread (Configure runs before any trial
      // workers exist); TrialRunner names worker lanes as they appear.
      trace_session_->SetThreadName("main");
    }
    if (!opts.metrics_out.empty()) {
      auto writer = obs::ManifestWriter::Open(opts.metrics_out);
      if (!writer.ok()) {
        std::fprintf(stderr, "[bench] %s\n",
                     writer.status().message().c_str());
      } else {
        metrics_writer_.emplace(std::move(writer).value());
        registry_ = std::make_unique<obs::MetricsRegistry>();
      }
    }
    if (!opts.trace_out.empty()) {
      auto writer = obs::ManifestWriter::Open(opts.trace_out);
      if (!writer.ok()) {
        std::fprintf(stderr, "[bench] %s\n",
                     writer.status().message().c_str());
      } else {
        trace_writer_.emplace(std::move(writer).value());
      }
    }
    if (opts.prof) {
      obs::Profiler::Options prof_options;
      prof_options.trace = trace_session_.get();
      profiler_ = std::make_unique<obs::Profiler>(prof_options);
      std::fprintf(stderr, "[bench] prof backend: %s%s\n",
                   obs::ProfBackendName(profiler_->backend()),
                   profiler_->fallback() ? " (perf_event denied, fell back)"
                                         : "");
    }
    if (registry_ != nullptr) {
      obs::SetBuildInfoGauge(registry_.get());
    }
    observer_.metrics = registry_.get();
    observer_.trace = trace_session_.get();
    observer_.prof = profiler_.get();
    if (!enabled()) return;
    obs::Json run = obs::MakeRecord("run");
    run.Set("bench", obs::Json(BenchName(argc, argv)));
    run.Set("git", obs::Json(obs::GitDescribe()));
    run.Set("build_info", obs::BuildInfoJson());
    run.Set("threads", obs::Json(opts.threads));
    run.Set("full", obs::Json(opts.full));
    run.Set("prof", obs::Json(opts.prof));
    obs::Json args = obs::Json::Array();
    for (int i = 1; i < argc; ++i) args.Push(obs::Json(argv[i]));
    run.Set("argv", std::move(args));
    WriteAll(run);
  }

  bool enabled() const {
    return metrics_writer_.has_value() || trace_writer_.has_value();
  }

  /// The run's telemetry sinks: the metrics registry (--metrics-out), the
  /// span session (--chrome-trace), the profiler (--prof), each null when
  /// its flag is off, and the global logger. No flight recorder.
  const obs::Observer& observer() const { return observer_; }

  /// batch / curve_point / slope / metrics records: metrics manifest only.
  void WriteMetricsRecord(const obs::Json& record) {
    if (metrics_writer_.has_value()) metrics_writer_->Write(record);
  }

  /// timeline records: both manifests (--trace-out exists to carry big
  /// timelines separately, but the metrics manifest stays self-contained).
  void WriteTimelineRecord(const obs::Json& record) {
    WriteAll(record);
  }

  /// Flushes the chrome trace, registry snapshot + run_end trailers.
  /// Registered atexit by ParseOptions; idempotent.
  void Finish() {
    if (finished_) return;
    finished_ = true;
    if (profiler_ != nullptr) {
      // Profiler aggregates fan out to every surface here, off the hot
      // path: one `prof` manifest record per scope, and prof.* gauges in
      // the registry (which the metrics record below then snapshots).
      if (registry_ != nullptr) profiler_->ExportMetrics(registry_.get());
      for (const obs::Json& record : obs::ProfRecords(*profiler_)) {
        WriteMetricsRecord(record);
      }
    }
    if (trace_session_ != nullptr) {
      const Status status = trace_session_->WriteTo(chrome_trace_path_);
      if (!status.ok()) {
        std::fprintf(stderr, "[bench] %s\n", status.message().c_str());
      } else {
        std::fprintf(stderr, "[bench] chrome trace: %s (%zu events)\n",
                     chrome_trace_path_.c_str(),
                     trace_session_->event_count());
      }
    }
    if (!enabled()) return;
    if (registry_ != nullptr) {
      obs::Json metrics = obs::MakeRecord("metrics");
      metrics.Set("metrics", registry_->Read().ToJson());
      WriteMetricsRecord(metrics);
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() -
                            GlobalRunInfo().start)
                            .count();
    // Each writer's trailer counts that writer's records (including the
    // trailer itself) so a truncated manifest is detectable.
    if (metrics_writer_.has_value()) {
      metrics_writer_->Write(EndRecord(metrics_writer_->records_written(), wall));
    }
    if (trace_writer_.has_value()) {
      trace_writer_->Write(EndRecord(trace_writer_->records_written(), wall));
    }
  }

 private:
  static std::string BenchName(int argc, char** argv) {
    if (argc < 1 || argv[0] == nullptr) return "unknown";
    const std::string path = argv[0];
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
  }

  static obs::Json EndRecord(std::size_t records_before, double wall) {
    obs::Json end = obs::MakeRecord("run_end");
    end.Set("records", obs::Json(records_before + 1));  // + this trailer
    end.Set("wall_seconds", obs::Json(wall));
    return end;
  }

  void WriteAll(const obs::Json& record) {
    if (metrics_writer_.has_value()) metrics_writer_->Write(record);
    if (trace_writer_.has_value()) trace_writer_->Write(record);
  }

  std::optional<obs::ManifestWriter> metrics_writer_;
  std::optional<obs::ManifestWriter> trace_writer_;
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<obs::TraceSession> trace_session_;
  std::unique_ptr<obs::Profiler> profiler_;
  // Always carries the logger: a disabled level costs one branch at the
  // driver's per-pass (not per-pair) log site.
  obs::Observer observer_{.logger = &obs::Logger::Global()};
  std::string chrome_trace_path_;
  bool finished_ = false;
};

inline void FinishObservabilityAtExit() { Observability::Get().Finish(); }

}  // namespace internal

/// Parses the shared flags, configures the shared trial runner, and opens
/// the run manifests when --metrics-out / --trace-out are given.
inline BenchOptions ParseOptions(int argc, char** argv) {
  BenchOptions opts;
  opts.full = HasFlag(argc, argv, "--full");
  opts.csv = HasFlag(argc, argv, "--csv");
  opts.threads =
      FlagValue(argc, argv, "--threads", runtime::HardwareThreads());
  opts.metrics_out = FlagString(argc, argv, "--metrics-out");
  opts.trace_out = FlagString(argc, argv, "--trace-out");
  opts.chrome_trace = FlagString(argc, argv, "--chrome-trace");
  opts.prof = HasFlag(argc, argv, "--prof");
  opts.log_level = FlagString(argc, argv, "--log-level");
  opts.log_file = FlagString(argc, argv, "--log-file");
  if (!opts.log_level.empty()) {
    obs::Logger::Global().SetLevel(obs::ParseLogLevel(
        opts.log_level, obs::Logger::Global().level()));
  }
  if (!opts.log_file.empty()) {
    const Status status = obs::Logger::Global().OpenFileSink(opts.log_file);
    if (!status.ok()) {
      std::fprintf(stderr, "[bench] %s\n", status.message().c_str());
    }
  }
  internal::RunnerSlot() =
      std::make_unique<runtime::TrialRunner>(opts.threads);
  internal::GlobalRunInfo() = {std::chrono::steady_clock::now(),
                               opts.threads};
  std::atexit(internal::PrintElapsedAtExit);
  internal::Observability::Get().Configure(opts, argc, argv);
  std::atexit(internal::FinishObservabilityAtExit);
  return opts;
}

/// The shared trial runner (created by ParseOptions; defaults to all
/// hardware threads if ParseOptions was never called).
inline runtime::TrialRunner& Runner() {
  if (internal::RunnerSlot() == nullptr) {
    internal::RunnerSlot() =
        std::make_unique<runtime::TrialRunner>(runtime::HardwareThreads());
  }
  return *internal::RunnerSlot();
}

/// The run's telemetry sinks, handed whole to the driver, the trial runner
/// and the service. `metrics` is null unless --metrics-out (benches bind
/// accuracy observers and extra counters there so they land in the
/// metrics snapshot and any Prometheus scrape), `trace` unless
/// --chrome-trace, `prof` unless --prof (benches may open extra scopes on
/// it); `logger` is the global logger; `flight` is always null.
inline const obs::Observer& Observe() {
  return internal::Observability::Get().observer();
}

/// A bench-phase span on the run's Chrome trace (inert when off).
inline obs::TraceSession::Span Phase(const std::string& name) {
  return obs::TraceSession::Begin(Observe().trace, name, "bench");
}

/// Per-trial context handed to RunBatch's trial function. `tracer` is
/// non-null only for the batch's traced trial (trial 0, single-writer);
/// `Run` routes a driver call through it plus the run's observer, so a
/// trial body reads identically traced or untraced:
///
///   bench::RunBatch("label", trials, seed, [&](const bench::TrialCtx& ctx) {
///     core::SomeCounter algo(...);
///     auto report = ctx.Run(stream, &algo);
///     return runtime::TrialResult{algo.Estimate(), 0.0,
///                                 report.reported_peak_bytes,
///                                 report.audited_peak_bytes,
///                                 report.max_divergence_bytes};
///   });
struct TrialCtx {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  obs::SpaceTracer* tracer = nullptr;

  /// AlgoT is deduced: every bench passes a concrete (final) estimator
  /// pointer, so the whole driver path devirtualizes (one OnListBatch call
  /// per adjacency list). Passing a StreamAlgorithm* still works and is
  /// bit-identical.
  template <typename StreamT, typename AlgoT>
  stream::RunReport Run(const StreamT& s, AlgoT* algo) const {
    return stream::RunPasses(s, algo, Observe(), tracer);
  }

  /// Packs a driver report into the trial's result slots.
  runtime::TrialResult Result(double estimate, double aux,
                              const stream::RunReport& report) const {
    return runtime::TrialResult{estimate, aux, report.reported_peak_bytes,
                                report.audited_peak_bytes,
                                report.max_divergence_bytes};
  }
};

/// Runs `trials` trials through the shared Runner (same seeds/slots as
/// Runner().Run, so printed numbers are unchanged) and, when manifests are
/// open, records the batch: per-trial estimate/aux/space plus wall and
/// queue-wait timings (kept out of the returned deterministic results), a
/// space timeline for trial 0, and wall/queue-wait histograms in the
/// metrics registry. `config` is an arbitrary JSON object identifying the
/// batch's parameters (m, T, sample size, ...).
inline std::vector<runtime::TrialResult> RunBatch(
    const std::string& label, std::size_t trials, std::uint64_t base_seed,
    const std::function<runtime::TrialResult(const TrialCtx&)>& fn,
    obs::Json config = obs::Json::Object()) {
  internal::Observability& ob = internal::Observability::Get();
  obs::SpaceTracer tracer;
  obs::SpaceTracer* traced = ob.enabled() ? &tracer : nullptr;
  auto batch_span = Phase("batch " + label);
  batch_span.SetArg("trials", obs::Json(trials));
  std::vector<runtime::TrialTiming> timings;
  std::vector<runtime::TrialResult> results = Runner().Run(
      trials, base_seed,
      [&fn, traced](std::size_t i, std::uint64_t seed) {
        return fn(TrialCtx{i, seed, i == 0 ? traced : nullptr});
      },
      &timings, ob.observer());
  batch_span.End();
  if (!ob.enabled()) return results;

  obs::Json batch = obs::MakeRecord("batch");
  batch.Set("label", obs::Json(label));
  batch.Set("trials", obs::Json(trials));
  batch.Set("base_seed", obs::Json(base_seed));
  batch.Set("config", std::move(config));
  obs::Json rows = obs::Json::Array();
  for (std::size_t i = 0; i < results.size(); ++i) {
    obs::Json row = obs::Json::Object();
    row.Set("trial", obs::Json(i));
    row.Set("seed", obs::Json(runtime::TrialSeed(base_seed, i)));
    row.Set("estimate", obs::Json(results[i].estimate));
    row.Set("aux", obs::Json(results[i].aux));
    row.Set("reported_peak_bytes", obs::Json(results[i].reported_peak_bytes));
    row.Set("audited_peak_bytes", obs::Json(results[i].audited_peak_bytes));
    row.Set("max_divergence_bytes",
            obs::Json(results[i].max_divergence_bytes));
    row.Set("wall_seconds", obs::Json(timings[i].wall_seconds));
    row.Set("queue_wait_seconds", obs::Json(timings[i].queue_wait_seconds));
    rows.Push(std::move(row));
  }
  batch.Set("results", std::move(rows));
  ob.WriteMetricsRecord(batch);

  if (!tracer.timelines().empty()) {
    obs::Json timeline = obs::MakeRecord("timeline");
    timeline.Set("label", obs::Json(label));
    timeline.Set("trial", obs::Json(0));
    timeline.Set("seed", obs::Json(runtime::TrialSeed(base_seed, 0)));
    timeline.Set("max_reported_bytes", obs::Json(tracer.MaxReportedBytes()));
    timeline.Set("max_audited_bytes", obs::Json(tracer.MaxAuditedBytes()));
    timeline.Set("passes", tracer.ToJson());
    ob.WriteTimelineRecord(timeline);
  }

  if (obs::MetricsRegistry* registry = ob.observer().metrics) {
    static const std::vector<double> kSecondsBounds = {
        1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0};
    obs::Histogram wall =
        registry->GetHistogram("bench.trial_wall_seconds", kSecondsBounds);
    obs::Histogram wait = registry->GetHistogram(
        "bench.trial_queue_wait_seconds", kSecondsBounds);
    for (const runtime::TrialTiming& t : timings) {
      wall.Observe(t.wall_seconds);
      wait.Observe(t.queue_wait_seconds);
    }
    registry->GetCounter("bench.trials").Increment(trials);
    registry->GetCounter("bench.batches").Increment();
    // Per-list distributions from the traced trial's timeline: each point
    // before the pass-end duplicate is one list-boundary sample, and the
    // pair-count delta between consecutive samples is that list's length.
    obs::Histogram space = registry->GetHistogram("bench.list_space_bytes",
                                                  obs::Log2Bounds(6, 30));
    obs::Histogram sizes = registry->GetHistogram("bench.list_size_pairs",
                                                  obs::Log2Bounds(0, 24));
    for (const obs::SpaceTimeline& t : tracer.timelines()) {
      std::uint64_t prev_pairs = 0;
      // points.back() is the extra pass-end sample (same pair count as
      // the final list boundary) — not a list.
      const std::size_t lists = t.points.empty() ? 0 : t.points.size() - 1;
      for (std::size_t i = 0; i < lists; ++i) {
        space.Observe(static_cast<double>(t.points[i].reported_bytes));
        sizes.Observe(
            static_cast<double>(t.points[i].pairs_processed - prev_pairs));
        prev_pairs = t.points[i].pairs_processed;
      }
    }
  }
  return results;
}

/// Records one (x, y) point of a named measured curve (e.g. minimal sample
/// size vs T) in the metrics manifest. No-op when manifests are off.
inline void CurvePoint(const std::string& curve, double x, double y) {
  obs::Json point = obs::MakeRecord("curve_point");
  point.Set("curve", obs::Json(curve));
  point.Set("x", obs::Json(x));
  point.Set("y", obs::Json(y));
  internal::Observability::Get().WriteMetricsRecord(point);
}

/// Records a curve's measured log-log slope against the paper's predicted
/// exponent, with the bench's own consistency verdict. No-op when
/// manifests are off.
inline void Slope(const std::string& curve, double measured, double predicted,
                  bool consistent) {
  obs::Json slope = obs::MakeRecord("slope");
  slope.Set("curve", obs::Json(curve));
  slope.Set("measured", obs::Json(measured));
  slope.Set("predicted", obs::Json(predicted));
  slope.Set("consistent", obs::Json(consistent));
  internal::Observability::Get().WriteMetricsRecord(slope);
}

/// Fits the slope of log(y) against log(x) (least squares) — used to verify
/// scaling exponents ("the shape") against the paper's predictions.
inline double LogLogSlope(const std::vector<double>& x,
                          const std::vector<double>& y) {
  const std::size_t n = std::min(x.size(), y.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double lx = std::log(x[i]), ly = std::log(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  double denom = n * sxx - sx * sx;
  return denom == 0 ? 0.0 : (n * sxy - sx * sy) / denom;
}

/// Records an estimator's accuracy-vs-guarantee summary (obs/accuracy.h:
/// per-trial relative error against the predicted (epsilon, delta) band)
/// as an "accuracy" manifest record with the observer's ToJson fields
/// flattened in. The observer's histogram/gauges already live in the
/// metrics registry; this surfaces the verdict for
/// `bench_report.py validate`. No-op when manifests are off.
inline void RecordAccuracy(const obs::AccuracyObserver& observer) {
  obs::Json record = obs::MakeRecord("accuracy");
  // Named copy: items() returns a reference into the Json, so iterating a
  // temporary's items() would dangle.
  const obs::Json body = observer.ToJson();
  for (const auto& [key, value] : body.items()) {
    record.Set(key, value);
  }
  internal::Observability::Get().WriteMetricsRecord(record);
}

/// Records the least-squares log-log exponent fit of a measured space
/// curve (peak bytes vs T) next to the paper's predicted exponent, as a
/// "fit" manifest record. The points are also re-emitted as curve_point
/// records so `bench_report.py fit` can refit and cross-check. No-op when
/// manifests are off.
inline void FitCurve(const std::string& curve, const std::vector<double>& x,
                     const std::vector<double>& y, double predicted_exponent) {
  for (std::size_t i = 0; i < std::min(x.size(), y.size()); ++i) {
    CurvePoint(curve, x[i], y[i]);
  }
  const double fitted = LogLogSlope(x, y);
  obs::Json fit = obs::MakeRecord("fit");
  fit.Set("curve", obs::Json(curve));
  fit.Set("fitted_exponent", obs::Json(fitted));
  fit.Set("predicted_exponent", obs::Json(predicted_exponent));
  fit.Set("points", obs::Json(std::min(x.size(), y.size())));
  internal::Observability::Get().WriteMetricsRecord(fit);
}

struct TrialStats {
  double mean = 0.0;
  double median = 0.0;
  double stddev = 0.0;
  double median_rel_error = 0.0;  // vs a supplied truth
  double frac_within = 0.0;       // |est - truth| <= tol * truth
};

/// Summary statistics of a trial batch. Medians average the middle pair on
/// even sizes (matching core::Median); an empty batch yields all zeros.
inline TrialStats Summarize(std::vector<double> estimates, double truth,
                            double tolerance) {
  TrialStats s;
  if (estimates.empty()) return s;
  const double n = static_cast<double>(estimates.size());
  for (double e : estimates) s.mean += e;
  s.mean /= n;
  for (double e : estimates) s.stddev += (e - s.mean) * (e - s.mean);
  s.stddev = estimates.size() > 1 ? std::sqrt(s.stddev / (n - 1)) : 0.0;
  s.median = core::Median(estimates);
  if (truth > 0) {
    std::vector<double> rel;
    int within = 0;
    for (double e : estimates) {
      rel.push_back(std::abs(e - truth) / truth);
      within += std::abs(e - truth) <= tolerance * truth;
    }
    s.median_rel_error = core::Median(std::move(rel));
    s.frac_within = within / n;
  }
  return s;
}

/// Smallest sample size from a geometric grid for which `success_rate(m')`
/// reaches `target`. The grid is {base, base*step, ...} capped at max_value.
inline std::size_t MinimalSample(
    std::size_t base, double step, std::size_t max_value, double target,
    const std::function<double(std::size_t)>& success_rate) {
  std::size_t m_prime = base;
  while (true) {
    if (success_rate(m_prime) >= target) return m_prime;
    if (m_prime >= max_value) return max_value;
    m_prime = std::min<std::size_t>(
        max_value, static_cast<std::size_t>(std::ceil(m_prime * step)));
  }
}

/// Human-friendly bytes.
inline std::string FormatBytes(std::size_t bytes) {
  char buf[32];
  if (bytes >= 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fMiB", bytes / (1024.0 * 1024.0));
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB", bytes / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%zuB", bytes);
  }
  return buf;
}

/// printf-style prose line. In CSV mode every line is prefixed with "# " so
/// the output stays machine-readable.
inline void Note(const BenchOptions& opts, const char* fmt, ...) {
  char buf[2048];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (!opts.csv) {
    std::fputs(buf, stdout);
    return;
  }
  const char* line = buf;
  while (*line != '\0') {
    const char* newline = std::strchr(line, '\n');
    std::size_t len = newline ? static_cast<std::size_t>(newline - line)
                              : std::strlen(line);
    if (len > 0) std::printf("# %.*s", static_cast<int>(len), line);
    std::printf("\n");
    if (newline == nullptr) break;
    line = newline + 1;
  }
}

inline void PrintHeader(const BenchOptions& opts, const char* title,
                        const char* claim) {
  const char* prefix = opts.csv ? "# " : "";
  if (!opts.csv) {
    std::printf("==========================================================="
                "===================\n");
  }
  std::printf("%s%s\n", prefix, title);
  std::printf("%spaper claim: %s\n", prefix, claim);
  if (!opts.csv) {
    std::printf("==========================================================="
                "===================\n");
  }
}

/// RFC 4180 CSV quoting: a field containing a comma, double quote, or line
/// break is wrapped in double quotes with embedded quotes doubled; anything
/// else passes through untouched. Without this, a string cell like
/// "chung-lu, gamma=2.5" would silently add a column to its row.
inline std::string CsvEscape(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Column kinds for Table: non-negative values are fixed-point precisions
/// for doubles; kColInt formats integers; kColStr strings.
constexpr int kColInt = -1;
constexpr int kColStr = -2;

struct Column {
  const char* name;
  int width;      // table-mode cell width (right-aligned)
  int precision;  // >= 0, kColInt, or kColStr
};

/// One table cell; implicit from the value types the benches use.
class Cell {
 public:
  Cell(double v) : num_(v), kind_(kNum) {}                       // NOLINT
  Cell(int v) : num_(v), int_(static_cast<unsigned long long>(v)),
                kind_(kInt) {}                                   // NOLINT
  Cell(std::size_t v) : num_(static_cast<double>(v)), int_(v),
                        kind_(kInt) {}                           // NOLINT
  Cell(unsigned long long v) : num_(static_cast<double>(v)), int_(v),
                               kind_(kInt) {}                    // NOLINT
  Cell(const char* s) : str_(s), kind_(kStr) {}                  // NOLINT
  Cell(const std::string& s) : str_(s), kind_(kStr) {}           // NOLINT

  std::string Format(const Column& column) const {
    char buf[64];
    if (column.precision == kColStr) return str_;
    if (column.precision == kColInt) {
      std::snprintf(buf, sizeof(buf), "%llu",
                    kind_ == kNum ? static_cast<unsigned long long>(num_)
                                  : int_);
    } else {
      std::snprintf(buf, sizeof(buf), "%.*f", column.precision, num_);
    }
    return buf;
  }

 private:
  double num_ = 0.0;
  unsigned long long int_ = 0;
  std::string str_;
  enum Kind { kNum, kInt, kStr } kind_;
};

/// A paper-style aligned table that degrades to CSV under --csv. The
/// printed values are identical in both modes (same precision), so CSV rows
/// are exactly the table rows, comma-separated.
class Table {
 public:
  Table(const BenchOptions& opts, std::vector<Column> columns)
      : csv_(opts.csv), columns_(std::move(columns)) {}

  std::string FormatHeader() const {
    std::string out;
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      if (csv_) {
        if (i > 0) out += ',';
        out += CsvEscape(columns_[i].name);
      } else {
        if (i > 0) out += ' ';
        out += Pad(columns_[i].name, columns_[i].width);
      }
    }
    return out;
  }

  std::string FormatRow(std::initializer_list<Cell> cells) const {
    std::string out;
    std::size_t i = 0;
    for (const Cell& cell : cells) {
      const Column& column = columns_[std::min(i, columns_.size() - 1)];
      std::string text = cell.Format(column);
      if (csv_) {
        if (i > 0) out += ',';
        out += CsvEscape(text);
      } else {
        if (i > 0) out += ' ';
        out += Pad(text, column.width);
      }
      ++i;
    }
    return out;
  }

  void PrintHeader() const { std::printf("%s\n", FormatHeader().c_str()); }

  void PrintRow(std::initializer_list<Cell> cells) const {
    std::printf("%s\n", FormatRow(cells).c_str());
  }

 private:
  static std::string Pad(std::string text, int width) {
    while (static_cast<int>(text.size()) < width) {
      text.insert(text.begin(), ' ');
    }
    return text;
  }

  bool csv_;
  std::vector<Column> columns_;
};

}  // namespace bench
}  // namespace cyclestream

#endif  // CYCLESTREAM_BENCH_BENCH_UTIL_H_
