// Hardware-counter profiling: perf_event-backed counter sets with a
// graceful fallback chain, and a scope/aggregate API that the driver,
// the trial runtime, and the service drain loop all share.
//
// A CounterSet owns one perf_event group for the calling thread —
// cycles (leader), instructions, cache references/misses, branch
// misses, and software task-clock — read atomically with one
// PERF_FORMAT_GROUP read(2) so the ratios (IPC, miss rate) are
// internally consistent. When perf_event_open is unavailable (no PMU,
// seccomp, or perf_event_paranoid too strict — the normal state of CI
// containers) the set silently degrades to a getrusage/clock_gettime
// backend that still provides task-clock, and nothing else. Opening a
// CounterSet never fails: the worst backend is "task-clock only".
//
// A Profiler hands out per-thread CounterSets (same registry-id-keyed
// thread-local cache as MetricsRegistry) and accumulates named scope
// aggregates. ProfScope is the RAII unit of attribution:
//
//   obs::ProfScope scope = obs::Profiler::Begin(prof, "driver.pass/pass=0");
//   ... work ...
//   obs::ProfCounters delta = scope.End();   // or let the destructor end it
//
// Scopes are inclusive: a nested scope's counts are also part of its
// enclosing scope's delta, exactly like wall-clock spans. A null
// Profiler* makes Begin() a no-op — profiling disabled costs one
// branch, so it can sit on the driver's per-pass hot path permanently.
//
// Export surfaces (all driven by the aggregates, none on the hot path):
//   - manifest `prof` records (bench_util emits one per scope),
//   - Prometheus gauges via ExportMetrics ("prof.cycles/scope=..."),
//   - Chrome-trace counter tracks (ph:"C") when a TraceSession is
//     attached, one sample per scope end.

#ifndef CYCLESTREAM_OBS_PROF_H_
#define CYCLESTREAM_OBS_PROF_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace cyclestream {
namespace obs {

class MetricsRegistry;
class TraceSession;

/// Which counting machinery backs a CounterSet.
enum class ProfBackend {
  kDisabled = 0,   // never counts; Read() is all zeros
  kPerfEvent = 1,  // perf_event_open group, hardware + task-clock
  kRusage = 2,     // clock_gettime(CLOCK_THREAD_CPUTIME_ID): task-clock only
};

/// Stable lowercase names used in manifests and metrics labels.
const char* ProfBackendName(ProfBackend backend);

/// One consistent sample (or delta) of the counter group. Counters that
/// the active backend cannot provide read as zero.
struct ProfCounters {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t task_clock_ns = 0;

  void Add(const ProfCounters& other);
  /// this - other, saturating at zero per field (counters are monotone,
  /// so saturation only absorbs backend quirks, never real data).
  ProfCounters Minus(const ProfCounters& other) const;
  /// Instructions per cycle; 0 when cycles are unavailable.
  double Ipc() const;
  bool IsZero() const;
  /// {"cycles":...,"instructions":...,...} — field names match the
  /// manifest `prof` record schema.
  Json ToJson() const;
};

/// Every ProfCounters field with its stable name (the manifest `prof`
/// record's key), in declaration order.
inline constexpr std::pair<const char*, std::uint64_t ProfCounters::*>
    kProfFields[] = {
        {"cycles", &ProfCounters::cycles},
        {"instructions", &ProfCounters::instructions},
        {"cache_references", &ProfCounters::cache_references},
        {"cache_misses", &ProfCounters::cache_misses},
        {"branch_misses", &ProfCounters::branch_misses},
        {"task_clock_ns", &ProfCounters::task_clock_ns},
};

/// A thread-affine counter group. Counts the constructing thread from
/// construction until destruction; Read() is cumulative and monotone.
/// Construction never fails — it resolves the best available backend
/// (or honors an explicit request, still falling back if denied).
class CounterSet {
 public:
  explicit CounterSet(ProfBackend want = ProfBackend::kPerfEvent);
  ~CounterSet();

  CounterSet(const CounterSet&) = delete;
  CounterSet& operator=(const CounterSet&) = delete;

  ProfBackend backend() const { return backend_; }

  /// Cumulative counts since construction, from one grouped read. Only
  /// the owning thread may call this.
  ProfCounters Read() const;

 private:
  void OpenPerf();

  ProfBackend backend_ = ProfBackend::kDisabled;
  // Parallel arrays: fds_[i] belongs to the event whose ProfCounters
  // slot index is slots_[i]; fds_[0] is the group leader.
  std::vector<int> fds_;
  std::vector<int> slots_;
  std::uint64_t cpu_origin_ns_ = 0;  // rusage backend epoch
};

class ProfScope;

/// Shared profiling state: resolves one backend for the process, owns
/// per-thread CounterSets, and folds ProfScope deltas into named
/// aggregates. Thread-safe throughout.
class Profiler {
 public:
  struct Options {
    /// Preferred backend; kPerfEvent falls back to kRusage when denied.
    ProfBackend backend = ProfBackend::kPerfEvent;
    /// Optional: every scope end also emits a Chrome-trace counter
    /// sample (ph:"C") of that scope's cumulative totals.
    TraceSession* trace = nullptr;
  };

  Profiler();  // Profiler(Options{}): preferred perf backend, no trace
  explicit Profiler(Options options);
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// The backend every thread's CounterSet uses (resolved once, on the
  /// constructing thread, so mixed-backend aggregates cannot happen).
  ProfBackend backend() const { return backend_; }

  /// True when a perf backend was requested but denied — the manifest
  /// `fallback` flag, so downstream tooling knows IPC is unavailable.
  bool fallback() const { return fallback_; }

  /// Per-scope totals plus how many scopes contributed to each.
  struct Aggregate {
    std::uint64_t count = 0;
    ProfCounters totals;
  };

  /// Snapshot of all named aggregates (name-sorted for determinism).
  std::map<std::string, Aggregate> Read() const;

  /// Folds one delta into `scope`'s aggregate (normally called by
  /// ProfScope::End, but exposed for backend-less accounting).
  void Accumulate(std::string_view scope, const ProfCounters& delta);

  /// The calling thread's CounterSet, created on first use and owned by
  /// the profiler.
  CounterSet* ThreadCounters();

  /// Opens a scope on `profiler`, which may be null (then the scope is
  /// inert). Mirrors TraceSession::Begin.
  static ProfScope Begin(Profiler* profiler, std::string scope);

  /// Writes one gauge per (scope, counter) into `registry`:
  /// "prof.<counter>/scope=<scope>", plus "prof.fallback" (0/1).
  void ExportMetrics(MetricsRegistry* registry) const;

 private:
  friend class ProfScope;

  const std::uint64_t id_;
  ProfBackend backend_ = ProfBackend::kDisabled;
  bool fallback_ = false;
  TraceSession* trace_ = nullptr;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<CounterSet>> sets_;
  std::map<std::string, Aggregate> aggregates_;
};

/// RAII attribution scope. Reads the thread's counters at construction
/// and again at End() (or destruction); the delta lands in the
/// profiler's aggregate for `scope`. Move-only; inert when constructed
/// from a null profiler, which is the only cost of disabled profiling.
class ProfScope {
 public:
  ProfScope() = default;
  ProfScope(Profiler* profiler, std::string scope)
      : profiler_(profiler), scope_(std::move(scope)) {
    if (profiler_ == nullptr) return;  // the one disabled-path branch
    counters_ = profiler_->ThreadCounters();
    start_ = counters_->Read();
  }
  ProfScope(ProfScope&& other) noexcept
      : profiler_(other.profiler_),
        counters_(other.counters_),
        scope_(std::move(other.scope_)),
        start_(other.start_) {
    other.profiler_ = nullptr;
  }
  ProfScope& operator=(ProfScope&& other) noexcept {
    if (this != &other) {
      End();
      profiler_ = other.profiler_;
      counters_ = other.counters_;
      scope_ = std::move(other.scope_);
      start_ = other.start_;
      other.profiler_ = nullptr;
    }
    return *this;
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;
  ~ProfScope() { End(); }

  /// Ends the scope now and returns its delta (zeros if inert or
  /// already ended). Must run on the thread that constructed the scope
  /// (counter sets are thread-affine, like the spans they mirror).
  ProfCounters End();

 private:
  Profiler* profiler_ = nullptr;
  CounterSet* counters_ = nullptr;
  std::string scope_;
  ProfCounters start_;
};

inline ProfScope Profiler::Begin(Profiler* profiler, std::string scope) {
  return ProfScope(profiler, std::move(scope));
}

}  // namespace obs
}  // namespace cyclestream

#endif  // CYCLESTREAM_OBS_PROF_H_
