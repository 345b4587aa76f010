#include "obs/prof.h"

#include <atomic>
#include <ctime>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#define CYCLESTREAM_HAVE_PERF_EVENT 1
#else
#define CYCLESTREAM_HAVE_PERF_EVENT 0
#endif

namespace cyclestream {
namespace obs {

namespace {

// ProfCounters slot indices (kProfFields order), shared by the perf open
// order and Read().
enum CounterSlot {
  kSlotCycles = 0,
  kSlotInstructions = 1,
  kSlotCacheReferences = 2,
  kSlotCacheMisses = 3,
  kSlotBranchMisses = 4,
  kSlotTaskClock = 5,
  kNumSlots = 6,
};

std::uint64_t ThreadCpuNowNs() {
  // CLOCK_THREAD_CPUTIME_ID is the high-resolution spelling of
  // getrusage(RUSAGE_THREAD)'s ru_utime+ru_stime; both count the same
  // per-thread CPU time, this one at nanosecond granularity.
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t NextProfilerId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

const char* ProfBackendName(ProfBackend backend) {
  switch (backend) {
    case ProfBackend::kPerfEvent:
      return "perf_event";
    case ProfBackend::kRusage:
      return "rusage";
    case ProfBackend::kDisabled:
      break;
  }
  return "disabled";
}

void ProfCounters::Add(const ProfCounters& other) {
  for (const auto& [name, field] : kProfFields) this->*field += other.*field;
}

ProfCounters ProfCounters::Minus(const ProfCounters& other) const {
  auto sub = [](std::uint64_t a, std::uint64_t b) { return a > b ? a - b : 0; };
  ProfCounters out;
  for (const auto& [name, field] : kProfFields) {
    out.*field = sub(this->*field, other.*field);
  }
  return out;
}

double ProfCounters::Ipc() const {
  if (cycles == 0) return 0.0;
  return static_cast<double>(instructions) / static_cast<double>(cycles);
}

bool ProfCounters::IsZero() const {
  for (const auto& [name, field] : kProfFields) {
    if (this->*field != 0) return false;
  }
  return true;
}

Json ProfCounters::ToJson() const {
  Json out = Json::Object();
  for (const auto& [name, field] : kProfFields) {
    out.Set(name, Json(static_cast<double>(this->*field)));
  }
  return out;
}

CounterSet::CounterSet(ProfBackend want) {
  if (want == ProfBackend::kDisabled) {
    backend_ = ProfBackend::kDisabled;
    return;
  }
  if (want == ProfBackend::kPerfEvent) OpenPerf();
  if (backend_ != ProfBackend::kPerfEvent) {
    // The fallback chain's floor: per-thread CPU time via clock_gettime.
    // Never fails in practice; a failing clock_gettime just reads zero.
    backend_ = ProfBackend::kRusage;
    cpu_origin_ns_ = ThreadCpuNowNs();
  }
}

void CounterSet::OpenPerf() {
#if CYCLESTREAM_HAVE_PERF_EVENT
  struct EventSpec {
    std::uint32_t type;
    std::uint64_t config;
    int slot;
  };
  // The leader must come first: group reads are rejected unless every
  // member shares the leader's fd.
  static constexpr EventSpec kEvents[] = {
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, kSlotCycles},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS, kSlotInstructions},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES,
       kSlotCacheReferences},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES, kSlotCacheMisses},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES, kSlotBranchMisses},
      {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK, kSlotTaskClock},
  };
  for (const EventSpec& spec : kEvents) {
    struct perf_event_attr attr;
    __builtin_memset(&attr, 0, sizeof(attr));
    attr.type = spec.type;
    attr.size = sizeof(attr);
    attr.config = spec.config;
    attr.disabled = fds_.empty() ? 1 : 0;  // enable the whole group at once
    attr.exclude_kernel = 1;  // stays below perf_event_paranoid <= 2
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_GROUP;
    const int group_fd = fds_.empty() ? -1 : fds_.front();
    const long fd = syscall(SYS_perf_event_open, &attr, /*pid=*/0, /*cpu=*/-1,
                            group_fd, /*flags=*/0UL);
    if (fd < 0) {
      if (fds_.empty()) {
        // No leader: perf is unavailable (no PMU, seccomp, or paranoid
        // level) — the caller falls back to the rusage backend.
        return;
      }
      // A member the PMU doesn't offer (common for cache/branch events
      // on small VMs): skip it, its slot reads as zero.
      continue;
    }
    fds_.push_back(static_cast<int>(fd));
    slots_.push_back(spec.slot);
  }
  if (ioctl(fds_.front(), PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP) != 0) {
    for (int fd : fds_) close(fd);
    fds_.clear();
    slots_.clear();
    return;
  }
  backend_ = ProfBackend::kPerfEvent;
#endif
}

CounterSet::~CounterSet() {
#if CYCLESTREAM_HAVE_PERF_EVENT
  for (int fd : fds_) close(fd);
#endif
}

ProfCounters CounterSet::Read() const {
  ProfCounters out;
  switch (backend_) {
    case ProfBackend::kDisabled:
      break;
    case ProfBackend::kRusage:
      out.task_clock_ns = ThreadCpuNowNs() - cpu_origin_ns_;
      break;
    case ProfBackend::kPerfEvent: {
#if CYCLESTREAM_HAVE_PERF_EVENT
      // PERF_FORMAT_GROUP layout: { u64 nr; u64 values[nr]; } — one
      // atomic snapshot of every member, in open order.
      std::uint64_t buf[1 + kNumSlots] = {0};
      const ssize_t n = read(fds_.front(), buf, sizeof(buf));
      if (n < static_cast<ssize_t>(sizeof(std::uint64_t))) break;
      const std::uint64_t nr = buf[0];
      // Slot indices follow kProfFields' order.
      for (std::size_t i = 0; i < slots_.size() && i < nr; ++i) {
        out.*kProfFields[slots_[i]].second = buf[1 + i];
      }
#endif
      break;
    }
  }
  return out;
}

Profiler::Profiler() : Profiler(Options()) {}

Profiler::Profiler(Options options)
    : id_(NextProfilerId()), trace_(options.trace) {
  // Resolve the backend once, here, with a throwaway probe set: every
  // thread's CounterSet is then opened with the resolved backend, so
  // aggregates never mix perf counts with rusage counts.
  CounterSet probe(options.backend);
  backend_ = probe.backend();
  fallback_ = options.backend == ProfBackend::kPerfEvent &&
              backend_ != ProfBackend::kPerfEvent;
}

Profiler::~Profiler() = default;

CounterSet* Profiler::ThreadCounters() {
  // Same pattern as MetricsRegistry::LocalShard: cache keyed by a
  // never-reused profiler id, so entries of destroyed profilers can't
  // alias a live one.
  thread_local std::unordered_map<std::uint64_t, CounterSet*> cache;
  auto it = cache.find(id_);
  if (it != cache.end()) return it->second;
  auto set = std::make_unique<CounterSet>(backend_);
  CounterSet* raw = set.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    sets_.push_back(std::move(set));
  }
  cache.emplace(id_, raw);
  return raw;
}

void Profiler::Accumulate(std::string_view scope, const ProfCounters& delta) {
  ProfCounters totals;
  std::uint64_t count = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Aggregate& agg = aggregates_[std::string(scope)];
    agg.count++;
    agg.totals.Add(delta);
    totals = agg.totals;
    count = agg.count;
  }
  if (trace_ != nullptr) {
    // One counter-track sample per scope end: Perfetto renders the
    // cumulative series as a stepped "prof.<scope>" track.
    Json values = totals.ToJson();
    values.Set("count", Json(static_cast<double>(count)));
    trace_->EmitCounter("prof." + std::string(scope), trace_->NowNs(),
                        std::move(values));
  }
}

std::map<std::string, Profiler::Aggregate> Profiler::Read() const {
  std::lock_guard<std::mutex> lock(mu_);
  return aggregates_;
}

void Profiler::ExportMetrics(MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  registry->GetGauge("prof.fallback").Set(fallback_ ? 1.0 : 0.0);
  const auto aggregates = Read();
  for (const auto& [scope, agg] : aggregates) {
    // ',' would split the label list in the internal metric-name grammar
    // ("base/k=v,k2=v2"); scope names with commas degrade to ';'.
    std::string safe = scope;
    for (char& c : safe) {
      if (c == ',') c = ';';
    }
    const std::string suffix = "/scope=" + safe;
    registry->GetGauge("prof.scopes" + suffix)
        .Set(static_cast<double>(agg.count));
    for (const auto& [name, field] : kProfFields) {
      if (field == &ProfCounters::task_clock_ns) continue;  // as seconds
      registry->GetGauge(std::string("prof.") + name + suffix)
          .Set(static_cast<double>(agg.totals.*field));
    }
    registry->GetGauge("prof.task_clock_seconds" + suffix)
        .Set(static_cast<double>(agg.totals.task_clock_ns) * 1e-9);
  }
}

ProfCounters ProfScope::End() {
  if (profiler_ == nullptr) return ProfCounters();
  const ProfCounters delta = counters_->Read().Minus(start_);
  profiler_->Accumulate(scope_, delta);
  profiler_ = nullptr;
  return delta;
}

}  // namespace obs
}  // namespace cyclestream
