#include "runtime/trial_runner.h"

#include <algorithm>

#include "obs/prof.h"
#include "obs/trace.h"
#include "util/random.h"

namespace cyclestream {
namespace runtime {

std::uint64_t TrialSeed(std::uint64_t base_seed, std::size_t trial_index) {
  // State of a SplitMix64 generator seeded with base_seed after trial_index
  // steps; one more step yields stream element trial_index in O(1).
  std::uint64_t state =
      base_seed + static_cast<std::uint64_t>(trial_index) *
                      0x9e3779b97f4a7c15ULL;
  return SplitMix64(&state);
}

TrialRunner::TrialRunner(int num_threads) {
  if (num_threads > 1) {
    owned_pool_ = std::make_unique<ThreadPool>(num_threads);
    pool_ = owned_pool_.get();
  }
}

TrialRunner::TrialRunner(ThreadPool* pool) : pool_(pool) {
  if (pool_ != nullptr && pool_->num_threads() <= 1) pool_ = nullptr;
}

int TrialRunner::num_threads() const {
  return pool_ == nullptr ? 1 : pool_->num_threads();
}

std::vector<TrialResult> TrialRunner::Run(
    std::size_t num_trials, std::uint64_t base_seed, const TrialFn& fn,
    std::vector<TrialTiming>* timings, const obs::Observer& observe) const {
  if (timings != nullptr) {
    timings->assign(num_trials, TrialTiming{});
  }
  // Submission time for queue-wait measurement: one timestamp for the
  // batch, taken just before the Map fans out. Queue wait for inline runs
  // stays 0 — there is no queue.
  const auto submit = std::chrono::steady_clock::now();
  const bool inline_run = pool_ == nullptr || num_trials <= 1;
  return Map<TrialResult>(
      num_trials, base_seed,
      [&fn, &observe, timings, submit, inline_run](std::size_t i,
                                                   std::uint64_t seed) {
        obs::TraceSession::Span span;
        if (observe.trace != nullptr) {
          // Name the lane so Perfetto shows "trial-worker-N" instead of a
          // bare lane id (idempotent; "main" for inline runs).
          observe.trace->SetThreadName(
              inline_run ? "main"
                         : "trial-worker-" +
                               std::to_string(
                                   obs::TraceSession::CurrentLane()));
          span = obs::TraceSession::Begin(
              observe.trace, "trial " + std::to_string(i), "trial");
        }
        obs::ProfScope prof_scope =
            obs::Profiler::Begin(observe.prof, "runtime.trial");
        const auto start = std::chrono::steady_clock::now();
        TrialResult result = fn(i, seed);
        prof_scope.End();
        span.End();
        if (timings != nullptr) {
          // Slot i is owned by trial i (pre-sized above), so no locking.
          TrialTiming& t = (*timings)[i];
          t.wall_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
          t.queue_wait_seconds =
              inline_run
                  ? 0.0
                  : std::chrono::duration<double>(start - submit).count();
        }
        return result;
      });
}

std::vector<double> TrialRunner::Estimates(
    const std::vector<TrialResult>& results) {
  std::vector<double> out;
  out.reserve(results.size());
  for (const TrialResult& r : results) out.push_back(r.estimate);
  return out;
}

std::vector<double> TrialRunner::AuxEstimates(
    const std::vector<TrialResult>& results) {
  std::vector<double> out;
  out.reserve(results.size());
  for (const TrialResult& r : results) out.push_back(r.aux);
  return out;
}

std::size_t TrialRunner::MaxReportedPeak(
    const std::vector<TrialResult>& results) {
  std::size_t peak = 0;
  for (const TrialResult& r : results)
    peak = std::max(peak, r.reported_peak_bytes);
  return peak;
}

std::size_t TrialRunner::MaxAuditedPeak(
    const std::vector<TrialResult>& results) {
  std::size_t peak = 0;
  for (const TrialResult& r : results)
    peak = std::max(peak, r.audited_peak_bytes);
  return peak;
}

std::size_t TrialRunner::MaxDivergence(
    const std::vector<TrialResult>& results) {
  std::size_t max = 0;
  for (const TrialResult& r : results)
    max = std::max(max, r.max_divergence_bytes);
  return max;
}

double TrialRunner::TotalWallSeconds(const std::vector<TrialTiming>& timings) {
  double total = 0.0;
  for (const TrialTiming& t : timings) total += t.wall_seconds;
  return total;
}

double TrialRunner::TotalQueueWaitSeconds(
    const std::vector<TrialTiming>& timings) {
  double total = 0.0;
  for (const TrialTiming& t : timings) total += t.queue_wait_seconds;
  return total;
}

}  // namespace runtime
}  // namespace cyclestream
