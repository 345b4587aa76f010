// Prometheus-style text exposition for MetricsRegistry snapshots, plus a
// periodic background scraper.
//
// Internal metric names use dots and an optional `/k=v,k2=v2` suffix
// ("service.errors_latched/shard=2"). The exposition splits the suffix
// into Prometheus labels and sanitizes the base name to [a-zA-Z0-9_:]
// (dots become underscores):
//
//   service.errors_latched/shard=2  ->  service_errors_latched{shard="2"}
//
// Counters emit `# TYPE <name> counter` + one sample; gauges likewise.
// Histograms emit the standard cumulative form: `<name>_bucket{le="..."}`
// lines (cumulative counts, ending with le="+Inf"), `<name>_sum`, and
// `<name>_count`. Output is name-sorted and deterministic for a given
// snapshot; `scripts/bench_report.py scrape` validates the format.

#ifndef CYCLESTREAM_OBS_EXPOSITION_H_
#define CYCLESTREAM_OBS_EXPOSITION_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "util/status.h"

namespace cyclestream {
namespace runtime {
class ThreadPool;
}  // namespace runtime

namespace obs {

/// Renders `snapshot` in the Prometheus text exposition format (version
/// 0.0.4). Deterministic: metrics appear in name-sorted order.
std::string PrometheusText(const Snapshot& snapshot);

/// Writes PrometheusText(snapshot) to `path` (truncating) via
/// WriteTextFile (obs/manifest.h): NotFound when the file cannot be
/// opened, DataLoss when the write or close fails.
Status WritePrometheusText(const Snapshot& snapshot, const std::string& path);

/// Periodically renders a scrape to a file from a `runtime::ThreadPool`
/// worker. The scraper occupies exactly one worker for its lifetime (the
/// pool's nesting caveat applies: give it a dedicated pool, or a pool with
/// a spare thread). Each tick calls `scrape()` — typically
/// `EstimatorService::ScrapeMetrics` or a PrometheusText(registry.Read())
/// lambda — and rewrites `path` via a temp-file rename so readers never
/// see a torn scrape.
class PeriodicScraper {
 public:
  /// Starts scraping every `interval` onto `path`. The first scrape
  /// happens after one interval, not immediately; Stop() always writes a
  /// final scrape so the file exists even for short runs.
  ///
  /// `self_metrics` (optional) makes the scraper observe itself into the
  /// registry it typically scrapes: `scraper.scrape_seconds` (histogram
  /// of render+write duration), `scraper.scrapes` and `scraper.errors`
  /// (counters; an error is a failed temp-file open, write or close —
  /// which skips the rename — or a failed rename). Self-samples recorded during scrape N appear in
  /// scrape N+1 — the registry read happens inside `scrape()`.
  PeriodicScraper(runtime::ThreadPool* pool,
                  std::function<std::string()> scrape, std::string path,
                  std::chrono::milliseconds interval,
                  MetricsRegistry* self_metrics = nullptr);

  /// Stops the loop (idempotent) and joins the worker-side task.
  ~PeriodicScraper();

  PeriodicScraper(const PeriodicScraper&) = delete;
  PeriodicScraper& operator=(const PeriodicScraper&) = delete;

  /// Signals the loop to exit, waits for it, and writes the final scrape.
  void Stop();

  /// Completed scrape writes so far (including the final one).
  std::uint64_t scrapes() const {
    return scrapes_.load(std::memory_order_relaxed);
  }

 private:
  void WriteOnce();

  const std::function<std::string()> scrape_;
  const std::string path_;
  const std::chrono::milliseconds interval_;
  Histogram scrape_seconds_;
  Counter scrape_count_;
  Counter scrape_errors_;
  const bool self_metrics_ = false;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;          // guarded by mu_
  bool stopped_ = false;       // Stop() already ran (main-thread only)
  std::atomic<std::uint64_t> scrapes_{0};
  std::future<void> done_;
};

}  // namespace obs
}  // namespace cyclestream

#endif  // CYCLESTREAM_OBS_EXPOSITION_H_
