// Tests for the live-telemetry layer (PR 8): structured logging
// (obs/logger.h), the lock-free flight recorder (obs/flight_recorder.h),
// Prometheus text exposition + the periodic scraper (obs/exposition.h),
// and accuracy-vs-guarantee tracking (obs/accuracy.h).

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/accuracy.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/logger.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"

namespace cyclestream {
namespace obs {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Logger

TEST(Logger, LevelNamesRoundTrip) {
  EXPECT_STREQ(LogLevelName(LogLevel::kOff), "off");
  EXPECT_STREQ(LogLevelName(LogLevel::kError), "error");
  EXPECT_STREQ(LogLevelName(LogLevel::kDebug), "debug");
  EXPECT_EQ(ParseLogLevel("info", LogLevel::kOff), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("WARN", LogLevel::kOff), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("bogus", LogLevel::kError), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("", LogLevel::kDebug), LogLevel::kDebug);
}

TEST(Logger, EnabledRespectsLevelOrdering) {
  Logger logger(LogLevel::kWarn);
  EXPECT_TRUE(logger.Enabled(LogLevel::kError));
  EXPECT_TRUE(logger.Enabled(LogLevel::kWarn));
  EXPECT_FALSE(logger.Enabled(LogLevel::kInfo));
  EXPECT_FALSE(logger.Enabled(LogLevel::kDebug));
  // kOff as a *record* level is never emitted, whatever the logger level.
  EXPECT_FALSE(logger.Enabled(LogLevel::kOff));
  logger.SetLevel(LogLevel::kOff);
  EXPECT_FALSE(logger.Enabled(LogLevel::kError));
}

TEST(Logger, FileSinkGetsJsonlWithFixedKeyOrder) {
  const std::string path = TempPath("logger_sink.jsonl");
  Logger logger(LogLevel::kDebug);
  logger.EnableStderr(false);  // keep test output clean
  ASSERT_TRUE(logger.OpenFileSink(path).ok());
  Json fields = Json::Object();
  fields.Set("shard", Json(std::uint64_t{3}));
  logger.Log(LogLevel::kInfo, "service", "shard checkpoint", fields);
  logger.Log(LogLevel::kError, "service", "boom");

  const std::string text = ReadFile(path);
  std::istringstream lines(text);
  std::string line1, line2;
  ASSERT_TRUE(std::getline(lines, line1));
  ASSERT_TRUE(std::getline(lines, line2));
  // Fixed key order: ts_ns, level, component, msg, then caller fields.
  EXPECT_NE(line1.find("\"ts_ns\":"), std::string::npos);
  EXPECT_LT(line1.find("\"ts_ns\""), line1.find("\"level\""));
  EXPECT_LT(line1.find("\"level\""), line1.find("\"component\""));
  EXPECT_LT(line1.find("\"component\""), line1.find("\"msg\""));
  EXPECT_LT(line1.find("\"msg\""), line1.find("\"shard\":3"));
  EXPECT_NE(line1.find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(line2.find("\"level\":\"error\""), std::string::npos);
  EXPECT_EQ(logger.records_written(), 2u);
  std::remove(path.c_str());
}

TEST(Logger, DisabledLevelWritesNothing) {
  const std::string path = TempPath("logger_off.jsonl");
  Logger logger(LogLevel::kError);
  logger.EnableStderr(false);
  ASSERT_TRUE(logger.OpenFileSink(path).ok());
  logger.Log(LogLevel::kDebug, "svc", "dropped");
  logger.Log(LogLevel::kInfo, "svc", "dropped");
  EXPECT_EQ(logger.records_written(), 0u);
  EXPECT_TRUE(ReadFile(path).empty());
  std::remove(path.c_str());
}

TEST(Logger, LogScopeOnNullLoggerIsInert) {
  LogScope scope;  // no logger
  EXPECT_FALSE(scope.Enabled(LogLevel::kError));
  scope.Error("nobody hears this");
  scope.Debug("nor this");

  Logger logger(LogLevel::kInfo);
  logger.EnableStderr(false);
  LogScope bound(&logger, "driver");
  EXPECT_TRUE(bound.Enabled(LogLevel::kInfo));
  EXPECT_FALSE(bound.Enabled(LogLevel::kDebug));
  bound.Info("counted but sinkless");
  EXPECT_EQ(logger.records_written(), 1u);
}

TEST(Logger, ConcurrentWritersInterleaveWholeLines) {
  const std::string path = TempPath("logger_concurrent.jsonl");
  Logger logger(LogLevel::kInfo);
  logger.EnableStderr(false);
  ASSERT_TRUE(logger.OpenFileSink(path).ok());
  constexpr int kThreads = 4, kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&logger, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Json fields = Json::Object();
        fields.Set("writer", Json(static_cast<std::uint64_t>(t)));
        logger.Log(LogLevel::kInfo, "test", "tick", fields);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(logger.records_written(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  std::istringstream lines(ReadFile(path));
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(count, kThreads * kPerThread);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// FlightRecorder

TEST(FlightRecorder, RecordsAndCollectsInSequenceOrder) {
  FlightRecorder recorder(64);
  recorder.Record(FlightEventKind::kCreate, 0, 42);
  recorder.Record(FlightEventKind::kList, 0, 42, 7);
  recorder.Record(FlightEventKind::kEndPass, 1, 42, 1);
  std::vector<FlightEvent> events = recorder.Collect();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kCreate);
  EXPECT_EQ(events[0].a, 42u);
  EXPECT_EQ(events[1].b, 7u);
  EXPECT_EQ(events[2].shard, 1u);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
  EXPECT_EQ(recorder.recorded(), 3u);
}

TEST(FlightRecorder, RingKeepsOnlyTheMostRecentCapacityEvents) {
  FlightRecorder recorder(8);  // power of two already
  for (std::uint64_t i = 0; i < 100; ++i) {
    recorder.Record(FlightEventKind::kEnqueue, 0, i);
  }
  std::vector<FlightEvent> events = recorder.Collect();
  ASSERT_EQ(events.size(), 8u);
  // The survivors are exactly the last capacity() events, in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 92 + i);
  }
  EXPECT_EQ(recorder.recorded(), 100u);
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder recorder(100);
  EXPECT_EQ(recorder.capacity(), 128u);
  FlightRecorder tiny(0);
  EXPECT_GE(tiny.capacity(), 2u);
}

TEST(FlightRecorder, DumpTextIsJsonlWithKindNames) {
  FlightRecorder recorder(16);
  recorder.Record(FlightEventKind::kKill, 2, 5);
  recorder.Record(FlightEventKind::kError, 2, 42, 3);
  const std::string dump = recorder.DumpText();
  EXPECT_NE(dump.find("\"kind\":\"kill\""), std::string::npos);
  EXPECT_NE(dump.find("\"kind\":\"error\""), std::string::npos);
  EXPECT_NE(dump.find("\"shard\":2"), std::string::npos);
  // One JSON object per line.
  std::istringstream lines(dump);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(count, 2);
}

TEST(FlightRecorder, WriteToProducesFileAndDumpToEnvPathIsNoOpUnset) {
  FlightRecorder recorder(16);
  recorder.Record(FlightEventKind::kCheckpoint, 0, 10, 2048);
  const std::string path = TempPath("flight_dump.jsonl");
  ASSERT_TRUE(recorder.WriteTo(path).ok());
  EXPECT_NE(ReadFile(path).find("\"kind\":\"checkpoint\""),
            std::string::npos);
  std::remove(path.c_str());
  // Unset env var: OK no-op.
  unsetenv("CYCLESTREAM_FLIGHT_DUMP");
  EXPECT_TRUE(recorder.DumpToEnvPath().ok());
  EXPECT_FALSE(recorder.WriteTo("/nonexistent-dir/x/y.jsonl").ok());
  // A file that opens but cannot take the bytes is a failed write too.
  EXPECT_EQ(recorder.WriteTo("/dev/full").code(), StatusCode::kDataLoss);
}

TEST(FlightRecorder, ConcurrentWritersAndCollectorsDoNotTear) {
  // TSan target: wait-free writers racing a collector. Collect() must only
  // ever surface fully written slots.
  FlightRecorder recorder(64);
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, &stop, w] {
      std::uint64_t i = 0;
      // Record-then-check: each writer lands at least one event even if the
      // collector finishes its rounds before this thread is scheduled.
      do {
        // a encodes writer and iteration; b is its complement, so a torn
        // slot (mismatched halves) is detectable below.
        const std::uint64_t a = (static_cast<std::uint64_t>(w) << 32) | i;
        recorder.Record(FlightEventKind::kList, static_cast<std::uint32_t>(w),
                        a, ~a);
        ++i;
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  for (int round = 0; round < 50; ++round) {
    std::vector<FlightEvent> events = recorder.Collect();
    for (const FlightEvent& e : events) {
      EXPECT_EQ(e.b, ~e.a) << "torn slot surfaced by Collect()";
    }
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  std::vector<FlightEvent> events = recorder.Collect();
  EXPECT_FALSE(events.empty());
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

// ---------------------------------------------------------------------------
// Prometheus exposition

TEST(Exposition, EmptySnapshotRendersEmpty) {
  EXPECT_EQ(PrometheusText(Snapshot{}), "");
}

TEST(Exposition, CountersGaugesAndLabelsRender) {
  MetricsRegistry registry;
  registry.GetCounter("service.errors_latched/shard=0").Increment(0);
  registry.GetCounter("service.errors_latched/shard=1").Increment(2);
  registry.GetGauge("accuracy.within_band/estimator=two-pass").Set(1.0);
  const std::string text = PrometheusText(registry.Read());
  EXPECT_NE(text.find("# TYPE service_errors_latched counter"),
            std::string::npos);
  EXPECT_NE(text.find("service_errors_latched{shard=\"0\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("service_errors_latched{shard=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE accuracy_within_band gauge"),
            std::string::npos);
  EXPECT_NE(text.find("accuracy_within_band{estimator=\"two-pass\"} 1.0"),
            std::string::npos);
  // One # TYPE line per family, even with two labeled series.
  std::size_t first = text.find("# TYPE service_errors_latched");
  EXPECT_EQ(text.find("# TYPE service_errors_latched", first + 1),
            std::string::npos);
}

TEST(Exposition, HistogramBucketsAreCumulativeAndEndAtInf) {
  MetricsRegistry registry;
  Histogram h = registry.GetHistogram("svc.depth", {1.0, 2.0, 4.0});
  h.Observe(0.5);
  h.Observe(1.5);
  h.Observe(100.0);  // overflow bucket
  const std::string text = PrometheusText(registry.Read());
  EXPECT_NE(text.find("# TYPE svc_depth histogram"), std::string::npos);
  EXPECT_NE(text.find("svc_depth_bucket{le=\"1.0\"} 1"), std::string::npos);
  EXPECT_NE(text.find("svc_depth_bucket{le=\"2.0\"} 2"), std::string::npos);
  EXPECT_NE(text.find("svc_depth_bucket{le=\"4.0\"} 2"), std::string::npos);
  EXPECT_NE(text.find("svc_depth_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("svc_depth_count 3"), std::string::npos);
  EXPECT_NE(text.find("svc_depth_sum 102.0"), std::string::npos);
}

TEST(Exposition, OutputIsDeterministicAndNameSorted) {
  MetricsRegistry registry;
  registry.GetCounter("zzz.last").Increment();
  registry.GetCounter("aaa.first").Increment();
  const std::string a = PrometheusText(registry.Read());
  const std::string b = PrometheusText(registry.Read());
  EXPECT_EQ(a, b);
  EXPECT_LT(a.find("aaa_first"), a.find("zzz_last"));
}

TEST(Exposition, WritePrometheusTextRoundTrips) {
  MetricsRegistry registry;
  registry.GetCounter("c").Increment(5);
  const std::string path = TempPath("scrape_roundtrip.prom");
  ASSERT_TRUE(WritePrometheusText(registry.Read(), path).ok());
  EXPECT_EQ(ReadFile(path), PrometheusText(registry.Read()));
  std::remove(path.c_str());
  EXPECT_FALSE(
      WritePrometheusText(registry.Read(), "/nonexistent-dir/x.prom").ok());
  EXPECT_EQ(WritePrometheusText(registry.Read(), "/dev/full").code(),
            StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// PeriodicScraper

TEST(PeriodicScraper, StopWritesAFinalScrape) {
  MetricsRegistry registry;
  registry.GetCounter("c").Increment(7);
  const std::string path = TempPath("scraper_final.prom");
  runtime::ThreadPool pool(1);
  {
    PeriodicScraper scraper(
        &pool, [&registry] { return PrometheusText(registry.Read()); }, path,
        std::chrono::milliseconds(60000));  // never fires on its own
    scraper.Stop();
    EXPECT_GE(scraper.scrapes(), 1u);
  }
  EXPECT_NE(ReadFile(path).find("c 7"), std::string::npos);
  std::remove(path.c_str());
}

TEST(PeriodicScraper, PeriodicTicksRewriteTheFile) {
  MetricsRegistry registry;
  std::atomic<std::uint64_t> ticks{0};
  const std::string path = TempPath("scraper_ticks.prom");
  runtime::ThreadPool pool(1);
  PeriodicScraper scraper(
      &pool,
      [&ticks] {
        ticks.fetch_add(1);
        return std::string("# TYPE c counter\nc 1\n");
      },
      path, std::chrono::milliseconds(5));
  // Wait for at least two periodic (non-final) scrapes.
  for (int i = 0; i < 2000 && scraper.scrapes() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(scraper.scrapes(), 2u);
  scraper.Stop();
  EXPECT_EQ(ReadFile(path), "# TYPE c counter\nc 1\n");
  EXPECT_GE(ticks.load(), scraper.scrapes());
  std::remove(path.c_str());
}

TEST(PeriodicScraper, SelfObservabilityRecordsScrapesAndErrors) {
  MetricsRegistry registry;
  registry.GetCounter("c").Increment(1);
  const std::string path = TempPath("scraper_self.prom");
  runtime::ThreadPool pool(1);
  {
    PeriodicScraper scraper(
        &pool, [&registry] { return PrometheusText(registry.Read()); }, path,
        std::chrono::milliseconds(60000), &registry);
    scraper.Stop();  // final scrape observes itself
  }
  Snapshot snap = registry.Read();
  EXPECT_GE(snap.counters["scraper.scrapes"], 1u);
  EXPECT_EQ(snap.counters["scraper.errors"], 0u);
  ASSERT_GT(snap.histograms["scraper.scrape_seconds"].count, 0u);
  // The scrape's own metrics land in the file it writes (the final scrape
  // renders the registry after observing at least one earlier state; the
  // family names must be present once a prior scrape happened).
  std::remove(path.c_str());

  // Unwritable path: the error counter moves instead of the success path.
  {
    PeriodicScraper scraper(
        &pool, [&registry] { return PrometheusText(registry.Read()); },
        "/nonexistent-dir/self.prom", std::chrono::milliseconds(60000),
        &registry);
    scraper.Stop();
  }
  snap = registry.Read();
  EXPECT_GE(snap.counters["scraper.errors"], 1u);
}

TEST(PeriodicScraper, StopIsIdempotent) {
  const std::string path = TempPath("scraper_idem.prom");
  runtime::ThreadPool pool(1);
  PeriodicScraper scraper(
      &pool, [] { return std::string("x 1\n"); }, path,
      std::chrono::milliseconds(60000));
  scraper.Stop();
  const std::uint64_t after_first = scraper.scrapes();
  scraper.Stop();  // no-op
  EXPECT_EQ(scraper.scrapes(), after_first);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// AccuracyObserver

TEST(Accuracy, RelativeErrorUsesMaxTruthOne) {
  EXPECT_DOUBLE_EQ(RelativeError(110.0, 100.0), 0.1);
  EXPECT_DOUBLE_EQ(RelativeError(90.0, 100.0), 0.1);
  // truth == 0: denominator clamps to 1 (absolute error).
  EXPECT_DOUBLE_EQ(RelativeError(3.0, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(RelativeError(0.0, 0.0), 0.0);
}

TEST(Accuracy, BandVerdictTracksFraction) {
  AccuracyObserver obs(nullptr, "test", AccuracyBand{0.25, 1.0 / 3.0});
  EXPECT_TRUE(obs.WithinBand());  // vacuous at 0 trials
  obs.Observe(100.0, 100.0);     // within
  obs.Observe(120.0, 100.0);     // within (0.20 <= 0.25)
  obs.Observe(200.0, 100.0);     // outside (1.00)
  EXPECT_EQ(obs.trials(), 3u);
  EXPECT_EQ(obs.within(), 2u);
  EXPECT_DOUBLE_EQ(obs.FracWithin(), 2.0 / 3.0);
  EXPECT_TRUE(obs.WithinBand());  // 2/3 >= 1 - 1/3
  obs.Observe(200.0, 100.0);      // outside -> 2/4 < 2/3
  EXPECT_FALSE(obs.WithinBand());
}

TEST(Accuracy, GaugesAndHistogramLandInRegistry) {
  MetricsRegistry registry;
  AccuracyObserver obs(&registry, "two-pass", AccuracyBand{0.5, 1.0 / 3.0});
  obs.Observe(100.0, 100.0);
  obs.Observe(400.0, 100.0);
  const Snapshot snap = registry.Read();
  ASSERT_EQ(snap.gauges.count("accuracy.frac_within/estimator=two-pass"), 1u);
  ASSERT_EQ(snap.gauges.count("accuracy.within_band/estimator=two-pass"), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("accuracy.frac_within/estimator=two-pass"),
                   0.5);
  EXPECT_DOUBLE_EQ(snap.gauges.at("accuracy.within_band/estimator=two-pass"),
                   0.0);  // 0.5 < 2/3
  ASSERT_EQ(snap.histograms.count("accuracy.rel_error/estimator=two-pass"),
            1u);
  EXPECT_EQ(snap.histograms.at("accuracy.rel_error/estimator=two-pass").count,
            2u);
  // And the whole thing renders as a scrape with the band gauge.
  const std::string text = PrometheusText(snap);
  EXPECT_NE(text.find("accuracy_within_band{estimator=\"two-pass\"} 0.0"),
            std::string::npos);
}

TEST(Accuracy, ToJsonCarriesTheManifestRecordBody) {
  AccuracyObserver obs(nullptr, "wedge", AccuracyBand{0.25, 0.2});
  obs.Observe(100.0, 100.0);
  obs.Observe(150.0, 100.0);
  const Json body = obs.ToJson();
  EXPECT_EQ(body.Find("estimator")->Dump(), "\"wedge\"");
  EXPECT_EQ(body.Find("trials")->Dump(), "2");
  EXPECT_EQ(body.Find("within")->Dump(), "1");
  EXPECT_EQ(body.Find("within_band")->Dump(), "false");
  EXPECT_DOUBLE_EQ(body.Find("frac_within")->AsDouble(), 0.5);
  EXPECT_DOUBLE_EQ(body.Find("max_rel_error")->AsDouble(), 0.5);
  EXPECT_DOUBLE_EQ(body.Find("mean_rel_error")->AsDouble(), 0.25);
}

}  // namespace
}  // namespace obs
}  // namespace cyclestream
