// Estimator golden file: every hosted estimator kind, on one Erdős–Rényi
// and one Chung–Lu graph, at slots m/64 and m/8, must reproduce the
// committed record bit for bit. A cell's record holds
//   - the estimate as a hexfloat,
//   - the full RunReport (peaks, divergence, pairs, per-pass peaks),
//   - the CRC-32 of the final Serialize envelope,
//   - a digest of the whole SpaceTracer sequence (pass, pairs, reported,
//     audited) — every list-boundary sample, not only the peak.
// Performance rewrites of an estimator's inner loop must keep every one of
// these fields: the same allocations, the same space report at every
// boundary and the same snapshot bytes.
//
// Regenerate (only when a change is meant to move these fields):
//   CYCLESTREAM_UPDATE_GOLDEN=1 ./tests/estimator_golden_test

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gen/chung_lu.h"
#include "gen/erdos_renyi.h"
#include "graph/graph.h"
#include "obs/space_tracer.h"
#include "service/estimator_host.h"
#include "snapshot/snapshot.h"
#include "stream/adjacency_stream.h"
#include "stream/driver.h"
#include "stream/random_order_stream.h"
#include "util/hashing.h"

namespace cyclestream {
namespace {

using service::EstimatorKind;

std::string Hex(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex << v;
  return out.str();
}

std::uint32_t EnvelopeCrc(const stream::StreamAlgorithm& algo) {
  snapshot::SnapshotWriter w;
  algo.Serialize(w);
  // The envelope ends with the CRC-32 of everything before it.
  const std::vector<std::uint8_t> bytes = std::move(w).Finish();
  return snapshot::Crc32(
      std::span<const std::uint8_t>(bytes.data(), bytes.size() - 4));
}

// Chained Mix128To64 over every (pass, pairs, reported, audited) sample.
std::string TraceDigest(const obs::SpaceTracer& tracer) {
  std::uint64_t digest = 0;
  std::uint64_t points = 0;
  for (const obs::SpaceTimeline& t : tracer.timelines()) {
    for (const obs::SpacePoint& p : t.points) {
      for (std::uint64_t word : {std::uint64_t{t.pass}, p.pairs_processed,
                                 p.reported_bytes, p.audited_bytes}) {
        digest = Mix128To64(digest, word);
      }
      ++points;
    }
  }
  return "points=" + std::to_string(points) + " trace=" + Hex(digest);
}

std::string ReportFields(const stream::RunReport& report) {
  std::ostringstream out;
  out << "passes=" << report.passes_requested
      << " pairs=" << report.pairs_processed
      << " reported=" << report.reported_peak_bytes
      << " audited=" << report.audited_peak_bytes
      << " divergence=" << report.max_divergence_bytes << " per_pass=";
  for (std::size_t i = 0; i < report.per_pass.size(); ++i) {
    const stream::PassReport& p = report.per_pass[i];
    out << (i == 0 ? "" : ",") << p.reported_peak_bytes << ':'
        << p.audited_peak_bytes << ':' << p.pairs_processed;
  }
  return out.str();
}

struct GoldenGraph {
  const char* name;
  Graph graph;
};

std::vector<GoldenGraph> GoldenGraphs() {
  std::vector<GoldenGraph> graphs;
  graphs.push_back({"erdos-renyi", gen::ErdosRenyiGnp(600, 0.03, 11)});
  graphs.push_back({"chung-lu", gen::ChungLuPowerLaw(1500, 8.0, 2.3, 12)});
  return graphs;
}

// One record per cell, keyed "<graph> <kind>.m<divisor>".
std::map<std::string, std::string> ComputeCells() {
  std::map<std::string, std::string> cells;
  for (const GoldenGraph& gg : GoldenGraphs()) {
    const std::size_t m = gg.graph.num_edges();
    const stream::AdjacencyListStream adjacency(&gg.graph, 21);
    const stream::RandomOrderStream edges(&gg.graph, 22);
    for (int kind = 0; kind < service::kEstimatorKinds; ++kind) {
      for (std::size_t divisor : {64u, 8u}) {
        service::EstimatorSpec spec;
        spec.kind = static_cast<EstimatorKind>(kind);
        spec.slots = std::max<std::size_t>(1, m / divisor);
        spec.seed = 100 + static_cast<std::uint64_t>(kind);
        auto hosted = service::MakeHosted(spec);
        EXPECT_TRUE(hosted.ok()) << hosted.status().ToString();
        if (!hosted.ok()) continue;
        obs::SpaceTracer tracer;
        stream::RunReport report =
            spec.kind == EstimatorKind::kRandomOrderTriangle
                ? stream::RunPasses(edges, hosted->algo.get(), {}, &tracer)
                : stream::RunPasses(adjacency, hosted->algo.get(), {},
                                    &tracer);
        std::ostringstream record;
        record << "est=" << std::hexfloat << hosted->estimate(*hosted->algo)
               << ' ' << ReportFields(report)
               << " crc=" << Hex(EnvelopeCrc(*hosted->algo)) << ' '
               << TraceDigest(tracer);
        const std::string key = std::string(gg.name) + ' ' +
                                service::KindName(spec.kind) + ".m" +
                                std::to_string(divisor);
        cells[key] = record.str();
      }
    }
  }
  return cells;
}

// Golden file lines: "<graph> <cell> <record>"; '#' lines are comments.
std::map<std::string, std::string> ReadGolden(const std::string& path) {
  std::map<std::string, std::string> cells;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t first = line.find(' ');
    const std::size_t second =
        first == std::string::npos ? first : line.find(' ', first + 1);
    if (second == std::string::npos) continue;
    cells[line.substr(0, second)] = line.substr(second + 1);
  }
  return cells;
}

void WriteGolden(const std::string& path,
                 const std::map<std::string, std::string>& cells) {
  std::ofstream out(path);
  out << "# Estimator golden file (tests/estimator_golden_test.cc).\n"
         "# <graph> <kind>.m<divisor> est=<hexfloat> <RunReport> "
         "crc=<state CRC-32> points=<space samples> trace=<chained "
         "Mix128To64 of (pass, pairs, reported, audited)>\n";
  for (const auto& [key, record] : cells) out << key << ' ' << record << '\n';
}

TEST(EstimatorGolden, EveryCellMatchesTheCommittedRecord) {
  const std::string path = CYCLESTREAM_ESTIMATOR_GOLDEN_FILE;
  const std::map<std::string, std::string> got = ComputeCells();
  ASSERT_EQ(got.size(), 2u * 2u * service::kEstimatorKinds);
  if (std::getenv("CYCLESTREAM_UPDATE_GOLDEN") != nullptr) {
    WriteGolden(path, got);
    GTEST_SKIP() << "rewrote " << path;
  }
  const std::map<std::string, std::string> want = ReadGolden(path);
  ASSERT_EQ(want.size(), got.size()) << "golden file missing or truncated";
  for (const auto& [key, record] : got) {
    auto it = want.find(key);
    ASSERT_NE(it, want.end()) << "no golden record for " << key;
    EXPECT_EQ(record, it->second) << key;
  }
}

}  // namespace
}  // namespace cyclestream
