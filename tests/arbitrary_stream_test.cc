#include <cmath>
#include <map>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/arbitrary_triangle.h"
#include "exact/triangle.h"
#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "gen/planted.h"
#include "stream/arbitrary_stream.h"
#include "stream/driver.h"
#include "test_util.h"

namespace cyclestream {
namespace {

// Records the list grammar an edge stream speaks: BeginList / OnList /
// EndList, with each element being one edge (canonical u < v).
struct GrammarRecorder {
  std::vector<Edge> edges;
  std::vector<VertexId> runs;
  void BeginList(VertexId u) { runs.push_back(u); }
  void OnList(VertexId u, std::span<const VertexId> list) {
    for (VertexId v : list) edges.push_back({u, v});
  }
  void EndList(VertexId u) { (void)u; }
};

TEST(ArbitraryOrderStream, EveryEdgeExactlyOnce) {
  Graph g = gen::ErdosRenyiGnp(60, 0.2, 1);
  stream::ArbitraryOrderStream s(&g, 7);
  GrammarRecorder rec;
  s.ReplayPass(rec);
  EXPECT_EQ(rec.edges.size(), g.num_edges());
  std::map<EdgeKey, int> seen;
  for (const Edge& e : rec.edges) ++seen[MakeEdgeKey(e.u, e.v)];
  for (const auto& [key, count] : seen) EXPECT_EQ(count, 1);
  EXPECT_EQ(seen.size(), g.num_edges());
}

TEST(ArbitraryOrderStream, RunsAreMaximalSameFirstEndpointSubsequences) {
  Graph g = gen::ErdosRenyiGnp(40, 0.3, 11);
  stream::ArbitraryOrderStream s(&g, 5);
  GrammarRecorder rec;
  s.ReplayPass(rec);
  // The run vertices are the canonical first endpoints in stream order,
  // with adjacent duplicates merged — packaging, not an order promise.
  std::vector<VertexId> expected;
  for (const Edge& e : s.order()) {
    if (expected.empty() || expected.back() != e.u) expected.push_back(e.u);
  }
  EXPECT_EQ(rec.runs, expected);
  // Edges arrive in exactly the declared order.
  ASSERT_EQ(rec.edges.size(), s.order().size());
  for (std::size_t i = 0; i < rec.edges.size(); ++i) {
    EXPECT_EQ(MakeEdgeKey(rec.edges[i].u, rec.edges[i].v),
              MakeEdgeKey(s.order()[i].u, s.order()[i].v));
  }
}

TEST(ArbitraryOrderStream, SeededShuffleReplaysIdentically) {
  Graph g = gen::ErdosRenyiGnp(40, 0.25, 2);
  stream::ArbitraryOrderStream s1(&g, 9), s2(&g, 9), s3(&g, 10);
  EXPECT_EQ(s1.order(), s2.order());
  EXPECT_NE(s1.order(), s3.order());
}

TEST(ArbitraryOrderStream, DescriptorDeclaresArbitraryModel) {
  Graph g = gen::Complete(6);
  stream::ArbitraryOrderStream s(&g, 3);
  EXPECT_EQ(s.descriptor().model, stream::StreamModel::kArbitrary);
  EXPECT_EQ(s.descriptor().order_seed, 3u);
}

TEST(ArbitraryOrderStream, UnifiedDriverRunsEdgeAlgorithms) {
  Graph g = gen::Complete(8);
  stream::ArbitraryOrderStream s(&g, 3);
  core::ArbitraryTriangleOptions options;
  options.sample_size = g.num_edges();
  core::ArbitraryOrderTriangleCounter counter(options);
  stream::RunReport report = stream::RunPasses(s, &counter);
  EXPECT_EQ(report.pairs_processed, g.num_edges());
  EXPECT_EQ(report.passes_requested, 1);
  EXPECT_GT(report.reported_peak_bytes, 0u);
}

double RunArbitrary(const Graph& g, std::size_t sample,
                    std::uint64_t algo_seed, std::uint64_t stream_seed) {
  stream::ArbitraryOrderStream s(&g, stream_seed);
  core::ArbitraryTriangleOptions options;
  options.sample_size = sample;
  options.seed = algo_seed;
  core::ArbitraryOrderTriangleCounter counter(options);
  stream::RunPasses(s, &counter);
  return counter.Estimate();
}

TEST(ArbitraryTriangle, ExactWhenSampleCoversGraph) {
  std::vector<Graph> graphs;
  graphs.push_back(gen::Complete(8));
  graphs.push_back(testing_util::TwoTrianglesSharedEdge());
  graphs.push_back(gen::ErdosRenyiGnp(50, 0.25, 1));
  graphs.push_back(gen::Petersen());
  for (const Graph& g : graphs) {
    const double t = static_cast<double>(exact::CountTriangles(g));
    for (std::uint64_t stream_seed : {1, 2, 3, 4}) {
      EXPECT_DOUBLE_EQ(RunArbitrary(g, g.num_edges() + 2, 7, stream_seed), t)
          << "stream_seed " << stream_seed;
    }
  }
}

TEST(ArbitraryTriangle, UnbiasedOverSamplingRandomness) {
  gen::PlantedBackground bg{.stars = 4, .star_degree = 25};
  Graph g = gen::PlantedDisjointTriangles(200, bg);
  std::vector<double> estimates;
  for (int trial = 0; trial < 300; ++trial) {
    estimates.push_back(RunArbitrary(g, g.num_edges() / 3, 600 + trial, 5));
  }
  double sem = testing_util::StdDev(estimates) / std::sqrt(300.0);
  EXPECT_NEAR(testing_util::Mean(estimates), 200.0, 5 * sem + 2.0);
}

TEST(ArbitraryTriangle, EvictionRollbackKeepsCountsConsistent) {
  // Tiny sample over a triangle-dense graph: massive churn must not leave
  // phantom detections (estimate stays finite and non-negative; with a
  // sample too small to hold two wedge edges, detections hit zero).
  Graph g = gen::Complete(20);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    stream::ArbitraryOrderStream s(&g, seed + 1);
    core::ArbitraryTriangleOptions options;
    options.sample_size = 2;
    options.seed = seed;
    core::ArbitraryOrderTriangleCounter counter(options);
    stream::RunPasses(s, &counter);
    auto res = counter.result();
    EXPECT_GE(res.estimate, 0.0);
    EXPECT_LE(res.detections, 1u);  // at most the surviving pair's wedge
  }
}

TEST(ArbitraryTriangle, NeedsTwoSampledEdgesPerDetection) {
  // Structural contrast with the adjacency-list model: at the same sample
  // size, the arbitrary-order detection count is ~ (m'/m)^2 * T while the
  // list-order one-pass counter detects ~ (m'/m) * T.
  gen::PlantedBackground bg{.stars = 4, .star_degree = 50};
  Graph g = gen::PlantedDisjointTriangles(600, bg);
  const std::size_t sample = g.num_edges() / 10;
  double arb_detections = 0;
  const int kTrials = 60;
  for (int trial = 0; trial < kTrials; ++trial) {
    stream::ArbitraryOrderStream s(&g, trial + 1);
    core::ArbitraryTriangleOptions options;
    options.sample_size = sample;
    options.seed = 900 + trial;
    core::ArbitraryOrderTriangleCounter counter(options);
    stream::RunPasses(s, &counter);
    arb_detections += counter.result().detections;
  }
  arb_detections /= kTrials;
  // Expected ~ T * (m'/m)^2 * (order factor <= 1): for m'/m = 1/10 and
  // T = 600 that is at most 6; the list-order counter at the same budget
  // detects ~ 60. Assert the quadratic-vs-linear gap loosely.
  EXPECT_LT(arb_detections, 12.0);
}

TEST(ArbitraryTriangle, ZeroTriangleGraphs) {
  Graph g = gen::CompleteBipartite(15, 15);
  for (std::uint64_t seed : {1, 2, 3}) {
    EXPECT_DOUBLE_EQ(RunArbitrary(g, g.num_edges() / 4, seed, seed), 0.0);
  }
}

}  // namespace
}  // namespace cyclestream
