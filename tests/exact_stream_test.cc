#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/exact_stream.h"
#include "exact/triangle.h"
#include "gen/chung_lu.h"
#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "snapshot/snapshot.h"
#include "stream/adjacency_stream.h"
#include "stream/driver.h"
#include "test_util.h"

namespace cyclestream {
namespace core {
namespace {

using testing_util::RunOn;

class ExactStreamSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ExactStreamSweep, MatchesOfflineCountOnRandomGraphs) {
  auto [graph_seed, stream_seed] = GetParam();
  Graph g = gen::ErdosRenyiGnp(80, 0.15, graph_seed);
  ExactStreamTriangleCounter counter;
  RunOn(g, &counter, stream_seed);
  EXPECT_EQ(counter.triangles(), exact::CountTriangles(g));
  EXPECT_EQ(counter.edge_count(), g.num_edges());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactStreamSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(5, 6)));

TEST(ExactStream, KnownGraphs) {
  for (std::uint64_t stream_seed : {1, 2, 3}) {
    ExactStreamTriangleCounter c1;
    RunOn(gen::Complete(10), &c1, stream_seed);
    EXPECT_EQ(c1.triangles(), 120u);

    ExactStreamTriangleCounter c2;
    RunOn(gen::Petersen(), &c2, stream_seed);
    EXPECT_EQ(c2.triangles(), 0u);
  }
}

TEST(ExactStream, SkewedGraph) {
  Graph g = gen::ChungLuPowerLaw(2000, 8.0, 2.3, 5);
  ExactStreamTriangleCounter counter;
  RunOn(g, &counter, 7);
  EXPECT_EQ(counter.triangles(), exact::CountTriangles(g));
}

TEST(ExactStream, SpaceIsLinearInEdges) {
  Graph g = gen::ErdosRenyiGnp(500, 0.05, 1);
  ExactStreamTriangleCounter counter;
  auto report = RunOn(g, &counter, 2);
  // Θ(m) state: at least 9 bytes per edge (key + state), under ~64.
  EXPECT_GE(report.reported_peak_bytes, 9 * g.num_edges());
  EXPECT_LE(report.reported_peak_bytes, 64 * g.num_edges());
}

// Adversarial list orders for the earlier-list pruning in EndList: the
// counter probes only pairs of neighbours whose own lists came first, so
// orders that put hubs first, last, or in between must all count exactly.

// K_k on vertices 0..k-1 plus one pendant vertex hanging off vertex 0.
Graph CliquePlusPendant(std::size_t k) {
  std::vector<Edge> edges;
  for (VertexId a = 0; a < k; ++a) {
    for (VertexId b = a + 1; b < k; ++b) edges.push_back({a, b});
  }
  edges.push_back({0, static_cast<VertexId>(k)});
  return Graph::FromEdges(k + 1, edges);
}

std::vector<Graph> AdversarialGraphs() {
  std::vector<Graph> graphs;
  graphs.push_back(gen::Star(12));
  graphs.push_back(gen::Complete(9));
  graphs.push_back(CliquePlusPendant(8));
  graphs.push_back(gen::ChungLuPowerLaw(300, 8.0, 2.1, 3));
  return graphs;
}

// All vertices sorted by degree (ties by id), ascending or descending.
std::vector<VertexId> DegreeOrder(const Graph& g, bool ascending) {
  std::vector<VertexId> order(g.num_vertices());
  std::iota(order.begin(), order.end(), VertexId{0});
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return ascending ? g.degree(a) < g.degree(b) : g.degree(a) > g.degree(b);
  });
  return order;
}

std::vector<std::uint8_t> SnapshotBytes(const ExactStreamTriangleCounter& c) {
  snapshot::SnapshotWriter w;
  c.Serialize(w);
  return std::move(w).Finish();
}

TEST(ExactStream, DegreeOrderedListsMatchOfflineCount) {
  for (const Graph& g : AdversarialGraphs()) {
    for (bool ascending : {true, false}) {
      stream::AdjacencyListStream s(&g, DegreeOrder(g, ascending), 4);
      ExactStreamTriangleCounter counter;
      stream::RunPasses(s, &counter);
      EXPECT_EQ(counter.triangles(), exact::CountTriangles(g))
          << "n=" << g.num_vertices() << " ascending=" << ascending;
      EXPECT_EQ(counter.edge_count(), g.num_edges());
    }
  }
}

TEST(ExactStream, ResumeAtEveryListBoundaryIsBitIdentical) {
  for (const Graph& g : AdversarialGraphs()) {
    for (bool ascending : {true, false}) {
      SCOPED_TRACE("n=" + std::to_string(g.num_vertices()) +
                   " ascending=" + std::to_string(ascending));
      stream::AdjacencyListStream s(&g, DegreeOrder(g, ascending), 5);
      ExactStreamTriangleCounter reference;
      StatusOr<stream::RunReport> want =
          stream::RunPassesChecked(s, &reference);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_EQ(reference.triangles(), exact::CountTriangles(g));
      const std::vector<std::uint8_t> want_bytes = SnapshotBytes(reference);

      std::vector<std::vector<std::uint8_t>> snapshots;
      ExactStreamTriangleCounter checkpointed;
      stream::CheckpointedRun full = stream::RunPassesCheckedWithCheckpoints(
          s, &checkpointed,
          [&](int, std::size_t, std::vector<std::uint8_t> bytes) {
            snapshots.push_back(std::move(bytes));
            return stream::CheckpointAction::kContinue;
          });
      ASSERT_TRUE(full.status.ok()) << full.status.ToString();
      ASSERT_EQ(snapshots.size(), g.num_vertices());

      for (std::size_t k = 0; k < snapshots.size(); ++k) {
        ExactStreamTriangleCounter resumed;
        StatusOr<stream::RunReport> got =
            stream::ResumePassesChecked(s, &resumed, snapshots[k]);
        ASSERT_TRUE(got.ok()) << "boundary " << k << ": "
                              << got.status().ToString();
        testing_util::ExpectReportsEqual(*got, *want);
        EXPECT_EQ(resumed.triangles(), reference.triangles())
            << "boundary " << k;
        EXPECT_EQ(SnapshotBytes(resumed), want_bytes) << "boundary " << k;
      }
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace cyclestream
