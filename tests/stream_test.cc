#include <map>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "graph/graph.h"
#include "stream/adjacency_stream.h"
#include "stream/algorithm.h"
#include "stream/driver.h"

namespace cyclestream {
namespace stream {
namespace {

// Records everything a pass delivers.
struct Recorder {
  std::vector<VertexId> lists;
  std::vector<std::pair<VertexId, VertexId>> pairs;
  void BeginList(VertexId u) { lists.push_back(u); }
  void OnList(VertexId u, std::span<const VertexId> list) {
    for (VertexId v : list) pairs.push_back({u, v});
  }
  void EndList(VertexId) {}
};

TEST(AdjacencyListStream, EveryEdgeAppearsTwice) {
  Graph g = gen::ErdosRenyiGnp(50, 0.2, 1);
  AdjacencyListStream s(&g, 7);
  Recorder rec;
  s.ReplayPass(rec);
  EXPECT_EQ(rec.pairs.size(), 2 * g.num_edges());
  std::map<EdgeKey, int> copies;
  for (auto [u, v] : rec.pairs) ++copies[MakeEdgeKey(u, v)];
  EXPECT_EQ(copies.size(), g.num_edges());
  for (const auto& [key, c] : copies) EXPECT_EQ(c, 2);
}

TEST(AdjacencyListStream, ListsAreContiguousAndCorrect) {
  Graph g = gen::ErdosRenyiGnp(40, 0.25, 2);
  AdjacencyListStream s(&g, 9);
  Recorder rec;
  s.ReplayPass(rec);
  // Each vertex's list appears exactly once.
  std::set<VertexId> seen(rec.lists.begin(), rec.lists.end());
  EXPECT_EQ(seen.size(), g.num_vertices());
  EXPECT_EQ(rec.lists.size(), g.num_vertices());
  // Every pair (u, v) delivered under list u must be a real edge, and the
  // list must contain exactly u's neighbors.
  std::map<VertexId, std::set<VertexId>> delivered;
  for (auto [u, v] : rec.pairs) {
    EXPECT_TRUE(g.HasEdge(u, v));
    delivered[u].insert(v);
  }
  for (std::size_t u = 0; u < g.num_vertices(); ++u) {
    auto nbrs = g.neighbors(static_cast<VertexId>(u));
    std::set<VertexId> expect(nbrs.begin(), nbrs.end());
    EXPECT_EQ(delivered[static_cast<VertexId>(u)], expect);
  }
}

TEST(AdjacencyListStream, ReplayIsIdentical) {
  Graph g = gen::ErdosRenyiGnp(30, 0.3, 3);
  AdjacencyListStream s(&g, 11);
  Recorder rec1, rec2;
  s.ReplayPass(rec1);
  s.ReplayPass(rec2);
  EXPECT_EQ(rec1.lists, rec2.lists);
  EXPECT_EQ(rec1.pairs, rec2.pairs);
}

TEST(AdjacencyListStream, DifferentSeedsDifferentOrders) {
  Graph g = gen::ErdosRenyiGnp(30, 0.3, 4);
  AdjacencyListStream s1(&g, 1), s2(&g, 2);
  Recorder rec1, rec2;
  s1.ReplayPass(rec1);
  s2.ReplayPass(rec2);
  EXPECT_NE(rec1.pairs, rec2.pairs);
}

TEST(AdjacencyListStream, ExplicitListOrderHonored) {
  Graph g = gen::CycleGraph(5);
  std::vector<VertexId> order = {3, 1, 4, 0, 2};
  AdjacencyListStream s(&g, order, 5);
  Recorder rec;
  s.ReplayPass(rec);
  EXPECT_EQ(rec.lists, order);
}

TEST(AdjacencyListStream, EmptyListsStillAppear) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  Graph g = b.Build();  // vertices 2, 3 isolated
  AdjacencyListStream s(&g, 6);
  Recorder rec;
  s.ReplayPass(rec);
  EXPECT_EQ(rec.lists.size(), 4u);
  EXPECT_EQ(rec.pairs.size(), 2u);
}

TEST(AdjacencyListStream, StreamLength) {
  Graph g = gen::Complete(6);
  AdjacencyListStream s(&g, 1);
  EXPECT_EQ(s.stream_length(), 2 * g.num_edges());
}

// Minimal algorithm for driver tests: counts callbacks, reports fake space.
class Probe : public StreamAlgorithm {
 public:
  explicit Probe(int passes) : passes_(passes) {}
  int passes() const override { return passes_; }
  void BeginPass(int pass) override { begin_passes_.push_back(pass); }
  void BeginList(VertexId) override { ++begin_lists_; }
  void OnPair(VertexId, VertexId) override { ++pairs_; space_ = pairs_; }
  void EndList(VertexId) override { ++end_lists_; }
  void EndPass(int pass) override { end_passes_.push_back(pass); }
  std::size_t CurrentSpaceBytes() const override { return space_; }

  std::vector<int> begin_passes_, end_passes_;
  std::size_t begin_lists_ = 0, end_lists_ = 0, pairs_ = 0, space_ = 0;

 private:
  int passes_;
};

TEST(Driver, DeliversAllPassesInOrder) {
  Graph g = gen::Complete(5);
  AdjacencyListStream s(&g, 3);
  Probe probe(3);
  RunReport report = RunPasses(s, &probe);
  EXPECT_EQ(report.passes_requested, 3);
  EXPECT_EQ(probe.begin_passes_, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(probe.end_passes_, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(probe.begin_lists_, 3 * g.num_vertices());
  EXPECT_EQ(probe.pairs_, 3 * 2 * g.num_edges());
  EXPECT_EQ(report.pairs_processed, probe.pairs_);
}

TEST(Driver, ReportsPeakSpace) {
  Graph g = gen::Complete(5);
  AdjacencyListStream s(&g, 3);
  Probe probe(1);
  RunReport report = RunPasses(s, &probe);
  // Probe's space equals pairs seen so far; the peak is the total.
  EXPECT_EQ(report.reported_peak_bytes, 2 * g.num_edges());
}

}  // namespace
}  // namespace stream
}  // namespace cyclestream
