// The one stream grammar: every stream, clean or fault-injected, replays a
// pass as BeginList(u) / OnList(u, span) / EndList(u) with at most one
// OnList per list. The recorder below has only those three callbacks, so a
// stream that emitted any other event would not compile against it. The
// fault decorators corrupt inside that grammar, and the corrupted pass
// differs from the clean one exactly where `fault_position()` says.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gen/chung_lu.h"
#include "gen/erdos_renyi.h"
#include "graph/graph.h"
#include "stream/adjacency_stream.h"
#include "stream/arbitrary_stream.h"
#include "stream/fault_injection.h"
#include "stream/random_order_stream.h"

namespace cyclestream {
namespace stream {
namespace {

constexpr std::size_t kNever = static_cast<std::size_t>(-1);

// One pass, recorded as it arrives; the grammar is checked on the fly.
struct PassRecorder {
  std::vector<std::pair<VertexId, VertexId>> elements;  // in stream order
  std::size_t lists = 0;  // BeginList calls
  // Elements delivered before the first BeginList of a vertex that already
  // had a list this pass (kNever if none did).
  std::size_t reopened_at = kNever;
  bool open = false;  // a list has begun and not ended
  VertexId current = 0;
  std::size_t spans_in_list = 0;
  std::set<VertexId> begun;

  void BeginList(VertexId u) {
    EXPECT_FALSE(open) << "list " << u << " begins inside list " << current;
    if (!begun.insert(u).second && reopened_at == kNever) {
      reopened_at = elements.size();
    }
    open = true;
    current = u;
    spans_in_list = 0;
    ++lists;
  }
  void OnList(VertexId u, std::span<const VertexId> list) {
    EXPECT_TRUE(open) << "OnList outside a list";
    EXPECT_EQ(u, current);
    EXPECT_EQ(++spans_in_list, 1u) << "second OnList for list " << u;
    for (VertexId v : list) elements.push_back({u, v});
  }
  void EndList(VertexId u) {
    EXPECT_TRUE(open) << "EndList outside a list";
    EXPECT_EQ(u, current);
    open = false;
  }
};

template <typename StreamT>
PassRecorder RecordPass(const StreamT& stream) {
  PassRecorder recorder;
  stream.ReplayPass(recorder);
  return recorder;
}

// Index of the first element where `got` departs from `want`.
std::size_t FirstDifference(const PassRecorder& want, const PassRecorder& got) {
  const std::size_t n = std::min(want.elements.size(), got.elements.size());
  const auto diff = std::mismatch(want.elements.begin(),
                                  want.elements.begin() + n,
                                  got.elements.begin());
  return static_cast<std::size_t>(diff.first - want.elements.begin());
}

// The corrupted pass `got` against the clean pass `want`, for a decorator
// whose corrupted pass should manifest its fault at `fault_position`.
void ExpectFaultShape(FaultKind kind, const PassRecorder& want,
                      const PassRecorder& got, std::size_t fault_position) {
  const std::size_t length = want.elements.size();
  const auto& elems = got.elements;
  switch (kind) {
    case FaultKind::kNone:
      EXPECT_EQ(elems, want.elements);
      EXPECT_FALSE(got.open);
      break;
    case FaultKind::kSplitList:
      // Same elements, one list more, and the split list reopens at the
      // fault position.
      EXPECT_EQ(elems.size(), length);
      EXPECT_EQ(got.lists, want.lists + 1);
      EXPECT_EQ(got.reopened_at, fault_position);
      EXPECT_FALSE(got.open);
      break;
    case FaultKind::kDropPair:
    case FaultKind::kDropReverseEdge:
      EXPECT_EQ(elems.size(), length - 1);
      EXPECT_EQ(FirstDifference(want, got), fault_position);
      EXPECT_FALSE(got.open);
      break;
    case FaultKind::kDuplicatePair:
      // The second copy sits at the fault position, right after the first.
      ASSERT_EQ(elems.size(), length + 1);
      EXPECT_EQ(FirstDifference(want, got), fault_position);
      ASSERT_GE(fault_position, 1u);
      EXPECT_EQ(elems[fault_position], elems[fault_position - 1]);
      EXPECT_FALSE(got.open);
      break;
    case FaultKind::kTruncatePass:
      // A prefix of the clean pass, cut at the fault position.
      ASSERT_EQ(elems.size(), fault_position);
      EXPECT_EQ(FirstDifference(want, got), fault_position);
      break;
    case FaultKind::kReplayDivergence:
      // Two adjacent elements swap, starting at the fault position.
      ASSERT_EQ(elems.size(), length);
      ASSERT_LT(fault_position + 1, length);
      EXPECT_EQ(FirstDifference(want, got), fault_position);
      EXPECT_EQ(elems[fault_position], want.elements[fault_position + 1]);
      EXPECT_EQ(elems[fault_position + 1], want.elements[fault_position]);
      EXPECT_FALSE(got.open);
      break;
  }
}

std::vector<Graph> Graphs() {
  std::vector<Graph> graphs;
  graphs.push_back(gen::ErdosRenyiGnp(40, 0.2, 3));
  graphs.push_back(gen::ChungLuPowerLaw(60, 5.0, 2.3, 7));
  return graphs;
}

constexpr FaultKind kFaultKinds[] = {
    FaultKind::kNone,          FaultKind::kSplitList,
    FaultKind::kDropPair,      FaultKind::kDuplicatePair,
    FaultKind::kDropReverseEdge, FaultKind::kTruncatePass,
    FaultKind::kReplayDivergence};

FaultSpec SpecFor(FaultKind kind, std::uint64_t seed) {
  FaultSpec spec;
  spec.kind = kind;
  // Pass 0 defines the order an adjacency-list replay must diverge from.
  spec.pass = kind == FaultKind::kReplayDivergence ? 1 : 0;
  spec.seed = seed;
  return spec;
}

TEST(StreamGrammar, CleanStreamsSendOneSpanPerList) {
  for (const Graph& g : Graphs()) {
    AdjacencyListStream adjacency(&g, 5);
    for (int pass = 0; pass < 2; ++pass) {
      PassRecorder rec = RecordPass(adjacency);
      EXPECT_EQ(rec.elements.size(), adjacency.stream_length());
      EXPECT_EQ(rec.lists, g.num_vertices());
      EXPECT_EQ(rec.reopened_at, kNever);
      EXPECT_FALSE(rec.open);
    }
    ArbitraryOrderStream arbitrary(&g, 5);
    RandomOrderStream random_order(&g, 5);
    RandomOrderStream perturbed(&g, 5, 0.15);
    const EdgeStreamBase* edge_streams[] = {&arbitrary, &random_order,
                                            &perturbed};
    for (const EdgeStreamBase* edges : edge_streams) {
      for (int pass = 0; pass < 2; ++pass) {
        PassRecorder rec = RecordPass(*edges);
        ASSERT_EQ(rec.elements.size(), edges->stream_length());
        for (std::size_t i = 0; i < rec.elements.size(); ++i) {
          EXPECT_EQ(rec.elements[i].first, edges->order()[i].u);
          EXPECT_EQ(rec.elements[i].second, edges->order()[i].v);
        }
        EXPECT_FALSE(rec.open);
      }
    }
  }
}

TEST(StreamGrammar, FaultInjectingStreamCorruptsOneSpanPerList) {
  for (const Graph& g : Graphs()) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      AdjacencyListStream base(&g, seed);
      const PassRecorder clean = RecordPass(base);
      for (FaultKind kind : kFaultKinds) {
        FaultInjectingStream faulty(&base, SpecFor(kind, seed + 40));
        for (int pass = 0; pass < 2; ++pass) {
          SCOPED_TRACE(testing::Message()
                       << FaultKindName(kind) << " seed " << seed << " pass "
                       << pass);
          PassRecorder got = RecordPass(faulty);
          if (pass == faulty.spec().pass) {
            ExpectFaultShape(kind, clean, got, faulty.fault_position());
          } else {
            EXPECT_EQ(got.elements, clean.elements);
            EXPECT_EQ(got.lists, clean.lists);
          }
        }
      }
    }
  }
}

template <typename BaseT>
void ExpectEdgeFaultsKeepGrammar(const BaseT& base, std::uint64_t seed) {
  const PassRecorder clean = RecordPass(base);
  for (FaultKind kind : kFaultKinds) {
    auto faulty = EdgeFaultInjectingStream<BaseT>::Make(&base,
                                                        SpecFor(kind, seed));
    if (!FaultAppliesTo(kind, base.descriptor().model)) {
      EXPECT_FALSE(faulty.ok()) << FaultKindName(kind);
      continue;
    }
    ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
    for (int pass = 0; pass < 2; ++pass) {
      SCOPED_TRACE(testing::Message()
                   << StreamModelName(base.descriptor().model) << " "
                   << FaultKindName(kind) << " pass " << pass);
      PassRecorder got = RecordPass(*faulty);
      // Every element is its own one-element u-run.
      EXPECT_EQ(got.lists, got.elements.size());
      EXPECT_FALSE(got.open);
      if (pass == faulty->spec().pass) {
        ExpectFaultShape(kind, clean, got, faulty->fault_position());
      } else {
        EXPECT_EQ(got.elements, clean.elements);
      }
    }
  }
}

TEST(StreamGrammar, EdgeFaultInjectingStreamSendsOneElementLists) {
  for (const Graph& g : Graphs()) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      ExpectEdgeFaultsKeepGrammar(ArbitraryOrderStream(&g, seed), seed + 40);
      ExpectEdgeFaultsKeepGrammar(RandomOrderStream(&g, seed), seed + 40);
      ExpectEdgeFaultsKeepGrammar(RandomOrderStream(&g, seed, 0.15),
                                  seed + 40);
    }
  }
}

}  // namespace
}  // namespace stream
}  // namespace cyclestream
