// For every estimator, list delivery (the algorithm's own OnListBatch, the
// one call the session makes per list) and per-element delivery (one
// OnPair per element, through testing_util::PerElementDelivery) are
// bit-identical — same result digest, same RunReport per pass, same final
// space — on every generator family.

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/median.h"
#include "graph/graph.h"
#include "stream/adjacency_stream.h"
#include "stream/driver.h"
#include "test_util.h"

namespace cyclestream {
namespace {

using testing_util::SnapshotEstimator;
using testing_util::SnapshotEstimators;

// The estimator (factory + result digest) to run at a given seed.
using EstimatorAt = std::function<SnapshotEstimator(std::uint64_t seed)>;

// The SnapshotEstimators entry called `name`.
EstimatorAt Named(std::string name) {
  return [name](std::uint64_t seed) {
    for (SnapshotEstimator& est : SnapshotEstimators(seed)) {
      if (est.name == name) return std::move(est);
    }
    throw std::invalid_argument("no estimator named " + name);
  };
}

// Runs the estimator over every dense-family graph and stream seed twice —
// list delivery, then per-element delivery — and asserts the reports and
// result digests are equal to the bit.
void ExpectDeliveryIdentical(const EstimatorAt& estimator_at) {
  for (std::uint64_t seed : testing_util::kFamilySeeds) {
    const SnapshotEstimator est = estimator_at(seed);
    for (const Graph& g : testing_util::DenseFamilyGraphs(seed)) {
      stream::AdjacencyListStream s(&g, seed * 3 + 1);
      std::unique_ptr<stream::StreamAlgorithm> listed = est.make();
      stream::RunReport list_report = stream::RunPasses(s, listed.get());
      std::unique_ptr<stream::StreamAlgorithm> paired = est.make();
      testing_util::PerElementDelivery per_element(paired.get());
      stream::RunReport pair_report = stream::RunPasses(s, &per_element);

      EXPECT_EQ(est.digest(listed.get()), est.digest(paired.get()))
          << est.name;
      testing_util::ExpectReportsEqual(pair_report, list_report);
      EXPECT_EQ(listed->CurrentSpaceBytes(), paired->CurrentSpaceBytes());
    }
  }
}

TEST(BatchEquivalence, OnePassTriangle) {
  ExpectDeliveryIdentical(Named("one-pass-triangle"));
}

TEST(BatchEquivalence, TwoPassTriangle) {
  ExpectDeliveryIdentical(Named("two-pass-triangle"));
}

TEST(BatchEquivalence, WedgeSampling) {
  ExpectDeliveryIdentical(Named("wedge-sampling"));
}

TEST(BatchEquivalence, OnePassFourCycle) {
  ExpectDeliveryIdentical(Named("one-pass-four-cycle"));
}

TEST(BatchEquivalence, TwoPassFourCycle) {
  ExpectDeliveryIdentical(Named("two-pass-four-cycle"));
}

TEST(BatchEquivalence, ExactStream) {
  ExpectDeliveryIdentical(Named("exact-stream"));
}

TEST(BatchEquivalence, TriangleDistinguisher) {
  ExpectDeliveryIdentical(Named("triangle-distinguisher"));
}

// Amplified groups override OnListBatch to forward each list to every
// copy; the group as a whole must obey the same invariant.
TEST(BatchEquivalence, ParallelCopiesForwardsBatches) {
  ExpectDeliveryIdentical([](std::uint64_t seed) {
    SnapshotEstimator copy = Named("one-pass-triangle")(seed);
    SnapshotEstimator group{"parallel-copies", nullptr, nullptr};
    group.make = [seed] {
      std::vector<std::unique_ptr<stream::StreamAlgorithm>> copies;
      for (std::uint64_t c = 0; c < 3; ++c) {
        copies.push_back(Named("one-pass-triangle")(seed + c).make());
      }
      return std::make_unique<core::ParallelCopies>(std::move(copies));
    };
    group.digest = [copy](stream::StreamAlgorithm* a) {
      auto* copies = static_cast<core::ParallelCopies*>(a);
      std::string digest;
      for (std::size_t c = 0; c < copies->num_copies(); ++c) {
        digest += copy.digest(copies->copy(c));
      }
      return digest;
    };
    return group;
  });
}

}  // namespace
}  // namespace cyclestream
