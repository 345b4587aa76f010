// Crash-recovery chaos harness: every estimator, crashed at every
// adjacency-list boundary and resumed from its last checkpoint, must finish
// with a RunReport and estimate bit-identical to an uninterrupted run; and
// every class of snapshot corruption must come back as a typed Status, never
// a wrong answer.
//
// Strategy: one checkpointed run per (estimator, graph, seed) collects the
// snapshot at every boundary (also proving checkpointing itself never
// perturbs the run); then each snapshot is treated as "the last one written
// before the crash" — a fresh instance resumes from it and the final state
// is compared field-by-field against the uninterrupted reference.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/exact_stream.h"
#include "core/one_pass_triangle.h"
#include "core/two_pass_triangle.h"
#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "graph/graph.h"
#include "snapshot/snapshot.h"
#include "stream/adjacency_stream.h"
#include "stream/algorithm.h"
#include "stream/driver.h"
#include "stream/fault_injection.h"
#include "test_util.h"
#include "util/status.h"

namespace cyclestream {
namespace stream {
namespace {

using testing_util::ExpectReportsEqual;
using testing_util::GeneratorFamilies;
using testing_util::GraphFamily;
using testing_util::SnapshotEstimator;
using testing_util::SnapshotEstimators;

// When CYCLESTREAM_CHAOS_DUMP_DIR is set (the CI chaos job points it at an
// artifact directory), the snapshot blob behind the first failing boundary
// is written there so the exact offending bytes ride along with the log.
void MaybeDumpSnapshot(const std::string& tag,
                       const std::vector<std::uint8_t>& bytes) {
  const char* dir = std::getenv("CYCLESTREAM_CHAOS_DUMP_DIR");
  if (dir == nullptr) return;
  const std::string path = std::string(dir) + "/" + tag + ".snap";
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ADD_FAILURE() << "failing snapshot blob dumped to " << path;
}

// Runs the full crash matrix for one (estimator, stream) combination.
void CrashAtEveryBoundary(const SnapshotEstimator& est,
                          const AdjacencyListStream& stream,
                          const std::string& tag) {
  // HasFailure() is cumulative per TEST; only dump blobs for the first
  // combination that newly fails.
  const bool failed_on_entry = ::testing::Test::HasFailure();
  // Uninterrupted reference.
  std::unique_ptr<StreamAlgorithm> ref_algo = est.make();
  StatusOr<RunReport> ref = RunPassesChecked(stream, ref_algo.get());
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  const std::string ref_digest = est.digest(ref_algo.get());

  // One checkpointed run collects the snapshot at every list boundary.
  std::vector<std::vector<std::uint8_t>> snapshots;
  std::unique_ptr<StreamAlgorithm> chk_algo = est.make();
  auto collect = [&snapshots](int, std::size_t,
                              std::vector<std::uint8_t> bytes) {
    snapshots.push_back(std::move(bytes));
    return CheckpointAction::kContinue;
  };
  CheckpointedRun full =
      RunPassesCheckedWithCheckpoints(stream, chk_algo.get(), collect);
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();
  EXPECT_FALSE(full.stopped);
  // Checkpointing itself must not perturb the run.
  ExpectReportsEqual(full.report, *ref);
  EXPECT_EQ(est.digest(chk_algo.get()), ref_digest);
  const std::size_t lists_per_pass = stream.graph().num_vertices();
  ASSERT_EQ(snapshots.size(),
            lists_per_pass * static_cast<std::size_t>(ref->passes_requested));

  // Crash after every boundary; resume a fresh instance from that snapshot.
  for (std::size_t k = 0; k < snapshots.size(); ++k) {
    std::unique_ptr<StreamAlgorithm> algo = est.make();
    StatusOr<RunReport> resumed =
        ResumePassesChecked(stream, algo.get(), snapshots[k]);
    EXPECT_TRUE(resumed.ok())
        << "boundary " << k << ": " << resumed.status().ToString();
    if (resumed.ok()) {
      ExpectReportsEqual(*resumed, *ref);
      EXPECT_EQ(est.digest(algo.get()), ref_digest) << "boundary " << k;
    }
    if (!failed_on_entry && ::testing::Test::HasFailure()) {
      MaybeDumpSnapshot(tag + "-boundary" + std::to_string(k), snapshots[k]);
      return;
    }
  }
}

TEST(ChaosRecovery, CrashAtEveryBoundaryRestoresBitIdentically) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (const GraphFamily& family : GeneratorFamilies()) {
      Graph g = family.make(seed);
      AdjacencyListStream stream(&g, seed);
      for (const SnapshotEstimator& est : SnapshotEstimators(seed)) {
        const std::string tag = std::string(family.name) + "-" + est.name +
                                "-seed" + std::to_string(seed);
        SCOPED_TRACE(tag);
        CrashAtEveryBoundary(est, stream, tag);
      }
    }
  }
}

TEST(ChaosRecovery, StoppedRunResumesToTheReferenceAnswer) {
  // The kStop path: the callback crashes the run mid-pass; resuming from
  // the last snapshot finishes it bit-identically.
  Graph g = gen::ErdosRenyiGnp(20, 0.3, 11);
  AdjacencyListStream stream(&g, 11);
  core::TwoPassTriangleOptions options;
  options.sample_size = g.num_edges() / 2 + 1;
  options.seed = 17;

  core::TwoPassTriangleCounter reference(options);
  StatusOr<RunReport> ref = RunPassesChecked(stream, &reference);
  ASSERT_TRUE(ref.ok());

  // Crash in the middle of pass 1 (the second pass).
  const std::size_t crash_boundary = g.num_vertices() + 7;
  std::vector<std::uint8_t> last;
  std::size_t boundaries = 0;
  core::TwoPassTriangleCounter crashed(options);
  auto crash_at = [&](int, std::size_t, std::vector<std::uint8_t> bytes) {
    last = std::move(bytes);
    return ++boundaries == crash_boundary ? CheckpointAction::kStop
                                          : CheckpointAction::kContinue;
  };
  CheckpointedRun run =
      RunPassesCheckedWithCheckpoints(stream, &crashed, crash_at);
  ASSERT_TRUE(run.status.ok());
  EXPECT_TRUE(run.stopped);
  EXPECT_EQ(boundaries, crash_boundary);
  EXPECT_LT(run.report.pairs_processed, ref->pairs_processed);

  core::TwoPassTriangleCounter resumed_algo(options);
  StatusOr<RunReport> resumed =
      ResumePassesChecked(stream, &resumed_algo, last);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectReportsEqual(*resumed, *ref);
  EXPECT_EQ(resumed_algo.Estimate(), reference.Estimate());
  EXPECT_EQ(resumed_algo.result().rho_hits, reference.result().rho_hits);
}

TEST(ChaosRecovery, DoubleResumeFromOneSnapshotIsDeterministic) {
  // A snapshot is a pure value: resuming twice must not differ (and must
  // not mutate the bytes).
  Graph g = gen::BarabasiAlbert(12, 2, 5);
  AdjacencyListStream stream(&g, 5);
  core::OnePassTriangleOptions options;
  options.sample_size = 6;
  options.seed = 23;

  std::vector<std::vector<std::uint8_t>> snapshots;
  core::OnePassTriangleCounter algo(options);
  auto collect = [&](int, std::size_t, std::vector<std::uint8_t> bytes) {
    snapshots.push_back(std::move(bytes));
    return CheckpointAction::kContinue;
  };
  ASSERT_TRUE(
      RunPassesCheckedWithCheckpoints(stream, &algo, collect).status.ok());
  ASSERT_FALSE(snapshots.empty());
  const std::vector<std::uint8_t> mid = snapshots[snapshots.size() / 2];

  core::OnePassTriangleCounter first(options);
  core::OnePassTriangleCounter second(options);
  ASSERT_TRUE(ResumePassesChecked(stream, &first, mid).ok());
  EXPECT_EQ(mid, snapshots[snapshots.size() / 2]);
  ASSERT_TRUE(ResumePassesChecked(stream, &second, mid).ok());
  EXPECT_EQ(first.Estimate(), second.Estimate());
  EXPECT_EQ(first.result().detections, second.result().detections);
}

TEST(ChaosRecovery, BatchedAndPairwiseCheckpointsAreByteIdentical) {
  // The bit-identity contract, extended to snapshots: whether an estimator
  // takes each list through OnListBatch or one OnPair per element, the
  // state at each boundary — and hence the serialized snapshot — must be
  // the same bytes.
  Graph g = gen::ErdosRenyiGnp(12, 0.4, 9);
  AdjacencyListStream stream(&g, 9);
  for (const SnapshotEstimator& est : SnapshotEstimators(3)) {
    std::vector<std::vector<std::uint8_t>> snaps[2];
    for (int per_element = 0; per_element < 2; ++per_element) {
      std::unique_ptr<StreamAlgorithm> algo = est.make();
      testing_util::PerElementDelivery pairwise(algo.get());
      auto collect = [&snaps, per_element](int, std::size_t,
                                           std::vector<std::uint8_t> bytes) {
        snaps[per_element].push_back(std::move(bytes));
        return CheckpointAction::kContinue;
      };
      StreamAlgorithm* run = per_element ? &pairwise : algo.get();
      ASSERT_TRUE(
          RunPassesCheckedWithCheckpoints(stream, run, collect).status.ok())
          << est.name;
    }
    ASSERT_FALSE(snaps[0].empty()) << est.name;
    EXPECT_EQ(snaps[0], snaps[1]) << est.name;
  }
}

// --- Corruption: every damaged snapshot is a typed error, never a run. ---

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = gen::ErdosRenyiGnp(10, 0.5, 4);
    stream_ = std::make_unique<AdjacencyListStream>(&graph_, 4);
    options_.sample_size = 7;
    options_.seed = 13;
    core::TwoPassTriangleCounter algo(options_);
    auto keep_last = [this](int, std::size_t,
                            std::vector<std::uint8_t> bytes) {
      snapshot_ = std::move(bytes);
      return CheckpointAction::kContinue;
    };
    ASSERT_TRUE(RunPassesCheckedWithCheckpoints(*stream_, &algo, keep_last)
                    .status.ok());
    ASSERT_FALSE(snapshot_.empty());
  }

  StatusCode ResumeCode(const std::vector<std::uint8_t>& bytes) {
    core::TwoPassTriangleCounter algo(options_);
    StatusOr<RunReport> result =
        ResumePassesChecked(*stream_, &algo, bytes);
    EXPECT_FALSE(result.ok());
    return result.status().code();
  }

  Graph graph_;
  std::unique_ptr<AdjacencyListStream> stream_;
  core::TwoPassTriangleOptions options_;
  std::vector<std::uint8_t> snapshot_;
};

TEST_F(SnapshotCorruptionTest, TruncationIsDataLoss) {
  std::vector<std::uint8_t> cut(snapshot_.begin(), snapshot_.end() - 9);
  EXPECT_EQ(ResumeCode(cut), StatusCode::kDataLoss);
  cut.assign(snapshot_.begin(), snapshot_.begin() + 10);
  EXPECT_EQ(ResumeCode(cut), StatusCode::kDataLoss);
}

TEST_F(SnapshotCorruptionTest, BitFlipsNeverResume) {
  // Flip a spread of bits across the envelope; none may produce a run.
  for (std::size_t i = 0; i < snapshot_.size(); i += 13) {
    std::vector<std::uint8_t> flipped = snapshot_;
    flipped[i] ^= 0x20;
    core::TwoPassTriangleCounter algo(options_);
    StatusOr<RunReport> result =
        ResumePassesChecked(*stream_, &algo, flipped);
    EXPECT_FALSE(result.ok()) << "byte " << i;
  }
}

TEST_F(SnapshotCorruptionTest, BadMagicIsInvalidArgument) {
  std::vector<std::uint8_t> bad = snapshot_;
  bad[0] = 'X';
  EXPECT_EQ(ResumeCode(bad), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotCorruptionTest, WrongVersionIsFailedPrecondition) {
  std::vector<std::uint8_t> bad = snapshot_;
  bad[8] = static_cast<std::uint8_t>(snapshot::kSnapshotVersion + 7);
  const std::uint32_t crc = snapshot::Crc32({bad.data(), bad.size() - 4});
  for (int i = 0; i < 4; ++i) {
    bad[bad.size() - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  EXPECT_EQ(ResumeCode(bad), StatusCode::kFailedPrecondition);
}

TEST_F(SnapshotCorruptionTest, OptionsMismatchIsFailedPrecondition) {
  core::TwoPassTriangleOptions other = options_;
  other.sample_size += 1;
  core::TwoPassTriangleCounter algo(other);
  StatusOr<RunReport> result =
      ResumePassesChecked(*stream_, &algo, snapshot_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SnapshotCorruptionTest, WrongAlgorithmIsFailedPrecondition) {
  // A one-pass algorithm cannot adopt a two-pass checkpoint: the pass
  // bookkeeping disagrees before any estimator state is touched.
  core::ExactStreamTriangleCounter algo;
  StatusOr<RunReport> result =
      ResumePassesChecked(*stream_, &algo, snapshot_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SnapshotCorruptionTest, WrongGraphIsFailedPrecondition) {
  Graph other = gen::ErdosRenyiGnp(11, 0.5, 4);
  AdjacencyListStream other_stream(&other, 4);
  core::TwoPassTriangleCounter algo(options_);
  StatusOr<RunReport> result =
      ResumePassesChecked(other_stream, &algo, snapshot_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

// A CRC-valid checkpoint can still carry hostile counts. The pass
// bookkeeping is checked before anything is sized from the bytes, so a
// per-pass count of 2^40 (or a pass count that only matches after
// truncation to int) is a typed error, never an allocation or an abort.
TEST_F(SnapshotCorruptionTest, HostilePassCountsAreFailedPrecondition) {
  auto forge = [](std::uint64_t pass, std::uint64_t passes_requested,
                  std::uint64_t per_pass) {
    snapshot::SnapshotWriter w;
    w.WriteU64(pass);
    w.WriteU64(0);                              // lists done
    for (int i = 0; i < 4; ++i) w.WriteU64(0);  // peaks, divergence, pairs
    w.WriteU64(passes_requested);
    w.WriteU64(per_pass);
    return std::move(w).Finish();
  };
  const std::uint64_t huge = std::uint64_t{1} << 40;
  const std::uint64_t two_mod_2_32 = (std::uint64_t{1} << 32) + 2;
  for (const std::vector<std::uint8_t>& bytes :
       {forge(0, 2, huge), forge(huge - 1, 2, huge), forge(0, huge, 1),
        forge(0, two_mod_2_32, 1), forge(2, 2, 3)}) {
    EXPECT_EQ(ResumeCode(bytes), StatusCode::kFailedPrecondition);
  }
}

TEST(ChaosRecovery, ResumeOverFaultyStreamStillDetectsTheFault) {
  // Recovery must not weaken validation: a stream that breaks the contract
  // after the checkpoint is still rejected by the resumed run, with the
  // same violation the uninterrupted checked run reports.
  Graph g = gen::ErdosRenyiGnp(12, 0.4, 6);
  AdjacencyListStream base(&g, 6);
  FaultSpec spec;
  spec.kind = FaultKind::kDropPair;
  spec.pass = 0;
  spec.seed = 21;
  FaultInjectingStream faulty(&base, spec);

  core::ExactStreamTriangleCounter reference;
  StatusOr<RunReport> ref = RunPassesChecked(faulty, &reference);
  ASSERT_FALSE(ref.ok());

  std::vector<std::uint8_t> last;
  core::ExactStreamTriangleCounter crashed;
  auto keep_last = [&](int, std::size_t, std::vector<std::uint8_t> bytes) {
    last = std::move(bytes);
    return CheckpointAction::kContinue;
  };
  CheckpointedRun run =
      RunPassesCheckedWithCheckpoints(faulty, &crashed, keep_last);
  EXPECT_FALSE(run.status.ok());
  ASSERT_FALSE(last.empty());  // checkpoints exist up to the violation

  core::ExactStreamTriangleCounter resumed;
  StatusOr<RunReport> result = ResumePassesChecked(faulty, &resumed, last);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ref.status().code());
  EXPECT_EQ(result.status().message(), ref.status().message());
}

TEST(ChaosRecovery, SnapshotPayloadTracksAuditedBytes) {
  // The snapshot is the algorithm's state made literal: its payload must be
  // on the order of the allocator-audited live bytes, not wildly above.
  Graph g = gen::ErdosRenyiGnp(24, 0.3, 8);
  AdjacencyListStream stream(&g, 8);
  core::TwoPassTriangleOptions options;
  options.sample_size = 16;
  options.seed = 29;
  core::TwoPassTriangleCounter algo(options);
  ASSERT_TRUE(RunPassesChecked(stream, &algo).ok());

  snapshot::SnapshotWriter w;
  algo.Serialize(w);
  const std::size_t payload = w.payload_size();
  const std::size_t audited = algo.memory_domain()->live_bytes();
  EXPECT_GT(payload, 0u);
  // Serialized state never stores more than the live containers plus a
  // bounded bookkeeping overhead (options header, counters, length
  // prefixes); allow 2x + 4KiB of slack either way.
  EXPECT_LT(payload, 2 * audited + 4096);
}

}  // namespace
}  // namespace stream
}  // namespace cyclestream
