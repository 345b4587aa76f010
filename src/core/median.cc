#include "core/median.h"

#include <algorithm>
#include <future>

#include "runtime/thread_pool.h"
#include "util/check.h"
#include "util/hashing.h"

namespace cyclestream {
namespace core {

ParallelCopies::ParallelCopies(
    std::vector<std::unique_ptr<stream::StreamAlgorithm>> copies)
    : CopyOwner{std::move(copies)}, CopySpan(owned_.data(), owned_.size()) {
  CYCLESTREAM_CHECK(!owned_.empty());
  for (const auto& copy : owned_) {
    CYCLESTREAM_CHECK_EQ(copy->passes(), owned_.front()->passes());
  }
}

void ParallelCopies::Serialize(snapshot::SnapshotWriter& w) const {
  w.WriteU64(owned_.size());
  for (const auto& copy : owned_) copy->Serialize(w);
}

Status ParallelCopies::Restore(snapshot::SnapshotReader& r) {
  const std::uint64_t count = r.ReadU64();
  if (!r.status().ok()) return r.status();
  if (count != owned_.size()) {
    return Status::FailedPrecondition(
        "parallel-copies snapshot copy count mismatch");
  }
  for (auto& copy : owned_) {
    Status status = copy->Restore(r);
    if (!status.ok()) return status;
  }
  return r.status();
}

double Median(std::vector<double> values) {
  CYCLESTREAM_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

// Shared driver: builds `copies` algorithms via `make`, runs them in
// parallel over the stream (on `pool` when given), extracts per-copy
// estimates via `extract`. Copy c's seed is Mix128To64(seed, c) in every
// mode, so the estimates are independent of the pool.
AmplifiedEstimate RunAmplified(
    const stream::AdjacencyListStream& stream, int copies, std::uint64_t seed,
    runtime::ThreadPool* pool,
    const std::function<std::unique_ptr<stream::StreamAlgorithm>(std::uint64_t)>&
        make,
    const std::function<double(stream::StreamAlgorithm*)>& extract) {
  CYCLESTREAM_CHECK_GE(copies, 1);
  std::vector<std::unique_ptr<stream::StreamAlgorithm>> algos;
  algos.reserve(copies);
  for (int c = 0; c < copies; ++c) {
    algos.push_back(make(Mix128To64(seed, static_cast<std::uint64_t>(c))));
  }
  ParallelCopies group(std::move(algos));
  AmplifiedEstimate out;
  out.report = group.Run(stream, pool);
  out.copy_estimates.reserve(copies);
  for (std::size_t c = 0; c < group.num_copies(); ++c) {
    out.copy_estimates.push_back(extract(group.copy(c)));
  }
  out.estimate = Median(out.copy_estimates);
  return out;
}

}  // namespace

AmplifiedEstimate EstimateTriangles(const stream::AdjacencyListStream& stream,
                                    std::size_t sample_size, int copies,
                                    std::uint64_t seed,
                                    runtime::ThreadPool* pool) {
  return RunAmplified(
      stream, copies, seed, pool,
      [&](std::uint64_t copy_seed) {
        TwoPassTriangleOptions options;
        options.sample_size = sample_size;
        options.seed = copy_seed;
        return std::make_unique<TwoPassTriangleCounter>(options);
      },
      [](stream::StreamAlgorithm* algo) {
        return static_cast<TwoPassTriangleCounter*>(algo)->Estimate();
      });
}

AmplifiedEstimate EstimateTrianglesOnePass(
    const stream::AdjacencyListStream& stream, std::size_t sample_size,
    int copies, std::uint64_t seed, runtime::ThreadPool* pool) {
  return RunAmplified(
      stream, copies, seed, pool,
      [&](std::uint64_t copy_seed) {
        OnePassTriangleOptions options;
        options.sample_size = sample_size;
        options.seed = copy_seed;
        return std::make_unique<OnePassTriangleCounter>(options);
      },
      [](stream::StreamAlgorithm* algo) {
        return static_cast<OnePassTriangleCounter*>(algo)->Estimate();
      });
}

AmplifiedEstimate EstimateFourCycles(const stream::AdjacencyListStream& stream,
                                     std::size_t sample_size, int copies,
                                     std::uint64_t seed,
                                     runtime::ThreadPool* pool) {
  return RunAmplified(
      stream, copies, seed, pool,
      [&](std::uint64_t copy_seed) {
        FourCycleOptions options;
        options.sample_size = sample_size;
        options.seed = copy_seed;
        return std::make_unique<TwoPassFourCycleCounter>(options);
      },
      [](stream::StreamAlgorithm* algo) {
        return static_cast<TwoPassFourCycleCounter*>(algo)->Estimate();
      });
}

}  // namespace core
}  // namespace cyclestream
