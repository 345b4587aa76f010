// The benchmark's three workloads. Each builds its inputs from the seed,
// runs the program through its public API, checks every output, and
// returns end-to-end metrics (untraced) or per-layer metrics (traced: spans
// around every layer call, self times computed from them).
//
//   estimate-powerlaw     all 8 estimator kinds × slots {m/64, m/8} over one
//                         Chung–Lu power-law graph, trusted driver
//   checked-models        one large uniform graph through the strict driver
//                         on adjacency-list, random-order and ε-perturbed
//                         streams
//   service-many-streams  tens of thousands of short streams through the
//                         sharded EstimatorService, closed loop

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/trace.h"

namespace perfbench {

inline constexpr const char* kEstimatePowerlaw = "estimate-powerlaw";
inline constexpr const char* kCheckedModels = "checked-models";
inline constexpr const char* kServiceManyStreams = "service-many-streams";

/// Every workload name, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

struct WorkloadConfig {
  std::uint64_t seed = 1;
  /// Measurement budget. Single-stream workloads repeat their cells until
  /// it is spent (every cell at least once); the service workload sizes its
  /// stream count from it.
  double seconds = 10.0;
  /// Set-up repetitions; setup_s is their median.
  int setup_reps = 3;
  /// Service worker threads (the client is one more thread).
  int workers = 3;
  /// Reference outputs; cells of a covered seed must match bitwise.
  const Golden* golden = nullptr;
  /// Non-null in traced runs: spans around every layer call land here and
  /// the per-layer metrics are computed from their self times.
  cyclestream::obs::TraceSession* spans = nullptr;
};

struct WorkloadResult {
  /// Operations: one estimator cell, or one hosted stream.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failed check (the run never aborts on a mismatch).
  std::vector<std::string> failures;
  /// End-to-end metrics (always filled).
  MetricSet end_to_end;
  /// Per-layer metrics (filled in traced runs only).
  MetricSet layers;
  std::string input_digest;
};

/// Runs `workload`; unknown names are a precondition violation.
WorkloadResult RunWorkload(const std::string& workload,
                           const WorkloadConfig& config);

/// Digest of everything `workload` generates from `seed` (graphs, stream
/// orders, estimator specs), without running anything.
std::string InputDigestFor(const std::string& workload, std::uint64_t seed);

/// Golden lines (FormatGoldenLine) for every cell of `workload` at `seed`,
/// from one trusted run per cell. Only the two single-stream workloads
/// have cells.
std::vector<std::string> GoldenLinesFor(const std::string& workload,
                                        std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
