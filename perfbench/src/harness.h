// Workload-independent pieces of the benchmark harness: order statistics,
// input digests, the golden reference file, span self-time aggregation, and
// the result line. Kept apart from the workloads so the self-tests
// (selftest.cc) exercise exactly the code the benchmark runs.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/trace.h"
#include "stream/driver.h"

namespace perfbench {

// ---------------------------------------------------------------- stats

/// Median (mean of the two middle values for even sizes). Empty → 0.
double Median(std::vector<double> values);

/// Nearest-rank percentile `q` in (0, 1) of `values`, or nullopt when fewer
/// than ten samples lie beyond it — the reporting rule: a percentile is
/// only stated when at least ten samples sit above the reported rank.
std::optional<double> SupportedPercentile(std::vector<double> values,
                                          double q);

/// Highest percentile of `samples` (nearest rank) with at least ten samples
/// beyond it; 0 when there are fewer than eleven samples.
double HighestSupportedQuantile(std::size_t samples);

/// Geometric mean of strictly positive values; nullopt if any is <= 0 or
/// the input is empty.
std::optional<double> GeometricMean(std::span<const double> values);

// --------------------------------------------------------------- digest

/// FNV-1a 64 over everything the benchmark generates from its seed: the
/// same seed gives the same digest, byte for byte.
class InputDigest {
 public:
  void Add(std::uint64_t value);
  void AddSpan(std::span<const std::uint32_t> values);
  std::string Hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

// --------------------------------------------------------------- golden

/// Everything one estimator cell produced: the estimate, the driver's
/// report, and a CRC over the estimator's final serialized state.
struct CellOutput {
  double estimate = 0.0;
  cyclestream::stream::RunReport report;
  std::uint32_t state_crc = 0;
};

/// Bitwise equality of estimate, every RunReport field the driver meters
/// (hardware counters excluded: they are not algorithm output), and the
/// state CRC. Returns a description of the first difference, or "".
std::string DiffCells(const CellOutput& want, const CellOutput& got);

/// RunReport-only variant (service streams carry no state CRC).
std::string DiffReports(const cyclestream::stream::RunReport& want,
                        const cyclestream::stream::RunReport& got);

/// One line of the golden file: `<seed> <workload> <cell> <fields...>`.
std::string FormatGoldenLine(std::uint64_t seed, const std::string& workload,
                             const std::string& cell, const CellOutput& out);

/// The golden reference: seed × workload × cell → expected output.
class Golden {
 public:
  /// Parses golden text. A line whose seed/workload/cell key is unreadable
  /// makes the whole file an error; a readable key with damaged fields
  /// stays covered but has no entry, so its cell fails verification.
  static std::optional<Golden> Parse(const std::string& text,
                                     std::string* error);
  /// Reads and parses `path`; a missing file gives an empty reference.
  static std::optional<Golden> Load(const std::string& path,
                                    std::string* error);

  /// True when the file holds entries for `seed` of `workload`.
  bool Covers(std::uint64_t seed, const std::string& workload) const;
  /// The expected output of one cell; null when absent or damaged.
  const CellOutput* Find(std::uint64_t seed, const std::string& workload,
                         const std::string& cell) const;
  std::size_t size() const { return cells_.size(); }

 private:
  std::map<std::string, CellOutput> cells_;
  std::set<std::string> corrupt_;  // covered cells whose entry is damaged
  std::set<std::string> covered_;  // "<seed> <workload>"
};

// --------------------------------------------------------------- spans

/// Duration and self time of every span name in a trace: self time is a
/// span's duration minus the part of it its direct child spans (same
/// thread lane, nested intervals) cover.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};
std::map<std::string, SpanTotals> SelfTimes(const cyclestream::obs::Json& trace);

// --------------------------------------------------------------- output

/// Peak resident set of this process, MiB.
double PeakRssMib();

/// Named metrics with units, in insertion order.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  /// Copies every metric of `other` not already present.
  void Merge(const MetricSet& other);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const MetricSet& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
