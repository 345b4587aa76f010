// JSONL run manifests: the machine-readable record of a bench run that
// `--metrics-out` / `--trace-out` emit and `scripts/bench_report.py`
// consumes.
//
// A manifest is a sequence of newline-delimited JSON records, each with a
// "record" type tag and "schema_version". Record types (schema v3):
//
//   run         — first line: bench name, git describe, build_info stamp
//                 (exact sha / compiler / flags), seed, threads, argv
//   batch       — one per bench batch (label, per-trial estimate/space/time)
//   timeline    — space timeline of a traced trial (per-pass points, each
//                 [pairs, reported_bytes, audited_bytes])
//   curve_point — one (x, y) of a measured space curve
//   slope       — measured vs predicted log-log slope for a curve
//   fit         — least-squares exponent fit of peak space vs T for one
//                 curve (fitted_exponent next to predicted_exponent)
//   metrics     — MetricsRegistry snapshot (counters + histograms with
//                 max/p50/p95)
//   accuracy    — per-estimator (epsilon, delta) band verdicts
//   prof        — one hardware-counter aggregate per ProfScope name:
//                 backend ("perf_event"/"rusage"), fallback flag, scope
//                 count, cycles/instructions/cache/branch/task-clock
//                 totals, derived ipc (0 when unavailable)
//   run_end     — last line: totals and record count for truncation checks
//
// Schema v3 (this version) adds the `prof` record type and the run
// header's required `build_info` object. v2 renamed batch space fields
// to the reported_/audited_ scheme and widened timeline points to
// 3-arrays.
//
// Writers flush per line so a crashed run leaves a readable prefix.

#ifndef CYCLESTREAM_OBS_MANIFEST_H_
#define CYCLESTREAM_OBS_MANIFEST_H_

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "util/status.h"

namespace cyclestream {
namespace obs {

class Profiler;

/// Bump when record shapes change incompatibly; bench_report.py validates
/// against this.
inline constexpr int kManifestSchemaVersion = 3;

/// The `git describe --always --dirty` of the built tree, captured at
/// configure time; "unknown" when built outside a git checkout.
const char* GitDescribe();

/// Appends one JSON record per Write() call to a file, newline-delimited,
/// flushing each line.
class ManifestWriter {
 public:
  /// Opens `path` for writing (truncates). NotFound-style Status on
  /// failure (unwritable directory etc.).
  static StatusOr<ManifestWriter> Open(const std::string& path);

  ManifestWriter(ManifestWriter&& other) noexcept;
  ManifestWriter& operator=(ManifestWriter&& other) noexcept;
  ManifestWriter(const ManifestWriter&) = delete;
  ManifestWriter& operator=(const ManifestWriter&) = delete;
  ~ManifestWriter();

  /// Serializes `record` compactly and appends it as one line.
  void Write(const Json& record);

  std::size_t records_written() const { return records_written_; }
  const std::string& path() const { return path_; }

 private:
  explicit ManifestWriter(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  std::FILE* file_ = nullptr;
  std::string path_;
  std::size_t records_written_ = 0;
};

/// Writes `text` to `path` as a whole file (truncating). NotFound when the
/// file cannot be opened; DataLoss when the write comes up short or the
/// close fails (a full disk), so a truncated file never reads as written.
Status WriteTextFile(const std::string& path, std::string_view text);

/// Record constructors. Each returns an object with "record" and
/// "schema_version" set; callers Set() additional fields before writing.
Json MakeRecord(std::string_view type);

/// The `prof` records of `prof`: one per scope aggregate, in scope-name
/// order.
std::vector<Json> ProfRecords(const Profiler& prof);

}  // namespace obs
}  // namespace cyclestream

#endif  // CYCLESTREAM_OBS_MANIFEST_H_
