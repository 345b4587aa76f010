// perfbench: the repository benchmark.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--golden FILE] [--trace-dir DIR]
//   perfbench --write-golden FILE --seeds A-B
//
// Untraced (--trace 0): runs workload W and prints every end-to-end metric.
// Traced (--trace 1): runs W untraced (for the tracing overhead), then every
// workload with spans around each layer call — W on the full budget, the
// others on half — and prints every per-layer metric; each metric comes
// from the workload that exercises its layer (see perfbench/README.md).
// The last stdout line is the JSON result; lines before it start with '#'.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::string Flag(int argc, char** argv, const std::string& name,
                 const std::string& fallback = "") {
  for (int i = 1; i + 1 < argc; ++i) {
    if (name == argv[i]) return argv[i + 1];
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, const std::string& name) {
  for (int i = 1; i < argc; ++i) {
    if (name == argv[i]) return true;
  }
  return false;
}

int Usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  return 2;
}

bool KnownWorkload(const std::string& name) {
  const auto& names = WorkloadNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

int WriteGolden(const std::string& path, const std::string& range) {
  const std::size_t dash = range.find('-');
  if (dash == std::string::npos) return Usage("--seeds wants A-B");
  const std::uint64_t first = std::stoull(range.substr(0, dash));
  const std::uint64_t last = std::stoull(range.substr(dash + 1));
  std::ofstream out(path);
  if (!out) return Usage("cannot write " + path);
  out << "# perfbench golden reference: one trusted driver run per cell.\n"
         "# <seed> <workload> <cell> est=<hexfloat> passes pairs reported"
         " audited divergence per_pass=<reported:audited:pairs,...>"
         " crc=<CRC-32 of the final serialized state>\n";
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    for (const char* workload : {kEstimatePowerlaw, kCheckedModels}) {
      for (const std::string& line : GoldenLinesFor(workload, seed)) {
        out << line << '\n';
      }
    }
    std::fprintf(stderr, "golden: seed %llu done\n",
                 static_cast<unsigned long long>(seed));
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (HasFlag(argc, argv, "--write-golden")) {
    return WriteGolden(Flag(argc, argv, "--write-golden"),
                       Flag(argc, argv, "--seeds", "1-1"));
  }
  const std::string workload = Flag(argc, argv, "--workload");
  if (!KnownWorkload(workload)) {
    return Usage("unknown --workload '" + workload + "'");
  }
  const std::uint64_t seed = std::stoull(Flag(argc, argv, "--seed", "1"));
  const double seconds = std::stod(Flag(argc, argv, "--seconds", "10"));
  const bool traced = Flag(argc, argv, "--trace", "0") == "1";
  if (!(seconds > 0.0)) return Usage("--seconds must be positive");

  std::string golden_error;
  std::optional<Golden> golden =
      Golden::Load(Flag(argc, argv, "--golden"), &golden_error);

  // Thread budget: one client thread plus at most nproc - 1 service
  // workers (never more than the service workload's three shards).
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  const int nproc = online > 0 ? static_cast<int>(online) : 1;
  WorkloadConfig config;
  config.seed = seed;
  config.seconds = seconds;
  config.workers = std::clamp(nproc - 1, 1, 3);
  config.golden = golden ? &*golden : nullptr;
  const bool uses_service = traced || workload == kServiceManyStreams;
  const int threads = uses_service ? 1 + config.workers : 1;
  std::printf(
      "# perfbench workload=%s seed=%llu seconds=%g trace=%d nproc=%d "
      "threads=%d (client 1 + service workers %d) oversubscribed=%s\n",
      workload.c_str(), static_cast<unsigned long long>(seed), seconds,
      traced ? 1 : 0, nproc, threads, uses_service ? config.workers : 0,
      threads > nproc ? "YES" : "no");
  if (threads > nproc) {
    std::printf("# WARNING: %d threads exceed nproc=%d; timings are "
                "oversubscribed\n", threads, nproc);
  }

  std::vector<std::string> failures;
  if (!golden) failures.push_back("golden file: " + golden_error);
  std::uint64_t attempted = 0, failed = 0;
  auto account = [&](const std::string& name, const std::string& mode,
                     const WorkloadResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& f : r.failures) failures.push_back(name + ": " + f);
    std::printf(
        "# %s%s input_digest=%s attempted=%llu failed=%llu golden=%s\n",
        name.c_str(), mode.c_str(), r.input_digest.c_str(),
        static_cast<unsigned long long>(r.attempted),
        static_cast<unsigned long long>(r.failed),
        golden && golden->Covers(seed, name) ? "covered" : "in-run");
  };

  MetricSet metrics;
  if (!traced) {
    WorkloadResult r = RunWorkload(workload, config);
    account(workload, "", r);
    metrics = r.end_to_end;
    metrics.Set("peak_rss_mib", PeakRssMib(), "MiB");
  } else {
    config.setup_reps = 1;
    WorkloadResult untraced = RunWorkload(workload, config);
    account(workload, " (untraced)", untraced);
    const std::string trace_dir = Flag(argc, argv, "--trace-dir");
    std::vector<std::string> order = {workload};
    for (const std::string& other : WorkloadNames()) {
      if (other != workload) order.push_back(other);
    }
    double traced_pps = 0.0;
    for (const std::string& name : order) {
      cyclestream::obs::TraceSession spans;
      WorkloadConfig layer_config = config;
      layer_config.spans = &spans;
      if (name != workload) layer_config.seconds = seconds / 2;
      WorkloadResult r = RunWorkload(name, layer_config);
      account(name, " (traced)", r);
      metrics.Merge(r.layers);
      if (name == workload) traced_pps = r.end_to_end.Get("pairs_per_s");
      if (!trace_dir.empty()) {
        const std::string path = trace_dir + "/" + workload + "-seed" +
                                 std::to_string(seed) + "-" + name + ".json";
        if (!spans.WriteTo(path).ok()) {
          std::printf("# could not write trace %s\n", path.c_str());
        }
      }
    }
    metrics.Set("trace.overhead_frac",
                untraced.end_to_end.Get("pairs_per_s") / traced_pps - 1.0,
                "fraction");
  }

  for (const std::string& f : failures) std::printf("# FAIL %s\n", f.c_str());
  const bool correct = failures.empty() && failed == 0;
  std::printf("%s\n", ResultLine(correct, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {  // malformed numeric flags
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
