// Self-tests of the benchmark harness: the percentile rule and geometric
// mean, seed-determinism of the generated inputs, golden-file parsing, and
// that a damaged golden entry surfaces as a failed operation rather than a
// crash. Exits 0 when every check passes.

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentileRule() {
  Expect(SupportedPercentile(OneTo(1000), 0.99) == 990.0,
         "p99 of 1000 samples is the 990th, with 10 samples beyond");
  Expect(!SupportedPercentile(OneTo(999), 0.99).has_value(),
         "p99 of 999 samples is refused (only 9 beyond)");
  Expect(SupportedPercentile(OneTo(20), 0.5) == 10.0,
         "p50 of 20 samples has 10 beyond");
  Expect(!SupportedPercentile(OneTo(19), 0.5).has_value(),
         "p50 of 19 samples is refused");
  Expect(HighestSupportedQuantile(1000) == 0.99 &&
             HighestSupportedQuantile(10) == 0.0,
         "highest supported quantile: 0.99 at n=1000, none at n=10");
  const double q = HighestSupportedQuantile(137);
  Expect(SupportedPercentile(OneTo(137), q).has_value() &&
             !SupportedPercentile(OneTo(137), q + 1e-3).has_value(),
         "highest supported quantile is the boundary of the rule");
  Expect(Median({3, 1, 2}) == 2.0 && Median({4, 1, 3, 2}) == 2.5,
         "median of odd and even sample counts");
}

void TestGeometricMean() {
  const std::vector<double> a = {1.0, 100.0}, b = {2.0, 8.0}, zero = {1.0, 0.0};
  Expect(std::abs(*GeometricMean(a) - 10.0) < 1e-12, "geomean(1, 100) = 10");
  Expect(std::abs(*GeometricMean(b) - 4.0) < 1e-12, "geomean(2, 8) = 4");
  Expect(!GeometricMean(zero).has_value() &&
             !GeometricMean(std::vector<double>{}).has_value(),
         "geomean refuses zero and empty input");
}

void TestInputDigest() {
  for (const std::string& workload : WorkloadNames()) {
    const std::string a = InputDigestFor(workload, 7);
    const std::string b = InputDigestFor(workload, 7);
    const std::string c = InputDigestFor(workload, 8);
    Expect(a == b, workload + ": same seed gives the same input digest");
    Expect(a != c, workload + ": another seed gives another input digest");
  }
}

std::string Join(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

void TestGolden() {
  constexpr std::uint64_t kSeed = 3;
  std::vector<std::string> lines = GoldenLinesFor(kEstimatePowerlaw, kSeed);
  Expect(lines.size() == 16, "16 golden cells for estimate-powerlaw");
  std::set<std::string> crcs;
  for (const std::string& line : lines) crcs.insert(line.substr(line.find("crc=")));
  Expect(crcs.size() > 8, "state CRCs tell the cells' final states apart");
  std::string error;
  std::optional<Golden> clean = Golden::Parse(Join(lines), &error);
  Expect(clean.has_value() && clean->size() == 16 &&
             clean->Covers(kSeed, kEstimatePowerlaw) &&
             !clean->Covers(kSeed + 1, kEstimatePowerlaw),
         "golden lines parse back and cover exactly their seed");

  // One damaged value (the first estimate's last character) and one damaged
  // field (unparsable CRC).
  std::vector<std::string> damaged = lines;
  const std::size_t est = damaged[0].find(" passes=");
  damaged[0][est - 1] = damaged[0][est - 1] == '1' ? '2' : '1';
  const std::size_t crc = damaged[5].find("crc=");
  damaged[5].replace(crc, std::string::npos, "crc=zz");
  std::optional<Golden> corrupt = Golden::Parse(Join(damaged), &error);
  Expect(corrupt.has_value() && corrupt->size() == 15,
         "a damaged field drops only its own entry");
  Expect(!Golden::Parse("not-a-seed estimate-powerlaw cell est=0x0p+0\n",
                        &error)
              .has_value(),
         "an unreadable key rejects the file");

  WorkloadConfig config;
  config.seed = kSeed;
  config.seconds = 1e-3;  // one round
  config.setup_reps = 1;
  config.golden = &*clean;
  const WorkloadResult ok = RunWorkload(kEstimatePowerlaw, config);
  Expect(ok.attempted == 16 && ok.failed == 0 && ok.failures.empty(),
         "clean golden: 16 cells attempted, none failed");
  config.golden = &*corrupt;
  const WorkloadResult bad = RunWorkload(kEstimatePowerlaw, config);
  Expect(bad.attempted == 16 && bad.failed == 2 && bad.failures.size() == 2,
         "damaged golden: exactly the two damaged cells fail");
  for (const std::string& f : bad.failures) std::printf("  %s\n", f.c_str());
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileRule();
  perfbench::TestGeometricMean();
  perfbench::TestInputDigest();
  perfbench::TestGolden();
  std::printf("%s: %d failure(s)\n",
              perfbench::failures == 0 ? "OK" : "FAILED", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
