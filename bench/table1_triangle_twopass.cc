// Table 1, row "Triangle | 2 passes | O(m / T^{2/3})" (Theorem 3.7).
//
// Regenerates the row's content empirically on the algorithm's own
// worst-case family: planted cliques. A clique with T = C(c,3) triangles
// realizes Lemma 3.2's extremal Σ T̃_e² = Θ(T^{4/3}), which is exactly what
// makes the m / T^{2/3} bound tight (easier families like disjoint
// triangles only need m/T space). For cliques of growing T at fixed m we
// find the minimal sample size m' achieving a (1 ± 0.25)-estimate in >= 80%
// of trials and check that m' scales like m / T^{2/3} (log-log slope vs T
// close to -2/3). Also reports accuracy and measured space at the
// paper-prescribed m' = C * m / T^{2/3}.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/two_pass_triangle.h"
#include "exact/triangle.h"
#include "gen/planted.h"
#include "stream/adjacency_stream.h"
#include "stream/driver.h"

namespace cyclestream {
namespace {

Graph MakeWorkload(std::size_t clique_size, std::size_t target_edges) {
  gen::PlantedBackground bg;
  std::size_t planted_edges = clique_size * (clique_size - 1) / 2;
  CYCLESTREAM_CHECK_LE(planted_edges, target_edges);
  bg.star_degree = 200;
  bg.stars =
      (target_edges - planted_edges + bg.star_degree - 1) / bg.star_degree;
  return gen::PlantedClique(clique_size, bg);
}

struct TrialOutcome {
  std::vector<double> estimates;
  std::size_t peak_space = 0;
};

TrialOutcome RunTrials(const Graph& g, std::size_t t_count, std::size_t sample,
                       int trials, std::uint64_t seed_base) {
  stream::AdjacencyListStream s(&g, 104729);
  obs::Json config = obs::Json::Object();
  config.Set("T", obs::Json(t_count));
  config.Set("m", obs::Json(g.num_edges()));
  config.Set("sample", obs::Json(sample));
  std::vector<runtime::TrialResult> results = bench::RunBatch(
      "twopass/T=" + std::to_string(t_count) +
          "/sample=" + std::to_string(sample),
      trials, seed_base,
      [&](const bench::TrialCtx& ctx) {
        core::TwoPassTriangleOptions options;
        options.sample_size = sample;
        options.seed = ctx.seed;
        core::TwoPassTriangleCounter counter(options);
        stream::RunReport report = ctx.Run(s, &counter);
        return ctx.Result(counter.Estimate(), 0.0, report);
      },
      std::move(config));
  return {runtime::TrialRunner::Estimates(results),
          runtime::TrialRunner::MaxReportedPeak(results)};
}

}  // namespace
}  // namespace cyclestream

int main(int argc, char** argv) {
  using namespace cyclestream;
  const bench::BenchOptions opts = bench::ParseOptions(argc, argv);
  const std::size_t kEdges = opts.full ? 300000 : 120000;
  const int kTrials = opts.full ? 21 : 13;
  const double kEps = 0.25;

  bench::PrintHeader(
      opts, "Table 1 / Theorem 3.7: two-pass (1+eps) triangle counting",
      "space m' = O(m / T^{2/3}) suffices for (1 +- eps) with prob 2/3");

  // Trials at the minimal sample feed the accuracy-vs-guarantee observer:
  // the empirical band is (eps, delta) = (0.25, 0.2), matching the 80%
  // success target MinimalSample searched for.
  obs::AccuracyObserver accuracy(bench::Observe().metrics, "two_pass_triangle",
                                 obs::AccuracyBand{kEps, 0.2});

  std::vector<std::size_t> clique_sizes = {20, 32, 50, 80};
  bench::Table table(opts, {{"T", 8, bench::kColInt},
                            {"m", 8, bench::kColInt},
                            {"m/T^(2/3)", 10, 0},
                            {"minimal m'", 12, bench::kColInt},
                            {"ratio", 12, 2},
                            {"relerr", 8, 3},
                            {"frac+-25%", 10, 2},
                            {"space@min", 10, bench::kColStr}});
  table.PrintHeader();
  std::vector<double> log_t, log_min, space_at_min;
  for (std::size_t c : clique_sizes) {
    const std::size_t t_count = c * (c - 1) * (c - 2) / 6;
    Graph g = MakeWorkload(c, kEdges);
    const double m = static_cast<double>(g.num_edges());
    const double truth = static_cast<double>(t_count);
    const double predicted = m / std::pow(truth, 2.0 / 3.0);

    auto success = [&](std::size_t m_prime) {
      TrialOutcome out = RunTrials(g, t_count, m_prime, kTrials,
                                   1000 + t_count);
      return bench::Summarize(out.estimates, truth, kEps).frac_within;
    };
    std::size_t minimal = bench::MinimalSample(
        std::max<std::size_t>(16, static_cast<std::size_t>(predicted / 2)),
        1.5, g.num_edges(), 0.8, success);

    TrialOutcome at_min = RunTrials(g, t_count, minimal, kTrials,
                                    77 + t_count);
    for (double e : at_min.estimates) accuracy.Observe(e, truth);
    bench::TrialStats stats = bench::Summarize(at_min.estimates, truth, kEps);

    table.PrintRow({t_count, g.num_edges(), predicted, minimal,
                    minimal / predicted, stats.median_rel_error,
                    stats.frac_within, bench::FormatBytes(at_min.peak_space)});
    log_t.push_back(truth);
    log_min.push_back(static_cast<double>(minimal));
    space_at_min.push_back(static_cast<double>(at_min.peak_space));
    bench::CurvePoint("twopass_min_sample_vs_T", truth,
                      static_cast<double>(minimal));
  }

  double slope = bench::LogLogSlope(log_t, log_min);
  bench::Slope("twopass_min_sample_vs_T", slope, -2.0 / 3.0,
               slope < -0.35 && slope > -1.05);
  bench::FitCurve("twopass_space_vs_T", log_t, space_at_min, -2.0 / 3.0);
  bench::RecordAccuracy(accuracy);
  bench::Note(opts, "\nlog-log slope of minimal m' vs T: %+.3f (paper "
              "predicts -2/3 = -0.667)\n", slope);
  bench::Note(opts, "shape verdict: %s\n",
              (slope < -0.35 && slope > -1.05) ? "CONSISTENT with m/T^(2/3)"
                                                : "INCONSISTENT");
  return 0;
}
