// Table 1, row "ℓ=4 | 2 passes | O(m / T^{3/8})" (Theorem 4.6).
//
// Worst-case family for the wedge-sampling analysis: complete bipartite
// blocks K_{c,c}, which have T = C(c,2)² 4-cycles on only Θ(c³) = Θ(T^{3/4})
// wedges — the wedge-poor extremal configuration Section 2.2's "as few as
// T^{3/4} wedges" refers to. Finds the minimal sample size at which the
// two-pass 4-cycle counter lands within a constant factor of the truth
// (8x, comfortably past the distinct counter's inherent ~3-4x upward bias)
// in >= 80% of trials, across a T sweep at fixed m, and verifies the
// m / T^{3/8} shape (log-log slope vs T around -3/8 = -0.375).

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/four_cycle.h"
#include "gen/planted.h"
#include "stream/adjacency_stream.h"
#include "stream/driver.h"

namespace cyclestream {
namespace {

// K_{c,c} (ids 0..2c-1) plus a star-forest pad up to target_edges.
Graph MakeWorkload(std::size_t c, std::size_t target_edges) {
  CYCLESTREAM_CHECK_LE(c * c, target_edges);
  GraphBuilder builder;
  for (std::size_t u = 0; u < c; ++u) {
    for (std::size_t v = 0; v < c; ++v) {
      builder.AddEdge(static_cast<VertexId>(u),
                      static_cast<VertexId>(c + v));
    }
  }
  VertexId next = static_cast<VertexId>(2 * c);
  std::size_t remaining = target_edges - c * c;
  const std::size_t star_degree = 200;
  for (std::size_t s = 0; s * star_degree < remaining; ++s) {
    VertexId hub = next++;
    for (std::size_t l = 0; l < star_degree; ++l) {
      builder.AddEdge(hub, next++);
    }
  }
  return builder.Build();
}

struct Outcome {
  std::vector<double> estimates;
  std::size_t peak_space = 0;
};

Outcome RunTrials(const Graph& g, std::size_t t_count, std::size_t sample,
                  int trials, std::uint64_t seed_base) {
  stream::AdjacencyListStream s(&g, 31337);
  obs::Json config = obs::Json::Object();
  config.Set("T", obs::Json(t_count));
  config.Set("m", obs::Json(g.num_edges()));
  config.Set("sample", obs::Json(sample));
  std::vector<runtime::TrialResult> results = bench::RunBatch(
      "fourcycle/T=" + std::to_string(t_count) +
          "/sample=" + std::to_string(sample),
      trials, seed_base,
      [&](const bench::TrialCtx& ctx) {
        core::FourCycleOptions options;
        options.sample_size = sample;
        options.seed = ctx.seed;
        core::TwoPassFourCycleCounter counter(options);
        stream::RunReport report = ctx.Run(s, &counter);
        return ctx.Result(counter.Estimate(), 0.0, report);
      },
      std::move(config));
  return {runtime::TrialRunner::Estimates(results),
          runtime::TrialRunner::MaxReportedPeak(results)};
}

double FracWithinFactor(const std::vector<double>& estimates, double truth,
                        double factor) {
  int ok = 0;
  for (double e : estimates) ok += (e >= truth / factor && e <= truth * factor);
  return static_cast<double>(ok) / estimates.size();
}

}  // namespace
}  // namespace cyclestream

int main(int argc, char** argv) {
  using namespace cyclestream;
  const bench::BenchOptions opts = bench::ParseOptions(argc, argv);
  const std::size_t kEdges = opts.full ? 250000 : 100000;
  const int kTrials = opts.full ? 21 : 13;
  const double kFactor = 8.0;

  bench::PrintHeader(
      opts, "Table 1 / Theorem 4.6: two-pass O(1)-approx 4-cycle counting",
      "space m' = O(m / T^{3/8}) suffices for an O(1) approximation");

  // O(1)-factor guarantee encoded as a relative-error band: estimates
  // within kFactor of T have |est - T| / T <= kFactor - 1, at the same 80%
  // success target MinimalSample searched for.
  obs::AccuracyObserver accuracy(bench::Observe().metrics, "two_pass_four_cycle",
                                 obs::AccuracyBand{kFactor - 1.0, 0.2});

  std::vector<std::size_t> block_sizes = {6, 9, 13, 19};  // T = C(c,2)^2
  bench::Table table(opts, {{"T", 8, bench::kColInt},
                            {"m", 8, bench::kColInt},
                            {"m/T^(3/8)", 11, 0},
                            {"minimal m'", 12, bench::kColInt},
                            {"ratio", 8, 2},
                            {"med est/T", 12, 2},
                            {"space@min", 10, bench::kColStr}});
  table.PrintHeader();
  std::vector<double> log_t, log_min, space_at_min;
  for (std::size_t c : block_sizes) {
    const std::size_t t_count = (c * (c - 1) / 2) * (c * (c - 1) / 2);
    Graph g = MakeWorkload(c, kEdges);
    const double m = static_cast<double>(g.num_edges());
    const double truth = static_cast<double>(t_count);
    const double predicted = m / std::pow(truth, 3.0 / 8.0);

    auto success = [&](std::size_t m_prime) {
      Outcome out = RunTrials(g, t_count, m_prime, kTrials, 100 + t_count);
      return FracWithinFactor(out.estimates, truth, kFactor);
    };
    std::size_t minimal = bench::MinimalSample(
        std::max<std::size_t>(16, static_cast<std::size_t>(predicted / 16)),
        1.5, g.num_edges(), 0.8, success);

    Outcome at_min = RunTrials(g, t_count, minimal, kTrials, 200 + t_count);
    for (double e : at_min.estimates) accuracy.Observe(e, truth);
    bench::TrialStats stats = bench::Summarize(at_min.estimates, truth, 1.0);

    table.PrintRow({t_count, g.num_edges(), predicted, minimal,
                    minimal / predicted, stats.median / truth,
                    bench::FormatBytes(at_min.peak_space)});
    log_t.push_back(truth);
    log_min.push_back(static_cast<double>(minimal));
    space_at_min.push_back(static_cast<double>(at_min.peak_space));
    bench::CurvePoint("fourcycle_min_sample_vs_T", truth,
                      static_cast<double>(minimal));
  }

  double slope = bench::LogLogSlope(log_t, log_min);
  bench::Slope("fourcycle_min_sample_vs_T", slope, -3.0 / 8.0,
               slope < -0.15 && slope > -0.75);
  bench::FitCurve("fourcycle_space_vs_T", log_t, space_at_min, -3.0 / 8.0);
  bench::RecordAccuracy(accuracy);
  bench::Note(opts, "\nlog-log slope of minimal m' vs T: %+.3f (paper "
              "predicts -3/8 = -0.375)\n", slope);
  bench::Note(opts, "shape verdict: %s\n",
              (slope < -0.15 && slope > -0.75) ? "CONSISTENT with m/T^(3/8)"
                                                : "INCONSISTENT");
  return 0;
}
