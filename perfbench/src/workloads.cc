#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/arbitrary_triangle.h"
#include "exact/triangle.h"
#include "gen/chung_lu.h"
#include "gen/erdos_renyi.h"
#include "graph/graph.h"
#include "service/estimator_host.h"
#include "service/service.h"
#include "snapshot/snapshot.h"
#include "stream/adjacency_stream.h"
#include "stream/algorithm.h"
#include "stream/driver.h"
#include "stream/random_order_stream.h"
#include "stream/validator.h"
#include "util/check.h"
#include "util/hashing.h"

namespace perfbench {
namespace {

namespace cs = cyclestream;
using cs::Graph;
using cs::VertexId;
using cs::obs::TraceSession;
using cs::service::EstimatorKind;
using cs::service::EstimatorSpec;
using cs::stream::AdjacencyListStream;
using cs::stream::RandomOrderStream;
using cs::stream::RunReport;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr double kMiB = 1024.0 * 1024.0;

// Independent sub-seeds from the workload seed, one per salt.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t salt) {
  return cs::Mix64(seed * 0x9E3779B97F4A7C15ull + salt);
}

// Graphs and estimator seeds are fixed per workload; --seed draws the
// stream orders. Drawing the graph or the estimators' hash seeds from it
// would move the metrics more than run-to-run noise does (one-pass 4-cycle
// peak space alone swings 1.7x), so seeds could not be compared.
std::uint64_t FixedSeed(std::uint64_t salt) { return SubSeed(0, salt); }

TraceSession::Span Begin(TraceSession* spans, const std::string& name) {
  return TraceSession::Begin(spans, name, "perfbench");
}

// ------------------------------------------------------------ streams

// One of the two stream types the workloads drive.
struct StreamRef {
  const AdjacencyListStream* adjacency = nullptr;
  const RandomOrderStream* edges = nullptr;

  template <typename Fn>
  decltype(auto) Visit(Fn&& fn) const {
    return adjacency != nullptr ? fn(*adjacency) : fn(*edges);
  }
  std::size_t length() const {
    return Visit([](const auto& s) { return s.stream_length(); });
  }
};

void DigestGraph(const Graph& g, InputDigest* digest) {
  digest->Add(g.num_vertices());
  for (const cs::Edge& e : g.edges()) digest->Add(cs::MakeEdgeKey(e));
}

void DigestStream(const AdjacencyListStream& s, InputDigest* digest) {
  digest->AddSpan(s.list_order());
  for (VertexId u : s.list_order()) digest->AddSpan(s.ListOf(u));
}

void DigestStream(const RandomOrderStream& s, InputDigest* digest) {
  digest->Add(s.order().size());
  for (const cs::Edge& e : s.order()) digest->Add(cs::MakeEdgeKey(e));
}

// Element counter: the replay layer alone.
struct CountingSink {
  std::uint64_t elements = 0;
  void BeginList(VertexId) {}
  void OnList(VertexId, std::span<const VertexId> list) {
    elements += list.size();
  }
  void EndList(VertexId) {}
};

// Replay plus driver metering, with no estimator work behind it.
class NoopAlgorithm final : public cs::stream::StreamAlgorithm {
 public:
  int passes() const override { return 1; }
  bool AcceptsModel(cs::stream::StreamModel) const override { return true; }
  void OnPair(VertexId, VertexId) override {}
  void OnListBatch(VertexId, std::span<const VertexId>) override {}
  std::size_t CurrentSpaceBytes() const override { return 0; }
};

// Feeds a stream's events to its model contract and nothing else.
template <typename ContractT>
struct ContractSink {
  ContractT* contract;
  void BeginList(VertexId u) { contract->BeginList(u); }
  void OnList(VertexId u, std::span<const VertexId> list) {
    contract->OnList(u, list);
  }
  void EndList(VertexId u) { contract->EndList(u); }
};

// Repeats `body` (which returns elements processed) under one span per
// repetition until `min_seconds` have passed; returns elements in total.
template <typename Fn>
std::uint64_t RepeatFor(TraceSession* spans, const std::string& name,
                        double min_seconds, Fn&& body) {
  std::uint64_t elements = 0;
  const Clock::time_point start = Clock::now();
  do {
    auto span = Begin(spans, name);
    elements += body();
  } while (SecondsSince(start) < min_seconds);
  return elements;
}

// Builds a workload's inputs `setup_reps` times and keeps the first build;
// the median build time is the workload's setup_s.
template <typename MakeFn>
auto SetUp(const WorkloadConfig& config, const std::string& span_name,
           MakeFn&& make, WorkloadResult* result) {
  decltype(make()) kept;
  std::vector<double> seconds;
  for (int rep = 0; rep < std::max(1, config.setup_reps); ++rep) {
    auto span = Begin(config.spans, span_name);
    const Clock::time_point start = Clock::now();
    auto built = make();
    seconds.push_back(SecondsSince(start));
    if (kept == nullptr) kept = std::move(built);
  }
  result->end_to_end.Set("setup_s", Median(seconds), "s");
  result->input_digest = kept->digest;
  return kept;
}

// ----------------------------------------------------------- estimators

// A benchmark cell's estimator: a hosted service kind, or the arbitrary-
// order triangle counter (the cheapest estimator edge models accept; the
// service does not host it).
constexpr int kArbitraryOrderKind = -1;

struct CellDef {
  std::string name;  // "<kind>.m64" etc.
  int kind = 0;      // EstimatorKind value, or kArbitraryOrderKind
  std::uint64_t slots = 1;
  std::uint64_t seed = 1;
  StreamRef stream;
  std::string model;  // stream model label (checked-models)
};

struct Estimator {
  std::unique_ptr<cs::stream::StreamAlgorithm> algo;
  double (*estimate)(const cs::stream::StreamAlgorithm&) = nullptr;
};

double ArbitraryEstimate(const cs::stream::StreamAlgorithm& algo) {
  return static_cast<const cs::core::ArbitraryOrderTriangleCounter&>(algo)
      .Estimate();
}

Estimator MakeEstimator(const CellDef& cell) {
  Estimator e;
  if (cell.kind == kArbitraryOrderKind) {
    cs::core::ArbitraryTriangleOptions options;
    options.sample_size = static_cast<std::size_t>(cell.slots);
    options.seed = cell.seed;
    e.algo = std::make_unique<cs::core::ArbitraryOrderTriangleCounter>(options);
    e.estimate = &ArbitraryEstimate;
    return e;
  }
  EstimatorSpec spec;
  spec.kind = static_cast<EstimatorKind>(cell.kind);
  spec.slots = cell.slots;
  spec.seed = cell.seed;
  auto hosted = cs::service::MakeHosted(spec);
  CYCLESTREAM_CHECK(hosted.ok());
  e.algo = std::move(hosted->algo);
  e.estimate = hosted->estimate;
  return e;
}

// CRC of the estimator's serialized final state. The arbitrary-order
// counter has no snapshot support, so its CRC covers its result fields.
std::uint32_t StateCrc(const CellDef& cell, const Estimator& e) {
  cs::snapshot::SnapshotWriter w;
  if (cell.kind == kArbitraryOrderKind) {
    const auto result =
        static_cast<const cs::core::ArbitraryOrderTriangleCounter&>(*e.algo)
            .result();
    w.WriteU64(result.edge_count);
    w.WriteU64(result.detections);
    w.WriteU64(result.edge_sample_size);
    w.WriteDouble(result.estimate);
  } else {
    e.algo->Serialize(w);
  }
  // The envelope ends with the CRC-32 of everything before it; CRC that
  // prefix (a CRC over the whole envelope is the same constant for all).
  const std::vector<std::uint8_t> bytes = std::move(w).Finish();
  return cs::snapshot::Crc32(
      std::span<const std::uint8_t>(bytes.data(), bytes.size() - 4));
}

CellOutput OutputOf(const CellDef& cell, const Estimator& e,
                    RunReport report) {
  CellOutput out;
  out.estimate = e.estimate(*e.algo);
  out.report = std::move(report);
  out.state_crc = StateCrc(cell, e);
  return out;
}

RunReport RunTrusted(const CellDef& cell, cs::stream::StreamAlgorithm* algo) {
  return cell.stream.Visit(
      [&](const auto& s) { return cs::stream::RunPasses(s, algo); });
}

cs::StatusOr<RunReport> RunChecked(const CellDef& cell,
                                   cs::stream::StreamAlgorithm* algo) {
  return cell.stream.Visit(
      [&](const auto& s) { return cs::stream::RunPassesChecked(s, algo); });
}

// Records a failed operation with its reason.
void Fail(WorkloadResult* result, const std::string& op,
          const std::string& why) {
  result->failures.push_back(op + ": " + why);
}

// Golden check of one cell; a missing or corrupt entry is a mismatch.
void CheckGolden(const WorkloadConfig& config, const std::string& workload,
                 const CellDef& cell, const CellOutput& got,
                 std::string* why) {
  if (!why->empty() || config.golden == nullptr ||
      !config.golden->Covers(config.seed, workload)) {
    return;
  }
  const CellOutput* want = config.golden->Find(config.seed, workload,
                                               cell.name);
  if (want == nullptr) {
    *why = "golden entry missing or corrupt";
    return;
  }
  if (std::string d = DiffCells(*want, got); !d.empty()) {
    *why = "golden mismatch: " + d;
  }
}

// ns per element of span `name`'s self time, given elements processed.
double NsPer(const std::map<std::string, SpanTotals>& spans,
             const std::string& name, double elements) {
  auto it = spans.find(name);
  if (it == spans.end() || elements <= 0.0) return 0.0;
  return it->second.self_ns / elements;
}

// ==================================================== estimate-powerlaw

// Chung–Lu, gamma 2.3, average degree 8: m ≈ 66k.
constexpr std::size_t kPowerlawVertices = 18000;
// Minimum measured time per cell per round.
constexpr double kSliceSeconds = 0.05;

struct PowerlawInputs {
  Graph graph;
  std::unique_ptr<AdjacencyListStream> adjacency;
  std::unique_ptr<RandomOrderStream> edges;
  std::uint64_t triangles = 0;
  std::vector<CellDef> cells;
  std::string digest;
};

std::unique_ptr<PowerlawInputs> MakePowerlawInputs(std::uint64_t seed,
                                                   bool count) {
  auto in = std::make_unique<PowerlawInputs>();
  in->graph =
      cs::gen::ChungLuPowerLaw(kPowerlawVertices, 8.0, 2.3, FixedSeed(1));
  // The list order is fixed too: which list arrives last decides how many
  // wedges the one-pass 4-cycle estimator holds. The seed shuffles the
  // order within each list.
  const AdjacencyListStream fixed_order(&in->graph, FixedSeed(2));
  in->adjacency = std::make_unique<AdjacencyListStream>(
      &in->graph, fixed_order.list_order(), SubSeed(seed, 2));
  in->edges = std::make_unique<RandomOrderStream>(&in->graph, SubSeed(seed, 3));
  if (count) in->triangles = cs::exact::CountTriangles(in->graph);
  const std::size_t m = in->graph.num_edges();
  InputDigest digest;
  DigestGraph(in->graph, &digest);
  DigestStream(*in->adjacency, &digest);
  DigestStream(*in->edges, &digest);
  for (int kind = 0; kind < cs::service::kEstimatorKinds; ++kind) {
    for (std::size_t divisor : {64u, 8u}) {
      CellDef cell;
      const auto k = static_cast<EstimatorKind>(kind);
      cell.name = std::string(cs::service::KindName(k)) + ".m" +
                  std::to_string(divisor);
      cell.kind = kind;
      cell.slots = std::max<std::size_t>(1, m / divisor);
      cell.seed = FixedSeed(100 + static_cast<std::uint64_t>(kind));
      if (k == EstimatorKind::kRandomOrderTriangle) {
        cell.stream.edges = in->edges.get();
      } else {
        cell.stream.adjacency = in->adjacency.get();
      }
      digest.Add(static_cast<std::uint64_t>(kind));
      digest.Add(cell.slots);
      digest.Add(cell.seed);
      in->cells.push_back(std::move(cell));
    }
  }
  in->digest = digest.Hex();
  return in;
}

WorkloadResult RunEstimatePowerlaw(const WorkloadConfig& config) {
  WorkloadResult result;
  const auto in = SetUp(config, "pl.setup", [&] {
    return MakePowerlawInputs(config.seed, /*count=*/true);
  }, &result);
  const std::vector<CellDef>& cells = in->cells;

  // Layer probes: replay alone, then replay plus driver metering.
  std::uint64_t replay_elements = 0, adjacency_driver = 0, edge_driver = 0;
  if (config.spans != nullptr) {
    replay_elements = RepeatFor(config.spans, "pl.replay", 0.1, [&] {
      CountingSink sink;
      in->adjacency->ReplayPass(sink);
      in->edges->ReplayPass(sink);
      return sink.elements;
    });
    adjacency_driver = RepeatFor(config.spans, "pl.driver.adjacency", 0.1, [&] {
      NoopAlgorithm noop;
      return cs::stream::RunPasses(*in->adjacency, &noop).pairs_processed;
    });
    edge_driver = RepeatFor(config.spans, "pl.driver.edges", 0.1, [&] {
      NoopAlgorithm noop;
      return cs::stream::RunPasses(*in->edges, &noop).pairs_processed;
    });
  }

  // Cells in rounds until the budget is spent: each round runs every cell
  // for one slice (repetitions until kSliceSeconds, at least one), so every
  // cell is sampled across the whole run. Every repetition must reproduce
  // the first bit for bit.
  struct CellRuns {
    std::vector<double> rep_seconds;    // one per repetition
    std::vector<double> slice_pps;      // one per round
    CellOutput first;
    std::string why;
  };
  std::vector<CellRuns> runs(cells.size());
  const Clock::time_point budget_start = Clock::now();
  do {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      CellRuns& run = runs[i];
      double slice_seconds = 0.0, slice_pairs = 0.0;
      do {
        Estimator e = MakeEstimator(cells[i]);
        RunReport report;
        const Clock::time_point start = Clock::now();
        {
          auto span = Begin(config.spans, "pl.cell/" + cells[i].name);
          report = RunTrusted(cells[i], e.algo.get());
        }
        const double seconds = SecondsSince(start);
        run.rep_seconds.push_back(seconds);
        slice_seconds += seconds;
        slice_pairs += static_cast<double>(report.pairs_processed);
        CellOutput out = OutputOf(cells[i], e, std::move(report));
        if (run.rep_seconds.size() == 1) {
          run.first = std::move(out);
        } else if (std::string d = DiffCells(run.first, out);
                   !d.empty() && run.why.empty()) {
          run.why = "repetition differs: " + d;
        }
      } while (slice_seconds < kSliceSeconds);
      run.slice_pps.push_back(slice_pairs / slice_seconds);
    }
  } while (SecondsSince(budget_start) < config.seconds);

  std::vector<double> cell_pps, cell_ms;
  double audited_bytes = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellDef& cell = cells[i];
    CellRuns& run = runs[i];
    const RunReport& report = run.first.report;
    const std::size_t want_pairs = static_cast<std::size_t>(
        report.passes_requested) * cell.stream.length();
    if (run.why.empty() && report.pairs_processed != want_pairs) {
      run.why = "pairs " + std::to_string(report.pairs_processed) +
                " != " + std::to_string(want_pairs);
    }
    if (run.why.empty() && cell.kind == static_cast<int>(
                               EstimatorKind::kExactStreamTriangle) &&
        run.first.estimate != static_cast<double>(in->triangles)) {
      run.why = "exact-stream estimate != exact triangle count " +
                std::to_string(in->triangles);
    }
    CheckGolden(config, kEstimatePowerlaw, cell, run.first, &run.why);
    ++result.attempted;
    if (!run.why.empty()) {
      ++result.failed;
      Fail(&result, cell.name, run.why);
    }
    cell_pps.push_back(Median(run.slice_pps));
    cell_ms.push_back(Median(run.rep_seconds) * 1e3);
    audited_bytes += static_cast<double>(report.audited_peak_bytes);
  }

  MetricSet& e2e = result.end_to_end;
  e2e.Set("pairs_per_s", GeometricMean(cell_pps).value_or(0.0), "1/s");
  e2e.Set("space_audited_mib", audited_bytes / kMiB, "MiB");
  e2e.Set("result_p50_ms", GeometricMean(cell_ms).value_or(0.0), "ms");

  if (config.spans != nullptr) {
    const auto spans = SelfTimes(config.spans->ToJson());
    MetricSet& layers = result.layers;
    layers.Set("stream.replay_ns_per_pair",
               NsPer(spans, "pl.replay", static_cast<double>(replay_elements)),
               "ns");
    const double adjacency_ns = NsPer(spans, "pl.driver.adjacency",
                                      static_cast<double>(adjacency_driver));
    const double edge_ns =
        NsPer(spans, "pl.driver.edges", static_cast<double>(edge_driver));
    layers.Set("stream.driver_ns_per_pair", adjacency_ns, "ns");
    std::map<std::string, double> core_ns;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const CellDef& cell = cells[i];
      const double pairs =
          static_cast<double>(runs[i].first.report.pairs_processed) *
          static_cast<double>(runs[i].rep_seconds.size());
      const double driver_ns =
          cell.stream.adjacency != nullptr ? adjacency_ns : edge_ns;
      core_ns[cell.name] = NsPer(spans, "pl.cell/" + cell.name, pairs) -
                           driver_ns;
      layers.Set("core." + cell.name + ".ns_per_pair", core_ns[cell.name],
                 "ns");
    }
    for (int kind = 0; kind < cs::service::kEstimatorKinds; ++kind) {
      const std::string name =
          cs::service::KindName(static_cast<EstimatorKind>(kind));
      layers.Set("core." + name + ".slot_growth",
                 core_ns[name + ".m8"] / core_ns[name + ".m64"], "x");
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      layers.Set(
          "core." + cells[i].name + ".audited_kib",
          static_cast<double>(runs[i].first.report.audited_peak_bytes) / 1024.0,
          "KiB");
    }
  }
  return result;
}

// ======================================================= checked-models

// Uniform G(n, m): m = 400k edges, average degree 16. The working set
// (~30 MB) is well past the private caches. At 1.6M edges one checked run
// takes ~2.5 s, so a run holds too few rounds to be steady.
constexpr std::size_t kCheckedVertices = 50000;
constexpr std::size_t kCheckedEdges = 400000;
constexpr double kPerturbedEpsilon = 0.1;

struct CheckedInputs {
  Graph graph;
  std::unique_ptr<AdjacencyListStream> adjacency;
  std::unique_ptr<RandomOrderStream> random_order;
  std::unique_ptr<RandomOrderStream> perturbed;
  std::vector<CellDef> cells;
  std::vector<CellOutput> trusted;  // driver reference per cell
  std::string digest;
};

std::unique_ptr<CheckedInputs> MakeCheckedInputs(std::uint64_t seed) {
  auto in = std::make_unique<CheckedInputs>();
  in->graph = cs::gen::ErdosRenyiGnm(kCheckedVertices, kCheckedEdges,
                                     FixedSeed(11));
  in->adjacency =
      std::make_unique<AdjacencyListStream>(&in->graph, SubSeed(seed, 12));
  in->random_order =
      std::make_unique<RandomOrderStream>(&in->graph, SubSeed(seed, 13));
  in->perturbed = std::make_unique<RandomOrderStream>(
      &in->graph, SubSeed(seed, 14), kPerturbedEpsilon);
  const std::uint64_t slots = in->graph.num_edges() / 64;
  InputDigest digest;
  DigestGraph(in->graph, &digest);
  DigestStream(*in->adjacency, &digest);
  DigestStream(*in->random_order, &digest);
  DigestStream(*in->perturbed, &digest);
  // The cheapest estimator each model accepts, at m/64.
  CellDef adjacency{"adjacency.two-pass-four-cycle.m64",
                    static_cast<int>(EstimatorKind::kTwoPassFourCycle),
                    slots, FixedSeed(15), {}, "adjacency"};
  adjacency.stream.adjacency = in->adjacency.get();
  CellDef random_order{"random_order.arbitrary-order-triangle.m64",
                       kArbitraryOrderKind, slots, FixedSeed(16), {},
                       "random_order"};
  random_order.stream.edges = in->random_order.get();
  CellDef perturbed{"perturbed.arbitrary-order-triangle.m64",
                    kArbitraryOrderKind, slots, FixedSeed(17), {},
                    "perturbed"};
  perturbed.stream.edges = in->perturbed.get();
  in->cells = {adjacency, random_order, perturbed};
  for (const CellDef& cell : in->cells) {
    digest.Add(static_cast<std::uint64_t>(cell.kind + 1));
    digest.Add(cell.slots);
    digest.Add(cell.seed);
  }
  in->digest = digest.Hex();
  return in;
}

void RunCheckedReferences(CheckedInputs* in, TraceSession* spans) {
  for (const CellDef& cell : in->cells) {
    Estimator e = MakeEstimator(cell);
    RunReport report;
    {
      auto span = Begin(spans, "ck.trusted/" + cell.model);
      report = RunTrusted(cell, e.algo.get());
    }
    in->trusted.push_back(OutputOf(cell, e, std::move(report)));
  }
}

WorkloadResult RunCheckedModels(const WorkloadConfig& config) {
  WorkloadResult result;
  const auto in = SetUp(config, "ck.setup", [&] {
    auto built = MakeCheckedInputs(config.seed);
    RunCheckedReferences(built.get(), config.spans);
    return built;
  }, &result);
  const std::vector<CellDef>& cells = in->cells;

  // Layer probes: replay alone, replay plus metering, and each model's
  // contract fed by ReplayPass with no estimator behind it.
  std::uint64_t replay_elements = 0, driver_elements = 0;
  std::vector<std::uint64_t> contract_elements(cells.size(), 0);
  if (config.spans != nullptr) {
    replay_elements = RepeatFor(config.spans, "ck.replay", 0.2, [&] {
      CountingSink sink;
      for (const CellDef& cell : cells) {
        cell.stream.Visit([&](const auto& s) { s.ReplayPass(sink); });
      }
      return sink.elements;
    });
    driver_elements = RepeatFor(config.spans, "ck.driver", 0.2, [&] {
      std::uint64_t elements = 0;
      for (const CellDef& cell : cells) {
        NoopAlgorithm noop;
        elements += cell.stream.Visit([&](const auto& s) {
          return cs::stream::RunPasses(s, &noop).pairs_processed;
        });
      }
      return elements;
    });
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const int passes = in->trusted[i].report.passes_requested;
      contract_elements[i] = cells[i].stream.Visit([&](const auto& s) {
        auto span = Begin(config.spans, "ck.contract/" + cells[i].model);
        auto contract = cs::stream::MakeContractForStream(s);
        ContractSink<decltype(contract)> sink{&contract};
        for (int pass = 0; pass < passes; ++pass) {
          contract.BeginPass(pass);
          s.ReplayPass(sink);
          contract.EndPass(pass);
        }
        if (!contract.ok()) {
          Fail(&result, "contract " + cells[i].model,
               contract.ToStatus().ToString());
        }
        return static_cast<std::uint64_t>(passes) * s.stream_length();
      });
    }
  }

  // Checked runs in rounds (each cell once per round) until the budget is
  // spent; every one must equal the trusted driver bit for bit.
  std::vector<std::vector<double>> seconds(cells.size());
  std::vector<std::string> why(cells.size());
  std::vector<double> round_pps;
  std::vector<double> checked_by_cell(cells.size(), 0.0);
  const Clock::time_point budget_start = Clock::now();
  do {
    double round_seconds = 0.0, round_elements = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      Estimator e = MakeEstimator(cells[i]);
      cs::StatusOr<RunReport> report = RunReport();
      const Clock::time_point start = Clock::now();
      {
        auto span = Begin(config.spans, "ck.checked/" + cells[i].model);
        report = RunChecked(cells[i], e.algo.get());
      }
      const double s = SecondsSince(start);
      seconds[i].push_back(s);
      round_seconds += s;
      if (!report.ok()) {
        if (why[i].empty()) why[i] = "checked run: " + report.status().ToString();
        continue;
      }
      round_elements += static_cast<double>(report->pairs_processed);
      checked_by_cell[i] += static_cast<double>(report->pairs_processed);
      const CellOutput out = OutputOf(cells[i], e, std::move(*report));
      if (std::string d = DiffCells(in->trusted[i], out);
          !d.empty() && why[i].empty()) {
        why[i] = "checked differs from trusted: " + d;
      }
    }
    round_pps.push_back(round_elements / round_seconds);
  } while (SecondsSince(budget_start) < config.seconds);

  std::vector<double> cell_ms;
  double audited_bytes = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    CheckGolden(config, kCheckedModels, cells[i], in->trusted[i], &why[i]);
    ++result.attempted;
    if (!why[i].empty()) {
      ++result.failed;
      Fail(&result, cells[i].name, why[i]);
    }
    cell_ms.push_back(Median(seconds[i]) * 1e3);
    audited_bytes +=
        static_cast<double>(in->trusted[i].report.audited_peak_bytes);
  }

  MetricSet& e2e = result.end_to_end;
  e2e.Set("pairs_per_s", Median(round_pps), "1/s");
  e2e.Set("space_audited_mib", audited_bytes / kMiB, "MiB");
  e2e.Set("result_p50_ms", GeometricMean(cell_ms).value_or(0.0), "ms");

  if (config.spans != nullptr) {
    const auto spans = SelfTimes(config.spans->ToJson());
    MetricSet& layers = result.layers;
    layers.Set("stream.replay_ns_per_pair",
               NsPer(spans, "ck.replay", static_cast<double>(replay_elements)),
               "ns");
    layers.Set("stream.driver_ns_per_pair",
               NsPer(spans, "ck.driver", static_cast<double>(driver_elements)),
               "ns");
    double contract_ns = 0.0, checked_ns = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const std::string& model = cells[i].model;
      const double per_elem =
          NsPer(spans, "ck.contract/" + model,
                static_cast<double>(contract_elements[i]));
      layers.Set("stream.contract." + model + "_ns_per_elem", per_elem, "ns");
      contract_ns += per_elem * checked_by_cell[i];
      checked_ns += NsPer(spans, "ck.checked/" + model, 1.0);
    }
    layers.Set("stream.contract_share", contract_ns / checked_ns, "fraction");
  }
  return result;
}

// ================================================= service-many-streams

// Small G(n, p) graphs, m ≈ 500: ~1.5k pairs per stream across passes.
constexpr int kServiceGraphs = 8;
constexpr std::size_t kServiceVertices = 64;
constexpr double kServiceEdgeProbability = 0.25;
constexpr int kServiceShards = 3;
// Outstanding streams in the closed loop (16 per shard).
constexpr std::size_t kServiceWindow = 48;
// Streams per second of budget: sized so a run takes roughly the budget
// on a 4-core x86 machine at the seed commit's throughput.
constexpr double kServiceStreamsPerSecond = 3000.0;
// Streams per service generation (a fresh EstimatorService). Each
// generation checkpoints every shard once, halfway through its streams.
constexpr std::size_t kServiceGenerationStreams = 3000;
// Traced runs record client-call spans for one stream in this many,
// chosen by a salted hash of the stream id.
constexpr std::uint64_t kTracedStreamEvery = 8;
constexpr std::uint64_t kTraceSalt = 0x7f4a7c15u;

// The six sampling estimators that read adjacency-list streams.
constexpr EstimatorKind kServiceKinds[] = {
    EstimatorKind::kOnePassTriangle,    EstimatorKind::kTriangleDistinguisher,
    EstimatorKind::kTwoPassTriangle,    EstimatorKind::kWedgeSamplingTriangle,
    EstimatorKind::kOnePassFourCycle,   EstimatorKind::kTwoPassFourCycle,
};

struct Template {
  EstimatorSpec spec;
  const AdjacencyListStream* stream = nullptr;
  double want_estimate = 0.0;
  RunReport want_report;
  double driver_seconds = 0.0;  // single-threaded driver run, same tape
};

struct ServiceInputs {
  std::vector<std::unique_ptr<Graph>> graphs;
  std::vector<std::unique_ptr<AdjacencyListStream>> streams;
  std::vector<Template> templates;
  std::string digest;
};

std::unique_ptr<ServiceInputs> MakeServiceInputs(std::uint64_t seed,
                                                 bool reference) {
  auto in = std::make_unique<ServiceInputs>();
  InputDigest digest;
  for (int g = 0; g < kServiceGraphs; ++g) {
    const auto salt = static_cast<std::uint64_t>(g);
    in->graphs.push_back(std::make_unique<Graph>(cs::gen::ErdosRenyiGnp(
        kServiceVertices, kServiceEdgeProbability, FixedSeed(200 + salt))));
    // Fixed list order, seeded within-list orders, as in estimate-powerlaw.
    const AdjacencyListStream fixed_order(in->graphs.back().get(),
                                          FixedSeed(300 + salt));
    in->streams.push_back(std::make_unique<AdjacencyListStream>(
        in->graphs.back().get(), fixed_order.list_order(),
        SubSeed(seed, 300 + salt)));
    DigestGraph(*in->graphs.back(), &digest);
    DigestStream(*in->streams.back(), &digest);
  }
  for (int g = 0; g < kServiceGraphs; ++g) {
    for (EstimatorKind kind : kServiceKinds) {
      Template t;
      t.spec.kind = kind;
      t.spec.slots = std::max<std::size_t>(1, in->graphs[g]->num_edges() / 8);
      t.spec.seed = FixedSeed(400 + in->templates.size());
      t.stream = in->streams[g].get();
      digest.Add(static_cast<std::uint64_t>(kind));
      digest.Add(t.spec.slots);
      digest.Add(t.spec.seed);
      if (reference) {
        auto hosted = cs::service::MakeHosted(t.spec);
        CYCLESTREAM_CHECK(hosted.ok());
        const Clock::time_point start = Clock::now();
        t.want_report = cs::stream::RunPasses(*t.stream, hosted->algo.get());
        t.driver_seconds = SecondsSince(start);
        t.want_estimate = hosted->estimate(*hosted->algo);
      }
      in->templates.push_back(std::move(t));
    }
  }
  in->digest = digest.Hex();
  return in;
}

WorkloadResult RunServiceManyStreams(const WorkloadConfig& config) {
  using cs::service::EstimatorService;
  using cs::service::StreamId;
  using cs::service::StreamView;
  WorkloadResult result;
  TraceSession* spans = config.spans;
  const auto in = SetUp(config, "svc.setup", [&] {
    return MakeServiceInputs(config.seed, /*reference=*/true);
  }, &result);
  const std::vector<Template>& templates = in->templates;

  std::uint64_t replay_elements = 0, driver_elements = 0;
  if (spans != nullptr) {
    replay_elements = RepeatFor(spans, "svc.replay", 0.1, [&] {
      CountingSink sink;
      for (const auto& s : in->streams) s->ReplayPass(sink);
      return sink.elements;
    });
    driver_elements = RepeatFor(spans, "svc.driver", 0.1, [&] {
      std::uint64_t elements = 0;
      for (const auto& s : in->streams) {
        NoopAlgorithm noop;
        elements += cs::stream::RunPasses(*s, &noop).pairs_processed;
      }
      return elements;
    });
  }

  const std::size_t streams = std::max<std::size_t>(
      templates.size(),
      static_cast<std::size_t>(kServiceStreamsPerSecond * config.seconds));
  const std::size_t per_generation =
      std::min(streams, kServiceGenerationStreams);

  struct Pending {
    StreamId id = 0;
    const Template* t = nullptr;
    std::future<cs::Status> created;
    std::future<cs::StatusOr<StreamView>> query;
    Clock::time_point asked;
  };
  struct PendingCheckpoint {
    int shard = 0;
    std::future<cs::StatusOr<std::vector<std::uint8_t>>> bytes;
    Clock::time_point asked;
  };

  cs::service::ServiceOptions options;
  options.shards = kServiceShards;
  options.threads = config.workers;
  std::vector<double> latency_ms, checkpoint_ms, manifest_kib;
  std::vector<std::vector<std::uint8_t>> manifests(kServiceShards);
  std::vector<double> shard_pairs(kServiceShards, 0.0);
  std::uint64_t completed_pairs = 0, traced_append_calls = 0;
  double driver_seconds = 0.0, driver_pairs = 0.0;
  double wall_seconds = 0.0;
  std::deque<Pending> pending;
  std::deque<PendingCheckpoint> checkpoints;
  Clock::time_point last_ready;

  auto settle = [&](Pending& p, Clock::time_point now) {
    latency_ms.push_back(
        std::chrono::duration<double, std::milli>(now - p.asked).count());
    last_ready = now;
    ++result.attempted;
    const cs::Status created = p.created.get();
    cs::StatusOr<StreamView> view = p.query.get();
    std::string why;
    if (!created.ok()) {
      why = "Create: " + created.ToString();
    } else if (!view.ok()) {
      why = "Query: " + view.status().ToString();
    } else if (!view->finished || !(view->spec == p.t->spec)) {
      why = "stream not finished or spec differs";
    } else if (std::memcmp(&view->estimate, &p.t->want_estimate,
                           sizeof(double)) != 0) {
      why = "estimate differs from the driver";
    } else {
      why = DiffReports(p.t->want_report, view->report);
    }
    if (!why.empty()) {
      ++result.failed;
      Fail(&result, "stream " + std::to_string(p.id), why);
      return;
    }
    completed_pairs += p.t->want_report.pairs_processed;
  };
  auto settle_checkpoint = [&](PendingCheckpoint& c, Clock::time_point now) {
    checkpoint_ms.push_back(
        std::chrono::duration<double, std::milli>(now - c.asked).count());
    auto bytes = c.bytes.get();
    if (!bytes.ok()) {
      Fail(&result, "checkpoint shard " + std::to_string(c.shard),
           bytes.status().ToString());
      return;
    }
    manifest_kib.push_back(static_cast<double>(bytes->size()) / 1024.0);
    manifests[static_cast<std::size_t>(c.shard)] = std::move(*bytes);
  };
  // Settles every future that is ready now.
  auto reap = [&] {
    const Clock::time_point now = Clock::now();
    auto ready = [](auto& f) {
      return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    };
    for (auto it = pending.begin(); it != pending.end();) {
      if (ready(it->query)) {
        settle(*it, now);
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
    while (!checkpoints.empty() && ready(checkpoints.front().bytes)) {
      settle_checkpoint(checkpoints.front(), now);
      checkpoints.pop_front();
    }
  };
  // Client-call spans are kept for one stream in kTracedStreamEvery (a
  // span per call of every stream would hold ~1 GB of trace at 20 s),
  // picked by hash: ids cycle through the tapes, so `id % k` would pick
  // some estimator kinds only. A wait belongs to the stream it waits on.
  auto sampled = [&](StreamId id) {
    return cs::Mix64(id + kTraceSalt) % kTracedStreamEvery == 0 ? spans
                                                                : nullptr;
  };
  auto wait_oldest = [&] {
    auto span = Begin(sampled(pending.front().id), "svc.wait");
    pending.front().query.wait();
  };

  // Streams are never dropped from a live service, so the run is cut into
  // generations, each on a fresh service; only the time inside a
  // generation (first Create to last Query ready) is measured.
  for (StreamId first = 1; first <= streams; first += per_generation) {
    const StreamId last = std::min<StreamId>(streams, first + per_generation - 1);
    const StreamId checkpoint_at = first + (last - first) / 2;
    EstimatorService svc(options);
    auto loop_span = Begin(spans, "svc.loop");
    const Clock::time_point start = Clock::now();
    for (StreamId id = first; id <= last; ++id) {
      while (pending.size() >= kServiceWindow) {
        wait_oldest();
        reap();
      }
      const Template& t = templates[(id - 1) % templates.size()];
      TraceSession* call_spans = sampled(id);
      Pending p;
      p.id = id;
      p.t = &t;
      {
        auto span = Begin(call_spans, "svc.create");
        p.created = svc.Create(id, t.spec);
      }
      for (int pass = 0; pass < t.want_report.passes_requested; ++pass) {
        {
          auto span = Begin(call_spans, "svc.append");
          for (VertexId u : t.stream->list_order()) {
            const std::span<const VertexId> list = t.stream->ListOf(u);
            svc.Append(id, u, std::vector<VertexId>(list.begin(), list.end()));
          }
        }
        if (call_spans != nullptr) {
          traced_append_calls += t.stream->list_order().size();
        }
        auto span = Begin(call_spans, "svc.endpass");
        svc.EndPass(id);
      }
      p.asked = Clock::now();
      {
        auto span = Begin(call_spans, "svc.query");
        p.query = svc.Query(id);
      }
      pending.push_back(std::move(p));
      shard_pairs[static_cast<std::size_t>(
          EstimatorService::ShardOf(id, kServiceShards))] +=
          static_cast<double>(t.want_report.pairs_processed);
      driver_seconds += t.driver_seconds;
      driver_pairs += static_cast<double>(t.want_report.pairs_processed);
      if (id == checkpoint_at) {
        auto span = Begin(spans, "svc.checkpoint");
        for (int shard = 0; shard < kServiceShards; ++shard) {
          checkpoints.push_back(
              {shard, svc.CheckpointShard(shard), Clock::now()});
        }
      }
      reap();
    }
    while (!pending.empty()) {
      wait_oldest();
      reap();
    }
    wall_seconds += std::chrono::duration<double>(last_ready - start).count();
    loop_span.End();
    while (!checkpoints.empty()) {
      checkpoints.front().bytes.wait();
      settle_checkpoint(checkpoints.front(), Clock::now());
      checkpoints.pop_front();
    }
  }

  // Restore each shard's last manifest into a fresh service (outside the
  // timed loop); re-checkpointing it must reproduce the manifest bytes.
  for (int shard = 0; shard < kServiceShards; ++shard) {
    const std::vector<std::uint8_t>& manifest =
        manifests[static_cast<std::size_t>(shard)];
    const std::string op = "restore shard " + std::to_string(shard);
    if (manifest.empty()) {
      Fail(&result, op, "no checkpoint completed");
      continue;
    }
    EstimatorService restored(options);
    cs::Status status;
    {
      auto span = Begin(spans, "svc.restore");
      status = restored.RestoreShard(shard, manifest).get();
    }
    if (!status.ok()) {
      Fail(&result, op, status.ToString());
      continue;
    }
    auto again = restored.CheckpointShard(shard).get();
    if (!again.ok() || *again != manifest) {
      Fail(&result, op, "re-checkpoint differs from the restored manifest");
    }
  }

  double audited_bytes = 0.0;
  for (const Template& t : templates) {
    audited_bytes += static_cast<double>(t.want_report.audited_peak_bytes);
  }
  MetricSet& e2e = result.end_to_end;
  e2e.Set("pairs_per_s", static_cast<double>(completed_pairs) / wall_seconds,
          "1/s");
  e2e.Set("space_audited_mib", audited_bytes / kMiB, "MiB");
  e2e.Set("result_p50_ms", Median(latency_ms), "ms");

  if (spans != nullptr) {
    const auto totals = SelfTimes(spans->ToJson());
    auto total = [&](const std::string& name) {
      auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second.total_ns;
    };
    auto per_call = [&](const std::string& name) {
      auto it = totals.find(name);
      return it == totals.end() || it->second.count == 0
                 ? 0.0
                 : it->second.total_ns / static_cast<double>(it->second.count);
    };
    MetricSet& layers = result.layers;
    layers.Set("stream.replay_ns_per_pair",
               NsPer(totals, "svc.replay", static_cast<double>(replay_elements)),
               "ns");
    layers.Set("stream.driver_ns_per_pair",
               NsPer(totals, "svc.driver", static_cast<double>(driver_elements)),
               "ns");
    layers.Set("service.create_ns", per_call("svc.create"), "ns");
    layers.Set("service.append_ns",
               total("svc.append") / static_cast<double>(traced_append_calls),
               "ns");
    layers.Set("service.endpass_ns", per_call("svc.endpass"), "ns");
    layers.Set("service.query_ns", per_call("svc.query"), "ns");
    const double loop = total("svc.loop");
    const double busy = kTracedStreamEvery * (total("svc.create") +
                                              total("svc.append") +
                                              total("svc.endpass") +
                                              total("svc.query")) +
                        total("svc.checkpoint");
    layers.Set("service.client_busy_frac", busy / loop, "fraction");
    layers.Set("service.client_wait_frac",
               kTracedStreamEvery * total("svc.wait") / loop, "fraction");
    const double service_ns_per_pair =
        wall_seconds * 1e9 / static_cast<double>(completed_pairs);
    const double driver_ns_per_pair = driver_seconds * 1e9 / driver_pairs;
    layers.Set("service.overhead_ratio",
               service_ns_per_pair * config.workers / driver_ns_per_pair, "x");
    double max_pairs = 0.0, sum_pairs = 0.0;
    for (double p : shard_pairs) {
      max_pairs = std::max(max_pairs, p);
      sum_pairs += p;
    }
    layers.Set("service.shard_skew", max_pairs / (sum_pairs / kServiceShards),
               "x");
    const double q = std::min(0.99, HighestSupportedQuantile(latency_ms.size()));
    const std::optional<double> tail = SupportedPercentile(latency_ms, q);
    layers.Set("service.result_p99_ms", tail.value_or(Median(latency_ms)),
               "ms");
    layers.Set("snapshot.checkpoint_ms", Median(checkpoint_ms), "ms");
    layers.Set("snapshot.manifest_kib", Median(manifest_kib), "KiB");
    layers.Set("snapshot.restore_ms", per_call("svc.restore") / 1e6, "ms");
  }
  return result;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      kEstimatePowerlaw, kCheckedModels, kServiceManyStreams};
  return names;
}

WorkloadResult RunWorkload(const std::string& workload,
                           const WorkloadConfig& config) {
  if (workload == kEstimatePowerlaw) return RunEstimatePowerlaw(config);
  if (workload == kCheckedModels) return RunCheckedModels(config);
  CYCLESTREAM_CHECK(workload == kServiceManyStreams);
  return RunServiceManyStreams(config);
}

std::string InputDigestFor(const std::string& workload, std::uint64_t seed) {
  if (workload == kEstimatePowerlaw) {
    return MakePowerlawInputs(seed, /*count=*/false)->digest;
  }
  if (workload == kCheckedModels) return MakeCheckedInputs(seed)->digest;
  CYCLESTREAM_CHECK(workload == kServiceManyStreams);
  return MakeServiceInputs(seed, /*reference=*/false)->digest;
}

std::vector<std::string> GoldenLinesFor(const std::string& workload,
                                        std::uint64_t seed) {
  std::vector<std::string> lines;
  auto emit = [&](const CellDef& cell) {
    Estimator e = MakeEstimator(cell);
    RunReport report = RunTrusted(cell, e.algo.get());
    lines.push_back(FormatGoldenLine(seed, workload, cell.name,
                                     OutputOf(cell, e, std::move(report))));
  };
  if (workload == kEstimatePowerlaw) {
    auto in = MakePowerlawInputs(seed, /*count=*/false);
    for (const CellDef& cell : in->cells) emit(cell);
  } else if (workload == kCheckedModels) {
    auto in = MakeCheckedInputs(seed);
    for (const CellDef& cell : in->cells) emit(cell);
  }
  return lines;
}

}  // namespace perfbench
