#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

using cyclestream::obs::Json;
using cyclestream::stream::PassReport;
using cyclestream::stream::RunReport;

// ---------------------------------------------------------------- stats

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

namespace {
// 0-based nearest-rank index of percentile q among n sorted samples.
std::size_t NearestRank(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  return rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
}
}  // namespace

std::optional<double> SupportedPercentile(std::vector<double> values,
                                          double q) {
  const std::size_t n = values.size();
  if (n == 0) return std::nullopt;
  const std::size_t k = std::min(NearestRank(n, q), n - 1);
  if (n - 1 - k < 10) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

double HighestSupportedQuantile(std::size_t samples) {
  if (samples < 11) return 0.0;
  // Rank k = n - 11 leaves exactly ten samples beyond it; it is the nearest
  // rank of every q in ((n-11)/n, (n-10)/n].
  return static_cast<double>(samples - 10) / static_cast<double>(samples);
}

std::optional<double> GeometricMean(std::span<const double> values) {
  if (values.empty()) return std::nullopt;
  double log_sum = 0.0;
  for (double v : values) {
    if (!(v > 0.0) || !std::isfinite(v)) return std::nullopt;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

// --------------------------------------------------------------- digest

void InputDigest::Add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (value >> (8 * i)) & 0xffu;
    state_ *= 0x100000001b3ull;
  }
}

void InputDigest::AddSpan(std::span<const std::uint32_t> values) {
  Add(values.size());
  for (std::uint32_t v : values) Add(v);
}

std::string InputDigest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, state_);
  return buf;
}

// --------------------------------------------------------------- golden

namespace {

std::string Hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

// Bitwise: distinguishes -0.0 from 0.0 and compares NaNs by payload.
bool SameBits(double a, double b) {
  std::uint64_t x = 0, y = 0;
  static_assert(sizeof(x) == sizeof(a));
  std::memcpy(&x, &a, sizeof(a));
  std::memcpy(&y, &b, sizeof(b));
  return x == y;
}

template <typename T>
std::string Field(const char* name, const T& want, const T& got) {
  std::ostringstream os;
  os << name << ": want " << want << ", got " << got;
  return os.str();
}

std::string GoldenKey(std::uint64_t seed, const std::string& workload,
                      const std::string& cell) {
  return std::to_string(seed) + " " + workload + " " + cell;
}

std::string CoverKey(std::uint64_t seed, const std::string& workload) {
  return std::to_string(seed) + " " + workload;
}

bool ParseU64(const std::string& text, std::uint64_t* out, int base = 10) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, base);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

// Parses the `key=value` fields after the cell name; nullopt when any is
// missing or malformed.
std::optional<CellOutput> ParseCellFields(std::istringstream& fields) {
  std::map<std::string, std::string> kv;
  std::string token;
  while (fields >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) return std::nullopt;
    kv[token.substr(0, eq)] = token.substr(eq + 1);
  }
  CellOutput out;
  std::uint64_t passes = 0, pairs = 0, reported = 0, audited = 0,
                divergence = 0, crc = 0;
  if (!kv.count("est") || !kv.count("per_pass") ||
      !ParseU64(kv["passes"], &passes) || !ParseU64(kv["pairs"], &pairs) ||
      !ParseU64(kv["reported"], &reported) ||
      !ParseU64(kv["audited"], &audited) ||
      !ParseU64(kv["divergence"], &divergence) ||
      !ParseU64(kv["crc"], &crc, 16) || crc > 0xffffffffull) {
    return std::nullopt;
  }
  const std::string& est = kv["est"];
  char* end = nullptr;
  out.estimate = std::strtod(est.c_str(), &end);
  if (est.empty() || end != est.c_str() + est.size()) return std::nullopt;
  out.report.passes_requested = static_cast<int>(passes);
  out.report.pairs_processed = pairs;
  out.report.reported_peak_bytes = reported;
  out.report.audited_peak_bytes = audited;
  out.report.max_divergence_bytes = divergence;
  out.state_crc = static_cast<std::uint32_t>(crc);
  std::istringstream passes_text(kv["per_pass"]);
  std::string pass_text;
  while (std::getline(passes_text, pass_text, ',')) {
    std::istringstream parts(pass_text);
    std::string a, b, c;
    std::getline(parts, a, ':');
    std::getline(parts, b, ':');
    std::getline(parts, c, ':');
    PassReport p;
    std::uint64_t pr = 0, pa = 0, pp = 0;
    if (!ParseU64(a, &pr) || !ParseU64(b, &pa) || !ParseU64(c, &pp)) {
      return std::nullopt;
    }
    p.reported_peak_bytes = pr;
    p.audited_peak_bytes = pa;
    p.pairs_processed = pp;
    out.report.per_pass.push_back(p);
  }
  if (out.report.per_pass.size() != passes) return std::nullopt;
  return out;
}

}  // namespace

std::string DiffReports(const RunReport& want, const RunReport& got) {
  if (want.pairs_processed != got.pairs_processed) {
    return Field("pairs", want.pairs_processed, got.pairs_processed);
  }
  if (want.passes_requested != got.passes_requested) {
    return Field("passes", want.passes_requested, got.passes_requested);
  }
  if (want.reported_peak_bytes != got.reported_peak_bytes) {
    return Field("reported_peak", want.reported_peak_bytes,
                 got.reported_peak_bytes);
  }
  if (want.audited_peak_bytes != got.audited_peak_bytes) {
    return Field("audited_peak", want.audited_peak_bytes,
                 got.audited_peak_bytes);
  }
  if (want.max_divergence_bytes != got.max_divergence_bytes) {
    return Field("divergence", want.max_divergence_bytes,
                 got.max_divergence_bytes);
  }
  if (want.per_pass.size() != got.per_pass.size()) {
    return Field("passes_completed", want.per_pass.size(),
                 got.per_pass.size());
  }
  for (std::size_t i = 0; i < want.per_pass.size(); ++i) {
    const PassReport& w = want.per_pass[i];
    const PassReport& g = got.per_pass[i];
    if (w.reported_peak_bytes != g.reported_peak_bytes ||
        w.audited_peak_bytes != g.audited_peak_bytes ||
        w.pairs_processed != g.pairs_processed) {
      return "per_pass[" + std::to_string(i) + "] differs";
    }
  }
  return "";
}

std::string DiffCells(const CellOutput& want, const CellOutput& got) {
  if (!SameBits(want.estimate, got.estimate)) {
    return "estimate: want " + Hexfloat(want.estimate) + ", got " +
           Hexfloat(got.estimate);
  }
  if (std::string d = DiffReports(want.report, got.report); !d.empty()) {
    return d;
  }
  if (want.state_crc != got.state_crc) {
    return Field("state_crc", want.state_crc, got.state_crc);
  }
  return "";
}

std::string FormatGoldenLine(std::uint64_t seed, const std::string& workload,
                             const std::string& cell, const CellOutput& out) {
  const RunReport& r = out.report;
  std::ostringstream os;
  os << seed << ' ' << workload << ' ' << cell
     << " est=" << Hexfloat(out.estimate) << " passes=" << r.passes_requested
     << " pairs=" << r.pairs_processed << " reported=" << r.reported_peak_bytes
     << " audited=" << r.audited_peak_bytes
     << " divergence=" << r.max_divergence_bytes << " per_pass=";
  for (std::size_t i = 0; i < r.per_pass.size(); ++i) {
    const PassReport& p = r.per_pass[i];
    if (i != 0) os << ',';
    os << p.reported_peak_bytes << ':' << p.audited_peak_bytes << ':'
       << p.pairs_processed;
  }
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", out.state_crc);
  os << " crc=" << crc;
  return os.str();
}

std::optional<Golden> Golden::Parse(const std::string& text,
                                    std::string* error) {
  Golden golden;
  std::istringstream lines(text);
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    auto fail = [&](const std::string& why) {
      *error = "golden line " + std::to_string(line_no) + ": " + why;
      return std::nullopt;
    };
    std::istringstream fields(line);
    std::string seed_text, workload, cell;
    fields >> seed_text >> workload >> cell;
    std::uint64_t seed = 0;
    if (!ParseU64(seed_text, &seed) || cell.empty()) {
      return fail("expected <seed> <workload> <cell>");
    }
    const std::string key = GoldenKey(seed, workload, cell);
    if (golden.cells_.count(key) || golden.corrupt_.count(key)) {
      return fail("duplicate cell " + key);
    }
    golden.covered_.insert(CoverKey(seed, workload));
    std::optional<CellOutput> out = ParseCellFields(fields);
    if (!out) {
      // A damaged entry stays covered, so its cell fails the comparison.
      golden.corrupt_.insert(key);
      continue;
    }
    golden.cells_[key] = std::move(*out);
  }
  return golden;
}
std::optional<Golden> Golden::Load(const std::string& path,
                                   std::string* error) {
  std::ifstream in(path);
  if (!in) return Golden();
  std::stringstream text;
  text << in.rdbuf();
  return Parse(text.str(), error);
}

bool Golden::Covers(std::uint64_t seed, const std::string& workload) const {
  return covered_.count(CoverKey(seed, workload)) != 0;
}

const CellOutput* Golden::Find(std::uint64_t seed, const std::string& workload,
                               const std::string& cell) const {
  auto it = cells_.find(GoldenKey(seed, workload, cell));
  return it == cells_.end() ? nullptr : &it->second;
}

// --------------------------------------------------------------- spans

std::map<std::string, SpanTotals> SelfTimes(const Json& trace) {
  struct Interval {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    const std::string* name = nullptr;
  };
  std::map<std::uint64_t, std::vector<Interval>> lanes;
  const Json* events = trace.Find("traceEvents");
  if (events == nullptr || !events->is_array()) return {};
  for (std::size_t i = 0; i < events->size(); ++i) {
    const Json& e = events->at(i);
    const Json* ph = e.Find("ph");
    if (ph == nullptr || !ph->is_string() || ph->AsString() != "X") continue;
    // ts/dur are microseconds carrying nanosecond fractions.
    const auto start = static_cast<std::uint64_t>(
        std::llround(e.Find("ts")->AsDouble() * 1000.0));
    const auto dur = static_cast<std::uint64_t>(
        std::llround(e.Find("dur")->AsDouble() * 1000.0));
    lanes[e.Find("tid")->AsUint64()].push_back(
        {start, start + dur, &e.Find("name")->AsString()});
  }
  std::map<std::string, SpanTotals> totals;
  for (auto& [lane, spans] : lanes) {
    // Parents before children: earlier start first, longer span first.
    std::sort(spans.begin(), spans.end(),
              [](const Interval& a, const Interval& b) {
                return a.start != b.start ? a.start < b.start
                                          : a.end > b.end;
              });
    std::vector<std::pair<const Interval*, double>> open;  // span, child ns
    auto close = [&](const Interval* span, double child_ns) {
      SpanTotals& t = totals[*span->name];
      const double dur = static_cast<double>(span->end - span->start);
      ++t.count;
      t.total_ns += dur;
      t.self_ns += std::max(0.0, dur - child_ns);
    };
    for (const Interval& span : spans) {
      while (!open.empty() && open.back().first->end <= span.start) {
        close(open.back().first, open.back().second);
        open.pop_back();
      }
      if (!open.empty()) {
        open.back().second += static_cast<double>(span.end - span.start);
      }
      open.push_back({&span, 0.0});
    }
    while (!open.empty()) {
      close(open.back().first, open.back().second);
      open.pop_back();
    }
  }
  return totals;
}

// --------------------------------------------------------------- output

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

bool MetricSet::Has(const std::string& name) const {
  for (const auto& item : items_) {
    if (item.first == name) return true;
  }
  return false;
}

double MetricSet::Get(const std::string& name) const {
  for (const auto& item : items_) {
    if (item.first == name) return item.second.first;
  }
  return 0.0;
}

void MetricSet::Merge(const MetricSet& other) {
  for (const auto& [name, value] : other.items_) {
    if (!Has(name)) items_.push_back({name, value});
  }
}

std::string ResultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const MetricSet& metrics) {
  Json metric_json = Json::Object();
  for (const auto& [name, value] : metrics.items()) {
    Json m = Json::Object();
    m.Set("value", Json(value.first));
    m.Set("unit", Json(value.second));
    metric_json.Set(name, std::move(m));
  }
  Json out = Json::Object();
  out.Set("correct", Json(correct));
  out.Set("attempted", Json(attempted));
  out.Set("failed", Json(failed));
  out.Set("metrics", std::move(metric_json));
  return out.Dump();
}

}  // namespace perfbench
