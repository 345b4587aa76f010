#include "obs/trace.h"

#include <atomic>
#include <utility>

#include "obs/manifest.h"

namespace cyclestream {
namespace obs {

TraceSession::TraceSession() : origin_(std::chrono::steady_clock::now()) {}

std::uint64_t TraceSession::NowNs() const {
  const auto delta = std::chrono::steady_clock::now() - origin_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(delta).count());
}

std::uint32_t TraceSession::ThreadLane() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t lane = next.fetch_add(1,
                                                   std::memory_order_relaxed);
  return lane;
}

void TraceSession::EmitComplete(std::string name, std::string category,
                                std::uint64_t start_ns, std::uint64_t end_ns,
                                Json args) {
  Event event;
  event.name = std::move(name);
  event.category = std::move(category);
  event.start_ns = start_ns;
  event.end_ns = end_ns >= start_ns ? end_ns : start_ns;
  event.tid = ThreadLane();
  event.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

void TraceSession::EmitCounter(std::string name, std::uint64_t ts_ns,
                               Json values) {
  Event event;
  event.name = std::move(name);
  event.category = "prof";
  event.phase = 'C';
  event.start_ns = ts_ns;
  event.end_ns = ts_ns;
  event.tid = ThreadLane();
  event.args = std::move(values);
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

void TraceSession::EmitFlow(FlowPhase phase, std::string name,
                            std::string category, std::uint64_t flow_id,
                            std::uint64_t ts_ns) {
  Event event;
  event.name = std::move(name);
  event.category = std::move(category);
  event.phase = phase == FlowPhase::kStart ? 's'
                : phase == FlowPhase::kStep ? 't'
                                            : 'f';
  event.start_ns = ts_ns;
  event.end_ns = ts_ns;
  event.flow_id = flow_id;
  event.tid = ThreadLane();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

void TraceSession::SetProcessName(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  process_name_ = std::move(name);
}

void TraceSession::SetThreadName(std::string name) {
  const std::uint32_t lane = ThreadLane();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [existing_lane, existing_name] : thread_names_) {
    if (existing_lane == lane) {
      existing_name = std::move(name);
      return;
    }
  }
  thread_names_.emplace_back(lane, std::move(name));
}

void TraceSession::Span::SetArg(std::string_view key, Json value) {
  if (session_ == nullptr) return;
  if (args_.kind() != Json::Kind::kObject) args_ = Json::Object();
  args_.Set(std::string(key), std::move(value));
}

std::size_t TraceSession::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

Json TraceSession::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json trace_events = Json::Array();
  if (!process_name_.empty()) {
    Json args = Json::Object();
    args.Set("name", Json(process_name_));
    Json meta = Json::Object();
    meta.Set("name", Json("process_name"));
    meta.Set("ph", Json("M"));
    meta.Set("pid", Json(1));
    meta.Set("tid", Json(0));
    meta.Set("args", std::move(args));
    trace_events.Push(std::move(meta));
  }
  for (const auto& [lane, name] : thread_names_) {
    Json args = Json::Object();
    args.Set("name", Json(name));
    Json meta = Json::Object();
    meta.Set("name", Json("thread_name"));
    meta.Set("ph", Json("M"));
    meta.Set("pid", Json(1));
    meta.Set("tid", Json(lane));
    meta.Set("args", std::move(args));
    trace_events.Push(std::move(meta));
  }
  for (const Event& event : events_) {
    Json row = Json::Object();
    row.Set("name", Json(event.name));
    row.Set("cat", Json(event.category));
    row.Set("ph", Json(std::string(1, event.phase)));
    // Trace-event timestamps are microseconds; fractional values keep
    // nanosecond resolution.
    row.Set("ts", Json(static_cast<double>(event.start_ns) / 1000.0));
    if (event.phase == 'X') {
      row.Set("dur", Json(static_cast<double>(event.end_ns - event.start_ns) /
                          1000.0));
    }
    row.Set("pid", Json(1));
    row.Set("tid", Json(event.tid));
    if (event.phase == 's' || event.phase == 't' || event.phase == 'f') {
      // String id: 64-bit flow ids survive JSON intact (doubles wouldn't).
      char hex[19];
      std::snprintf(hex, sizeof(hex), "0x%llx",
                    static_cast<unsigned long long>(event.flow_id));
      row.Set("id", Json(std::string(hex)));
      // Bind the flow end to the enclosing slice, not the next one.
      if (event.phase == 'f') row.Set("bp", Json("e"));
    }
    if (event.args.kind() == Json::Kind::kObject) {
      row.Set("args", event.args);
    }
    trace_events.Push(std::move(row));
  }
  Json out = Json::Object();
  out.Set("traceEvents", std::move(trace_events));
  out.Set("displayTimeUnit", Json("ms"));
  return out;
}

Status TraceSession::WriteTo(const std::string& path) const {
  return WriteTextFile(path, ToJson().Dump() + "\n");
}

}  // namespace obs
}  // namespace cyclestream
