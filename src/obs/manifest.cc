#include "obs/manifest.h"

#include <utility>

#include "obs/prof.h"

namespace cyclestream {
namespace obs {

const char* GitDescribe() {
#ifdef CYCLESTREAM_GIT_DESCRIBE
  return CYCLESTREAM_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

StatusOr<ManifestWriter> ManifestWriter::Open(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::NotFound("manifest: cannot open '" + path +
                            "' for writing");
  }
  return ManifestWriter(file, path);
}

ManifestWriter::ManifestWriter(ManifestWriter&& other) noexcept
    : file_(std::exchange(other.file_, nullptr)),
      path_(std::move(other.path_)),
      records_written_(other.records_written_) {}

ManifestWriter& ManifestWriter::operator=(ManifestWriter&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = std::exchange(other.file_, nullptr);
    path_ = std::move(other.path_);
    records_written_ = other.records_written_;
  }
  return *this;
}

ManifestWriter::~ManifestWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void ManifestWriter::Write(const Json& record) {
  if (file_ == nullptr) return;
  const std::string line = record.Dump();
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
  ++records_written_;
}

Status WriteTextFile(const std::string& path, std::string_view text) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::NotFound("cannot open '" + path + "' for writing");
  }
  const bool written =
      std::fwrite(text.data(), 1, text.size(), file) == text.size();
  const bool closed = std::fclose(file) == 0;
  if (!written || !closed) {
    return Status::DataLoss("failed writing '" + path + "'");
  }
  return Status::Ok();
}

Json MakeRecord(std::string_view type) {
  Json record = Json::Object();
  record.Set("record", Json(std::string(type)));
  record.Set("schema_version", Json(kManifestSchemaVersion));
  return record;
}

std::vector<Json> ProfRecords(const Profiler& prof) {
  std::vector<Json> records;
  for (const auto& [scope, agg] : prof.Read()) {
    Json record = MakeRecord("prof");
    record.Set("scope", Json(scope));
    record.Set("backend", Json(ProfBackendName(prof.backend())));
    record.Set("fallback", Json(prof.fallback()));
    record.Set("count", Json(agg.count));
    const Json totals = agg.totals.ToJson();
    for (const auto& [key, value] : totals.items()) record.Set(key, value);
    record.Set("ipc", Json(agg.totals.Ipc()));
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace obs
}  // namespace cyclestream
