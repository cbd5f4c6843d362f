#include "obs/telemetry.h"

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>

namespace gmr::obs {

TelemetrySink* NullTelemetrySink() {
  static NullSink* const sink = new NullSink;
  return sink;
}

std::string FormatJsonNumber(double value) {
  char buffer[40];
  if (std::isnan(value)) return "null";  // JSON has no NaN
  if (std::isinf(value)) return value > 0 ? "1e999" : "-1e999";
  // The magnitude check comes first: casting a double at or beyond 2^63 to
  // long long is undefined.
  if (std::fabs(value) < 9.007199254740992e15 &&
      value == static_cast<double>(static_cast<long long>(value))) {
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  }
  return buffer;
}

void AppendJsonString(std::string* out, const std::string& value) {
  out->push_back('"');
  for (const char c : value) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          *out += buffer;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

namespace {

void AppendPair(std::string* out, const std::string& key, double value) {
  out->push_back(',');
  AppendJsonString(out, key);
  out->push_back(':');
  *out += FormatJsonNumber(value);
}

void AppendPair(std::string* out, const std::string& key,
                const std::string& value) {
  out->push_back(',');
  AppendJsonString(out, key);
  out->push_back(':');
  AppendJsonString(out, value);
}

}  // namespace

std::string SerializeEvent(const TraceEvent& event, std::uint64_t sequence,
                           const JsonlTraceOptions& options) {
  std::string line = "{\"type\":";
  AppendJsonString(&line, event.type);
  line += ",\"seq\":";
  line += FormatJsonNumber(static_cast<double>(sequence));
  for (const auto& [key, value] : event.fields) AppendPair(&line, key, value);
  for (const auto& [key, value] : event.labels) AppendPair(&line, key, value);
  if (options.include_timings) {
    for (const auto& [key, value] : event.timings) {
      AppendPair(&line, key, value);
    }
  }
  if (options.include_environment) {
    for (const auto& [key, value] : event.env_fields) {
      AppendPair(&line, key, value);
    }
    for (const auto& [key, value] : event.env_labels) {
      AppendPair(&line, key, value);
    }
  }
  line.push_back('}');
  return line;
}

JsonlTraceSink::JsonlTraceSink(std::string path, JsonlTraceOptions options)
    : path_(std::move(path)), options_(options) {
  if (options_.resume) {
    // Reopen without truncating; discard any bytes written after the
    // checkpoint being resumed from (those events get re-emitted by the
    // resumed segment, which keeps final trace bytes identical to an
    // uninterrupted run).
    file_ = std::fopen(path_.c_str(), "r+");
    if (file_ == nullptr) file_ = std::fopen(path_.c_str(), "w");
    if (file_ != nullptr) {
      const int fd = fileno(file_);
      if (ftruncate(fd, static_cast<off_t>(options_.resume_bytes)) != 0) {
        std::fprintf(stderr, "telemetry: cannot truncate trace file %s\n",
                     path_.c_str());
      }
      std::fseek(file_, 0, SEEK_END);
      sequence_ = options_.resume_sequence;
    }
  } else {
    file_ = std::fopen(path_.c_str(), "w");
  }
  if (file_ == nullptr) {
    std::fprintf(stderr, "telemetry: cannot open trace file %s\n",
                 path_.c_str());
  }
}

JsonlTraceSink::~JsonlTraceSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void JsonlTraceSink::Emit(TraceEvent event) {
  if (file_ == nullptr) return;
  std::string line = SerializeEvent(event, sequence_++, options_);
  line.push_back('\n');
  std::fwrite(line.data(), 1, line.size(), file_);
}

void JsonlTraceSink::Flush() {
  if (file_ != nullptr) std::fflush(file_);
}

bool JsonlTraceSink::DurableFlush(std::uint64_t* bytes) {
  *bytes = 0;
  if (file_ == nullptr) return true;
  // fflush first: it reports a failed write of the buffered tail, and
  // ferror then keeps any earlier failed write visible. EINVAL from fsync
  // means a file with nothing to sync (e.g. /dev/null), not a failure.
  if (std::fflush(file_) != 0 || std::ferror(file_) ||
      (fsync(fileno(file_)) != 0 && errno != EINVAL)) {
    return false;
  }
  const long offset = std::ftell(file_);
  *bytes = offset > 0 ? static_cast<std::uint64_t>(offset) : 0;
  return true;
}

}  // namespace gmr::obs
