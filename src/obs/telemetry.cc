#include "obs/telemetry.h"

#include <unistd.h>

#include <chrono>
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
    return;
  }
  writer_ = std::thread([this] { WriterLoop(); });
}

JsonlTraceSink::~JsonlTraceSink() {
  if (file_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  writer_.join();
  std::fclose(file_);
}

void JsonlTraceSink::Emit(TraceEvent event) {
  if (file_ == nullptr) return;
  // Serialization happens here (emit order defines seq and line order);
  // only the write syscalls are deferred to the writer thread.
  std::string line = SerializeEvent(event, sequence_++, options_);
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back(std::move(line));
    wake = pending_.size() >= options_.flush_threshold;
  }
  if (wake) work_cv_.notify_one();
}

void JsonlTraceSink::Flush() {
  if (file_ == nullptr) return;
  std::unique_lock<std::mutex> lock(mu_);
  work_cv_.notify_one();
  drain_cv_.wait(lock, [this] { return pending_.empty() && !writing_; });
  std::fflush(file_);
}

std::uint64_t JsonlTraceSink::DurableFlush() {
  if (file_ == nullptr) return 0;
  std::unique_lock<std::mutex> lock(mu_);
  work_cv_.notify_one();
  drain_cv_.wait(lock, [this] { return pending_.empty() && !writing_; });
  std::fflush(file_);
  fsync(fileno(file_));
  const long offset = std::ftell(file_);
  return offset > 0 ? static_cast<std::uint64_t>(offset) : 0;
}

void JsonlTraceSink::WriterLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait_for(lock, std::chrono::milliseconds(50), [this] {
      return stop_ || !pending_.empty();
    });
    while (!pending_.empty()) {
      std::string line = std::move(pending_.front());
      pending_.pop_front();
      writing_ = true;
      lock.unlock();
      std::fwrite(line.data(), 1, line.size(), file_);
      std::fputc('\n', file_);
      lock.lock();
      writing_ = false;
    }
    drain_cv_.notify_all();
    if (stop_) return;
  }
}

}  // namespace gmr::obs
