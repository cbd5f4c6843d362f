#include "obs/trace_reader.h"

#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace gmr::obs {
namespace {

/// Cursor over one line of flat JSON.
struct Cursor {
  const std::string& text;
  std::size_t pos = 0;

  bool AtEnd() const { return pos >= text.size(); }
  char Peek() const { return AtEnd() ? '\0' : text[pos]; }
  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos;
    return true;
  }
  void SkipSpace() {
    while (!AtEnd() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  }
};

bool ParseString(Cursor* cursor, std::string* out) {
  if (!cursor->Consume('"')) return false;
  out->clear();
  while (!cursor->AtEnd()) {
    char c = cursor->text[cursor->pos++];
    if (c == '"') return true;
    if (c == '\\') {
      if (cursor->AtEnd()) return false;
      char escape = cursor->text[cursor->pos++];
      switch (escape) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 'u': {
          // Exactly four hex digits below 0x80: the writer escapes only
          // control characters.
          if (cursor->pos + 4 > cursor->text.size()) return false;
          const char* hex = cursor->text.data() + cursor->pos;
          unsigned code = 0;
          const auto [end, ec] = std::from_chars(hex, hex + 4, code, 16);
          if (ec != std::errc() || end != hex + 4 || code >= 0x80) {
            return false;
          }
          cursor->pos += 4;
          out->push_back(static_cast<char>(code));
          break;
        }
        default:
          return false;
      }
    } else {
      out->push_back(c);
    }
  }
  return false;  // unterminated string
}

/// True when `value` is an integer in [0, 2^64), so casting it to uint64_t
/// is defined.
bool IsUint64(double value) {
  return value >= 0.0 && value < 18446744073709551616.0 &&
         value == std::floor(value);
}

bool ParseNumber(Cursor* cursor, double* out) {
  const char* start = cursor->text.c_str() + cursor->pos;
  char* end = nullptr;
  *out = std::strtod(start, &end);
  if (end == start) return false;
  cursor->pos += static_cast<std::size_t>(end - start);
  return true;
}

}  // namespace

double TraceRecord::FindNumber(const std::string& key, double fallback) const {
  for (const auto& [k, v] : numbers) {
    if (k == key) return v;
  }
  return fallback;
}

std::string TraceRecord::FindString(const std::string& key,
                                    const std::string& fallback) const {
  for (const auto& [k, v] : strings) {
    if (k == key) return v;
  }
  return fallback;
}

bool TraceRecord::HasNumber(const std::string& key) const {
  for (const auto& [k, v] : numbers) {
    if (k == key) return true;
  }
  return false;
}

bool ParseTraceLine(const std::string& line, TraceRecord* record) {
  *record = TraceRecord{};
  Cursor cursor{line};
  cursor.SkipSpace();
  if (!cursor.Consume('{')) return false;
  bool first = true;
  for (;;) {
    cursor.SkipSpace();
    if (cursor.Consume('}')) break;
    if (!first && !cursor.Consume(',')) return false;
    first = false;
    cursor.SkipSpace();
    std::string key;
    if (!ParseString(&cursor, &key)) return false;
    cursor.SkipSpace();
    if (!cursor.Consume(':')) return false;
    cursor.SkipSpace();
    if (cursor.Peek() == '"') {
      std::string value;
      if (!ParseString(&cursor, &value)) return false;
      if (key == "type") {
        record->type = value;
      } else {
        record->strings.emplace_back(key, value);
      }
    } else if (cursor.text.compare(cursor.pos, 4, "null") == 0) {
      cursor.pos += 4;  // NaN serializes as null; surface it as such
      record->numbers.emplace_back(key, std::nan(""));
    } else {
      double value = 0;
      if (!ParseNumber(&cursor, &value)) return false;
      if (key == "seq") {
        if (!IsUint64(value)) return false;
        record->seq = static_cast<std::uint64_t>(value);
      } else {
        record->numbers.emplace_back(key, value);
      }
    }
  }
  // Every event the writer emits leads with its type; a record without one
  // is not a trace line.
  return !record->type.empty();
}

Status ReadTrace(const std::string& path, std::vector<TraceRecord>* records) {
  std::ifstream in(path);
  if (!in) return Status::Error("cannot open trace file: " + path);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    TraceRecord record;
    if (!ParseTraceLine(line, &record)) {
      return Status::Error(path + ":" + std::to_string(line_number) +
                           ": malformed trace line");
    }
    records->push_back(std::move(record));
  }
  return Status::Ok();
}

TraceSummary SummarizeTrace(const std::vector<TraceRecord>& records) {
  TraceSummary summary;
  summary.num_events = records.size();
  double cum_lookups = 0;
  double cum_hits = 0;
  double cum_evaluated = 0;
  double cum_static_rejects = 0;
  for (const TraceRecord& record : records) {
    if (record.type == "manifest") {
      if (summary.driver.empty()) {
        summary.driver = record.FindString("driver");
        const double seed = record.FindNumber("seed");
        summary.seed = IsUint64(seed) ? static_cast<std::uint64_t>(seed) : 0;
        summary.git_describe = record.FindString("git_describe");
        summary.started_at_utc = record.FindString("started_at_utc");
      }
    } else if (record.type == "generation") {
      GenerationPoint point;
      point.generation = record.FindNumber("gen");
      point.best_fitness = record.FindNumber("best_fitness");
      point.mean_fitness = record.FindNumber("mean_fitness");
      point.seconds = record.FindNumber("seconds");
      summary.curve.push_back(point);
      summary.final_best_fitness = point.best_fitness;
      summary.has_final_best = true;
    } else if (record.type == "eval_batch") {
      BatchPoint point;
      point.seq = record.seq;
      point.individuals = record.FindNumber("individuals");
      cum_lookups += record.FindNumber("cache_lookups");
      cum_hits += record.FindNumber("cache_hits");
      cum_evaluated += point.individuals;
      cum_static_rejects += record.FindNumber("static_rejects");
      point.cum_lookups = cum_lookups;
      point.cum_hits = cum_hits;
      point.cum_evaluated = cum_evaluated;
      point.cum_static_rejects = cum_static_rejects;
      point.cum_hit_rate = cum_lookups > 0 ? cum_hits / cum_lookups : 0;
      summary.batches.push_back(point);
      summary.gradient_evaluations +=
          record.FindNumber("gradient_evaluations");
      summary.tape_nodes += record.FindNumber("tape_nodes");
      summary.linesearch_steps += record.FindNumber("linesearch_steps");
      for (std::size_t i = 0; i < kNumEvalOutcomes; ++i) {
        const std::string key =
            std::string("outcomes.") +
            EvalOutcomeName(static_cast<EvalOutcome>(i));
        summary.outcomes[i] +=
            static_cast<std::uint64_t>(record.FindNumber(key));
      }
    }
  }
  summary.total_individuals = static_cast<std::uint64_t>(cum_evaluated);
  summary.cache_hit_rate = cum_lookups > 0 ? cum_hits / cum_lookups : 0;
  summary.static_reject_rate =
      cum_evaluated > 0 ? cum_static_rejects / cum_evaluated : 0;
  return summary;
}

namespace {

void AppendLine(std::string* out, const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  *out += buffer;
  out->push_back('\n');
}

}  // namespace

std::string RenderSummaryText(const TraceSummary& summary) {
  std::string out;
  AppendLine(&out, "trace summary");
  AppendLine(&out, "  driver:          %s",
             summary.driver.empty() ? "(no manifest)" : summary.driver.c_str());
  if (!summary.driver.empty()) {
    AppendLine(&out, "  seed:            %llu",
               static_cast<unsigned long long>(summary.seed));
  }
  if (!summary.git_describe.empty()) {
    AppendLine(&out, "  build:           %s", summary.git_describe.c_str());
  }
  if (!summary.started_at_utc.empty()) {
    AppendLine(&out, "  started:         %s", summary.started_at_utc.c_str());
  }
  AppendLine(&out, "  events:          %zu", summary.num_events);
  AppendLine(&out, "  generations:     %zu", summary.curve.size());
  AppendLine(&out, "  eval batches:    %zu", summary.batches.size());
  AppendLine(&out, "  individuals:     %llu",
             static_cast<unsigned long long>(summary.total_individuals));
  if (summary.has_final_best) {
    AppendLine(&out, "  final best:      %.6g", summary.final_best_fitness);
  }
  AppendLine(&out, "  cache hit rate:  %.1f%%",
             100.0 * summary.cache_hit_rate);
  AppendLine(&out, "  static rejects:  %.1f%%",
             100.0 * summary.static_reject_rate);

  if (!summary.curve.empty()) {
    AppendLine(&out, "fitness curve (generation, best, mean):");
    // At most 12 rows: first, last, and evenly spaced interior points.
    const std::size_t n = summary.curve.size();
    const std::size_t stride = n <= 12 ? 1 : (n + 11) / 12;
    for (std::size_t i = 0; i < n; i += stride) {
      const GenerationPoint& p = summary.curve[i];
      AppendLine(&out, "  %4.0f  %12.6g  %12.6g", p.generation,
                 p.best_fitness, p.mean_fitness);
    }
    if (stride > 1 && (n - 1) % stride != 0) {
      const GenerationPoint& p = summary.curve.back();
      AppendLine(&out, "  %4.0f  %12.6g  %12.6g", p.generation,
                 p.best_fitness, p.mean_fitness);
    }
  }

  std::uint64_t total_outcomes = 0;
  for (std::size_t i = 0; i < kNumEvalOutcomes; ++i) {
    total_outcomes += summary.outcomes[i];
  }
  if (total_outcomes > 0) {
    AppendLine(&out, "eval outcome mix:");
    for (std::size_t i = 0; i < kNumEvalOutcomes; ++i) {
      if (summary.outcomes[i] == 0) continue;
      AppendLine(&out, "  %-22s %8llu  (%.1f%%)",
                 EvalOutcomeName(static_cast<EvalOutcome>(i)),
                 static_cast<unsigned long long>(summary.outcomes[i]),
                 100.0 * static_cast<double>(summary.outcomes[i]) /
                     static_cast<double>(total_outcomes));
    }
  }
  return out;
}

std::string RenderCurveCsv(const TraceSummary& summary) {
  std::string out = "generation,best_fitness,mean_fitness,seconds\n";
  for (const GenerationPoint& p : summary.curve) {
    AppendLine(&out, "%.0f,%.17g,%.17g,%.17g", p.generation, p.best_fitness,
               p.mean_fitness, p.seconds);
  }
  return out;
}

std::string RenderBatchesCsv(const TraceSummary& summary) {
  std::string out =
      "seq,individuals,cum_lookups,cum_hits,cum_hit_rate,"
      "cum_static_rejects\n";
  for (const BatchPoint& p : summary.batches) {
    AppendLine(&out, "%llu,%.0f,%.0f,%.0f,%.17g,%.0f",
               static_cast<unsigned long long>(p.seq), p.individuals,
               p.cum_lookups, p.cum_hits, p.cum_hit_rate,
               p.cum_static_rejects);
  }
  return out;
}

std::string RenderOutcomesCsv(const TraceSummary& summary) {
  std::string out = "outcome,count\n";
  for (std::size_t i = 0; i < kNumEvalOutcomes; ++i) {
    AppendLine(&out, "%s,%llu",
               EvalOutcomeName(static_cast<EvalOutcome>(i)),
               static_cast<unsigned long long>(summary.outcomes[i]));
  }
  return out;
}

}  // namespace gmr::obs
