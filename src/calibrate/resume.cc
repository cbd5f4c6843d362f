#include "calibrate/resume.h"

#include <cstdlib>
#include <utility>

#include "ckpt/serialize.h"
#include "common/parse.h"

namespace gmr::calibrate {
namespace {

constexpr char kFingerprintSection[] = "fingerprint";
constexpr char kRngSection[] = "rng";
constexpr char kBudgetSection[] = "budget";

}  // namespace

std::vector<std::string> CalibrateFingerprint(
    const char* method, std::size_t budget, const BoxBounds& bounds,
    const std::vector<double>& initial) {
  return ckpt::MakeFingerprint({
      {"method", method},
      {"budget", std::to_string(budget)},
      {"dim", std::to_string(bounds.dim())},
      {"lo", ckpt::SerializeDoubles(bounds.lo)},
      {"hi", ckpt::SerializeDoubles(bounds.hi)},
      {"initial", ckpt::SerializeDoubles(initial)},
  });
}

ckpt::Snapshot MakeCalibrateSnapshot(const char* method, std::uint64_t step,
                                     std::size_t budget,
                                     const BoxBounds& bounds,
                                     const std::vector<double>& initial,
                                     const Rng& rng,
                                     const BudgetedObjective& f) {
  ckpt::Snapshot snapshot;
  snapshot.driver = "calibrate";
  snapshot.step = step;
  snapshot.AddSection(kFingerprintSection)->lines =
      CalibrateFingerprint(method, budget, bounds, initial);
  snapshot.AddSection(kRngSection)
      ->lines.push_back(ckpt::SerializeRngState(rng.SaveState()));
  ckpt::Section* section = snapshot.AddSection(kBudgetSection);
  section->lines.push_back("used " + std::to_string(f.used()));
  section->lines.push_back("task_failures " +
                           std::to_string(f.task_failures()));
  section->lines.push_back("best_f " + ckpt::HexDouble(f.best_f()));
  section->lines.push_back("best_x " + ckpt::SerializeDoubles(f.best_x()));
  return snapshot;
}

void AddPointsSection(ckpt::Snapshot* snapshot, const std::string& name,
                      const std::vector<ScoredPoint>& points) {
  ckpt::Section* section = snapshot->AddSection(name);
  section->lines.reserve(points.size());
  for (const ScoredPoint& point : points) {
    section->lines.push_back(ckpt::HexDouble(point.f) + " " +
                             ckpt::SerializeDoubles(point.x));
  }
}

bool ParsePointsSection(const ckpt::Snapshot& snapshot,
                        const std::string& name, std::size_t expected_size,
                        std::vector<ScoredPoint>* points) {
  const ckpt::Section* section = snapshot.FindSection(name);
  if (section == nullptr) return false;
  if (expected_size != 0 && section->lines.size() != expected_size) {
    return false;
  }
  std::vector<ScoredPoint> parsed;
  parsed.reserve(section->lines.size());
  for (const std::string& line : section->lines) {
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) return false;
    ScoredPoint point;
    if (!ckpt::ParseHexDouble(line.substr(0, space), &point.f)) return false;
    if (!ckpt::ParseDoubles(line.substr(space + 1), &point.x)) return false;
    parsed.push_back(std::move(point));
  }
  *points = std::move(parsed);
  return true;
}

bool RestoreCalibrateCommon(const ckpt::Snapshot& snapshot, Rng* rng,
                            BudgetedObjective* f) {
  const ckpt::Section* rng_section = snapshot.FindSection(kRngSection);
  if (rng_section == nullptr || rng_section->lines.size() != 1) return false;
  RngState state;
  if (!ckpt::ParseRngState(rng_section->lines[0], &state)) return false;

  const ckpt::Section* budget = snapshot.FindSection(kBudgetSection);
  if (budget == nullptr) return false;
  std::size_t used = 0;
  std::size_t task_failures = 0;
  double best_f = 1e300;
  std::vector<double> best_x;
  bool have_used = false;
  bool have_failures = false;
  bool have_best = false;
  for (const std::string& line : budget->lines) {
    if (line.compare(0, 5, "used ") == 0) {
      if (!ParseUnsigned(line.substr(5), &used)) return false;
      have_used = true;
    } else if (line.compare(0, 14, "task_failures ") == 0) {
      if (!ParseUnsigned(line.substr(14), &task_failures)) return false;
      have_failures = true;
    } else if (line.compare(0, 7, "best_f ") == 0) {
      if (!ckpt::ParseHexDouble(line.substr(7), &best_f)) return false;
      have_best = true;
    } else if (line.compare(0, 7, "best_x ") == 0) {
      if (!ckpt::ParseDoubles(line.substr(7), &best_x)) return false;
    }
  }
  if (!have_used || !have_failures || !have_best) return false;

  rng->RestoreState(state);
  f->Restore(used, task_failures, std::move(best_x), best_f);
  return true;
}

}  // namespace gmr::calibrate
