#include "obs/histogram.h"

#include <limits>

namespace gmr::obs {

Histogram::Histogram(double first_bound, double growth,
                     std::size_t num_buckets) {
  bounds_.reserve(num_buckets);
  double bound = first_bound;
  for (std::size_t i = 0; i < num_buckets; ++i) {
    bounds_.push_back(bound);
    bound *= growth;
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      bounds_.size() + 1);
  for (std::size_t i = 0; i < bounds_.size() + 1; ++i) buckets_[i] = 0;
}

void Histogram::Record(double value) {
  std::size_t i = 0;
  while (i < bounds_.size() && value > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
}

double Histogram::bucket_bound(std::size_t i) const {
  return i < bounds_.size() ? bounds_[i]
                            : std::numeric_limits<double>::infinity();
}

std::uint64_t Histogram::total_count() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < num_buckets(); ++i) total += bucket_count(i);
  return total;
}

double Histogram::Quantile(double q) const {
  const std::uint64_t total = total_count();
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < num_buckets(); ++i) {
    seen += bucket_count(i);
    if (static_cast<double>(seen) >= rank) return bucket_bound(i);
  }
  return bucket_bound(num_buckets() - 1);
}

}  // namespace gmr::obs
