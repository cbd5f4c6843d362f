#ifndef GMR_OBS_HISTOGRAM_H_
#define GMR_OBS_HISTOGRAM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace gmr::obs {

/// Fixed exponential-bucket histogram: bucket i holds values in
/// (bound(i-1), bound(i)] with bound(i) = first_bound * growth^i, plus an
/// overflow bucket. Records are lock-free (relaxed atomics), so worker
/// lanes can record without contending.
class Histogram {
 public:
  Histogram(double first_bound, double growth, std::size_t num_buckets);

  void Record(double value);

  std::size_t num_buckets() const { return bounds_.size() + 1; }
  /// Upper bound of bucket i (+inf for the overflow bucket).
  double bucket_bound(std::size_t i) const;
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t total_count() const;

  /// Approximate quantile (upper bound of the bucket holding rank q*n).
  double Quantile(double q) const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
};

}  // namespace gmr::obs

#endif  // GMR_OBS_HISTOGRAM_H_
