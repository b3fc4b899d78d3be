#include "common/stats.h"

#include <cmath>

namespace hicc {

double RunningStats::stddev() const { return std::sqrt(variance()); }

int LogHistogram::bucket_for(double value) {
  if (value < 1.0) return 0;
  // Decompose value = m * 2^e with m in [1, 2); the octave is e and the
  // sub-bucket is the top kSubBits bits of the mantissa fraction.
  int exp = 0;
  const double mantissa = std::frexp(value, &exp);  // mantissa in [0.5, 1)
  const int octave = exp - 1;                       // value in [2^octave, 2^(octave+1))
  const int sub = static_cast<int>((mantissa * 2.0 - 1.0) * (1 << kSubBits));
  const int bucket = (octave << kSubBits) + std::min(sub, (1 << kSubBits) - 1);
  return std::min(bucket, kBucketCount - 1);
}

double LogHistogram::bucket_value(int bucket) {
  const int octave = bucket >> kSubBits;
  const int sub = bucket & ((1 << kSubBits) - 1);
  // Midpoint of the bucket range.
  const double lo = std::ldexp(1.0 + static_cast<double>(sub) / (1 << kSubBits), octave);
  const double hi = std::ldexp(1.0 + static_cast<double>(sub + 1) / (1 << kSubBits), octave);
  return 0.5 * (lo + hi);
}

void LogHistogram::add(double value) {
  if (value < 0.0) value = 0.0;
  ++buckets_[static_cast<std::size_t>(bucket_for(value))];
  ++total_;
  sum_ += value;
  max_ = std::max(max_, value);
}

double LogHistogram::percentile(double p) const {
  if (total_ == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(total_ - 1);
  std::int64_t seen = 0;
  for (int b = 0; b < kBucketCount; ++b) {
    seen += buckets_[static_cast<std::size_t>(b)];
    if (static_cast<double>(seen) > rank) return bucket_value(b);
  }
  return max_;
}

std::pair<double, double> LogHistogram::percentiles(double lo, double hi) const {
  if (total_ == 0) return {0.0, 0.0};
  const double rank_lo = lo / 100.0 * static_cast<double>(total_ - 1);
  const double rank_hi = hi / 100.0 * static_cast<double>(total_ - 1);
  double at_lo = max_;
  bool found_lo = false;
  std::int64_t seen = 0;
  for (int b = 0; b < kBucketCount; ++b) {
    seen += buckets_[static_cast<std::size_t>(b)];
    if (!found_lo && static_cast<double>(seen) > rank_lo) {
      at_lo = bucket_value(b);
      found_lo = true;
    }
    if (static_cast<double>(seen) > rank_hi) return {at_lo, bucket_value(b)};
  }
  return {at_lo, max_};
}

}  // namespace hicc
