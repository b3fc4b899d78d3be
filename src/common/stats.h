// Streaming statistics used to collect experiment metrics:
//  - Welford running mean/variance,
//  - a log-bucketed latency histogram with percentile queries,
//  - a windowed rate meter (bytes over time),
//  - a simple named counter set for drop attribution etc.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"

namespace hicc {

/// Welford's online mean/variance accumulator.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::int64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 1e300;
  double max_ = -1e300;
};

/// Log-bucketed histogram for non-negative values (latencies in ns,
/// queue depths, ...). Buckets grow geometrically, 32 per octave, so
/// percentile error is bounded by the bucket width (~2% relative).
class LogHistogram {
 public:
  LogHistogram() : buckets_(kBucketCount, 0) {}

  void add(double value);

  /// Percentile in [0, 100]; returns the representative value of the
  /// bucket containing that rank (0 if the histogram is empty).
  [[nodiscard]] double percentile(double p) const;

  /// {percentile(lo), percentile(hi)} for lo <= hi, bit for bit, from
  /// one scan of the buckets.
  [[nodiscard]] std::pair<double, double> percentiles(double lo, double hi) const;

  [[nodiscard]] std::int64_t count() const { return total_; }
  [[nodiscard]] double mean() const {
    return total_ > 0 ? sum_ / static_cast<double>(total_) : 0.0;
  }
  [[nodiscard]] double max_value() const { return max_; }

 private:
  static constexpr int kSubBits = 5;               // 32 sub-buckets per octave
  static constexpr int kOctaves = 40;              // covers [1, 2^40)
  static constexpr int kBucketCount = kOctaves << kSubBits;

  static int bucket_for(double value);
  static double bucket_value(int bucket);

  std::vector<std::int64_t> buckets_;
  std::int64_t total_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// Measures average data rate over an explicit measurement window.
/// Typical use: reset at warmup end, read at the end of the run.
class RateMeter {
 public:
  /// Starts (or restarts) the measurement window at `now`.
  void reset(TimePs now) {
    window_start_ = now;
    bytes_ = Bytes(0);
  }

  void add(Bytes n) { bytes_ += n; }

  [[nodiscard]] Bytes bytes() const { return bytes_; }
  [[nodiscard]] BitRate rate_at(TimePs now) const {
    return rate_of(bytes_, now - window_start_);
  }

 private:
  TimePs window_start_{};
  Bytes bytes_{};
};

/// Windowed counter for ratio metrics (drops / transmissions, misses /
/// packets): counts only after the last reset so warmup is excluded.
class WindowedCounter {
 public:
  void reset() { value_ = 0; }
  void add(std::int64_t n = 1) { value_ += n; }
  [[nodiscard]] std::int64_t value() const { return value_; }

  /// value() / denominator, or 0 when the denominator is 0.
  [[nodiscard]] double ratio_to(std::int64_t denom) const {
    return denom > 0 ? static_cast<double>(value_) / static_cast<double>(denom) : 0.0;
  }

 private:
  std::int64_t value_ = 0;
};

}  // namespace hicc
