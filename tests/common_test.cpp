// Unit tests for the common foundation: units, RNG, statistics, tables,
// round-trip double formatting, the Ring FIFO.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "common/fmt.h"
#include "common/ring.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"
#include "fmt_reference.h"
#include "sim/inline_action.h"

namespace hicc {
namespace {

using namespace hicc::literals;

// ----------------------------------------------------------------- Ring

// Move-only elements (the datapath queues hold InlineCallbacks); each
// returns the order it was pushed in.
using Job = sim::InlineCallback<int()>;

TEST(Ring, GrowsWhileWrappedKeepingFifoOrder) {
  Ring<Job> ring;
  int pushed = 0;
  int popped = 0;
  const auto push = [&] {
    const int n = pushed++;
    ring.push_back(Job([n] { return n; }));
  };
  const auto pop = [&] {
    ASSERT_FALSE(ring.empty());
    EXPECT_EQ(ring.front()(), popped++);
    ring.pop_front();
  };
  for (int i = 0; i < 16; ++i) push();
  ASSERT_EQ(ring.capacity(), 16u);
  for (int i = 0; i < 10; ++i) pop();
  for (int i = 0; i < 10; ++i) push();  // the tail wraps past slot 15
  ASSERT_EQ(ring.size(), 16u);
  ASSERT_EQ(ring.capacity(), 16u);

  push();  // full and wrapped: grows, unwrapping into the new buffer
  EXPECT_EQ(ring.capacity(), 32u);
  ASSERT_EQ(ring.size(), 17u);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i](), popped + static_cast<int>(i));
  }
  for (int i = 0; i < 40; ++i) {  // wrap the grown buffer too
    push();
    pop();
  }
  while (!ring.empty()) pop();
  EXPECT_EQ(popped, pushed);
  EXPECT_EQ(ring.capacity(), 32u);
}

TEST(Ring, StaysAtItsHighWaterMark) {
  Ring<int> ring;
  for (int i = 0; i < 100; ++i) ring.push_back(i);
  const std::size_t cap = ring.capacity();
  EXPECT_EQ(cap, 128u);
  for (int i = 0; i < 10'000; ++i) {
    ring.pop_front();
    ring.push_back(i);
  }
  EXPECT_EQ(ring.capacity(), cap);
  EXPECT_EQ(ring.size(), 100u);
  EXPECT_EQ(ring.front(), 9'900);
}

TEST(Ring, DestroysElementsOnPopClearAndDestruction) {
  const auto token = std::make_shared<int>(0);
  {
    Ring<Job> ring;
    for (int i = 0; i < 20; ++i) ring.push_back(Job([token] { return *token; }));
    EXPECT_EQ(token.use_count(), 21);
    ring.pop_front();
    EXPECT_EQ(token.use_count(), 20);
    ring.clear();
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_TRUE(ring.empty());
    for (int i = 0; i < 5; ++i) ring.push_back(Job([token] { return *token; }));
    EXPECT_EQ(token.use_count(), 6);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// ---------------------------------------------------------------- units

TEST(Units, TimeConversionsRoundTrip) {
  EXPECT_EQ(TimePs::from_ns(1.0).ps(), 1000);
  EXPECT_EQ(TimePs::from_us(1.0).ps(), 1000000);
  EXPECT_EQ(TimePs::from_ms(1.0).ps(), 1000000000);
  EXPECT_DOUBLE_EQ(TimePs::from_sec(2.5).sec(), 2.5);
  EXPECT_DOUBLE_EQ((1_us).ns(), 1000.0);
}

TEST(Units, TimeArithmetic) {
  EXPECT_EQ(1_us + 500_ns, TimePs::from_us(1.5));
  EXPECT_EQ(2_us - 500_ns, TimePs::from_us(1.5));
  EXPECT_EQ((1_us) * 3, 3_us);
  EXPECT_EQ((3_us) / 3, 1_us);
  EXPECT_DOUBLE_EQ((1_us) / (2_us), 0.5);
  EXPECT_LT(1_ns, 1_us);
}

TEST(Units, BytesConversions) {
  EXPECT_EQ((1_KiB).count(), 1024);
  EXPECT_EQ((1_MiB).count(), 1048576);
  EXPECT_DOUBLE_EQ((1_KiB).bits(), 8192.0);
  EXPECT_DOUBLE_EQ(Bytes::mib(2.0).mib(), 2.0);
}

TEST(Units, OneByteAt100GbpsIs80Picoseconds) {
  // The reason the simulator uses picoseconds at all.
  EXPECT_EQ(BitRate::gbps(100).time_to_send(1_B).ps(), 80);
}

TEST(Units, RateTimeToSendAndBack) {
  const auto rate = BitRate::gbps(100);
  const auto t = rate.time_to_send(4096_B);
  EXPECT_EQ(t.ps(), 4096 * 80);
  EXPECT_EQ(rate.bytes_in(t).count(), 4096);
}

TEST(Units, RateOfGuardsZeroTime) {
  EXPECT_DOUBLE_EQ(rate_of(100_B, TimePs(0)).bps(), 0.0);
  EXPECT_NEAR(rate_of(12500_B, 1_us).gbps(), 100.0, 1e-9);
}

TEST(Units, GigabytesPerSecond) {
  EXPECT_DOUBLE_EQ(BitRate::gigabytes_per_sec(11.52).gigabytes_per_sec(), 11.52);
  EXPECT_DOUBLE_EQ(BitRate::gigabytes_per_sec(1.0).gbps(), 8.0);
}

// ---------------------------------------------------------------- rng

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversRange) {
  Rng rng(3);
  std::array<int, 8> seen{};
  for (int i = 0; i < 8000; ++i) ++seen[rng.below(8)];
  for (int c : seen) EXPECT_GT(c, 800);  // ~1000 expected each
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool lo = false, hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    lo |= (v == -2);
    hi |= (v == 2);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, ForkIndependence) {
  Rng parent(5);
  Rng child = parent.fork();
  // Child stream should not equal the parent's continued stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent() == child());
  EXPECT_EQ(same, 0);
}

// ---------------------------------------------------------------- stats

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428, 1e-5);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  const RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(LogHistogram, PercentilesOfUniformStream) {
  LogHistogram h;
  for (int i = 1; i <= 10000; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.count(), 10000);
  EXPECT_NEAR(h.percentile(50), 5000.0, 5000.0 * 0.05);
  EXPECT_NEAR(h.percentile(99), 9900.0, 9900.0 * 0.05);
  EXPECT_NEAR(h.mean(), 5000.5, 0.5);
}

TEST(LogHistogram, SingleValue) {
  LogHistogram h;
  h.add(1234.5);
  EXPECT_NEAR(h.percentile(0), 1234.5, 1234.5 * 0.05);
  EXPECT_NEAR(h.percentile(100), 1234.5, 1234.5 * 0.05);
  EXPECT_DOUBLE_EQ(h.max_value(), 1234.5);
}

TEST(LogHistogram, NegativeClampsToZeroBucket) {
  LogHistogram h;
  h.add(-5.0);
  EXPECT_EQ(h.count(), 1);
  EXPECT_LT(h.percentile(50), 2.0);
}

TEST(LogHistogram, EmptyPercentileIsZero) {
  const LogHistogram h;
  EXPECT_DOUBLE_EQ(h.percentile(99), 0.0);
}

// The one-scan pair the tracer's .p50/.p99 series read must equal two
// percentile() scans bit for bit, wherever the ranks fall.
void expect_pair_matches_two_scans(const LogHistogram& h) {
  for (const auto& [lo, hi] : {std::pair{50.0, 99.0}, std::pair{0.0, 100.0},
                              std::pair{25.0, 75.0}, std::pair{99.0, 99.0}}) {
    const auto [at_lo, at_hi] = h.percentiles(lo, hi);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(at_lo), std::bit_cast<std::uint64_t>(h.percentile(lo)))
        << "p" << lo << " of " << h.count();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(at_hi), std::bit_cast<std::uint64_t>(h.percentile(hi)))
        << "p" << hi << " of " << h.count();
  }
}

TEST(LogHistogram, PercentilePairMatchesTwoScans) {
  expect_pair_matches_two_scans(LogHistogram{});

  LogHistogram single_bucket;
  for (int i = 0; i < 100; ++i) single_bucket.add(777.0);
  expect_pair_matches_two_scans(single_bucket);

  LogHistogram below_one;  // every value lands in bucket 0
  for (int i = 0; i < 10; ++i) below_one.add(0.1 * i);
  expect_pair_matches_two_scans(below_one);

  LogHistogram clamped;  // 2^40 and beyond share the top bucket
  clamped.add(1.0);
  for (int i = 0; i < 5; ++i) clamped.add(0x1p40 * (i + 1));
  expect_pair_matches_two_scans(clamped);

  Rng rng(0x9a1f);
  for (int trial = 0; trial < 200; ++trial) {
    LogHistogram h;
    const int n = static_cast<int>(rng.below(400));
    const double scale = std::ldexp(1.0, static_cast<int>(rng.below(44)));
    for (int i = 0; i < n; ++i) h.add(rng.uniform(-0.5, 1.0) * scale);
    expect_pair_matches_two_scans(h);
  }
}

TEST(RateMeter, MeasuresOverWindow) {
  RateMeter m;
  m.reset(1_ms);
  m.add(12500_B);  // 12500B over 1us = 100Gbps
  EXPECT_NEAR(m.rate_at(1_ms + 1_us).gbps(), 100.0, 1e-6);
}

TEST(RateMeter, ResetClearsBytes) {
  RateMeter m;
  m.reset(TimePs(0));
  m.add(1000_B);
  m.reset(1_us);
  EXPECT_EQ(m.bytes().count(), 0);
}

TEST(WindowedCounter, RatioAndReset) {
  WindowedCounter c;
  c.add(3);
  c.add();
  EXPECT_EQ(c.value(), 4);
  EXPECT_DOUBLE_EQ(c.ratio_to(8), 0.5);
  EXPECT_DOUBLE_EQ(c.ratio_to(0), 0.0);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

// ---------------------------------------------------------------- table

TEST(Table, PrintsAlignedColumns) {
  Table t({"cores", "thpt_gbps"});
  t.add_row({std::int64_t{2}, 23.0});
  t.add_row({std::int64_t{16}, 75.5});
  std::ostringstream os;
  t.print(os, 1);
  const std::string s = os.str();
  EXPECT_NE(s.find("cores"), std::string::npos);
  EXPECT_NE(s.find("75.5"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({std::string("x"), 1.5});
  std::ostringstream os;
  t.write_csv(os, 2);
  EXPECT_EQ(os.str(), "a,b\nx,1.50\n");
}

// ------------------------------------------------------------------ fmt

std::string formatted(double v) {
  char buf[kDoubleChars];
  return {buf, format_double(buf, v)};
}

/// Formats every value both ways and returns how many differ; the first
/// few mismatches are reported with their bit patterns.
template <class Next>
int count_mismatches(int n, Next next) {
  std::ostringstream ref;
  int mismatches = 0;
  for (int i = 0; i < n; ++i) {
    const double v = next();
    ref.str(std::string());
    testing_ref::put_double(ref, v);
    const std::string got = formatted(v);
    if (got != ref.str() && ++mismatches <= 5) {
      ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v) << std::dec
                    << ": got " << got << ", want " << ref.str();
    }
  }
  return mismatches;
}

void expect_matches_reference(double v) {
  std::ostringstream want;
  testing_ref::put_double(want, v);
  std::ostringstream got;
  put_double(got, v);
  EXPECT_EQ(got.str(), want.str()) << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v);
}

/// `v`, its neighbours one ulp away and the negations of all three.
void expect_neighbourhood_matches_reference(double v) {
  for (const double x : {v, std::nextafter(v, -HUGE_VAL), std::nextafter(v, HUGE_VAL)}) {
    expect_matches_reference(x);
    expect_matches_reference(-x);
  }
}

TEST(FormatDouble, MatchesReferenceOnEdgeValues) {
  using Limits = std::numeric_limits<double>;
  // Each value and its negation: +-0, +-inf and +-nan among them.
  for (const double v : {0.0, Limits::infinity(), Limits::quiet_NaN(), Limits::denorm_min()}) {
    expect_matches_reference(v);
    expect_matches_reference(-v);
  }
  for (const double v : {DBL_MIN, DBL_MAX, 1e15, 1e16, 1e17, 1e-5, 1.0 / 3.0}) {
    expect_matches_reference(v);
  }
  // The integer fast path's bounds (|v| < 1e15) and 2^53, with their
  // neighbours; DBL_MIN's neighbours straddle the subnormal boundary.
  for (const double v : {1e15 - 1, 1e15, 0x1p53 - 1, 0x1p53, 0x1p53 + 2, 1.0, 12345.0, DBL_MIN}) {
    expect_neighbourhood_matches_reference(v);
  }
  // Shortest round-trip forms of exactly 15, 16 and 17 digits.
  for (const double v : {12345.6789012345, 1.0 / 3.0, 0.1 + 0.2}) {
    expect_neighbourhood_matches_reference(v);
  }
  // Every power of ten and of two: the shortest-digits fast path must
  // step aside for powers of two (their lower neighbour is half as far).
  for (int k = -320; k <= 308; ++k) {
    expect_neighbourhood_matches_reference(std::strtod(("1e" + std::to_string(k)).c_str(), nullptr));
  }
  for (int k = -1074; k <= 1023; ++k) expect_neighbourhood_matches_reference(std::ldexp(1.0, k));
  // The forms themselves, so a bug shared with the reference shows too.
  EXPECT_EQ(formatted(-0.0), "-0");
  EXPECT_EQ(formatted(-Limits::quiet_NaN()), "-nan");
  EXPECT_EQ(formatted(Limits::denorm_min()), "4.94065645841247e-324");
  EXPECT_EQ(formatted(1e15), "1e+15");
  EXPECT_EQ(formatted(1e-5), "1e-05");
  EXPECT_EQ(formatted(0.1), "0.1");
  EXPECT_EQ(formatted(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(formatted(DBL_MAX), "1.7976931348623157e+308");
  EXPECT_EQ(formatted(-12345.0), "-12345");
  EXPECT_EQ(formatted(1e15 - 1), "999999999999999");
  EXPECT_EQ(formatted(0x1p53 - 1), "9007199254740991");
  EXPECT_EQ(formatted(12345.6789012345), "12345.6789012345");
  EXPECT_EQ(formatted(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(formatted(1.5e-7), "1.5e-07");
  EXPECT_EQ(formatted(0x1p-1017), "7.1202363472230444e-307");
}

// 1M random bit patterns in four seeded shards, so the suite can run
// them side by side: the reference's snprintf is slow far from 1.
class FormatDoubleRandomBits : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FormatDoubleRandomBits, MatchesReference) {
  Rng rng(GetParam());
  EXPECT_EQ(count_mismatches(250'000, [&] { return std::bit_cast<double>(rng()); }), 0);
}

INSTANTIATE_TEST_SUITE_P(Shards, FormatDoubleRandomBits, ::testing::Values(1, 2, 3, 4));

// Random bit patterns are almost never integers or of the magnitudes
// probes emit: uniform(0, 1) scaled by 10^k, k in [-30, 30], covers
// both fast paths where the values live.
class FormatDoubleDecimalScaled : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FormatDoubleDecimalScaled, MatchesReference) {
  Rng rng(GetParam());
  int k = -30;
  EXPECT_EQ(count_mismatches(244'000,
                             [&] {
                               const double v = rng.uniform() * std::pow(10.0, k);
                               k = k == 30 ? -30 : k + 1;
                               return v;
                             }),
            0);
}

INSTANTIATE_TEST_SUITE_P(Shards, FormatDoubleDecimalScaled, ::testing::Values(1, 2));

// Trace times are picoseconds / 1e6: 5 us sampler ticks, and arbitrary
// instants at every magnitude from 10 ps to 1000 s of simulated time.
TEST(FormatDouble, MatchesReferenceOnPicosecondTimes) {
  std::int64_t tick = 0;
  EXPECT_EQ(count_mismatches(200'000, [&] { return TimePs(5'000'000 * tick++).us(); }), 0);

  Rng rng(0x5eed);
  std::uint64_t bound = 1;
  const auto any_magnitude = [&] {
    bound = bound >= 1'000'000'000'000'000ULL ? 10 : bound * 10;
    return TimePs(static_cast<std::int64_t>(rng.below(bound))).us();
  };
  EXPECT_EQ(count_mismatches(300'000, any_magnitude), 0);
}

}  // namespace
}  // namespace hicc
