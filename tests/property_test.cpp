// Property-based tests: each suite checks an invariant across a
// parameterized sweep (TEST_P) of geometries, rates, or random seeds,
// rather than a single hand-picked case.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "iommu/iommu.h"
#include "iommu/lru_cache.h"
#include "mem/memory_system.h"
#include "mem/stream_antagonist.h"
#include "net/link.h"
#include "pcie/params.h"
#include "sim/simulator.h"
#include "transport/swift.h"

namespace hicc {
namespace {

using namespace hicc::literals;

// ===================================================================
// LruCache equivalence against a reference model, across geometries.
// ===================================================================

class LruGeometry : public ::testing::TestWithParam<std::tuple<int, int>> {};

/// Reference: exact LRU per set implemented with std::list.
class ReferenceLru {
 public:
  ReferenceLru(int sets, int ways)
      : sets_(static_cast<std::size_t>(sets)), ways_(ways), lists_(sets_) {}

  bool lookup(std::uint64_t key) {
    auto& l = lists_[set_of(key)];
    const auto it = std::find(l.begin(), l.end(), key);
    if (it == l.end()) return false;
    l.erase(it);
    l.push_front(key);
    return true;
  }

  /// Returns true when the insert evicted another key.
  bool insert(std::uint64_t key) {
    auto& l = lists_[set_of(key)];
    const auto it = std::find(l.begin(), l.end(), key);
    if (it != l.end()) l.erase(it);
    l.push_front(key);
    if (l.size() <= static_cast<std::size_t>(ways_)) return false;
    l.pop_back();
    return true;
  }

  bool invalidate(std::uint64_t key) {
    auto& l = lists_[set_of(key)];
    const auto it = std::find(l.begin(), l.end(), key);
    if (it == l.end()) return false;
    l.erase(it);
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t key) const {
    const auto& l = lists_[set_of(key)];
    return std::find(l.begin(), l.end(), key) != l.end();
  }

  [[nodiscard]] int size() const {
    std::size_t n = 0;
    for (const auto& l : lists_) n += l.size();
    return static_cast<int>(n);
  }

  void clear() {
    for (auto& l : lists_) l.clear();
  }

 private:
  [[nodiscard]] std::size_t set_of(std::uint64_t key) const {
    return sets_ == 1 ? 0 : std::hash<std::uint64_t>{}(key) % sets_;
  }
  std::size_t sets_;
  int ways_;
  std::vector<std::list<std::uint64_t>> lists_;
};

TEST_P(LruGeometry, MatchesReferenceModelOnRandomTrace) {
  const auto [sets, ways] = GetParam();
  // Dense keys, then page-aligned ones (IOTLB tags at 4 KiB and 2 MiB
  // strides), which the cache's index must spread as well.
  const std::uint64_t strides[] = {1, 4096, std::uint64_t{2} << 20};
  for (const std::uint64_t stride : strides) {
    iommu::LruCache<std::uint64_t> cache(sets, ways);
    ReferenceLru ref(sets, ways);
    Rng rng(static_cast<std::uint64_t>(sets * 1000 + ways));
    const std::uint64_t key_space = static_cast<std::uint64_t>(sets * ways) * 3;

    for (int op = 0; op < 20000; ++op) {
      const std::uint64_t key = rng.below(key_space) * stride;
      if (op == 10000) {  // a global invalidation mid-trace
        cache.clear();
        ref.clear();
      }
      switch (rng.below(3)) {
        case 0:
          ASSERT_EQ(cache.lookup(key), ref.lookup(key)) << "op " << op << " stride " << stride;
          break;
        case 1:
          ASSERT_EQ(cache.insert(key), ref.insert(key)) << "op " << op << " stride " << stride;
          break;
        default:
          ASSERT_EQ(cache.invalidate(key), ref.invalidate(key))
              << "op " << op << " stride " << stride;
          break;
      }
      ASSERT_EQ(cache.contains(key), ref.contains(key)) << "op " << op << " stride " << stride;
      ASSERT_EQ(cache.size(), ref.size()) << "op " << op << " stride " << stride;
    }

    // Run-heavy: keys come in runs, like a packet's 16 TLPs into one
    // page, so most lookups hit their set's most recent entry. A global
    // invalidation or an invalidation of that very key must end the
    // run's hits.
    for (int run = 0; run < 2000; ++run) {
      const std::uint64_t key = rng.below(key_space) * stride;
      const std::string where = "run " + std::to_string(run) + " stride " + std::to_string(stride);
      if (!cache.lookup(key)) {
        ASSERT_FALSE(ref.lookup(key)) << where;
        ASSERT_EQ(cache.insert(key), ref.insert(key)) << where;
      } else {
        ASSERT_TRUE(ref.lookup(key)) << where;
      }
      for (int tlp = 1; tlp < 16; ++tlp) ASSERT_EQ(cache.lookup(key), ref.lookup(key)) << where;
      if (run % 7 == 3) {
        cache.clear();
        ref.clear();
      } else if (run % 5 == 1) {
        ASSERT_EQ(cache.invalidate(key), ref.invalidate(key)) << where;
      }
      ASSERT_EQ(cache.lookup(key), ref.lookup(key)) << where;
      ASSERT_EQ(cache.size(), ref.size()) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, LruGeometry,
                         ::testing::Values(std::tuple{1, 4}, std::tuple{1, 64},
                                           std::tuple{1, 128}, std::tuple{4, 4},
                                           std::tuple{8, 16}, std::tuple{16, 8},
                                           std::tuple{1, 512}, std::tuple{3, 5}),
                         [](const auto& param_info) {
                           return "s" + std::to_string(std::get<0>(param_info.param)) + "w" +
                                  std::to_string(std::get<1>(param_info.param));
                         });

// ===================================================================
// Simulator: random schedules always execute in nondecreasing time.
// ===================================================================

class SimOrdering : public ::testing::TestWithParam<int> {};

TEST_P(SimOrdering, EventsExecuteInTimeOrder) {
  sim::Simulator sim;
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<TimePs> executed;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 2000; ++i) {
    const TimePs t = TimePs(static_cast<std::int64_t>(rng.below(1'000'000'000)));
    ids.push_back(sim.at(t, [&executed, &sim] { executed.push_back(sim.now()); }));
  }
  // Cancel a random third.
  int cancelled = 0;
  for (const auto id : ids) {
    if (rng.chance(0.33) && sim.cancel(id)) ++cancelled;
  }
  sim.run_until(TimePs::from_ms(10));
  EXPECT_EQ(executed.size(), ids.size() - static_cast<std::size_t>(cancelled));
  EXPECT_TRUE(std::is_sorted(executed.begin(), executed.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimOrdering, ::testing::Range(1, 6));

// ===================================================================
// Memory solver: more antagonist cores can only raise latency and
// never break the achievable-bandwidth bound.
// ===================================================================

class MemMonotonic : public ::testing::TestWithParam<double> {};

TEST_P(MemMonotonic, LatencyMonotoneAndBandwidthBounded) {
  const double open_demand_gbs = GetParam();
  double prev_latency = 0.0;
  for (int cores = 0; cores <= 15; cores += 3) {
    sim::Simulator sim;
    mem::MemorySystem mem(sim, mem::DramParams{}, Rng(7));
    mem::StreamAntagonist ant(mem, mem::AntagonistParams{}, cores);
    const auto open = mem.add_open(mem::MemClass::kCpuCopy, 1.0);
    mem.set_demand(open, BitRate::gigabytes_per_sec(open_demand_gbs));
    sim.run_until(1_ms);
    const double lat = mem.current_latency().ns();
    EXPECT_GE(lat, prev_latency * 0.999) << cores << " cores";
    prev_latency = lat;

    mem.begin_window();
    sim.run_until(2_ms);
    EXPECT_LE(mem.window_report().total_gbytes_per_sec,
              mem.params().achievable_bw().gigabytes_per_sec() * 1.02);
  }
}

INSTANTIATE_TEST_SUITE_P(OpenDemand, MemMonotonic,
                         ::testing::Values(0.0, 5.0, 12.0, 30.0));

// ===================================================================
// IOMMU: miss rate is monotone in working-set size for both leaf
// sizes, and never negative/above the per-access bound.
// ===================================================================

class IommuWorkingSet : public ::testing::TestWithParam<iommu::PageSize> {};

TEST_P(IommuWorkingSet, MissRateMonotoneInWorkingSet) {
  const iommu::PageSize page = GetParam();
  double prev = -1.0;
  for (const int pages : {32, 96, 160, 320, 640}) {
    sim::Simulator sim;
    mem::MemorySystem mem(sim, mem::DramParams{}, Rng(3));
    iommu::Iommu mmu(sim, mem, iommu::IommuParams{}, Rng(0x10771b));
    const auto psize = iommu::page_bytes(page).count();
    const auto rid = mmu.map_region(Bytes(pages * psize), page);
    const auto& region = mmu.region(rid);
    Rng rng(11);
    auto run_accesses = [&](int n) {
      for (int i = 0; i < n; ++i) {
        const auto p = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(pages)));
        if (!mmu.try_translate(region.page_iova(p)).has_value()) {
          mmu.translate_slow(region.page_iova(p), nullptr);
          sim.run_until(sim.now() + 5_us);
        }
      }
    };
    run_accesses(2000);  // warm
    const auto misses0 = mmu.stats().misses;
    run_accesses(2000);
    const double rate = static_cast<double>(mmu.stats().misses - misses0) / 2000.0;
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
    EXPECT_GE(rate, prev - 0.02) << pages << " pages";
    prev = rate;
  }
}

INSTANTIATE_TEST_SUITE_P(PageSizes, IommuWorkingSet,
                         ::testing::Values(iommu::PageSize::k4K, iommu::PageSize::k2M),
                         [](const auto& param_info) {
                           return param_info.param == iommu::PageSize::k4K ? "small4K" : "huge2M";
                         });

// ===================================================================
// QueuedLink: conservation + FIFO across rates and queue capacities.
// ===================================================================

class LinkProperty
    : public ::testing::TestWithParam<std::tuple<double /*gbps*/, int /*cap_kb*/>> {};

TEST_P(LinkProperty, ConservesAndOrdersPackets) {
  const auto [gbps, cap_kb] = GetParam();
  sim::Simulator sim;
  std::vector<std::int64_t> delivered;
  net::QueuedLink link(sim, BitRate::gbps(gbps), 1_us, Bytes(cap_kb * 1024),
                       [&](net::Packet p) { delivered.push_back(p.seq); });
  Rng rng(5);
  int sent = 0;
  std::int64_t dropped_before = 0;
  for (int i = 0; i < 500; ++i) {
    net::Packet p;
    p.seq = i;
    p.wire = Bytes(static_cast<std::int64_t>(rng.range(64, 4452)));
    sim.run_until(sim.now() + TimePs::from_ns(rng.uniform(0.0, 400.0)));
    sent += link.send(std::move(p)) ? 1 : 0;
  }
  dropped_before = link.drops();
  sim.run_until(sim.now() + TimePs::from_ms(10));
  EXPECT_EQ(delivered.size(), static_cast<std::size_t>(sent));
  EXPECT_EQ(sent + dropped_before, 500);
  EXPECT_TRUE(std::is_sorted(delivered.begin(), delivered.end()));
  EXPECT_EQ(link.queued().count(), 0);
}

INSTANTIATE_TEST_SUITE_P(RatesAndCaps, LinkProperty,
                         ::testing::Combine(::testing::Values(10.0, 100.0),
                                            ::testing::Values(16, 256, 4096)));

// ===================================================================
// Swift: window stays in [min, max] for arbitrary signal streams.
// ===================================================================

class SwiftFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SwiftFuzz, WindowStaysInBoundsUnderRandomSignals) {
  sim::Simulator sim;
  const transport::SwiftParams params;
  transport::SwiftCc cc(sim, params, /*react_to_host_signal=*/true);
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97);
  for (int i = 0; i < 5000; ++i) {
    sim.run_until(sim.now() + TimePs::from_us(rng.uniform(1.0, 50.0)));
    switch (rng.below(3)) {
      case 0: {
        const auto rtt = TimePs::from_us(rng.uniform(10.0, 500.0));
        const auto host = TimePs::from_us(rng.uniform(0.0, rtt.us()));
        cc.on_ack(transport::AckInfo{rtt, host});
        break;
      }
      case 1:
        cc.on_loss();
        break;
      default:
        cc.on_host_signal();
        break;
    }
    ASSERT_GE(cc.cwnd(), params.min_cwnd);
    ASSERT_LE(cc.cwnd(), params.max_cwnd);
    ASSERT_GE(cc.fabric_cwnd(), params.min_cwnd);
    ASSERT_GE(cc.host_cwnd(), params.min_cwnd);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwiftFuzz, ::testing::Range(1, 7));

// ===================================================================
// PCIe parameter math across generations and widths.
// ===================================================================

class PcieGen : public ::testing::TestWithParam<std::tuple<double, int, double>> {};

TEST_P(PcieGen, RateMathConsistent) {
  const auto [gts, lanes, expected_raw_gbps] = GetParam();
  pcie::PcieParams p;
  p.gigatransfers_per_lane = gts;
  p.lanes = lanes;
  EXPECT_NEAR(p.raw_rate().gbps(), expected_raw_gbps, 1e-9);
  // Effective goodput is always positive and below raw.
  EXPECT_GT(p.effective_goodput().gbps(), 0.0);
  EXPECT_LT(p.effective_goodput().gbps(), p.raw_rate().gbps());
  // Larger payloads -> better efficiency.
  pcie::PcieParams big = p;
  big.max_payload = Bytes(512);
  EXPECT_GT(big.effective_goodput().gbps(), p.effective_goodput().gbps());
}

INSTANTIATE_TEST_SUITE_P(Generations, PcieGen,
                         ::testing::Values(std::tuple{8.0, 16, 128.0},    // gen3 x16
                                           std::tuple{16.0, 16, 256.0},   // gen4 x16
                                           std::tuple{32.0, 16, 512.0},   // gen5 x16
                                           std::tuple{8.0, 8, 64.0}));    // gen3 x8

// ===================================================================
// Histogram: percentiles bracket the true quantiles for random data.
// ===================================================================

class HistogramFuzz : public ::testing::TestWithParam<int> {};

TEST_P(HistogramFuzz, PercentilesWithinBucketError) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  LogHistogram h;
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.exponential(100.0) + rng.uniform(0.0, 50.0);
    values.push_back(v);
    h.add(v);
  }
  std::sort(values.begin(), values.end());
  for (const double p : {10.0, 50.0, 90.0, 99.0}) {
    const double exact = values[static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(values.size() - 1))];
    EXPECT_NEAR(h.percentile(p), exact, exact * 0.06 + 1.0) << "p" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramFuzz, ::testing::Range(1, 5));

}  // namespace
}  // namespace hicc
