// Tests for the IOMMU: LRU cache behaviour, page-table geometry,
// translation fast/slow paths, page-walk cost accounting, walker-pool
// limits, invalidation, and the working-set -> miss-rate property that
// drives Figures 3-5.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "iommu/iommu.h"
#include "iommu/lru_cache.h"
#include "iommu/page_table.h"
#include "mem/memory_system.h"
#include "sim/simulator.h"

namespace hicc::iommu {
namespace {

using namespace hicc::literals;

// ------------------------------------------------------------ LruCache

TEST(LruCache, HitAfterInsert) {
  LruCache<int> c(1, 4);
  c.insert(7);
  EXPECT_TRUE(c.lookup(7));
  EXPECT_FALSE(c.lookup(8));
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache<int> c(1, 2);
  c.insert(1);
  c.insert(2);
  EXPECT_TRUE(c.lookup(1));  // 2 becomes LRU
  EXPECT_TRUE(c.insert(3));  // evicts 2
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
  EXPECT_TRUE(c.contains(3));
}

TEST(LruCache, InsertExistingRefreshes) {
  LruCache<int> c(1, 2);
  c.insert(1);
  c.insert(2);
  EXPECT_FALSE(c.insert(1));  // refresh, no eviction
  c.insert(3);                // evicts 2 (LRU), not 1
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
}

TEST(LruCache, InvalidateRemoves) {
  LruCache<int> c(1, 4);
  c.insert(5);
  EXPECT_TRUE(c.invalidate(5));
  EXPECT_FALSE(c.invalidate(5));
  EXPECT_FALSE(c.contains(5));
}

TEST(LruCache, ClearEmptiesAll) {
  LruCache<int> c(2, 2);
  for (int i = 0; i < 4; ++i) c.insert(i);
  EXPECT_GT(c.size(), 0);
  c.clear();
  EXPECT_EQ(c.size(), 0);
}

TEST(LruCache, CapacityRespected) {
  LruCache<std::uint64_t> c(1, 128);
  for (std::uint64_t i = 0; i < 1000; ++i) c.insert(i);
  EXPECT_EQ(c.size(), 128);
  EXPECT_EQ(c.capacity(), 128);
}

TEST(LruCache, FullyAssociativeLruExactness) {
  // With capacity K and a cyclic access pattern over K+1 keys, LRU
  // misses every access (the classic LRU pathological case).
  LruCache<int> c(1, 4);
  int misses = 0;
  for (int i = 0; i < 50; ++i) {
    const int key = i % 5;
    if (!c.lookup(key)) {
      ++misses;
      c.insert(key);
    }
  }
  EXPECT_EQ(misses, 50);
}

// --------------------------------------------------------- page table

TEST(PageTable, GeometryConstants) {
  EXPECT_EQ(page_bytes(PageSize::k4K).count(), 4096);
  EXPECT_EQ(page_bytes(PageSize::k2M).count(), 2 * 1024 * 1024);
  EXPECT_EQ(walk_levels(PageSize::k4K), 4);
  EXPECT_EQ(walk_levels(PageSize::k2M), 3);
  EXPECT_EQ(level_shift(1), 12);
  EXPECT_EQ(level_shift(2), 21);
  EXPECT_EQ(level_shift(4), 39);
}

TEST(PageTable, RegionPageCountRoundsUp) {
  IoPageTable t;
  const auto id = t.map_region(Bytes::mib(12), PageSize::k2M);
  EXPECT_EQ(t.region(id).num_pages(), 6);
  const auto id2 = t.map_region(Bytes(4097), PageSize::k4K);
  EXPECT_EQ(t.region(id2).num_pages(), 2);
}

TEST(PageTable, RegionsDoNotOverlapAndAreAligned) {
  IoPageTable t;
  const auto a = t.map_region(Bytes::mib(12), PageSize::k2M);
  const auto b = t.map_region(Bytes::mib(12), PageSize::k2M);
  const auto& ra = t.region(a);
  const auto& rb = t.region(b);
  EXPECT_GE(rb.base, ra.base + static_cast<Iova>(ra.size.count()));
  EXPECT_EQ(ra.base % (2ull << 20), 0u);
  EXPECT_EQ(rb.base % (2ull << 20), 0u);
}

TEST(PageTable, FindLocatesContainingRegion) {
  IoPageTable t;
  const auto a = t.map_region(Bytes::mib(4), PageSize::k2M);
  const auto& ra = t.region(a);
  EXPECT_NE(t.find(ra.base), nullptr);
  EXPECT_NE(t.find(ra.base + 12345), nullptr);
  EXPECT_EQ(t.find(ra.base + static_cast<Iova>(ra.size.count())), nullptr);
  EXPECT_EQ(t.find(0), nullptr);
}

TEST(PageTable, TotalMappedPagesTracksMapUnmap) {
  IoPageTable t;
  const auto a = t.map_region(Bytes::mib(12), PageSize::k2M);  // 6 pages
  t.map_region(Bytes::mib(12), PageSize::k4K);                 // 3072 pages
  EXPECT_EQ(t.total_mapped_pages(), 6 + 3072);
  t.unmap_region(a);
  EXPECT_EQ(t.total_mapped_pages(), 3072);
}

TEST(PageTable, UnmapTwiceIsANoOp) {
  IoPageTable t;
  const auto a = t.map_region(Bytes::mib(12), PageSize::k2M);  // 6 pages
  t.map_region(Bytes::mib(12), PageSize::k4K);                 // 3072 pages
  t.unmap_region(a);
  t.unmap_region(a);
  EXPECT_EQ(t.total_mapped_pages(), 3072);
  EXPECT_EQ(t.find(t.region(a).base), nullptr);
}

TEST(PageTable, FindMatchesLinearScan) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    IoPageTable t;
    std::vector<RegionId> ids;
    std::vector<bool> mapped;
    const int regions = 1 + static_cast<int>(rng.below(40));
    for (int i = 0; i < regions; ++i) {
      const PageSize ps = rng.chance(0.5) ? PageSize::k4K : PageSize::k2M;
      // Anywhere from empty to three pages, rarely a page multiple.
      const auto max = static_cast<std::uint64_t>(3 * page_bytes(ps).count());
      ids.push_back(t.map_region(Bytes(static_cast<std::int64_t>(rng.below(max + 1))), ps));
      mapped.push_back(true);
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (rng.chance(0.25)) {
        t.unmap_region(ids[i]);
        mapped[i] = false;
      }
    }
    const auto reference = [&](Iova a) -> std::optional<Region> {
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (mapped[i] && t.region(ids[i]).contains(a)) return t.region(ids[i]);
      }
      return std::nullopt;
    };

    // Before the first region, then around every region: its first and
    // last byte, one past it (often an alignment gap), and the padded
    // end the bump allocator moved on from.
    std::vector<Iova> probes = {0, 1, (1ull << 21) - 1};
    Iova top = 0;
    for (const RegionId id : ids) {
      const Region& r = t.region(id);
      const auto end = r.base + static_cast<Iova>(r.size.count());
      const auto padded =
          r.base + static_cast<Iova>(r.num_pages() * page_bytes(r.page_size).count());
      const Iova middle = r.base + static_cast<Iova>(r.size.count() / 2);
      for (const Iova a : {r.base - 1, r.base, middle, end - 1, end, end + 1, padded - 1, padded}) {
        probes.push_back(a);
      }
      top = std::max(top, padded);
    }
    for (int i = 0; i < 2000; ++i) probes.push_back(rng.below(top + (4ull << 20)));

    for (const Iova a : probes) {
      const Region* got = t.find(a);
      const auto want = reference(a);
      ASSERT_EQ(got != nullptr, want.has_value()) << "seed " << seed << " iova " << a;
      if (got) {
        EXPECT_EQ(got->base, want->base);
        EXPECT_EQ(got->size, want->size);
      }
    }
  }
}

// page_base() masks; it must equal rounding down by division.
TEST(PageTable, PageBaseMatchesDivision) {
  Rng rng(0x9a9eba5e);
  for (const PageSize ps : {PageSize::k4K, PageSize::k2M}) {
    const Region r{0, Bytes(0), ps};
    const auto psz = static_cast<Iova>(page_bytes(ps).count());
    EXPECT_EQ(Iova{1} << page_shift(ps), psz);
    for (int i = 0; i < 10000; ++i) {
      const Iova iova = rng();
      ASSERT_EQ(IoPageTable::page_base(r, iova), iova / psz * psz) << iova;
    }
  }
}

TEST(PageTable, PageIovaAndPageBase) {
  IoPageTable t;
  const auto id = t.map_region(Bytes::mib(4), PageSize::k2M);
  const auto& r = t.region(id);
  EXPECT_EQ(r.page_iova(1), r.base + (2ull << 20));
  EXPECT_EQ(IoPageTable::page_base(r, r.base + (2ull << 20) + 77), r.base + (2ull << 20));
}

// --------------------------------------------------------------- IOMMU

struct Harness {
  sim::Simulator sim;
  mem::MemorySystem mem{sim, mem::DramParams{}, Rng(1)};
  IommuParams params{};
  Iommu iommu{sim, mem, params, Rng(0x10771b)};
  explicit Harness(IommuParams p = IommuParams{})
      : params(p), iommu(sim, mem, p, Rng(0x10771b)) {}
};

// A 4-set IOTLB holds 128 consecutive pages: their tags are page
// numbers, so they spread over every set (32 ways each).
TEST(Iommu, SetAssociativeIotlbUsesEverySet) {
  for (const PageSize ps : {PageSize::k2M, PageSize::k4K}) {
    IommuParams p;
    p.iotlb_sets = 4;
    p.iotlb_entries = 128;
    Harness h(p);
    const auto rid = h.iommu.map_region(page_bytes(ps) * 128, ps);
    const Region& r = h.iommu.region(rid);
    for (std::int64_t i = 0; i < 128; ++i) {
      ASSERT_FALSE(h.iommu.try_translate(r.page_iova(i)).has_value());
      h.iommu.translate_slow(r.page_iova(i), [] {});
    }
    h.sim.run_until(1_ms);
    ASSERT_EQ(h.iommu.stats().walks_completed, 128);
    for (std::int64_t i = 0; i < 128; ++i) {
      EXPECT_TRUE(h.iommu.try_translate(r.page_iova(i)).has_value())
          << "page " << i << (ps == PageSize::k2M ? " (2 MiB)" : " (4 KiB)");
    }
    EXPECT_EQ(h.iommu.stats().hits, 128);
  }
}

TEST(Iommu, DisabledTranslatesInstantly) {
  IommuParams p;
  p.enabled = false;
  Harness h(p);
  const auto lat = h.iommu.try_translate(0xdeadbeef);
  ASSERT_TRUE(lat.has_value());
  EXPECT_EQ(*lat, TimePs(0));
  EXPECT_EQ(h.iommu.stats().lookups, 0);
}

TEST(Iommu, FirstAccessMissesThenHits) {
  Harness h;
  const auto rid = h.iommu.map_region(Bytes::mib(4), PageSize::k2M);
  const Iova addr = h.iommu.region(rid).base;

  EXPECT_FALSE(h.iommu.try_translate(addr).has_value());  // cold miss
  bool done = false;
  h.iommu.translate_slow(addr, [&] { done = true; });
  h.sim.run_until(100_us);
  EXPECT_TRUE(done);
  EXPECT_EQ(h.iommu.stats().walks_completed, 1);

  const auto lat = h.iommu.try_translate(addr);  // now cached
  ASSERT_TRUE(lat.has_value());
  EXPECT_EQ(*lat, h.params.hit_latency);
  EXPECT_EQ(h.iommu.stats().hits, 1);
  EXPECT_EQ(h.iommu.stats().misses, 1);
}

TEST(Iommu, WalkTakesHundredsOfNanoseconds) {
  IommuParams p;
  p.pt_cache_hit_fraction = 0.0;  // force every PTE read to DRAM
  Harness h(p);
  const auto rid = h.iommu.map_region(Bytes::mib(4), PageSize::k2M);
  const Iova addr = h.iommu.region(rid).base;
  ASSERT_FALSE(h.iommu.try_translate(addr).has_value());
  TimePs completed{};
  h.iommu.translate_slow(addr, [&] { completed = h.sim.now(); });
  h.sim.run_until(100_us);
  // Cold walk for a 2M leaf: 3 dependent reads at ~90ns idle latency.
  EXPECT_GT(completed.ns(), 200.0);
  EXPECT_LT(completed.ns(), 1000.0);
  EXPECT_EQ(h.iommu.stats().walk_memory_reads, 3);
}

TEST(Iommu, PwcReducesWalkCostForNeighboringPages) {
  Harness h;
  const auto rid = h.iommu.map_region(Bytes::mib(12), PageSize::k2M);
  const auto& r = h.iommu.region(rid);
  // Walk page 0: reads L4+L3+L2 (3 reads). Walk page 1: L4/L3 now in
  // the PWC, so only the leaf L2 read remains.
  h.iommu.translate_slow(r.page_iova(0), nullptr);
  h.sim.run_until(10_us);
  const auto reads_before = h.iommu.stats().walk_memory_reads;
  EXPECT_EQ(reads_before, 3);
  ASSERT_FALSE(h.iommu.try_translate(r.page_iova(1)).has_value());
  h.iommu.translate_slow(r.page_iova(1), nullptr);
  h.sim.run_until(20_us);
  EXPECT_EQ(h.iommu.stats().walk_memory_reads - reads_before, 1);
}

TEST(Iommu, FourKWalkReadsMoreLevels) {
  Harness h;
  const auto rid = h.iommu.map_region(Bytes::mib(4), PageSize::k4K);
  const Iova addr = h.iommu.region(rid).base;
  ASSERT_FALSE(h.iommu.try_translate(addr).has_value());
  h.iommu.translate_slow(addr, nullptr);
  h.sim.run_until(10_us);
  EXPECT_EQ(h.iommu.stats().walk_memory_reads, 4);  // L4,L3,L2,L1
}

TEST(Iommu, WalkerPoolLimitsConcurrency) {
  IommuParams p;
  p.walkers = 1;
  p.pt_cache_hit_fraction = 0.0;
  Harness h(p);
  const auto rid = h.iommu.map_region(Bytes::mib(12), PageSize::k2M);
  const auto& r = h.iommu.region(rid);
  std::vector<TimePs> done_times;
  for (int i = 0; i < 3; ++i) {
    ASSERT_FALSE(h.iommu.try_translate(r.page_iova(i)).has_value());
    h.iommu.translate_slow(r.page_iova(i), [&] { done_times.push_back(h.sim.now()); });
  }
  h.sim.run_until(100_us);
  ASSERT_EQ(done_times.size(), 3u);
  // Serialized: each completion strictly after the previous one by at
  // least one memory access (~80ns).
  EXPECT_GT((done_times[1] - done_times[0]).ns(), 60.0);
  EXPECT_GT((done_times[2] - done_times[1]).ns(), 60.0);
}

TEST(Iommu, UnmapInvalidatesEntries) {
  Harness h;
  const auto rid = h.iommu.map_region(Bytes::mib(4), PageSize::k2M);
  const Iova addr = h.iommu.region(rid).base;
  h.iommu.translate_slow(addr, nullptr);
  h.sim.run_until(10_us);
  ASSERT_TRUE(h.iommu.try_translate(addr).has_value());
  h.iommu.unmap_region(rid);
  EXPECT_EQ(h.iommu.stats().invalidations, 1);
  // The address is no longer mapped: counted as a fault.
  (void)h.iommu.try_translate(addr);
  EXPECT_EQ(h.iommu.stats().faults, 1);
}

TEST(Iommu, FaultOnUnmappedAddress) {
  Harness h;
  const auto lat = h.iommu.try_translate(0x12345);
  ASSERT_TRUE(lat.has_value());
  EXPECT_EQ(h.iommu.stats().faults, 1);
}

TEST(Iommu, InvalidatePageRemovesCachedTranslation) {
  Harness h;
  const auto rid = h.iommu.map_region(Bytes::mib(4), PageSize::k2M);
  const Iova addr = h.iommu.region(rid).base;
  h.iommu.translate_slow(addr, nullptr);
  h.sim.run_until(10_us);
  ASSERT_TRUE(h.iommu.try_translate(addr).has_value());
  EXPECT_TRUE(h.iommu.invalidate_page(addr));
  EXPECT_FALSE(h.iommu.invalidate_page(addr));  // already gone
  EXPECT_FALSE(h.iommu.try_translate(addr).has_value());  // misses again
}

TEST(Iommu, AsyncInvalidationDelaysQueuedWalks) {
  IommuParams p;
  p.walkers = 1;
  p.pt_cache_hit_fraction = 0.0;
  Harness h(p);
  const auto rid = h.iommu.map_region(Bytes::mib(12), PageSize::k2M);
  const auto& r = h.iommu.region(rid);

  // Queue several invalidation commands, then a walk behind them.
  for (int i = 0; i < 4; ++i) h.iommu.invalidate_page_async(r.page_iova(0));
  TimePs walk_done{};
  ASSERT_FALSE(h.iommu.try_translate(r.page_iova(1)).has_value());
  h.iommu.translate_slow(r.page_iova(1), [&] { walk_done = h.sim.now(); });
  h.sim.run_until(100_us);
  // 4 x 250ns invalidation service before the walk even starts.
  EXPECT_GT(walk_done.ns(), 4 * 250.0);
}

// Property: with a working set of W pages accessed uniformly at random,
// the miss rate is ~0 for W <= IOTLB capacity and grows once W exceeds
// it -- the mechanism behind the knee at 8 threads in Figure 3.
TEST(Iommu, MissRateKneeAtIotlbCapacity) {
  auto miss_rate_for = [](int working_set_pages) {
    Harness h;
    const auto rid = h.iommu.map_region(
        Bytes(static_cast<std::int64_t>(working_set_pages) * 2 * 1024 * 1024), PageSize::k2M);
    const auto& r = h.iommu.region(rid);
    Rng rng(42);
    // Warm up.
    auto access = [&](int n) {
      std::int64_t misses0 = h.iommu.stats().misses;
      for (int i = 0; i < n; ++i) {
        const Iova a = r.page_iova(static_cast<std::int64_t>(
            rng.below(static_cast<std::uint64_t>(working_set_pages))));
        if (!h.iommu.try_translate(a).has_value()) {
          bool ok = false;
          h.iommu.translate_slow(a, [&] { ok = true; });
          h.sim.run_until(h.sim.now() + 10_us);
          EXPECT_TRUE(ok);
        }
      }
      return static_cast<double>(h.iommu.stats().misses - misses0) / n;
    };
    (void)access(3000);        // warmup
    return access(3000);       // measure
  };

  EXPECT_LT(miss_rate_for(64), 0.01);    // fits in 128 entries
  EXPECT_LT(miss_rate_for(120), 0.01);   // still fits
  const double over = miss_rate_for(256);
  EXPECT_GT(over, 0.3);                  // 128/256 resident -> ~50% misses
  const double far_over = miss_rate_for(512);
  EXPECT_GT(far_over, over);             // grows with working set
}

}  // namespace
}  // namespace hicc::iommu
