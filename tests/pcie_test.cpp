// Tests for the PCIe link + root complex: rate math, credit flow
// control and conservation, ordered-pipeline translation stalls, write
// buffer backpressure under memory contention, the read path, burst
// completion, the lazily settled occupancy counters, and translations
// chained in place of their events.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "iommu/iommu.h"
#include "mem/memory_system.h"
#include "mem/stream_antagonist.h"
#include "pcie/pcie_bus.h"
#include "sim/simulator.h"

namespace hicc::pcie {
namespace {

using namespace hicc::literals;

TEST(PcieParams, RawAndEffectiveRates) {
  const PcieParams p;
  EXPECT_NEAR(p.raw_rate().gbps(), 128.0, 1e-9);
  // Paper: ~110 Gbps achievable goodput for PCIe 3.0 x16 with 256B TLPs.
  EXPECT_NEAR(p.effective_goodput().gbps(), 110.0, 2.0);
}

TEST(PcieParams, WireBytes) {
  const PcieParams p;
  EXPECT_EQ(p.tlp_wire_bytes(256_B).count(), 286);
}

struct Harness {
  explicit Harness(bool iommu_on = false, int antagonist_cores = 0) {
    iommu::IommuParams ip;
    ip.enabled = iommu_on;
    iommu.emplace(sim, mem, ip, Rng(0x10771b));
    bus.emplace(sim, mem, *iommu, PcieParams{});
    if (antagonist_cores > 0) {
      ant.emplace(mem, mem::AntagonistParams{}, antagonist_cores);
    }
  }
  sim::Simulator sim;
  mem::MemorySystem mem{sim, mem::DramParams{}, Rng(7)};
  std::optional<iommu::Iommu> iommu;
  std::optional<PcieBus> bus;
  std::optional<mem::StreamAntagonist> ant;
};

TEST(PcieBus, SingleWriteRetiresWithPlausibleLatency) {
  Harness h;
  TimePs retired{};
  h.bus->send_write_tlp(0, 256_B, [&] { retired = h.sim.now(); });
  h.sim.run_until(10_us);
  // Serialization (~21ns) + link latency (50ns) + proc (3ns) + memory
  // write (~93ns): roughly 150-250ns.
  EXPECT_GT(retired.ns(), 100.0);
  EXPECT_LT(retired.ns(), 400.0);
  EXPECT_EQ(h.bus->stats().write_tlps, 1);
  EXPECT_EQ(h.bus->stats().bytes_written, 256);
}

TEST(PcieBus, CreditsConservedAfterDrain) {
  Harness h;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(h.bus->can_send_write(256_B));
    h.bus->send_write_tlp(0, 256_B, nullptr);
  }
  EXPECT_LT(h.bus->credits_free(), PcieParams{}.credit_bytes);
  h.sim.run_until(100_us);
  EXPECT_EQ(h.bus->credits_free(), PcieParams{}.credit_bytes);
  EXPECT_EQ(h.bus->write_buffer_used().count(), 0);
  EXPECT_EQ(h.bus->rc_queue_depth(), 0u);
}

TEST(PcieBus, CanSendGoesFalseWhenCreditsExhausted) {
  Harness h;
  int sent = 0;
  while (h.bus->can_send_write(256_B) && sent < 1000) {
    h.bus->send_write_tlp(0, 256_B, nullptr);
    ++sent;
  }
  // 16KB credits / 286B wire per TLP = 57 TLPs.
  EXPECT_EQ(sent, 57);
  EXPECT_FALSE(h.bus->can_send_write(256_B));
  h.sim.run_until(1_ms);
  EXPECT_TRUE(h.bus->can_send_write(256_B));
}

/// Drives the bus as fast as credits allow for `duration`; returns
/// achieved payload goodput in Gbps. Uses `page_stride` distinct 2M
/// pages round-robin when the harness IOMMU is enabled.
double run_saturated(Harness& h, TimePs duration, int pages = 1) {
  iommu::RegionId rid{};
  if (h.iommu->enabled()) {
    rid = h.iommu->map_region(Bytes::mib(2.0 * pages), iommu::PageSize::k2M);
  } else {
    rid = h.iommu->map_region(Bytes::mib(2.0 * pages), iommu::PageSize::k2M);
  }
  const auto& region = h.iommu->region(rid);
  std::int64_t page = 0;
  std::int64_t retired_bytes = 0;
  auto pump = [&] {
    while (h.bus->can_send_write(256_B)) {
      const iommu::Iova iova = region.page_iova(page % pages);
      ++page;
      h.bus->send_write_tlp(iova, 256_B, [&] { retired_bytes += 256; });
    }
  };
  h.bus->on_credits_available(pump);
  pump();
  h.sim.run_until(h.sim.now() + duration);
  // Exclude warmup: measure second half.
  const std::int64_t first_half = retired_bytes;
  retired_bytes = 0;
  h.sim.run_until(h.sim.now() + duration);
  (void)first_half;
  return static_cast<double>(retired_bytes) * 8.0 / duration.sec() * 1e-9;
}

TEST(PcieBus, SaturatedGoodputNearEffectiveRate) {
  Harness h(/*iommu_on=*/false);
  const double gbps = run_saturated(h, 200_us);
  EXPECT_GT(gbps, 100.0);
  EXPECT_LE(gbps, 112.0);
}

TEST(PcieBus, IommuOnWithSmallWorkingSetStillFast) {
  Harness h(/*iommu_on=*/true);
  const double gbps = run_saturated(h, 200_us, /*pages=*/4);
  EXPECT_GT(gbps, 98.0);  // IOTLB hits: only a few ns per TLP
}

TEST(PcieBus, IotlbThrashingReducesGoodput) {
  Harness hit(/*iommu_on=*/true);
  Harness miss(/*iommu_on=*/true);
  const double fast = run_saturated(hit, 200_us, /*pages=*/4);
  // 512 pages round-robin through a 128-entry IOTLB: every page access
  // misses, each miss stalls the ordered pipeline for a walk.
  const double slow = run_saturated(miss, 200_us, /*pages=*/512);
  EXPECT_LT(slow, fast * 0.85);
  EXPECT_GT(miss.bus->stats().translation_stalls, 0);
}

TEST(PcieBus, MemoryAntagonismReducesGoodput) {
  Harness calm(/*iommu_on=*/false, /*antagonist_cores=*/0);
  Harness noisy(/*iommu_on=*/false, /*antagonist_cores=*/15);
  noisy.sim.run_until(100_us);  // let the antagonist ramp
  const double calm_gbps = run_saturated(calm, 200_us);
  const double noisy_gbps = run_saturated(noisy, 200_us);
  EXPECT_LT(noisy_gbps, calm_gbps * 0.92);
  EXPECT_GT(noisy.bus->stats().write_buffer_stalls, 0);
}

TEST(PcieBus, ReadCompletes) {
  Harness h;
  TimePs done{};
  h.bus->send_read(0, 64_B, [&] { done = h.sim.now(); });
  h.sim.run_until(10_us);
  // Request serialization + 2x link latency + memory read.
  EXPECT_GT(done.ns(), 150.0);
  EXPECT_LT(done.ns(), 500.0);
  EXPECT_EQ(h.bus->stats().read_tlps, 1);
  EXPECT_EQ(h.bus->stats().bytes_read, 64);
}

TEST(PcieBus, ReadsDoNotConsumePostedCredits) {
  Harness h;
  for (int i = 0; i < 100; ++i) h.bus->send_read(0, 64_B, nullptr);
  EXPECT_EQ(h.bus->credits_free(), PcieParams{}.credit_bytes);
}

TEST(PcieBus, ReadBehindWriteIsOrdered) {
  // A read queued behind a posted write must not complete before the
  // write has at least been translated & committed (PCIe ordering).
  Harness h;
  std::vector<int> order;
  h.bus->send_write_tlp(0, 256_B, [&] { order.push_back(0); });
  h.bus->send_read(0, 64_B, [&] { order.push_back(1); });
  h.sim.run_until(10_us);
  ASSERT_EQ(order.size(), 2u);
  // Both completed; the write was processed first by the RC pipeline.
  // (Retirement order can vary with memory jitter, but the read's
  // completion includes the upstream hop, so the write retires first
  // in practice with equal payload sizes.)
  EXPECT_EQ(h.bus->stats().write_tlps, 1);
}

TEST(PcieBus, DdioHitsSkipMemoryBus) {
  // With a tiny IO working set every DMA write is absorbed by the LLC:
  // retirement is fast and the memory bus sees no NIC traffic.
  sim::Simulator sim;
  mem::MemorySystem memsys(sim, mem::DramParams{}, Rng(7));
  iommu::IommuParams ip;
  ip.enabled = false;
  iommu::Iommu mmu(sim, memsys, ip, Rng(0x10771b));
  mem::DdioModel ddio(mem::DdioParams{}, Rng(9));
  ddio.set_io_working_set(Bytes::mib(1));  // fits the IO ways
  PcieBus bus(sim, memsys, mmu, PcieParams{}, &ddio);

  memsys.begin_window();
  for (int i = 0; i < 50; ++i) bus.send_write_tlp(0, 256_B, nullptr);
  sim.run_until(1_ms);
  EXPECT_EQ(bus.stats().ddio_write_hits, 50);
  const auto rep = memsys.window_report();
  EXPECT_NEAR(rep.by_class_gbytes_per_sec[static_cast<int>(mem::MemClass::kNicDma)],
              0.0, 1e-9);
}

TEST(PcieBus, DdioLeaksWithLargeWorkingSet) {
  sim::Simulator sim;
  mem::MemorySystem memsys(sim, mem::DramParams{}, Rng(7));
  iommu::IommuParams ip;
  ip.enabled = false;
  iommu::Iommu mmu(sim, memsys, ip, Rng(0x10771b));
  mem::DdioModel ddio(mem::DdioParams{}, Rng(9));
  ddio.set_io_working_set(Bytes::mib(144));  // the paper's scale
  PcieBus bus(sim, memsys, mmu, PcieParams{}, &ddio);

  for (int i = 0; i < 200; ++i) {
    while (!bus.can_send_write(256_B)) sim.run_one();
    bus.send_write_tlp(0, 256_B, nullptr);
  }
  sim.run_until(1_ms);
  // Nearly everything goes to DRAM (hit fraction ~4%).
  EXPECT_LT(bus.stats().ddio_write_hits, 30);
}

TEST(PcieBus, PreTranslatedTlpSkipsIommu) {
  Harness h(/*iommu_on=*/true);
  const auto rid = h.iommu->map_region(Bytes::mib(4), iommu::PageSize::k2M);
  const iommu::Iova addr = h.iommu->region(rid).base;
  TimePs done{};
  h.bus->send_write_tlp(addr, 256_B, [&] { done = h.sim.now(); },
                        /*pre_translated=*/true);
  h.sim.run_until(100_us);
  // No IOMMU lookup happened at all, and no walk stalled the pipe.
  EXPECT_EQ(h.iommu->stats().lookups, 0);
  EXPECT_EQ(h.bus->stats().translation_stalls, 0);
  EXPECT_GT(done.ns(), 0.0);
  EXPECT_LT(done.ns(), 400.0);
}

TEST(PcieBus, WalkStallBlocksSubsequentTlps) {
  Harness h(/*iommu_on=*/true);
  const auto rid = h.iommu->map_region(Bytes::mib(4), iommu::PageSize::k2M);
  const auto& r = h.iommu->region(rid);
  TimePs first{}, second{};
  h.bus->send_write_tlp(r.page_iova(0), 256_B, [&] { first = h.sim.now(); });
  h.bus->send_write_tlp(r.page_iova(0), 256_B, [&] { second = h.sim.now(); });
  h.sim.run_until(100_us);
  // First TLP walks (3 memory reads ~300ns); the second hits the IOTLB
  // entry installed by the walk.
  EXPECT_GT(first.ns(), 350.0);
  EXPECT_GE(second, first - TimePs::from_ns(50));
  EXPECT_EQ(h.iommu->stats().misses, 1);
  EXPECT_GE(h.iommu->stats().hits, 1);
}

// A burst's one completion fires at the latest (time, seq) among its
// TLPs' retirements. Twin buses with equal seeds draw the same DDIO
// hits and memory latencies; about half the writes hit the LLC and
// retire early, so retire order is not commit order, and for some
// seeds the burst's last TLP is not the last to retire.
TEST(PcieBus, BurstCompletesAtItsLatestRetirement) {
  struct Twin {
    explicit Twin(std::uint64_t ddio_seed) : ddio(mem::DdioParams{}, Rng(ddio_seed)) {
      ddio.set_io_working_set(ddio.capacity() * 2);  // ~half the writes hit
      bus.emplace(sim, mem, mmu, PcieParams{}, &ddio);
    }
    sim::Simulator sim;
    mem::MemorySystem mem{sim, mem::DramParams{}, Rng(7)};
    iommu::Iommu mmu{sim, mem, iommu::IommuParams{.enabled = false}, Rng(0x10771b)};
    mem::DdioModel ddio;
    std::optional<PcieBus> bus;
  };
  constexpr int kTlps = 16;
  int last_not_latest = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Twin singles(seed);
    Twin burst(seed);
    std::vector<TimePs> retired(kTlps);  // by commit order
    for (int i = 0; i < kTlps; ++i) {
      singles.bus->send_write_tlp(
          0, 256_B, [&, i] { retired[static_cast<std::size_t>(i)] = singles.sim.now(); });
    }
    int fired = 0;
    TimePs completed{};
    for (int i = 0; i < kTlps; ++i) {
      PcieBus::CompletionFn done;
      if (i == kTlps - 1) {
        done = [&] {
          ++fired;
          completed = burst.sim.now();
        };
      }
      burst.bus->send_burst_tlp(0, 256_B, std::move(done));
    }
    singles.sim.run_until(100_us);
    burst.sim.run_until(100_us);

    EXPECT_GT(burst.bus->stats().ddio_write_hits, 2);
    EXPECT_LT(burst.bus->stats().ddio_write_hits, kTlps - 2);
    EXPECT_EQ(burst.bus->stats().ddio_write_hits, singles.bus->stats().ddio_write_hits);
    // An LLC hit retires before DRAM writes committed ahead of it.
    EXPECT_FALSE(std::is_sorted(retired.begin(), retired.end()));
    const TimePs latest = *std::max_element(retired.begin(), retired.end());
    if (retired.back() < latest) ++last_not_latest;
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(completed, latest);
    // Only the completion and the arrivals at an idle RC are events;
    // every other retirement stays a reserved slot.
    EXPECT_LT(burst.sim.executed(), singles.sim.executed());
  }
  EXPECT_GT(last_not_latest, 0);
}

// The occupancy counters are settled lazily from reserved slots. A
// saturated run with both stall kinds, sampled by a periodic task every
// 50ns, must match the ledgers kept from the outside -- and a twin that
// sends the same TLPs as 16-TLP bursts, whose retirements are mostly
// counter-only slots, must sample the very same values.
TEST(PcieBus, LazyCountersMatchLedgers) {
  struct Sample {
    std::int64_t wb, credits;
    std::size_t rc_depth;
    bool operator==(const Sample&) const = default;
  };
  struct Run {
    std::vector<Sample> samples;
    std::int64_t mismatches = 0;
    std::int64_t sent = 0;
    std::int64_t retired_bytes = 0;
    std::uint64_t events = 0;
    PcieStats stats;
  };
  constexpr int kBurst = 16;
  auto run = [](bool bursts) {
    Harness h(/*iommu_on=*/true, /*antagonist_cores=*/15);
    h.sim.run_until(100_us);  // let the antagonist ramp
    const PcieParams params;
    // Four hot pages, and every 16th TLP on one of 512 cold pages that
    // cycle past the IOTLB: walks stall the RC, and the fast stretches
    // between them fill the write buffer of the contended memory.
    constexpr int kCold = 512;
    const auto rid = h.iommu->map_region(Bytes::mib(2.0 * (4 + kCold)), iommu::PageSize::k2M);
    const auto& region = h.iommu->region(rid);
    Run r;
    bool sending = true;
    auto pump = [&] {
      while ((sending || r.sent % kBurst != 0) && h.bus->can_send_write(256_B)) {
        const std::int64_t page = r.sent % 16 == 0 ? 4 + (r.sent / 16) % kCold : r.sent % 4;
        const iommu::Iova iova = region.page_iova(page);
        ++r.sent;
        if (!bursts) {
          h.bus->send_write_tlp(iova, 256_B, [&r] { r.retired_bytes += 256; });
        } else if (r.sent % kBurst != 0) {
          h.bus->send_burst_tlp(iova, 256_B, nullptr);
        } else {
          h.bus->send_burst_tlp(iova, 256_B, [&r] { r.retired_bytes += 256 * kBurst; });
        }
      }
    };
    h.bus->on_credits_available(pump);
    pump();
    sim::PeriodicTask sampler(h.sim, TimePs::from_ns(50), [&] {
      const Sample now{h.bus->write_buffer_used().count(), h.bus->credits_in_use().count(),
                       h.bus->rc_queue_depth()};
      r.samples.push_back(now);
      const std::int64_t committed_bytes = h.bus->stats().bytes_written;
      const std::int64_t in_rc = r.sent - committed_bytes / 256;
      if (now.wb < 0 || now.wb > params.write_buffer_bytes.count()) ++r.mismatches;
      if (now.credits != in_rc * params.tlp_wire_bytes(256_B).count()) ++r.mismatches;
      if (now.rc_depth > static_cast<std::size_t>(in_rc)) ++r.mismatches;
      if (!bursts && now.wb != committed_bytes - r.retired_bytes) ++r.mismatches;
    });
    h.sim.run_until(h.sim.now() + 200_us);
    sending = false;
    h.sim.run_until(h.sim.now() + 100_us);
    r.samples.push_back({h.bus->write_buffer_used().count(), h.bus->credits_in_use().count(),
                         h.bus->rc_queue_depth()});
    r.events = h.sim.executed();
    r.stats = h.bus->stats();
    return r;
  };
  const Run ledger = run(/*bursts=*/false);
  const Run lazy = run(/*bursts=*/true);

  EXPECT_GT(ledger.samples.size(), 5'000u);
  EXPECT_EQ(ledger.mismatches, 0);
  EXPECT_EQ(lazy.mismatches, 0);
  EXPECT_GT(ledger.stats.translation_stalls, 0);
  EXPECT_GT(ledger.stats.write_buffer_stalls, 0);
  EXPECT_EQ(ledger.retired_bytes, ledger.stats.bytes_written);
  EXPECT_EQ(ledger.samples.back(), (Sample{0, 0, 0}));  // drained

  EXPECT_EQ(lazy.sent, ledger.sent);
  EXPECT_EQ(lazy.retired_bytes, ledger.retired_bytes);
  EXPECT_EQ(lazy.stats.write_buffer_stalls, ledger.stats.write_buffer_stalls);
  EXPECT_EQ(lazy.stats.translation_stalls, ledger.stats.translation_stalls);
  EXPECT_TRUE(lazy.samples == ledger.samples);
  EXPECT_LT(lazy.events, ledger.events);
}
// Translations the engine would run next run in place of their events
// (tail dispatch). IOTLB hits, page walks, ATS TLPs, reads and write
// buffer stalls are driven by run_until() -- in one call, and in 37 ns
// slices whose ends stop chains -- and by run_one(), under which
// nothing chains. Every completion fires once, in the same order and at
// the same time under all three, and the root complex drains.
TEST(PcieBus, TailDispatchCompletesEveryTlpInOrder) {
  struct Done {
    int tlp;
    std::int64_t at;
    bool operator==(const Done&) const = default;
  };
  struct Run {
    std::vector<Done> log;
    PcieStats stats;
    std::size_t rc_depth = 0;
    Bytes credits_free{};
  };
  enum class Drive { kRunOne, kRunUntil, kSlices };
  constexpr int kTlps = 3000;
  const TimePs end = 400_us;
  auto run = [&](Drive drive) {
    Harness h(/*iommu_on=*/true, /*antagonist_cores=*/15);
    // Four hot pages, and every 32nd TLP on one of 64 cold pages that
    // cycle past the IOTLB.
    const auto rid = h.iommu->map_region(Bytes::mib(2.0 * (4 + 64)), iommu::PageSize::k2M);
    const auto& region = h.iommu->region(rid);
    Run r;
    int sent = 0;
    auto pump = [&] {
      while (sent < kTlps && h.bus->can_send_write(256_B)) {
        const int tlp = sent++;
        const std::int64_t page = tlp % 32 == 0 ? 4 + (tlp / 32) % 64 : tlp % 4;
        const iommu::Iova iova = region.page_iova(page);
        PcieBus::CompletionFn done = [&r, &h, tlp] { r.log.push_back({tlp, h.sim.now().ps()}); };
        if (tlp % 7 == 3) {
          h.bus->send_read(iova, 64_B, std::move(done));
        } else {
          h.bus->send_write_tlp(iova, 256_B, std::move(done), /*pre_translated=*/tlp % 5 == 1);
        }
      }
    };
    h.bus->on_credits_available(pump);
    pump();
    if (drive == Drive::kRunOne) {
      while (h.sim.now() < end) {
        if (!h.sim.run_one()) break;
      }
    } else {
      if (drive == Drive::kSlices) {
        for (TimePs t = h.sim.now(); t < end; t += 37_ns) h.sim.run_until(t);
      }
      h.sim.run_until(end);
    }
    r.stats = h.bus->stats();
    r.rc_depth = h.bus->rc_queue_depth();
    r.credits_free = h.bus->credits_free();
    return r;
  };
  const Run one = run(Drive::kRunOne);
  const Run whole = run(Drive::kRunUntil);
  const Run sliced = run(Drive::kSlices);

  ASSERT_EQ(whole.log.size(), static_cast<std::size_t>(kTlps));
  std::vector<int> fired(kTlps, 0);
  for (const Done& d : whole.log) ++fired[static_cast<std::size_t>(d.tlp)];
  EXPECT_EQ(std::count(fired.begin(), fired.end(), 1), kTlps);
  EXPECT_LT(whole.log.back().at, end.ps());
  EXPECT_EQ(whole.rc_depth, 0u);
  EXPECT_EQ(whole.credits_free, PcieParams{}.credit_bytes);
  EXPECT_GT(whole.stats.translation_stalls, 0);
  EXPECT_GT(whole.stats.write_buffer_stalls, 0);
  EXPECT_GT(whole.stats.read_tlps, 0);
  EXPECT_TRUE(whole.log == one.log);
  EXPECT_TRUE(whole.log == sliced.log);
  EXPECT_EQ(sliced.rc_depth, 0u);
  EXPECT_EQ(whole.stats.translation_stalls, one.stats.translation_stalls);
  EXPECT_EQ(whole.stats.write_buffer_stalls, one.stats.write_buffer_stalls);
  EXPECT_EQ(whole.stats.translation_stalls, sliced.stats.translation_stalls);
  EXPECT_EQ(whole.stats.write_buffer_stalls, sliced.stats.write_buffer_stalls);
}

}  // namespace
}  // namespace hicc::pcie
