// Tests for the NIC: buffer accounting and tail drops, DMA pipeline
// and delivery, descriptor flow, per-packet IOMMU access pattern
// (payload/descriptor/CQ/ACK), 4K-vs-2M payload translations, the Tx
// path, and the host-signal hook.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/rng.h"
#include "iommu/iommu.h"
#include "mem/memory_system.h"
#include "nic/nic.h"
#include "net/packet.h"
#include "pcie/pcie_bus.h"
#include "sim/simulator.h"

namespace hicc::nic {
namespace {

using namespace hicc::literals;

struct Delivered {
  int thread;
  net::Packet pkt;
  TimePs arrival;
  TimePs at;
};

struct Harness {
  sim::Simulator sim;
  mem::MemorySystem mem{sim, mem::DramParams{}, Rng(1)};
  std::optional<iommu::Iommu> iommu;
  std::optional<pcie::PcieBus> pcie;
  std::optional<Nic> nic;
  std::vector<Delivered> delivered;
  std::vector<net::Packet> transmitted;
  int pressure_signals = 0;
  net::WireFormat wire;

  explicit Harness(bool iommu_on = true, int threads = 2,
                   iommu::PageSize page = iommu::PageSize::k2M,
                   Bytes region = Bytes::mib(12), NicParams np = NicParams{}) {
    iommu::IommuParams ip;
    ip.enabled = iommu_on;
    iommu.emplace(sim, mem, ip, Rng(0x10771b));
    pcie.emplace(sim, mem, *iommu, pcie::PcieParams{});
    nic.emplace(sim, *pcie, *iommu, np, threads, region, page,
                [threads](std::int32_t flow) { return flow % threads; }, Rng(2));
    nic->set_callbacks(Nic::Callbacks{
        .deliver =
            [this](int t, net::Packet p, TimePs arr) {
              delivered.push_back(Delivered{t, std::move(p), arr, sim.now()});
            },
        .transmit =
            [this](net::Packet p) {
              transmitted.push_back(std::move(p));
              return true;
            },
        .buffer_pressure = [this] { ++pressure_signals; },
    });
  }

  net::Packet data(std::int32_t flow, std::int64_t seq) {
    net::Packet p;
    p.kind = net::PacketKind::kData;
    p.flow = flow;
    p.sender = flow;
    p.seq = seq;
    p.payload = wire.mtu_payload;
    p.wire = wire.data_wire();
    return p;
  }
};

TEST(Nic, DeliversPacketToOwningThread) {
  Harness h;
  h.nic->on_arrival(h.data(/*flow=*/1, 0));
  h.sim.run_until(100_us);
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].thread, 1);  // flow 1 % 2 threads
  EXPECT_EQ(h.delivered[0].pkt.seq, 0);
  EXPECT_EQ(h.nic->stats().delivered, 1);
  EXPECT_EQ(h.nic->stats().bytes_delivered, 4096);
}

TEST(Nic, DeliveryLatencyIsMicrosecondScale) {
  Harness h;
  h.nic->on_arrival(h.data(0, 0));
  h.sim.run_until(100_us);
  ASSERT_EQ(h.delivered.size(), 1u);
  const TimePs dma = h.delivered[0].at - h.delivered[0].arrival;
  // 16 TLPs + walks + CQ write: ~1-10us when idle.
  EXPECT_GT(dma.us(), 0.5);
  EXPECT_LT(dma.us(), 20.0);
}

TEST(Nic, BufferFillsAndTailDrops) {
  Harness h;
  // Stop the drain completely: no descriptors.
  NicParams np;
  np.descriptors_per_queue = 0;
  Harness stalled(true, 2, iommu::PageSize::k2M, Bytes::mib(12), np);
  const int to_send = 300;  // 300 * 4452B > 1MB buffer
  for (int i = 0; i < to_send; ++i) stalled.nic->on_arrival(stalled.data(0, i));
  EXPECT_GT(stalled.nic->stats().buffer_drops, 0);
  EXPECT_LE(stalled.nic->buffer_used(), NicParams{}.input_buffer);
  // Conservation: arrivals = drops + buffered.
  const auto& s = stalled.nic->stats();
  EXPECT_EQ(s.arrivals, to_send);
  EXPECT_EQ(s.arrivals - s.buffer_drops,
            stalled.nic->buffer_used().count() / stalled.wire.data_wire().count());
}

TEST(Nic, PostingDescriptorsUnblocksHolStall) {
  NicParams np;
  np.descriptors_per_queue = 0;
  Harness h(true, 2, iommu::PageSize::k2M, Bytes::mib(12), np);
  h.nic->on_arrival(h.data(0, 0));
  h.sim.run_until(100_us);
  EXPECT_TRUE(h.delivered.empty());
  EXPECT_GT(h.nic->stats().hol_descriptor_stalls, 0);
  h.nic->post_descriptors(0, 8);
  h.sim.run_until(200_us);
  EXPECT_EQ(h.delivered.size(), 1u);
}

TEST(Nic, BufferDrainsToZeroAfterBurst) {
  Harness h;
  for (int i = 0; i < 50; ++i) h.nic->on_arrival(h.data(i % 2, i));
  h.sim.run_until(5_ms);
  EXPECT_EQ(h.delivered.size(), 50u);
  EXPECT_EQ(h.nic->buffer_used().count(), 0);
}

TEST(Nic, HugepagePayloadUsesOneTranslationPerPacket) {
  Harness h(true, 1);
  for (int i = 0; i < 20; ++i) h.nic->on_arrival(h.data(0, i));
  h.sim.run_until(5_ms);
  ASSERT_EQ(h.delivered.size(), 20u);
  // Steady state: all pages cached (working set = 6 data pages + 8
  // control pages << 128). Lookups per packet: 16 payload TLPs + 1
  // descriptor read + 1 CQ write = 18.
  const auto& is = h.iommu->stats();
  EXPECT_NEAR(static_cast<double>(is.lookups) / 20.0, 18.0, 2.0);
  // Cold misses only: at most data+control pages.
  EXPECT_LE(is.misses, 6 + 8 + 2);
}

TEST(Nic, FourKPagesDoubleThePayloadTranslations) {
  Harness h(true, 1, iommu::PageSize::k4K, Bytes::mib(1));
  for (int i = 0; i < 200; ++i) h.nic->on_arrival(h.data(0, i));
  h.sim.run_until(20_ms);
  ASSERT_EQ(h.delivered.size(), 200u);
  // 256 data pages + control pages exceed the 128-entry IOTLB: payload
  // translations now miss frequently (close to 2 distinct pages per
  // packet).
  const double misses_per_pkt = static_cast<double>(h.iommu->stats().misses) / 200.0;
  EXPECT_GT(misses_per_pkt, 1.0);
}

TEST(Nic, TxPathFetchesAndTransmits) {
  Harness h;
  net::Packet ack;
  ack.kind = net::PacketKind::kAck;
  ack.flow = 0;
  ack.sender = 0;
  ack.seq = 5;
  ack.wire = h.wire.ack_wire;
  h.nic->send_packet(std::move(ack), 0);
  h.sim.run_until(100_us);
  ASSERT_EQ(h.transmitted.size(), 1u);
  EXPECT_EQ(h.transmitted[0].seq, 5);
  EXPECT_EQ(h.nic->stats().tx_packets, 1);
  EXPECT_GE(h.pcie->stats().read_tlps, 1);
}

TEST(Nic, BufferPressureSignalFires) {
  NicParams np;
  np.descriptors_per_queue = 0;  // nothing drains
  np.signal_threshold = 0.10;
  Harness h(true, 1, iommu::PageSize::k2M, Bytes::mib(12), np);
  for (int i = 0; i < 100; ++i) h.nic->on_arrival(h.data(0, i));
  EXPECT_GT(h.pressure_signals, 0);
}

TEST(Nic, DescriptorFetchesAccounted) {
  Harness h;
  for (int i = 0; i < 10; ++i) h.nic->on_arrival(h.data(0, i));
  h.sim.run_until(5_ms);
  // One prefetch read per consumed descriptor (plus the initial
  // prefetch window).
  EXPECT_GE(h.nic->stats().descriptor_fetches, 10);
}

TEST(Nic, CreditPoolSmallerThanOnePacketStillDelivers) {
  // Regression: with a posted-credit pool smaller than one packet's
  // TLP stream (16 x 286B wire), early TLPs retire while later ones
  // still wait for credits; the retirement bookkeeping must already
  // know the job.
  sim::Simulator sim;
  mem::MemorySystem memsys(sim, mem::DramParams{}, Rng(1));
  iommu::IommuParams ip;
  ip.enabled = true;
  iommu::Iommu mmu(sim, memsys, ip, Rng(0x10771b));
  pcie::PcieParams pp;
  pp.credit_bytes = Bytes(2048);  // < 4576B per packet
  pcie::PcieBus bus(sim, memsys, mmu, pp);
  Nic nic(sim, bus, mmu, NicParams{}, 1, Bytes::mib(12), iommu::PageSize::k2M,
          [](std::int32_t) { return 0; }, Rng(2));
  int delivered = 0;
  nic.set_callbacks(Nic::Callbacks{
      .deliver = [&](int, net::Packet, TimePs) { ++delivered; },
      .transmit = [](net::Packet) { return true; },
      .buffer_pressure = {},
  });
  net::WireFormat wire;
  for (int i = 0; i < 10; ++i) {
    net::Packet p;
    p.kind = net::PacketKind::kData;
    p.flow = 0;
    p.seq = i;
    p.payload = wire.mtu_payload;
    p.wire = wire.data_wire();
    nic.on_arrival(std::move(p));
  }
  sim.run_until(10_ms);
  EXPECT_EQ(delivered, 10);
  EXPECT_EQ(nic.buffer_used().count(), 0);
}

TEST(Nic, AtsPrefetchesTranslationsOnArrival) {
  NicParams np;
  np.ats_enabled = true;
  Harness h(true, 1, iommu::PageSize::k2M, Bytes::mib(12), np);
  h.nic->on_arrival(h.data(0, 0));
  EXPECT_GE(h.nic->stats().ats_prefetches, 1);
  h.sim.run_until(1_ms);
  EXPECT_EQ(h.delivered.size(), 1u);
}

TEST(Nic, AtsAvoidsRootComplexTranslationStalls) {
  NicParams np;
  np.ats_enabled = true;
  Harness ats(true, 1, iommu::PageSize::k2M, Bytes::mib(12), np);
  Harness base(true, 1, iommu::PageSize::k2M, Bytes::mib(12));
  for (int i = 0; i < 50; ++i) {
    ats.nic->on_arrival(ats.data(0, i));
    base.nic->on_arrival(base.data(0, i));
  }
  ats.sim.run_until(5_ms);
  base.sim.run_until(5_ms);
  ASSERT_EQ(ats.delivered.size(), 50u);
  // The baseline stalls its RC pipeline on cold payload walks; with
  // ATS only the (few, hot) control pages ever translate at the root
  // complex, so stalls are bounded by the cold control-page count.
  EXPECT_GT(base.pcie->stats().translation_stalls,
            ats.pcie->stats().translation_stalls);
  EXPECT_LE(ats.pcie->stats().translation_stalls, 10);
}

TEST(Nic, AtsDisabledWhenIommuOff) {
  NicParams np;
  np.ats_enabled = true;
  Harness h(/*iommu_on=*/false, 1, iommu::PageSize::k2M, Bytes::mib(12), np);
  h.nic->on_arrival(h.data(0, 0));
  h.sim.run_until(1_ms);
  EXPECT_EQ(h.nic->stats().ats_prefetches, 0);
  EXPECT_EQ(h.delivered.size(), 1u);
}

TEST(Nic, StrictInvalidationForcesRepeatWalks) {
  NicParams np;
  np.strict_invalidation = true;
  // A single 2M page: in loose mode only the first packet would miss.
  Harness h(true, 1, iommu::PageSize::k2M, Bytes::mib(2), np);
  for (int i = 0; i < 20; ++i) h.nic->on_arrival(h.data(0, i));
  h.sim.run_until(5_ms);
  ASSERT_EQ(h.delivered.size(), 20u);
  // Concurrent in-flight packets can target the page between an
  // invalidation and the next delivery, so not every delivery finds a
  // live entry -- but the bulk of them do, and misses recur throughout
  // the run instead of only on the cold first access.
  EXPECT_GE(h.iommu->stats().invalidations, 10);
  EXPECT_GE(h.iommu->stats().misses, 10);
}

TEST(Nic, LooseModeDoesNotInvalidate) {
  Harness h(true, 1, iommu::PageSize::k2M, Bytes::mib(2));
  for (int i = 0; i < 20; ++i) h.nic->on_arrival(h.data(0, i));
  h.sim.run_until(5_ms);
  EXPECT_EQ(h.iommu->stats().invalidations, 0);
}

TEST(Nic, ThroughputNearLineRateWhenUncontended) {
  Harness h(true, 4, iommu::PageSize::k2M, Bytes::mib(12));
  // Offer 100Gbps-paced arrivals for 2ms and measure delivery rate.
  const TimePs spacing = BitRate::gbps(100).time_to_send(h.wire.data_wire());
  int seq = 0;
  sim::PeriodicTask source(h.sim, spacing, [&] {
    h.nic->on_arrival(h.data(seq % 4, seq));
    ++seq;
    // Threads keep descriptors topped up.
    for (int t = 0; t < 4; ++t) {
      if (h.nic->posted_descriptors(t) < 256) h.nic->post_descriptors(t, 4);
    }
  });
  h.sim.run_until(2_ms);
  const double gbps =
      static_cast<double>(h.nic->stats().bytes_delivered) * 8.0 / 2e-3 * 1e-9;
  // 100G wire = 92G payload; expect most of it to get through.
  EXPECT_GT(gbps, 80.0);
  EXPECT_EQ(h.nic->stats().buffer_drops, 0);
}

}  // namespace
}  // namespace hicc::nic
