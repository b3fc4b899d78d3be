// Tests for the fabric: wire format math, link serialization and
// queueing, tail drops, and the config-driven Clos topology (routing,
// timing, ECMP determinism, drop accounting), including the one-leaf
// case the single-host testbed runs on.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "net/link.h"
#include "net/packet.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace hicc::net {
namespace {

using namespace hicc::literals;

TEST(WireFormat, GoodputFractionMatchesPaper) {
  const WireFormat w;
  // 4096/(4096+356) = 0.92 -> 92 Gbps max app throughput on 100G.
  EXPECT_NEAR(w.goodput_fraction() * 100.0, 92.0, 0.1);
  EXPECT_EQ(w.data_wire().count(), 4452);
}

Packet make_data(int flow, std::int64_t seq, Bytes wire) {
  Packet p;
  p.kind = PacketKind::kData;
  p.flow = flow;
  p.seq = seq;
  p.payload = Bytes(4096);
  p.wire = wire;
  return p;
}

TEST(QueuedLink, DeliversAfterSerializationPlusPropagation) {
  sim::Simulator sim;
  std::vector<TimePs> arrivals;
  QueuedLink link(sim, BitRate::gbps(100), 2_us, 1_MiB,
                  [&](Packet) { arrivals.push_back(sim.now()); });
  ASSERT_TRUE(link.send(make_data(0, 0, Bytes(4452))));
  sim.run_until(10_us);
  ASSERT_EQ(arrivals.size(), 1u);
  // 4452B at 100G = 356.16ns + 2us propagation.
  EXPECT_NEAR(arrivals[0].us(), 2.356, 0.01);
}

TEST(QueuedLink, BackToBackPacketsSpacedBySerialization) {
  sim::Simulator sim;
  std::vector<TimePs> arrivals;
  QueuedLink link(sim, BitRate::gbps(100), 2_us, 1_MiB,
                  [&](Packet) { arrivals.push_back(sim.now()); });
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(link.send(make_data(0, i, Bytes(4452))));
  sim.run_until(20_us);
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_NEAR((arrivals[1] - arrivals[0]).ns(), 356.16, 1.0);
  EXPECT_NEAR((arrivals[2] - arrivals[1]).ns(), 356.16, 1.0);
}

// The link memoizes serialization times per wire size; a rate change
// must not serve a size's time at the old rate.
TEST(QueuedLink, SetRateSerializesEqualSizesAtTheirOwnRate) {
  sim::Simulator sim;
  std::vector<TimePs> arrivals;
  const BitRate fast = BitRate::gbps(100);
  const BitRate slow = BitRate::gbps(25);
  QueuedLink link(sim, fast, 2_us, 1_MiB, [&](Packet) { arrivals.push_back(sim.now()); });
  ASSERT_TRUE(link.send(make_data(0, 0, Bytes(4452))));
  sim.run_until(10_us);  // idle again: the next send starts at now()
  link.set_rate(slow);
  EXPECT_EQ(link.rate(), slow);
  ASSERT_TRUE(link.send(make_data(0, 1, Bytes(4452))));
  sim.run_until(20_us);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], fast.time_to_send(Bytes(4452)) + 2_us);
  EXPECT_EQ(arrivals[1], 10_us + slow.time_to_send(Bytes(4452)) + 2_us);
}

TEST(QueuedLink, TailDropsWhenFull) {
  sim::Simulator sim;
  int delivered = 0;
  QueuedLink link(sim, BitRate::gbps(100), TimePs(0), Bytes(10000),
                  [&](Packet) { ++delivered; });
  int accepted = 0;
  for (int i = 0; i < 10; ++i) accepted += link.send(make_data(0, i, Bytes(4452))) ? 1 : 0;
  EXPECT_EQ(accepted, 2);  // 2 x 4452 = 8904 <= 10000; third exceeds
  EXPECT_EQ(link.drops(), 8);
  sim.run_until(1_ms);
  EXPECT_EQ(delivered, 2);
}

TEST(QueuedLink, OccupancyReturnsToZero) {
  sim::Simulator sim;
  QueuedLink link(sim, BitRate::gbps(100), 1_us, 1_MiB, [](Packet) {});
  link.send(make_data(0, 0, Bytes(4452)));
  EXPECT_EQ(link.queued().count(), 4452);
  sim.run_until(1_ms);
  EXPECT_EQ(link.queued().count(), 0);
}

struct ClosHarness {
  sim::Simulator sim;
  TopologyConfig cfg;
  std::vector<std::pair<int, Packet>> delivered;
  std::unique_ptr<ClosFabric> fabric;

  explicit ClosHarness(TopologyConfig c = TopologyConfig{}) : cfg(c) {
    fabric = std::make_unique<ClosFabric>(sim, cfg, [this](int h, Packet p) {
      delivered.emplace_back(h, std::move(p));
    });
  }

  Packet data(int src, int dst, int flow) {
    Packet p = make_data(flow, 0, Bytes(4452));
    p.sender = src;
    p.dst = dst;
    return p;
  }
};

TEST(Topology, ConfigDerivesHostCountAndLeafPlacement) {
  TopologyConfig cfg;
  cfg.leaves = 3;
  cfg.spines = 2;
  cfg.hosts_per_leaf = 4;
  EXPECT_EQ(cfg.num_hosts(), 12);
  EXPECT_EQ(cfg.leaf_of(0), 0);
  EXPECT_EQ(cfg.leaf_of(3), 0);
  EXPECT_EQ(cfg.leaf_of(4), 1);
  EXPECT_EQ(cfg.leaf_of(11), 2);
}

TEST(ClosFabric, IntraLeafIsTwoHopsInterLeafIsFour) {
  // Default topology: 2 leaves x 2 spines x 4 hosts/leaf, 2us hops.
  ClosHarness h;
  h.fabric->send_from_host(1, h.data(1, 0, 7));  // same leaf as host 0
  h.sim.run_until(20_us);
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].first, 0);
  EXPECT_EQ(h.delivered[0].second.flow, 7);
  const TimePs intra = h.sim.now();  // measured below via fresh harness

  ClosHarness far;
  TimePs arrival{};
  far.fabric = std::make_unique<ClosFabric>(far.sim, far.cfg, [&](int hh, Packet) {
    EXPECT_EQ(hh, 0);
    arrival = far.sim.now();
  });
  far.fabric->send_from_host(5, far.data(5, 0, 7));  // leaf 1 -> leaf 0
  far.sim.run_until(30_us);
  // Two edge hops (2.356us each) vs those plus two fabric hops.
  EXPECT_NEAR(arrival.us(), 2 * 2.356 + 2 * 2.356, 0.1);
  (void)intra;
}

TEST(ClosFabric, IntraLeafLatencyMatchesLegacyTwoHops) {
  ClosHarness h;
  TimePs arrival{};
  h.fabric = std::make_unique<ClosFabric>(
      h.sim, h.cfg, [&](int, Packet) { arrival = h.sim.now(); });
  h.fabric->send_from_host(1, h.data(1, 0, 0));
  h.sim.run_until(20_us);
  EXPECT_NEAR(arrival.us(), 2.356 + 2.356, 0.05);
}

// The single-host testbed's shape (core/config.h,
// single_host_topology): one leaf, one spine, host 0 the receiver and
// host 1+i sender i.
TopologyConfig one_leaf(int senders) {
  TopologyConfig cfg;
  cfg.leaves = 1;
  cfg.spines = 1;
  cfg.hosts_per_leaf = senders + 1;
  return cfg;
}

TEST(ClosFabric, ReversePathRoutesByDst) {
  ClosHarness h(one_leaf(4));
  Packet ack;
  ack.kind = PacketKind::kAck;
  ack.sender = 3;
  ack.dst = 4;  // sender 3
  ack.wire = Bytes(64);
  ASSERT_TRUE(h.fabric->send_from_host(0, ack));
  h.sim.run_until(20_us);
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].first, 4);
  EXPECT_EQ(h.delivered[0].second.kind, PacketKind::kAck);
}

TEST(ClosFabric, ManySendersConvergeOnReceiverDownlink) {
  ClosHarness h(one_leaf(8));
  for (int i = 1; i <= 8; ++i) ASSERT_TRUE(h.fabric->send_from_host(i, h.data(i, 0, i)));
  h.sim.run_until(50_us);
  ASSERT_EQ(h.delivered.size(), 8u);
  for (const auto& [host, p] : h.delivered) EXPECT_EQ(host, 0);
  EXPECT_EQ(h.fabric->fabric_drops(), 0);
}

TEST(ClosFabric, DataAckRoundTripIsAboutNineMicroseconds) {
  // Data forward (2 hops) + ACK reverse (2 hops) with 2us edges: ~8us
  // propagation plus serializations -> ~8.7us at the packet level;
  // with NIC/host processing the experiment RTT is ~20us, matching the
  // paper's example.
  ClosHarness h(one_leaf(4));
  TimePs data_arrival{};
  TimePs ack_arrival{};
  h.fabric = std::make_unique<ClosFabric>(h.sim, h.cfg, [&](int host, Packet p) {
    if (host != 0) {
      ack_arrival = h.sim.now();
      return;
    }
    data_arrival = h.sim.now();
    Packet ack;
    ack.kind = PacketKind::kAck;
    ack.sender = p.sender;
    ack.dst = p.sender;
    ack.wire = Bytes(64);
    h.fabric->send_from_host(0, std::move(ack));
  });
  h.fabric->send_from_host(1, h.data(1, 0, 0));
  h.sim.run_until(50_us);
  EXPECT_GT(data_arrival, TimePs(0));
  EXPECT_NEAR(ack_arrival.us(), 8.7, 0.5);
}

TEST(ClosFabric, EcmpIsDeterministicAcrossInstancesAndSpreadsFlows) {
  TopologyConfig cfg;
  cfg.spines = 4;
  ClosHarness a(cfg);
  ClosHarness b(cfg);
  std::set<int> spines_used;
  for (int flow = 0; flow < 64; ++flow) {
    const Packet p = a.data(/*src=*/4, /*dst=*/0, flow);
    const int sa = a.fabric->ecmp_spine(p);
    const int sb = b.fabric->ecmp_spine(p);
    EXPECT_EQ(sa, sb) << "flow " << flow;
    ASSERT_GE(sa, 0);
    ASSERT_LT(sa, cfg.spines);
    spines_used.insert(sa);
  }
  // 64 flows across 4 spines: the hash must not collapse to one path.
  EXPECT_GT(spines_used.size(), 1u);

  TopologyConfig reseeded = cfg;
  reseeded.ecmp_seed = 12345;
  ClosHarness c(reseeded);
  int moved = 0;
  for (int flow = 0; flow < 64; ++flow) {
    const Packet p = a.data(4, 0, flow);
    moved += a.fabric->ecmp_spine(p) != c.fabric->ecmp_spine(p) ? 1 : 0;
  }
  EXPECT_GT(moved, 0);  // a new seed reshuffles at least some paths
}

TEST(ClosFabric, EveryPacketOfAFlowTakesOnePath) {
  // Stateless hashing: repeated sends of the same flow key never
  // reorder across spines.
  ClosHarness h;
  const Packet p = h.data(4, 0, 9);
  const int spine = h.fabric->ecmp_spine(p);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(h.fabric->ecmp_spine(p), spine);
}

TEST(ClosFabric, DropAccountingIsPerPortAndTotalIsRunning) {
  TopologyConfig cfg;
  cfg.edge_buffer = Bytes(10000);  // downlink holds two 4452B packets
  ClosHarness h(cfg);
  // Incast: three same-leaf hosts send to host 0, paced so each
  // uplink stays under its own occupancy bound (held through the 2us
  // propagation) and the convergence point is host 0's downlink.
  for (int round = 0; round < 12; ++round) {
    h.sim.run_until(TimePs::from_ns(1200 * round));
    for (int src = 1; src < 4; ++src) {
      ASSERT_TRUE(h.fabric->send_from_host(src, h.data(src, 0, src)));
    }
  }
  h.sim.run_until(100_us);
  EXPECT_GT(h.fabric->fabric_drops(), 0);
  // The O(1) running total equals the sum over every port.
  std::int64_t per_port = 0;
  for (int host = 0; host < cfg.num_hosts(); ++host) {
    per_port += h.fabric->host_uplink(host).drops();
    per_port += h.fabric->host_downlink(host).drops();
  }
  for (int l = 0; l < cfg.leaves; ++l) {
    for (int s = 0; s < cfg.spines; ++s) {
      per_port += h.fabric->leaf_uplink(l, s).drops();
      per_port += h.fabric->spine_downlink(s, l).drops();
    }
  }
  EXPECT_EQ(h.fabric->fabric_drops(), per_port);
  // All loss is at the victim's ports; host_port_drops pins the blame.
  EXPECT_EQ(h.fabric->host_port_drops(0), h.fabric->fabric_drops());
  EXPECT_EQ(h.fabric->host_port_drops(1), 0);
}

TEST(ClosFabric, UplinkDropRejectsAtSource) {
  TopologyConfig cfg;
  cfg.edge_buffer = Bytes(4452);  // exactly one packet per edge port
  ClosHarness h(cfg);
  EXPECT_TRUE(h.fabric->send_from_host(1, h.data(1, 0, 0)));
  EXPECT_FALSE(h.fabric->send_from_host(1, h.data(1, 0, 1)));
  EXPECT_EQ(h.fabric->host_uplink(1).drops(), 1);
  EXPECT_EQ(h.fabric->fabric_drops(), 1);
}

}  // namespace
}  // namespace hicc::net
