// Transport reliability under adversarial loss: the sender flow must
// eventually deliver every enqueued packet through random drop
// patterns, reordering, and delayed ACKs -- the property that keeps the
// closed-loop workload alive when the NIC buffer drops bursts.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "transport/flow.h"
#include "transport/swift.h"

namespace hicc::transport {
namespace {

using namespace hicc::literals;

/// A lossy, delaying channel between a SenderFlow and a synthetic
/// receiver that acks everything it sees.
class LossyChannel {
 public:
  LossyChannel(sim::Simulator& sim, double loss_probability, std::uint64_t seed)
      : sim_(sim), loss_(loss_probability), rng_(seed) {}

  /// Wire this as the flow's SendFn.
  bool send(SenderFlow& flow, net::Packet p) {
    if (rng_.chance(loss_)) return true;  // silently dropped in flight
    // Random one-way delay 5-40us each way; ACK echoes the packet.
    const TimePs rtt = TimePs::from_us(rng_.uniform(10.0, 80.0));
    const TimePs host_delay = TimePs::from_us(rng_.uniform(1.0, 30.0));
    received_.insert(p.seq);
    net::Packet ack;
    ack.kind = net::PacketKind::kAck;
    ack.flow = p.flow;
    ack.sender = p.sender;
    ack.seq = p.seq;
    ack.sent_at = p.sent_at;
    ack.echoed_host_delay = host_delay;
    sim_.after(rtt, [&flow, ack] { flow.on_ack(ack); });
    return true;
  }

  [[nodiscard]] const std::set<std::int64_t>& received() const { return received_; }

 private:
  sim::Simulator& sim_;
  double loss_;
  Rng rng_;
  std::set<std::int64_t> received_;
};

class LossFuzz : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(LossFuzz, EveryPacketEventuallyDelivered) {
  const auto [loss, seed] = GetParam();
  sim::Simulator sim;
  LossyChannel channel(sim, loss, static_cast<std::uint64_t>(seed));
  SenderFlow* flow_ptr = nullptr;
  SenderFlow flow(sim, 0, 0, net::WireFormat{},
                  std::make_unique<SwiftCc>(sim, SwiftParams{}),
                  [&](net::Packet p) { return channel.send(*flow_ptr, std::move(p)); },
                  Rng(static_cast<std::uint64_t>(seed) + 1));
  flow_ptr = &flow;

  constexpr std::int64_t kPackets = 200;
  flow.enqueue_packets(kPackets);
  // Generous horizon: RTOs at >=1ms each may fire repeatedly at 30% loss.
  sim.run_until(TimePs::from_sec(3));

  EXPECT_EQ(flow.pending(), 0);
  EXPECT_EQ(flow.outstanding(), 0u);
  ASSERT_EQ(channel.received().size(), static_cast<std::size_t>(kPackets));
  EXPECT_EQ(*channel.received().begin(), 0);
  EXPECT_EQ(*channel.received().rbegin(), kPackets - 1);
  if (loss > 0.0) {
    EXPECT_GT(flow.stats().retransmits, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LossRates, LossFuzz,
    ::testing::Combine(::testing::Values(0.0, 0.05, 0.15, 0.30),
                       ::testing::Values(1, 2)),
    [](const auto& param_info) {
      return "loss" + std::to_string(static_cast<int>(std::get<0>(param_info.param) * 100)) +
             "_seed" + std::to_string(std::get<1>(param_info.param));
    });

/// ACK reordering must not confuse the selective-ack bookkeeping.
TEST(Reliability, ToleratesAckReordering) {
  sim::Simulator sim;
  std::vector<net::Packet> sent;
  SenderFlow flow(
      sim, 0, 0, net::WireFormat{}, std::make_unique<SwiftCc>(sim, SwiftParams{}),
      [&](net::Packet p) {
        sent.push_back(std::move(p));
        return true;
      },
      Rng(0xf10f));
  flow.enqueue_packets(8);
  sim.run_until(1_ms);
  // Repeatedly ack whatever was sent, with adjacent pairs swapped
  // (persistent mild reordering). Acking releases window and triggers
  // sends/retransmissions, which append to `sent`; drain in rounds.
  for (int round = 0; round < 200 && (flow.pending() > 0 || flow.outstanding() > 0);
       ++round) {
    std::vector<net::Packet> snapshot;
    snapshot.swap(sent);
    for (std::size_t i = 0; i + 1 < snapshot.size(); i += 2) {
      std::swap(snapshot[i], snapshot[i + 1]);
    }
    for (const auto& p : snapshot) {
      net::Packet ack;
      ack.kind = net::PacketKind::kAck;
      ack.seq = p.seq;
      ack.sent_at = p.sent_at;
      ack.echoed_host_delay = 5_us;
      flow.on_ack(ack);
      sim.run_until(sim.now() + 5_us);
    }
    sim.run_until(sim.now() + 100_us);
  }
  EXPECT_EQ(flow.pending(), 0);
  EXPECT_EQ(flow.outstanding(), 0u);
}

/// Duplicate ACKs (e.g. for an original and its retransmission) must
/// be idempotent.
TEST(Reliability, DuplicateAcksAreIdempotent) {
  sim::Simulator sim;
  std::vector<net::Packet> sent;
  SenderFlow flow(
      sim, 0, 0, net::WireFormat{}, std::make_unique<SwiftCc>(sim, SwiftParams{}),
      [&](net::Packet p) {
        sent.push_back(std::move(p));
        return true;
      },
      Rng(0xf10f));
  flow.enqueue_packets(2);
  sim.run_until(1_ms);
  ASSERT_GE(sent.size(), 1u);
  net::Packet ack;
  ack.kind = net::PacketKind::kAck;
  ack.seq = sent[0].seq;
  ack.sent_at = sent[0].sent_at;
  ack.echoed_host_delay = 5_us;
  for (int i = 0; i < 5; ++i) flow.on_ack(ack);
  EXPECT_EQ(flow.stats().acks_received, 5);
  // No spurious retransmissions from the duplicates alone (no gap).
  EXPECT_EQ(flow.stats().retransmits, 0);
}

}  // namespace
}  // namespace hicc::transport
