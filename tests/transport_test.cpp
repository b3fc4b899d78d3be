// Tests for the transport layer: Swift window dynamics (increase,
// decrease, dual fabric/host targets, fractional windows), the
// TCP-like baseline, sender-flow pacing, selective acks, fast
// retransmit, RTO recovery and its scan grid, and the sender host's
// request handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "sim/simulator.h"
#include "transport/flow.h"
#include "transport/sender_host.h"
#include "transport/swift.h"

namespace hicc::transport {
namespace {

using namespace hicc::literals;

AckInfo ack(TimePs rtt, TimePs host_delay) { return AckInfo{rtt, host_delay}; }

// ----------------------------------------------------------- SwiftCc

TEST(SwiftCc, IncreasesWhenBelowTargets) {
  sim::Simulator sim;
  SwiftCc cc(sim, SwiftParams{});
  const double w0 = cc.cwnd();
  for (int i = 0; i < 10; ++i) cc.on_ack(ack(20_us, 5_us));
  EXPECT_GT(cc.cwnd(), w0);
}

TEST(SwiftCc, AdditiveIncreaseSlowsAsWindowGrows) {
  sim::Simulator sim;
  SwiftCc cc(sim, SwiftParams{});
  double prev = cc.cwnd();
  double first_step = 0.0, last_step = 0.0;
  for (int i = 0; i < 100; ++i) {
    cc.on_ack(ack(20_us, 5_us));
    const double step = cc.cwnd() - prev;
    if (i == 0) first_step = step;
    last_step = step;
    prev = cc.cwnd();
  }
  EXPECT_GT(first_step, last_step);
}

TEST(SwiftCc, DecreasesWhenHostDelayExceedsTarget) {
  sim::Simulator sim;
  SwiftCc cc(sim, SwiftParams{});
  for (int i = 0; i < 40; ++i) cc.on_ack(ack(20_us, 5_us));
  const double w = cc.cwnd();
  sim.run_until(1_ms);
  cc.on_ack(ack(250_us, 200_us));  // host delay 2x target
  EXPECT_LT(cc.cwnd(), w);
}

TEST(SwiftCc, DecreaseAtMostOncePerRtt) {
  sim::Simulator sim;
  SwiftCc cc(sim, SwiftParams{});
  for (int i = 0; i < 40; ++i) cc.on_ack(ack(20_us, 5_us));
  sim.run_until(1_ms);
  cc.on_ack(ack(250_us, 200_us));
  const double after_first = cc.cwnd();
  cc.on_ack(ack(250_us, 200_us));  // same instant: gated
  EXPECT_DOUBLE_EQ(cc.cwnd(), after_first);
}

TEST(SwiftCc, FabricAndHostWindowsAreIndependent) {
  sim::Simulator sim;
  SwiftCc cc(sim, SwiftParams{});
  for (int i = 0; i < 40; ++i) cc.on_ack(ack(20_us, 5_us));
  sim.run_until(1_ms);
  // Large fabric delay, small host delay: only fabric window drops.
  const double host_before = cc.host_cwnd();
  cc.on_ack(ack(200_us, 5_us));
  EXPECT_LT(cc.fabric_cwnd(), host_before);
  EXPECT_GE(cc.host_cwnd(), host_before);
  EXPECT_DOUBLE_EQ(cc.cwnd(), std::min(cc.fabric_cwnd(), cc.host_cwnd()));
}

TEST(SwiftCc, HostDelayBelowTargetNeverTriggersDecrease) {
  // The paper's central dynamics: 100us host target means delays up
  // to 100us look fine to Swift even while the NIC buffer overflows.
  sim::Simulator sim;
  SwiftCc cc(sim, SwiftParams{});
  for (int i = 0; i < 20; ++i) cc.on_ack(ack(20_us, 5_us));
  const double w = cc.cwnd();
  sim.run_until(1_ms);
  cc.on_ack(ack(110_us, 90_us));  // 90us host delay < 100us target
  EXPECT_GE(cc.cwnd(), w);
}

TEST(SwiftCc, WindowClampedToBounds) {
  sim::Simulator sim;
  SwiftParams p;
  SwiftCc cc(sim, p);
  for (int i = 0; i < 100000; ++i) cc.on_ack(ack(20_us, 5_us));
  EXPECT_LE(cc.cwnd(), p.max_cwnd);
  for (int i = 0; i < 1000; ++i) {
    sim.run_until(sim.now() + 1_ms);
    cc.on_ack(ack(2000_us, 1900_us));
  }
  EXPECT_GE(cc.cwnd(), p.min_cwnd);
}

TEST(SwiftCc, LossHalvesWindow) {
  sim::Simulator sim;
  SwiftCc cc(sim, SwiftParams{});
  for (int i = 0; i < 40; ++i) cc.on_ack(ack(20_us, 5_us));
  const double w = cc.cwnd();
  sim.run_until(1_ms);
  cc.on_loss();
  EXPECT_NEAR(cc.cwnd(), w * 0.5, 0.02 * w);
}

TEST(SwiftCc, HostSignalIgnoredUnlessEnabled) {
  sim::Simulator sim;
  SwiftCc plain(sim, SwiftParams{});
  SwiftCc reactive(sim, SwiftParams{}, /*react_to_host_signal=*/true);
  for (int i = 0; i < 40; ++i) {
    plain.on_ack(ack(20_us, 5_us));
    reactive.on_ack(ack(20_us, 5_us));
  }
  const double wp = plain.cwnd();
  const double wr = reactive.cwnd();
  sim.run_until(1_ms);
  plain.on_host_signal();
  reactive.on_host_signal();
  EXPECT_DOUBLE_EQ(plain.cwnd(), wp);
  EXPECT_NEAR(reactive.cwnd(), wr * (1.0 - SwiftParams{}.host_signal_mdf), 1e-9);
}

TEST(SwiftCc, HostSignalCooldown) {
  sim::Simulator sim;
  SwiftCc cc(sim, SwiftParams{}, true);
  for (int i = 0; i < 40; ++i) cc.on_ack(ack(20_us, 5_us));
  sim.run_until(1_ms);
  cc.on_host_signal();
  const double w = cc.cwnd();
  cc.on_host_signal();  // within cooldown: ignored
  EXPECT_DOUBLE_EQ(cc.cwnd(), w);
  sim.run_until(sim.now() + 60_us);  // past the 50us cooldown
  cc.on_host_signal();
  EXPECT_LT(cc.cwnd(), w);
}

TEST(TcpLikeCc, GrowsWithoutDelaySignal) {
  sim::Simulator sim;
  TcpLikeCc cc(sim);
  const double w0 = cc.cwnd();
  // Huge delays do not slow a loss-based protocol down.
  for (int i = 0; i < 50; ++i) cc.on_ack(ack(500_us, 450_us));
  EXPECT_GT(cc.cwnd(), w0 + 5.0);
}

TEST(TcpLikeCc, LossHalvesButNotBelowMin) {
  sim::Simulator sim;
  TcpLikeCc cc(sim, /*min_cwnd=*/1.0);
  for (int i = 0; i < 50; ++i) cc.on_ack(ack(20_us, 5_us));
  const double w = cc.cwnd();
  sim.run_until(1_ms);
  cc.on_loss();
  EXPECT_NEAR(cc.cwnd(), w * 0.5, 1e-9);
  for (int i = 0; i < 20; ++i) {
    sim.run_until(sim.now() + 10_ms);
    cc.on_loss();
  }
  EXPECT_GE(cc.cwnd(), 1.0);
}

// -------------------------------------------------------- SenderFlow

struct FlowHarness {
  sim::Simulator sim;
  net::WireFormat wire;
  std::vector<net::Packet> sent;
  std::unique_ptr<SenderFlow> flow;

  explicit FlowHarness(double fixed_cwnd = 0.0) {
    std::unique_ptr<CongestionControl> cc;
    if (fixed_cwnd > 0.0) {
      cc = std::make_unique<FixedCc>(fixed_cwnd);
    } else {
      cc = std::make_unique<SwiftCc>(sim, SwiftParams{});
    }
    flow = std::make_unique<SenderFlow>(
        sim, 0, 0, wire, std::move(cc),
        [this](net::Packet p) {
          sent.push_back(std::move(p));
          return true;
        },
        Rng(0xf10f));
  }

  struct FixedCc final : CongestionControl {
    explicit FixedCc(double w) : w_(w) {}
    void on_ack(const AckInfo&) override {}
    void on_loss() override { ++losses; }
    [[nodiscard]] double cwnd() const override { return w_; }
    [[nodiscard]] const char* name() const override { return "fixed"; }
    double w_;
    int losses = 0;
  };

  /// Builds the ACK the receiver would send for `data`.
  net::Packet make_ack(const net::Packet& data, TimePs host_delay = 5_us) {
    net::Packet a;
    a.kind = net::PacketKind::kAck;
    a.flow = data.flow;
    a.sender = data.sender;
    a.seq = data.seq;
    a.wire = wire.ack_wire;
    a.sent_at = data.sent_at;
    a.echoed_host_delay = host_delay;
    return a;
  }
};

TEST(SenderFlow, SendsUpToWindow) {
  FlowHarness h(4.0);
  h.flow->enqueue_packets(10);
  EXPECT_EQ(h.sent.size(), 4u);
  EXPECT_EQ(h.flow->outstanding(), 4u);
  EXPECT_EQ(h.flow->pending(), 6);
}

TEST(SenderFlow, AckReleasesWindow) {
  FlowHarness h(2.0);
  h.flow->enqueue_packets(4);
  ASSERT_EQ(h.sent.size(), 2u);
  h.sim.run_until(20_us);
  h.flow->on_ack(h.make_ack(h.sent[0]));
  EXPECT_EQ(h.sent.size(), 3u);
  EXPECT_EQ(h.flow->stats().acks_received, 1);
}

TEST(SenderFlow, SequenceNumbersMonotone) {
  FlowHarness h(8.0);
  h.flow->enqueue_packets(8);
  for (std::size_t i = 0; i < h.sent.size(); ++i) {
    EXPECT_EQ(h.sent[i].seq, static_cast<std::int64_t>(i));
  }
}

TEST(SenderFlow, FractionalWindowPacesPackets) {
  FlowHarness h(0.5);
  h.flow->enqueue_packets(3);
  EXPECT_EQ(h.sent.size(), 1u);  // one allowed immediately
  // Acknowledge it so the window frees, but pacing should still space
  // the next send by ~srtt/cwnd = 2x srtt.
  h.sim.run_until(20_us);
  h.flow->on_ack(h.make_ack(h.sent[0]));
  const std::size_t after_ack = h.sent.size();
  EXPECT_EQ(after_ack, 1u);  // pacing gate holds
  h.sim.run_until(100_us);
  EXPECT_EQ(h.sent.size(), 2u);
}

TEST(SenderFlow, FastRetransmitOnReordering) {
  FlowHarness h(8.0);
  h.flow->enqueue_packets(8);
  ASSERT_EQ(h.sent.size(), 8u);
  h.sim.run_until(100_us);
  // Ack 1,2,...,5 but never 0: sequence 0 is presumed lost.
  for (int i = 1; i <= 5; ++i) h.flow->on_ack(h.make_ack(h.sent[static_cast<std::size_t>(i)]));
  EXPECT_GE(h.flow->stats().retransmits, 1);
  // The retransmitted packet has seq 0.
  bool retx_seq0 = false;
  for (std::size_t i = 8; i < h.sent.size(); ++i) retx_seq0 |= (h.sent[i].seq == 0);
  EXPECT_TRUE(retx_seq0);
}

TEST(SenderFlow, RtoRecoversFromSilentLoss) {
  FlowHarness h(2.0);
  h.flow->enqueue_packets(2);
  ASSERT_EQ(h.sent.size(), 2u);
  // No acks at all: the RTO must refire the packets.
  h.sim.run_until(5_ms);
  EXPECT_GE(h.flow->stats().rto_fires, 1);
  EXPECT_GT(h.sent.size(), 2u);
}

TEST(SenderFlow, NoRetransmitWithoutGap) {
  FlowHarness h(4.0);
  h.flow->enqueue_packets(4);
  h.sim.run_until(20_us);
  for (int i = 0; i < 4; ++i) h.flow->on_ack(h.make_ack(h.sent[static_cast<std::size_t>(i)]));
  EXPECT_EQ(h.flow->stats().retransmits, 0);
  EXPECT_EQ(h.flow->outstanding(), 0u);
}

// ------------------------------------------------- SenderFlow RTO scan

TEST(SenderFlow, IdleFlowHoldsNoScanEvent) {
  FlowHarness h(4.0);
  EXPECT_EQ(h.sim.pending(), 0u);  // a new flow has nothing to scan
  h.flow->enqueue_packets(4);
  EXPECT_EQ(h.sim.pending(), 1u);  // the scan, 250 us from creation
  h.sim.run_until(20_us);
  for (int i = 0; i < 4; ++i) h.flow->on_ack(h.make_ack(h.sent[static_cast<std::size_t>(i)]));
  ASSERT_EQ(h.flow->outstanding(), 0u);
  // The built scan runs once more, finds the flow idle and builds no
  // successor: pending() drops to zero and stays there.
  h.sim.run_until(250_us);
  EXPECT_EQ(h.sim.pending(), 0u);
  const std::uint64_t executed = h.sim.executed();
  h.sim.run_until(10_ms);
  EXPECT_EQ(h.sim.executed(), executed);
  EXPECT_EQ(h.flow->stats().rto_fires, 0);
}

// A copy of SenderFlow's send/ack/RTO logic as it stood when a
// sim::PeriodicTask ran the scan every 250 us from creation, idle or
// not. Windows >= 1 only (no pacing), which is all the test drives.
class PeriodicScanFlow {
 public:
  PeriodicScanFlow(sim::Simulator& sim, const net::WireFormat& wire, double cwnd,
                   SenderFlow::SendFn send)
      : sim_(sim),
        wire_(wire),
        window_(static_cast<std::size_t>(cwnd)),
        send_(std::move(send)),
        scan_(sim, 250_us, [this] { check_rto(); }) {}

  void enqueue_packets(std::int64_t n) {
    pending_ += n;
    try_send();
  }

  void on_ack(const net::Packet& ack) {
    const auto it = outstanding_.find(ack.seq);
    if (it != outstanding_.end()) {
      const TimePs rtt = sim_.now() - ack.sent_at;
      srtt_ = srtt_ == TimePs(0) ? rtt : TimePs((srtt_.ps() * 7 + rtt.ps()) / 8);
      outstanding_.erase(it);
    }
    highest_acked_ = std::max(highest_acked_, ack.seq);
    int budget = 2;
    for (auto cand = outstanding_.begin(); cand != outstanding_.end() && budget > 0; ++cand) {
      if (cand->first + 3 > highest_acked_) break;
      if (sim_.now() - cand->second < (srtt_ == TimePs(0) ? 20_us : srtt_)) continue;
      emit(cand->first, /*retransmission=*/true);
      --budget;
    }
    try_send();
  }

  [[nodiscard]] const FlowStats& stats() const { return stats_; }

 private:
  void try_send() {
    while (pending_ > 0 && outstanding_.size() < window_) {
      --pending_;
      ++stats_.data_packets_sent;
      emit(next_seq_++, /*retransmission=*/false);
    }
  }

  void emit(std::int64_t seq, bool retransmission) {
    net::Packet p;
    p.kind = net::PacketKind::kData;
    p.seq = seq;
    p.payload = wire_.mtu_payload;
    p.wire = wire_.data_wire();
    p.sent_at = sim_.now();
    outstanding_[seq] = sim_.now();
    if (retransmission) ++stats_.retransmits;
    (void)send_(std::move(p));
  }

  void check_rto() {
    const TimePs deadline = std::max((srtt_ == TimePs(0) ? 20_us : srtt_) * 4, 1_ms);
    int budget = 4;
    for (auto& [seq, sent_at] : outstanding_) {
      if (budget == 0) break;
      if (sim_.now() - sent_at > deadline) {
        ++stats_.rto_fires;
        emit(seq, /*retransmission=*/true);
        --budget;
      }
    }
    try_send();
  }

  sim::Simulator& sim_;
  net::WireFormat wire_;
  std::size_t window_;
  SenderFlow::SendFn send_;
  std::int64_t next_seq_ = 0;
  std::int64_t pending_ = 0;
  std::map<std::int64_t, TimePs> outstanding_;
  std::int64_t highest_acked_ = -1;
  TimePs srtt_{};
  FlowStats stats_;
  sim::PeriodicTask scan_;
};

/// One transmission: when, which seq, and the RTOs fired by then.
struct Transmission {
  TimePs at;
  std::int64_t seq;
  std::int64_t rto_fires;
  bool operator==(const Transmission&) const = default;
};

/// Reads arrive at `requests` (time, packets); every transmission whose
/// index is in `drops` is lost, the rest are acknowledged 20 us later.
/// Returns each transmission in order.
template <typename Flow, typename Make>
std::vector<Transmission> run_scan_scenario(
    Make make, const std::vector<std::pair<TimePs, std::int64_t>>& requests,
    const std::vector<int>& drops, sim::Simulator& sim) {
  std::vector<Transmission> log;
  std::unique_ptr<Flow> flow;
  flow = make([&](net::Packet p) {
    const int index = static_cast<int>(log.size());
    log.push_back({sim.now(), p.seq, flow->stats().rto_fires});
    if (std::find(drops.begin(), drops.end(), index) != drops.end()) return true;
    net::Packet ack;
    ack.kind = net::PacketKind::kAck;
    ack.seq = p.seq;
    ack.sent_at = p.sent_at;
    sim.after(20_us, [&flow, ack] { flow->on_ack(ack); });
    return true;
  });
  for (const auto& [at, packets] : requests) {
    sim.at(at, [&flow, n = packets] { flow->enqueue_packets(n); });
  }
  sim.run_until(12_ms);
  return log;
}

TEST(SenderFlow, ScansKeepTheirGridAcrossIdleGaps) {
  // The flow is created at 0, so scans sit on the 250 us grid. Each
  // burst loses one transmission and waits out the 1 ms RTO; the scan
  // after its retransmission is ACKed finds the flow idle and builds
  // no successor. The bursts wake the flow:
  //  - at 250 us, just after the unbuilt 250 us slot passed (it was
  //    reserved before this read was scheduled): rearmed at 500;
  //  - at 1800 us, before the 2000 us slot the idle 1750 scan
  //    reserved: that slot is built;
  //  - at 3600 us, past the 3500 us slot: rearmed at 3750;
  //  - at 5250 us, the instant of its reserved slot, which sorts after
  //    this read: that slot is built;
  //  - at 9000 us, many periods past its 7000 us slot: rearmed at 9250.
  const std::vector<std::pair<TimePs, std::int64_t>> requests = {
      {250_us, 4}, {1800_us, 1}, {3600_us, 2}, {5250_us, 3}, {9000_us, 2}};
  // Transmission indices to lose: seq 1 of the first burst, the lone
  // packet of the second, the first of the third, the last of the
  // fourth and the first of the fifth.
  const std::vector<int> drops = {1, 5, 7, 12, 14};
  const net::WireFormat wire;

  sim::Simulator lazy_sim;
  const auto lazy = run_scan_scenario<SenderFlow>(
      [&](SenderFlow::SendFn send) {
        return std::make_unique<SenderFlow>(lazy_sim, 0, 0, wire,
                                            std::make_unique<FlowHarness::FixedCc>(2.0),
                                            std::move(send), Rng(0xf10f));
      },
      requests, drops, lazy_sim);
  sim::Simulator periodic_sim;
  const auto periodic = run_scan_scenario<PeriodicScanFlow>(
      [&](SenderFlow::SendFn send) {
        return std::make_unique<PeriodicScanFlow>(periodic_sim, wire, 2.0, std::move(send));
      },
      requests, drops, periodic_sim);

  ASSERT_EQ(lazy.size(), periodic.size());
  for (std::size_t i = 0; i < lazy.size(); ++i) {
    EXPECT_EQ(lazy[i], periodic[i]) << "transmission " << i << ": " << lazy[i].at.us()
                                    << " us seq " << lazy[i].seq << " vs "
                                    << periodic[i].at.us() << " us seq " << periodic[i].seq;
  }
  // Every loss was recovered by an RTO (no burst reorders enough for a
  // fast retransmit).
  EXPECT_EQ(lazy.back().rto_fires, static_cast<std::int64_t>(drops.size()));
  // Only the scans from each wake to the first idle one were built:
  // 500-1750, 2000-3250, 3750-5000, 5250-6750 and 9250-10500, 31 in
  // all, beside 5 reads and 12 ACKs. The periodic flow ran all 48
  // grid points up to 12 ms.
  EXPECT_EQ(lazy_sim.executed(), 5u + 12u + 31u);
  EXPECT_EQ(periodic_sim.executed(), 5u + 12u + 48u);
}

// -------------------------------------------------------- SenderHost

TEST(SenderHost, ReadRequestEnqueuesPackets) {
  sim::Simulator sim;
  net::WireFormat wire;
  std::vector<net::Packet> sent;
  SenderHost host(
      sim, 3, wire,
      [&](net::Packet p) {
        sent.push_back(std::move(p));
        return true;
      },
      Rng(0x5e17d));
  host.add_flow(7, std::make_unique<SwiftCc>(sim, SwiftParams{}));

  net::Packet req;
  req.kind = net::PacketKind::kReadRequest;
  req.flow = 7;
  req.payload = Bytes(16 * 1024);  // 16KB read = 4 MTU packets
  host.on_packet(req);
  // cwnd starts at 1: one packet in flight, 3 queued.
  EXPECT_EQ(sent.size(), 1u);
  EXPECT_EQ(host.flows().at(7)->pending(), 3);
  EXPECT_EQ(sent[0].sender, 3);
}

TEST(SenderHost, IgnoresUnknownFlow) {
  sim::Simulator sim;
  net::WireFormat wire;
  SenderHost host(sim, 0, wire, [](net::Packet) { return true; }, Rng(0x5e17d));
  net::Packet req;
  req.kind = net::PacketKind::kReadRequest;
  req.flow = 99;
  req.payload = Bytes(16 * 1024);
  host.on_packet(req);  // must not crash
  SUCCEED();
}

}  // namespace
}  // namespace hicc::transport
