// Sender-side flow: window/pacing enforcement, per-packet selective
// acknowledgments, fast retransmit, and retransmission timeouts.
//
// One flow corresponds to one (sender host, receiver thread) pair --
// the paper's workload creates one connection per sender per receiver
// thread. Data to send arrives as read-request chunks (16KB reads =
// 4 MTU packets) and is transmitted under the congestion controller's
// window; fractional windows (< 1 packet) are paced at one packet per
// srtt/cwnd, as in Swift.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>

#include "common/rng.h"
#include "common/units.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "transport/cc.h"

namespace hicc::transport {

/// Per-flow counters.
struct FlowStats {
  std::int64_t data_packets_sent = 0;  // first transmissions
  std::int64_t retransmits = 0;
  std::int64_t acks_received = 0;
  std::int64_t rto_fires = 0;
};

/// Sender-side state machine of one flow.
class SenderFlow {
 public:
  /// Transmits a packet toward the receiver; returns false if the
  /// fabric dropped it at enqueue (sender uplink full).
  using SendFn = std::function<bool(net::Packet)>;

  /// `nodes` supplies the SACK scoreboard's map nodes; it must
  /// outlive the flow.
  SenderFlow(sim::Simulator& sim, std::int32_t flow_id, std::int32_t sender_id,
             const net::WireFormat& wire, std::unique_ptr<CongestionControl> cc,
             SendFn send, Rng rng,
             std::pmr::memory_resource* nodes = std::pmr::get_default_resource());

  SenderFlow(const SenderFlow&) = delete;
  SenderFlow& operator=(const SenderFlow&) = delete;

  /// Queues `n` new MTU packets for transmission (a 16KB read = 4).
  void enqueue_packets(std::int64_t n);

  /// Processes an acknowledgment for this flow.
  void on_ack(const net::Packet& ack);

  /// Delivers an out-of-band host congestion signal to the controller.
  void on_host_signal();

  [[nodiscard]] double cwnd() const { return cc_->cwnd(); }
  [[nodiscard]] std::int64_t pending() const { return pending_new_; }
  [[nodiscard]] std::size_t outstanding() const { return outstanding_.size(); }
  [[nodiscard]] const FlowStats& stats() const { return stats_; }
  [[nodiscard]] CongestionControl& cc() { return *cc_; }
  [[nodiscard]] TimePs srtt() const { return srtt_; }

 private:
  void try_send();
  /// Transmits (or retransmits) sequence `seq`.
  void emit(std::int64_t seq, bool retransmission);
  void check_rto();
  [[nodiscard]] TimePs pacing_interval();
  [[nodiscard]] TimePs rto() const;

  sim::Simulator& sim_;
  std::int32_t flow_id_;
  std::int32_t sender_id_;
  net::WireFormat wire_;
  std::unique_ptr<CongestionControl> cc_;
  SendFn send_;
  Rng rng_;

  std::int64_t next_seq_ = 0;
  std::int64_t pending_new_ = 0;
  /// seq -> time of the most recent transmission. One node per packet
  /// in flight, drawn from `nodes` so the steady state reuses freed
  /// nodes instead of reaching operator new.
  std::pmr::map<std::int64_t, TimePs> outstanding_;
  std::int64_t highest_acked_ = -1;
  TimePs srtt_{};
  TimePs next_pace_at_{};
  sim::EventId pace_timer_{};
  sim::PeriodicTask rto_task_;
  FlowStats stats_;

  /// Packets acknowledged out of order beyond this gap trigger fast
  /// retransmit of older outstanding sequences.
  static constexpr std::int64_t kReorderThreshold = 3;
};

}  // namespace hicc::transport
