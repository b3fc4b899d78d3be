#include "transport/flow.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace hicc::transport {

namespace {
constexpr TimePs kRtoScanPeriod = TimePs::from_us(250);
constexpr TimePs kDefaultSrtt = TimePs::from_us(20);
}  // namespace

SenderFlow::SenderFlow(sim::Simulator& sim, std::int32_t flow_id, std::int32_t sender_id,
                       const net::WireFormat& wire, std::unique_ptr<CongestionControl> cc,
                       SendFn send, Rng rng, std::pmr::memory_resource* nodes)
    : sim_(sim),
      flow_id_(flow_id),
      sender_id_(sender_id),
      wire_(wire),
      cc_(std::move(cc)),
      send_(std::move(send)),
      rng_(rng),
      outstanding_(nodes),
      scan_at_(sim.now() + kRtoScanPeriod),
      scan_seq_(sim.reserve_seq()) {}

SenderFlow::~SenderFlow() { sim_.cancel(scan_event_); }

void SenderFlow::enqueue_packets(std::int64_t n) {
  pending_new_ += n;
  // Ahead of try_send(), so the scan is ordered before every event the
  // flow causes from here on.
  if (!scan_event_.valid() && pending_new_ > 0) wake_scan();
  try_send();
}

void SenderFlow::wake_scan() {
  if (!sim_.passed(scan_at_, scan_seq_)) {
    scan_event_ = sim_.at_reserved(scan_at_, scan_seq_, [this] { on_scan(); });
    return;
  }
  // Every skipped scan found the flow idle, a no-op. The first one it
  // now gets cannot fire an RTO either: its packets are all younger
  // than one period, and the RTO is at least 1 ms.
  const std::int64_t periods = (sim_.now() - scan_at_).ps() / kRtoScanPeriod.ps() + 1;
  scan_at_ = scan_at_ + kRtoScanPeriod * periods;
  scan_event_ = sim_.at(scan_at_, [this] { on_scan(); });
}

void SenderFlow::on_scan() {
  scan_event_ = {};
  // Reserve the next slot first, where a periodic re-arm takes its seq.
  scan_at_ = sim_.now() + kRtoScanPeriod;
  scan_seq_ = sim_.reserve_seq();
  check_rto();
  if (!outstanding_.empty() || pending_new_ > 0) {
    scan_event_ = sim_.at_reserved(scan_at_, scan_seq_, [this] { on_scan(); });
  }
}

TimePs SenderFlow::pacing_interval() {
  const TimePs base = srtt_ == TimePs(0) ? kDefaultSrtt : srtt_;
  const double w = std::max(cc_->cwnd(), 0.001);
  // +-15% jitter desynchronizes the fleet: hundreds of flows sharing
  // one receiver see the same delay signal and would otherwise surge
  // in lockstep, overflowing the NIC buffer far beyond what real
  // (phase-diverse) deployments experience.
  const double jitter = rng_.uniform(0.85, 1.15);
  return TimePs(static_cast<std::int64_t>(static_cast<double>(base.ps()) / w * jitter));
}

TimePs SenderFlow::rto() const {
  const TimePs base = srtt_ == TimePs(0) ? kDefaultSrtt : srtt_;
  return std::max(base * 4, TimePs::from_ms(1));
}

void SenderFlow::try_send() {
  while (pending_new_ > 0) {
    const double w = cc_->cwnd();
    const std::size_t window =
        w >= 1.0 ? static_cast<std::size_t>(w) : std::size_t{1};
    if (outstanding_.size() >= window) return;
    if (w < 1.0 && sim_.now() < next_pace_at_) {
      // Paced sub-1 window: rearm the pacing timer for the next slot.
      if (!pace_timer_.valid()) {
        pace_timer_ = sim_.at(next_pace_at_, [this] {
          pace_timer_ = {};
          try_send();
        });
      }
      return;
    }
    --pending_new_;
    ++stats_.data_packets_sent;
    emit(next_seq_++, /*retransmission=*/false);
    if (cc_->cwnd() < 1.0) next_pace_at_ = sim_.now() + pacing_interval();
  }
}

void SenderFlow::emit(std::int64_t seq, bool retransmission) {
  net::Packet p;
  p.kind = net::PacketKind::kData;
  p.flow = flow_id_;
  p.sender = sender_id_;
  p.seq = seq;
  p.payload = wire_.mtu_payload;
  p.wire = wire_.data_wire();
  p.sent_at = sim_.now();
  outstanding_[seq] = sim_.now();
  if (retransmission) ++stats_.retransmits;
  // A false return means the sender uplink dropped it; the RTO will
  // recover (this does not occur in the paper's uncongested fabric).
  (void)send_(std::move(p));
}

void SenderFlow::on_ack(const net::Packet& ack) {
  ++stats_.acks_received;
  const auto it = outstanding_.find(ack.seq);
  if (it != outstanding_.end()) {
    const TimePs rtt = sim_.now() - ack.sent_at;
    srtt_ = srtt_ == TimePs(0) ? rtt : TimePs((srtt_.ps() * 7 + rtt.ps()) / 8);
    cc_->on_ack(AckInfo{rtt, ack.echoed_host_delay});
    outstanding_.erase(it);
  }
  highest_acked_ = std::max(highest_acked_, ack.seq);

  // Fast retransmit: outstanding sequences overtaken by kReorderThreshold
  // newer acknowledgments are presumed lost. outstanding_ is ordered by
  // sequence, so candidates sit at the front; retransmit at most a couple
  // per ack to avoid bursts.
  int budget = 2;
  for (auto cand = outstanding_.begin(); cand != outstanding_.end() && budget > 0; ++cand) {
    if (cand->first + kReorderThreshold > highest_acked_) break;
    const TimePs since_tx = sim_.now() - cand->second;
    if (since_tx < (srtt_ == TimePs(0) ? kDefaultSrtt : srtt_)) continue;  // just retransmitted
    cc_->on_loss();
    emit(cand->first, /*retransmission=*/true);
    --budget;
  }
  try_send();
}

void SenderFlow::on_host_signal() {
  cc_->on_host_signal();
}

void SenderFlow::check_rto() {
  const TimePs deadline = rto();
  int budget = 4;
  for (auto& [seq, sent_at] : outstanding_) {
    if (budget == 0) break;
    if (sim_.now() - sent_at > deadline) {
      ++stats_.rto_fires;
      cc_->on_loss();
      emit(seq, /*retransmission=*/true);
      --budget;
    }
  }
  try_send();
}

}  // namespace hicc::transport
