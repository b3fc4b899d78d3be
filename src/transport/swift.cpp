#include "transport/swift.h"

#include <algorithm>

namespace hicc::transport {

namespace {
/// EWMA RTT smoothing (alpha = 1/8, TCP-style).
TimePs smooth(TimePs srtt, TimePs sample) {
  if (srtt == TimePs(0)) return sample;
  return TimePs((srtt.ps() * 7 + sample.ps()) / 8);
}
}  // namespace

SwiftProbes SwiftProbes::attach(trace::Tracer& tracer) {
  return SwiftProbes{.tracer = &tracer,
                     .rtt = tracer.histogram("transport.rtt_us", "us"),
                     .host_delay = tracer.histogram("transport.host_delay_us", "us"),
                     .fabric_rtt = tracer.histogram("transport.fabric_rtt_us", "us")};
}

SwiftCc::SwiftCc(sim::Simulator& sim, SwiftParams params, bool react_to_host_signal,
                 SwiftProbes probes)
    : sim_(sim), params_(params), react_to_host_signal_(react_to_host_signal), probes_(probes) {}

void SwiftCc::clamp(double& cwnd) const {
  cwnd = std::clamp(cwnd, params_.min_cwnd, params_.max_cwnd);
}

void SwiftCc::update_window(double& cwnd, TimePs delay, TimePs target,
                            TimePs& last_decrease) {
  if (delay < target) {
    // Additive increase: ai per RTT. With cwnd >= 1 there are ~cwnd
    // acks per RTT, so ai/cwnd per ack. Below 1 the increase is scaled
    // by cwnd: with hundreds of paced flows sharing one host, a full
    // ai step per (rare) ack makes the aggregate ramp far outrun the
    // 1MB NIC buffer and locks the system into heavy loss; Swift
    // deployments temper small-cwnd flows similarly via flow-scaled
    // targets.
    cwnd += (cwnd >= 1.0) ? params_.additive_increase / cwnd
                          : params_.additive_increase * cwnd;
  } else if (sim_.now() - last_decrease > srtt_) {
    // Multiplicative decrease proportional to overshoot, at most once
    // per RTT.
    const double overshoot = (delay - target) / delay;
    const double factor = std::max(1.0 - params_.beta * overshoot, 1.0 - params_.max_mdf);
    cwnd *= factor;
    last_decrease = sim_.now();
  }
  clamp(cwnd);
}

void SwiftCc::on_ack(const AckInfo& info) {
  srtt_ = smooth(srtt_, info.rtt);
  const TimePs fabric_delay =
      info.rtt > info.host_delay ? info.rtt - info.host_delay : TimePs(0);
  if (probes_.tracer != nullptr) {
    // The paper's key observable: the same RTT decomposition Swift
    // itself acts on, recorded per ack.
    probes_.tracer->observe(probes_.rtt, info.rtt.us());
    probes_.tracer->observe(probes_.host_delay, info.host_delay.us());
    probes_.tracer->observe(probes_.fabric_rtt, fabric_delay.us());
  }
  update_window(fabric_cwnd_, fabric_delay, params_.fabric_target, last_fabric_decrease_);
  update_window(host_cwnd_, info.host_delay, params_.host_target, last_host_decrease_);
}

void SwiftCc::on_loss() {
  if (sim_.now() - last_loss_decrease_ <= srtt_) return;
  last_loss_decrease_ = sim_.now();
  fabric_cwnd_ *= 1.0 - params_.loss_mdf;
  host_cwnd_ *= 1.0 - params_.loss_mdf;
  clamp(fabric_cwnd_);
  clamp(host_cwnd_);
}

void SwiftCc::on_host_signal() {
  if (!react_to_host_signal_) return;
  if (sim_.now() - last_signal_reaction_ <= params_.host_signal_cooldown) return;
  last_signal_reaction_ = sim_.now();
  // Sub-RTT response: the signal comes straight from the NIC without
  // waiting for delivery + ACK, so it reacts before the buffer fills.
  host_cwnd_ *= 1.0 - params_.host_signal_mdf;
  clamp(host_cwnd_);
}

void TcpLikeCc::on_ack(const AckInfo& info) {
  srtt_ = smooth(srtt_, info.rtt);
  cwnd_ += (cwnd_ >= 1.0) ? 1.0 / cwnd_ : 1.0;
  cwnd_ = std::min(cwnd_, max_cwnd_);
}

void TcpLikeCc::on_loss() {
  if (sim_.now() - last_decrease_ <= srtt_) return;
  last_decrease_ = sim_.now();
  cwnd_ = std::max(cwnd_ * 0.5, min_cwnd_);
}

}  // namespace hicc::transport
