// Swift congestion control (Kumar et al., SIGCOMM 2020), as deployed
// with the SNAP stack in the paper's cluster.
//
// Swift is delay-based AIMD with the RTT decomposed into a fabric
// component and a host (endpoint) component, each with its own target
// and its own window; the effective window is the minimum. The paper's
// receiver uses a host target delay of 100us "to account for inflation
// in host delays due to CPU bottlenecks, queueing delay at the NIC
// buffer and NIC-to-memory DMA latency" (§3.1) -- and that very target,
// against a 1MB NIC buffer, is why Swift cannot see interconnect
// congestion before the buffer overflows once throughput exceeds
// ~81 Gbps.
#pragma once

#include <algorithm>

#include "common/units.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "transport/cc.h"

namespace hicc::transport {

/// Swift tuning parameters (defaults follow the published protocol
/// scaled to the testbed's RTTs).
struct SwiftParams {
  /// Fabric delay target (propagation + tolerable switch queueing).
  TimePs fabric_target = TimePs::from_us(40);
  /// Host (endpoint) delay target -- 100us in the paper's cluster.
  TimePs host_target = TimePs::from_us(100);
  /// Additive increase, packets per RTT.
  double additive_increase = 0.15;
  /// Multiplicative-decrease gain on (delay - target)/delay.
  double beta = 0.8;
  /// Per-decision cap on multiplicative decrease.
  double max_mdf = 0.5;
  double min_cwnd = 0.01;
  double max_cwnd = 64.0;
  /// Window reduction applied on a loss event.
  double loss_mdf = 0.5;
  /// Sub-RTT host-signal response (kHostSignal variant only): window
  /// cut per signal and cooldown between reactions. The signal is a
  /// broadcast -- every flow reacts at once -- so the per-signal cut
  /// is far gentler than a loss response.
  double host_signal_mdf = 0.15;
  TimePs host_signal_cooldown = TimePs::from_us(50);
};

/// The delay histograms Swift controllers feed on every ACK:
/// `transport.rtt_us`, `transport.host_delay_us` and
/// `transport.fabric_rtt_us`. Every controller built under one tracer
/// scope shares one set, so attach() it once per scope and hand the
/// same set to each; the default set (no tracer) records nothing.
struct SwiftProbes {
  trace::Tracer* tracer = nullptr;
  trace::ProbeId rtt;
  trace::ProbeId host_delay;
  trace::ProbeId fabric_rtt;

  /// Registers (get-or-create) the three histograms under `tracer`'s
  /// current name scope.
  [[nodiscard]] static SwiftProbes attach(trace::Tracer& tracer);
};

/// Swift controller for one flow. When `react_to_host_signal` is set,
/// the controller additionally halves the endpoint window on explicit
/// sub-RTT NIC congestion signals (§4 ablation).
class SwiftCc final : public CongestionControl {
 public:
  /// `probes`, when attached to a tracer, are the delay histograms
  /// `on_ack` feeds (behind a single null check).
  SwiftCc(sim::Simulator& sim, SwiftParams params, bool react_to_host_signal = false,
          SwiftProbes probes = {});

  void on_ack(const AckInfo& info) override;
  void on_loss() override;
  void on_host_signal() override;

  [[nodiscard]] double cwnd() const override { return std::min(fabric_cwnd_, host_cwnd_); }
  [[nodiscard]] const char* name() const override {
    return react_to_host_signal_ ? "swift+host-signal" : "swift";
  }

  [[nodiscard]] double fabric_cwnd() const { return fabric_cwnd_; }
  [[nodiscard]] double host_cwnd() const { return host_cwnd_; }

 private:
  /// One AIMD window update against one delay/target pair.
  void update_window(double& cwnd, TimePs delay, TimePs target, TimePs& last_decrease);
  void clamp(double& cwnd) const;

  sim::Simulator& sim_;
  SwiftParams params_;
  bool react_to_host_signal_;
  SwiftProbes probes_;  // tracer null unless tracing is enabled
  double fabric_cwnd_ = 1.0;
  double host_cwnd_ = 1.0;
  TimePs srtt_{};
  TimePs last_fabric_decrease_{};
  TimePs last_host_decrease_{};
  TimePs last_loss_decrease_{};
  TimePs last_signal_reaction_{};
};

/// Loss-based AIMD baseline ("TCP-like protocols... the total in-flight
/// bytes can still exceed NIC buffer capacity", §4). Delay-blind:
/// grows until packets drop.
class TcpLikeCc final : public CongestionControl {
 public:
  TcpLikeCc(sim::Simulator& sim, double min_cwnd = 1.0, double max_cwnd = 64.0)
      : sim_(sim), min_cwnd_(min_cwnd), max_cwnd_(max_cwnd) {}

  void on_ack(const AckInfo& info) override;
  void on_loss() override;

  [[nodiscard]] double cwnd() const override { return cwnd_; }
  [[nodiscard]] const char* name() const override { return "tcp-like"; }

 private:
  sim::Simulator& sim_;
  double min_cwnd_;
  double max_cwnd_;
  double cwnd_ = 1.0;
  TimePs srtt_{};
  TimePs last_decrease_{};
};

}  // namespace hicc::transport
