// A receiver (SNAP-style) network-stack thread pinned to one core.
//
// Each thread polls its completion queue and processes packets at a
// fixed per-packet CPU cost (~2.6us for a 4KB MTU -> ~12.6 Gbps per
// core, so ~8 cores saturate the 92 Gbps goodput ceiling, matching
// Figure 3's CPU-bottlenecked region). Processing includes the copy to
// the application buffer; the copy's memory-bus traffic is accounted
// by the ReceiverHost as a fluid client.
#pragma once

#include <cstdint>
#include <utility>

#include "common/ring.h"
#include "common/rng.h"
#include "common/units.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace hicc::host {

/// Per-thread cost model.
struct RxThreadParams {
  /// CPU time to process one MTU packet (protocol + copy).
  TimePs per_packet_cost = TimePs::from_ns(2600);
  /// Uniform jitter applied to each packet's cost (+-fraction).
  double cost_jitter = 0.10;
};

/// One polling receiver thread.
class RxThread {
 public:
  /// `processed(pkt, nic_arrival)` fires when the stack finishes a
  /// packet -- the end of the paper's "host delay" interval.
  using ProcessedFn = sim::InlineCallback<void(const net::Packet&, TimePs)>;

  RxThread(sim::Simulator& sim, int id, RxThreadParams params, Rng rng, ProcessedFn processed)
      : sim_(sim), id_(id), params_(params), rng_(rng), processed_(std::move(processed)) {}

  RxThread(const RxThread&) = delete;
  RxThread& operator=(const RxThread&) = delete;

  /// Completion delivered by the NIC.
  void enqueue(net::Packet p, TimePs nic_arrival) {
    queue_.push_back(Completion{std::move(p), nic_arrival});
    maybe_start();
  }

  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] std::int64_t processed_count() const { return processed_count_; }
  [[nodiscard]] int id() const { return id_; }

  /// Fault hook (host.deschedule): while descheduled the thread stops
  /// picking up work (completions keep queueing). A packet already
  /// being processed finishes. Resuming drains the backlog.
  void set_descheduled(bool descheduled) {
    descheduled_ = descheduled;
    if (!descheduled_) maybe_start();
  }
  [[nodiscard]] bool descheduled() const { return descheduled_; }

 private:
  void maybe_start() {
    if (busy_ || descheduled_ || queue_.empty()) return;
    busy_ = true;
    const double jitter = rng_.uniform(1.0 - params_.cost_jitter, 1.0 + params_.cost_jitter);
    const auto cost = TimePs(static_cast<std::int64_t>(
        static_cast<double>(params_.per_packet_cost.ps()) * jitter));
    sim_.after(cost, [this] {
      const Completion done = queue_.front();
      queue_.pop_front();
      busy_ = false;
      ++processed_count_;
      processed_(done.pkt, done.nic_arrival);
      maybe_start();
    });
  }

  /// A DMA-completed packet waiting for the thread.
  struct Completion {
    net::Packet pkt;
    TimePs nic_arrival;
  };

  sim::Simulator& sim_;
  int id_;
  RxThreadParams params_;
  Rng rng_;
  ProcessedFn processed_;
  Ring<Completion> queue_;
  bool busy_ = false;
  bool descheduled_ = false;
  std::int64_t processed_count_ = 0;
};

}  // namespace hicc::host
