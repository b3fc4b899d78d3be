// A unidirectional link with an output queue: serialization at a fixed
// rate, propagation delay, and a byte-bounded FIFO that tail-drops.
// Every port of the Clos fabric (net/topology.h) is one: host uplinks
// and downlinks, and the leaf-spine links.
#pragma once

#include <cstdint>
#include <utility>

#include "common/ring.h"
#include "common/rng.h"
#include "common/send_time_memo.h"
#include "common/units.h"
#include "net/packet.h"
#include "sim/parallel.h"
#include "sim/simulator.h"

namespace hicc::net {

/// Byte-bounded output-queued link.
class QueuedLink {
 public:
  /// Inline-storage delivery callback: link delivery fires once per
  /// surviving packet, so the handler must not heap-allocate.
  using DeliverFn = sim::InlineCallback<void(Packet)>;

  /// `deliver` is invoked (at arrival time) for every packet that
  /// survives the queue.
  QueuedLink(sim::Simulator& sim, BitRate rate, TimePs propagation, Bytes queue_capacity,
             DeliverFn deliver)
      : sim_(sim),
        rate_(rate),
        propagation_(propagation),
        capacity_(queue_capacity),
        deliver_(std::move(deliver)) {}

  QueuedLink(const QueuedLink&) = delete;
  QueuedLink& operator=(const QueuedLink&) = delete;

  /// Enqueues `p`; returns false (and counts a drop) when the queue
  /// cannot hold the packet's wire bytes, the link is administratively
  /// down, or a loss window discards the packet.
  bool send(Packet p) {
    if (down_ || (loss_prob_ > 0.0 && loss_rng_ != nullptr && loss_rng_->chance(loss_prob_))) {
      record_drop();
      return false;
    }
    settle_releases();
    if (queued_ + p.wire > capacity_) {
      record_drop();
      return false;
    }
    // Occupancy is released at delivery (serialization + propagation),
    // so it over-counts by at most one propagation-delay's worth of
    // in-flight bytes; queue capacities are sized well above that.
    queued_ += p.wire;
    // Serialization start = when the transmitter frees up.
    const TimePs start = std::max(busy_until_, sim_.now());
    busy_until_ = start + rate_.time_to_send(p.wire);
    const Bytes wire = p.wire;
    const TimePs arrival = busy_until_ + propagation_;
    if (engine_ == nullptr) {
      sim_.at(arrival, [this, wire, p = std::move(p)]() mutable {
        queued_ -= wire;
        deliver_(std::move(p));
      });
    } else {
      // Cross-partition link: occupancy release stays home (queued_ is
      // src-partition state), delivery is mailed to the destination
      // partition. propagation_ >= the engine lookahead guarantees the
      // conservative contract (arrival lands at or after the window
      // end). The mailed closure reads only deliver_, which is
      // immutable after construction -- the one cross-thread access,
      // and a data-race-free one. The release is a reserved slot, not
      // an event: send() and queued() settle it with passed().
      releases_.push_back(Release{arrival, sim_.reserve_seq(), wire});
      engine_->post(channel_, arrival,
                    [this, p = std::move(p)]() mutable { deliver_(std::move(p)); });
    }
    return true;
  }

  /// Bytes currently queued or in serialization. On a cross-partition
  /// link, read it from the link's partition or from the barrier hook,
  /// where that partition is parked at the window end.
  [[nodiscard]] Bytes queued() const {
    Bytes q = queued_;
    for (std::size_t i = 0; i < releases_.size() && released(releases_[i]); ++i) {
      q -= releases_[i].wire;
    }
    return q;
  }
  /// Packets dropped so far (tail drops + down/loss-window discards).
  [[nodiscard]] std::int64_t drops() const { return drops_; }
  [[nodiscard]] BitRate rate() const { return rate_.rate(); }
  /// The simulator whose events send into this link (its partition's).
  [[nodiscard]] sim::Simulator& simulator() const { return sim_; }

  // Fault-injection hooks (src/fault/engine.cpp). Packets already in
  // serialization or flight are unaffected; only new sends see the
  // changed state, mirroring how real link events manifest.

  /// Changes the serialization rate for subsequent sends (and drops
  /// the serialization times memoized at the old one).
  void set_rate(BitRate rate) { rate_.set_rate(rate); }
  /// Administratively downs the link: every send drops.
  void set_down(bool down) { down_ = down; }
  /// Random-loss window; `prob` in [0,1], rng must outlive the window
  /// (pass prob=0 to end it).
  void set_loss(double prob, Rng* rng) {
    loss_prob_ = prob;
    loss_rng_ = rng;
  }

  /// Attaches a shared running total bumped on every drop, letting a
  /// fabric report aggregate drops in O(1) instead of rescanning every
  /// link per snapshot. Pure accounting: drops themselves (and the
  /// event stream) are unchanged. Counter must outlive the link.
  void set_drop_total(std::int64_t* total) { drop_total_ = total; }

  /// Marks this link as crossing partitions in a ParallelEngine run:
  /// connects the engine's (src,dst) channel, and every send() keeps
  /// its queue/serialization bookkeeping in the owning (src) partition
  /// but mails the delivery to `dst` through that channel. Requires
  /// propagation >= the engine lookahead. Call before the run starts;
  /// src must be the partition whose events invoke send() on this link.
  void set_cross_partition(sim::ParallelEngine* engine, int src, int dst) {
    engine_ = engine;
    channel_ = engine->connect(src, dst);
  }

 private:
  /// A cross-partition packet's occupancy release: its reserved slot at
  /// the arrival time. Arrivals on one link strictly increase, so the
  /// releases the engine has passed are a prefix of the ring.
  struct Release {
    TimePs at{};
    std::uint64_t seq = 0;
    Bytes wire{};
  };

  [[nodiscard]] bool released(const Release& r) const { return sim_.passed(r.at, r.seq); }

  void settle_releases() {
    while (!releases_.empty() && released(releases_.front())) {
      queued_ -= releases_.front().wire;
      releases_.pop_front();
    }
  }

  void record_drop() {
    ++drops_;
    if (drop_total_ != nullptr) ++*drop_total_;
  }

  sim::Simulator& sim_;
  /// The rate, with its serialization times memoized per wire size.
  SendTimeMemo rate_;
  TimePs propagation_;
  Bytes capacity_;
  DeliverFn deliver_;
  TimePs busy_until_{};
  Bytes queued_{};
  Ring<Release> releases_;  // cross-partition links only
  std::int64_t drops_ = 0;
  std::int64_t* drop_total_ = nullptr;
  sim::ParallelEngine* engine_ = nullptr;
  sim::ParallelEngine::Channel channel_{};
  bool down_ = false;
  double loss_prob_ = 0.0;
  Rng* loss_rng_ = nullptr;
};

}  // namespace hicc::net
