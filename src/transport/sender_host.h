// A sender machine: hosts the sender side of one flow per receiver
// thread and serves incoming RPC read requests from its flows' data.
//
// Per the paper (§2, footnote 1), sender hosts do not experience host
// congestion -- NIC-to-CPU backpressure exists on the transmit path --
// so senders are modeled at the transport level only: no sender-side
// NIC/PCIe/IOMMU datapath.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <memory_resource>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "sim/simulator.h"
#include "transport/flow.h"

namespace hicc::transport {

/// One of the N sender machines.
class SenderHost {
 public:
  SenderHost(sim::Simulator& sim, std::int32_t id, net::WireFormat wire,
             SenderFlow::SendFn send, Rng rng)
      : sim_(sim), id_(id), wire_(wire), send_(std::move(send)), rng_(rng) {}

  /// The flows, in ascending id order.
  using FlowList = std::vector<std::pair<std::int32_t, std::unique_ptr<SenderFlow>>>;

  [[nodiscard]] std::int32_t id() const { return id_; }

  /// Creates the sender side of flow `flow_id` with controller `cc`
  /// (or returns the existing one, discarding the new flow).
  SenderFlow& add_flow(std::int32_t flow_id, std::unique_ptr<CongestionControl> cc) {
    auto flow = std::make_unique<SenderFlow>(sim_, flow_id, id_, wire_, std::move(cc),
                                             send_, rng_.fork(), &scoreboard_nodes_);
    const auto it = std::ranges::lower_bound(flows_, flow_id, {}, &FlowList::value_type::first);
    if (it != flows_.end() && it->first == flow_id) return *it->second;
    return *flows_.emplace(it, flow_id, std::move(flow))->second;
  }

  /// Flow lifecycle hook for dynamic workloads: when set, a read
  /// request for an unknown flow id creates that flow on first use
  /// (controller supplied by the factory) instead of being ignored.
  /// Creation order is event order, so runs stay deterministic; once a
  /// slot's flow exists it is reused by every later occupancy, keeping
  /// the steady state allocation-free (docs/WORKLOADS.md).
  using FlowFactory = std::function<std::unique_ptr<CongestionControl>(std::int32_t)>;
  void set_flow_factory(FlowFactory factory) { factory_ = std::move(factory); }

  /// The sender side of flow `flow_id`, or null if it does not exist.
  [[nodiscard]] SenderFlow* find_flow(std::int32_t flow_id) {
    const auto it = std::ranges::lower_bound(flows_, flow_id, {}, &FlowList::value_type::first);
    return it != flows_.end() && it->first == flow_id ? it->second.get() : nullptr;
  }

  /// Handles a packet arriving from the fabric: a read request queues
  /// data on the flow; an ACK advances it; a host signal fans out to
  /// every flow. Unknown flows are ignored (or created via the flow
  /// factory when one is installed and a read request arrives).
  void on_packet(const net::Packet& p) {
    if (p.kind == net::PacketKind::kHostSignal) {
      on_host_signal();
      return;
    }
    SenderFlow* target = find_flow(p.flow);
    if (target == nullptr) {
      if (!factory_ || p.kind != net::PacketKind::kReadRequest) return;
      target = &add_flow(p.flow, factory_(p.flow));
    }
    switch (p.kind) {
      case net::PacketKind::kReadRequest:
        // The request's payload field carries the read size.
        target->enqueue_packets(
            std::max<std::int64_t>(1, p.payload.count() / wire_.mtu_payload.count()));
        break;
      case net::PacketKind::kAck:
        target->on_ack(p);
        break;
      case net::PacketKind::kData:
      case net::PacketKind::kHostSignal:  // handled above
        break;
    }
  }

  /// Fans an out-of-band host congestion signal to every flow.
  /// flows_ is ordered by id so this fan-out (which mutates cwnd and
  /// may schedule sends) visits flows in a stdlib-independent order.
  void on_host_signal() {
    for (auto& [id, flow] : flows_) flow->on_host_signal();
  }

  /// Every flow in ascending id order. A flat array rather than a
  /// tree, so the per-sample `transport.cwnd_avg` walk over every
  /// flow streams through memory instead of chasing nodes.
  [[nodiscard]] const FlowList& flows() const { return flows_; }

 private:
  sim::Simulator& sim_;
  std::int32_t id_;
  net::WireFormat wire_;
  SenderFlow::SendFn send_;
  Rng rng_;
  FlowFactory factory_;
  /// Every flow's SACK-scoreboard nodes. A node freed by an ACK is
  /// reused by the next send, so steady-state traffic allocates
  /// nothing. No lock: a host and its flows live on one partition.
  /// Pools stop at 64-byte blocks, which hold a map node (48 bytes in
  /// libstdc++); fewer pools make the resource cheaper to build, and
  /// tests/alloc_test.cpp catches nodes that outgrow them. Declared
  /// before `flows_` so it outlives them.
  std::pmr::unsynchronized_pool_resource scoreboard_nodes_{
      std::pmr::pool_options{.max_blocks_per_chunk = 0, .largest_required_pool_block = 64}};
  FlowList flows_;
};

}  // namespace hicc::transport
