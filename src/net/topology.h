// Config-driven Clos leaf/spine fabric: `leaves` leaf switches,
// `spines` spine switches, and `hosts_per_leaf` hosts per leaf, every
// port modeled as a QueuedLink (serialization + propagation +
// byte-bounded tail-drop FIFO). It is the only fabric model: the
// paper's single-host testbed is its one-leaf case
// (single_host_topology() in core/config.h).
//
//   host --uplink--> [leaf] --leaf_uplink--> [spine]
//                      |                        |
//   host <-downlink-- [leaf] <--spine_downlink--+
//
// Routing is destination-based on Packet::dst: intra-leaf traffic
// takes two hops (host uplink -> destination downlink), inter-leaf
// traffic four (uplink -> leaf-to-spine -> spine-to-leaf -> downlink).
// The spine is chosen by stateless ECMP: a splitmix64 hash of
// (ecmp_seed, flow, sender, dst), so every packet of a flow takes the
// same path and two runs with equal seeds make identical choices --
// the fabric draws no RNG stream and schedules no events of its own.
//
// The fabric is deliberately uncongested in the paper's experiments:
// per-port drop counts (plus an O(1) running total) let experiments
// verify the "all drops are host drops" claim (Fig 1 footnote) per
// receiver even with thousands of ports.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "net/link.h"
#include "net/packet.h"
#include "sim/parallel.h"
#include "sim/simulator.h"

namespace hicc::net {

/// Switch-port parameters of the single-host testbed: every port of
/// its one-leaf Clos takes these (core/config.h, single_host_topology).
struct FabricParams {
  BitRate link_rate = BitRate::gbps(100);
  /// Per-port switch buffering.
  Bytes switch_buffer = Bytes::mib(8);
  /// One-way propagation of every hop (host-to-ToR and ToR-to-host).
  TimePs propagation = TimePs::from_us(2);
};

/// Clos topology + timing parameters. Validated by
/// hicc::validate(const ClusterConfig&) (src/core/validate.h).
struct TopologyConfig {
  int leaves = 2;
  int spines = 2;
  int hosts_per_leaf = 4;
  /// Host-to-leaf (and leaf-to-host) link rate.
  BitRate host_link_rate = BitRate::gbps(100);
  /// Leaf-to-spine (and spine-to-leaf) link rate.
  BitRate fabric_link_rate = BitRate::gbps(100);
  /// One-way propagation of a host edge link.
  TimePs edge_propagation = TimePs::from_us(2);
  /// One-way propagation of a leaf-spine hop.
  TimePs fabric_propagation = TimePs::from_us(2);
  /// Per-port buffering on host-facing ports.
  Bytes edge_buffer = Bytes::mib(8);
  /// Per-port buffering on leaf-spine ports.
  Bytes fabric_buffer = Bytes::mib(8);
  /// Seed of the stateless ECMP hash; equal seeds give equal paths.
  std::uint64_t ecmp_seed = 1;

  [[nodiscard]] constexpr int num_hosts() const { return leaves * hosts_per_leaf; }
  [[nodiscard]] constexpr int leaf_of(int host) const { return host / hosts_per_leaf; }
};

/// The Clos fabric. Hosts are numbered 0..num_hosts()-1, filled leaf
/// by leaf (host h sits under leaf h / hosts_per_leaf).
class ClosFabric {
 public:
  /// Canonical partition layout for ParallelEngine runs: the fabric
  /// interior (leaf/spine links + host downlinks) is partition 0, host
  /// h (its FullHost, serving senders, and uplink) is partition 1+h.
  static constexpr int kFabricPartition = 0;
  [[nodiscard]] static constexpr int host_partition(int h) { return h + 1; }

  /// `deliver(h, p)` is invoked for every packet that survives to host
  /// h's downlink.
  ClosFabric(sim::Simulator& sim, const TopologyConfig& cfg,
             sim::InlineCallback<void(int, Packet)> deliver)
      : cfg_(cfg), deliver_(std::move(deliver)) {
    build(sim, nullptr);
  }

  /// Partitioned construction: each host h's uplink lives on (and is
  /// sent into from) engine.sim(host_partition(h)); everything else
  /// lives on engine.sim(kFabricPartition). Edge links are marked
  /// cross-partition, so their deliveries ride the engine mailboxes;
  /// the event stream is otherwise identical to the serial fabric.
  ClosFabric(sim::ParallelEngine& engine, const TopologyConfig& cfg,
             sim::InlineCallback<void(int, Packet)> deliver)
      : cfg_(cfg), deliver_(std::move(deliver)) {
    build(engine.sim(kFabricPartition), &engine);
  }

  ClosFabric(const ClosFabric&) = delete;
  ClosFabric& operator=(const ClosFabric&) = delete;

  /// Host `src` transmits toward `p.dst`. Returns false on a fabric
  /// drop (at the host's uplink port).
  bool send_from_host(int src, Packet p) {
    return host_up_[static_cast<std::size_t>(src)]->send(std::move(p));
  }

  /// Stateless ECMP spine choice for a packet's flow key. A pure
  /// function of (ecmp_seed, flow, sender, dst): same seed -> same
  /// spine, so paths are reproducible across runs and processes.
  [[nodiscard]] int ecmp_spine(const Packet& p) const {
    std::uint64_t state = cfg_.ecmp_seed;
    state = splitmix64(state) ^ static_cast<std::uint32_t>(p.flow);
    state = splitmix64(state) ^ static_cast<std::uint32_t>(p.sender);
    state = splitmix64(state) ^ static_cast<std::uint32_t>(p.dst);
    return static_cast<int>(splitmix64(state) % static_cast<std::uint64_t>(cfg_.spines));
  }

  /// Total packets dropped inside the fabric: fabric-owned ports feed
  /// one running total at drop time (QueuedLink::set_drop_total), host
  /// uplinks each feed a per-host slot so partitioned runs stay
  /// single-writer -- the snapshot sums O(hosts) slots, never rescans
  /// the full O(leaves*spines) port list.
  [[nodiscard]] std::int64_t fabric_drops() const {
    std::int64_t total = drop_total_;
    for (const std::int64_t d : host_up_drop_totals_) total += d;
    return total;
  }

  /// Fabric drops charged to host `h`'s ports (its uplink + downlink);
  /// the per-receiver "all drops are host drops" check reads this.
  [[nodiscard]] std::int64_t host_port_drops(int h) const {
    return host_up_[static_cast<std::size_t>(h)]->drops() +
           host_down_[static_cast<std::size_t>(h)]->drops();
  }

  /// Occupancy of host `h`'s downlink port -- the congestion-relevant
  /// queue in an incast toward h (its access link).
  [[nodiscard]] Bytes host_queue(int h) const {
    return host_down_[static_cast<std::size_t>(h)]->queued();
  }

  // Mutable link handles for fault injection (flap / rate / loss) and
  // per-port inspection.
  [[nodiscard]] QueuedLink& host_uplink(int h) {
    return *host_up_[static_cast<std::size_t>(h)];
  }
  [[nodiscard]] QueuedLink& host_downlink(int h) {
    return *host_down_[static_cast<std::size_t>(h)];
  }
  /// The leaf->spine link out of leaf `l` toward spine `s`.
  [[nodiscard]] QueuedLink& leaf_uplink(int l, int s) {
    return *leaf_up_[static_cast<std::size_t>(l * cfg_.spines + s)];
  }
  /// The spine->leaf link out of spine `s` toward leaf `l`.
  [[nodiscard]] QueuedLink& spine_downlink(int s, int l) {
    return *spine_down_[static_cast<std::size_t>(l * cfg_.spines + s)];
  }

  [[nodiscard]] int num_hosts() const { return cfg_.num_hosts(); }
  [[nodiscard]] const TopologyConfig& config() const { return cfg_; }

 private:
  void build(sim::Simulator& fabric_sim, sim::ParallelEngine* engine) {
    const auto hosts = static_cast<std::size_t>(cfg_.num_hosts());
    host_up_.reserve(hosts);
    host_down_.reserve(hosts);
    host_up_drop_totals_.assign(hosts, 0);
    for (int h = 0; h < cfg_.num_hosts(); ++h) {
      const int leaf = cfg_.leaf_of(h);
      // The uplink is sent into by host h's transports, so it lives in
      // (and keeps its queue state in) host h's partition.
      sim::Simulator& host_sim =
          engine != nullptr ? engine->sim(host_partition(h)) : fabric_sim;
      host_up_.push_back(std::make_unique<QueuedLink>(
          host_sim, cfg_.host_link_rate, cfg_.edge_propagation, cfg_.edge_buffer,
          [this, leaf](Packet p) { at_leaf(leaf, std::move(p)); }));
      host_down_.push_back(std::make_unique<QueuedLink>(
          fabric_sim, cfg_.host_link_rate, cfg_.edge_propagation, cfg_.edge_buffer,
          [this, h](Packet p) { deliver_(h, std::move(p)); }));
      if (engine != nullptr) {
        host_up_.back()->set_cross_partition(engine, host_partition(h),
                                             kFabricPartition);
        host_down_.back()->set_cross_partition(engine, kFabricPartition,
                                               host_partition(h));
      }
    }
    const auto pairs = static_cast<std::size_t>(cfg_.leaves * cfg_.spines);
    leaf_up_.reserve(pairs);
    spine_down_.reserve(pairs);
    for (int l = 0; l < cfg_.leaves; ++l) {
      for (int s = 0; s < cfg_.spines; ++s) {
        leaf_up_.push_back(std::make_unique<QueuedLink>(
            fabric_sim, cfg_.fabric_link_rate, cfg_.fabric_propagation,
            cfg_.fabric_buffer, [this](Packet p) { at_spine(std::move(p)); }));
        spine_down_.push_back(std::make_unique<QueuedLink>(
            fabric_sim, cfg_.fabric_link_rate, cfg_.fabric_propagation,
            cfg_.fabric_buffer, [this](Packet p) { to_host(std::move(p)); }));
      }
    }
    // Drop totals: host uplinks write from their own partition, so each
    // gets a private slot; everything else is fabric-partition-owned
    // and shares one counter.
    for (std::size_t h = 0; h < hosts; ++h) {
      host_up_[h]->set_drop_total(&host_up_drop_totals_[h]);
    }
    for (auto& l : host_down_) l->set_drop_total(&drop_total_);
    for (auto& l : leaf_up_) l->set_drop_total(&drop_total_);
    for (auto& l : spine_down_) l->set_drop_total(&drop_total_);
  }

  void at_leaf(int leaf, Packet p) {
    const int dst_leaf = cfg_.leaf_of(p.dst);
    if (dst_leaf == leaf) {
      host_down_[static_cast<std::size_t>(p.dst)]->send(std::move(p));
      return;
    }
    const int spine = ecmp_spine(p);
    leaf_up_[static_cast<std::size_t>(leaf * cfg_.spines + spine)]->send(std::move(p));
  }

  void at_spine(Packet p) {
    // The spine knows the chosen spine index from the packet's own
    // flow key (the hash is stateless), so no per-link capture needed.
    const int spine = ecmp_spine(p);
    const int dst_leaf = cfg_.leaf_of(p.dst);
    spine_down_[static_cast<std::size_t>(dst_leaf * cfg_.spines + spine)]->send(std::move(p));
  }

  void to_host(Packet p) {
    host_down_[static_cast<std::size_t>(p.dst)]->send(std::move(p));
  }

  TopologyConfig cfg_;
  sim::InlineCallback<void(int, Packet)> deliver_;
  std::int64_t drop_total_ = 0;
  /// One slot per host uplink (single-writer in partitioned runs).
  std::vector<std::int64_t> host_up_drop_totals_;
  std::vector<std::unique_ptr<QueuedLink>> host_up_;    // host -> leaf
  std::vector<std::unique_ptr<QueuedLink>> host_down_;  // leaf -> host
  std::vector<std::unique_ptr<QueuedLink>> leaf_up_;    // [leaf][spine]
  std::vector<std::unique_ptr<QueuedLink>> spine_down_; // [leaf][spine], indexed by dst leaf
};

}  // namespace hicc::net
