// ClusterExperiment: M senders x K receivers on a config-driven Clos
// fabric (net/topology.h), every receiver carrying the full
// NIC/PCIe/IOMMU/mem/rx-threads model via HostFactory.
//
// Host numbering: hosts 0..receivers-1 run full receiver stacks and
// drive the closed-loop read workload; hosts receivers..num_hosts-1
// are sender machines serving reads to *every* receiver. receivers=1
// gives the incast tree the paper studies; receivers>1 gives
// many-to-many traffic with several simultaneous host bottlenecks.
// Sender machines carry only their serving transports (SenderHost):
// per the paper (§2, footnote 1) the transmit path sees no host
// congestion, so a host stack there would carry no traffic.
//
// Addressing: transports write the destination host into Packet::dst;
// the ClosFabric routes purely on it. On the reverse path the
// receiver-local `sender` index is rewritten to the receiver's own
// index before transmission so the destination sender machine can
// dispatch the packet to its per-receiver transport instance
// (SenderHost itself never reads Packet::sender).
//
// Determinism: one RNG stream forked in a fixed order -- per-receiver
// host stacks, the streams of one host stack per sender machine (drawn
// and discarded unless `sender_stack_streams` is off), then
// per-(sender, receiver) transports, fault engine last. With a
// one-leaf topology, one receiver, and no sender-stack streams this is
// fork-for-fork the Experiment sequence (degenerate_cluster()); the run then
// matches Experiment's physical metrics as long as no cross-partition
// delivery lands on the same picosecond as a host-local event, which
// tests/cluster_test.cpp pins for its uncongested config.
//
// Execution: every run is partitioned onto a sim::ParallelEngine --
// fabric interior in partition 0, each host (its FullHost, serving
// transports, and uplink) in partition 1+h -- with construction order,
// RNG forks, and per-partition event order all independent of the
// thread count, so every ClusterConfig::parallelism value yields
// bitwise-identical results; at 1 the windows run on the calling
// thread. Fault scripts run on the same partitions (fault/engine.h).
// The full model and its invariants are documented in
// docs/PARALLELISM.md.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/sketch.h"
#include "core/config.h"
#include "core/host_factory.h"
#include "core/metrics.h"
#include "fault/engine.h"
#include "fault/script.h"
#include "net/topology.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "transport/sender_host.h"
#include "workload/workload.h"

namespace hicc {

namespace workload {
class WorkloadEngine;
}  // namespace workload

/// Full description of one cluster run.
struct ClusterConfig {
  /// Per-host template: receiver knobs, transport, run control, seed.
  /// `num_senders` is overridden with the topology's sender-machine
  /// count and `faults` is ignored (use ClusterConfig::faults).
  ExperimentConfig host;
  net::TopologyConfig topology;
  /// Hosts 0..receivers-1 run receiver workloads; the rest serve them.
  int receivers = 1;
  /// Draw (and discard) the RNG streams of one host stack per sender
  /// machine after the receivers' stacks. Every later stream --
  /// transports, workload engines, fault engine -- then sits where the
  /// pinned cluster outputs (fig1_cluster_scatter.csv, perfbench's
  /// clos_openloop fingerprint) expect it. Only degenerate_cluster()
  /// clears it, to fork exactly like Experiment.
  bool sender_stack_streams = true;
  /// Cluster-level fault script; net.* events target `leaf=`+`spine=`
  /// (a leaf-spine link), `host=` (a host uplink), or by default
  /// receiver 0's downlink, as in every run (docs/FAULTS.md).
  fault::FaultScript faults;
  /// Open-loop workload generation (src/workload, docs/WORKLOADS.md).
  /// When `workload.pattern != off` every receiver runs a
  /// WorkloadEngine injecting dynamic flows over a recyclable slot
  /// pool instead of the closed-loop per-flow read pipeline;
  /// `host.read_size`/`read_pipeline`/`victim_flows` are then unused
  /// (validate() enforces victim_flows == 0).
  workload::WorkloadParams workload;
  /// Per-receiver memory-antagonist heterogeneity: receiver r runs
  /// antagonist_profile[r % size()] antagonist cores instead of
  /// host.antagonist_cores. Empty (default) keeps the uniform
  /// template. Models a production fleet where only some hosts
  /// co-locate memory-heavy batch jobs (the paper's Fig. 1 population
  /// with drops at low utilization).
  std::vector<int> antagonist_profile;
  /// Threads of the sim::ParallelEngine that runs the cluster --
  /// partition 0 the fabric interior, partition 1+h host h, with the
  /// edge-link propagation delay as the conservative lookahead. Must
  /// be >= 1 (validate()). The value changes wall-clock time only:
  /// every value produces bitwise-identical metrics/trace/sweep output
  /// (docs/PARALLELISM.md; pinned by tests/parallel_test.cpp).
  int parallelism = 1;
  /// Per-(window, destination) cross-partition mailbox row bound; 0
  /// keeps the engine default (1M messages,
  /// sim/parallel.h). A run that posts more than this into one row in
  /// one window aborts deterministically with
  /// RunStatus::kMailboxOverflow -- the bound exists to turn a runaway
  /// partition into a classified failure instead of unbounded memory
  /// growth (docs/PARALLELISM.md, docs/ROBUSTNESS.md).
  std::size_t mailbox_capacity = 0;
};

/// A single-host config run as a cluster: Experiment's own one-leaf
/// topology (single_host_topology) with one receiver and N
/// transport-only senders. It matches Experiment's physical Metrics
/// while no cross-partition delivery ties a host-local event's
/// picosecond; congested configs drift apart (docs/TOPOLOGY.md).
[[nodiscard]] ClusterConfig degenerate_cluster(const ExperimentConfig& cfg);

/// Open-loop workload results for one window: counters summed and
/// sketches exactly merged across every receiver engine in fixed
/// receiver order, so the merged sketches (and their encode() bytes)
/// are identical for any --parallel=N (docs/WORKLOADS.md).
struct WorkloadMetrics {
  bool enabled = false;
  std::int64_t flows_started = 0;
  std::int64_t flows_completed = 0;
  std::int64_t pool_exhausted = 0;
  std::int64_t collectives_completed = 0;
  std::int64_t active_flows = 0;  // at snapshot instant
  double fct_p50_us = 0.0;
  double fct_p99_us = 0.0;
  double fct_p999_us = 0.0;
  double slowdown_p50 = 0.0;
  double slowdown_p99 = 0.0;
  double slowdown_p999 = 0.0;
  double host_delay_p50_us = 0.0;
  double host_delay_p99_us = 0.0;
  double host_delay_p999_us = 0.0;
  /// The merged sketches themselves, for exporters and the
  /// bitwise-determinism tests (quantiles above are derived views).
  QuantileSketch fct_us;
  QuantileSketch slowdown;
  QuantileSketch host_delay_us;
};

/// Cluster-level aggregation of the per-receiver Metrics.
struct ClusterMetrics {
  /// One Metrics per receiver host, index == host id. Each receiver's
  /// `fabric_drops` counts its own ports; `events_executed`,
  /// run status, and fault accounting are run-global.
  std::vector<Metrics> per_receiver;
  double total_app_throughput_gbps = 0.0;
  std::int64_t total_nic_buffer_drops = 0;
  std::int64_t total_data_packets_sent = 0;
  /// Whole-fabric drops over the window (every port, O(1) snapshot).
  std::int64_t total_fabric_drops = 0;
  double max_host_delay_p99_us = 0.0;
  RunStatus run_status = RunStatus::kOk;
  std::uint64_t events_executed = 0;
  double simulated_seconds = 0.0;
  /// Parallel-engine accounting. Thread-count invariant: equal for
  /// any parallelism.
  int partitions = 0;
  std::uint64_t parallel_windows = 0;
  std::uint64_t parallel_messages = 0;
  /// Open-loop workload results; enabled iff config().workload is.
  WorkloadMetrics workload;
};

/// One fully-wired multi-host simulation instance; run() may be
/// called once, like Experiment.
class ClusterExperiment {
 public:
  explicit ClusterExperiment(ClusterConfig cfg);

  ClusterExperiment(const ClusterExperiment&) = delete;
  ClusterExperiment& operator=(const ClusterExperiment&) = delete;
  ~ClusterExperiment();

  /// Runs warmup + measurement and returns the aggregated metrics.
  ClusterMetrics run();

  /// Starts every receiver's workload without running.
  void start();

  /// Resets all measurement windows at the current instant.
  void begin_window();

  /// Snapshot of current metrics relative to the last begin_window().
  [[nodiscard]] ClusterMetrics snapshot() const;

  /// The fabric-partition simulator.
  [[nodiscard]] sim::Simulator& simulator() {
    return engine_.sim(net::ClosFabric::kFabricPartition);
  }
  /// The engine running every partition; never null.
  [[nodiscard]] sim::ParallelEngine* engine() { return &engine_; }
  /// Null unless config().host.trace.enabled. Per-host component
  /// probes appear under host_prefix(h); see docs/OBSERVABILITY.md.
  [[nodiscard]] trace::Tracer* tracer() { return tracer_.get(); }
  [[nodiscard]] net::ClosFabric& fabric() { return *fabric_; }
  [[nodiscard]] host::ReceiverHost& receiver(int r) { return *groups_[static_cast<std::size_t>(r)].host.receiver; }
  [[nodiscard]] int num_receivers() const { return receivers_; }
  [[nodiscard]] int num_sender_hosts() const { return senders_per_receiver_; }
  /// Sender machine num_receivers()+s's transport serving receiver r.
  [[nodiscard]] const transport::SenderHost& sender_port(int s, int r) const {
    return *sender_ports_[static_cast<std::size_t>(s)][static_cast<std::size_t>(r)];
  }
  /// Null unless config().faults is non-empty.
  [[nodiscard]] fault::FaultEngine* fault_engine() { return fault_engine_.get(); }
  /// Receiver r's open-loop engine; null unless config().workload is
  /// enabled.
  [[nodiscard]] workload::WorkloadEngine* workload_engine(int r) {
    return workload_engines_.empty() ? nullptr
                                     : workload_engines_[static_cast<std::size_t>(r)].get();
  }
  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }

 private:
  struct ReceiverGroup {
    FullHost host;
    /// This receiver's serving transports, one per sender machine
    /// (borrowed from sender_ports_).
    std::vector<transport::SenderHost*> senders;
    HostCounterSnapshot window_start;
  };

  void dispatch(int host, net::Packet p);
  [[nodiscard]] HostHarvestSources harvest_sources(int r) const;
  /// Coordinator-side work at each engine window barrier (trace
  /// sampling at deterministic barrier instants).
  void on_barrier();

  /// Host h's partition simulator.
  [[nodiscard]] sim::Simulator& host_sim(int h) {
    return engine_.sim(net::ClosFabric::host_partition(h));
  }
  [[nodiscard]] const sim::Simulator& host_sim(int h) const {
    return engine_.sim(net::ClosFabric::host_partition(h));
  }

  ClusterConfig cfg_;
  Rng rng_;
  sim::ParallelEngine engine_;
  /// Next trace-sample instant for barrier-driven sampling.
  TimePs next_sample_{};
  int receivers_ = 0;
  int senders_per_receiver_ = 0;
  std::unique_ptr<trace::Tracer> tracer_;
  std::unique_ptr<net::ClosFabric> fabric_;
  std::vector<ReceiverGroup> groups_;
  /// sender_ports_[s][r]: sender machine receivers_+s's transport
  /// serving receiver r.
  std::vector<std::vector<std::unique_ptr<transport::SenderHost>>> sender_ports_;
  /// One open-loop engine per receiver (index == receiver); empty
  /// unless cfg_.workload is enabled.
  std::vector<std::unique_ptr<workload::WorkloadEngine>> workload_engines_;
  std::unique_ptr<fault::FaultEngine> fault_engine_;
  std::int64_t fabric_window_start_ = 0;
  TimePs window_start_time_{};
  bool started_ = false;
};

}  // namespace hicc
