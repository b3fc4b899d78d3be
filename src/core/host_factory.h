// Reusable construction and harvesting of one full host.
//
// Experiment historically built its single receiver's stack (NUMA
// memory pair, STREAM antagonist, NIC/PCIe/IOMMU/rx-threads) inline;
// ClusterExperiment needs the same stack once per host. HostFactory
// extracts that construction -- including the exact RNG fork order the
// bitwise-determinism contract pins (mem, remote mem, receiver) -- and
// the harvest functions extract the window math that turns two counter
// snapshots into one host's Metrics. Both entry points share these, so
// a degenerate one-leaf cluster reproduces the legacy Experiment
// metrics through literally the same code path
// (tests/cluster_test.cpp pins the result bitwise).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/config.h"
#include "core/metrics.h"
#include "fault/engine.h"
#include "host/receiver_host.h"
#include "mem/memory_system.h"
#include "mem/stream_antagonist.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "transport/sender_host.h"
#include "transport/swift.h"

namespace hicc {

/// One host's full component stack (§2's Figure 2): the NIC-local and
/// remote NUMA memory systems, the optional STREAM antagonist pinned
/// to one of them, and the receiver datapath.
struct FullHost {
  std::unique_ptr<mem::MemorySystem> mem;         // NIC-local NUMA node
  std::unique_ptr<mem::MemorySystem> remote_mem;  // the other NUMA node
  std::unique_ptr<mem::StreamAntagonist> antagonist;
  std::unique_ptr<host::ReceiverHost> receiver;
};

/// Builds FullHost stacks on one simulator.
class HostFactory {
 public:
  explicit HostFactory(sim::Simulator& sim) : sim_(sim) {}

  /// Maps the experiment-level receiver knobs onto ReceiverParams
  /// (including the iommu_enabled / ats / strict overrides). With
  /// `open_loop` set the receiver is built in workload mode:
  /// `open_loop_slots` recyclable flow slots, no closed-loop reads, no
  /// victims (src/workload, docs/WORKLOADS.md).
  [[nodiscard]] static host::ReceiverParams receiver_params(const ExperimentConfig& cfg,
                                                            bool open_loop = false,
                                                            int open_loop_slots = 0);

  /// Builds one host's stack in the canonical order -- mem fork,
  /// remote-mem fork, antagonist (no fork), receiver fork -- which is
  /// the fork sequence the parity contract depends on. `num_senders`
  /// is the number of remote peers this host reads from. The defaulted
  /// open-loop arguments pass through to receiver_params().
  [[nodiscard]] FullHost make_full_host(const ExperimentConfig& cfg, int num_senders,
                                        Rng& rng, trace::Tracer* tracer,
                                        bool open_loop = false,
                                        int open_loop_slots = 0) const;

  /// Draws and discards the forks make_full_host() takes from `rng`,
  /// leaving it where building a stack would have.
  static void skip_full_host(Rng& rng);

 private:
  sim::Simulator& sim_;
};

/// Cumulative per-host counters, snapshotted at window start and end;
/// Metrics reports the deltas.
struct HostCounterSnapshot {
  std::int64_t iotlb_misses = 0;
  std::int64_t iotlb_lookups = 0;
  std::int64_t nic_arrivals = 0;
  std::int64_t nic_drops = 0;
  std::int64_t data_sent = 0;
  std::int64_t retransmits = 0;
  std::int64_t rto_fires = 0;
  std::int64_t delivered = 0;
  std::int64_t fabric_drops = 0;
  std::int64_t translation_stalls = 0;
  std::int64_t wb_stalls = 0;
  std::int64_t hol_stalls = 0;
};

/// Everything the harvest reads to compute one host's Metrics: the
/// host stack, the sender-side transports feeding it, and the wire /
/// link-rate constants for the utilization math.
struct HostHarvestSources {
  const sim::Simulator* sim = nullptr;
  host::ReceiverHost* receiver = nullptr;
  mem::MemorySystem* mem = nullptr;
  mem::MemorySystem* remote_mem = nullptr;
  std::vector<transport::SenderHost*> senders;
  /// Run-level fault accounting; null when no script. (Cluster runs
  /// share one engine, so every host's Metrics carries the same
  /// cluster-wide fault numbers.)
  const fault::FaultEngine* fault_engine = nullptr;
  net::WireFormat wire;
  BitRate link_rate{};
};

/// The delay histograms shared by the Swift controllers built under
/// `tracer`'s current scope: attached when `tracer` is non-null and the
/// config's cc algorithm is a Swift variant, else the empty set. Call
/// once per scope, where its first controller is built, and pass the
/// result to every make_congestion_control() there.
[[nodiscard]] transport::SwiftProbes swift_probes(const ExperimentConfig& cfg,
                                                  trace::Tracer* tracer);

/// Builds one flow's congestion controller per the config's cc
/// algorithm selection (shared by Experiment and ClusterExperiment).
/// Swift variants feed `probes`.
[[nodiscard]] std::unique_ptr<transport::CongestionControl> make_congestion_control(
    sim::Simulator& sim, const ExperimentConfig& cfg, const transport::SwiftProbes& probes);

/// Maps a simulator abort cause to the run-status Metrics reports --
/// shared by harvest_host_window and ClusterExperiment's parallel-mode
/// status aggregation.
[[nodiscard]] RunStatus to_run_status(sim::AbortCause cause);

/// Reads the current cumulative counters. `fabric_drops` is passed in
/// because its scope differs by caller: the whole fabric for the
/// legacy Experiment, the host's own ports for a cluster receiver.
[[nodiscard]] HostCounterSnapshot snapshot_host_counters(const HostHarvestSources& src,
                                                         std::int64_t fabric_drops);

/// Computes the window's Metrics from the start snapshot and the
/// current component state -- the single implementation of the
/// paper-figure math shared by Experiment and ClusterExperiment.
[[nodiscard]] Metrics harvest_host_window(const HostHarvestSources& src,
                                          const HostCounterSnapshot& window_start,
                                          TimePs window_start_time,
                                          std::int64_t fabric_drops_now);

}  // namespace hicc
