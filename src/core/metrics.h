// Metrics harvested from one experiment run -- the quantities the
// paper's figures plot, plus supporting counters for diagnosis.
//
// Conventions: rates are per second of *simulated* time; `_gbps`
// fields are decimal gigabits (1e9 bits) per second; `_us` fields are
// microseconds; bare counters count events over the measurement
// window (warmup excluded). For continuous time series of the same
// quantities, enable tracing (docs/OBSERVABILITY.md).
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <type_traits>

#include "mem/memory_system.h"

namespace hicc {

/// How a run ended. Anything but kOk means the run was stopped or lost
/// early: the first three non-ok values come from inside a simulation
/// (a Simulator watchdog, or the parallel engine's mailbox bound) and
/// leave Metrics valid for the simulated time that elapsed
/// (simulated_seconds tells how much); the last four are the sweep
/// supervisor's failure taxonomy (docs/ROBUSTNESS.md) for points whose
/// crash-isolated worker process died -- their Metrics are zeroed
/// because the worker never reported any.
enum class RunStatus : std::uint8_t {
  kOk,
  kEventBudget,       // watchdog: max_events exhausted
  kStalled,           // watchdog: no time progress (self-rescheduling loop)
  kMailboxOverflow,   // parallel engine: cross-partition mailbox bound hit
  kCrashed,           // supervisor: worker died (signal / bad exit / no record)
  kTimedOut,          // supervisor: worker exceeded the per-point timeout
  kOomKilled,         // supervisor: worker SIGKILLed from outside (OOM killer)
  kRetriesExhausted,  // supervisor: every allowed attempt failed
};

/// Short machine-stable label ("ok" / "event_budget" / "stalled" /
/// "mailbox_overflow" / "crashed" / "timed_out" / "oom_killed" /
/// "retries_exhausted"). These labels are the `run_status` field of
/// every hicc.sweep.v1 record and journal entry; the taxonomy table in
/// docs/ROBUSTNESS.md is kept in lockstep by the `docs-run-status`
/// lint rule.
[[nodiscard]] inline const char* to_string(RunStatus status) {
  switch (status) {
    case RunStatus::kOk: return "ok";
    case RunStatus::kEventBudget: return "event_budget";
    case RunStatus::kStalled: return "stalled";
    case RunStatus::kMailboxOverflow: return "mailbox_overflow";
    case RunStatus::kCrashed: return "crashed";
    case RunStatus::kTimedOut: return "timed_out";
    case RunStatus::kOomKilled: return "oom_killed";
    case RunStatus::kRetriesExhausted: return "retries_exhausted";
  }
  return "unknown";
}

/// Inverse of to_string(RunStatus): parses a label back into the enum
/// (used when re-reading hicc.sweep.v1 records and journal entries).
/// Returns false and leaves *out untouched on an unknown label.
[[nodiscard]] inline bool run_status_from_string(const std::string& label, RunStatus* out) {
  for (const RunStatus s :
       {RunStatus::kOk, RunStatus::kEventBudget, RunStatus::kStalled,
        RunStatus::kMailboxOverflow, RunStatus::kCrashed, RunStatus::kTimedOut,
        RunStatus::kOomKilled, RunStatus::kRetriesExhausted}) {
    if (label == to_string(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

/// Measurement-window results of an Experiment::run().
struct Metrics {
  // --------------------------------------------------- headline plots
  /// Application-level throughput: payload bytes processed per second,
  /// in Gbit/s (the paper's y-axis; ceiling ~92 Gbps at 4K MTU).
  double app_throughput_gbps = 0.0;
  /// Wire bytes arriving at the receiver NIC / access-link capacity;
  /// dimensionless fraction of line rate (Figure 1's x-axis).
  double link_utilization = 0.0;
  /// Host packet drops / data packets transmitted; dimensionless
  /// fraction in [0, 1] (Figure 1/3/4/5/6).
  double drop_rate = 0.0;
  /// IOTLB misses per delivered packet; dimensionless ratio
  /// (Figures 3/4/5, right panels).
  double iotlb_misses_per_packet = 0.0;
  /// Memory bandwidth on the NIC-local NUMA node, decimal GB/s per
  /// traffic class (Fig 6 top).
  mem::BandwidthReport memory;

  // ------------------------------------------------------ host delay
  /// Per-packet host delay (NIC arrival -> stack processing done),
  /// microseconds. This is the delay Swift's 100us host target sees.
  double host_delay_p50_us = 0.0;
  double host_delay_p99_us = 0.0;
  double host_delay_max_us = 0.0;

  // -------------------------------------- victim flows (isolation)
  /// Completed victim reads in the window (count).
  std::int64_t victim_reads = 0;
  /// Victim read-completion latency percentiles, microseconds.
  double victim_read_p50_us = 0.0;
  double victim_read_p99_us = 0.0;

  // ------------------------------- remote NUMA node (§4 experiments)
  /// Bandwidth report of the other NUMA node, decimal GB/s.
  mem::BandwidthReport remote_memory;

  // -------------------------------------------------------- counters
  // All counters are packet/event counts over the measurement window.
  std::int64_t data_packets_sent = 0;  // packets: first transmissions + retx
  std::int64_t retransmits = 0;        // packets
  std::int64_t rto_fires = 0;          // timeout events
  std::int64_t delivered_packets = 0;  // packets processed by rx threads
  std::int64_t nic_buffer_drops = 0;   // packets dropped at the NIC SRAM
  std::int64_t fabric_drops = 0;       // packets dropped in the fabric
  std::int64_t iotlb_misses = 0;       // translation lookups that walked
  std::int64_t iotlb_lookups = 0;      // translation lookups total
  std::int64_t pcie_translation_stalls = 0;  // head-of-line walk stalls
  std::int64_t pcie_write_buffer_stalls = 0; // write-buffer-full stalls
  std::int64_t hol_descriptor_stalls = 0;    // DMA stalls awaiting descriptors

  // ------------------------------------------------------- transport
  /// Mean congestion window across all flows at window end, in
  /// MTU-sized packets (not bytes).
  double avg_cwnd = 0.0;

  // ---------------------------------------------- faults (if scripted)
  // Zero/empty unless the run carried a FaultScript (docs/FAULTS.md).
  /// Fault-window activations over the whole run.
  std::int64_t fault_windows = 0;
  /// NIC buffer drops that landed inside fault windows.
  std::int64_t fault_drops = 0;
  /// Union of active fault windows, microseconds (whole run).
  double fault_active_us = 0.0;
  /// Fault-window time during which drops were occurring -- the spans
  /// where congestion control is blind to a host-side disturbance.
  double fault_blind_us = 0.0;

  // -------------------------------------------------------- run info
  /// How the run ended; != kOk when a watchdog aborted it early.
  RunStatus run_status = RunStatus::kOk;
  /// Human-readable abort explanation; empty when run_status == kOk.
  std::string run_status_detail;
  /// Length of the measurement window in simulated seconds.
  double simulated_seconds = 0.0;
  /// Total simulator events executed since construction (whole run,
  /// not the window). The only Metrics field tracing may change:
  /// enabling the tracer adds its sampler events here.
  std::uint64_t events_executed = 0;
};

/// The one list of hicc.sweep.v1 metrics keys: calls f(key, field)
/// once per key, in record order, with `field` a reference into `m`
/// (const when `m` is) of type double, std::int64_t, std::uint64_t,
/// RunStatus or std::string. The JSON and columnar writers
/// (sweep/sweep.cpp, sweep/columnar.cpp) and the tests' comparator
/// iterate it, and the docs-metric lint rule checks every key against
/// the "Run metrics" table of docs/OBSERVABILITY.md.
template <class M, class F>
  requires std::same_as<std::remove_const_t<M>, Metrics>
void for_each_field(M& m, F&& f) {
  auto& by_class = m.memory.by_class_gbytes_per_sec;
  f("app_throughput_gbps", m.app_throughput_gbps);
  f("link_utilization", m.link_utilization);
  f("drop_rate", m.drop_rate);
  f("iotlb_misses_per_packet", m.iotlb_misses_per_packet);
  f("memory_total_gbytes_per_sec", m.memory.total_gbytes_per_sec);
  f("memory_nic_dma_gbytes_per_sec", by_class[static_cast<int>(mem::MemClass::kNicDma)]);
  f("memory_iommu_walk_gbytes_per_sec", by_class[static_cast<int>(mem::MemClass::kIommuWalk)]);
  f("memory_cpu_copy_gbytes_per_sec", by_class[static_cast<int>(mem::MemClass::kCpuCopy)]);
  f("memory_antagonist_gbytes_per_sec", by_class[static_cast<int>(mem::MemClass::kAntagonist)]);
  f("remote_memory_total_gbytes_per_sec", m.remote_memory.total_gbytes_per_sec);
  f("host_delay_p50_us", m.host_delay_p50_us);
  f("host_delay_p99_us", m.host_delay_p99_us);
  f("host_delay_max_us", m.host_delay_max_us);
  f("victim_reads", m.victim_reads);
  f("victim_read_p50_us", m.victim_read_p50_us);
  f("victim_read_p99_us", m.victim_read_p99_us);
  f("data_packets_sent", m.data_packets_sent);
  f("retransmits", m.retransmits);
  f("rto_fires", m.rto_fires);
  f("delivered_packets", m.delivered_packets);
  f("nic_buffer_drops", m.nic_buffer_drops);
  f("fabric_drops", m.fabric_drops);
  f("iotlb_misses", m.iotlb_misses);
  f("iotlb_lookups", m.iotlb_lookups);
  f("pcie_translation_stalls", m.pcie_translation_stalls);
  f("pcie_write_buffer_stalls", m.pcie_write_buffer_stalls);
  f("hol_descriptor_stalls", m.hol_descriptor_stalls);
  f("avg_cwnd", m.avg_cwnd);
  f("fault_windows", m.fault_windows);
  f("fault_drops", m.fault_drops);
  f("fault_active_us", m.fault_active_us);
  f("fault_blind_us", m.fault_blind_us);
  f("run_status", m.run_status);
  f("run_status_detail", m.run_status_detail);
  f("simulated_seconds", m.simulated_seconds);
  f("events_executed", m.events_executed);
}

}  // namespace hicc
