// The benchmark's workloads and the one function that runs them.
//
// Each workload is a batch job: the benchmark builds a config from the
// workload name and the seed, then drives the library only through its
// public entry points -- validate(), the Experiment / ClusterExperiment
// constructor, start(), advance() / run_until(), begin_window() and
// snapshot(). Host (wall-clock) time is measured around those calls;
// every simulated quantity is deterministic for a seed and feeds the
// correctness fingerprint, never a speed metric.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "spans.h"

namespace perfbench {

enum class Workload : std::uint8_t { kHostIncast, kClosOpenloop, kHostTelemetry };

[[nodiscard]] const char* to_string(Workload w);
[[nodiscard]] bool workload_from_string(std::string_view s, Workload* out);

/// What one repetition runs.
struct RepOptions {
  Workload workload = Workload::kHostIncast;
  /// The workload seed; the library only sees the config built from it.
  std::uint64_t seed = 1;
  /// Shorter simulated lengths, for the benchmark's own test.
  bool short_mode = false;
  /// host_telemetry only: false runs the same config with the probe
  /// tracer off (the baseline its trace overhead is measured against).
  bool probe_trace = true;
};

/// Simulated per-layer counts of one run, summed over every receiver
/// and over warmup + measure unless a field says otherwise.
struct LayerCounts {
  std::uint64_t events = 0;
  std::int64_t delivered = 0;     // packets processed by rx threads
  std::int64_t data_packets = 0;  // data packets put on the wire, first + retx
  std::int64_t retransmits = 0;
  std::int64_t rto_fires = 0;
  std::int64_t fabric_drops = 0;
  std::int64_t nic_arrivals = 0;
  std::int64_t nic_drops = 0;
  std::int64_t hol_stalls = 0;
  std::int64_t write_tlps = 0;
  std::int64_t translation_stalls = 0;
  std::int64_t write_buffer_stalls = 0;
  std::int64_t iommu_lookups = 0;
  std::int64_t iommu_misses = 0;
  std::int64_t walk_mem_reads = 0;
  double mem_total_gbs = 0.0;  // measure window, summed over receivers
  std::int64_t fault_windows = 0;
  double fault_active_us = 0.0;
  double fault_blind_us = 0.0;
  double simulated_us = 0.0;  // warmup + measure
  std::int64_t flows_started = 0;
  std::int64_t flows_completed = 0;
  std::int64_t pool_exhausted = 0;
  int partitions = 0;
  std::uint64_t windows = 0;
  double lookahead_us = 0.0;  // one engine window
  std::uint64_t messages = 0;
  std::uint64_t max_mailbox_depth = 0;
  double partition_imbalance = 0.0;  // max / mean partition events
};

/// One repetition: host timings, the fingerprint and the counts.
struct RepResult {
  /// False when the run could not be checked: invalid config, a
  /// non-ok RunStatus, a failed sanity check or an I/O error.
  bool ok = false;
  std::string error;
  std::uint64_t fingerprint = 0;
  LayerCounts counts;

  // Host time, seconds.
  double validate_s = 0.0;
  double construct_s = 0.0;  // includes attaching the probe-trace sink
  double start_s = 0.0;
  double run_s = 0.0;      // every advance/run_until call (+ the tracer's finish)
  double harvest_s = 0.0;  // both snapshot() calls and begin_window()
  double cpu_s = 0.0;      // process CPU time during run_s, all threads
  [[nodiscard]] double setup_s() const { return validate_s + construct_s + start_s; }

  /// Host time of each simulated slice, in simulated order; run_s is
  /// their sum plus finish_s. Every repetition of one config simulates
  /// the same slices.
  std::vector<double> slice_s;
  double finish_s = 0.0;  // host_telemetry: the tracer's final finish()

  // Span-traced repetitions only.
  std::uint64_t queue_nodes_max = 0;
  std::int64_t nic_buffer_max_bytes = 0;

  // host_telemetry only.
  std::int64_t trace_rows = 0;
  std::int64_t trace_bytes = 0;
};

/// Runs one repetition, advancing the simulation in fixed 10 us slices
/// of simulated time, each timed on its own. With `spans` every library
/// call is also recorded as a span. Slicing leaves the simulated outcome
/// (and so the fingerprint) unchanged.
[[nodiscard]] RepResult run_rep(const RepOptions& opts, SpanRecorder* spans);

/// validate() + construct + start() only, for extra set-up samples.
/// Returns the host seconds taken, or a negative value on failure.
[[nodiscard]] double setup_only(const RepOptions& opts);

}  // namespace perfbench
