// Experiment: assembles the full system (memory, IOMMU, PCIe, NIC,
// receiver threads, fabric, sender hosts, congestion control), runs
// warmup + a measurement window, and harvests Metrics. The fabric is
// the one-leaf ClosFabric of single_host_topology() on the
// experiment's one simulator: host 0 the receiver, host 1+i sender i.
//
// This is the primary public entry point of the library:
//
//   hicc::ExperimentConfig cfg;
//   cfg.rx_threads = 12;
//   cfg.iommu_enabled = true;
//   hicc::Experiment exp(cfg);
//   const hicc::Metrics m = exp.run();
//
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/config.h"
#include "core/host_factory.h"
#include "core/metrics.h"
#include "fault/engine.h"
#include "host/receiver_host.h"
#include "mem/memory_system.h"
#include "mem/stream_antagonist.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "transport/sender_host.h"

namespace hicc {

/// One fully-wired simulation instance. Build one Experiment per
/// configuration point; run() may be called once.
class Experiment {
 public:
  explicit Experiment(ExperimentConfig cfg);

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;
  ~Experiment();

  /// Runs warmup + measurement and returns the window's metrics.
  Metrics run();

  /// Advances the simulation by `dt` (for incremental/example use).
  void advance(TimePs dt);

  /// Starts the workload without running (for incremental use).
  void start();

  /// Snapshot of current metrics relative to the last begin_window().
  [[nodiscard]] Metrics snapshot() const;

  /// Resets all measurement windows at the current instant.
  void begin_window();

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  /// The experiment's tracer; null unless config().trace.enabled. Used
  /// to attach a TraceSink (CSV / Chrome JSON) before start() and to
  /// finish() the capture while the experiment is still alive.
  [[nodiscard]] trace::Tracer* tracer() { return tracer_.get(); }
  [[nodiscard]] mem::MemorySystem& memory() { return *mem_; }
  [[nodiscard]] mem::MemorySystem& remote_memory() { return *remote_mem_; }
  [[nodiscard]] host::ReceiverHost& receiver() { return *receiver_; }
  [[nodiscard]] mem::StreamAntagonist& antagonist() { return *antagonist_; }
  /// Sender i's transport, i < config().num_senders.
  [[nodiscard]] const transport::SenderHost& sender(int i) const {
    return *senders_[static_cast<std::size_t>(i)];
  }
  /// The fault engine; null unless config().faults is non-empty.
  [[nodiscard]] fault::FaultEngine* fault_engine() { return fault_engine_.get(); }
  [[nodiscard]] const ExperimentConfig& config() const { return cfg_; }

 private:
  /// Harvest sources for the shared per-host window math
  /// (core/host_factory.h); fabric_drops is supplied by the caller.
  [[nodiscard]] HostHarvestSources harvest_sources() const;

  ExperimentConfig cfg_;
  Rng rng_;
  sim::Simulator sim_;
  /// Declared before the components so probe-registering constructors
  /// can take it, and so it outlives them (poll lambdas capture
  /// component pointers; the tracer only calls them while sampling).
  std::unique_ptr<trace::Tracer> tracer_;
  std::unique_ptr<mem::MemorySystem> mem_;         // NIC-local NUMA node
  std::unique_ptr<mem::MemorySystem> remote_mem_;  // the other NUMA node
  std::unique_ptr<mem::StreamAntagonist> antagonist_;
  std::unique_ptr<host::ReceiverHost> receiver_;
  std::unique_ptr<net::ClosFabric> fabric_;
  std::vector<std::unique_ptr<transport::SenderHost>> senders_;
  /// Built last (and forks rng_ last) so runs whose script never fires
  /// stay event-identical to engine-less runs; null when no script.
  std::unique_ptr<fault::FaultEngine> fault_engine_;
  HostCounterSnapshot window_start_;
  TimePs window_start_time_{};
  bool started_ = false;
};

}  // namespace hicc
