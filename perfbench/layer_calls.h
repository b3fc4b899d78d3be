// Isolated timings of single calls into each layer's public functions,
// made by the benchmark apart from the workload's runs. Combined with a run's
// call counts they give each layer's estimated share of run time
// (count x ns/op / run_s), labelled as an estimate: an isolated call
// runs with warm caches and no contention.
#pragma once

namespace perfbench {

struct LayerCallTimes {
  double sim_schedule_run_ns = 0.0;     // Simulator::at + run_one, one event
  double par_barrier_ns = 0.0;          // one empty ParallelEngine window, 33 partitions, 2 threads
  double net_forward_ns = 0.0;          // one packet across four ClosFabric hops
  double iommu_translate_hit_ns = 0.0;  // Iommu::try_translate on an IOTLB hit
  double mem_request_ns = 0.0;          // MemorySystem::request
  double mem_epoch_ns = 0.0;            // one fluid-solver epoch, 3 clients
  double workload_pool_churn_ns = 0.0;  // FlowPool acquire + release
  double workload_sketch_add_ns = 0.0;  // QuantileSketch::add
  double trace_row_ns = 0.0;            // one CSV row of a Tracer sampling pass
};

/// Times every call above.
[[nodiscard]] LayerCallTimes time_layer_calls();

/// Fixed-work arithmetic spin (64 splitmix64 finalizer rounds), ns per
/// iteration: a machine-speed reference stamped on every result.
[[nodiscard]] double reference_spin_ns();

}  // namespace perfbench
