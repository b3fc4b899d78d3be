// Shared support for the micro-bench suites (micro_engine.cpp,
// micro_topology.cpp, micro_parallel.cpp, micro_workload.cpp), which
// build into one google-benchmark binary, bench/micro_bench, with
// micro_main.cpp. Its record is google-benchmark's own
// `--benchmark_out` JSON; docs/PERFORMANCE.md "Micro-benchmarks"
// describes the rows, the committed baseline and the CI gate.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>

namespace hicc::bench {

/// Counts heap allocations from construction to destruction and reports
/// their average per iteration as the `allocs_per_op` counter. Build it
/// right before the timed loop; rows without one carry no such counter.
class AllocTally {
 public:
  explicit AllocTally(benchmark::State& state);
  ~AllocTally();
  AllocTally(const AllocTally&) = delete;
  AllocTally& operator=(const AllocTally&) = delete;

 private:
  benchmark::State& state_;
  std::uint64_t start_;
};

}  // namespace hicc::bench
