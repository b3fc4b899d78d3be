// Workload-subsystem micro-benchmarks (google-benchmark): flow-pool
// churn, quantile-sketch insert+merge, and the whole-cluster open-loop
// incast event rate -- the three costs that bound million-flow runs.
// One suite of bench/micro_bench (micro_bench.h).
//
// The zero-allocation steady state of BM_FlowChurn and
// BM_SketchInsertMerge is a correctness property (the pool and sketch
// promise it), gated through their allocs_per_op counters.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/sketch.h"
#include "core/cluster.h"
#include "micro_bench.h"
#include "workload/flow_pool.h"
#include "workload/workload.h"

namespace {

using namespace hicc;
using hicc::bench::AllocTally;

/// Steady-state flow churn: acquire + release across every class of a
/// 4096-slot pool, the per-flow fixed cost of an open-loop run. One
/// iteration is one full acquire/release pair. Must be allocation-free:
/// the per-class free lists are reserved at construction, so a million
/// flows recycle the same slots (the memory-bound acceptance of
/// docs/WORKLOADS.md). This is the bench the CI regression gate pins.
void BM_FlowChurn(benchmark::State& state) {
  constexpr int kClasses = 16;
  workload::FlowPool pool(4096, kClasses);
  int cls = 0;
  AllocTally tally(state);
  for (auto _ : state) {
    const workload::FlowHandle h = pool.acquire(cls);
    benchmark::DoNotOptimize(h.generation);
    pool.release(h);
    cls = (cls + 1) % kClasses;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlowChurn);

/// Sketch ingestion + aggregation: each iteration adds one FCT-like
/// sample to one of 8 "per-host" sketches and, every 1024 samples,
/// merges all 8 into a cluster aggregate (the snapshot path). add()
/// and merge() promise zero allocation after construction.
void BM_SketchInsertMerge(benchmark::State& state) {
  constexpr int kHosts = 8;
  constexpr int kMergeEvery = 1024;
  std::vector<QuantileSketch> hosts(kHosts, QuantileSketch(0.01));
  QuantileSketch merged(0.01);
  Rng rng(2022);
  int n = 0;
  AllocTally tally(state);
  for (auto _ : state) {
    // Spread samples over ~4 decades like a real FCT stream.
    hosts[static_cast<std::size_t>(n % kHosts)].add(rng.uniform(10.0, 1e5));
    if (++n == kMergeEvery) {
      n = 0;
      merged.reset();
      for (const QuantileSketch& h : hosts) merged.merge(h);
      benchmark::DoNotOptimize(merged.count());
    }
  }
  benchmark::DoNotOptimize(merged.fingerprint());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SketchInsertMerge);

/// Whole-cluster macro bench: the 2x2x8 cluster under open-loop bursty
/// incast, end to end -- arrivals, slot churn, transport, full receiver
/// stacks, sketch recording. Arg is the engine thread count. Items/s
/// is simulator events per wall-second, the figure that bounds 1M-flow
/// sweep wall-clock.
void BM_OpenLoopIncastEventRate(benchmark::State& state) {
  std::int64_t events = 0;
  std::int64_t flows = 0;
  for (auto _ : state) {
    ClusterConfig cfg;
    cfg.topology.leaves = 2;
    cfg.topology.spines = 2;
    cfg.topology.hosts_per_leaf = 4;
    cfg.receivers = 2;
    cfg.host.rx_threads = 4;
    cfg.host.warmup = TimePs::from_us(200);
    cfg.host.measure = TimePs::from_ms(1);
    cfg.parallelism = static_cast<int>(state.range(0));
    cfg.workload.pattern = workload::Pattern::kIncast;
    cfg.workload.arrival = workload::Arrival::kBursty;
    cfg.workload.rate_per_s = 50e3;
    cfg.workload.fanout = 4;
    cfg.workload.max_active = 256;
    ClusterExperiment exp(std::move(cfg));
    const ClusterMetrics m = exp.run();
    events += static_cast<std::int64_t>(m.events_executed);
    flows += m.workload.flows_completed;
    benchmark::DoNotOptimize(events);
  }
  state.counters["engine_threads"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
  state.counters["flows_completed"] = benchmark::Counter(
      static_cast<double>(flows), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_OpenLoopIncastEventRate)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace
