// Parallel-engine micro-benchmarks (google-benchmark): the window
// barrier and mailbox merge that bound ParallelEngine's per-window
// overhead, plus the whole-cluster incast run at several engine thread
// counts so 1- vs 2-thread wall-clock is measured, not assumed. One
// suite of bench/micro_bench (micro_bench.h).
//
// Speedup is machine-dependent (a 1-core runner can only show the
// overhead side); each row records the thread count it ran with in its
// engine_threads counter (docs/PARALLELISM.md).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "micro_bench.h"
#include "sim/parallel.h"
#include "sim/simulator.h"

namespace {

using namespace hicc;
using hicc::bench::AllocTally;

/// Per-window fixed cost of the conservative engine: 9 empty partitions
/// (the 2x2x8-cluster shape) advance one lookahead window per iteration.
/// Arg is the engine thread count -- threads=1 is the pure window loop,
/// threads>1 adds the epoch/run/drain handoff between the threads (a
/// yield-then-park wait on atomic counters). Must stay
/// allocation-free after construction; this is the bench the CI
/// regression gate pins (see docs/PERFORMANCE.md).
void BM_ParallelWindowBarrier(benchmark::State& state) {
  sim::ParallelParams params;
  params.partitions = 9;
  params.lookahead = TimePs::from_us(2);
  params.threads = static_cast<int>(state.range(0));
  sim::ParallelEngine engine(params);
  TimePs end = engine.now();
  end += params.lookahead;
  engine.run_until(end);  // warm the window loop
  AllocTally tally(state);
  for (auto _ : state) {
    end += params.lookahead;  // exactly one window per iteration
    engine.run_until(end);
  }
  state.counters["engine_threads"] =
      benchmark::Counter(static_cast<double>(engine.threads()));
  state.SetItemsProcessed(static_cast<std::int64_t>(engine.windows()));
}
BENCHMARK(BM_ParallelWindowBarrier)->Arg(1)->Arg(2);

/// Cross-partition mailbox throughput: every host partition posts 8
/// messages into the fabric partition each window (64 total, over 8
/// channels), the barrier drains, merge-sorts by (time, src, seq), and
/// schedules them. Items/s is messages per wall-second; the merge path
/// must stay allocation-free once the reserved channels are warm.
void BM_ParallelMailboxMerge(benchmark::State& state) {
  constexpr int kPerSource = 8;
  sim::ParallelParams params;
  params.partitions = 9;
  params.lookahead = TimePs::from_us(2);
  params.threads = 1;
  sim::ParallelEngine engine(params);
  std::vector<sim::ParallelEngine::Channel> to_fabric;
  for (int src = 1; src < params.partitions; ++src) to_fabric.push_back(engine.connect(src, 0));
  std::uint64_t sink = 0;
  TimePs end = engine.now();
  const auto window = [&] {
    const TimePs due = end + params.lookahead;
    for (const sim::ParallelEngine::Channel channel : to_fabric) {
      for (int i = 0; i < kPerSource; ++i) {
        engine.post(channel, due, [&sink] { ++sink; });
      }
    }
    end = due;
    engine.run_until(end);
  };
  window();  // warm the channels and the destination queue
  AllocTally tally(state);
  for (auto _ : state) window();
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(engine.messages_delivered()));
}
BENCHMARK(BM_ParallelMailboxMerge);

/// Whole-cluster macro bench: the 2-leaf/2-spine 8-host incast with two
/// full receiver hosts, end to end. Arg is the engine thread count, so
/// one record holds 1- and 2-thread wall-clock side by side. Items/s is
/// simulator events per wall-second; results are bitwise-identical
/// across args (tests/parallel_test.cpp), so any delta between rows is
/// pure engine overhead or speedup.
void BM_ClusterIncast(benchmark::State& state) {
  std::int64_t events = 0;
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
    ClusterExperiment exp(std::move(cfg));
    const ClusterMetrics m = exp.run();
    events += static_cast<std::int64_t>(m.events_executed);
    benchmark::DoNotOptimize(events);
  }
  state.counters["engine_threads"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_ClusterIncast)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace
