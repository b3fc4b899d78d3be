// Engine micro-benchmarks (google-benchmark): the hot paths that bound
// how much simulated traffic per wall-second the harness can sustain.
// One suite of bench/micro_bench (micro_bench.h).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "common/rng.h"
#include "core/experiment.h"
#include "iommu/lru_cache.h"
#include "mem/memory_system.h"
#include "micro_bench.h"
#include "sim/simulator.h"

namespace {

using namespace hicc;
using namespace hicc::literals;
using hicc::bench::AllocTally;

/// Event queue: schedule + run one event (the per-TLP cost floor).
void BM_SimulatorScheduleRun(benchmark::State& state) {
  sim::Simulator sim;
  std::int64_t t = 0;
  sim.at(TimePs(t += 100), [] {});  // warm the queue's internal storage
  sim.run_one();
  AllocTally tally(state);
  for (auto _ : state) {
    sim.at(TimePs(t += 100), [] {});
    sim.run_one();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorScheduleRun);

/// Event queue under depth: 1k pending events.
void BM_SimulatorDeepQueue(benchmark::State& state) {
  sim::Simulator sim;
  std::int64_t t = 0;
  for (int i = 0; i < 1000; ++i) sim.at(TimePs(t += 1000), [] {});
  AllocTally tally(state);
  for (auto _ : state) {
    sim.at(TimePs(t += 1000), [] {});
    sim.run_one();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorDeepQueue);

/// Timer churn: the Swift RTO/pacing pattern — a pool of armed far-future
/// timers where each step cancels one and rearms it further out, with a
/// periodic drain that pops the accumulated tombstones (no timer ever fires).
void BM_SimulatorTimerChurn(benchmark::State& state) {
  constexpr int kTimers = 512;
  sim::Simulator sim;
  std::vector<sim::EventId> ids(kTimers);
  std::int64_t now = 0;
  for (int i = 0; i < kTimers; ++i)
    ids[static_cast<std::size_t>(i)] = sim.at(TimePs(1'000'000 + 997 * i), [] {});
  std::size_t next = 0;
  AllocTally tally(state);
  for (auto _ : state) {
    sim.cancel(ids[next]);
    now += 211;
    ids[next] = sim.at(TimePs(now + 1'000'000), [] {});  // rearm ~1us out
    if (++next == kTimers) {
      next = 0;
      sim.run_until(TimePs(now));  // all live timers are still >1us away
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorTimerChurn);

/// Cancellation against a deep queue: 10k pending, every step cancels the
/// front event, schedules two replacements, and executes one.
void BM_SimulatorDeepCancellation(benchmark::State& state) {
  sim::Simulator sim;
  std::deque<sim::EventId> ids;
  std::int64_t t = 0;
  for (int i = 0; i < 10'000; ++i) ids.push_back(sim.at(TimePs(t += 499), [] {}));
  AllocTally tally(state);
  for (auto _ : state) {
    ids.push_back(sim.at(TimePs(t += 499), [] {}));
    ids.push_back(sim.at(TimePs(t += 499), [] {}));
    sim.cancel(ids.front());
    ids.pop_front();
    sim.run_one();  // executes the (new) front event
    ids.pop_front();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorDeepCancellation);

/// Whole-experiment macro bench: a small congested run end to end;
/// items/s is simulator events per wall-second across all layers.
void BM_ExperimentEventRate(benchmark::State& state) {
  std::int64_t events = 0;
  for (auto _ : state) {
    ExperimentConfig cfg;
    cfg.num_senders = 8;
    cfg.rx_threads = 4;
    cfg.warmup = TimePs::from_us(200);
    cfg.measure = TimePs::from_ms(2);
    Experiment exp(cfg);
    const Metrics m = exp.run();
    events += static_cast<std::int64_t>(m.events_executed);
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_ExperimentEventRate)->Unit(benchmark::kMillisecond);

/// IOTLB lookup hit (the per-TLP translation fast path).
void BM_IotlbLookupHit(benchmark::State& state) {
  iommu::LruCache<std::uint64_t> cache(1, 128);
  for (std::uint64_t i = 0; i < 128; ++i) cache.insert(i);
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(key));
    key = (key + 1) % 128;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IotlbLookupHit);

/// IOTLB thrash (insert + evict on every access).
void BM_IotlbThrash(benchmark::State& state) {
  iommu::LruCache<std::uint64_t> cache(1, 128);
  std::uint64_t key = 0;
  for (auto _ : state) {
    if (!cache.lookup(key)) cache.insert(key);
    key = (key + 1) % 512;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IotlbThrash);

/// Discrete memory request sampling.
void BM_MemoryRequest(benchmark::State& state) {
  sim::Simulator sim;
  mem::MemorySystem mem(sim, mem::DramParams{}, Rng(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.request(mem::MemClass::kNicDma, 256_B, false));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MemoryRequest);

/// Fluid solver epoch (bisection fixed point with 3 clients).
void BM_MemoryEpochSolve(benchmark::State& state) {
  sim::Simulator sim;
  mem::MemorySystem mem(sim, mem::DramParams{}, Rng(1), 5_us);
  mem.add_closed_loop(mem::MemClass::kAntagonist, 12,
                      BitRate::gigabytes_per_sec(8.5), Bytes(2048), 0.67);
  const auto open = mem.add_open(mem::MemClass::kCpuCopy, 1.0);
  mem.set_demand(open, BitRate::gigabytes_per_sec(3.0));
  TimePs t{};
  for (auto _ : state) {
    t += 5_us;
    sim.run_until(t);  // executes exactly one epoch
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MemoryEpochSolve);

}  // namespace
