// Topology micro-benchmarks (google-benchmark): the Clos-fabric hot
// paths and the whole-cluster event rate that bound how much multi-host
// simulated traffic per wall-second the harness can sustain. One suite
// of bench/micro_bench (micro_bench.h).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>

#include "core/cluster.h"
#include "micro_bench.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace {

using namespace hicc;
using hicc::bench::AllocTally;

/// Stateless ECMP spine choice: the pure per-packet routing hash,
/// executed once per inter-leaf packet at the leaf and again at the
/// spine. Must stay allocation-free.
void BM_ClosEcmpSpine(benchmark::State& state) {
  sim::Simulator sim;
  net::TopologyConfig cfg;
  cfg.leaves = 4;
  cfg.spines = 4;
  cfg.hosts_per_leaf = 8;
  net::ClosFabric fabric(sim, cfg, [](int, net::Packet) {});
  net::Packet p;
  p.sender = 3;
  p.dst = 17;
  std::int32_t flow = 0;
  AllocTally tally(state);
  for (auto _ : state) {
    p.flow = flow++ & 1023;
    benchmark::DoNotOptimize(fabric.ecmp_spine(p));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClosEcmpSpine);

/// Steady-state fabric forwarding: one inter-leaf data packet through
/// all four hops (uplink -> leaf-spine -> spine-leaf -> downlink),
/// paced so queues stay empty. Items/s is packets per wall-second;
/// after warmup the path must be allocation-free.
void BM_ClosFabricForward(benchmark::State& state) {
  sim::Simulator sim;
  net::TopologyConfig cfg;  // 2x2x8, defaults
  int delivered = 0;
  net::ClosFabric fabric(sim, cfg, [&delivered](int, net::Packet) { ++delivered; });
  std::int64_t now_ps = 0;
  const net::WireFormat wire;
  const auto step = [&] {
    net::Packet p;
    p.flow = 0;
    p.sender = 0;
    p.dst = 7;  // other leaf: the four-hop path
    p.payload = wire.mtu_payload;
    p.wire = wire.data_wire();
    p.sent_at = TimePs(now_ps);
    fabric.send_from_host(0, std::move(p));
    now_ps += 50'000'000;  // 50 us: far beyond the path's latency
    sim.run_until(TimePs(now_ps));
  };
  step();  // warm the queues' internal storage
  AllocTally tally(state);
  for (auto _ : state) step();
  state.SetItemsProcessed(delivered);
}
BENCHMARK(BM_ClosFabricForward);

/// Whole-cluster macro bench: a small 2-leaf/2-spine incast with a full
/// receiver host, end to end; items/s is simulator events per
/// wall-second across every layer including the Clos fabric.
void BM_ClusterIncastEventRate(benchmark::State& state) {
  std::int64_t events = 0;
  for (auto _ : state) {
    ClusterConfig cfg;
    cfg.topology.leaves = 2;
    cfg.topology.spines = 2;
    cfg.topology.hosts_per_leaf = 4;
    cfg.receivers = 1;
    cfg.host.rx_threads = 4;
    cfg.host.warmup = TimePs::from_us(200);
    cfg.host.measure = TimePs::from_ms(2);
    ClusterExperiment exp(std::move(cfg));
    const ClusterMetrics m = exp.run();
    events += static_cast<std::int64_t>(m.events_executed);
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_ClusterIncastEventRate)->Unit(benchmark::kMillisecond);

}  // namespace
