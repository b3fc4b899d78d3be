#include "layer_calls.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "common/sketch.h"
#include "core/experiment.h"
#include "iommu/iommu.h"
#include "mem/memory_system.h"
#include "net/topology.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "counting_sink.h"
#include "workload/flow_pool.h"

namespace perfbench {
namespace {

using namespace hicc;
using Clock = std::chrono::steady_clock;

constexpr int kBatches = 5;

/// Keeps `v` observable so the timed work cannot be optimised away.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

/// Median over kBatches of ns per op; `body(n)` performs n ops.
template <typename Body>
double ns_per_op(std::int64_t ops, Body&& body) {
  std::vector<double> v;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    body(ops);
    const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    v.push_back(ns / static_cast<double>(ops));
  }
  std::nth_element(v.begin(), v.begin() + kBatches / 2, v.end());
  return v[kBatches / 2];
}

double schedule_run_ns() {
  sim::Simulator sim;
  std::int64_t t = 0;
  return ns_per_op(200'000, [&](std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) {
      sim.at(TimePs(t += 100), [] {});
      sim.run_one();
    }
  });
}

double barrier_ns() {
  sim::ParallelParams pp;
  pp.partitions = 33;  // clos_openloop: the fabric plus 32 hosts
  pp.lookahead = TimePs::from_us(2);
  pp.threads = 2;
  sim::ParallelEngine engine(pp);
  return ns_per_op(2'000, [&](std::int64_t n) {
    engine.run_until(engine.now() + TimePs(pp.lookahead.ps() * n));
  });
}

double forward_ns() {
  sim::Simulator sim;
  net::TopologyConfig cfg;
  cfg.hosts_per_leaf = 16;
  std::int64_t delivered = 0;
  net::ClosFabric fabric(sim, cfg, [&delivered](int, net::Packet) { ++delivered; });
  const net::WireFormat wire;
  const double ns = ns_per_op(20'000, [&](std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) {
      net::Packet p;
      p.flow = static_cast<std::int32_t>(i & 1023);
      p.sender = 0;
      p.dst = 31;  // the other leaf: uplink, leaf-spine, spine-leaf, downlink
      p.payload = wire.mtu_payload;
      p.wire = wire.data_wire();
      p.sent_at = sim.now();
      fabric.send_from_host(0, p);
      sim.run_until(sim.now() + TimePs::from_us(50));  // queues drain between packets
    }
  });
  keep(delivered);
  return ns;
}

/// Hits against a full IOTLB: one 2 MB page per entry, all warmed by a
/// page walk first, then looked up round-robin.
double translate_hit_ns() {
  sim::Simulator sim;
  mem::MemorySystem mem(sim, mem::DramParams{}, Rng(1));
  const iommu::IommuParams params;
  iommu::Iommu mmu(sim, mem, params, Rng(2));
  const auto pages = static_cast<std::int64_t>(params.iotlb_entries);
  const std::int64_t page_bytes = Bytes::mib(2).count();
  const iommu::Iova base =
      mmu.region(mmu.map_region(Bytes(pages * page_bytes), iommu::PageSize::k2M)).base;
  const auto page = [&](std::int64_t i) {
    return base + static_cast<iommu::Iova>((i % pages) * page_bytes);
  };
  for (std::int64_t i = 0; i < pages; ++i) {
    if (!mmu.try_translate(page(i))) mmu.translate_slow(page(i), [] {});
  }
  sim.run_until(TimePs::from_ms(1));
  const std::int64_t misses = mmu.stats().misses;
  std::int64_t sum = 0;
  const double ns = ns_per_op(1'000'000, [&](std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) {
      const auto lat = mmu.try_translate(page(i));
      sum += lat ? lat->ps() : 1;
    }
  });
  keep(sum);
  if (mmu.stats().misses != misses) throw std::runtime_error("IOTLB hit timing saw misses");
  return ns;
}

double request_ns() {
  sim::Simulator sim;
  mem::MemorySystem mem(sim, mem::DramParams{}, Rng(1));
  std::int64_t sum = 0;
  const double ns = ns_per_op(1'000'000, [&](std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) {
      sum += mem.request(mem::MemClass::kNicDma, Bytes(256), false).ps();
    }
  });
  keep(sum);
  return ns;
}

double epoch_ns() {
  sim::Simulator sim;
  const TimePs epoch = TimePs::from_us(5);
  mem::MemorySystem mem(sim, mem::DramParams{}, Rng(1), epoch);
  mem.add_closed_loop(mem::MemClass::kAntagonist, 12, BitRate::gigabytes_per_sec(8.5),
                      Bytes(2048), 0.67);
  const mem::ClientId open = mem.add_open(mem::MemClass::kCpuCopy, 1.0);
  mem.set_demand(open, BitRate::gigabytes_per_sec(3.0));
  return ns_per_op(20'000, [&](std::int64_t n) {
    sim.run_until(sim.now() + TimePs(epoch.ps() * n));  // one epoch per op
  });
}

double pool_churn_ns() {
  constexpr int kClasses = 16;
  workload::FlowPool pool(4096, kClasses);
  std::int64_t sum = 0;
  const double ns = ns_per_op(1'000'000, [&](std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) {
      const workload::FlowHandle h = pool.acquire(static_cast<int>(i % kClasses));
      sum += h.generation;
      pool.release(h);
    }
  });
  keep(sum);
  return ns;
}

double sketch_add_ns() {
  Rng rng(2022);
  std::vector<double> values(4096);
  for (double& v : values) v = rng.uniform(10.0, 1e5);  // ~4 decades, like an FCT stream
  QuantileSketch sketch(0.01);
  const double ns = ns_per_op(1'000'000, [&](std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) sketch.add(values[static_cast<std::size_t>(i & 4095)]);
  });
  keep(sketch.count());
  return ns;
}

/// Sampling passes of the single-host probe set into the benchmark's
/// CSV sink.
double trace_row_ns() {
  constexpr int kPasses = 400;
  ExperimentConfig cfg;
  cfg.trace.enabled = true;
  Experiment exp(cfg);
  CountingCsvSink csv;
  exp.tracer()->set_sink(&csv.sink());
  exp.start();  // one baseline pass
  const std::int64_t rows0 = csv.rows();
  const auto t0 = Clock::now();
  for (int i = 0; i < kPasses; ++i) exp.tracer()->sample_now();
  const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  const std::int64_t rows = csv.rows() - rows0;
  exp.tracer()->finish();
  if (rows <= 0) throw std::runtime_error("trace row timing wrote no rows");
  return ns / static_cast<double>(rows);
}

}  // namespace

LayerCallTimes time_layer_calls() {
  LayerCallTimes t;
  t.sim_schedule_run_ns = schedule_run_ns();
  t.par_barrier_ns = barrier_ns();
  t.net_forward_ns = forward_ns();
  t.iommu_translate_hit_ns = translate_hit_ns();
  t.mem_request_ns = request_ns();
  t.mem_epoch_ns = epoch_ns();
  t.workload_pool_churn_ns = pool_churn_ns();
  t.workload_sketch_add_ns = sketch_add_ns();
  t.trace_row_ns = trace_row_ns();
  return t;
}

double reference_spin_ns() {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const double ns = ns_per_op(200'000, [&](std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) {
      for (int k = 0; k < 64; ++k) {  // splitmix64 finalizer, fixed work
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
      }
      keep(x);
    }
  });
  return ns;
}

}  // namespace perfbench
