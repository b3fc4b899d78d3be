// Unit + property tests for the memory subsystem: DRAM parameters,
// load-latency curve, the fluid fixed-point solver and its memo,
// closed-loop antagonist scaling, saturation sharing, QoS throttles,
// and the discrete request path.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/rng.h"
#include "common/units.h"
#include "mem/ddio.h"
#include "mem/dram.h"
#include "mem/memory_system.h"
#include "mem/stream_antagonist.h"
#include "sim/simulator.h"

namespace hicc::mem {
namespace {

using namespace hicc::literals;

DramParams paper_params() { return DramParams{}; }

// ----------------------------------------------------------- DramParams

TEST(Dram, TheoreticalBandwidthMatchesPaper) {
  // 6 channels x 2400 MT/s x 8B = 115.2 GB/s per NUMA node (§3).
  EXPECT_NEAR(paper_params().theoretical_bw().gigabytes_per_sec(), 115.2, 1e-9);
}

TEST(Dram, AchievableBandwidthNearStreamMax) {
  // Paper: STREAM achieves ~90 GB/s per NUMA node.
  EXPECT_NEAR(paper_params().achievable_bw().gigabytes_per_sec(), 89.86, 0.1);
}

TEST(Dram, LatencyCurveIdleValue) {
  EXPECT_NEAR(paper_params().latency_at(0.0).ns(), 90.0, 1e-9);
}

TEST(Dram, LatencyCurveIsMonotone) {
  const auto p = paper_params();
  TimePs prev = p.latency_at(0.0);
  for (double rho = 0.05; rho <= 1.0; rho += 0.05) {
    const TimePs cur = p.latency_at(rho);
    EXPECT_GE(cur, prev) << "rho=" << rho;
    prev = cur;
  }
}

TEST(Dram, LatencyCurveCapsAtMax) {
  const auto p = paper_params();
  EXPECT_LE(p.latency_at(5.0), p.max_latency);
  EXPECT_LE(p.latency_at(0.9999), p.max_latency);
}

TEST(Dram, LatencyRisesSharplyNearSaturation) {
  const auto p = paper_params();
  EXPECT_LT(p.latency_at(0.5).ns(), 135.0);
  EXPECT_GT(p.latency_at(0.95).ns(), 350.0);
}

// ----------------------------------------------------- fluid fixed point

struct Harness {
  sim::Simulator sim;
  MemorySystem mem{sim, DramParams{}, Rng(1)};
};

TEST(MemorySystem, IdleOperatingPoint) {
  Harness h;
  h.sim.run_until(1_ms);
  EXPECT_NEAR(h.mem.utilization(), 0.0, 1e-6);
  EXPECT_NEAR(h.mem.current_latency().ns(), 90.0, 1.0);
}

TEST(MemorySystem, SingleAntagonistCoreIsCoreLimited) {
  Harness h;
  StreamAntagonist ant(h.mem, AntagonistParams{}, 1);
  h.sim.run_until(1_ms);
  // One core: 8.5 GB/s demanded, bus nearly idle -> achieves its peak.
  EXPECT_NEAR(ant.achieved().gigabytes_per_sec(), 8.5, 0.2);
}

TEST(MemorySystem, AntagonistScalingIsSublinearNearSaturation) {
  // Per-core bandwidth at 15 cores must be well below the 1-core value
  // (paper: bus saturates around 10 cores at ~90 GB/s).
  std::array<double, 3> total{};
  const std::array<int, 3> cores = {1, 8, 15};
  for (std::size_t i = 0; i < cores.size(); ++i) {
    Harness h;
    StreamAntagonist ant(h.mem, AntagonistParams{}, cores[i]);
    h.sim.run_until(1_ms);
    total[i] = ant.achieved().gigabytes_per_sec();
  }
  EXPECT_NEAR(total[0], 8.5, 0.2);
  EXPECT_GT(total[1], 55.0);   // 8 cores mostly linear (~64-68)
  EXPECT_LT(total[1], 70.0);
  EXPECT_GT(total[2], 80.0);   // 15 cores pinned near achievable
  EXPECT_LT(total[2], 91.0);
  // Sublinear: 15 cores < 15x one core.
  EXPECT_LT(total[2], 15.0 * total[0] * 0.75);
}

TEST(MemorySystem, SaturationNeverExceedsAchievable) {
  Harness h;
  StreamAntagonist ant(h.mem, AntagonistParams{}, 15);
  const ClientId open = h.mem.add_open(MemClass::kCpuCopy, 1.0);
  h.mem.set_demand(open, BitRate::gigabytes_per_sec(20.0));
  h.sim.run_until(100_us);
  h.mem.begin_window();
  h.sim.run_until(1_ms);
  const auto rep = h.mem.window_report();
  EXPECT_LE(rep.total_gbytes_per_sec,
            h.mem.params().achievable_bw().gigabytes_per_sec() * 1.02);
}

TEST(MemorySystem, LatencyRisesWithAntagonistCores) {
  double prev_ns = 0.0;
  for (int cores : {0, 4, 8, 12, 15}) {
    Harness h;
    StreamAntagonist ant(h.mem, AntagonistParams{}, cores);
    h.sim.run_until(1_ms);
    const double ns = h.mem.current_latency().ns();
    EXPECT_GE(ns, prev_ns * 0.99) << cores << " cores";
    prev_ns = ns;
  }
  EXPECT_GT(prev_ns, 300.0);  // loaded latency at 15 cores
}

TEST(MemorySystem, OpenClientDemandIsServedWhenUnsaturated) {
  Harness h;
  const ClientId open = h.mem.add_open(MemClass::kCpuCopy, 0.5);
  h.mem.set_demand(open, BitRate::gigabytes_per_sec(10.0));
  h.sim.run_until(100_us);
  h.mem.begin_window();
  h.sim.run_until(1_ms);
  const auto rep = h.mem.window_report();
  EXPECT_NEAR(rep.by_class_gbytes_per_sec[static_cast<int>(MemClass::kCpuCopy)], 10.0, 0.3);
  // Half reads, half writes.
  EXPECT_NEAR(rep.read_gbytes_per_sec, rep.write_gbytes_per_sec, 0.5);
}

TEST(MemorySystem, ClassThrottleCapsAntagonist) {
  Harness h;
  StreamAntagonist ant(h.mem, AntagonistParams{}, 15);
  h.mem.set_class_throttle(MemClass::kAntagonist, BitRate::gigabytes_per_sec(30.0));
  h.sim.run_until(1_ms);
  EXPECT_NEAR(ant.achieved().gigabytes_per_sec(), 30.0, 1.0);
  // Removing the throttle restores full bandwidth.
  h.mem.set_class_throttle(MemClass::kAntagonist, BitRate(0));
  h.sim.run_until(2_ms);
  EXPECT_GT(ant.achieved().gigabytes_per_sec(), 80.0);
}

TEST(MemorySystem, SetCoresTakesEffect) {
  Harness h;
  StreamAntagonist ant(h.mem, AntagonistParams{}, 0);
  h.sim.run_until(100_us);
  EXPECT_NEAR(ant.achieved().gigabytes_per_sec(), 0.0, 1e-9);
  ant.set_cores(4);
  h.sim.run_until(200_us);
  EXPECT_NEAR(ant.achieved().gigabytes_per_sec(), 4 * 8.5, 1.0);
}

// ------------------------------------------------------- discrete side

TEST(MemorySystem, DiscreteRequestLatencyNearIdleLatency) {
  Harness h;
  h.sim.run_until(100_us);
  double sum = 0.0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) sum += h.mem.request(MemClass::kNicDma, 256_B, false).ns();
  // Idle: ~90ns +-10% jitter + ~2.8ns serialization for 256B.
  EXPECT_NEAR(sum / n, 93.0, 5.0);
}

TEST(MemorySystem, DiscreteRequestSlowerUnderContention) {
  Harness h;
  StreamAntagonist ant(h.mem, AntagonistParams{}, 15);
  h.sim.run_until(1_ms);
  double sum = 0.0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) sum += h.mem.request(MemClass::kIommuWalk, 64_B, true).ns();
  EXPECT_GT(sum / n, 300.0);
}

TEST(MemorySystem, DiscreteBytesShowUpInUtilization) {
  Harness h;
  h.sim.run_until(10_us);
  // Offer ~11.8 GB/s of discrete writes for a while.
  const Bytes burst = 256_B;
  const auto interval = TimePs::from_ns(256.0 / 11.8);  // 11.8 GB/s
  sim::PeriodicTask pump(h.sim, interval, [&] {
    (void)h.mem.request(MemClass::kNicDma, burst, false);
  });
  h.sim.run_until(200_us);
  EXPECT_NEAR(h.mem.utilization(), 11.8 / 89.86, 0.02);
  pump.stop();
}

TEST(MemorySystem, WindowReportAttributesClasses) {
  Harness h;
  h.mem.begin_window();
  (void)h.mem.request(MemClass::kNicDma, Bytes(1'000'000), false);
  (void)h.mem.request(MemClass::kIommuWalk, Bytes(500'000), true);
  h.sim.run_until(1_ms);
  const auto rep = h.mem.window_report();
  const double nic = rep.by_class_gbytes_per_sec[static_cast<int>(MemClass::kNicDma)];
  const double walk = rep.by_class_gbytes_per_sec[static_cast<int>(MemClass::kIommuWalk)];
  EXPECT_NEAR(nic / walk, 2.0, 0.01);
  EXPECT_NEAR(rep.write_gbytes_per_sec / rep.read_gbytes_per_sec, 2.0, 0.01);
}

// Property: the solver's fixed point is stable -- utilization within
// [0, 1.05] and latency within [idle, max] across random mixes.
TEST(MemorySystem, SolverStaysInBoundsAcrossRandomMixes) {
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    Harness h;
    StreamAntagonist ant(h.mem, AntagonistParams{},
                         static_cast<int>(rng.below(16)));
    const ClientId open = h.mem.add_open(MemClass::kCpuCopy, rng.uniform());
    h.mem.set_demand(open, BitRate::gigabytes_per_sec(rng.uniform(0.0, 40.0)));
    h.sim.run_until(500_us);
    EXPECT_GE(h.mem.utilization(), 0.0);
    EXPECT_LE(h.mem.utilization(), 1.05);
    EXPECT_GE(h.mem.current_latency(), h.mem.params().idle_latency);
    EXPECT_LE(h.mem.current_latency(), h.mem.params().max_latency);
  }
}

// The memo: an epoch whose clients, throttles and discrete rate match
// the last solve keeps its operating point. A twin that re-solves every
// epoch (a no-op throttle re-set marks it dirty) must agree bit for bit
// under a random mix of requests, demand updates -- same-value repeats
// included, as the rx accounting tick makes them -- and antagonist core
// toggles like the mem.antagonist fault's.
TEST(MemorySystem, MemoizedSolveEqualsFreshSolve) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const TimePs epoch = 5_us;
  sim::Simulator memo_sim;
  sim::Simulator fresh_sim;
  MemorySystem memo(memo_sim, DramParams{}, Rng(7), epoch);
  MemorySystem fresh(fresh_sim, DramParams{}, Rng(7), epoch);
  StreamAntagonist memo_ant(memo, AntagonistParams{}, 4);
  StreamAntagonist fresh_ant(fresh, AntagonistParams{}, 4);
  const ClientId memo_copy = memo.add_open(MemClass::kCpuCopy, 1.0);
  const ClientId fresh_copy = fresh.add_open(MemClass::kCpuCopy, 1.0);
  memo.begin_window();
  fresh.begin_window();

  Rng rng(2024);
  BitRate demand = BitRate::gigabytes_per_sec(3.0);
  for (int step = 1; step <= 4000; ++step) {
    // Discrete requests; none at all in about 40% of epochs, so their
    // rate repeats and the memo gets hits.
    const int requests = rng.uniform() < 0.4 ? 0 : static_cast<int>(rng.below(6));
    for (int i = 0; i < requests; ++i) {
      const MemClass cls = rng.uniform() < 0.8 ? MemClass::kNicDma : MemClass::kIommuWalk;
      const Bytes n(64 * static_cast<std::int64_t>(1 + rng.below(64)));
      const bool is_read = rng.uniform() < 0.3;
      EXPECT_EQ(memo.request(cls, n, is_read), fresh.request(cls, n, is_read));
    }
    // The copy demand: a new value, or the same one re-set.
    const double u = rng.uniform();
    if (u < 0.1) demand = BitRate::gigabytes_per_sec(rng.uniform(0.0, 40.0));
    if (u < 0.6) {
      memo.set_demand(memo_copy, demand);
      fresh.set_demand(fresh_copy, demand);
    }
    // Antagonist cores: raised to 15 and restored, as the mem.antagonist
    // fault does, or re-set unchanged.
    const double v = rng.uniform();
    if (v < 0.02) {
      const int cores = memo_ant.cores() == 15 ? 4 : 15;
      memo_ant.set_cores(cores);
      fresh_ant.set_cores(cores);
    } else if (v < 0.1) {
      memo_ant.set_cores(memo_ant.cores());
      fresh_ant.set_cores(fresh_ant.cores());
    }
    fresh.set_class_throttle(MemClass::kOther, BitRate(0));

    memo_sim.run_until(epoch * step);
    fresh_sim.run_until(epoch * step);
    ASSERT_EQ(memo.current_latency(), fresh.current_latency()) << "epoch " << step;
    ASSERT_EQ(bits(memo.utilization()), bits(fresh.utilization())) << "epoch " << step;
    ASSERT_EQ(bits(memo.achieved(memo_copy).bps()), bits(fresh.achieved(fresh_copy).bps()));
    ASSERT_EQ(bits(memo_ant.achieved().bps()), bits(fresh_ant.achieved().bps()));
    const BandwidthReport a = memo.window_report();
    const BandwidthReport b = fresh.window_report();
    ASSERT_EQ(bits(a.total_gbytes_per_sec), bits(b.total_gbytes_per_sec)) << "epoch " << step;
    ASSERT_EQ(bits(a.read_gbytes_per_sec), bits(b.read_gbytes_per_sec));
    ASSERT_EQ(bits(a.write_gbytes_per_sec), bits(b.write_gbytes_per_sec));
    for (int c = 0; c < kMemClassCount; ++c) {
      ASSERT_EQ(bits(a.by_class_gbytes_per_sec[static_cast<std::size_t>(c)]),
                bits(b.by_class_gbytes_per_sec[static_cast<std::size_t>(c)]));
    }
  }
}

TEST(MemClass, Labels) {
  EXPECT_STREQ(to_string(MemClass::kNicDma), "nic_dma");
  EXPECT_STREQ(to_string(MemClass::kAntagonist), "antagonist");
}

// --------------------------------------------------------------- DDIO

TEST(Ddio, CapacityIsIoWaysShareOfLlc) {
  DdioModel ddio(DdioParams{}, Rng(1));
  // 38.5MB x 2/11 ways x 0.8 efficiency = 5.6MB.
  EXPECT_NEAR(ddio.capacity().mib(), 5.6, 0.05);
}

TEST(Ddio, SmallWorkingSetAlwaysHits) {
  DdioModel ddio(DdioParams{}, Rng(1));
  ddio.set_io_working_set(Bytes::mib(2));
  EXPECT_DOUBLE_EQ(ddio.hit_fraction(), 1.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(ddio.write_hits());
}

TEST(Ddio, LargeWorkingSetMostlyLeaks) {
  DdioModel ddio(DdioParams{}, Rng(1));
  ddio.set_io_working_set(Bytes::mib(144));  // the paper's 12 x 12MB
  EXPECT_LT(ddio.hit_fraction(), 0.05);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += ddio.write_hits();
  EXPECT_NEAR(static_cast<double>(hits) / 10000.0, ddio.hit_fraction(), 0.01);
}

TEST(Ddio, DisabledNeverHits) {
  DdioParams p;
  p.enabled = false;
  DdioModel ddio(p, Rng(1));
  ddio.set_io_working_set(Bytes::mib(1));
  EXPECT_FALSE(ddio.enabled());
  EXPECT_DOUBLE_EQ(ddio.hit_fraction(), 0.0);
}

TEST(Ddio, HitFractionMonotoneInWorkingSet) {
  DdioModel ddio(DdioParams{}, Rng(1));
  double prev = 1.1;
  for (double mb : {1.0, 4.0, 8.0, 16.0, 64.0, 256.0}) {
    ddio.set_io_working_set(Bytes::mib(mb));
    EXPECT_LE(ddio.hit_fraction(), prev);
    prev = ddio.hit_fraction();
  }
}

}  // namespace
}  // namespace hicc::mem
