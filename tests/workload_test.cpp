// Open-loop workload subsystem: quantile-sketch relative-error and
// merge contracts, flow-pool reuse/ABA safety, arrival/size
// distributions, columnar backfill, and cluster-level determinism
// of the workload engine (serial == parallel, bitwise on sketches).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sketch.h"
#include "core/cluster.h"
#include "core/validate.h"
#include "mem/memory_system.h"
#include "sweep/columnar.h"
#include "workload/dist.h"
#include "workload/engine.h"
#include "workload/flow_pool.h"
#include "workload/workload.h"

namespace hicc {
namespace {

// ---------------------------------------------------------------------------
// QuantileSketch

/// Exact q-quantile of a sorted sample (nearest-rank).
double exact_quantile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

TEST(QuantileSketch, RelativeErrorBoundHolds) {
  // Property: for a heavy-tailed stream spanning six decades, every
  // probed quantile is within alpha (relative) of the exact value.
  for (const double alpha : {0.01, 0.05}) {
    QuantileSketch sketch(alpha);
    Rng rng(7);
    std::vector<double> values;
    values.reserve(20000);
    for (int i = 0; i < 20000; ++i) {
      // Log-uniform over six decades: exercises many buckets.
      const double v = std::pow(10.0, rng.uniform(0.0, 6.0));
      values.push_back(v);
      sketch.add(v);
    }
    std::sort(values.begin(), values.end());
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
      const double exact = exact_quantile(values, q);
      const double approx = sketch.quantile(q);
      // The sketch guarantees alpha against the true quantile; the
      // extra alpha absorbs the nearest-rank discretization of the
      // reference.
      const double err = std::abs(approx - exact) / exact;
      EXPECT_LE(err, 2.0 * alpha) << "alpha=" << alpha << " q=" << q;
    }
  }
}

TEST(QuantileSketch, CountSumMeanMinMax) {
  QuantileSketch s(0.01);
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.quantile(0.5), 0.0);
  s.add(10.0);
  s.add(20.0);
  s.add(30.0);
  EXPECT_EQ(s.count(), 3);
  EXPECT_DOUBLE_EQ(s.sum(), 60.0);
  EXPECT_DOUBLE_EQ(s.mean(), 20.0);
  EXPECT_DOUBLE_EQ(s.max_seen(), 30.0);
  EXPECT_DOUBLE_EQ(s.min_seen(), 10.0);
}

TEST(QuantileSketch, UnderflowBucketAndReset) {
  QuantileSketch s(0.01);
  s.add(0.0);
  s.add(-5.0);
  s.add(QuantileSketch::min_value() / 2);
  EXPECT_EQ(s.underflow_count(), 3);
  EXPECT_EQ(s.count(), 3);
  EXPECT_EQ(s.quantile(0.5), 0.0);  // all mass below resolution
  s.reset();
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.underflow_count(), 0);
  EXPECT_EQ(s.encode(), QuantileSketch(0.01).encode());
}

TEST(QuantileSketch, MergeEqualsSingleStream) {
  // Exactness: inserting a stream split across N sketches and merging
  // reproduces the single-sketch state bit for bit.
  QuantileSketch whole(0.02);
  QuantileSketch parts[3] = {QuantileSketch(0.02), QuantileSketch(0.02),
                             QuantileSketch(0.02)};
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    const double v = std::pow(10.0, rng.uniform(-2.0, 4.0));
    whole.add(v);
    parts[i % 3].add(v);
  }
  QuantileSketch merged(0.02);
  for (const auto& p : parts) EXPECT_TRUE(merged.merge(p));
  EXPECT_EQ(merged.encode(), whole.encode());
  EXPECT_EQ(merged.fingerprint(), whole.fingerprint());
  EXPECT_EQ(merged.count(), whole.count());
}

TEST(QuantileSketch, MergeIsAssociativeAndCommutative) {
  QuantileSketch a(0.01), b(0.01), c(0.01);
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) a.add(rng.uniform(1.0, 100.0));
  for (int i = 0; i < 1000; ++i) b.add(rng.uniform(10.0, 1e6));
  for (int i = 0; i < 1000; ++i) c.add(rng.uniform(0.1, 10.0));

  QuantileSketch ab_c = a;  // (a + b) + c
  ASSERT_TRUE(ab_c.merge(b));
  ASSERT_TRUE(ab_c.merge(c));
  QuantileSketch bc = b;  // a + (b + c)
  ASSERT_TRUE(bc.merge(c));
  QuantileSketch a_bc = a;
  ASSERT_TRUE(a_bc.merge(bc));
  EXPECT_EQ(ab_c.encode(), a_bc.encode());

  QuantileSketch ba = b;  // commutativity
  ASSERT_TRUE(ba.merge(a));
  QuantileSketch ab = a;
  ASSERT_TRUE(ab.merge(b));
  EXPECT_EQ(ab.encode(), ba.encode());
}

TEST(QuantileSketch, IncompatibleMergeRejected) {
  QuantileSketch fine(0.01), coarse(0.05);
  fine.add(1.0);
  coarse.add(1.0);
  EXPECT_FALSE(fine.mergeable(coarse));
  EXPECT_FALSE(fine.merge(coarse));
  EXPECT_EQ(fine.count(), 1);  // rejected merge left the sketch untouched
}

// ---------------------------------------------------------------------------
// FlowPool

TEST(FlowPool, AcquireReleaseCycle) {
  workload::FlowPool pool(8, 4);
  EXPECT_EQ(pool.capacity(), 8);
  EXPECT_EQ(pool.classes(), 4);
  EXPECT_EQ(pool.active(), 0);

  const workload::FlowHandle h = pool.acquire(2);
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(h.slot % 4, 2);  // slot layout binds slot to its class
  EXPECT_TRUE(pool.live(h));
  EXPECT_EQ(pool.active(), 1);
  EXPECT_TRUE(pool.release(h));
  EXPECT_FALSE(pool.live(h));
  EXPECT_EQ(pool.active(), 0);
}

TEST(FlowPool, ClassExhaustionIsIsolated) {
  workload::FlowPool pool(8, 4);  // two slots per class
  const workload::FlowHandle a = pool.acquire(1);
  const workload::FlowHandle b = pool.acquire(1);
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  EXPECT_FALSE(pool.acquire(1).valid());  // class 1 exhausted...
  EXPECT_TRUE(pool.acquire(3).valid());   // ...other classes unaffected
}

TEST(FlowPool, StaleHandleCannotTouchNewOccupancy) {
  // The ABA guard: a handle kept across release + re-acquire of its
  // slot must be dead and must not release the new occupant.
  workload::FlowPool pool(4, 4);
  const workload::FlowHandle old_h = pool.acquire(0);
  ASSERT_TRUE(pool.release(old_h));
  EXPECT_FALSE(pool.release(old_h));  // double release rejected

  const workload::FlowHandle new_h = pool.acquire(0);
  ASSERT_EQ(new_h.slot, old_h.slot);  // same slot, new generation
  EXPECT_NE(new_h.generation, old_h.generation);
  EXPECT_FALSE(pool.live(old_h));
  EXPECT_FALSE(pool.release(old_h));  // stale release rejected
  EXPECT_TRUE(pool.live(new_h));      // current occupant unharmed
  EXPECT_EQ(pool.active(), 1);
}

TEST(FlowPool, DrainAndRefillKeepsAccounting) {
  workload::FlowPool pool(64, 8);
  std::vector<workload::FlowHandle> held;
  for (int round = 0; round < 3; ++round) {
    for (int c = 0; c < 8; ++c) {
      for (workload::FlowHandle h = pool.acquire(c); h.valid(); h = pool.acquire(c)) {
        held.push_back(h);
      }
    }
    EXPECT_EQ(pool.active(), 64);
    for (const auto& h : held) EXPECT_TRUE(pool.release(h));
    held.clear();
    EXPECT_EQ(pool.active(), 0);
  }
}

// ---------------------------------------------------------------------------
// Distributions

TEST(FlowSizeDist, FixedReturnsExactSize) {
  const workload::FlowSizeDist dist(workload::SizeDist::kFixed, Bytes(12345));
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(dist.sample(rng).count(), 12345);
  EXPECT_DOUBLE_EQ(dist.mean_bytes(), 12345.0);
}

TEST(FlowSizeDist, EmpiricalMeansMatchAnalytic) {
  for (const auto kind : {workload::SizeDist::kWebSearch, workload::SizeDist::kHadoop}) {
    const workload::FlowSizeDist dist(kind, Bytes(1));
    Rng rng(17);
    double sum = 0.0;
    const int kSamples = 200000;
    for (int i = 0; i < kSamples; ++i) {
      const double b = static_cast<double>(dist.sample(rng).count());
      ASSERT_GE(b, 1.0);
      sum += b;
    }
    const double empirical = sum / kSamples;
    // Heavy-tailed: the sample mean converges slowly; 10% is ample to
    // catch a broken inverse-transform while staying flake-free.
    EXPECT_NEAR(empirical / dist.mean_bytes(), 1.0, 0.10)
        << workload::to_string(kind);
  }
}

workload::WorkloadParams arrival_params(workload::Arrival kind) {
  workload::WorkloadParams p;
  p.pattern = workload::Pattern::kUniform;
  p.arrival = kind;
  p.rate_per_s = 1e6;
  p.burst_factor = 4.0;
  p.burst_on_fraction = 0.2;
  p.burst_period = TimePs::from_us(50);
  return p;
}

TEST(ArrivalProcess, PoissonMeanRate) {
  workload::ArrivalProcess ap(arrival_params(workload::Arrival::kPoisson), Rng(23));
  double total_ps = 0.0;
  const int kGaps = 100000;
  for (int i = 0; i < kGaps; ++i) {
    const TimePs gap = ap.next_gap();
    ASSERT_GT(gap.ps(), 0);
    total_ps += static_cast<double>(gap.ps());
  }
  const double mean_gap_us = total_ps / kGaps / 1e6;
  EXPECT_NEAR(mean_gap_us, 1.0, 0.05);  // 1e6/s -> 1us mean gap
}

TEST(ArrivalProcess, BurstyPreservesMeanRate) {
  // f * factor <= 1: the off-state rate stays positive and the
  // long-run mean must equal the nominal rate.
  workload::ArrivalProcess ap(arrival_params(workload::Arrival::kBursty), Rng(29));
  double total_ps = 0.0;
  const int kGaps = 200000;
  for (int i = 0; i < kGaps; ++i) total_ps += static_cast<double>(ap.next_gap().ps());
  const double mean_gap_us = total_ps / kGaps / 1e6;
  EXPECT_NEAR(mean_gap_us, 1.0, 0.10);
}

// ---------------------------------------------------------------------------
// Columnar format

TEST(Columnar, BackfillsRaggedRows) {
  sweep::ColumnarTable table;
  table.add_row({{"b", 1.0}});
  table.add_row({{"a", 2.5}});
  std::ostringstream os;
  table.write(os);
  EXPECT_EQ(os.str(),
            "{\n  \"schema\": \"hicc.sweepc.v1\",\n  \"points\": 2,\n"
            "  \"fields\": [\"a\", \"b\"],\n"
            "  \"columns\": {\n    \"a\": [0, 2.5],\n    \"b\": [1, 0]\n  }\n}\n");
}

// ---------------------------------------------------------------------------
// Cluster-level workload engine

ClusterConfig workload_cluster(int parallelism) {
  ClusterConfig cfg;
  cfg.host.rx_threads = 2;
  cfg.host.warmup = TimePs::from_us(200);
  cfg.host.measure = TimePs::from_us(800);
  cfg.topology.leaves = 2;
  cfg.topology.spines = 2;
  cfg.topology.hosts_per_leaf = 4;
  cfg.receivers = 2;
  cfg.parallelism = parallelism;
  cfg.workload.pattern = workload::Pattern::kIncast;
  cfg.workload.rate_per_s = 40e3;
  cfg.workload.fanout = 3;
  cfg.workload.max_active = 96;
  cfg.workload.size_dist = workload::SizeDist::kFixed;
  cfg.workload.fixed_size = Bytes(16 * 1024);
  return cfg;
}

TEST(WorkloadCluster, ConfigValidates) {
  const auto violations = validate(workload_cluster(1));
  EXPECT_TRUE(violations.empty()) << describe(violations);
}

TEST(WorkloadCluster, InvalidKnobsRejected) {
  auto expect_invalid = [](ClusterConfig cfg, const std::string& what) {
    EXPECT_FALSE(validate(cfg).empty()) << what;
  };
  {
    ClusterConfig cfg = workload_cluster(1);
    cfg.workload.rate_per_s = 0.0;
    expect_invalid(cfg, "zero rate");
  }
  {
    ClusterConfig cfg = workload_cluster(1);
    cfg.workload.fanout = 1000;  // > sender machines
    expect_invalid(cfg, "fanout beyond senders");
  }
  {
    ClusterConfig cfg = workload_cluster(1);
    cfg.workload.max_active = 1;  // < one slot per sender
    expect_invalid(cfg, "pool smaller than sender count");
  }
  {
    ClusterConfig cfg = workload_cluster(1);
    cfg.workload.sketch_relative_error = 0.75;
    expect_invalid(cfg, "alpha out of range");
  }
  {
    ClusterConfig cfg = workload_cluster(1);
    cfg.workload.arrival = workload::Arrival::kBursty;
    cfg.workload.burst_factor = 0.5;
    expect_invalid(cfg, "burst factor below 1");
  }
  {
    ClusterConfig cfg = workload_cluster(1);
    cfg.host.victim_flows = 2;
    expect_invalid(cfg, "victims with open loop");
  }
  {
    ClusterConfig cfg = workload_cluster(1);
    cfg.antagonist_profile = {4, -1};
    expect_invalid(cfg, "negative antagonist cores");
  }
}

TEST(WorkloadCluster, EngineRunsAndAccounts) {
  ClusterExperiment exp(workload_cluster(1));
  const ClusterMetrics cm = exp.run();
  ASSERT_TRUE(cm.workload.enabled);
  EXPECT_GT(cm.workload.flows_started, 0);
  EXPECT_GT(cm.workload.flows_completed, 0);
  EXPECT_GE(cm.workload.active_flows, 0);
  EXPECT_LE(cm.workload.active_flows, 2 * 96);  // bounded by the pools
  EXPECT_GT(cm.workload.fct_p50_us, 0.0);
  EXPECT_GE(cm.workload.fct_p999_us, cm.workload.fct_p99_us);
  EXPECT_GE(cm.workload.fct_p99_us, cm.workload.fct_p50_us);
  // Slowdown >= 1 up to the sketch's bucket representative error.
  EXPECT_GE(cm.workload.slowdown_p50, 0.9);
  // The merged sketch saw exactly the window's completed flows.
  EXPECT_EQ(cm.workload.fct_us.count(), cm.workload.flows_completed);
}

TEST(WorkloadCluster, TargetFlowsStopsInjection) {
  ClusterConfig cfg = workload_cluster(1);
  cfg.workload.target_flows = 30;  // split across 2 receivers
  ClusterExperiment exp(cfg);
  exp.run();
  std::int64_t injected = 0;
  for (int r = 0; r < exp.num_receivers(); ++r) {
    injected += exp.workload_engine(r)->injected_total();
  }
  // Injection stops at the first arrival at-or-past the per-receiver
  // share, so the overshoot is bounded by fanout-1 per receiver.
  EXPECT_GE(injected, 30);
  EXPECT_LE(injected, 30 + 2 * (cfg.workload.fanout - 1));
}

TEST(WorkloadCluster, SameSeedIsBitwiseReproducible) {
  ClusterExperiment a(workload_cluster(1));
  ClusterExperiment b(workload_cluster(1));
  const ClusterMetrics ma = a.run();
  const ClusterMetrics mb = b.run();
  EXPECT_EQ(ma.workload.flows_started, mb.workload.flows_started);
  EXPECT_EQ(ma.workload.flows_completed, mb.workload.flows_completed);
  EXPECT_EQ(ma.workload.fct_us.encode(), mb.workload.fct_us.encode());
  EXPECT_EQ(ma.workload.slowdown.encode(), mb.workload.slowdown.encode());
  EXPECT_EQ(ma.workload.host_delay_us.encode(), mb.workload.host_delay_us.encode());
}

TEST(WorkloadCluster, SerialAndParallelSketchesBitwiseEqual) {
  // The headline determinism acceptance: merged cluster sketches are
  // bitwise identical for any engine thread count -- the 1-thread
  // engine against 2 and 3 threads.
  const ClusterMetrics serial = ClusterExperiment(workload_cluster(1)).run();
  for (const int threads : {2, 3}) {
    const ClusterMetrics parallel = ClusterExperiment(workload_cluster(threads)).run();
    EXPECT_EQ(serial.workload.fct_us.encode(), parallel.workload.fct_us.encode())
        << "threads=" << threads;
    EXPECT_EQ(serial.workload.slowdown.encode(), parallel.workload.slowdown.encode())
        << "threads=" << threads;
    EXPECT_EQ(serial.workload.host_delay_us.encode(),
              parallel.workload.host_delay_us.encode())
        << "threads=" << threads;
    EXPECT_EQ(serial.workload.flows_started, parallel.workload.flows_started)
        << "threads=" << threads;
    EXPECT_EQ(serial.workload.flows_completed, parallel.workload.flows_completed)
        << "threads=" << threads;
  }
}

TEST(WorkloadCluster, FctSketchMatchesItsContract) {
  // The sketch IS the FCT measurement; pin its internal consistency:
  // ordered quantiles, the configured relative error, and min/max
  // bracketing within that error.
  ClusterConfig cfg = workload_cluster(1);
  cfg.workload.rate_per_s = 80e3;
  cfg.workload.sketch_relative_error = 0.05;
  const ClusterMetrics cm = ClusterExperiment(cfg).run();
  ASSERT_GT(cm.workload.flows_completed, 100);
  const QuantileSketch& s = cm.workload.fct_us;
  EXPECT_EQ(s.count(), cm.workload.flows_completed);
  EXPECT_DOUBLE_EQ(s.relative_error(), 0.05);
  EXPECT_GE(cm.workload.fct_p50_us * (1 + 0.05), s.min_seen());
  EXPECT_LE(cm.workload.fct_p999_us, s.max_seen() * (1 + 0.05));
}

TEST(WorkloadCluster, AntagonistProfileOverridesPerReceiver) {
  ClusterConfig base = workload_cluster(1);
  ClusterConfig prof = workload_cluster(1);
  prof.antagonist_profile = {8, 0};  // receiver 0 loaded, receiver 1 clean
  const ClusterMetrics mb = ClusterExperiment(base).run();
  const ClusterMetrics mp = ClusterExperiment(prof).run();
  const auto antagonist_gbs = [](const Metrics& m) {
    return m.memory
        .by_class_gbytes_per_sec[static_cast<std::size_t>(mem::MemClass::kAntagonist)];
  };
  // The template runs no antagonists; the profiled receiver 0 must see
  // antagonist memory traffic while receiver 1 stays clean.
  EXPECT_EQ(antagonist_gbs(mb.per_receiver[0]), 0.0);
  EXPECT_GT(antagonist_gbs(mp.per_receiver[0]), 1.0);
  EXPECT_EQ(antagonist_gbs(mp.per_receiver[1]), 0.0);
  EXPECT_TRUE(mp.workload.enabled);
  EXPECT_GT(mp.workload.flows_completed, 0);
}

TEST(WorkloadCluster, CollectivePatternsComplete) {
  for (const auto pattern :
       {workload::Pattern::kUniform, workload::Pattern::kAllreduceRing,
        workload::Pattern::kAllreduceTree}) {
    ClusterConfig cfg = workload_cluster(1);
    cfg.workload.pattern = pattern;
    cfg.workload.rate_per_s = 10e3;
    const ClusterMetrics cm = ClusterExperiment(cfg).run();
    EXPECT_GT(cm.workload.flows_completed, 0) << workload::to_string(pattern);
    if (pattern != workload::Pattern::kUniform) {
      EXPECT_GT(cm.workload.collectives_completed, 0)
          << workload::to_string(pattern);
    }
  }
}

}  // namespace
}  // namespace hicc
