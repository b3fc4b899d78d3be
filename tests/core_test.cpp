// Tests for the core public API: configuration defaults against the
// paper's testbed, the analytic throughput model, and the Experiment
// lifecycle (construction, incremental stepping, window accounting,
// determinism).
#include <gtest/gtest.h>

#include "core/config.h"
#include "core/experiment.h"
#include "core/model.h"
#include "same_metrics.h"

namespace hicc {
namespace {

using namespace hicc::literals;

// ------------------------------------------------------------- config

TEST(Config, DefaultsMatchPaperTestbed) {
  const ExperimentConfig cfg;
  EXPECT_EQ(cfg.num_senders, 40);
  EXPECT_EQ(cfg.iommu.iotlb_entries, 128);
  EXPECT_NEAR(cfg.dram.theoretical_bw().gigabytes_per_sec(), 115.2, 1e-9);
  EXPECT_NEAR(cfg.pcie.raw_rate().gbps(), 128.0, 1e-9);
  EXPECT_EQ(cfg.nic.input_buffer, Bytes::mib(1));
  EXPECT_EQ(cfg.swift.host_target, TimePs::from_us(100));
  EXPECT_EQ(cfg.data_region, Bytes::mib(12));
  EXPECT_EQ(cfg.read_size.count(), 16 * 1024);
  EXPECT_NEAR(cfg.fabric.link_rate.gbps(), 100.0, 1e-9);
  EXPECT_NEAR(cfg.wire.goodput_fraction(), 0.92, 0.001);
}

// -------------------------------------------------------------- model

TEST(Model, MissFreeBoundAboveLineRate) {
  const ExperimentConfig cfg;
  const ThroughputModel m = fit_model(cfg);
  // With no misses the RC pipeline is far faster than the link.
  EXPECT_GT(m.wire_gbps(0.0), 200.0);
}

TEST(Model, BoundDecreasesWithMisses) {
  const ExperimentConfig cfg;
  const ThroughputModel m = fit_model(cfg);
  double prev = m.wire_gbps(0.0);
  for (double misses = 0.5; misses <= 6.0; misses += 0.5) {
    const double cur = m.wire_gbps(misses);
    EXPECT_LT(cur, prev);
    prev = cur;
  }
}

TEST(Model, AppBoundCappedAtGoodputCeiling) {
  const ExperimentConfig cfg;
  const ThroughputModel m = fit_model(cfg);
  EXPECT_NEAR(m.app_gbps(0.0, cfg), 92.0, 0.2);
}

TEST(Model, MatchesPaperFormula) {
  // bound = C*pkt/(T_base + M*T_miss), checked against hand arithmetic.
  ThroughputModel m;
  m.packets_in_flight = 2.0;
  m.packet_pcie_bytes = Bytes(1000);
  m.t_base = TimePs::from_ns(100);
  m.t_miss = TimePs::from_ns(50);
  // 2 * 8000 bits / 200ns = 80 Gbps.
  EXPECT_NEAR(m.wire_gbps(2.0), 80.0, 1e-9);
}

// --------------------------------------------------------- experiment

TEST(Experiment, ShortRunProducesSaneMetrics) {
  ExperimentConfig cfg;
  cfg.rx_threads = 4;
  cfg.warmup = 3_ms;
  cfg.measure = 5_ms;
  Experiment exp(cfg);
  const Metrics m = exp.run();
  EXPECT_NEAR(m.simulated_seconds, 5e-3, 1e-9);
  EXPECT_GT(m.app_throughput_gbps, 30.0);  // 4 cores ~ 50Gbps
  EXPECT_LT(m.app_throughput_gbps, 60.0);
  EXPECT_GT(m.delivered_packets, 6000);  // ~50Gbps x 5ms / 4KB
  EXPECT_GE(m.link_utilization, 0.0);
  EXPECT_LE(m.link_utilization, 1.01);
  EXPECT_EQ(m.fabric_drops, 0);
}

TEST(Experiment, DeterministicForSameSeed) {
  ExperimentConfig cfg;
  cfg.rx_threads = 6;
  cfg.warmup = 2_ms;
  cfg.measure = 3_ms;
  cfg.seed = 77;
  Experiment a(cfg);
  Experiment b(cfg);
  const Metrics ma = a.run();
  const Metrics mb = b.run();
  expect_same_metrics(ma, mb);
}

TEST(Experiment, DifferentSeedsDiffer) {
  ExperimentConfig cfg;
  cfg.rx_threads = 6;
  cfg.warmup = 2_ms;
  cfg.measure = 3_ms;
  cfg.seed = 1;
  Experiment a(cfg);
  cfg.seed = 2;
  Experiment b(cfg);
  EXPECT_NE(a.run().events_executed, b.run().events_executed);
}

TEST(Experiment, IncrementalAdvanceMatchesRun) {
  ExperimentConfig cfg;
  cfg.rx_threads = 4;
  cfg.warmup = 2_ms;
  cfg.measure = 4_ms;
  Experiment exp(cfg);
  exp.start();
  exp.advance(2_ms);
  exp.begin_window();
  exp.advance(4_ms);
  const Metrics stepped = exp.snapshot();

  Experiment whole(cfg);
  const Metrics m = whole.run();
  expect_same_metrics(stepped, m);
}

TEST(Experiment, SnapshotBeforeAdvanceIsEmpty) {
  ExperimentConfig cfg;
  cfg.rx_threads = 2;
  Experiment exp(cfg);
  const Metrics m = exp.snapshot();
  EXPECT_DOUBLE_EQ(m.app_throughput_gbps, 0.0);
  EXPECT_EQ(m.delivered_packets, 0);
}

TEST(Experiment, AntagonistControlMidRun) {
  ExperimentConfig cfg;
  cfg.rx_threads = 4;
  cfg.iommu_enabled = false;
  Experiment exp(cfg);
  exp.start();
  exp.advance(2_ms);
  EXPECT_NEAR(exp.antagonist().achieved().gigabytes_per_sec(), 0.0, 0.1);
  exp.antagonist().set_cores(8);
  exp.advance(2_ms);
  EXPECT_GT(exp.antagonist().achieved().gigabytes_per_sec(), 50.0);
}

TEST(Experiment, ThrottleConfigurationApplies) {
  ExperimentConfig cfg;
  cfg.rx_threads = 2;
  cfg.antagonist_cores = 15;
  cfg.antagonist_throttle_gbps = 20.0;
  Experiment exp(cfg);
  exp.start();
  exp.advance(2_ms);
  EXPECT_NEAR(exp.antagonist().achieved().gigabytes_per_sec(), 20.0, 1.0);
}

}  // namespace
}  // namespace hicc
