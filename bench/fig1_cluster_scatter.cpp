// Figure 1: host congestion across a fleet of hosts under load.
//
// The paper's Figure 1 is a 24-hour scatter of (access-link
// utilization, host drop rate) over a production cluster. We reproduce
// it from ONE simulated Clos cluster under an open-loop incast
// workload (src/workload): every receiver host runs bursty RPC
// arrivals with web-search flow sizes over a shared memory-bus
// antagonist, and each (receiver, measurement-window) pair contributes
// one scatter point -- the same way production samples the same
// machines across time. Two properties must hold:
//   1. drop rate is positively correlated with link utilization, and
//   2. drops occur even at low utilization (memory-bus congestion),
// and host drops must dominate fabric drops (loss lives at the host).
//
// Pass --monte-carlo for the legacy reproduction: a Monte-Carlo sweep
// over independent randomized single-host experiments (kept for
// comparison; the cluster mode exercises the real fabric, transport
// retransmissions, and cross-receiver interference the sweep cannot).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "workload/engine.h"

using namespace hicc;

namespace {

struct ScatterPoint {
  int window = 0;
  int host = 0;
  double link_utilization = 0.0;
  double drop_rate = 0.0;
  double fct_p99_us = 0.0;
  std::int64_t active_flows = 0;
  std::int64_t fabric_drops = 0;
};

/// Prints the scatter table, the figure-claim statistics, and the CSV.
void report(std::vector<ScatterPoint> points, std::int64_t fabric_drops, double wall,
            double serial_wall) {
  double max_drop = 0.0;
  for (const ScatterPoint& p : points) max_drop = std::max(max_drop, p.drop_rate);

  Table t({"window", "host", "link_utilization", "normalized_drop_rate", "fct_p99_us",
           "active_flows"});
  for (const ScatterPoint& p : points) {
    t.add_row({std::int64_t{p.window}, std::int64_t{p.host}, p.link_utilization,
               max_drop > 0 ? p.drop_rate / max_drop : 0.0, p.fct_p99_us, p.active_flows});
  }
  bench::finish(t, "fig1_cluster_scatter.csv");

  double mu = 0, md = 0;
  for (const ScatterPoint& p : points) {
    mu += p.link_utilization;
    md += p.drop_rate;
  }
  mu /= static_cast<double>(points.size());
  md /= static_cast<double>(points.size());
  double cov = 0, vu = 0, vd = 0;
  int low_util_with_drops = 0, with_drops = 0;
  for (const ScatterPoint& p : points) {
    const double u = p.link_utilization;
    const double d = p.drop_rate;
    cov += (u - mu) * (d - md);
    vu += (u - mu) * (u - mu);
    vd += (d - md) * (d - md);
    if (d > 0.0005) {
      ++with_drops;
      if (u < 0.6) ++low_util_with_drops;
    }
  }
  const double corr = (vu > 0 && vd > 0) ? cov / std::sqrt(vu * vd) : 0.0;
  std::printf("samples: %zu\n", points.size());
  std::printf("utilization-drop correlation: %.3f (paper: positive)\n", corr);
  std::printf("points with drops: %d, of which at <60%% utilization: %d "
              "(paper: drops happen even at low utilization)\n",
              with_drops, low_util_with_drops);
  std::printf("fabric drops across the run: %lld (paper: loss lives at the hosts)\n",
              static_cast<long long>(fabric_drops));
  std::printf("wall-clock: %.2fs across %d worker(s); serial equivalent: %.2fs\n\n", wall,
              sweep::SweepRunner::resolve_jobs(0), serial_wall);
}

/// Default mode: one Clos cluster, every receiver under open-loop
/// bursty incast, scatter points harvested per (receiver, window).
int run_cluster_mode() {
  bench::header(
      "Figure 1",
      "scatter of access-link utilization vs normalized host drop rate, one "
      "cluster under open-loop incast load, sampled per receiver per window",
      "positive correlation between utilization and drops; a distinct "
      "population of low-utilization points with non-zero drops; loss "
      "concentrated at hosts, not the fabric");

  ClusterConfig cfg;
  cfg.host = bench::base_config();
  cfg.host.seed = 2022;
  // The production fleet of Fig. 1 runs a loss-based stack: flows push
  // until packets drop at the host. (Swift-style delay CC is the
  // paper's §4 mitigation and hides exactly the signal this figure
  // demonstrates.)
  cfg.host.cc = transport::CcAlgorithm::kTcpLike;
  cfg.host.rx_threads = 12;
  cfg.topology.leaves = bench::smoke() ? 2 : 4;
  cfg.topology.spines = 2;
  cfg.topology.hosts_per_leaf = bench::smoke() ? 4 : 6;
  // Fat leaf-spine links and deep-buffered ToR ports keep the fabric
  // non-blocking: congestion in this figure must form at the hosts
  // (the NIC's 1MB SRAM), not the interconnect.
  cfg.topology.fabric_link_rate = BitRate::gbps(400);
  cfg.topology.edge_buffer = Bytes::mib(64);
  cfg.topology.fabric_buffer = Bytes::mib(64);
  cfg.receivers = bench::smoke() ? 2 : 8;
  // Heterogeneous fleet: every host co-locates some memory-heavy
  // batch work (production co-location), so NIC DMA drain -- not the
  // access link -- is the contended resource. Lightly-loaded hosts
  // cross the memory ceiling only when bursts push arrival near line
  // rate (drops correlate with utilization); the heaviest hosts sit
  // close to the ceiling at rest and drop even at low utilization.
  if (bench::smoke()) {
    cfg.antagonist_profile = {12, 7};
  } else {
    cfg.antagonist_profile = {12, 10, 8, 8, 7, 7, 7, 7};
  }
  cfg.parallelism = sweep::SweepRunner::resolve_jobs(0);
  cfg.workload.pattern = workload::Pattern::kIncast;
  cfg.workload.arrival = workload::Arrival::kBursty;
  // Burst periods LONGER than the measurement window play the role of
  // the paper's diurnal traffic variation: whole windows land in the
  // on- or off-phase, spreading the scatter across the utilization
  // axis. f * burst_factor < 1 keeps the off-state rate positive, so
  // the long-run mean stays rate_per_s while bursts run 3x hotter;
  // 7ms is deliberately incommensurate with the 3ms window.
  cfg.workload.burst_factor = 3.0;
  cfg.workload.burst_on_fraction = 0.3;
  cfg.workload.burst_period = TimePs::from_us(bench::smoke() ? 1500 : 7000);
  cfg.workload.size_dist = workload::SizeDist::kWebSearch;
  cfg.workload.rate_per_s = 12e3;
  cfg.workload.fanout = bench::smoke() ? 4 : 8;
  cfg.workload.max_active = 768;

  const int kWindows = bench::samples(14, 3);
  const TimePs kWindow = TimePs::from_ms(bench::smoke() ? 2 : 3);

  const auto t0 = std::chrono::steady_clock::now();
  ClusterExperiment exp(cfg);
  const auto advance_to = [&exp](TimePs t) { exp.engine()->run_until(t); };
  exp.start();
  TimePs now = cfg.host.warmup;
  advance_to(now);

  std::vector<ScatterPoint> points;
  points.reserve(static_cast<std::size_t>(kWindows * exp.num_receivers()));
  std::int64_t fabric_drops = 0;
  for (int w = 0; w < kWindows; ++w) {
    exp.begin_window();
    now = now + kWindow;
    advance_to(now);
    const ClusterMetrics cm = exp.snapshot();
    fabric_drops += cm.total_fabric_drops;
    for (int r = 0; r < exp.num_receivers(); ++r) {
      const Metrics& m = cm.per_receiver[static_cast<std::size_t>(r)];
      ScatterPoint p;
      p.window = w;
      p.host = r;
      p.link_utilization = m.link_utilization;
      p.drop_rate = m.drop_rate;
      const workload::WorkloadEngine* engine = exp.workload_engine(r);
      p.fct_p99_us = engine->fct_us().quantile(0.99);
      p.active_flows = engine->active_flows();
      p.fabric_drops = cm.total_fabric_drops;
      points.push_back(p);
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  report(std::move(points), fabric_drops, wall, wall);
  return 0;
}

/// Legacy mode (--monte-carlo): independent randomized single-host
/// experiments on the sweep pool.
int run_monte_carlo_mode() {
  bench::header(
      "Figure 1 (legacy Monte-Carlo mode)",
      "scatter of access-link utilization vs normalized host drop "
      "rate over randomized independent host configurations",
      "positive correlation between utilization and drops; a distinct "
      "population of low-utilization points with non-zero drops; zero fabric "
      "drops (all loss is at hosts)");

  const int kSamples = bench::samples(110, 12);
  Rng rng(2022);  // deterministic sweep seed

  std::vector<ExperimentConfig> cfgs;
  cfgs.reserve(static_cast<std::size_t>(kSamples));
  for (int i = 0; i < kSamples; ++i) {
    ExperimentConfig cfg = bench::base_config();
    cfg.warmup = TimePs::from_ms(bench::smoke() ? 2 : 8);
    cfg.measure = TimePs::from_ms(bench::smoke() ? 4 : 12);
    cfg.seed = 1000 + static_cast<std::uint64_t>(i);
    cfg.rx_threads = static_cast<int>(rng.range(2, 16));
    cfg.num_senders = static_cast<int>(rng.range(8, 40));
    cfg.iommu_enabled = rng.chance(0.8);
    cfg.hugepages = rng.chance(0.85);
    cfg.data_region = Bytes::mib(static_cast<double>(rng.range(4, 16)));
    // Most hosts run little antagonism; a tail runs heavy batch jobs.
    cfg.antagonist_cores =
        rng.chance(0.55) ? 0 : static_cast<int>(rng.range(4, 15));
    cfgs.push_back(cfg);
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto results = bench::sweep(cfgs);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

  std::int64_t fabric_drops = 0;
  double per_point_wall = 0.0;
  std::vector<ScatterPoint> points;
  points.reserve(results.size());
  for (const auto& r : results) {
    fabric_drops += r.metrics.fabric_drops;
    per_point_wall += r.wall_seconds;
    ScatterPoint p;
    p.window = 0;
    p.host = static_cast<int>(r.index);
    p.link_utilization = r.metrics.link_utilization;
    p.drop_rate = r.metrics.drop_rate;
    points.push_back(p);
  }
  bench::save_json(results, "fig1_cluster_scatter.json");
  report(std::move(points), fabric_drops, wall, per_point_wall);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--monte-carlo") == 0) return run_monte_carlo_mode();
  }
  return run_cluster_mode();
}
