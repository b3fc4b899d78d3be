// SweepRunner: parallel-vs-serial determinism, index-ordered
// collection, per-point seed independence, exception propagation, and
// the structured JSON record.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "core/experiment.h"
#include "same_metrics.h"
#include "sweep/sweep.h"

namespace hicc::sweep {
namespace {

/// Small-but-heterogeneous sweep: every point differs in workload and
/// seed, so any cross-point state leakage or misordered collection
/// shows up as a metrics mismatch.
std::vector<ExperimentConfig> test_points(int n) {
  std::vector<ExperimentConfig> points;
  for (int i = 0; i < n; ++i) {
    ExperimentConfig cfg;
    cfg.warmup = TimePs::from_us(200);
    cfg.measure = TimePs::from_us(500);
    cfg.rx_threads = 2 + i % 3;
    cfg.num_senders = 4 + i % 5;
    cfg.iommu_enabled = i % 2 == 0;
    cfg.hugepages = i % 4 != 0;
    cfg.antagonist_cores = (i % 3 == 0) ? 4 : 0;
    cfg.seed = 100 + static_cast<std::uint64_t>(i);
    points.push_back(cfg);
  }
  return points;
}

TEST(SweepRunner, ParallelMatchesSerialOn16Points) {
  const auto points = test_points(16);

  SweepOptions serial_opts;
  serial_opts.jobs = 1;
  const auto serial = SweepRunner(serial_opts).run(points);

  for (int jobs : {4, 7}) {
    SweepOptions opts;
    opts.jobs = jobs;
    const SweepRunner runner(opts);
    EXPECT_EQ(runner.jobs(), jobs);
    const auto parallel = runner.run(points);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("point " + std::to_string(i) + " @ jobs=" + std::to_string(jobs));
      expect_same_metrics(parallel[i].metrics, serial[i].metrics);
    }
  }
}

TEST(SweepRunner, ResultsAreIndexOrdered) {
  const auto points = test_points(9);
  SweepOptions opts;
  opts.jobs = 4;
  const auto results = SweepRunner(opts).run(points);
  ASSERT_EQ(results.size(), points.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
    EXPECT_EQ(results[i].config.seed, points[i].seed);
    EXPECT_EQ(results[i].config.rx_threads, points[i].rx_threads);
    EXPECT_GT(results[i].wall_seconds, 0.0);
  }
}

TEST(SweepRunner, PointMetricsIndependentOfListOrder) {
  const auto points = test_points(8);
  std::vector<ExperimentConfig> permuted(points.rbegin(), points.rend());

  SweepOptions opts;
  opts.jobs = 4;
  const auto forward = SweepRunner(opts).run(points);
  const auto backward = SweepRunner(opts).run(permuted);
  ASSERT_EQ(forward.size(), backward.size());
  const std::size_t n = forward.size();
  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    expect_same_metrics(forward[i].metrics, backward[n - 1 - i].metrics);
  }
}

TEST(SweepRunner, ReseedDerivesPerPointSeeds) {
  const auto points = test_points(6);
  SweepOptions opts;
  opts.jobs = 3;
  opts.reseed = true;
  opts.sweep_seed = 42;
  const auto results = SweepRunner(opts).run(points);
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].config.seed, derive_seed(42, i));
    seeds.insert(results[i].config.seed);
  }
  EXPECT_EQ(seeds.size(), results.size());  // all distinct
}

TEST(SweepRunner, ExceptionFromFailingPointPropagates) {
  const auto points = test_points(8);
  SweepOptions opts;
  opts.jobs = 1;
  opts.probe = [](Experiment&, SweepResult& r) {
    if (r.index == 3) throw std::runtime_error("point 3 failed");
  };
  try {
    (void)SweepRunner(opts).run(points);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "point 3 failed");
  }

  // Parallel workers abandon the queue on failure and rethrow too.
  opts.jobs = 4;
  EXPECT_THROW((void)SweepRunner(opts).run(points), std::runtime_error);
}

TEST(SweepRunner, ProgressReportsEveryPointExactlyOnce) {
  const auto points = test_points(10);
  SweepOptions opts;
  opts.jobs = 4;
  std::vector<std::size_t> completed;
  std::set<std::size_t> indices;
  opts.progress = [&](const SweepProgress& p) {
    EXPECT_EQ(p.total, points.size());
    completed.push_back(p.completed);
    indices.insert(p.index);
  };
  (void)SweepRunner(opts).run(points);
  ASSERT_EQ(completed.size(), points.size());
  // The callback is serialized, so `completed` counts straight up.
  for (std::size_t i = 0; i < completed.size(); ++i) EXPECT_EQ(completed[i], i + 1);
  EXPECT_EQ(indices.size(), points.size());
}

// Regression guard for the hook synchronization contract (TSan-verified;
// see the concurrency note in sweep.cpp): the progress callback is
// serialized under the runner's mutex, and the probe callback touches
// only its own point's SweepResult. Both hooks here mutate *non-atomic*
// shared state in ways that are only safe if those guarantees hold, and
// 16 workers racing over 48 points give TSan (HICC_SANITIZE=thread) a
// real interleaving to chew on. Without TSan it still catches lost
// updates and ordering violations.
TEST(SweepRunner, HooksAreRaceFreeUnder16Threads) {
  auto points = test_points(48);
  for (auto& p : points) {
    p.warmup = TimePs::from_us(50);
    p.measure = TimePs::from_us(150);
  }
  SweepOptions opts;
  opts.jobs = 16;
  std::size_t progress_calls = 0;  // unsynchronized on purpose
  std::size_t last_completed = 0;
  opts.progress = [&](const SweepProgress& p) {
    ++progress_calls;
    EXPECT_EQ(p.completed, last_completed + 1);  // serialized => no gaps
    last_completed = p.completed;
  };
  opts.probe = [](Experiment&, SweepResult& r) {
    r.extra["probe_index"] = static_cast<double>(r.index);
  };
  const auto results = SweepRunner(opts).run(points);
  EXPECT_EQ(progress_calls, points.size());
  EXPECT_EQ(last_completed, points.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].extra.at("probe_index"), static_cast<double>(i));
  }
}

TEST(SweepRunner, ProbeHarvestsExtraScalars) {
  const auto points = test_points(4);
  SweepOptions opts;
  opts.jobs = 2;
  opts.probe = [](Experiment& exp, SweepResult& r) {
    r.extra["rx_threads_probe"] = static_cast<double>(exp.config().rx_threads);
  };
  const auto results = SweepRunner(opts).run(points);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].extra.at("rx_threads_probe"), points[i].rx_threads);
  }
}

TEST(SweepRunner, ResolveJobsPrecedence) {
  EXPECT_EQ(SweepRunner::resolve_jobs(5), 5);
  ASSERT_EQ(setenv("HICC_JOBS", "3", 1), 0);
  EXPECT_EQ(SweepRunner::resolve_jobs(0), 3);
  EXPECT_EQ(SweepRunner::resolve_jobs(7), 7);  // explicit beats env
  ASSERT_EQ(setenv("HICC_JOBS", "not-a-number", 1), 0);
  EXPECT_GE(SweepRunner::resolve_jobs(0), 1);  // falls back to hardware
  ASSERT_EQ(unsetenv("HICC_JOBS"), 0);
  EXPECT_GE(SweepRunner::resolve_jobs(0), 1);
}

TEST(SweepRunner, EmptySweepReturnsEmpty) {
  const auto results = SweepRunner().run({});
  EXPECT_TRUE(results.empty());
}

TEST(DeriveSeed, DeterministicAndDecorrelated) {
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s : {0ULL, 1ULL, 42ULL}) {
    for (std::uint64_t i = 0; i < 64; ++i) seeds.insert(derive_seed(s, i));
  }
  EXPECT_EQ(seeds.size(), 3u * 64u);  // no collisions across sweeps or indices
}

TEST(SweepJson, RecordsSchemaConfigMetricsAndExtra) {
  auto points = test_points(2);
  SweepOptions opts;
  opts.jobs = 2;
  opts.probe = [](Experiment&, SweepResult& r) { r.extra["answer"] = 42.0; };
  const auto results = SweepRunner(opts).run(points);

  std::ostringstream os;
  write_json(results, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"hicc.sweep.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"app_throughput_gbps\""), std::string::npos);
  EXPECT_NE(json.find("\"rx_threads\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"answer\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);
  // Two points -> two index fields, one per entry.
  EXPECT_NE(json.find("\"index\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"index\": 1"), std::string::npos);
  // Balanced braces => structurally sound (cheap JSON sanity check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

}  // namespace
}  // namespace hicc::sweep
