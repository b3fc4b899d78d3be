// Shared helpers for the figure-reproduction benches.
//
// Every bench binary prints: a header identifying the paper artifact it
// regenerates, an aligned table with the same series the paper plots,
// and a short note describing the expected (paper) shape. Each bench
// writes a CSV (named after the figure) plus a structured JSON sweep
// record into the working directory for plotting and machine diffing.
//
// Experiment points run through sweep::SweepRunner, so every bench is
// parallel across configurations: worker count comes from $HICC_JOBS
// (default: hardware concurrency), and results are bitwise-identical
// to a serial run. Set HICC_SMOKE=1 to shrink warmup/measure windows
// and sample counts for CI smoke runs.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/table.h"
#include "core/config.h"
#include "core/experiment.h"
#include "core/metrics.h"
#include "sweep/sweep.h"

namespace hicc::bench {

/// Prints the standard bench header.
inline void header(const std::string& artifact, const std::string& what,
                   const std::string& paper_shape) {
  std::cout << "==============================================================\n"
            << artifact << " -- " << what << "\n"
            << "Paper shape: " << paper_shape << "\n"
            << "==============================================================\n";
}

/// True when running as a CI smoke test (HICC_SMOKE set): benches trade
/// statistical power for wall-clock so they finish in seconds.
inline bool smoke() {
  const char* env = std::getenv("HICC_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Sample-count helper: the full figure's count, or the smoke-run one.
inline int samples(int full, int reduced) { return smoke() ? reduced : full; }

/// Runs every configuration point on the sweep thread pool and returns
/// index-ordered results. `probe` (optional) harvests extra subsystem
/// counters per point while its Experiment is alive.
inline std::vector<sweep::SweepResult> sweep(
    std::vector<ExperimentConfig> points,
    std::function<void(Experiment&, sweep::SweepResult&)> probe = nullptr) {
  sweep::SweepOptions opts;
  opts.probe = std::move(probe);
  const sweep::SweepRunner runner(opts);
  return runner.run(std::move(points));
}

/// Prints the table and saves it as CSV; reports the CSV path.
inline void finish(const Table& table, const std::string& csv_name) {
  table.print(std::cout, 3);
  if (table.save_csv(csv_name)) {
    std::cout << "(series written to " << csv_name << ")\n";
  }
  std::cout << std::endl;
}

/// Saves the sweep's structured record next to the CSV; reports the path.
inline void save_json(const std::vector<sweep::SweepResult>& results,
                      const std::string& json_name) {
  if (sweep::save_json(results, json_name)) {
    std::cout << "(sweep record written to " << json_name << ")\n";
  }
}

/// Short-run defaults shared by the figure benches: long enough for the
/// congestion-control sawtooth to reach steady state, short enough that
/// a full figure regenerates in tens of seconds. Smoke runs shrink the
/// windows further.
inline ExperimentConfig base_config() {
  ExperimentConfig cfg;
  cfg.warmup = TimePs::from_ms(smoke() ? 2 : 10);
  cfg.measure = TimePs::from_ms(smoke() ? 4 : 20);
  return cfg;
}

}  // namespace hicc::bench
