// Across-run parallelism: each Simulator is single-threaded by design,
// so sweeps over many ExperimentConfig points are embarrassingly
// parallel. SweepRunner executes a vector of configuration points on a
// fixed-size thread pool and collects index-ordered results that are
// bitwise-identical to a serial run regardless of worker count or
// completion order:
//
//   std::vector<hicc::ExperimentConfig> points = ...;
//   hicc::sweep::SweepRunner runner;          // HICC_JOBS or hardware
//   const auto results = runner.run(points);  // results[i] <-> points[i]
//
// Determinism holds because every Experiment owns all of its state
// (there is no global mutable state anywhere in the engine) and each
// point's seed is fixed before any worker starts: either the seed the
// caller placed in the config, or -- with SweepOptions::reseed -- a
// seed derived from (sweep_seed, point_index) via derive_seed().
//
// This is the ACROSS-run half of the two-level threading budget; the
// WITHIN-run half is ClusterConfig::parallelism, which runs one cluster
// experiment's partitions on a ParallelEngine pool (sim/parallel.h,
// docs/PARALLELISM.md). The levels compose multiplicatively -- a sweep
// of parallel cluster points uses up to jobs x parallelism threads --
// so size $HICC_JOBS against the cores left over after the per-run
// engines take theirs. Both levels carry the same contract: thread
// count never changes results, only wall-clock time.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/metrics.h"

namespace hicc {
class ClusterExperiment;
class Experiment;
struct ClusterMetrics;
namespace trace {
class Tracer;
}
}  // namespace hicc

namespace hicc::sweep {

/// Outcome of one sweep point: the config as executed (including any
/// derived seed), its measurement-window metrics, scalars harvested by
/// the probe callback, and the point's wall-clock duration.
struct SweepResult {
  std::size_t index = 0;
  ExperimentConfig config;
  Metrics metrics;
  std::map<std::string, double> extra;
  double wall_seconds = 0.0;
};

/// Snapshot passed to the progress callback after each point finishes.
struct SweepProgress {
  std::size_t completed = 0;     // points finished so far (including this one)
  std::size_t total = 0;         // points in the sweep
  std::size_t index = 0;         // the point that just finished
  double wall_seconds = 0.0;     // that point's duration
};

struct SweepOptions {
  /// Worker threads. <= 0 means: $HICC_JOBS if set and positive, else
  /// std::thread::hardware_concurrency().
  int jobs = 0;
  /// When true, every point's config.seed is overwritten with
  /// derive_seed(sweep_seed, index) before execution.
  bool reseed = false;
  std::uint64_t sweep_seed = 0;
  /// Called after each point completes. Serialized by the runner --
  /// the callback never runs concurrently with itself.
  std::function<void(const SweepProgress&)> progress;
  /// Called on the worker thread after a point's run() completes,
  /// while its Experiment is still alive -- use it to harvest
  /// subsystem counters that Metrics does not carry into
  /// SweepResult::extra. Must only touch the passed-in objects.
  std::function<void(Experiment&, SweepResult&)> probe;
};

/// Fixed-size thread-pool executor for experiment sweeps.
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opts = {});

  /// Executes every point and returns results in point order. If any
  /// point throws, the remaining queue is abandoned and the exception
  /// from the lowest-index failing point is rethrown.
  [[nodiscard]] std::vector<SweepResult> run(std::vector<ExperimentConfig> points) const;

  /// Worker count this runner resolved at construction.
  [[nodiscard]] int jobs() const { return jobs_; }

  /// Resolves a requested job count: positive values pass through;
  /// otherwise $HICC_JOBS, then hardware_concurrency(), floor 1.
  [[nodiscard]] static int resolve_jobs(int requested);

 private:
  SweepOptions opts_;
  int jobs_;
};

/// Ready-made SweepOptions::probe body: copies the final value of
/// every trace probe of the point's Tracer into SweepResult::extra as
/// `trace.<probe-name>` (no-op when the point ran with tracing
/// disabled). Lets a sweep carry end-of-run telemetry -- last buffer
/// level, total drops, RTT percentiles -- into the JSON output without
/// per-run trace files.
void harvest_trace(Experiment& exp, SweepResult& r);

/// Tracer-level form of harvest_trace for harnesses that are not an
/// Experiment (e.g. ClusterExperiment): copies every probe of
/// `tracer` into `r.extra` as `trace.<probe-name>`. No-op on nullptr.
/// (Distinct name so `probe = harvest_trace` stays unambiguous.)
void harvest_trace_probes(trace::Tracer* tracer, SweepResult& r);

/// One point per receiver of a finished cluster run, receiver r at
/// index first_index + r: the effective per-host config, r's Metrics,
/// and extras carrying the host index and its fabric port's drops and
/// queue. A run with a workload adds the cluster-merged workload.*
/// quantiles, the same on every row. hicc_cli --topology and the
/// point worker both build their records here.
[[nodiscard]] std::vector<SweepResult> cluster_points(ClusterExperiment& exp,
                                                      const ClusterMetrics& cm,
                                                      std::size_t first_index);

/// Writes one point's JSON object element exactly as write_json emits
/// it inside the "points" array (4-space object indent, no leading
/// padding or separators). The supervisor's journal/merge path reuses
/// this, which is what makes a resumed sweep's merged output bitwise
/// identical to an uninterrupted write_json (docs/ROBUSTNESS.md).
void write_point(std::ostream& os, const SweepResult& r);

/// Writes results as structured JSON (schema "hicc.sweep.v1"): one
/// entry per point with config, metrics, extra, and wall_seconds --
/// the machine-diffable companion to the benches' CSV tables.
void write_json(const std::vector<SweepResult>& results, std::ostream& os);

/// Convenience: writes JSON to `path`, returning false on I/O failure.
[[nodiscard]] bool save_json(const std::vector<SweepResult>& results,
                             const std::string& path);

}  // namespace hicc::sweep
