// Worker half of the crash-isolated sweep (docs/ROBUSTNESS.md).
//
// The supervisor (sweep/supervisor.h) runs each sweep point in its own
// subprocess so a segfault, OOM kill, or wedge destroys one point, not
// the sweep. The contract between the two processes lives here:
//
//   - the parent writes a `hicc.point.v1` spec (one key=value per
//     line) to the worker's stdin and closes it;
//   - the worker runs the point and writes a complete `hicc.sweep.v1`
//     record to stdout (one element for a single-host point, one per
//     receiver for a cluster point), with `wall_seconds` pinned to 0
//     so worker records are bitwise deterministic;
//   - the exit code says how it went (ExitCode below -- the same codes
//     hicc_cli uses, asserted by CI).
//
// The spec covers exactly the config surface that hicc.sweep.v1
// records serialize (sweep.cpp write_config) plus run-control,
// watchdog, trace, and optional cluster-topology keys; a worker record
// therefore matches what the in-process SweepRunner would produce for
// the same point, byte for byte except wall_seconds.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/config.h"

namespace hicc::sweep {

/// Unified process exit codes, shared by hicc_cli and the point worker
/// and documented in docs/ROBUSTNESS.md. CI smoke jobs assert them.
enum ExitCode : int {
  kExitOk = 0,
  kExitUsage = 1,          // bad flags / file I/O failure
  kExitConfigInvalid = 2,  // validate() rejected the configuration
  kExitFaultParse = 3,     // fault-script or point-spec parse error
  kExitAborted = 4,        // run completed degraded: run_status != ok
  kExitGiveUp = 5,         // supervisor: >= 1 point failed every attempt
  kExitInterrupted = 6,    // SIGINT/SIGTERM: partial results were flushed
  kExitExecFailed = 127,   // supervisor child: exec of the worker failed
};

/// A parsed `hicc.point.v1` spec: the per-host config plus either
/// nothing more (single-host point) or the cluster-run shape.
struct PointSpec {
  /// Index the record's element(s) carry (`index` for a single-host
  /// point, `index + r` for cluster receiver r).
  std::size_t index = 0;
  /// Which attempt this is (1-based); the supervisor appends an
  /// `attempt=` line per launch so deterministic flaky injections can
  /// succeed on retry.
  int attempt = 1;
  /// Test-only failure injection, applied before the run: "segv",
  /// "abort", "kill", "hang", "exit:N", or "flaky-segv:K" /
  /// "flaky-kill:K" (fail while attempt < K). Empty = none.
  std::string inject;

  ExperimentConfig host;

  /// True when the spec carried a `topology=` key: the point is a
  /// ClusterExperiment emitting one element per receiver.
  bool is_cluster = false;
  int leaves = 1;
  int spines = 1;
  int hosts = 2;  // total hosts, must divide evenly across leaves
  int receivers = 1;
  std::uint64_t ecmp_seed = 1;
  double host_gbps = 100.0;
  double fabric_gbps = 100.0;
  int parallelism = 1;
  std::size_t mailbox_capacity = 0;

  /// Assembles the ClusterConfig a cluster spec describes. Tracing is
  /// forced off: cluster workers report metrics-only records.
  [[nodiscard]] ClusterConfig cluster() const;
};

/// Serializes a single-host point as a `hicc.point.v1` spec
/// (round-trips through parse_point_spec).
[[nodiscard]] std::string point_spec(const ExperimentConfig& cfg, std::size_t index);

/// Serializes a cluster point; `index` is the first receiver element's
/// index. `cfg.host.faults` is ignored (cluster scripts live in
/// `cfg.faults`), matching ClusterExperiment.
[[nodiscard]] std::string cluster_point_spec(const ClusterConfig& cfg, std::size_t index);

/// Result of parsing a spec: every problem found, not just the first.
struct SpecParse {
  PointSpec spec;
  std::vector<std::string> errors;
  [[nodiscard]] bool ok() const { return errors.empty(); }
};
[[nodiscard]] SpecParse parse_point_spec(const std::string& text);

/// The worker-process body behind `hicc_cli --point-worker`: reads one
/// spec from `in`, runs it, writes the `hicc.sweep.v1` record to `out`
/// and problems to `err`; the return value is the process exit code
/// (kExitOk / kExitConfigInvalid / kExitFaultParse / an injected
/// code). A degraded-but-finished run (watchdog abort, mailbox
/// overflow) still exits kExitOk -- its status travels inside the
/// record, and the supervisor does not retry it.
int run_point_worker(std::istream& in, std::ostream& out, std::ostream& err);

}  // namespace hicc::sweep
