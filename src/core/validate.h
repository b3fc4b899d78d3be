// Aggregated configuration validation.
//
// Experiment construction trusts its config; a nonsensical one (zero
// threads, an IOTLB smaller than its set count, a fault script aimed
// at a link that does not exist) either crashes deep in a component or
// silently produces garbage metrics. validate() checks the whole
// config up front and returns *every* violation it finds -- callers
// (hicc_cli, SweepRunner) print them all at once so a user fixes one
// round of mistakes, not one mistake per round.
#pragma once

#include <string>
#include <vector>

#include "core/config.h"

namespace hicc {

struct ClusterConfig;

/// One rejected configuration aspect.
struct ConfigViolation {
  /// Dotted path of the offending field ("rx_threads",
  /// "faults[2].prob", ...).
  std::string field;
  /// What is wrong and what a valid value looks like.
  std::string message;
};

/// Checks `cfg` for nonsensical values across every subsystem plus the
/// fault script's semantic constraints (net.* targets are links of
/// single_host_topology(cfg)). Empty result = valid. Never
/// throws; ordering is stable (declaration order, then script order).
[[nodiscard]] std::vector<ConfigViolation> validate(const ExperimentConfig& cfg);

/// Cluster variant (core/cluster.h): checks the topology shape, the
/// effective per-host config (violations prefixed "host."), and the
/// cluster fault script, whose net.* targets are checked against the
/// cluster's topology.
[[nodiscard]] std::vector<ConfigViolation> validate(const ClusterConfig& cfg);

/// Supervisor variant (sweep/supervisor.h): checks the per-point
/// timeout/retry/backoff knobs. Violations use a "supervisor." field
/// prefix so they read unambiguously next to experiment-config ones.
[[nodiscard]] std::vector<ConfigViolation> validate(const SupervisorParams& params);

/// Renders violations one per line as "field: message" (for CLI
/// output and exception messages).
[[nodiscard]] std::string describe(const std::vector<ConfigViolation>& violations);

}  // namespace hicc
