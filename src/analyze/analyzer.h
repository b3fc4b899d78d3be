// Whole-program semantic analyzer, layer 6: the analysis driver.
//
// run() loads and lexes every C++ file under the requested paths,
// reads the layering DAG from <root>/DESIGN.md, builds the include
// graph and the approximate call graph, and applies every rule: the
// per-file ones (file_rules.h) and the whole-program ones:
//
//   ana-include-cycle      include cycles
//   ana-include-unused     direct includes providing nothing the
//                          includer mentions (warning-level advisory)
//   ana-hot-alloc-reach    allocation sites reachable from functions
//                          in hotpath-marked files, where the sink
//                          lives in a file the hot-* rules do not cover
//   ana-det-reach          wall-clock / global-RNG / unordered-
//                          iteration / pointer-keyed-ordering sites
//                          reachable (>= 1 call hop) from functions
//                          defined in src/sim -- the simulator entry
//                          points
//   ana-par-global-reach   references to namespace-scope mutable
//                          variables from functions reachable from
//                          partition-module seams
//   ana-unused-suppression an inline allow, of any rule, that
//                          suppresses nothing
//
// Call edges are layering-aware: a call in module M only resolves to
// definitions in M, common, or M's transitive DAG closure, which is
// what keeps an approximate name-keyed call graph from inventing
// cross-module edges the build would reject.
#pragma once

#include <string>
#include <vector>

#include "analyze/report.h"

namespace hicc::analyze {

struct Options {
  std::string root;                // holds src/, docs/ and DESIGN.md (default ".")
  std::vector<std::string> paths;  // files/dirs to scan, relative to root
};

struct Result {
  std::vector<Diagnostic> findings;  // errors, unused allows included, sorted
  std::vector<Diagnostic> warnings;  // advisory diagnostics, sorted
  ReportStats stats;
  bool failed = false;  // any finding, or `error`
  std::string error;    // a missing path or a bad layer-dag block (exit 2)
};

/// Runs the full analysis. Deterministic: same tree, same output.
Result run(const Options& opts);

/// The human-readable output: sorted diagnostics, then a summary line.
std::string format_text(const Result& r);

/// Sorted rule ids (--list-rules).
std::vector<std::string> rule_ids();

}  // namespace hicc::analyze
