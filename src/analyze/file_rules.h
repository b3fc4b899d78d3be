// Whole-program semantic analyzer, layer 5: the per-file rules.
//
// Rules that need one file (and, for a .cpp, its sibling header) rather
// than the whole program. They walk the token stream, reading the code
// view or the raw line where a column or a literal's text is needed:
//
//   det-wallclock, det-rand, det-seeded-rng, det-unordered-iter
//                          inputs that make a run depend on more than
//                          its seed (DESIGN.md §7)
//   hot-marker-missing, hot-std-function, hot-heap-alloc,
//   hot-vector-growth      allocation hygiene in files carrying the
//                          hotpath marker (DESIGN.md §8)
//   layer-dag              an #include the DESIGN.md layer-dag block
//                          does not allow, or a src/<module> it lacks
//   layer-trace-header     a trace-internal header included from
//                          outside src/trace
//   par-static-mutable, par-engine-post
//                          the parallel engine's concurrency contract
//                          (docs/PARALLELISM.md)
//   rob-exit               process exit outside the supervisor/worker
//                          seam (docs/ROBUSTNESS.md)
//   docs-probe-undocumented, docs-probe-dynamic, docs-par-knob,
//   docs-run-status, docs-metric
//                          names in code that the docs must list
#pragma once

#include <string>
#include <vector>

#include "analyze/graph.h"
#include "analyze/report.h"
#include "analyze/source.h"

namespace hicc::analyze {

/// The docs text the docs-* rules look names up in ("" when absent).
struct ProjectDocs {
  std::string probes;       // docs/OBSERVABILITY.md + docs/FAULTS.md
  std::string parallelism;  // docs/PARALLELISM.md
  std::string robustness;   // docs/ROBUSTNESS.md
  std::string metrics;      // docs/OBSERVABILITY.md's "Run metrics" section
};

/// Appends the per-file findings for `sf`, before suppression.
/// `sibling` is the header next to a .cpp, or nullptr.
void check_file(const SourceFile& sf, const SourceFile* sibling, const LayerDag& dag,
                const ProjectDocs& docs, std::vector<Diagnostic>* out);

}  // namespace hicc::analyze
