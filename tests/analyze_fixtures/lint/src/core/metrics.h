// docs-run-status fixture: a to_string with one label missing from the
// fixture docs/ROBUSTNESS.md, one documented, and one suppressed.
#pragma once

namespace hicc {

enum class RunStatus { kOk, kNotInDocs, kWaived };

inline const char* to_string(RunStatus s) {
  switch (s) {
    case RunStatus::kOk: return "ok";
    case RunStatus::kNotInDocs: return "not_in_docs";
    // hicc-lint: allow(docs-run-status) -- fixture: label waived on purpose
    case RunStatus::kWaived: return "waived_status";
  }
  return "ok";
}

// docs-metric fixture: a Metrics visitor with one key missing from the
// fixture docs/OBSERVABILITY.md's Run metrics table, one documented,
// and one suppressed.
struct Metrics {
  double documented_metric = 0.0;
  double undocumented_metric = 0.0;
  double waived_metric = 0.0;
};

template <class F>
void for_each_field(const Metrics& m, F&& f) {
  f("documented_metric", m.documented_metric);
  f("undocumented_metric", m.undocumented_metric);
  // hicc-lint: allow(docs-metric) -- fixture: key waived on purpose
  f("waived_metric", m.waived_metric);
}

}  // namespace hicc
