// Whole-program semantic analyzer, layer 4: reporting.
//
// Diagnostics print as
//
//   file:line:col: rule-id: message
//
// sorted by (file, line, col, rule); findings of one rule at one
// position keep the order the rule reported them in.
//
// The machine-readable report is the `hicc.analysis.v2` JSON schema:
// a single object with schema id, deterministic scan counters, and the
// findings (severity, optional call chain). No timestamps or absolute
// paths: the report is byte-identical across runs on the same tree.
#pragma once

#include <string>
#include <vector>

namespace hicc::analyze {

struct Diagnostic {
  std::string file;
  int line = 0;
  int col = 0;
  std::string rule;
  std::string message;
  bool warning = false;            // advisory: printed, never fails the run
  std::vector<std::string> chain;  // call chain root -> ... -> sink, if any

  [[nodiscard]] std::string text() const;
};

/// Orders by (file, line, col, rule), stably.
void sort_diagnostics(std::vector<Diagnostic>* diags);

/// Everything the JSON report needs beyond the diagnostics.
struct ReportStats {
  std::vector<std::string> scanned_paths;  // the CLI path arguments
  int files = 0;
  int functions = 0;
  int include_edges = 0;
  int call_edges = 0;
  int suppressions_used = 0;
};

/// Serializes the hicc.analysis.v2 report (deterministic key order).
std::string to_json(const std::vector<Diagnostic>& findings, const ReportStats& stats);

}  // namespace hicc::analyze
