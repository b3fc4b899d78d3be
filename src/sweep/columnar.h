// Compact columnar sweep results (schema "hicc.sweepc.v1"), the
// column-oriented companion to write_json's "hicc.sweep.v1": one
// double array per field instead of one nested object per point, so a
// wide sweep (or a 1M-flow workload run reduced to sketch quantiles)
// serializes in kilobytes and loads into analysis tools as plain
// arrays. Scalars only by design -- sketches and histograms are
// reduced to their quantile views before they get here.
//
// Determinism contract: field order is sorted-by-name and values are
// written with put_double (shortest round-trip form), so the same
// results produce byte-identical files on every platform and for any
// sweep/cluster parallelism. Nothing in the tree reads the format
// back; analysis tools load it as plain JSON.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sweep/sweep.h"

namespace hicc::sweep {

/// A rows x fields table of doubles with sorted, stable field order.
class ColumnarTable {
 public:
  /// Appends one row. New fields are backfilled with 0.0 for earlier
  /// rows; fields absent from this row get 0.0.
  void add_row(const std::map<std::string, double>& row);

  /// Writes the "hicc.sweepc.v1" JSON document.
  void write(std::ostream& os) const;

 private:
  std::map<std::string, std::vector<double>> columns_;
  std::size_t rows_ = 0;
};

/// Flattens one sweep point to every numeric key of its hicc.sweep.v1
/// record: index, wall_seconds, each numeric `config.*` and `metrics.*`
/// key (bools as 0/1, run_status as its enum code; the string keys are
/// left out) and every `extra.*` probe.
[[nodiscard]] std::map<std::string, double> flatten(const SweepResult& r);

/// Writes `results` as one "hicc.sweepc.v1" document (flatten() per
/// point, one row each).
void write_columnar(const std::vector<SweepResult>& results, std::ostream& os);

/// Convenience: writes columnar JSON to `path`; false on I/O failure.
[[nodiscard]] bool save_columnar(const std::vector<SweepResult>& results,
                                 const std::string& path);

}  // namespace hicc::sweep
