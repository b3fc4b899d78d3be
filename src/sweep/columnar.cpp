#include "sweep/columnar.h"

#include <fstream>
#include <optional>
#include <ostream>
#include <type_traits>

#include "common/fmt.h"

namespace hicc::sweep {

void ColumnarTable::add_row(const std::map<std::string, double>& row) {
  for (const auto& [key, value] : row) {
    auto [it, inserted] = columns_.try_emplace(key);
    if (inserted) it->second.assign(rows_, 0.0);  // backfill earlier rows
    it->second.push_back(value);
  }
  ++rows_;
  // Fields absent from this row get an explicit 0.0 so every column
  // stays rectangular.
  for (auto& [key, column] : columns_) {
    if (column.size() < rows_) column.push_back(0.0);
  }
}

void ColumnarTable::write(std::ostream& os) const {
  os << "{\n  \"schema\": \"hicc.sweepc.v1\",\n  \"points\": " << rows_
     << ",\n  \"fields\": [";
  bool first = true;
  for (const auto& [key, column] : columns_) {
    os << (first ? "" : ", ") << '"' << key << '"';
    first = false;
  }
  os << "],\n  \"columns\": {";
  first = true;
  for (const auto& [key, column] : columns_) {
    os << (first ? "\n" : ",\n") << "    \"" << key << "\": [";
    first = false;
    for (std::size_t i = 0; i < column.size(); ++i) {
      if (i != 0) os << ", ";
      put_double(os, column[i]);
    }
    os << "]";
  }
  os << (columns_.empty() ? "" : "\n  ") << "}\n}\n";
}

namespace {

// A record value as its column: numbers as themselves, bools as 0/1,
// Bytes as their count, TimePs in microseconds and run_status as its
// enum code -- the JSON record's numbers. String keys (cc, faults,
// run_status_detail) and the spec-only run-control keys have none.
template <class T>
  requires std::is_arithmetic_v<T>
std::optional<double> column_value(T v) { return static_cast<double>(v); }
std::optional<double> column_value(Bytes v) { return static_cast<double>(v.count()); }
std::optional<double> column_value(TimePs v) { return v.us(); }
std::optional<double> column_value(RunStatus v) { return static_cast<double>(static_cast<int>(v)); }
std::optional<double> column_value(transport::CcAlgorithm /*v*/) { return std::nullopt; }
std::optional<double> column_value(const fault::FaultScript& /*v*/) { return std::nullopt; }
std::optional<double> column_value(const std::string& /*v*/) { return std::nullopt; }
template <class T>
std::optional<double> column_value(SpecOnly<T> /*v*/) { return std::nullopt; }

// Adds every numeric key `for_each_field` yields for `fields` to `row`
// under `prefix`.
template <class Fields>
void add_columns(const Fields& fields, const std::string& prefix,
                 std::map<std::string, double>* row) {
  for_each_field(fields, [&](const char* key, const auto& v) {
    if (const std::optional<double> x = column_value(v)) (*row)[prefix + key] = *x;
  });
}

}  // namespace

std::map<std::string, double> flatten(const SweepResult& r) {
  std::map<std::string, double> row;
  row["index"] = static_cast<double>(r.index);
  row["wall_seconds"] = r.wall_seconds;
  add_columns(r.config, "config.", &row);
  add_columns(r.metrics, "metrics.", &row);
  for (const auto& [key, value] : r.extra) row["extra." + key] = value;
  return row;
}

void write_columnar(const std::vector<SweepResult>& results, std::ostream& os) {
  ColumnarTable table;
  for (const SweepResult& r : results) table.add_row(flatten(r));
  table.write(os);
}

bool save_columnar(const std::vector<SweepResult>& results, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_columnar(results, out);
  return static_cast<bool>(out);
}

}  // namespace hicc::sweep
