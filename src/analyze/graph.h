// Whole-program semantic analyzer, layer 3: the include graph and the
// layering DAG.
//
// Nodes are root-relative file paths; edges are quoted #include
// directives, resolved first against the src/-rooted include path the
// build uses (target_include_directories(... src)), then relative to
// the including file. The graph backs two rules:
//
//   ana-include-cycle      include cycles (DFS back edges)
//   ana-include-unused     a direct include none of whose provided
//                          names the includer mentions (advisory)
//
// The module layering DAG has one copy: the ```layer-dag block of
// <root>/DESIGN.md, parsed here. The layer-dag rule checks direct
// includes against it; the call graph and the partition-global rule
// use its transitive closure.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/source.h"

namespace hicc::analyze {

struct IncludeEdge {
  std::string from;      // includer, root-relative
  std::string target;    // as written between the quotes
  std::string resolved;  // root-relative path, "" if outside the scanned set
  int line = 0;
  int col = 0;
};

struct IncludeCycle {
  std::vector<std::string> path;  // f0, f1, ..., fk with fk including f0
  std::string at_file;            // file carrying the closing directive
  int line = 0;
  int col = 0;
};

class IncludeGraph {
 public:
  /// Builds edges for every scanned file. `files` is keyed by
  /// root-relative path; resolution only succeeds into that set.
  void build(const std::map<std::string, SourceFile>& files);

  [[nodiscard]] const std::vector<IncludeEdge>& edges() const { return edges_; }

  /// All include cycles, one per DFS back edge, in deterministic order.
  [[nodiscard]] std::vector<IncludeCycle> find_cycles() const;

 private:
  std::vector<IncludeEdge> edges_;
  std::map<std::string, std::vector<std::string>> adj_;  // resolved edges only
  std::map<std::string, std::map<std::string, std::pair<int, int>>> edge_pos_;
};

/// The module layering DAG: module -> modules it may include directly
/// (besides itself and common), and the transitive closure of that.
struct LayerDag {
  std::map<std::string, std::set<std::string>> direct;
  std::map<std::string, std::set<std::string>> closure;

  [[nodiscard]] bool has(const std::string& mod) const { return direct.count(mod) > 0; }

  /// `mod`, common, and the modules `mod` may depend on: its direct
  /// list, or with `transitive` its closure. {mod, common} for a module
  /// the DAG does not name.
  [[nodiscard]] std::set<std::string> allowed(const std::string& mod, bool transitive) const;
};

/// Reads the ```layer-dag block out of DESIGN.md's text: one
/// `module: dep dep ...` line per module, modules and deps sorted, every
/// dep itself a module. Returns "" on success, else what is wrong.
std::string parse_layer_dag(const std::string& design_md, LayerDag* out);

}  // namespace hicc::analyze
