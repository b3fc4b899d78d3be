// hicc_analyze -- the project's static analyzer (layer 1 of the
// static-analysis stack, docs/STATIC_ANALYSIS.md).
//
//   hicc_analyze [options] PATH...
//
//   --root=DIR        repo root holding src/, docs/ and DESIGN.md (default: cwd)
//   --json=FILE       write the hicc.analysis.v2 report
//   --list-rules      print rule ids and exit
//
// Exit codes: 0 clean, 1 findings (an allow that suppresses nothing
// counts), 2 usage error, a missing path, or a bad DESIGN.md layer-dag
// block.
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analyze/analyzer.h"
#include "analyze/report.h"

namespace {

int usage(const char* msg) {
  if (msg != nullptr) std::cerr << "hicc_analyze: " << msg << "\n";
  std::cerr << "usage: hicc_analyze [--root=DIR] [--json=FILE] [--list-rules] PATH...\n";
  return 2;
}

bool take_value(const std::string& arg, const char* flag, std::string* out) {
  std::size_t n = std::strlen(flag);
  if (arg.compare(0, n, flag) != 0 || arg.size() <= n || arg[n] != '=') return false;
  *out = arg.substr(n + 1);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  hicc::analyze::Options opts;
  bool list_rules = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (arg == "--list-rules") {
      list_rules = true;
    } else if (take_value(arg, "--root", &value)) {
      opts.root = value;
    } else if (take_value(arg, "--json", &value)) {
      json_path = value;
    } else if (arg.rfind("--", 0) == 0) {
      return usage(("unknown option: " + arg).c_str());
    } else {
      opts.paths.push_back(arg);
    }
  }

  if (list_rules) {
    for (const std::string& r : hicc::analyze::rule_ids()) std::cout << r << "\n";
    return 0;
  }
  if (opts.paths.empty()) return usage("at least one path required");

  hicc::analyze::Result res = hicc::analyze::run(opts);
  if (!res.error.empty()) {
    std::cerr << res.error << "\n";
    return 2;
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "hicc_analyze: cannot write " << json_path << "\n";
      return 2;
    }
    out << hicc::analyze::to_json(res.findings, res.stats);
  }

  std::cout << hicc::analyze::format_text(res);
  return res.failed ? 1 : 0;
}
