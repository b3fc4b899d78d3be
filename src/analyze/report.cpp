#include "analyze/report.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <tuple>

namespace hicc::analyze {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void append_string_array(std::ostringstream* out, const std::vector<std::string>& items) {
  *out << "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) *out << ", ";
    *out << '"' << json_escape(items[i]) << '"';
  }
  *out << "]";
}

}  // namespace

std::string Diagnostic::text() const {
  std::ostringstream out;
  out << file << ":" << line << ":" << col << ": " << rule << ": " << message;
  return out.str();
}

void sort_diagnostics(std::vector<Diagnostic>* diags) {
  std::stable_sort(diags->begin(), diags->end(), [](const Diagnostic& a, const Diagnostic& b) {
    return std::tie(a.file, a.line, a.col, a.rule) < std::tie(b.file, b.line, b.col, b.rule);
  });
}

std::string to_json(const std::vector<Diagnostic>& findings, const ReportStats& stats) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"hicc.analysis.v2\",\n";
  out << "  \"paths\": ";
  append_string_array(&out, stats.scanned_paths);
  out << ",\n";
  out << "  \"files\": " << stats.files << ",\n";
  out << "  \"functions\": " << stats.functions << ",\n";
  out << "  \"include_edges\": " << stats.include_edges << ",\n";
  out << "  \"call_edges\": " << stats.call_edges << ",\n";
  out << "  \"suppressions_used\": " << stats.suppressions_used << ",\n";
  out << "  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Diagnostic& d = findings[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"file\": \"" << json_escape(d.file) << "\", \"line\": " << d.line
        << ", \"col\": " << d.col << ", \"rule\": \"" << json_escape(d.rule)
        << "\", \"severity\": \"" << (d.warning ? "warning" : "error") << "\", \"message\": \""
        << json_escape(d.message) << "\", \"chain\": ";
    append_string_array(&out, d.chain);
    out << "}";
  }
  out << (findings.empty() ? "]\n" : "\n  ]\n");
  out << "}\n";
  return out.str();
}

}  // namespace hicc::analyze
