#include "analyze/file_rules.h"

#include <cctype>
#include <initializer_list>
#include <set>
#include <string_view>
#include <utility>

#include "analyze/index.h"

namespace hicc::analyze {
namespace {

using Tokens = std::vector<Token>;
using Alts = std::initializer_list<const char*>;

// Every file under these directories must carry the hotpath marker.
constexpr const char* kHotpathDirs[] = {"src/sim/", "src/nic/", "src/pcie/", "src/iommu/",
                                        "src/workload/"};

// The only files that may end the process: the point worker (injected
// deaths, its exit-code contract) and the supervisor's post-fork
// exec-failure path.
constexpr const char* kExitSeam[] = {"src/sweep/worker.cpp", "src/sweep/supervisor.cpp"};

bool word_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_'; }
bool space_char(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

// True when t[i + k] is one of alts[k] for every k, all on t[i]'s line.
bool seq(const Tokens& t, std::size_t i, std::initializer_list<Alts> alts) {
  const int line = i < t.size() ? t[i].line : 0;
  for (Alts a : alts) {
    if (i >= t.size() || t[i].line != line || !is_one_of(t[i].text, a)) return false;
    ++i;
  }
  return true;
}

// True when `word` occurs in `text` between non-word characters.
bool has_word(const std::string& text, const std::string& word) {
  for (std::size_t p = text.find(word); p != std::string::npos; p = text.find(word, p + 1)) {
    const std::size_t end = p + word.size();
    if ((p == 0 || !word_char(text[p - 1])) && (end == text.size() || !word_char(text[end]))) {
      return true;
    }
  }
  return false;
}

// True when `s` holds the whole word `word` at `at`.
bool word_at(const std::string& s, std::size_t at, std::string_view word) {
  const std::size_t end = at + word.size();
  return s.compare(at, word.size(), word) == 0 && (end >= s.size() || !word_char(s[end]));
}

// The last run of word characters in `text`, or "?".
std::string last_word(const std::string& text) {
  std::size_t end = text.size();
  while (end > 0 && !word_char(text[end - 1])) --end;
  std::size_t begin = end;
  while (begin > 0 && word_char(text[begin - 1])) --begin;
  return begin == end ? "?" : text.substr(begin, end - begin);
}

std::string join(const std::set<std::string>& items) {
  std::string out;
  for (const std::string& s : items) {
    if (!out.empty()) out += ", ";
    out += s;
  }
  return out;
}

int brace_balance(const std::string& line) {
  int n = 0;
  for (char c : line) n += c == '{' ? 1 : (c == '}' ? -1 : 0);
  return n;
}

// Identifiers `x` with a call `x.method(` in `t`.
std::set<std::string> receivers(const Tokens& t, const char* method) {
  std::set<std::string> names;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind == Token::Kind::kIdent && t[i + 1].line == t[i].line &&
        seq(t, i + 1, {{"."}, {method}, {"("}})) {
      names.insert(t[i].text);
    }
  }
  return names;
}

// `rest` (what follows `static `) opens with `[inline] const` or
// `[inline] constexpr`.
bool const_decl(const std::string& rest) {
  std::size_t p = 0;
  if (rest.compare(0, 6, "inline") == 0) {
    std::size_t q = 6;
    while (q < rest.size() && space_char(rest[q])) ++q;
    if (q > 6) p = q;
  }
  return word_at(rest, p, "const") || word_at(rest, p, "constexpr");
}

// The field a line of struct ParallelParams declares -- `Type name;`
// with an optional `{...}` and/or `= ...` initializer, starting the
// line -- or "" for anything else.
std::string knob_name(const std::string& code_line) {
  const std::size_t first = code_line.find_first_not_of(" \t");
  if (first == std::string::npos) return "";
  const std::string stmt = code_line.substr(first);
  if (!std::isalpha(static_cast<unsigned char>(stmt[0])) && stmt[0] != '_') return "";
  // Type and name use only these characters; the first one outside them
  // must open the initializer or end the declaration.
  std::size_t k = 0;
  while (k < stmt.size() && (word_char(stmt[k]) || space_char(stmt[k]) ||
                             std::string_view(":<>,*&").find(stmt[k]) != std::string_view::npos)) {
    ++k;
  }
  std::size_t end = k;
  while (end > 0 && space_char(stmt[end - 1])) --end;
  std::size_t begin = end;
  while (begin > 0 && word_char(stmt[begin - 1])) --begin;
  const char sep = begin >= 2 ? stmt[begin - 1] : 'x';
  if (begin == end || !(space_char(sep) || sep == '&' || sep == '*')) return "";
  std::size_t p = k;
  if (p < stmt.size() && stmt[p] == '{') {
    p = stmt.find_first_of("{}", p + 1);
    if (p == std::string::npos || stmt[p] != '}') return "";
    p = stmt.find_first_not_of(" \t", p + 1);
  }
  if (p < stmt.size() && stmt[p] == '=') p = stmt.find(';', p);
  if (p >= stmt.size() || stmt[p] != ';') return "";
  // A '(' ahead of any initializer makes it a function declaration.
  const std::string head = stmt.substr(0, stmt.find('='));
  if (head.substr(0, head.find('{')).find('(') != std::string::npos) return "";
  return stmt.substr(begin, end - begin);
}

class FileRules {
 public:
  FileRules(const SourceFile& sf, const SourceFile* sibling, const LayerDag& dag,
            const ProjectDocs& docs, std::vector<Diagnostic>* out)
      : sf_(sf), t_(sf.tokens), sibling_(sibling), dag_(dag), docs_(docs), out_(out) {}

  void run() {
    det_wallclock();
    det_rand();
    det_seeded_rng();
    det_unordered_iter();
    hot_marker();
    if (sf_.hotpath) {
      hot_std_function();
      hot_heap_alloc();
      hot_vector_growth();
      hot_node_container();
    }
    layer_dag();
    if (!sf_.path.starts_with("src/")) return;
    layer_trace_header();
    par_static_mutable();
    par_engine_post();
    rob_exit();
    docs_probes();
    if (sf_.path == "src/sim/parallel.h") docs_par_knobs();
    if (sf_.path == "src/core/metrics.h") {
      docs_run_status();
      docs_metric();
    }
  }

 private:
  const SourceFile& sf_;
  const Tokens& t_;
  const SourceFile* sibling_;
  const LayerDag& dag_;
  const ProjectDocs& docs_;
  std::vector<Diagnostic>* out_;

  void report(int line, int col, const char* rule, std::string message) {
    Diagnostic d;
    d.file = sf_.path;
    d.line = line;
    d.col = col;
    d.rule = rule;
    d.message = std::move(message);
    out_->push_back(std::move(d));
  }
  void report(const Token& at, const char* rule, std::string message) {
    report(at.line, at.col, rule, std::move(message));
  }

  [[nodiscard]] bool same_line(std::size_t a, std::size_t b) const {
    return b < t_.size() && t_[a].line == t_[b].line;
  }

  [[nodiscard]] const std::string& code_line(const Token& tok) const {
    return sf_.code[static_cast<std::size_t>(tok.line - 1)];
  }

  // The code-view character just before `tok`, or ' ' at line start.
  [[nodiscard]] char char_before(const Token& tok) const {
    const std::string& line = code_line(tok);
    const auto at = static_cast<std::size_t>(tok.col - 1);
    return at > 0 && at <= line.size() ? line[at - 1] : ' ';
  }

  // A call `name(` that is not a member access.
  [[nodiscard]] bool free_call(std::size_t i, Alts names) const {
    if (!seq(t_, i, {names, {"("}})) return false;
    const char before = char_before(t_[i]);
    return !word_char(before) && before != '.';
  }

  // The text of string literal `s` up to its first inner quote, read
  // from the raw line; "" when empty or not closed on that line.
  [[nodiscard]] std::string literal(const Token& s) const {
    const std::string& raw = sf_.raw[static_cast<std::size_t>(s.line - 1)];
    const auto open = static_cast<std::size_t>(s.col - 1);
    const std::size_t close = raw.find('"', open + 1);
    return close == std::string::npos ? "" : raw.substr(open + 1, close - open - 1);
  }

  // f(tokens) over this file and its sibling header, merged: a .cpp's
  // declarations usually live in its .h.
  template <typename F>
  [[nodiscard]] std::set<std::string> with_sibling(F f) const {
    std::set<std::string> names = f(t_);
    if (sibling_ != nullptr) {
      const std::set<std::string> more = f(sibling_->tokens);
      names.insert(more.begin(), more.end());
    }
    return names;
  }

  // ---- det-* -------------------------------------------------------

  void det_wallclock() {
    for (std::size_t i = 0; i < t_.size(); ++i) {
      // Naming a chrono clock is enough: `using Clock = ...` then
      // `Clock::now()` reads it all the same.
      const bool chrono = seq(t_, i,
                              {{"std"}, {"::"}, {"chrono"}, {"::"},
                               {"steady_clock", "system_clock", "high_resolution_clock"}});
      if (chrono || free_call(i, {"time", "clock_gettime", "gettimeofday", "clock"})) {
        report(t_[i], "det-wallclock",
               "wall-clock time source in simulator code; runs must be a pure function of the "
               "seed -- use sim::Simulator::now()");
      }
    }
  }

  void det_rand() {
    for (std::size_t i = 0; i < t_.size(); ++i) {
      const bool engine = seq(t_, i, {{"std"}, {"::"}}) && same_line(i, i + 2) &&
                          (t_[i + 2].text.starts_with("random_device") ||
                           t_[i + 2].text.starts_with("mt19937"));
      if (engine || free_call(i, {"rand", "srand", "rand_r", "drand48", "random"})) {
        report(t_[i], "det-rand",
               "non-seedable/global RNG; use hicc::Rng forked from the experiment seed "
               "(common/rng.h)");
      }
    }
  }

  void det_seeded_rng() {
    for (std::size_t i = 0; i < t_.size(); ++i) {
      if (seq(t_, i, {{"Rng"}, {"("}}) && same_line(i, i + 2) &&
          t_[i + 2].kind == Token::Kind::kNumber) {
        report(t_[i], "det-seeded-rng",
               "Rng constructed from a literal seed; derive it from the experiment seed "
               "(Rng::fork() / derive_seed) so streams stay independent per DESIGN.md §7");
      }
    }
  }

  void det_unordered_iter() {
    const std::set<std::string> names = with_sibling(
        [](const Tokens& t) { return declared_vars(t, {"unordered_map", "unordered_set"}); });
    if (names.empty()) return;
    for (std::size_t i = 0; i < t_.size(); ++i) {
      if (!seq(t_, i, {{"for"}, {"("}})) continue;
      // The range: from the first ':' after the '(' to the next ')'.
      const std::string& code = code_line(t_[i]);
      const std::size_t colon = code.find(':', static_cast<std::size_t>(t_[i + 1].col));
      const std::size_t close = colon == std::string::npos ? colon : code.find(')', colon);
      if (close == std::string::npos) continue;
      const std::string range = code.substr(colon + 1, close - colon - 1);
      for (const std::string& name : names) {
        if (!has_word(range, name)) continue;
        report(t_[i], "det-unordered-iter",
               "range-for over unordered container '" + name +
                   "': iteration order is implementation-defined and must not feed "
                   "metrics/trace/JSON -- sort first or use an ordered container");
      }
    }
  }

  // ---- hot-* -------------------------------------------------------

  void hot_marker() {
    if (sf_.hotpath) return;
    for (const char* dir : kHotpathDirs) {
      if (!sf_.path.starts_with(dir)) continue;
      report(1, 1, "hot-marker-missing",
             std::string("files under src/sim,... must carry '// ") + kMarkerTag +
                 " hotpath' so hot-path hygiene rules apply");
      return;
    }
  }

  void hot_std_function() {
    for (std::size_t i = 0; i < t_.size(); ++i) {
      if (seq(t_, i, {{"std"}, {"::"}, {"function"}, {"<"}})) {
        report(t_[i], "hot-std-function",
               "std::function heap-allocates large captures; use "
               "sim::InlineFunction/InlineCallback (sim/inline_action.h)");
      }
    }
  }

  void hot_heap_alloc() {
    for (std::size_t i = 0; i < t_.size(); ++i) {
      if (seq(t_, i, {{"std"}, {"::"}, {"make_unique", "make_shared"}, {"<"}})) {
        report(t_[i], "hot-heap-alloc",
               "make_unique/make_shared in a hot-path file; steady state must be "
               "allocation-free (slab/free-list, DESIGN.md §8)");
      } else if (t_[i].text == "new" && new_expression(t_[i])) {
        report(t_[i], "hot-heap-alloc",
               "heap allocation in a hot-path file; steady state must be allocation-free "
               "(slab/free-list patterns, DESIGN.md §8)");
      }
    }
  }

  // `new` followed by whitespace and not by a placement `(buf)`, and not
  // `::new` or a member named new.
  [[nodiscard]] bool new_expression(const Token& tok) const {
    const char before = char_before(tok);
    if (word_char(before) || before == ':' || before == '.') return false;
    const std::string& code = code_line(tok);
    const std::size_t after = static_cast<std::size_t>(tok.col - 1) + 3;
    std::size_t next = after;
    while (next < code.size() && space_char(code[next])) ++next;
    const std::size_t gap = next - after;
    return gap > 1 || (gap == 1 && (next == code.size() || code[next] != '('));
  }

  void hot_vector_growth() {
    const std::set<std::string> vectors =
        with_sibling([](const Tokens& t) { return declared_vars(t, {"vector"}); });
    if (vectors.empty()) return;
    const std::set<std::string> reserved =
        with_sibling([](const Tokens& t) { return receivers(t, "reserve"); });
    for (std::size_t i = 0; i + 1 < t_.size(); ++i) {
      const std::string& name = t_[i].text;
      if (t_[i].kind != Token::Kind::kIdent || !same_line(i, i + 1) ||
          !seq(t_, i + 1, {{"."}, {"push_back", "emplace_back"}, {"("}}) ||
          vectors.count(name) == 0 || reserved.count(name) > 0) {
        continue;
      }
      report(t_[i], "hot-vector-growth",
             "'" + name +
                 ".push_back' on a std::vector with no reserve() in this file: growth "
                 "reallocates on the hot path -- reserve, or suppress if growth is "
                 "amortized/startup-only");
    }
  }

  // A variable or member declared as `std::[pmr::]C<...> name` with C a
  // node-based container (or deque, which allocates a chunk every few
  // hundred elements); references and pointers own no nodes.
  void hot_node_container() {
    for (std::size_t i = 0; i < t_.size(); ++i) {
      if (!seq(t_, i, {{"std"}, {"::"}})) continue;
      std::size_t k = i + 2;
      if (seq(t_, k, {{"pmr"}, {"::"}})) k += 2;
      if (!seq(t_, k,
               {{"map", "multimap", "set", "multiset", "unordered_map", "unordered_set",
                 "unordered_multimap", "unordered_multiset", "deque", "list"},
                {"<"}})) {
        continue;
      }
      const std::size_t j = past_template_args(t_, k);
      if (j + 1 >= t_.size()) continue;
      const Token& name = t_[j];
      if (name.kind != Token::Kind::kIdent || is_cxx_keyword(name.text) ||
          !is_one_of(t_[j + 1].text, {";", "=", "{"})) {
        continue;
      }
      report(t_[i], "hot-node-container",
             "'" + name.text + "' is a std::" + t_[k].text +
                 ": it allocates per insert (a node, or a deque chunk) on the hot path -- use "
                 "Ring (common/ring.h) or a free-listed slab, or allow it with why it is cold");
    }
  }

  // ---- layer-* -----------------------------------------------------

  void layer_dag() {
    const std::string mod = sf_.module_name();
    if (mod.empty()) return;
    if (!dag_.has(mod)) {
      report(1, 1, "layer-dag",
             "src/" + mod +
                 " has no line in the DESIGN.md layer-dag block, so nothing checks its "
                 "includes; add one (DESIGN.md §9 DAG)");
      return;
    }
    const std::set<std::string> allowed = dag_.allowed(mod, /*transitive=*/false);
    for (const IncludeDirective& inc : sf_.includes) {
      const std::string target = inc.target.substr(0, inc.target.find('/'));
      if (!dag_.has(target) || allowed.count(target) > 0) continue;
      report(inc.line, inc.col, "layer-dag",
             "src/" + mod + " must not include src/" + target + " (allowed: " + join(allowed) +
                 "; DESIGN.md §9 DAG)");
    }
  }

  void layer_trace_header() {
    if (sf_.module_name() == "trace") return;
    for (const IncludeDirective& inc : sf_.includes) {
      if (!inc.target.starts_with("trace/") || inc.target == "trace/trace.h") continue;
      report(inc.line, inc.col, "layer-trace-header",
             "'" + inc.target +
                 "' is a trace-internal header; modules attach probes through trace/trace.h "
                 "only (sinks/exporters are for harness code)");
    }
  }

  // ---- par-* and rob-exit ------------------------------------------

  void par_static_mutable() {
    for (const Token& tok : t_) {
      if (tok.text != "static") continue;
      const char before = char_before(tok);
      if (word_char(before) || before == ':' || before == '.') continue;
      const std::string& code = code_line(tok);
      const std::size_t after = static_cast<std::size_t>(tok.col - 1) + 6;
      std::size_t p = after;
      while (p < code.size() && space_char(code[p])) ++p;
      if (p == after) continue;
      // Const statics are fine; a '(' means a function (or a call in the
      // initializer), and a declaration without ';' continues past this
      // line -- neither is read.
      const std::string rest = code.substr(p);
      const std::size_t semi = rest.find(';');
      if (const_decl(rest) || semi == std::string::npos) continue;
      const std::string decl = rest.substr(0, semi);
      if (decl.find('(') != std::string::npos) continue;
      report(tok, "par-static-mutable",
             "mutable static '" + last_word(decl.substr(0, decl.find('='))) +
                 "' is unguarded shared state across partition callbacks under the parallel "
                 "engine; keep state in the owning partition's objects or make it const "
                 "(docs/PARALLELISM.md)");
    }
  }

  void par_engine_post() {
    if (sf_.path.starts_with("src/sim/parallel.")) return;
    for (std::size_t i = 0; i < t_.size(); ++i) {
      if (!seq(t_, i, {{"sim"}, {"("}})) continue;
      std::size_t close = i + 2;
      while (same_line(i, close) && !is_one_of(t_[close].text, {"(", ")"})) ++close;
      if (!same_line(i, close) ||
          !seq(t_, close, {{")"}, {"."}, {"at", "in", "run_until"}, {"("}})) {
        continue;
      }
      report(t_[i], "par-engine-post",
             "'" + t_[close + 2].text +
                 "' on a partition Simulator fetched from the engine bypasses the mailbox "
                 "merge; cross-partition events must go through ParallelEngine::post() "
                 "(docs/PARALLELISM.md)");
    }
  }

  void rob_exit() {
    for (const char* seam : kExitSeam) {
      if (sf_.path == seam) return;
    }
    for (std::size_t i = 0; i < t_.size(); ++i) {
      if (!seq(t_, i, {{"_exit", "quick_exit", "exit", "abort"}, {"("}})) continue;
      // The finding sits on an optional `std::` or `::` qualifier.
      std::size_t start = i;
      if (i >= 1 && t_[i - 1].text == "::" && same_line(i - 1, i)) {
        start = i - 1;
        if (i >= 2 && same_line(i - 2, i) && t_[i - 2].kind == Token::Kind::kIdent) {
          if (t_[i - 2].text != "std") continue;  // another namespace's exit
          start = i - 2;
        }
      }
      const char before = char_before(t_[start]);
      if (word_char(before) || before == ':' || before == '.' || before == '>') continue;
      report(t_[start], "rob-exit",
             "'" + t_[i].text +
                 "' terminates the process, bypassing destructors and the sweep journal; "
                 "report failures via RunStatus/exceptions -- only the supervisor/worker "
                 "seam may exit (docs/ROBUSTNESS.md)");
    }
  }

  // ---- docs-* ------------------------------------------------------

  void docs_probes() {
    for (std::size_t i = 0; i < t_.size(); ++i) {
      if (!seq(t_, i, {{"counter", "gauge", "histogram"}, {"("}})) continue;
      const Token& kind = t_[i];
      const std::size_t arg = i + 2;
      const bool arg_here = same_line(i, arg);
      if (arg_here && t_[arg].kind == Token::Kind::kString) {
        const std::string name = literal(t_[arg]);
        if (!name.empty()) {
          undocumented(kind, name, t_[arg], "probe '",
                       "; the catalog and the code change together");
        }
        continue;
      }
      const std::size_t host = seq(t_, arg, {{"trace"}, {"::"}}) ? arg + 2 : arg;
      if (arg_here && same_line(i, host + 1) && seq(t_, host, {{"host_probe"}, {"("}})) {
        host_family(kind, host + 2);
        continue;
      }
      const bool member = i > 0 && same_line(i - 1, i) && is_one_of(t_[i - 1].text, {"->", "."});
      if (member && !(arg_here && t_[arg].text == ")")) dynamic(kind);
    }
  }

  // host_probe(h, "name") registers the family documented once as
  // host<h>.name; `k` is the first token of h.
  void host_family(const Token& kind, std::size_t k) {
    while (k < t_.size() && t_[k].line == kind.line && !is_one_of(t_[k].text, {",", "(", ")"})) ++k;
    const bool named = k + 1 < t_.size() && t_[k + 1].line == kind.line && t_[k].text == "," &&
                       t_[k + 1].kind == Token::Kind::kString;
    const std::string name = named ? literal(t_[k + 1]) : "";
    if (name.empty()) {
      dynamic(kind);
      return;
    }
    undocumented(kind, "host<h>." + name, t_[k + 1], "host-indexed probe '",
                 "; document the family once under the 'host<h>.' prefix");
  }

  void undocumented(const Token& kind, const std::string& name, const Token& literal_tok,
                    const char* what, const char* advice) {
    std::vector<std::string> probes = {name};
    if (kind.text == "histogram") {
      for (const char* suffix : {".p50", ".p99", ".count"}) probes.push_back(name + suffix);
    }
    for (const std::string& probe : probes) {
      if (docs_.probes.find(probe) != std::string::npos) continue;
      report(literal_tok.line, literal_tok.col + 1, "docs-probe-undocumented",
             what + probe + "' is not documented in docs/OBSERVABILITY.md or docs/FAULTS.md" +
                 advice);
    }
  }

  void dynamic(const Token& kind) {
    report(kind, "docs-probe-dynamic",
           "probe registered via non-literal name (" + kind.text +
               "); docs lockstep cannot check it -- suppress with a pointer to where the "
               "names are cataloged");
  }

  void docs_par_knobs() {
    std::size_t i = 0;
    while (i < t_.size() && !seq(t_, i, {{"struct"}, {"ParallelParams"}})) ++i;
    if (i == t_.size()) return;
    auto line = static_cast<std::size_t>(t_[i].line - 1);
    int depth = brace_balance(sf_.code[line]);
    for (++line; line < sf_.code.size(); ++line) {
      const std::string& code = sf_.code[line];
      const std::string name = knob_name(code);
      if (!name.empty() && docs_.parallelism.find(name) == std::string::npos) {
        report(static_cast<int>(line + 1), static_cast<int>(code.find(name) + 1), "docs-par-knob",
               "ParallelParams knob '" + name +
                   "' is not documented in docs/PARALLELISM.md; the concurrency-model doc and "
                   "the engine knobs change together");
      }
      depth += brace_balance(code);
      if (depth <= 0) return;
    }
  }

  void docs_run_status() {
    for (std::size_t i = 0; i < t_.size(); ++i) {
      if (!seq(t_, i, {{"case"}, {"RunStatus"}, {"::"}}) || !same_line(i, i + 6) ||
          t_[i + 3].kind != Token::Kind::kIdent || !seq(t_, i + 4, {{":"}, {"return"}}) ||
          t_[i + 6].kind != Token::Kind::kString) {
        continue;
      }
      const std::string label = literal(t_[i + 6]);
      if (label.empty() || docs_.robustness.find(label) != std::string::npos) continue;
      report(t_[i + 6].line, t_[i + 6].col + 1, "docs-run-status",
             "run_status label '" + label +
                 "' is not documented in docs/ROBUSTNESS.md; the failure-taxonomy table and "
                 "the enum change together");
    }
  }

  // Every key of the Metrics visitor -- its f("key", field) calls -- is
  // a row of the "Run metrics" table.
  void docs_metric() {
    for (std::size_t i = 0; i < t_.size(); ++i) {
      if (!seq(t_, i, {{"f"}, {"("}}) || !same_line(i, i + 2) ||
          t_[i + 2].kind != Token::Kind::kString) {
        continue;
      }
      const std::string key = literal(t_[i + 2]);
      if (key.empty() || docs_.metrics.find("| `" + key + "` |") != std::string::npos) continue;
      report(t_[i + 2].line, t_[i + 2].col + 1, "docs-metric",
             "metrics key '" + key +
                 "' has no row in the Run metrics table of docs/OBSERVABILITY.md; the table "
                 "and the Metrics visitor change together");
    }
  }
};

}  // namespace

void check_file(const SourceFile& sf, const SourceFile* sibling, const LayerDag& dag,
                const ProjectDocs& docs, std::vector<Diagnostic>* out) {
  FileRules(sf, sibling, dag, docs, out).run();
}

}  // namespace hicc::analyze
