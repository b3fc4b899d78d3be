#include "analyze/index.h"

#include <algorithm>

namespace hicc::analyze {
namespace {

const std::set<std::string>& keyword_set() {
  static const std::set<std::string> kKeywords = {
      "alignas",   "alignof",      "asm",       "auto",     "bool",
      "break",     "case",         "catch",     "char",     "char8_t",
      "char16_t",  "char32_t",     "class",     "concept",  "const",
      "consteval", "constexpr",    "constinit", "const_cast",
      "continue",  "co_await",     "co_return", "co_yield", "decltype",
      "default",   "delete",       "do",        "double",   "dynamic_cast",
      "else",      "enum",         "explicit",  "export",   "extern",
      "false",     "final",        "float",     "for",      "friend",
      "goto",      "if",           "inline",    "int",      "long",
      "mutable",   "namespace",    "new",       "noexcept", "nullptr",
      "operator",  "override",     "private",   "protected",
      "public",    "register",     "reinterpret_cast",      "requires",
      "return",    "short",        "signed",    "sizeof",   "static",
      "static_assert",             "static_cast",           "struct",
      "switch",    "template",     "this",      "thread_local",
      "throw",     "true",         "try",       "typedef",  "typeid",
      "typename",  "union",        "unsigned",  "using",    "virtual",
      "void",      "volatile",     "wchar_t",   "while"};
  return kKeywords;
}

// The structural scanner. One instance per file; `scan()` drives a
// statement-head state machine at namespace/class scope and hands
// function bodies to `scan_body`.
class Scanner {
 public:
  Scanner(const SourceFile& sf, FileIndex& out)
      : sf_(sf),
        out_(out),
        t_(sf.tokens),
        unordered_vars_(declared_vars(sf.tokens, {"unordered_map", "unordered_set"})) {}

  void scan() {
    for (const Token& tok : t_) {
      if (tok.kind == Token::Kind::kIdent && !is_cxx_keyword(tok.text)) {
        out_.used_idents.insert(tok.text);
      }
    }
    std::size_t i = 0;
    scan_decls(&i);
  }

 private:
  struct Scope {
    char kind;  // 'n' namespace, 'c' class, 'x' transparent (extern "C")
    std::string name;
  };

  const SourceFile& sf_;
  FileIndex& out_;
  const std::vector<Token>& t_;
  std::set<std::string> unordered_vars_;
  std::vector<Scope> scopes_;

  [[nodiscard]] bool in_class() const {
    for (const Scope& s : scopes_) {
      if (s.kind == 'c') return true;
    }
    return false;
  }

  // Adds a name to the file's provided set -- but only at namespace
  // scope. Class members are reached through the class name (which the
  // includer must spell out anyway); counting generic member names like
  // `record` or `size` as provided would make every include look used
  // and blind the unused-direct-include advisory. Type names themselves
  // are provided unconditionally via classify_brace/harvest_enum.
  void provide(const std::string& name) {
    if (!in_class()) out_.provided.insert(name);
  }

  [[nodiscard]] std::string innermost_class() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == 'c') return it->name;
    }
    return "";
  }

  static bool head_has(const std::vector<std::size_t>& head, const std::vector<Token>& t,
                       const char* word) {
    return std::any_of(head.begin(), head.end(), [&](std::size_t k) { return t[k].text == word; });
  }

  // Consumes a balanced {...} group starting at *i (which points at the
  // opening brace), appending nothing; leaves *i one past the match.
  void skip_braces(std::size_t* i) {
    int depth = 0;
    while (*i < t_.size()) {
      if (t_[*i].text == "{") ++depth;
      if (t_[*i].text == "}") --depth;
      ++*i;
      if (depth == 0) return;
    }
  }

  // ---- declaration-scope loop -------------------------------------

  void scan_decls(std::size_t* ip) {
    std::vector<std::size_t> head;  // token indices since last boundary
    int paren = 0;
    std::size_t& i = *ip;
    while (i < t_.size()) {
      const std::string& x = t_[i].text;
      if (t_[i].kind == Token::Kind::kPunct) {
        if (x == "(") ++paren;
        if (x == ")") --paren;
        if (x == ";" && paren == 0) {
          process_declaration(head);
          head.clear();
          ++i;
          continue;
        }
        if (x == ":" && paren == 0 && head.size() == 1 &&
            is_one_of(t_[head[0]].text, {"public", "private", "protected"})) {
          head.clear();  // access specifier
          ++i;
          continue;
        }
        if (x == "{") {
          if (paren > 0 || initializer_brace(head)) {
            // Part of the current statement (lambda in an argument,
            // `= {...}` initializer, ctor init-list member brace):
            // swallow it into the head.
            std::size_t start = i;
            skip_braces(&i);
            for (std::size_t k = start; k < i; ++k) head.push_back(k);
            continue;
          }
          classify_brace(&head, &i);
          continue;
        }
        if (x == "}" && paren == 0) {
          if (!scopes_.empty()) scopes_.pop_back();
          head.clear();
          ++i;
          // In a nested scan this } belongs to the caller's class; the
          // stack pop above already accounted for it.
          continue;
        }
      }
      head.push_back(i);
      ++i;
    }
    process_declaration(head);
  }

  // True when the `{` at the end of `head` opens an initializer rather
  // than a scope: `= {...}`, `Foo x{...}`, or a ctor init-list member.
  bool initializer_brace(const std::vector<std::size_t>& head) const {
    if (head.empty()) return false;
    int paren = 0;
    bool saw_group = false;
    bool colon_after_group = false;
    bool eq = false;
    for (std::size_t k : head) {
      const std::string& x = t_[k].text;
      if (x == "(") ++paren;
      if (x == ")") {
        --paren;
        if (paren == 0) saw_group = true;
      }
      if (paren == 0 && x == "=") eq = true;
      if (paren == 0 && x == ":" && saw_group) colon_after_group = true;
    }
    if (eq) return true;
    const Token& last = t_[head.back()];
    if (colon_after_group && last.kind == Token::Kind::kIdent) return true;  // init-list member
    if (!saw_group && last.kind == Token::Kind::kIdent && !head_has(head, t_, "namespace") &&
        !head_has(head, t_, "class") && !head_has(head, t_, "struct") &&
        !head_has(head, t_, "union") && !head_has(head, t_, "enum")) {
      return true;  // `Foo x{...}` brace-init
    }
    return false;
  }

  // `i` points at a scope-opening `{`. Decides what it opens.
  void classify_brace(std::vector<std::size_t>* head, std::size_t* i) {
    const std::vector<std::size_t>& h = *head;
    if (head_has(h, t_, "namespace")) {
      std::string name;
      for (std::size_t k : h) {
        if (t_[k].kind == Token::Kind::kIdent && t_[k].text != "namespace" &&
            t_[k].text != "inline") {
          if (!name.empty()) name += "::";
          name += t_[k].text;
        }
      }
      scopes_.push_back({'n', name});
      head->clear();
      ++*i;
      return;
    }
    if (head_has(h, t_, "enum")) {
      harvest_enum(h, i);  // consumes through the matching }
      head->clear();
      return;
    }
    // class/struct/union head with no parameter list -> type definition.
    bool class_kw = false;
    bool paren0 = false;
    int paren = 0;
    for (std::size_t k : h) {
      const std::string& x = t_[k].text;
      if (x == "(") {
        if (paren == 0) paren0 = true;
        ++paren;
      }
      if (x == ")") --paren;
      if (paren == 0 && !paren0 && is_one_of(x, {"class", "struct", "union"})) class_kw = true;
    }
    if (class_kw) {
      std::string name = class_head_name(h);
      if (!name.empty()) out_.provided.insert(name);
      scopes_.push_back({'c', name});
      head->clear();
      ++*i;
      return;
    }
    if (h.size() >= 2 && t_[h[0]].text == "extern" && t_[h[1]].kind == Token::Kind::kString) {
      scopes_.push_back({'x', ""});
      head->clear();
      ++*i;
      return;
    }
    if (paren0) {
      begin_function(h, i);  // consumes the body
      head->clear();
      return;
    }
    // Unknown brace (rare): treat as an opaque balanced group.
    skip_braces(i);
    head->clear();
  }

  std::string class_head_name(const std::vector<std::size_t>& h) const {
    for (std::size_t n = 0; n + 1 < h.size(); ++n) {
      if (is_one_of(t_[h[n]].text, {"class", "struct", "union"})) {
        for (std::size_t m = n + 1; m < h.size(); ++m) {
          if (t_[h[m]].text == ":") break;
          if (t_[h[m]].kind == Token::Kind::kIdent && t_[h[m]].text != "final" &&
              t_[h[m]].text != "alignas") {
            return t_[h[m]].text;
          }
        }
      }
    }
    return "";
  }

  void harvest_enum(const std::vector<std::size_t>& h, std::size_t* i) {
    // Name: first identifier after the `enum` keyword (skipping the
    // `class`/`struct` of a scoped enum), before any `:` base clause.
    bool seen_enum = false;
    for (std::size_t k : h) {
      if (t_[k].text == "enum") {
        seen_enum = true;
        continue;
      }
      if (!seen_enum) continue;
      if (t_[k].text == ":") break;
      if (t_[k].kind == Token::Kind::kIdent && !is_one_of(t_[k].text, {"class", "struct"})) {
        out_.provided.insert(t_[k].text);
        break;
      }
    }
    // Enumerators: identifiers at depth 1 followed by , } or =.
    int depth = 0;
    std::size_t& i2 = *i;
    while (i2 < t_.size()) {
      const std::string& x = t_[i2].text;
      if (x == "{") ++depth;
      if (x == "}") {
        --depth;
        if (depth == 0) {
          ++i2;
          return;
        }
      }
      if (depth == 1 && t_[i2].kind == Token::Kind::kIdent && i2 + 1 < t_.size() &&
          is_one_of(t_[i2 + 1].text, {",", "}", "="})) {
        out_.provided.insert(t_[i2].text);
      }
      ++i2;
    }
  }

  // ---- declarations (statements ending in `;`) --------------------

  void process_declaration(const std::vector<std::size_t>& h) {
    if (h.empty()) return;
    if (head_has(h, t_, "using")) {
      // `using NAME = ...` or `using ns::name`; skip using-namespace.
      for (std::size_t n = 0; n < h.size(); ++n) {
        if (t_[h[n]].text != "using") continue;
        if (n + 1 < h.size() && t_[h[n + 1]].text == "namespace") return;
        break;
      }
      std::string last_ident;
      for (std::size_t k : h) {
        if (t_[k].text == "=") break;
        if (t_[k].kind == Token::Kind::kIdent && !is_cxx_keyword(t_[k].text)) {
          last_ident = t_[k].text;
        }
      }
      if (!last_ident.empty()) provide(last_ident);
      return;
    }
    if (head_has(h, t_, "typedef")) {
      if (t_[h.back()].kind == Token::Kind::kIdent) provide(t_[h.back()].text);
      return;
    }
    bool class_kw = head_has(h, t_, "class") || head_has(h, t_, "struct") ||
                    head_has(h, t_, "union") || head_has(h, t_, "enum");
    if (class_kw) {
      std::string name = class_head_name(h);
      if (!name.empty()) out_.provided.insert(name);  // forward declaration
      return;
    }
    // Function declaration: a top-level (...) group.
    int paren = 0;
    std::size_t open = h.size();
    for (std::size_t n = 0; n < h.size(); ++n) {
      if (t_[h[n]].text == "(") {
        if (paren == 0 && open == h.size()) open = n;
        ++paren;
      }
      if (t_[h[n]].text == ")") --paren;
    }
    if (open != h.size()) {
      if (open > 0 && t_[h[open - 1]].kind == Token::Kind::kIdent &&
          !is_cxx_keyword(t_[h[open - 1]].text)) {
        provide(t_[h[open - 1]].text);
      }
      return;
    }
    if (h.size() < 2) return;
    // Variable declaration: name = last identifier before = / { / [.
    std::string name;
    for (std::size_t n = 0; n < h.size(); ++n) {
      const std::string& x = t_[h[n]].text;
      if (x == "=" || x == "{" || x == "[") break;
      if (t_[h[n]].kind == Token::Kind::kIdent && !is_cxx_keyword(t_[h[n]].text)) {
        name = t_[h[n]].text;
      }
    }
    if (name.empty()) return;
    provide(name);
    bool immut = head_has(h, t_, "const") || head_has(h, t_, "constexpr") ||
                 head_has(h, t_, "constinit") || head_has(h, t_, "extern") ||
                 head_has(h, t_, "friend");
    if (immut) return;
    const bool ns_scope = !in_class();
    const bool class_static = in_class() && head_has(h, t_, "static");
    if (ns_scope || class_static) {
      GlobalVar g;
      g.name = name;
      g.file = sf_.path;
      g.module = sf_.module_name();
      g.line = t_[h[0]].line;
      out_.mutable_globals.push_back(g);
    }
  }

  // ---- function definitions ---------------------------------------

  void begin_function(const std::vector<std::size_t>& h, std::size_t* i) {
    FunctionDef fn;
    fn.file = sf_.path;
    fn.module = sf_.module_name();
    fn.in_hotpath_file = sf_.hotpath;
    // Name: the identifier chain immediately before the first top-level
    // parameter list.
    std::size_t open = h.size();
    int paren = 0;
    for (std::size_t n = 0; n < h.size(); ++n) {
      if (t_[h[n]].text == "(") {
        if (paren == 0) {
          open = n;
          break;
        }
        ++paren;
      }
      if (t_[h[n]].text == ")") --paren;
    }
    std::vector<std::string> chain;
    bool dtor = false;
    if (open != h.size() && open > 0) {
      std::size_t j = open - 1;
      const Token& prev = t_[h[j]];
      if (prev.kind == Token::Kind::kPunct && j > 0 && t_[h[j - 1]].text == "operator") {
        fn.name = "operator" + prev.text;
        fn.line = t_[h[j - 1]].line;
        fn.col = t_[h[j - 1]].col;
      } else if (prev.kind == Token::Kind::kIdent) {
        chain.push_back(prev.text);
        fn.line = prev.line;
        fn.col = prev.col;
        while (j >= 2 && t_[h[j - 1]].text == "::" &&
               t_[h[j - 2]].kind == Token::Kind::kIdent) {
          chain.insert(chain.begin(), t_[h[j - 2]].text);
          fn.line = t_[h[j - 2]].line;
          fn.col = t_[h[j - 2]].col;
          j -= 2;
        }
        if (j >= 1 && t_[h[j - 1]].text == "~") dtor = true;
        fn.name = chain.back();
      }
    }
    if (fn.name.empty()) {  // unparseable head; still walk the body
      fn.name = "<anon>";
      fn.line = t_[*i].line;
      fn.col = t_[*i].col;
    }
    std::string owner = chain.size() >= 2 ? chain[chain.size() - 2] : innermost_class();
    fn.is_ctor_dtor = dtor || (!owner.empty() && fn.name == owner);
    if (dtor) fn.name = "~" + fn.name;
    fn.qualified = owner.empty() ? fn.name : owner + "::" + fn.name;
    // Only free functions are provided names; member definitions are
    // reached through their class.
    if (!is_cxx_keyword(fn.name) && owner.empty()) provide(fn.name);
    scan_body(&fn, i);
    out_.functions.push_back(std::move(fn));
  }

  void scan_body(FunctionDef* fn, std::size_t* ip) {
    std::size_t& i = *ip;
    int depth = 0;
    while (i < t_.size()) {
      const Token& tok = t_[i];
      if (tok.text == "{") ++depth;
      if (tok.text == "}") {
        --depth;
        if (depth == 0) {
          ++i;
          return;
        }
      }
      if (tok.kind == Token::Kind::kIdent) {
        scan_ident(fn, i);
      }
      ++i;
    }
  }

  [[nodiscard]] const std::string& next_text(std::size_t i, std::size_t ahead = 1) const {
    static const std::string kEmpty;
    return i + ahead < t_.size() ? t_[i + ahead].text : kEmpty;
  }

  [[nodiscard]] const std::string& prev_text(std::size_t i) const {
    static const std::string kEmpty;
    return i > 0 ? t_[i - 1].text : kEmpty;
  }

  // Looks at one identifier inside a body for call sites and sinks.
  void scan_ident(FunctionDef* fn, std::size_t i) {
    const Token& tok = t_[i];
    const std::string& name = tok.text;
    const std::string& prev = prev_text(i);
    const std::string& next = next_text(i);
    const bool member_access = prev == "." || prev == "->";
    const bool std_qualified = prev == "::" && i >= 2 && t_[i - 2].text == "std";

    if (!is_cxx_keyword(name) && !member_access && prev != "::" && next != "(" && next != "::") {
      const bool decl_like = i > 0 && t_[i - 1].kind == Token::Kind::kIdent &&
                             !is_cxx_keyword(t_[i - 1].text);
      if (!decl_like) fn->body_idents.emplace(name, std::make_pair(tok.line, tok.col));
    }

    // -- sinks ------------------------------------------------------
    if (name == "new" && prev != "operator" && !member_access && prev != "::" && next != "(" &&
        next != ";") {
      fn->sinks.push_back({"new", "new", tok.line, tok.col});
      return;
    }
    if (!member_access && next == "(" &&
        is_one_of(name, {"malloc", "calloc", "realloc", "aligned_alloc"})) {
      fn->sinks.push_back({"malloc", name, tok.line, tok.col});
    }
    if (std_qualified && next == "<" && is_one_of(name, {"make_unique", "make_shared"})) {
      fn->sinks.push_back({"make-unique-shared", "std::" + name, tok.line, tok.col});
    }
    if (std_qualified && next == "<" && name == "function") {
      fn->sinks.push_back({"std-function", "std::function", tok.line, tok.col});
    }
    if (member_access && next == "(" && is_one_of(name, {"push_back", "emplace_back"})) {
      std::string obj = i >= 2 && t_[i - 2].kind == Token::Kind::kIdent ? t_[i - 2].text : "?";
      fn->sinks.push_back({"container-growth", obj + "." + name, tok.line, tok.col});
    }
    if (name == "now" && prev == "::" && i >= 2 &&
        is_one_of(t_[i - 2].text, {"steady_clock", "system_clock", "high_resolution_clock"})) {
      fn->sinks.push_back({"wallclock", t_[i - 2].text + "::now", tok.line, tok.col});
    }
    if (!member_access && next == "(" &&
        is_one_of(name, {"time", "clock_gettime", "gettimeofday", "clock"})) {
      fn->sinks.push_back({"wallclock", name, tok.line, tok.col});
    }
    if (!member_access && next == "(" &&
        is_one_of(name, {"rand", "srand", "rand_r", "drand48", "random"})) {
      fn->sinks.push_back({"rand", name, tok.line, tok.col});
    }
    if (std_qualified && is_one_of(name, {"random_device", "mt19937", "mt19937_64"})) {
      fn->sinks.push_back({"rand", "std::" + name, tok.line, tok.col});
    }
    if (std_qualified && next == "<" && (name == "map" || name == "set")) {
      scan_pointer_key(fn, i);
    }
    if (name == "for" && next == "(") {
      scan_range_for(fn, i);
    }

    // -- call sites -------------------------------------------------
    if (is_cxx_keyword(name)) return;
    std::size_t after = i + 1;
    if (next == "<") {  // possible explicit template arguments
      int adepth = 0;
      std::size_t j = i + 1;
      for (; j < t_.size() && j < i + 40; ++j) {
        const std::string& x = t_[j].text;
        if (x == "<") ++adepth;
        if (x == ">") --adepth;
        if (x == ">>") adepth -= 2;
        if (adepth <= 0) break;
        if (x == ";" || x == "{" || x == "}" || x == "&&" || x == "||") {
          adepth = -100;  // comparison, not template args
          break;
        }
      }
      if (adepth == 0 && j + 1 < t_.size() && t_[j + 1].text == "(") after = j + 1;
    }
    if (after >= t_.size() || t_[after].text != "(") return;
    fn->calls.push_back({name, tok.line, tok.col});
  }

  // At `std::map<` / `std::set<`: flags a pointer-typed key.
  void scan_pointer_key(FunctionDef* fn, std::size_t i) {
    int depth = 0;
    std::string last;
    for (std::size_t j = i + 1; j < t_.size() && j < i + 120; ++j) {
      const std::string& x = t_[j].text;
      if (x == "<") ++depth;
      if (x == ">") --depth;
      if (x == ">>") depth -= 2;
      if (depth <= 0 || (depth == 1 && x == ",")) {
        if (last == "*") {
          fn->sinks.push_back(
              {"pointer-keyed", "std::" + t_[i].text + "<T*, ...>", t_[i].line, t_[i].col});
        }
        return;
      }
      if (x == ";" || x == "{") return;
      if (j > i + 1) last = x;
    }
  }

  // At `for (`: flags range-for over a variable declared unordered.
  void scan_range_for(FunctionDef* fn, std::size_t i) {
    int depth = 0;
    bool past_colon = false;
    for (std::size_t j = i + 1; j < t_.size() && j < i + 80; ++j) {
      const std::string& x = t_[j].text;
      if (x == "(") ++depth;
      if (x == ")") {
        --depth;
        if (depth == 0) return;
      }
      if (x == ";") return;  // classic for
      if (depth == 1 && x == ":") past_colon = true;
      if (past_colon && t_[j].kind == Token::Kind::kIdent && unordered_vars_.count(x)) {
        fn->sinks.push_back({"unordered-iter", x, t_[i].line, t_[i].col});
        return;
      }
    }
  }
};

}  // namespace

bool is_cxx_keyword(const std::string& word) { return keyword_set().count(word) > 0; }

bool is_one_of(const std::string& s, std::initializer_list<const char*> opts) {
  for (const char* o : opts) {
    if (s == o) return true;
  }
  return false;
}

std::size_t past_template_args(const std::vector<Token>& t, std::size_t i) {
  int depth = 0;
  std::size_t j = i + 1;
  for (; j < t.size() && j < i + 120; ++j) {
    if (t[j].text == "<") ++depth;
    if (t[j].text == ">") --depth;
    if (t[j].text == ">>") depth -= 2;
    if (depth <= 0) break;
    if (t[j].text == ";" || t[j].text == "{") break;
  }
  return j >= t.size() || depth > 0 ? t.size() : j + 1;
}

std::set<std::string> declared_vars(const std::vector<Token>& t,
                                    std::initializer_list<const char*> templates) {
  std::set<std::string> names;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent || !is_one_of(t[i].text, templates)) continue;
    if (t[i + 1].text != "<") continue;
    std::size_t j = past_template_args(t, i);
    if (j == t.size()) continue;
    while (j < t.size() && (t[j].text == "&" || t[j].text == "*" || t[j].text == "const")) ++j;
    if (j + 1 < t.size() && t[j].kind == Token::Kind::kIdent && !is_cxx_keyword(t[j].text) &&
        is_one_of(t[j + 1].text, {";", "=", "{", "("})) {
      names.insert(t[j].text);
    }
  }
  return names;
}

FileIndex index_file(const SourceFile& sf) {
  FileIndex out;
  for (const std::string& m : sf.macro_defines) out.provided.insert(m);
  Scanner scanner(sf, out);
  scanner.scan();
  return out;
}

}  // namespace hicc::analyze
