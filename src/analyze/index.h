// Whole-program semantic analyzer, layer 2: the per-file index.
//
// A single forward pass over the token stream recovers an approximate
// structural view of each translation unit without a real parse:
//
//   * function definitions (namespace- and class-scope, ctors/dtors,
//     qualified names like Engine::run) with their body token ranges;
//   * call sites inside each body (`name(...)`, `obj.name(...)`);
//   * sink sites inside each body -- the allocation / nondeterminism
//     patterns the reachability rules propagate (the same patterns the
//     per-file det-* and hot-* rules flag where they occur, so direct
//     and reachable findings agree on what counts as an allocation or
//     a wall clock);
//   * namespace-scope mutable variables (the state the partition
//     single-writer rule tracks references to);
//   * every name the file provides to includers (classes, enums and
//     enumerators, using-aliases, functions, variables, macros) and
//     every identifier the file uses -- the two sides of the
//     unused-direct-include advisory.
//
// The parser is deliberately approximate: it must never crash or hang
// on valid C++, and may miss exotic constructs (it skips preprocessor
// branches, treats lambdas as part of the enclosing function, and does
// not instantiate templates). Rules built on it are tuned so that
// approximation errs toward silence, and every diagnostic can be
// suppressed with an inline allow.
#pragma once

#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/source.h"

namespace hicc::analyze {

struct CallSite {
  std::string callee;  // simple (unqualified) name
  int line = 0;
  int col = 0;
};

/// A pattern occurrence a reachability rule treats as a sink.
/// `kind` is one of: new, malloc, make-unique-shared, std-function,
/// container-growth, wallclock, rand, unordered-iter, pointer-keyed.
struct SinkSite {
  std::string kind;
  std::string detail;  // the offending token text, e.g. "malloc"
  int line = 0;
  int col = 0;
};

struct FunctionDef {
  std::string name;       // simple name ("run", "Engine" for a ctor)
  std::string qualified;  // display name ("Engine::run")
  std::string file;       // root-relative path
  std::string module;     // "" outside src/<module>/
  int line = 0;
  int col = 0;
  bool in_hotpath_file = false;
  bool is_ctor_dtor = false;
  std::vector<CallSite> calls;
  std::vector<SinkSite> sinks;
  // First value-like reference to each identifier in the body: not a
  // member access (x.name), not qualified (ns::name), not a call
  // (name(...)), not an apparent declaration (Type name). This is what
  // the partition rule matches mutable-global names against.
  std::map<std::string, std::pair<int, int>> body_idents;
};

struct GlobalVar {
  std::string name;
  std::string file;
  std::string module;
  int line = 0;
};

/// Index of one file; built once, consumed by all rules.
struct FileIndex {
  std::vector<FunctionDef> functions;
  std::vector<GlobalVar> mutable_globals;  // namespace-scope, non-const
  std::set<std::string> provided;          // names usable by includers
  std::set<std::string> used_idents;       // every identifier mentioned
};

/// Scans a lexed file into its index. Pure function of the tokens.
FileIndex index_file(const SourceFile& sf);

/// True for C++ keywords and analyzer-ignored builtins (never callees).
bool is_cxx_keyword(const std::string& word);

/// True when `s` equals one of `opts`.
bool is_one_of(const std::string& s, std::initializer_list<const char*> opts);

/// For `t[i]` naming a template that `<` follows: the index of the
/// token after the matching `>`, or t.size() when the arguments do not
/// close within the statement.
std::size_t past_template_args(const std::vector<Token>& t, std::size_t i);

/// Names of the variables (members included) declared anywhere in `t`
/// with one of `templates` as their type, `tmpl<...> [&*const] name`
/// followed by ; = { or (.
std::set<std::string> declared_vars(const std::vector<Token>& t,
                                    std::initializer_list<const char*> templates);

}  // namespace hicc::analyze
