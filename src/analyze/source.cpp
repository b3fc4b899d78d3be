#include "analyze/source.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

namespace hicc::analyze {
namespace {

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

// Multi-character punctuators worth keeping whole; everything else is
// emitted one character at a time. Order matters (longest first).
constexpr const char* kPuncts3[] = {"->*", "<<=", ">>=", "...", "<=>"};
constexpr const char* kPuncts2[] = {"::", "->", "++", "--", "<<", ">>", "<=", ">=", "==",
                                    "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=",
                                    "|=", "^=", "##"};

struct Lexer {
  const std::string& text;
  SourceFile& out;
  std::size_t i = 0;
  int line = 1;
  int col = 1;
  std::string code_line;  // current stripped line being built

  explicit Lexer(const std::string& t, SourceFile& o) : text(t), out(o) {}

  [[nodiscard]] char peek(std::size_t ahead = 0) const {
    return i + ahead < text.size() ? text[i + ahead] : '\0';
  }

  void emit_code(char c) { code_line.push_back(c); }

  void advance(char visible) {
    // Consumes one source character, mirroring it (or a blank) into the
    // stripped code view so columns line up with the raw file.
    if (text[i] == '\n') {
      out.code.push_back(code_line);
      code_line.clear();
      ++line;
      col = 1;
    } else {
      emit_code(visible);
      ++col;
    }
    ++i;
  }

  void skip_blank(std::size_t n) {
    for (std::size_t k = 0; k < n && i < text.size(); ++k) advance(' ');
  }

  void line_comment() {
    while (i < text.size() && text[i] != '\n') advance(' ');
  }

  void block_comment() {
    skip_blank(2);
    while (i < text.size()) {
      if (text[i] == '*' && peek(1) == '/') {
        skip_blank(2);
        return;
      }
      advance(' ');
    }
  }

  void string_literal(char quote) {
    advance(quote);
    while (i < text.size() && text[i] != '\n') {
      if (text[i] == '\\') {
        skip_blank(2);
        continue;
      }
      if (text[i] == quote) {
        advance(quote);
        return;
      }
      advance(' ');
    }
  }

  void raw_string() {
    // At 'R' of R"delim( ... )delim".
    std::size_t j = i + 2;
    std::string delim;
    while (j < text.size() && text[j] != '(' && delim.size() <= 16) delim.push_back(text[j++]);
    if (j >= text.size() || text[j] != '(') {  // not actually a raw string
      advance('R');
      return;
    }
    skip_blank(j + 1 - i);  // R"delim(
    const std::string closer = ")" + delim + "\"";
    while (i < text.size()) {
      if (text.compare(i, closer.size(), closer) == 0) {
        skip_blank(closer.size());
        return;
      }
      advance(' ');
    }
  }

  // Preprocessor directive: record #include "..." / #define NAME, then
  // blank the whole (possibly continued) line so conditional-compilation
  // branches and macro bodies never unbalance the token stream.
  void preprocessor() {
    std::size_t j = i + 1;
    while (j < text.size() && (text[j] == ' ' || text[j] == '\t')) ++j;
    std::size_t word_end = j;
    while (word_end < text.size() && ident_char(text[word_end])) ++word_end;
    const std::string directive = text.substr(j, word_end - j);
    if (directive == "include") {
      std::size_t q = word_end;
      while (q < text.size() && text[q] != '"' && text[q] != '<' && text[q] != '\n') ++q;
      if (q < text.size() && text[q] == '"') {
        std::size_t close = text.find('"', q + 1);
        if (close != std::string::npos && text.find('\n', q) > close) {
          IncludeDirective inc;
          inc.target = text.substr(q + 1, close - q - 1);
          inc.line = line;
          inc.col = static_cast<int>(col + (q + 1 - i));
          out.includes.push_back(inc);
        }
      }
    } else if (directive == "define") {
      std::size_t n = word_end;
      while (n < text.size() && (text[n] == ' ' || text[n] == '\t')) ++n;
      std::size_t name_end = n;
      while (name_end < text.size() && ident_char(text[name_end])) ++name_end;
      if (name_end > n) out.macro_defines.insert(text.substr(n, name_end - n));
    }
    // Blank to end of line, honoring backslash continuations.
    while (i < text.size()) {
      if (text[i] == '\\' && peek(1) == '\n') {
        advance(' ');  // the backslash
        advance(' ');  // the newline (advances `line`)
        continue;
      }
      if (text[i] == '\n') return;  // leave the newline to the main loop
      // Strip comments inside directives too (a // after #include).
      if (text[i] == '/' && peek(1) == '/') {
        line_comment();
        return;
      }
      if (text[i] == '/' && peek(1) == '*') {
        block_comment();
        continue;
      }
      advance(' ');
    }
  }

  void run() {
    bool at_line_start = true;  // only whitespace seen so far this line
    while (i < text.size()) {
      const char c = text[i];
      if (c == '\n') {
        advance(c);
        at_line_start = true;
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
        advance(' ');
        continue;
      }
      if (c == '#' && at_line_start) {
        preprocessor();
        continue;
      }
      at_line_start = false;
      if (c == '/' && peek(1) == '/') {
        line_comment();
        continue;
      }
      if (c == '/' && peek(1) == '*') {
        block_comment();
        continue;
      }
      if (c == 'R' && peek(1) == '"') {
        raw_string();
        continue;
      }
      if (c == '"' || c == '\'') {
        Token t{c == '"' ? Token::Kind::kString : Token::Kind::kChar, "", line, col};
        // Char-literal heuristic: a ' preceded by an identifier or digit
        // is a digit separator / UDL context only in numbers, which are
        // consumed below, so reaching here it is a real literal.
        string_literal(c);
        out.tokens.push_back(std::move(t));
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        Token t{Token::Kind::kNumber, "", line, col};
        while (i < text.size() &&
               (ident_char(text[i]) || text[i] == '.' ||
                ((text[i] == '+' || text[i] == '-') && i > 0 &&
                 (text[i - 1] == 'e' || text[i - 1] == 'E' || text[i - 1] == 'p' ||
                  text[i - 1] == 'P')) ||
                (text[i] == '\'' && i + 1 < text.size() && ident_char(text[i + 1])))) {
          t.text.push_back(text[i]);
          advance(text[i]);
        }
        out.tokens.push_back(std::move(t));
        continue;
      }
      if (ident_start(c)) {
        Token t{Token::Kind::kIdent, "", line, col};
        while (i < text.size() && ident_char(text[i])) {
          t.text.push_back(text[i]);
          advance(text[i]);
        }
        out.tokens.push_back(std::move(t));
        continue;
      }
      // Punctuation, longest match first.
      Token t{Token::Kind::kPunct, "", line, col};
      bool matched = false;
      for (const char* p : kPuncts3) {
        if (text.compare(i, 3, p) == 0) {
          t.text = p;
          matched = true;
          break;
        }
      }
      if (!matched) {
        for (const char* p : kPuncts2) {
          if (text.compare(i, 2, p) == 0) {
            t.text = p;
            matched = true;
            break;
          }
        }
      }
      if (!matched) t.text = std::string(1, c);
      for (std::size_t k = 0; k < t.text.size(); ++k) advance(t.text[k]);
      out.tokens.push_back(std::move(t));
    }
    out.code.push_back(code_line);
  }
};

void split_lines(const std::string& text, std::vector<std::string>* out) {
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      out->push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out->push_back(cur);
}

// Parses "rule-a, rule-b" from inside an allow(...) form.
std::set<std::string> split_rules(const std::string& s) {
  std::set<std::string> rules;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      if (!cur.empty()) rules.insert(cur);
      cur.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) rules.insert(cur);
  return rules;
}

std::size_t skip_space(const std::string& s, std::size_t i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  return i;
}

// Finds the first "//" on `line` followed, whitespace allowed, by the
// marker tag and `form`: "hotpath" as a whole word, or "allow(" /
// "allow-file(" closed by a ")" later on the line, whose contents go to
// *args. Returns the index of that "//", or npos.
std::size_t find_marker(const std::string& line, const std::string& form, std::string* args) {
  const std::string tag = kMarkerTag;
  for (std::size_t c = line.find("//"); c != std::string::npos; c = line.find("//", c + 1)) {
    std::size_t k = skip_space(line, c + 2);
    if (line.compare(k, tag.size(), tag) != 0) continue;
    k = skip_space(line, k + tag.size());
    if (line.compare(k, form.size(), form) != 0) continue;
    const std::size_t end = k + form.size();
    if (form.back() != '(') {
      if (end < line.size() && ident_char(line[end])) continue;
      return c;
    }
    const std::size_t close = line.find(')', end);
    if (close == std::string::npos) continue;
    *args = line.substr(end, close - end);
    return c;
  }
  return std::string::npos;
}

void scan_suppressions(SourceFile& sf) {
  std::string args;
  for (std::size_t idx = 0; idx < sf.raw.size(); ++idx) {
    const std::string& line = sf.raw[idx];
    if (line.find(kMarkerTag) == std::string::npos) continue;
    if (find_marker(line, "hotpath", &args) != std::string::npos) sf.hotpath = true;
    if (find_marker(line, "allow-file(", &args) != std::string::npos) {
      for (const std::string& rule : split_rules(args)) {
        sf.file_allows.emplace(rule, static_cast<int>(idx + 1));
      }
    }
    const std::size_t c = find_marker(line, "allow(", &args);
    if (c == std::string::npos) continue;
    std::set<std::string> rules = split_rules(args);
    std::size_t target = idx + 1;  // 1-based line of the comment itself
    std::string before = line.substr(0, c);
    const bool trailing = before.find_first_not_of(" \t") != std::string::npos;
    if (!trailing) {
      // A bare comment covers the next code line; the justification may
      // continue over further comment-only or blank lines.
      ++target;
      while (target <= sf.raw.size()) {
        const std::string& t = sf.raw[target - 1];
        std::size_t first = t.find_first_not_of(" \t\r");
        if (first != std::string::npos && t.compare(first, 2, "//") != 0) break;
        ++target;
      }
    }
    sf.line_allows[static_cast<int>(target)].insert(rules.begin(), rules.end());
  }
}

}  // namespace

std::string SourceFile::module_name() const {
  if (path.compare(0, 4, "src/") != 0) return "";
  std::size_t slash = path.find('/', 4);
  if (slash == std::string::npos) return "";
  return path.substr(4, slash - 4);
}

bool SourceFile::allowed(int line, const std::string& rule) const {
  auto fit = file_allows.find(rule);
  if (fit != file_allows.end()) {
    used_allows.insert({fit->second, rule});
    return true;
  }
  auto it = line_allows.find(line);
  if (it != line_allows.end() && it->second.count(rule)) {
    used_allows.insert({line, rule});
    return true;
  }
  return false;
}

std::vector<std::pair<int, std::string>> SourceFile::unused_allows() const {
  std::vector<std::pair<int, std::string>> out;
  for (const auto& [line, rules] : line_allows) {
    for (const std::string& rule : rules) {
      if (!used_allows.count({line, rule})) out.emplace_back(line, rule);
    }
  }
  for (const auto& [rule, line] : file_allows) {
    if (!used_allows.count({line, rule})) out.emplace_back(line, rule);
  }
  std::sort(out.begin(), out.end());
  return out;
}

SourceFile parse_source(const std::string& rel_path, const std::string& text) {
  SourceFile sf;
  sf.path = rel_path;
  split_lines(text, &sf.raw);
  Lexer lexer(text, sf);
  lexer.run();
  while (sf.code.size() < sf.raw.size()) sf.code.emplace_back();
  scan_suppressions(sf);
  return sf;
}

bool load_source(const std::string& abs_path, const std::string& rel_path, SourceFile* out) {
  std::ifstream in(abs_path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = parse_source(rel_path, buf.str());
  return true;
}

}  // namespace hicc::analyze
