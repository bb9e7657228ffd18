// clado-lint — dependency-free static-analysis pass enforcing project
// invariants over src/, tests/, bench/ and tools/.
//
// v2 architecture: every scanned file is stripped into code/comment views,
// tokenized (identifiers, numbers, punctuation with :: and -> merged), and
// walked into a per-file model of scopes (namespace / class / function /
// block), field annotations, and lexical lock regions. On top of the
// per-file models sits a cross-TU project model: the "clado/..." include
// graph, a parse of every CMakeLists.txt (compile options per target and
// per source file), and the README env-var table. Rules consume whichever
// layer they need; --stdin mode runs the single-file layers only.
//
// Rules (rule-id — what it enforces):
//   pragma-once       every header carries #pragma once
//   dir-namespace     src/<sub>/ declares only namespace clado::<sub>
//   no-rand           rand()/srand() banned everywhere we scan (use tensor::Rng)
//   no-atoi           atoi/atol/atoll/atof banned everywhere we scan: they
//                     cannot report a parse error (use the strict parsers
//                     in clado/tensor/env.h)
//   no-random-device  std::random_device banned outside tests/ (breaks
//                     reproducibility; tensor::Rng is the seeded source)
//   no-stdio          printf/fprintf/puts/std::cout|cerr|clog banned in src/
//                     (library code must not write to the console)
//   no-naked-new      naked new/delete banned in src/ (use containers /
//                     smart pointers; "= delete" declarations are fine)
//   no-thread-local   thread_local banned in src/ — static thread_local
//                     mutable scratch is the exact pattern behind the PR 1
//                     GEMM data race
//   missing-override  member redeclaring an inherited virtual must say
//                     override (name-based, repo-wide virtual-name set)
//   include-cycle     the "clado/..." include graph must be acyclic
//   missing-include   a src//tools//bench/ file naming clado::<other>::
//                     must directly include a clado/<other>/ header
//   bad-suppression   allow() must name a known rule and give a justification
//   lock-discipline   a field declared `T f CLADO_GUARDED_BY(mu);` may only
//                     be accessed (in src/) lexically under a
//                     lock_guard/unique_lock/scoped_lock of `mu`, inside a
//                     function marked CLADO_REQUIRES(mu), or inside a
//                     constructor/destructor of the owning class
//   env-discipline    std::getenv is banned in src//tools/ (use the strict
//                     helpers in clado/tensor/env.h), and the CLADO_* names
//                     read through getenv/env_int_strict/env_str must match
//                     the README env-var table exactly, both directions
//   simd-hygiene      immintrin.h / _mm*/__m256* intrinsics only in
//                     src/tensor/kernels/*_avx2.cpp, and the CMake model
//                     must grant -mavx2 per-file to exactly those TUs,
//                     never globally or target-wide
//
// Suppressions: a violation on line L is suppressed by an allow comment
//     // clado-lint: allow(no-stdio) -- progress output is intentional
// (with the relevant rule id) on line L itself, on line L-1, or — for
// diagnostics anchored to a token of a multi-line statement — on any line
// of that statement through its terminating ';' (token-aware, capped at 8
// continuation lines). The justification after ')' is mandatory.
//
// Output (--format=text, the default) is "file:line: rule-id message", one
// per line, sorted; --format=json emits a JSON array of
// {file,line,rule,message}; --format=github emits ::error workflow
// annotations. The process exits 1 if any unsuppressed violation remains,
// 0 when clean, 2 on usage or I/O errors.
//
// Modes:
//   clado_lint [--root DIR] [--format=F] scan DIR (default .) recursively
//   clado_lint --stdin VIRTUAL_PATH      lint stdin as if it were VIRTUAL_PATH
//                                        (single-file rules only; used by tests)
//   clado_lint --list-rules              print every rule id

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace fs = std::filesystem;

namespace {

const std::vector<std::string> kAllRules = {
    "pragma-once",      "dir-namespace",  "no-rand",         "no-atoi",
    "no-random-device", "no-stdio",       "no-naked-new",    "no-thread-local",
    "missing-override", "include-cycle",  "missing-include", "bad-suppression",
    "lock-discipline",  "env-discipline", "simd-hygiene",
};

const std::vector<std::string> kSubsystems = {"tensor", "linalg", "nn",  "quant", "data",
                                              "models", "solver", "core", "obs",  "fault",
                                              "serve",  "backend"};

constexpr std::size_t kNoOffset = static_cast<std::size_t>(-1);

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  std::size_t offset = kNoOffset;  ///< content offset for token-anchored diags

  bool operator<(const Diagnostic& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    if (rule != o.rule) return rule < o.rule;
    return message < o.message;
  }
};

bool is_word_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_'; }

// ---- token scanner ---------------------------------------------------------

struct Token {
  enum class Kind { kIdent, kNumber, kPunct };
  Kind kind = Kind::kPunct;
  std::string text;
  std::size_t offset = 0;

  bool is(const char* s) const { return text == s; }
  bool ident() const { return kind == Kind::kIdent; }
};

// Tokenizes the code view (comments/literals already blanked). `::` and `->`
// are merged into single punctuation tokens; everything else is one char.
std::vector<Token> tokenize(const std::string& code) {
  std::vector<Token> out;
  const std::size_t n = code.size();
  std::size_t i = 0;
  while (i < n) {
    const char c = code[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (is_word_char(c)) {
      std::size_t j = i;
      while (j < n && is_word_char(code[j])) ++j;
      const bool number = std::isdigit(static_cast<unsigned char>(c)) != 0;
      out.push_back({number ? Token::Kind::kNumber : Token::Kind::kIdent,
                     code.substr(i, j - i), i});
      i = j;
      continue;
    }
    if (c == ':' && i + 1 < n && code[i + 1] == ':') {
      out.push_back({Token::Kind::kPunct, "::", i});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && code[i + 1] == '>') {
      out.push_back({Token::Kind::kPunct, "->", i});
      i += 2;
      continue;
    }
    out.push_back({Token::Kind::kPunct, std::string(1, c), i});
    ++i;
  }
  return out;
}

struct SourceFile {
  std::string path;      // repo-relative, '/'-separated
  std::string content;   // raw bytes
  std::string code;      // comments + string/char literals blanked to spaces
  std::string comments;  // the complement: only comment text kept
  std::vector<Token> tokens;                   // token stream over `code`
  std::vector<std::size_t> line_starts;        // offset of each line in content
  std::map<int, std::set<std::string>> allow;  // line -> suppressed rule ids
  std::vector<Diagnostic> suppression_errors;  // bad-suppression diags

  std::string top_dir() const {  // "src", "tests", "bench", "tools", ...
    const auto slash = path.find('/');
    return slash == std::string::npos ? std::string() : path.substr(0, slash);
  }
  // Subsystem for src/<sub>/..., empty otherwise.
  std::string subsystem() const {
    if (top_dir() != "src") return {};
    const auto first = path.find('/');
    const auto second = path.find('/', first + 1);
    if (second == std::string::npos) return {};
    return path.substr(first + 1, second - first - 1);
  }
  bool is_header() const { return path.size() > 2 && path.ends_with(".h"); }

  int line_of(std::size_t offset) const {
    auto it = std::upper_bound(line_starts.begin(), line_starts.end(), offset);
    return static_cast<int>(it - line_starts.begin());
  }

  // True when content[i] sits inside a string/char literal: blanked in both
  // the code and comment views yet not blank in the raw content.
  bool in_literal(std::size_t i) const {
    return i < content.size() && content[i] != ' ' && content[i] != '\n' &&
           code[i] == ' ' && comments[i] == ' ';
  }
};

struct StrippedViews {
  std::string code;      // comments and string/char literals blanked
  std::string comments;  // only comment text kept, everything else blanked
};

// Splits a source into a code view and a comment view (newlines preserved in
// both) so rule matching never fires inside text and suppression comments are
// only honored inside real comments. Handles //, /* */, "...", '...' and
// R"delim(...)delim" raw strings.
StrippedViews strip_comments_and_strings(const std::string& src) {
  std::string out = src;
  std::string comments(src.size(), ' ');
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (src[i] == '\n') comments[i] = '\n';
  }
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_terminator;  // )delim" for the active raw string
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          // R"delim( opens a raw string when R starts an identifier token.
          if (i >= 1 && src[i - 1] == 'R' && (i < 2 || !is_word_char(src[i - 2]))) {
            const std::size_t paren = src.find('(', i + 1);
            if (paren != std::string::npos && paren - i - 1 <= 16) {
              raw_terminator = ")" + src.substr(i + 1, paren - i - 1) + "\"";
              state = State::kRawString;
              break;
            }
          }
          state = State::kString;
        } else if (c == '\'') {
          // Keep digit separators (1'000'000) as code.
          if (!(i >= 1 && is_word_char(src[i - 1]) && is_word_char(next))) state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
          comments[i] = c;
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
          comments[i] = c;
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if ((state == State::kString && c == '"') || (state == State::kChar && c == '\'')) {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRawString:
        if (src.compare(i, raw_terminator.size(), raw_terminator) == 0) {
          for (std::size_t j = 0; j < raw_terminator.size(); ++j) out[i + j] = ' ';
          i += raw_terminator.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return {std::move(out), std::move(comments)};
}

// Offsets where `word` occurs as a whole identifier in `code`.
std::vector<std::size_t> find_word(const std::string& code, const std::string& word,
                                   std::size_t from = 0) {
  std::vector<std::size_t> hits;
  for (std::size_t pos = code.find(word, from); pos != std::string::npos;
       pos = code.find(word, pos + 1)) {
    const bool left_ok = pos == 0 || !is_word_char(code[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= code.size() || !is_word_char(code[end]);
    if (left_ok && right_ok) hits.push_back(pos);
  }
  return hits;
}

std::size_t skip_ws(const std::string& s, std::size_t pos) {
  while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos])) != 0) ++pos;
  return pos;
}

// Last non-whitespace character strictly before `pos`, or '\0'.
char prev_nonspace(const std::string& s, std::size_t pos) {
  while (pos > 0) {
    --pos;
    if (std::isspace(static_cast<unsigned char>(s[pos])) == 0) return s[pos];
  }
  return '\0';
}

// Identifier (possibly qualified, e.g. clado::tensor) starting at pos.
std::string read_qualified_id(const std::string& s, std::size_t pos) {
  std::string id;
  while (pos < s.size()) {
    if (is_word_char(s[pos])) {
      id += s[pos++];
    } else if (s[pos] == ':' && pos + 1 < s.size() && s[pos + 1] == ':') {
      id += "::";
      pos += 2;
    } else {
      break;
    }
  }
  return id;
}

// "A::B::C" -> "C".
std::string last_component(const std::string& qualified) {
  const std::size_t sep = qualified.rfind("::");
  return sep == std::string::npos ? qualified : qualified.substr(sep + 2);
}

void parse_suppressions(SourceFile& f) {
  std::istringstream in(f.comments);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t tag = line.find("clado-lint:");
    if (tag == std::string::npos) continue;
    const std::size_t open = line.find("allow(", tag);
    const std::size_t close = open == std::string::npos ? std::string::npos
                                                        : line.find(')', open);
    if (open == std::string::npos || close == std::string::npos) {
      f.suppression_errors.push_back(
          {f.path, lineno, "bad-suppression", "malformed suppression; expected allow(rule-id)"});
      continue;
    }
    const std::string rule = line.substr(open + 6, close - open - 6);
    if (std::find(kAllRules.begin(), kAllRules.end(), rule) == kAllRules.end()) {
      f.suppression_errors.push_back(
          {f.path, lineno, "bad-suppression", "unknown rule '" + rule + "' in allow()"});
      continue;
    }
    std::string justification = line.substr(close + 1);
    justification.erase(0, justification.find_first_not_of(" \t-"));
    if (justification.size() < 3) {
      f.suppression_errors.push_back({f.path, lineno, "bad-suppression",
                                      "suppression of '" + rule +
                                          "' needs a justification, e.g. allow(" + rule +
                                          ") -- why this is safe"});
      continue;
    }
    f.allow[lineno].insert(rule);
  }
}

// ---- CMake model -----------------------------------------------------------

struct CMakeCommand {
  std::string name;               // lower-cased command name
  std::vector<std::string> args;  // quotes stripped, ${...} left verbatim
  int line = 0;
};

std::vector<CMakeCommand> parse_cmake(const std::string& src) {
  std::vector<CMakeCommand> cmds;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();
  auto advance = [&](std::size_t to) {
    for (; i < to && i < n; ++i) {
      if (src[i] == '\n') ++line;
    }
  };
  while (i < n) {
    const char c = src[i];
    if (c == '#') {
      const std::size_t eol = src.find('\n', i);
      advance(eol == std::string::npos ? n : eol);
      continue;
    }
    if (!(std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_')) {
      advance(i + 1);
      continue;
    }
    std::size_t j = i;
    while (j < n && (is_word_char(src[j]))) ++j;
    CMakeCommand cmd;
    cmd.line = line;
    cmd.name = src.substr(i, j - i);
    for (char& ch : cmd.name) ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    advance(j);
    while (i < n && std::isspace(static_cast<unsigned char>(src[i])) != 0) advance(i + 1);
    if (i >= n || src[i] != '(') continue;  // identifier without a call; skip
    advance(i + 1);
    int depth = 1;
    std::string arg;
    auto flush = [&]() {
      if (!arg.empty()) cmd.args.push_back(arg);
      arg.clear();
    };
    while (i < n && depth > 0) {
      const char a = src[i];
      if (a == '#') {
        const std::size_t eol = src.find('\n', i);
        advance(eol == std::string::npos ? n : eol);
        continue;
      }
      if (a == '"') {
        advance(i + 1);
        while (i < n && src[i] != '"') {
          if (src[i] == '\\' && i + 1 < n) {
            arg += src[i + 1];
            advance(i + 2);
          } else {
            arg += src[i];
            advance(i + 1);
          }
        }
        advance(i + 1);  // closing quote
        continue;
      }
      if (a == '(') {
        ++depth;
        arg += a;
        advance(i + 1);
        continue;
      }
      if (a == ')') {
        --depth;
        if (depth == 0) {
          flush();
        } else {
          arg += a;
        }
        advance(i + 1);
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(a)) != 0) {
        flush();
        advance(i + 1);
        continue;
      }
      arg += a;
      advance(i + 1);
    }
    cmds.push_back(std::move(cmd));
  }
  return cmds;
}

struct CMakeFile {
  std::string path;  // repo-relative
  std::vector<CMakeCommand> commands;
};

// ---- lock-discipline project model -----------------------------------------

struct FieldAnnotation {
  std::string file;        // declaring file
  bool in_header = false;  // visible to every TU including it
  std::string cls;         // possibly qualified owning class ("ThreadPool::ForState")
  std::string field;
  std::string mutex_name;  // identifier inside CLADO_GUARDED_BY(...)
  std::size_t offset = 0;
};

struct FunctionScope {
  std::size_t open = 0;   // offset of the body '{'
  std::size_t close = 0;  // offset of the matching '}'
  std::string name;
  std::string cls;  // last component of the owning class, empty for free fns
  bool ctor_dtor = false;
  std::set<std::string> requires_locks;  // CLADO_REQUIRES(...) mutexes
};

struct LockRegion {
  std::size_t begin = 0;  // just past the lock declaration
  std::size_t end = 0;    // closing '}' of the enclosing block
  std::set<std::string> mutexes;  // every identifier in the ctor args
};

struct FileModel {
  std::vector<FunctionScope> functions;
  std::vector<LockRegion> locks;
  // Offsets inside CLADO_GUARDED_BY/CLADO_REQUIRES argument lists: mutex
  // names there are declarations, not accesses.
  std::vector<std::pair<std::size_t, std::size_t>> macro_arg_ranges;
};

// ---- env-var read model ----------------------------------------------------

struct EnvRead {
  std::string name;  // CLADO_* literal passed to a reader function
  std::string file;
  std::size_t offset = 0;
};

// Maximal CLADO_[A-Z0-9_]* runs inside `text` starting at base offset 0;
// `literal_only` additionally requires every char to sit inside a string
// literal of `f` (offsets are into f.content).
std::vector<std::pair<std::string, std::size_t>> scan_env_names(const SourceFile& f,
                                                                std::size_t from, std::size_t to,
                                                                bool literal_only) {
  std::vector<std::pair<std::string, std::size_t>> out;
  const std::string& s = f.content;
  to = std::min(to, s.size());
  for (std::size_t pos = s.find("CLADO_", from); pos != std::string::npos && pos < to;
       pos = s.find("CLADO_", pos + 1)) {
    if (pos > 0 && (is_word_char(s[pos - 1]))) continue;
    std::size_t end = pos;
    while (end < to &&
           (std::isupper(static_cast<unsigned char>(s[end])) != 0 ||
            std::isdigit(static_cast<unsigned char>(s[end])) != 0 || s[end] == '_')) {
      ++end;
    }
    if (end - pos <= 6) continue;  // bare "CLADO_" prefix marker only
    if (literal_only) {
      bool ok = true;
      for (std::size_t i = pos; i < end; ++i) {
        if (!f.in_literal(i)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
    }
    out.emplace_back(s.substr(pos, end - pos), pos);
  }
  return out;
}

class Linter {
 public:
  void add_file(std::string path, std::string content) {
    SourceFile f;
    f.path = std::move(path);
    f.content = std::move(content);
    StrippedViews views = strip_comments_and_strings(f.content);
    f.code = std::move(views.code);
    f.comments = std::move(views.comments);
    f.tokens = tokenize(f.code);
    f.line_starts.push_back(0);
    for (std::size_t i = 0; i < f.content.size(); ++i) {
      if (f.content[i] == '\n') f.line_starts.push_back(i + 1);
    }
    parse_suppressions(f);
    files_.push_back(std::move(f));
  }

  void add_cmake(std::string path, const std::string& content) {
    cmake_files_.push_back({std::move(path), parse_cmake(content)});
  }

  void set_readme(std::string content) { readme_ = std::move(content); }

  // Runs every rule; returns the surviving (unsuppressed) diagnostics, sorted.
  std::vector<Diagnostic> run(bool cross_file_rules) {
    collect_virtual_names();
    for (const SourceFile& f : files_) build_file_model(f);
    for (const SourceFile& f : files_) {
      for (const Diagnostic& d : f.suppression_errors) diags_.push_back(d);
      rule_pragma_once(f);
      rule_dir_namespace(f);
      rule_banned_calls(f);
      rule_naked_new(f);
      rule_thread_local(f);
      rule_missing_override(f);
      rule_missing_include(f);
      rule_lock_discipline(f);
      rule_env_getenv_ban(f);
      rule_simd_sources(f);
    }
    if (cross_file_rules) {
      rule_include_cycles();
      rule_env_readme_drift();
      rule_simd_cmake();
    }

    std::vector<Diagnostic> out;
    for (const Diagnostic& d : diags_) {
      if (!is_suppressed(d)) out.push_back(d);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end(),
                          [](const Diagnostic& a, const Diagnostic& b) {
                            return a.file == b.file && a.line == b.line && a.rule == b.rule &&
                                   a.message == b.message;
                          }),
              out.end());
    return out;
  }

 private:
  std::vector<SourceFile> files_;
  std::vector<CMakeFile> cmake_files_;
  std::string readme_;
  std::vector<Diagnostic> diags_;
  std::set<std::string> virtual_names_;
  std::vector<FieldAnnotation> annotations_;
  std::map<std::string, FileModel> models_;  // keyed by file path

  void report(const SourceFile& f, std::size_t offset, std::string rule, std::string message) {
    diags_.push_back({f.path, f.line_of(offset), std::move(rule), std::move(message), offset});
  }

  // True when `line` carries code (not only comments/whitespace).
  static bool line_has_code(const SourceFile& f, int line) {
    if (line < 1 || static_cast<std::size_t>(line) > f.line_starts.size()) return false;
    const std::size_t begin = f.line_starts[static_cast<std::size_t>(line - 1)];
    const std::size_t end = static_cast<std::size_t>(line) < f.line_starts.size()
                                ? f.line_starts[static_cast<std::size_t>(line)]
                                : f.code.size();
    for (std::size_t i = begin; i < end && i < f.code.size(); ++i) {
      if (std::isspace(static_cast<unsigned char>(f.code[i])) == 0) return true;
    }
    return false;
  }

  // A diagnostic is suppressed by an allow() on its own line, on a
  // comment-only line directly above (a code-carrying allow line covers
  // only its own statement, so a trailing allow cannot leak onto the next
  // one), or — when anchored to a token — on any line of the enclosing
  // statement through its terminating ';' (multi-line call chains), capped
  // at 8 continuation lines so an allow() cannot blanket a whole function.
  bool is_suppressed(const Diagnostic& d) const {
    if (d.rule == "bad-suppression") return false;
    for (const SourceFile& f : files_) {
      if (f.path != d.file) continue;
      int last_line = d.line;
      if (d.offset != kNoOffset && d.offset < f.code.size()) {
        int depth = 0;
        for (std::size_t i = d.offset; i < f.code.size(); ++i) {
          const char c = f.code[i];
          if (c == '(' || c == '[') ++depth;
          if (c == ')' || c == ']') --depth;
          if (c == '{' || c == '}') break;  // statement opens a block: no trailing form
          if (c == ';' && depth <= 0) {
            last_line = std::min(f.line_of(i), d.line + 8);
            break;
          }
          if (f.line_of(i) > d.line + 8) break;
        }
      }
      for (int line = d.line - 1; line <= last_line; ++line) {
        if (line == d.line - 1 && line_has_code(f, line)) continue;
        auto it = f.allow.find(line);
        if (it != f.allow.end() && it->second.count(d.rule) != 0) return true;
      }
    }
    return false;
  }

  // ---- pragma-once ---------------------------------------------------------
  void rule_pragma_once(const SourceFile& f) {
    if (!f.is_header()) return;
    if (f.code.find("#pragma once") == std::string::npos) {
      report(f, 0, "pragma-once", "header is missing #pragma once");
    }
  }

  // ---- dir-namespace -------------------------------------------------------
  void rule_dir_namespace(const SourceFile& f) {
    const std::string sub = f.subsystem();
    if (sub.empty()) return;
    const std::string expected = "clado::" + sub;
    for (std::size_t pos : find_word(f.code, "namespace")) {
      // `using namespace ...` is a usage, not a declaration.
      {
        std::size_t p = pos;
        while (p > 0 && std::isspace(static_cast<unsigned char>(f.code[p - 1])) != 0) --p;
        std::size_t e = p;
        while (p > 0 && is_word_char(f.code[p - 1])) --p;
        if (f.code.compare(p, e - p, "using") == 0 && e - p == 5) continue;
      }
      const std::size_t id_pos = skip_ws(f.code, pos + 9);
      const std::string id = read_qualified_id(f.code, id_pos);
      // Anonymous and non-clado helper namespaces are fine.
      if (id != "clado" && id.compare(0, 7, "clado::") != 0) continue;
      if (id != expected) {
        report(f, pos, "dir-namespace",
               "namespace " + id + " declared in src/" + sub + "/ (expected " + expected + ")");
      }
    }
  }

  // ---- no-rand / no-atoi / no-random-device / no-stdio ---------------------
  void rule_banned_calls(const SourceFile& f) {
    const std::string top = f.top_dir();
    const bool in_src = top == "src";
    const bool in_tests = top == "tests";

    auto flag_calls = [&](const std::string& name, const std::string& rule,
                          const std::string& msg) {
      for (std::size_t pos : find_word(f.code, name)) {
        const std::size_t after = skip_ws(f.code, pos + name.size());
        if (after < f.code.size() && f.code[after] == '(') report(f, pos, rule, msg);
      }
    };

    flag_calls("rand", "no-rand", "rand() is banned; use clado::tensor::Rng");
    flag_calls("srand", "no-rand", "srand() is banned; use clado::tensor::Rng");
    for (const char* name : {"atoi", "atol", "atoll", "atof"}) {
      flag_calls(name, "no-atoi",
                 std::string(name) + "() cannot report a parse error; use "
                 "clado::tensor::parse_int_strict / parse_double_strict");
    }
    if (!in_tests) {
      for (std::size_t pos : find_word(f.code, "random_device")) {
        report(f, pos, "no-random-device",
               "std::random_device is banned outside tests/ (non-reproducible seeding; "
               "use clado::tensor::Rng)");
      }
    }
    if (in_src) {
      for (const char* name : {"printf", "fprintf", "vfprintf", "puts", "fputs", "putchar"}) {
        flag_calls(name, "no-stdio",
                   std::string(name) + "() writes to the console from library code; return "
                   "strings or take an output callback instead");
      }
      for (const char* stream : {"cout", "cerr", "clog"}) {
        for (std::size_t pos : find_word(f.code, stream)) {
          if (pos >= 2 && f.code[pos - 1] == ':' && f.code[pos - 2] == ':') {
            report(f, pos, "no-stdio",
                   std::string("std::") + stream + " write in library code; return strings or "
                   "take an output callback instead");
          }
        }
      }
    }
  }

  // ---- no-naked-new --------------------------------------------------------
  void rule_naked_new(const SourceFile& f) {
    if (f.top_dir() != "src") return;
    for (std::size_t pos : find_word(f.code, "new")) {
      report(f, pos, "no-naked-new",
             "naked new in library code; use std::make_unique / containers");
    }
    for (std::size_t pos : find_word(f.code, "delete")) {
      if (prev_nonspace(f.code, pos) == '=') continue;  // deleted special member
      report(f, pos, "no-naked-new",
             "naked delete in library code; use std::unique_ptr / containers");
    }
  }

  // ---- no-thread-local -----------------------------------------------------
  void rule_thread_local(const SourceFile& f) {
    if (f.top_dir() != "src") return;
    for (std::size_t pos : find_word(f.code, "thread_local")) {
      report(f, pos, "no-thread-local",
             "thread_local mutable scratch races once call sites overlap across a pool "
             "(the PR 1 GEMM bug); allocate per call or pass scratch explicitly");
    }
  }

  // ---- missing-override ----------------------------------------------------
  // Pass 1: every method name declared `virtual` anywhere in the scanned set.
  void collect_virtual_names() {
    for (const SourceFile& f : files_) {
      for (std::size_t pos : find_word(f.code, "virtual")) {
        // Identifier immediately before the next '(' is the method name.
        const std::size_t paren = f.code.find('(', pos);
        if (paren == std::string::npos) continue;
        std::size_t end = paren;
        while (end > pos && std::isspace(static_cast<unsigned char>(f.code[end - 1])) != 0) --end;
        std::size_t begin = end;
        while (begin > pos && is_word_char(f.code[begin - 1])) --begin;
        if (begin == end) continue;
        if (begin > 0 && f.code[begin - 1] == '~') continue;  // destructor
        const std::string name = f.code.substr(begin, end - begin);
        if (name == "operator") continue;
        virtual_names_.insert(name);
      }
    }
  }

  // Pass 2: inside a class that names a base, a member-depth declaration of a
  // known virtual name must carry override/final (or be the `virtual`
  // introduction itself).
  void rule_missing_override(const SourceFile& f) {
    struct OpenClass {
      int body_depth;   // brace depth of the class body
      bool has_base;
      std::string name;
    };
    std::vector<OpenClass> stack;
    struct Pending {
      std::string name;
      bool has_base;
    };
    std::optional<Pending> pending;
    int depth = 0;
    std::string stmt;             // statement accumulated at member depth
    std::size_t stmt_start = 0;   // offset of first char of stmt

    auto check_stmt = [&]() {
      if (stmt.empty()) return;
      if (stack.empty() || !stack.back().has_base || depth != stack.back().body_depth) {
        stmt.clear();
        return;
      }
      const bool exempt = stmt.find("override") != std::string::npos ||
                          stmt.find("final") != std::string::npos ||
                          find_word(stmt, "virtual").size() > 0 ||
                          find_word(stmt, "static").size() > 0 ||
                          find_word(stmt, "friend").size() > 0 ||
                          find_word(stmt, "using").size() > 0;
      if (!exempt) {
        for (const std::string& name : virtual_names_) {
          if (name == stack.back().name) continue;  // constructor
          for (std::size_t p : find_word(stmt, name)) {
            const std::size_t after = skip_ws(stmt, p + name.size());
            if (after < stmt.size() && stmt[after] == '(' &&
                (p == 0 || stmt[p - 1] != '~')) {
              report(f, stmt_start + p, "missing-override",
                     "'" + name + "' redeclares a virtual of a base of '" + stack.back().name +
                         "' without override");
            }
          }
        }
      }
      stmt.clear();
    };

    for (std::size_t i = 0; i < f.code.size(); ++i) {
      const char c = f.code[i];
      if (c == '{') {
        check_stmt();
        ++depth;
        if (pending) {
          stack.push_back({depth, pending->has_base, pending->name});
          pending.reset();
        }
        continue;
      }
      if (c == '}') {
        check_stmt();
        if (!stack.empty() && stack.back().body_depth == depth) stack.pop_back();
        --depth;
        continue;
      }
      if (c == ';') {
        check_stmt();
        pending.reset();  // forward declaration
        continue;
      }
      // Class/struct head detection (skip `enum class` / `enum struct`).
      if ((c == 'c' || c == 's') && (i == 0 || !is_word_char(f.code[i - 1]))) {
        std::string kw;
        if (f.code.compare(i, 5, "class") == 0 && !is_word_char(f.code[i + 5])) kw = "class";
        if (f.code.compare(i, 6, "struct") == 0 && !is_word_char(f.code[i + 6])) kw = "struct";
        if (!kw.empty()) {
          std::string prev;
          {
            std::size_t p = i;
            while (p > 0 && std::isspace(static_cast<unsigned char>(f.code[p - 1])) != 0) --p;
            std::size_t e = p;
            while (p > 0 && is_word_char(f.code[p - 1])) --p;
            prev = f.code.substr(p, e - p);
          }
          if (prev != "enum") {
            const std::size_t name_pos = skip_ws(f.code, i + kw.size());
            const std::string name = read_qualified_id(f.code, name_pos);
            // Head runs to the body brace; a base clause shows as a single ':'.
            std::size_t j = name_pos + name.size();
            bool has_base = false;
            while (j < f.code.size() && f.code[j] != '{' && f.code[j] != ';' &&
                   f.code[j] != '(' && f.code[j] != '}') {
              if (f.code[j] == ':' && (j + 1 >= f.code.size() || f.code[j + 1] != ':') &&
                  (j == 0 || f.code[j - 1] != ':')) {
                has_base = true;
              }
              ++j;
            }
            if (!name.empty() && j < f.code.size() && f.code[j] == '{') {
              pending = Pending{name, has_base};
              stmt += f.code.substr(i, j - i);
              i = j - 1;  // the '{' is handled on the next iteration
              continue;
            }
          }
        }
      }
      if (stmt.empty()) stmt_start = i;
      stmt += c;
    }
  }

  // ---- missing-include (IWYU-lite) -----------------------------------------
  // Direct includes of "clado/<sub>/..." headers, per file.
  static std::set<std::string> included_subsystems(const SourceFile& f) {
    std::set<std::string> subs;
    std::istringstream in(f.content);
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t inc = line.find("#include \"clado/");
      if (inc == std::string::npos) continue;
      const std::size_t start = inc + 16;
      const std::size_t slash = line.find('/', start);
      if (slash != std::string::npos) subs.insert(line.substr(start, slash - start));
    }
    return subs;
  }

  void rule_missing_include(const SourceFile& f) {
    const std::string top = f.top_dir();
    if (top != "src" && top != "tools" && top != "bench") return;
    const std::string own = f.subsystem();
    const std::set<std::string> included = included_subsystems(f);
    std::set<std::string> flagged;
    for (std::size_t pos : find_word(f.code, "clado")) {
      const std::string id = read_qualified_id(f.code, pos);  // clado::X...
      if (id.size() < 8 || id.compare(0, 7, "clado::") != 0) continue;
      const std::size_t end = id.find("::", 7);
      const std::string sub = id.substr(7, end == std::string::npos ? std::string::npos : end - 7);
      if (sub == own || flagged.count(sub) != 0) continue;
      if (std::find(kSubsystems.begin(), kSubsystems.end(), sub) == kSubsystems.end()) continue;
      if (included.count(sub) != 0) continue;
      flagged.insert(sub);
      report(f, pos, "missing-include",
             "uses clado::" + sub + " but includes no clado/" + sub +
                 "/ header directly (relies on transitive includes)");
    }
  }

  // ---- include-cycle -------------------------------------------------------
  void rule_include_cycles() {
    std::map<std::string, const SourceFile*> by_path;
    for (const SourceFile& f : files_) by_path[f.path] = &f;

    // Edges among scanned files; remember the line of each edge's #include.
    std::map<std::string, std::vector<std::string>> graph;
    std::map<std::pair<std::string, std::string>, int> edge_line;
    for (const SourceFile& f : files_) {
      std::istringstream in(f.content);
      std::string line;
      int lineno = 0;
      while (std::getline(in, line)) {
        ++lineno;
        const std::size_t inc = line.find("#include \"");
        if (inc == std::string::npos) continue;
        const std::size_t start = inc + 10;
        const std::size_t close = line.find('"', start);
        if (close == std::string::npos) continue;
        const std::string target = line.substr(start, close - start);
        std::string resolved;
        if (target.compare(0, 6, "clado/") == 0) {
          const std::size_t slash = target.find('/', 6);
          if (slash != std::string::npos) {
            resolved = "src/" + target.substr(6, slash - 6) + "/include/" + target;
          }
        } else {
          const std::size_t dir = f.path.rfind('/');
          resolved = (dir == std::string::npos ? target : f.path.substr(0, dir + 1) + target);
        }
        if (by_path.count(resolved) != 0) {
          graph[f.path].push_back(resolved);
          edge_line[{f.path, resolved}] = lineno;
        }
      }
    }

    // Iterative DFS with colors; report the first back edge of each cycle.
    std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
    std::vector<std::string> chain;
    std::set<std::string> reported;

    std::function<void(const std::string&)> visit = [&](const std::string& node) {
      color[node] = 1;
      chain.push_back(node);
      for (const std::string& next : graph[node]) {
        if (color[next] == 1) {
          std::string cycle = next;
          for (auto it = std::find(chain.begin(), chain.end(), next); it != chain.end(); ++it) {
            if (*it != next) cycle += " -> " + *it;
          }
          cycle += " -> " + next;
          if (reported.insert(cycle).second) {
            diags_.push_back({node, edge_line[{node, next}], "include-cycle",
                              "include cycle: " + cycle});
          }
        } else if (color[next] == 0) {
          visit(next);
        }
      }
      chain.pop_back();
      color[node] = 2;
    };
    for (const SourceFile& f : files_) {
      if (color[f.path] == 0) visit(f.path);
    }
  }

  // ---- file model builder (scope walk) -------------------------------------
  // One forward token walk per file classifies every '{' into namespace /
  // class / function / plain-block scope, records function heads (name,
  // owning class, ctor/dtor, CLADO_REQUIRES set), CLADO_GUARDED_BY field
  // annotations, and lexical lock regions.
  void build_file_model(const SourceFile& f) {
    FileModel model;
    const std::vector<Token>& toks = f.tokens;
    const std::size_t ntoks = toks.size();

    // Matching brace offsets over the token stream.
    std::map<std::size_t, std::size_t> brace_close;            // '{' offset -> '}' offset
    std::vector<std::pair<std::size_t, std::size_t>> braces;   // all pairs
    {
      std::vector<std::size_t> stack;
      for (const Token& t : toks) {
        if (t.kind != Token::Kind::kPunct) continue;
        if (t.is("{")) {
          stack.push_back(t.offset);
        } else if (t.is("}") && !stack.empty()) {
          brace_close[stack.back()] = t.offset;
          braces.emplace_back(stack.back(), t.offset);
          stack.pop_back();
        }
      }
    }
    auto enclosing_block_end = [&](std::size_t off) {
      std::size_t best_open = kNoOffset;
      std::size_t best_close = f.code.size();
      for (const auto& [open, close] : braces) {
        if (open < off && off <= close && (best_open == kNoOffset || open > best_open)) {
          best_open = open;
          best_close = close;
        }
      }
      return best_close;
    };

    struct Scope {
      char kind = 'b';  // 'n' namespace, 'c' class, 'f' function, 'b' block
      std::string cls;  // class name for 'c' (possibly qualified)
    };
    std::vector<Scope> scopes;
    std::vector<std::size_t> buf;  // token indices since the last boundary
    std::vector<int> buf_depth;    // paren depth at each buffered token
    int pdepth = 0;

    auto innermost_class = [&]() -> std::string {
      for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
        if (it->kind == 'c') return it->cls;
      }
      return {};
    };

    // Reads identifiers out of the parenthesized group starting at token
    // index `open_paren` ("(" expected); returns the index just past ")".
    auto read_paren_idents = [&](std::size_t open_paren, std::set<std::string>& out) {
      std::size_t k = open_paren;
      if (k >= ntoks || !toks[k].is("(")) return k;
      int depth = 0;
      do {
        if (toks[k].is("(")) ++depth;
        if (toks[k].is(")")) --depth;
        if (toks[k].ident()) out.insert(toks[k].text);
        ++k;
      } while (k < ntoks && depth > 0);
      return k;
    };

    auto classify_brace = [&](const Token& brace) {
      Scope scope;
      bool is_ns = false;
      bool is_enum = false;
      int class_kw = -1;
      int first_paren0 = -1;
      for (std::size_t p = 0; p < buf.size(); ++p) {
        const Token& t = toks[buf[p]];
        if (t.ident()) {
          if (t.is("namespace")) is_ns = true;
          if (t.is("enum")) is_enum = true;
          if ((t.is("class") || t.is("struct") || t.is("union")) && buf_depth[p] == 0 &&
              !(p > 0 && toks[buf[p - 1]].is("enum"))) {
            class_kw = static_cast<int>(p);
          }
        } else if (t.is("(") && buf_depth[p] == 0 && first_paren0 < 0) {
          first_paren0 = static_cast<int>(p);
        }
      }
      const bool paren_after_class =
          class_kw >= 0 && first_paren0 >= 0 && first_paren0 > class_kw;
      if (is_ns) {
        scope.kind = 'n';
      } else if (is_enum) {
        scope.kind = 'b';
      } else if (class_kw >= 0 && !paren_after_class) {
        scope.kind = 'c';
        std::string name;
        for (std::size_t p = static_cast<std::size_t>(class_kw) + 1; p < buf.size(); ++p) {
          const Token& t = toks[buf[p]];
          if (t.ident()) {
            if (!name.empty() && !name.ends_with("::")) break;
            name += t.text;
          } else if (t.is("::")) {
            name += "::";
          } else {
            break;
          }
        }
        scope.cls = name;
      } else if (first_paren0 >= 0 &&
                 (scopes.empty() || scopes.back().kind == 'n' || scopes.back().kind == 'c')) {
        scope.kind = 'f';
        FunctionScope fn;
        fn.open = brace.offset;
        const auto close_it = brace_close.find(brace.offset);
        fn.close = close_it == brace_close.end() ? f.code.size() : close_it->second;
        int np = first_paren0 - 1;
        bool dtor = false;
        std::string qual;
        if (np >= 0 && toks[buf[np]].ident()) {
          fn.name = toks[buf[np]].text;
          if (np >= 1 && toks[buf[np - 1]].is("~")) {
            dtor = true;
            --np;
          }
          if (np >= 2 && toks[buf[np - 1]].is("::") && toks[buf[np - 2]].ident()) {
            qual = toks[buf[np - 2]].text;
          }
        }
        fn.cls = !qual.empty()
                     ? qual
                     : (!scopes.empty() && scopes.back().kind == 'c'
                            ? last_component(scopes.back().cls)
                            : std::string());
        fn.ctor_dtor = dtor || (!fn.name.empty() && fn.name == fn.cls);
        for (std::size_t p = 0; p < buf.size(); ++p) {
          if (toks[buf[p]].ident() && toks[buf[p]].is("CLADO_REQUIRES") && p + 1 < buf.size()) {
            read_paren_idents(buf[p + 1], fn.requires_locks);
          }
        }
        model.functions.push_back(std::move(fn));
      } else {
        scope.kind = 'b';
      }
      scopes.push_back(std::move(scope));
      buf.clear();
      buf_depth.clear();
      pdepth = 0;
    };

    for (std::size_t k = 0; k < ntoks; ++k) {
      const Token& t = toks[k];

      // Field annotation: `Type field CLADO_GUARDED_BY(mutex) [= init];`
      if (t.ident() && t.is("CLADO_GUARDED_BY")) {
        const bool in_define =
            k > 0 && toks[k - 1].ident() &&
            (toks[k - 1].is("define") || toks[k - 1].is("ifndef") || toks[k - 1].is("ifdef") ||
             toks[k - 1].is("undef") || toks[k - 1].is("defined"));
        const std::string cls = innermost_class();
        if (!in_define && !cls.empty() && k > 0 && toks[k - 1].ident() && k + 1 < ntoks &&
            toks[k + 1].is("(")) {
          std::set<std::string> idents;
          const std::size_t past = read_paren_idents(k + 1, idents);
          std::string mutex_name;
          for (std::size_t j = k + 2; j + 1 < past; ++j) {
            if (toks[j].ident()) mutex_name = toks[j].text;  // last identifier wins
          }
          if (!mutex_name.empty()) {
            annotations_.push_back({f.path, f.is_header(), cls, toks[k - 1].text, mutex_name,
                                    t.offset});
          }
          model.macro_arg_ranges.emplace_back(toks[k + 1].offset,
                                              past > 0 ? toks[past - 1].offset : t.offset);
        }
      }
      if (t.ident() && t.is("CLADO_REQUIRES") && k + 1 < ntoks && toks[k + 1].is("(")) {
        std::set<std::string> idents;
        const std::size_t past = read_paren_idents(k + 1, idents);
        model.macro_arg_ranges.emplace_back(toks[k + 1].offset,
                                            past > 0 ? toks[past - 1].offset : t.offset);
      }

      // Lexical lock region: lock_guard/unique_lock/scoped_lock declaration.
      if (t.ident() &&
          (t.is("lock_guard") || t.is("unique_lock") || t.is("scoped_lock"))) {
        std::size_t j = k + 1;
        if (j < ntoks && toks[j].is("<")) {  // template argument list
          int angle = 0;
          do {
            if (toks[j].is("<")) ++angle;
            if (toks[j].is(">")) --angle;
            ++j;
          } while (j < ntoks && angle > 0);
        }
        if (j < ntoks && toks[j].ident()) {  // the lock variable name
          ++j;
          if (j < ntoks && toks[j].is("(")) {
            LockRegion region;
            const std::size_t past = read_paren_idents(j, region.mutexes);
            if (past > 0 && past <= ntoks) {
              region.begin = toks[past - 1].offset + 1;
              region.end = enclosing_block_end(region.begin);
              if (!region.mutexes.empty()) model.locks.push_back(std::move(region));
            }
          }
        }
      }

      if (t.kind == Token::Kind::kPunct) {
        if (t.is("{")) {
          classify_brace(t);
          continue;
        }
        if (t.is("}")) {
          if (!scopes.empty()) scopes.pop_back();
          buf.clear();
          buf_depth.clear();
          pdepth = 0;
          continue;
        }
        if (t.is(";") && pdepth <= 0) {
          buf.clear();
          buf_depth.clear();
          pdepth = 0;
          continue;
        }
        if (t.is("(")) {
          buf.push_back(k);
          buf_depth.push_back(pdepth);
          ++pdepth;
          continue;
        }
        if (t.is(")")) {
          --pdepth;
          buf.push_back(k);
          buf_depth.push_back(pdepth);
          continue;
        }
      }
      buf.push_back(k);
      buf_depth.push_back(pdepth);
    }

    models_[f.path] = std::move(model);
  }

  // ---- lock-discipline -----------------------------------------------------
  void rule_lock_discipline(const SourceFile& f) {
    if (f.top_dir() != "src") return;
    const auto model_it = models_.find(f.path);
    if (model_it == models_.end()) return;
    const FileModel& model = model_it->second;

    std::set<std::string> field_names;
    for (const FieldAnnotation& a : annotations_) field_names.insert(a.field);
    if (field_names.empty()) return;

    auto enclosing_function = [&](std::size_t off) -> const FunctionScope* {
      const FunctionScope* best = nullptr;
      for (const FunctionScope& fn : model.functions) {
        if (fn.open < off && off < fn.close && (best == nullptr || fn.open > best->open)) {
          best = &fn;
        }
      }
      return best;
    };
    auto in_macro_args = [&](std::size_t off) {
      for (const auto& [b, e] : model.macro_arg_ranges) {
        if (b <= off && off <= e) return true;
      }
      return false;
    };
    auto covered = [&](const FunctionScope& fn, std::size_t off, const FieldAnnotation& a) {
      if (fn.ctor_dtor && fn.cls == last_component(a.cls)) return true;
      if (fn.requires_locks.count(a.mutex_name) != 0) return true;
      for (const LockRegion& lock : model.locks) {
        if (lock.begin <= off && off < lock.end && lock.mutexes.count(a.mutex_name) != 0) {
          return true;
        }
      }
      return false;
    };
    auto flag = [&](std::size_t off, const FieldAnnotation& a) {
      report(f, off, "lock-discipline",
             "field '" + a.field + "' of " + a.cls + " is CLADO_GUARDED_BY(" + a.mutex_name +
                 ") but is accessed without a lexically enclosing "
                 "lock_guard/unique_lock/scoped_lock of " +
                 a.mutex_name + " (take the lock, or mark the function CLADO_REQUIRES(" +
                 a.mutex_name + "))");
    };

    const std::vector<Token>& toks = f.tokens;
    for (std::size_t k = 0; k < toks.size(); ++k) {
      const Token& t = toks[k];
      if (!t.ident() || field_names.count(t.text) == 0) continue;
      if (k + 1 < toks.size() && toks[k + 1].is("CLADO_GUARDED_BY")) continue;  // declaration
      if (in_macro_args(t.offset)) continue;
      const FunctionScope* fn = enclosing_function(t.offset);
      if (fn == nullptr) continue;  // class-scope declaration or initializer
      const Token* prev = k > 0 ? &toks[k - 1] : nullptr;
      if (prev != nullptr && prev->is("::")) continue;  // qualified name, not an access
      bool member_form = prev != nullptr && (prev->is(".") || prev->is("->"));
      if (member_form && k >= 2 && toks[k - 2].is("this")) member_form = false;

      if (member_form) {
        // Static types are unknown, so obj.field / obj->field is only checked
        // against annotations declared in this same file.
        std::vector<const FieldAnnotation*> relevant;
        for (const FieldAnnotation& a : annotations_) {
          if (a.field == t.text && a.file == f.path) relevant.push_back(&a);
        }
        if (relevant.empty()) continue;
        bool ok = false;
        for (const FieldAnnotation* a : relevant) {
          if (covered(*fn, t.offset, *a)) {
            ok = true;
            break;
          }
        }
        if (!ok) flag(t.offset, *relevant.front());
      } else {
        for (const FieldAnnotation& a : annotations_) {
          if (a.field != t.text || last_component(a.cls) != fn->cls) continue;
          if (!a.in_header && a.file != f.path) continue;
          if (!covered(*fn, t.offset, a)) {
            flag(t.offset, a);
            break;
          }
        }
      }
    }
  }

  // ---- env-discipline: getenv ban (per file) -------------------------------
  void rule_env_getenv_ban(const SourceFile& f) {
    const std::string top = f.top_dir();
    if (top != "src" && top != "tools") return;
    // env.cpp IS the strict helper layer; it owns the only sanctioned
    // getenv call.
    if (f.path == "src/tensor/env.cpp") return;
    for (const Token& t : f.tokens) {
      if (t.ident() && t.is("getenv")) {
        report(f, t.offset, "env-discipline",
               "std::getenv bypasses the strict env helpers; use "
               "clado::tensor::env_int_strict / env_str (clado/tensor/env.h) so garbage "
               "values throw instead of silently running a different configuration");
      }
    }
  }

  // ---- env-discipline: README drift (cross-file) ---------------------------
  // The set of CLADO_* names passed to getenv/env_int_strict/env_str across
  // src//tools//bench/ must match the README env-var table exactly. A
  // trailing-underscore literal ("CLADO_FAULT_") is a prefix builder and
  // covers every documented name it prefixes.
  void rule_env_readme_drift() {
    if (readme_.empty()) return;

    std::vector<EnvRead> reads;
    std::set<std::string> prefixes;
    for (const SourceFile& f : files_) {
      const std::string top = f.top_dir();
      if (top != "src" && top != "tools" && top != "bench") continue;
      // The linter's own source spells out env names and the CLADO_ prefix
      // in rule patterns and diagnostics without ever reading them.
      if (f.path == "tools/clado_lint.cpp") continue;
      const std::vector<Token>& toks = f.tokens;
      for (std::size_t k = 0; k < toks.size(); ++k) {
        const Token& t = toks[k];
        if (!t.ident() ||
            !(t.is("getenv") || t.is("env_int_strict") || t.is("env_str"))) {
          continue;
        }
        std::size_t j = k + 1;
        if (j >= toks.size() || !toks[j].is("(")) continue;
        int depth = 0;
        std::size_t close_off = f.code.size();
        for (; j < toks.size(); ++j) {
          if (toks[j].is("(")) ++depth;
          if (toks[j].is(")") && --depth == 0) {
            close_off = toks[j].offset;
            break;
          }
        }
        for (const auto& [name, off] :
             scan_env_names(f, toks[k].offset, close_off, /*literal_only=*/true)) {
          reads.push_back({name, f.path, off});
        }
      }
      // Prefix builders can sit anywhere in the file (e.g. assembled into a
      // std::string before the getenv call).
      for (const auto& [name, off] :
           scan_env_names(f, 0, f.content.size(), /*literal_only=*/true)) {
        if (name.back() == '_') prefixes.insert(name);
      }
    }

    // README env table: rows are "| `CLADO_X` | ... |"; only the first cell
    // names the variables (descriptions may cross-reference other knobs).
    std::map<std::string, int> documented;  // name -> README line
    {
      std::istringstream in(readme_);
      std::string line;
      int lineno = 0;
      while (std::getline(in, line)) {
        ++lineno;
        const std::size_t bar = line.find_first_not_of(" \t");
        if (bar == std::string::npos || line[bar] != '|') continue;
        const std::size_t second_bar = line.find('|', bar + 1);
        const std::string cell = line.substr(bar + 1, second_bar == std::string::npos
                                                          ? std::string::npos
                                                          : second_bar - bar - 1);
        for (std::size_t pos = cell.find("CLADO_"); pos != std::string::npos;
             pos = cell.find("CLADO_", pos + 1)) {
          if (pos > 0 && is_word_char(cell[pos - 1])) continue;
          std::size_t end = pos;
          while (end < cell.size() &&
                 (std::isupper(static_cast<unsigned char>(cell[end])) != 0 ||
                  std::isdigit(static_cast<unsigned char>(cell[end])) != 0 ||
                  cell[end] == '_')) {
            ++end;
          }
          if (end - pos > 6) documented.emplace(cell.substr(pos, end - pos), lineno);
        }
      }
    }
    if (documented.empty()) return;  // no env table in this README

    std::set<std::string> read_names;
    for (const EnvRead& r : reads) {
      read_names.insert(r.name);
      if (documented.count(r.name) == 0) {
        const SourceFile* f = nullptr;
        for (const SourceFile& s : files_) {
          if (s.path == r.file) f = &s;
        }
        if (f != nullptr) {
          report(*f, r.offset, "env-discipline",
                 "env var " + r.name +
                     " is read here but missing from the README env-var table (document it "
                     "or drop the read)");
        }
      }
    }
    for (const auto& [name, line] : documented) {
      bool read = read_names.count(name) != 0;
      for (const std::string& p : prefixes) {
        if (!read && name.size() > p.size() && name.compare(0, p.size(), p) == 0) read = true;
      }
      if (!read) {
        diags_.push_back({"README.md", line, "env-discipline",
                          "env var " + name +
                              " is documented in the README table but never read via "
                              "getenv/env_int_strict/env_str in src/, tools/, or bench/"});
      }
    }
  }

  // ---- simd-hygiene: sources (per file) ------------------------------------
  static bool is_avx2_kernel_tu(const std::string& path) {
    return path.compare(0, 19, "src/tensor/kernels/") == 0 && path.ends_with("_avx2.cpp");
  }

  void rule_simd_sources(const SourceFile& f) {
    if (is_avx2_kernel_tu(f.path)) {
      // Inside the AVX2 kernel TUs only AVX2-and-below intrinsics are fair
      // game: these files are compiled with exactly -mavx2 -mfma, so an
      // AVX-512 token means either a guaranteed compile break or (worse) a
      // macro-guarded path that would ship untested. Flag it at lint time.
      std::set<std::string> flagged512;
      for (const Token& t : f.tokens) {
        if (!t.ident()) continue;
        const bool avx512 = t.text.compare(0, 6, "_mm512") == 0 ||
                            t.text.compare(0, 6, "__m512") == 0 ||
                            t.text.compare(0, 7, "__mmask") == 0;
        if (!avx512 || !flagged512.insert(t.text).second) continue;
        report(f, t.offset, "simd-hygiene",
               "AVX-512 token '" + t.text +
                   "' in an *_avx2.cpp kernel TU; these TUs are compiled with -mavx2 -mfma "
                   "only — AVX-512 code would need its own dispatched _avx512 TU and CMake "
                   "grant");
      }
      return;
    }
    for (std::size_t pos = f.code.find("immintrin.h"); pos != std::string::npos;
         pos = f.code.find("immintrin.h", pos + 1)) {
      report(f, pos, "simd-hygiene",
             "immintrin.h may only be included by src/tensor/kernels/*_avx2.cpp (every other "
             "TU must stay buildable and runnable on pre-AVX2 hosts)");
    }
    std::set<std::string> flagged;
    for (const Token& t : f.tokens) {
      if (!t.ident()) continue;
      const bool intrinsic = t.text.compare(0, 3, "_mm") == 0 ||
                             t.text.compare(0, 4, "_MM_") == 0 ||
                             t.text.compare(0, 6, "__m128") == 0 ||
                             t.text.compare(0, 6, "__m256") == 0 ||
                             t.text.compare(0, 6, "__m512") == 0;
      if (!intrinsic || !flagged.insert(t.text).second) continue;
      report(f, t.offset, "simd-hygiene",
             "SIMD intrinsic '" + t.text +
                 "' outside src/tensor/kernels/*_avx2.cpp; vector code must stay behind the "
                 "runtime CPUID dispatch in kernels/kernels.cpp");
    }
  }

  // ---- simd-hygiene: CMake model (cross-file) ------------------------------
  void rule_simd_cmake() {
    if (cmake_files_.empty()) return;
    std::set<std::string> granted;  // repo-relative TUs with per-file -mavx2
    auto has_avx2 = [](const std::string& arg) {
      return arg.find("-mavx2") != std::string::npos;
    };
    for (const CMakeFile& cm : cmake_files_) {
      const std::size_t slash = cm.path.rfind('/');
      const std::string dir = slash == std::string::npos ? "" : cm.path.substr(0, slash + 1);
      for (const CMakeCommand& cmd : cm.commands) {
        if (cmd.name == "add_compile_options" || cmd.name == "target_compile_options") {
          for (const std::string& arg : cmd.args) {
            if (has_avx2(arg)) {
              diags_.push_back(
                  {cm.path, cmd.line, "simd-hygiene",
                   cmd.name + " applies -mavx2 " +
                       (cmd.name == "add_compile_options" ? "globally" : "target-wide") +
                       "; AVX2 must be granted per-file to the *_avx2.cpp kernel TUs only "
                       "(set_source_files_properties), or pre-AVX2 hosts crash before the "
                       "runtime dispatch ever runs"});
              break;
            }
          }
        } else if (cmd.name == "set" && !cmd.args.empty() &&
                   cmd.args.front().compare(0, 15, "CMAKE_CXX_FLAGS") == 0) {
          for (std::size_t a = 1; a < cmd.args.size(); ++a) {
            if (has_avx2(cmd.args[a])) {
              diags_.push_back({cm.path, cmd.line, "simd-hygiene",
                                "-mavx2 injected into " + cmd.args.front() +
                                    " applies globally; AVX2 must be per-file on the "
                                    "*_avx2.cpp kernel TUs only"});
              break;
            }
          }
        } else if (cmd.name == "set_source_files_properties") {
          std::vector<std::string> sources;
          bool options_avx2 = false;
          bool in_props = false;
          for (std::size_t a = 0; a < cmd.args.size(); ++a) {
            if (cmd.args[a] == "PROPERTIES") {
              in_props = true;
              continue;
            }
            if (!in_props) {
              sources.push_back(cmd.args[a]);
            } else if (cmd.args[a] == "COMPILE_OPTIONS" && a + 1 < cmd.args.size() &&
                       has_avx2(cmd.args[a + 1])) {
              options_avx2 = true;
            }
          }
          if (!options_avx2) continue;
          for (const std::string& source : sources) {
            const std::string resolved = dir + source;
            if (is_avx2_kernel_tu(resolved)) {
              granted.insert(resolved);
            } else {
              diags_.push_back({cm.path, cmd.line, "simd-hygiene",
                                "per-file -mavx2 granted to '" + resolved +
                                    "', which is not a src/tensor/kernels/*_avx2.cpp kernel "
                                    "TU; AVX2 code must stay behind the runtime dispatch"});
            }
          }
        }
      }
    }
    for (const SourceFile& f : files_) {
      if (is_avx2_kernel_tu(f.path) && granted.count(f.path) == 0) {
        diags_.push_back({f.path, 1, "simd-hygiene",
                          f.path +
                              " is an *_avx2.cpp kernel TU but no CMakeLists.txt grants it "
                              "per-file -mavx2 (it would silently build as scalar)"});
      }
    }
  }
};

// ---- output ----------------------------------------------------------------

enum class Format { kText, kJson, kGithub };

std::string json_escape(const std::string& in) {
  std::string out;
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4U) & 0xFU];
          out += kHex[static_cast<unsigned char>(c) & 0xFU];
        } else {
          out += c;
        }
    }
  }
  return out;
}

// GitHub workflow-command data escaping: % CR LF.
std::string github_escape(const std::string& in) {
  std::string out;
  for (char c : in) {
    if (c == '%') {
      out += "%25";
    } else if (c == '\r') {
      out += "%0D";
    } else if (c == '\n') {
      out += "%0A";
    } else {
      out += c;
    }
  }
  return out;
}

void print_diagnostics(const std::vector<Diagnostic>& diags, Format format, bool tree_mode) {
  switch (format) {
    case Format::kText:
      for (const Diagnostic& d : diags) {
        std::cout << d.file << ":" << d.line << ": " << d.rule << " " << d.message << "\n";
      }
      if (tree_mode && !diags.empty()) std::cout << diags.size() << " violation(s)\n";
      break;
    case Format::kJson: {
      std::cout << "[";
      bool first = true;
      for (const Diagnostic& d : diags) {
        std::cout << (first ? "" : ",") << "\n  {\"file\":\"" << json_escape(d.file)
                  << "\",\"line\":" << d.line << ",\"rule\":\"" << json_escape(d.rule)
                  << "\",\"message\":\"" << json_escape(d.message) << "\"}";
        first = false;
      }
      std::cout << (diags.empty() ? "]\n" : "\n]\n");
      break;
    }
    case Format::kGithub:
      for (const Diagnostic& d : diags) {
        std::cout << "::error file=" << github_escape(d.file) << ",line=" << d.line
                  << ",title=clado-lint " << github_escape(d.rule)
                  << "::" << github_escape(d.message) << "\n";
      }
      if (tree_mode && !diags.empty()) std::cout << diags.size() << " violation(s)\n";
      break;
  }
}

// ---- drivers ---------------------------------------------------------------

bool should_scan(const fs::path& rel) {
  const std::string first = rel.begin()->string();
  if (first != "src" && first != "tests" && first != "bench" && first != "tools") return false;
  const std::string ext = rel.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

// CMakeLists.txt files that belong to the project model: the root list plus
// every list under the scanned/example trees (never build/ output).
bool is_project_cmake(const fs::path& rel) {
  if (rel.filename() != "CMakeLists.txt") return false;
  const std::string first = rel.begin()->string();
  return rel == fs::path("CMakeLists.txt") || first == "src" || first == "tests" ||
         first == "bench" || first == "tools" || first == "examples";
}

std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int run_on_tree(const fs::path& root, Format format) {
  if (!fs::is_directory(root)) {
    std::cerr << "clado_lint: not a directory: " << root << "\n";
    return 2;
  }
  Linter linter;
  std::vector<fs::path> paths;
  std::vector<fs::path> cmake_paths;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const fs::path rel = fs::relative(entry.path(), root);
    if (should_scan(rel)) paths.push_back(rel);
    if (is_project_cmake(rel)) cmake_paths.push_back(rel);
  }
  std::sort(paths.begin(), paths.end());
  std::sort(cmake_paths.begin(), cmake_paths.end());
  for (const fs::path& rel : paths) {
    const auto content = read_file(root / rel);
    if (!content) {
      std::cerr << "clado_lint: cannot read " << (root / rel) << "\n";
      return 2;
    }
    linter.add_file(rel.generic_string(), *content);
  }
  for (const fs::path& rel : cmake_paths) {
    const auto content = read_file(root / rel);
    if (!content) {
      std::cerr << "clado_lint: cannot read " << (root / rel) << "\n";
      return 2;
    }
    linter.add_cmake(rel.generic_string(), *content);
  }
  if (const auto readme = read_file(root / "README.md")) linter.set_readme(*readme);
  const std::vector<Diagnostic> diags = linter.run(/*cross_file_rules=*/true);
  print_diagnostics(diags, format, /*tree_mode=*/true);
  return diags.empty() ? 0 : 1;
}

int run_on_stdin(const std::string& virtual_path, Format format) {
  std::ostringstream buf;
  buf << std::cin.rdbuf();
  Linter linter;
  linter.add_file(virtual_path, buf.str());
  const std::vector<Diagnostic> diags = linter.run(/*cross_file_rules=*/false);
  print_diagnostics(diags, format, /*tree_mode=*/false);
  return diags.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  Format format = Format::kText;
  bool list_rules = false;
  std::optional<std::string> stdin_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::optional<std::string> format_name;
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--stdin" && i + 1 < argc) {
      stdin_path = argv[++i];
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--format" && i + 1 < argc) {
      format_name = argv[++i];
    } else if (arg.rfind("--format=", 0) == 0) {
      format_name = arg.substr(9);
    } else {
      std::cerr << "usage: clado_lint [--root DIR] [--stdin VIRTUAL_PATH] [--list-rules] "
                   "[--format=text|json|github]\n";
      return 2;
    }
    if (format_name) {
      if (*format_name == "text") {
        format = Format::kText;
      } else if (*format_name == "json") {
        format = Format::kJson;
      } else if (*format_name == "github") {
        format = Format::kGithub;
      } else {
        std::cerr << "clado_lint: unknown --format '" << *format_name
                  << "' (expected text, json, or github)\n";
        return 2;
      }
    }
  }
  if (list_rules) {
    for (const std::string& rule : kAllRules) std::cout << rule << "\n";
    return 0;
  }
  if (stdin_path) return run_on_stdin(*stdin_path, format);
  return run_on_tree(root, format);
}
