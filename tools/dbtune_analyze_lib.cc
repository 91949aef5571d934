#include "dbtune_analyze_lib.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace dbtune_analyze {

namespace {

// ---------------------------------------------------------------------------
// Check registry
// ---------------------------------------------------------------------------

const std::vector<CheckInfo>& Registry() {
  static const std::vector<CheckInfo> checks = {
      {"thread-local-capture", "error",
       "thread_local declared outside a ParallelFor/Submit lambda is named "
       "inside it; pool workers resolve the name to their own instance",
       "capture a pointer to the thread_local by value before the lambda "
       "(or declare the thread_local inside the lambda body)"},
      {"unordered-iteration", "error",
       "range-for over std::unordered_map/set accumulates or writes "
       "output; hash order is unspecified",
       "copy the keys into a sorted vector (or use std::map) before "
       "accumulating or emitting"},
      {"parallel-reduction-order", "error",
       "+=/-= on shared state inside a ParallelFor/Submit lambda; the "
       "accumulation order depends on thread scheduling",
       "accumulate into per-chunk partials indexed by chunk, then reduce "
       "chunk-ascending on one thread"},
      {"ignored-status", "error",
       "Status/Result-returning call discarded (bare statement, (void) "
       "cast, or comma operator) — the forms [[nodiscard]] misses",
       "handle the Status: DBTUNE_RETURN_IF_ERROR, check .ok(), or store "
       "the result"},
      {"mutex-guard-gap", "error",
       "member annotated DBTUNE_GUARDED_BY touched with no MutexLock / "
       "AssertHeld in scope",
       "take a MutexLock on the guarding mutex, or annotate the method "
       "DBTUNE_REQUIRES(mu)"},
      {"random-seed", "error",
       "non-deterministic seeding outside src/util/random",
       "route all randomness through the seeded util/random Rng"},
      {"raw-getenv", "error",
       "environment read outside src/util/env_config.cc; each switch must "
       "be parsed once, by one rule",
       "add the variable to EnvConfig and read it through "
       "ProcessEnvConfig()"},
      {"naked-new", "warning", "raw new/delete expression",
       "use std::make_unique/std::make_shared or a container"},
      {"using-namespace-std", "warning",
       "`using namespace std` pollutes every including scope",
       "qualify names or use narrow using-declarations"},
      {"include-guard", "warning",
       "header guard must be the path-derived DBTUNE_<PATH>_H_",
       "rename the #ifndef/#define pair to the path-derived guard"},
      {"iostream", "warning",
       "<iostream> drags static iostream initializers into library code",
       "log through util/logging instead"},
      {"raw-timing", "warning",
       "std::chrono clock read outside src/obs and bench_util.h",
       "measure time through obs/clock (MonotonicNanos/MonotonicSeconds)"},
      {"predict-in-loop", "warning",
       "scalar PredictMeanVar inside a loop under src/optimizer or "
       "src/transfer",
       "score candidate batches through PredictMeanVarBatch"},
      {"gp-construction", "warning",
       "direct GaussianProcess use under src/optimizer or src/transfer",
       "obtain GP surrogates through surrogate_factory's CreateGpSurrogate, "
       "the one construction point"},
      {"metrics-export", "warning",
       "direct registry snapshot/serialization outside src/obs",
       "render metrics through obs/metrics_export "
       "(RenderPrometheus/WritePrometheusSnapshot)"},
      {"unchecked-write", "error",
       "write/flush/close result discarded on a persistence path; a full "
       "disk or dead descriptor fails silently and truncates durable state",
       "check the return of fwrite/fprintf/fflush/fclose (or the stream "
       "state after writing) and surface the failure"},
      {"blocking-in-scheduler", "error",
       "blocking call (file I/O, sleep, WaitAll) on a serve scheduler "
       "path; the batch loop multiplexes every session, so one blocking "
       "call stalls all of them",
       "persist through the ObservationStore API, join parallel work via "
       "ParallelFor, and drive timeouts from the idle sweep's clock "
       "instead of sleeping"},
      {"unvalidated-enum-cast", "error",
       "static_cast to an enum on a serve/ or store/ path with no range "
       "check of the cast integer in the same function; a wire or disk "
       "byte past the last enumerator becomes a value no switch expects",
       "compare the integer with the enum's bounds and return a Status "
       "before the cast, in the same function, or allow() the line with "
       "the reason every consumer handles unknown values"},
      {"io", "error", "file could not be read",
       "check that the path exists and is readable"},
  };
  return checks;
}

const CheckInfo* FindCheck(const std::string& id) {
  for (const CheckInfo& check : Registry()) {
    if (id == check.id) return &check;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Small string helpers
// ---------------------------------------------------------------------------

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

struct Token {
  enum Kind { kIdent, kNumber, kString, kPunct };
  Kind kind;
  std::string text;
  int line;
};

struct Directive {
  int line;          // line of the leading '#'
  std::string text;  // directive text, comments stripped, continuations joined
};

struct FileScan {
  std::vector<Token> tokens;
  std::vector<Directive> directives;
  std::map<int, std::set<std::string>> line_allows;
  std::set<std::string> file_allows;
};

/// Collects `dbtune-lint: allow(<check>)` / `allow-file(<check>)` tags
/// from one comment. `base_line` is the line the comment starts on;
/// embedded newlines shift the attribution line.
void ParseAllowTags(const std::string& comment, int base_line,
                    FileScan* scan) {
  static const std::string kLineTag = "dbtune-lint: allow(";
  static const std::string kFileTag = "dbtune-lint: allow-file(";
  for (int pass = 0; pass < 2; ++pass) {
    const std::string& tag = pass == 0 ? kLineTag : kFileTag;
    size_t pos = 0;
    while ((pos = comment.find(tag, pos)) != std::string::npos) {
      const size_t open = pos + tag.size();
      const size_t close = comment.find(')', open);
      if (close == std::string::npos) break;
      const std::string check = comment.substr(open, close - open);
      if (pass == 0) {
        const int line = base_line + static_cast<int>(std::count(
                                         comment.begin(),
                                         comment.begin() +
                                             static_cast<long>(pos),
                                         '\n'));
        scan->line_allows[line].insert(check);
      } else {
        scan->file_allows.insert(check);
      }
      pos = close + 1;
    }
  }
}

/// True when the identifier ending right before a '"' marks a raw string
/// (R, u8R, uR, LR, UR).
bool IsRawStringPrefix(const std::string& ident) {
  return ident == "R" || ident == "u8R" || ident == "uR" || ident == "LR" ||
         ident == "UR";
}

FileScan Scan(const std::string& src) {
  FileScan scan;
  const size_t n = src.size();
  size_t i = 0;
  int line = 1;
  bool line_start = true;  // only whitespace seen since the last newline

  auto peek = [&](size_t k) { return k < n ? src[k] : '\0'; };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      line_start = true;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && peek(i + 1) == '/') {
      const size_t start = i;
      while (i < n && src[i] != '\n') ++i;
      ParseAllowTags(src.substr(start, i - start), line, &scan);
      continue;
    }
    // Block comment.
    if (c == '/' && peek(i + 1) == '*') {
      const size_t start = i;
      const int start_line = line;
      i += 2;
      while (i < n && !(src[i] == '*' && peek(i + 1) == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      if (i < n) i += 2;
      ParseAllowTags(src.substr(start, i - start), start_line, &scan);
      continue;
    }
    // Preprocessor directive (only when '#' leads the line).
    if (c == '#' && line_start) {
      const int start_line = line;
      std::string text;
      ++i;
      while (i < n) {
        if (src[i] == '\\' && peek(i + 1) == '\n') {
          text.push_back(' ');
          ++line;
          i += 2;
          continue;
        }
        if (src[i] == '\n') break;  // the newline itself is reprocessed
        if (src[i] == '/' && peek(i + 1) == '/') {
          const size_t cstart = i;
          while (i < n && src[i] != '\n') ++i;
          ParseAllowTags(src.substr(cstart, i - cstart), line, &scan);
          break;
        }
        if (src[i] == '/' && peek(i + 1) == '*') {
          const size_t cstart = i;
          const int cline = line;
          i += 2;
          while (i < n && !(src[i] == '*' && peek(i + 1) == '/')) {
            if (src[i] == '\n') ++line;
            ++i;
          }
          if (i < n) i += 2;
          ParseAllowTags(src.substr(cstart, i - cstart), cline, &scan);
          text.push_back(' ');
          continue;
        }
        text.push_back(src[i]);
        ++i;
      }
      scan.directives.push_back(Directive{start_line, text});
      continue;
    }
    line_start = false;
    // Identifier (possibly a raw-string prefix).
    if (IsIdentStart(c)) {
      const size_t start = i;
      while (i < n && IsIdentChar(src[i])) ++i;
      const std::string ident = src.substr(start, i - start);
      if (peek(i) == '"' && IsRawStringPrefix(ident)) {
        // Raw string: R"delim( ... )delim"
        ++i;  // consume the quote
        std::string delim;
        while (i < n && src[i] != '(') delim.push_back(src[i++]);
        if (i < n) ++i;  // consume '('
        const std::string closer = ")" + delim + "\"";
        const size_t end = src.find(closer, i);
        const int string_line = line;
        const size_t stop = end == std::string::npos ? n : end + closer.size();
        line += static_cast<int>(
            std::count(src.begin() + static_cast<long>(i),
                       src.begin() + static_cast<long>(stop), '\n'));
        i = stop;
        scan.tokens.push_back(Token{Token::kString, "", string_line});
        continue;
      }
      scan.tokens.push_back(Token{Token::kIdent, ident, line});
      continue;
    }
    // Number (handles digit separators, hex, exponents).
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '.' &&
         std::isdigit(static_cast<unsigned char>(peek(i + 1))) != 0)) {
      const size_t start = i;
      ++i;
      while (i < n) {
        const char d = src[i];
        if (IsIdentChar(d) || d == '.') {
          ++i;
        } else if (d == '\'' && IsIdentChar(peek(i + 1))) {
          i += 2;  // digit separator
        } else if ((d == '+' || d == '-') &&
                   (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                    src[i - 1] == 'p' || src[i - 1] == 'P')) {
          ++i;
        } else {
          break;
        }
      }
      scan.tokens.push_back(
          Token{Token::kNumber, src.substr(start, i - start), line});
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      const int string_line = line;
      ++i;
      while (i < n) {
        if (src[i] == '\\') {
          i += 2;
          continue;
        }
        if (src[i] == '\n') ++line;  // unterminated; keep line count honest
        if (src[i] == quote) {
          ++i;
          break;
        }
        ++i;
      }
      scan.tokens.push_back(Token{Token::kString, "", string_line});
      continue;
    }
    // Punctuation: longest match of the multi-char set we care about.
    static const char* kMulti[] = {"<<=", ">>=", "->*", "...", "::", "->",
                                   "+=",  "-=",  "*=",  "/=",  "%=", "&=",
                                   "|=",  "^=",  "==",  "!=",  "<=", ">=",
                                   "&&",  "||",  "<<",  ">>",  "++", "--"};
    std::string punct(1, c);
    for (const char* m : kMulti) {
      const size_t len = std::char_traits<char>::length(m);
      if (src.compare(i, len, m) == 0) {
        punct = m;
        break;
      }
    }
    scan.tokens.push_back(Token{Token::kPunct, punct, line});
    i += punct.size();
  }
  return scan;
}

// ---------------------------------------------------------------------------
// Declaration pass
// ---------------------------------------------------------------------------

struct Decls {
  std::set<std::string> unordered_vars;  // names declared as unordered_{map,set}
  std::set<std::string> guarded;         // members annotated GUARDED_BY
  std::set<size_t> skip_tokens;  // declaration-site tokens exempt from checks
  std::set<std::string> status_fns;  // functions returning Status/Result<...>
  std::set<std::string> enums;       // names declared as enum (class) types
  // Functions this file declares with a non-Status return type. They
  // override the tree-wide Status index — a file's own `int Build(...)`
  // must not be confused with some other class's Result-returning Build.
  std::set<std::string> nonstatus_fns;
};

/// Skips a balanced template argument list starting at tokens[i] == "<".
/// Returns the index just past the matching ">". ">>" closes two levels.
size_t SkipTemplateArgs(const std::vector<Token>& tokens, size_t i) {
  int depth = 0;
  while (i < tokens.size()) {
    const Token& t = tokens[i];
    if (t.kind == Token::kPunct) {
      if (t.text == "<") ++depth;
      if (t.text == ">") --depth;
      if (t.text == ">>") depth -= 2;
      if (t.text == ";") return i;  // malformed; bail out
    }
    ++i;
    if (depth <= 0) return i;
  }
  return i;
}

Decls CollectDecls(const FileScan& scan) {
  Decls decls;
  const std::vector<Token>& tokens = scan.tokens;
  const size_t n = tokens.size();
  auto is_punct = [&](size_t k, const char* text) {
    return k < n && tokens[k].kind == Token::kPunct && tokens[k].text == text;
  };
  for (size_t i = 0; i < n; ++i) {
    const Token& t = tokens[i];
    if (t.kind != Token::kIdent) continue;

    // `std::unordered_map<K, V> name` — record `name`.
    if (t.text == "unordered_map" || t.text == "unordered_set") {
      size_t j = i + 1;
      if (is_punct(j, "<")) j = SkipTemplateArgs(tokens, j);
      while (j < n && tokens[j].kind == Token::kPunct &&
             (tokens[j].text == "&" || tokens[j].text == "*" ||
              tokens[j].text == "&&")) {
        ++j;
      }
      while (j < n && tokens[j].kind == Token::kIdent &&
             tokens[j].text == "const") {
        ++j;
      }
      if (j < n && tokens[j].kind == Token::kIdent) {
        decls.unordered_vars.insert(tokens[j].text);
      }
      continue;
    }

    // `enum [class|struct] Name [: type] {` — record `Name`.
    if (t.text == "enum") {
      size_t j = i + 1;
      if (j < n && tokens[j].kind == Token::kIdent &&
          (tokens[j].text == "class" || tokens[j].text == "struct")) {
        ++j;
      }
      if (j < n && tokens[j].kind == Token::kIdent &&
          (is_punct(j + 1, "{") || is_punct(j + 1, ":") ||
           is_punct(j + 1, ";"))) {
        decls.enums.insert(tokens[j].text);
      }
      continue;
    }

    // `member DBTUNE_GUARDED_BY(mu)` — record `member`, exempt the
    // declaration tokens themselves.
    if (t.text == "DBTUNE_GUARDED_BY" || t.text == "DBTUNE_PT_GUARDED_BY" ||
        t.text == "GUARDED_BY") {
      if (i > 0 && tokens[i - 1].kind == Token::kIdent) {
        decls.guarded.insert(tokens[i - 1].text);
        decls.skip_tokens.insert(i - 1);
      }
      size_t j = i + 1;
      if (is_punct(j, "(")) {
        int depth = 0;
        for (; j < n; ++j) {
          decls.skip_tokens.insert(j);
          if (is_punct(j, "(")) ++depth;
          if (is_punct(j, ")") && --depth == 0) break;
        }
      }
      continue;
    }

    // `Status Name(` / `Result<T> Name(` / `Status Klass::Name(` — record
    // the terminal name as a Status-returning function.
    if (t.text == "Status" || t.text == "Result") {
      size_t j = i + 1;
      if (t.text == "Result") {
        if (!is_punct(j, "<")) continue;
        j = SkipTemplateArgs(tokens, j);
      }
      if (j >= n || tokens[j].kind != Token::kIdent) continue;
      std::string name = tokens[j].text;
      while (j + 2 < n && is_punct(j + 1, "::") &&
             tokens[j + 2].kind == Token::kIdent) {
        j += 2;
        name = tokens[j].text;
      }
      if (is_punct(j + 1, "(")) decls.status_fns.insert(name);
      continue;
    }

    // `Type Name(` / `Type Klass::Name(` declarations with a non-Status
    // return type — record the name as a local override.
    if (is_punct(i + 1, "(") && i > 0) {
      // Walk the qualifier chain back to its head.
      size_t head = i;
      while (head >= 2 && is_punct(head - 1, "::") &&
             tokens[head - 2].kind == Token::kIdent) {
        head -= 2;
      }
      if (head == 0) continue;
      size_t before = head - 1;
      // Skip pointer/reference declarators back to the type name.
      while (before > 0 && tokens[before].kind == Token::kPunct &&
             (tokens[before].text == "*" || tokens[before].text == "&" ||
              tokens[before].text == "&&")) {
        --before;
      }
      bool is_result_template = false;
      if (tokens[before].kind == Token::kPunct && tokens[before].text == ">") {
        // `Tmpl<...> Name(` — find the template name before the matching <.
        int depth = 0;
        size_t k = before;
        while (true) {
          if (tokens[k].kind == Token::kPunct) {
            if (tokens[k].text == ">") ++depth;
            if (tokens[k].text == ">>") depth += 2;
            if (tokens[k].text == "<" && --depth == 0) break;
          }
          if (k == 0) break;
          --k;
        }
        if (k > 0 && tokens[k - 1].kind == Token::kIdent) {
          is_result_template = tokens[k - 1].text == "Result";
          before = k - 1;
        } else {
          continue;
        }
      }
      if (tokens[before].kind != Token::kIdent) continue;
      static const std::set<std::string> kNotTypes = {
          "return", "else",      "case",     "delete",   "new",      "do",
          "goto",   "throw",     "co_return", "co_await", "co_yield",
          "if",     "while",     "for",      "switch",   "catch",
          "operator", "sizeof",  "alignof",  "typeid",   "not",
          "and",    "or"};
      if (kNotTypes.count(tokens[before].text) != 0) continue;
      if (tokens[before].text == "Status" || is_result_template) continue;
      decls.nonstatus_fns.insert(tokens[i].text);
    }
  }
  return decls;
}

// ---------------------------------------------------------------------------
// Scope / check pass
// ---------------------------------------------------------------------------

struct PathRules {
  bool random = true;          // random-seed applies
  bool timing = true;          // raw-timing applies
  bool env_read = true;        // raw-getenv applies
  bool model_user = false;     // predict-in-loop / gp-construction apply
  bool metrics_export = true;  // metrics-export applies
  bool persistence = false;    // unchecked-write applies
  bool scheduler = false;      // blocking-in-scheduler applies
  bool decoder = false;        // unvalidated-enum-cast applies
};

class Analyzer {
 public:
  Analyzer(const FileScan& scan, const Decls& decls,
           const std::set<std::string>& guarded,
           const std::set<std::string>& status_fns,
           const std::set<std::string>& enums, const PathRules& rules,
           const std::string& display_path, std::vector<Diagnostic>* out)
      : scan_(scan),
        tokens_(scan.tokens),
        decls_(decls),
        guarded_(guarded),
        status_fns_(status_fns),
        enums_(enums),
        rules_(rules),
        display_path_(display_path),
        out_(out) {
    skip_ = decls.skip_tokens;
    paren_match_.resize(tokens_.size(), 0);
    std::vector<size_t> stack;
    for (size_t i = 0; i < tokens_.size(); ++i) {
      if (IsPunct(i, "(")) stack.push_back(i);
      if (IsPunct(i, ")") && !stack.empty()) {
        paren_match_[stack.back()] = i;
        paren_match_[i] = stack.back();
        stack.pop_back();
      }
    }
  }

  void Run() {
    Scope file_scope;
    file_scope.kind = Scope::kFile;
    scopes_.push_back(file_scope);
    ScopeWalk();
    StatusDiscardPass();
    UncheckedWritePass();
    EnumCastPass();
  }

 private:
  struct Scope {
    enum Kind { kFile, kBlock, kFunction, kLambda, kLoopBody };
    Kind kind = kBlock;
    size_t open = 0;  // index of the opening brace
    bool has_lock = false;
    bool parallel = false;     // lambda spawned via ParallelFor / Submit
    bool ref_default = false;  // lambda capture default is [&]
    bool unordered = false;    // loop body iterating an unordered container
    std::set<std::string> ref_caps;
    std::set<std::string> tl_names;  // thread_locals declared in this scope
    std::set<std::string> locals;    // heuristic local declarations
  };

  bool IsPunct(size_t i, const char* text) const {
    return i < tokens_.size() && tokens_[i].kind == Token::kPunct &&
           tokens_[i].text == text;
  }
  bool IsIdent(size_t i) const {
    return i < tokens_.size() && tokens_[i].kind == Token::kIdent;
  }
  bool IsIdent(size_t i, const char* text) const {
    return IsIdent(i) && tokens_[i].text == text;
  }

  void Report(int line, const std::string& check, const std::string& message) {
    if (scan_.file_allows.count(check) != 0) return;
    const auto allows = scan_.line_allows.find(line);
    if (allows != scan_.line_allows.end() && allows->second.count(check) != 0) {
      return;
    }
    const CheckInfo* info = FindCheck(check);
    out_->push_back(Diagnostic{display_path_, line, check,
                               info != nullptr ? info->severity : "error",
                               message,
                               info != nullptr ? info->fix_hint : "", false});
  }

  // ---- scope helpers -------------------------------------------------------

  bool InLoop() const {
    if (loop_body_pending_ || open_loop_headers_ > 0) return true;
    for (const Scope& s : scopes_) {
      if (s.kind == Scope::kLoopBody) return true;
    }
    return false;
  }

  bool InUnorderedLoop() const {
    if (loop_body_pending_ && pending_unordered_) return true;
    for (const Scope& s : scopes_) {
      if (s.kind == Scope::kLoopBody && s.unordered) return true;
    }
    return false;
  }

  bool AnyLockInScope() const {
    for (const Scope& s : scopes_) {
      if (s.has_lock) return true;
    }
    return false;
  }

  /// Index of the outermost enclosing parallel lambda, or npos.
  size_t OutermostParallelLambda() const {
    for (size_t k = 0; k < scopes_.size(); ++k) {
      if (scopes_[k].kind == Scope::kLambda && scopes_[k].parallel) return k;
    }
    return static_cast<size_t>(-1);
  }

  // ---- lambda capture parsing ---------------------------------------------

  /// Parses the capture list starting at tokens[open] == "[". Returns the
  /// index of the matching "]" (or open when unterminated).
  size_t ParseCaptures(size_t open) {
    pending_ref_default_ = false;
    pending_ref_caps_.clear();
    int depth = 0;
    size_t close = open;
    for (size_t k = open; k < tokens_.size(); ++k) {
      if (IsPunct(k, "[")) ++depth;
      if (IsPunct(k, "]") && --depth == 0) {
        close = k;
        break;
      }
    }
    // Split top-level commas.
    size_t group_start = open + 1;
    int inner = 0;
    for (size_t k = open + 1; k <= close; ++k) {
      const bool boundary = k == close || (IsPunct(k, ",") && inner == 0);
      if (IsPunct(k, "[") || IsPunct(k, "(") || IsPunct(k, "{")) ++inner;
      if (IsPunct(k, "]") || IsPunct(k, ")") || IsPunct(k, "}")) --inner;
      if (!boundary) continue;
      // Group is [group_start, k).
      if (group_start < k) {
        if (IsPunct(group_start, "&")) {
          if (group_start + 1 == k) {
            pending_ref_default_ = true;
          } else if (IsIdent(group_start + 1)) {
            pending_ref_caps_.insert(tokens_[group_start + 1].text);
          }
        }
      }
      group_start = k + 1;
    }
    return close;
  }

  // ---- declaration helpers -------------------------------------------------

  /// Handles `thread_local ... name ...;` at tokens[i]: records the
  /// declared name into the innermost function-like scope and exempts the
  /// declaration's own tokens from identifier checks.
  void HandleThreadLocal(size_t i) {
    size_t stop = i;
    size_t name_idx = static_cast<size_t>(-1);
    for (size_t k = i + 1; k < std::min(tokens_.size(), i + 64); ++k) {
      if (IsPunct(k, ";") || IsPunct(k, "=") || IsPunct(k, "(") ||
          IsPunct(k, "{")) {
        stop = k;
        break;
      }
      if (IsIdent(k)) name_idx = k;
      stop = k;
    }
    for (size_t k = i; k <= stop; ++k) skip_.insert(k);
    if (name_idx == static_cast<size_t>(-1)) return;
    for (size_t k = scopes_.size(); k-- > 0;) {
      if (scopes_[k].kind == Scope::kLambda ||
          scopes_[k].kind == Scope::kFunction || scopes_[k].kind == Scope::kFile) {
        scopes_[k].tl_names.insert(tokens_[name_idx].text);
        return;
      }
    }
  }

  /// Heuristic local-declaration recording: `Type name =` / `Type name;`
  /// / `Type name,` — and, inside for-headers, `Type name :`.
  void MaybeRecordLocal(size_t i) {
    if (i == 0 || i + 1 >= tokens_.size()) return;
    const Token& prev = tokens_[i - 1];
    const bool decl_prev =
        (prev.kind == Token::kIdent && prev.text != "return" &&
         prev.text != "else" && prev.text != "case" && prev.text != "delete" &&
         prev.text != "new" && prev.text != "do" && prev.text != "goto" &&
         prev.text != "throw" && prev.text != "operator") ||
        (prev.kind == Token::kPunct &&
         (prev.text == ">" || prev.text == "*" || prev.text == "&" ||
          prev.text == "&&"));
    if (!decl_prev) return;
    const Token& next = tokens_[i + 1];
    if (next.kind != Token::kPunct) return;
    const bool decl_next =
        next.text == "=" || next.text == ";" || next.text == "," ||
        (next.text == ":" && open_loop_headers_ > 0) ||
        (next.text == ")" && lambda_param_depth_ > 0);
    if (!decl_next) return;
    scopes_.back().locals.insert(tokens_[i].text);
  }

  // ---- checks --------------------------------------------------------------

  void CheckIdent(size_t i) {
    const Token& t = tokens_[i];
    const std::string& ident = t.text;
    const bool call = IsPunct(i + 1, "(");

    if (rules_.random) {
      if ((ident == "rand" || ident == "srand" || ident == "time") && call) {
        Report(t.line, "random-seed",
               "call to " + ident +
                   "() — all randomness must flow through the seeded "
                   "util/random Rng for reproducibility");
      } else if (ident == "random_device") {
        Report(t.line, "random-seed",
               "std::random_device is non-deterministic — use the seeded "
               "util/random Rng");
      }
    }

    if (rules_.timing &&
        (ident == "steady_clock" || ident == "system_clock" ||
         ident == "high_resolution_clock")) {
      Report(t.line, "raw-timing",
             "std::chrono::" + ident +
                 " read outside src/obs — measure time through obs/clock "
                 "(MonotonicNanos/MonotonicSeconds) so every latency lands "
                 "in the metrics registry");
    }

    if (rules_.env_read && (ident == "getenv" || ident == "secure_getenv")) {
      Report(t.line, "raw-getenv",
             ident + " outside util/env_config.cc — add the variable to "
                     "EnvConfig and read it through ProcessEnvConfig(), so "
                     "every switch is parsed once, by one rule");
    }

    if (rules_.model_user && ident == "GaussianProcess") {
      Report(t.line, "gp-construction",
             "direct GaussianProcess use in optimizer or transfer code — "
             "obtain GP surrogates through surrogate_factory's "
             "CreateGpSurrogate, the one construction point");
    }

    if (rules_.metrics_export &&
        (ident == "MetricsSnapshot" || ident == "ToJson")) {
      Report(t.line, "metrics-export",
             "direct registry iteration (" + ident +
                 ") outside src/obs — render metrics through "
                 "obs/metrics_export so exports stay consistently escaped "
                 "and named");
    }

    if (rules_.scheduler) {
      // The serving loop multiplexes every session over the scheduler
      // thread; a blocking call there stalls all of them. File I/O must
      // flow through the ObservationStore API, joins through ParallelFor
      // (whose internal join is the one sanctioned wait), and timeouts
      // through the idle sweep's clock.
      static const std::set<std::string> kBlockingCalls = {
          "fopen",     "fread",       "fwrite", "fprintf",  "fputs",
          "fflush",    "fclose",      "sleep",  "usleep",   "nanosleep",
          "sleep_for", "sleep_until", "WaitAll"};
      const bool stream_type =
          ident == "ifstream" || ident == "ofstream" || ident == "fstream";
      if ((call && kBlockingCalls.count(ident) != 0) || stream_type) {
        Report(t.line, "blocking-in-scheduler",
               "blocking `" + ident +
                   "` on a serve scheduler path — the batch loop "
                   "multiplexes every session, so one blocking call stalls "
                   "all of them; persist through the ObservationStore API, "
                   "join via ParallelFor, and drive timeouts from the idle "
                   "sweep's clock");
      }
    }

    if (ident == "new") {
      Report(t.line, "naked-new",
             "naked new — use std::make_unique/std::make_shared or a "
             "container");
    }
    if (ident == "delete" && !(i > 0 && IsPunct(i - 1, "="))) {
      Report(t.line, "naked-new",
             "naked delete — owning pointers must be smart pointers");
    }

    if (ident == "using" && IsIdent(i + 1, "namespace") &&
        IsIdent(i + 2, "std")) {
      Report(t.line, "using-namespace-std",
             "`using namespace std` pollutes every including scope");
    }

    if (rules_.model_user && ident == "PredictMeanVar" && call && InLoop()) {
      Report(t.line, "predict-in-loop",
             "scalar PredictMeanVar inside a loop — score candidate "
             "batches through PredictMeanVarBatch instead (per-call "
             "scratch and dispatch overhead dominates acquisition "
             "scoring)");
    }

    if (InUnorderedLoop() && call &&
        (ident == "push_back" || ident == "emplace_back" ||
         ident == "Append" || ident == "fprintf" || ident == "printf")) {
      Report(t.line, "unordered-iteration",
             "output written while iterating an unordered container — the "
             "emission order is the container's hash order, which is "
             "unspecified and toolchain-dependent");
    }

    if (skip_.count(i) == 0) {
      CheckThreadLocalCapture(i);
      CheckGuardGap(i);
    }
  }

  void CheckThreadLocalCapture(size_t i) {
    const size_t lambda = OutermostParallelLambda();
    if (lambda == static_cast<size_t>(-1)) return;
    const std::string& name = tokens_[i].text;
    // Innermost declaration wins: declared at or inside the parallel
    // lambda means each worker legitimately owns its instance.
    for (size_t k = scopes_.size(); k-- > 0;) {
      if (scopes_[k].tl_names.count(name) == 0) continue;
      if (k >= lambda) return;
      Report(tokens_[i].line, "thread-local-capture",
             "thread_local `" + name +
                 "` declared outside this ParallelFor/Submit lambda is "
                 "named inside it — on a pool worker the name resolves to "
                 "the worker's own (empty, never-resized) instance, not "
                 "the caller's buffer (the PR 6 out-of-bounds write)");
      return;
    }
  }

  void CheckGuardGap(size_t i) {
    const std::string& name = tokens_[i].text;
    if (guarded_.count(name) == 0) return;
    if (AnyLockInScope()) return;
    // A local (or thread_local) of the same name shadows the member.
    for (const Scope& s : scopes_) {
      if (s.locals.count(name) != 0 || s.tl_names.count(name) != 0) return;
    }
    Report(tokens_[i].line, "mutex-guard-gap",
           "`" + name +
               "` is annotated DBTUNE_GUARDED_BY but no MutexLock / "
               "AssertHeld is in scope here (and the enclosing function "
               "has no DBTUNE_REQUIRES)");
  }

  void CheckAccumulate(size_t i) {
    // tokens_[i] is "+=" or "-=".
    if (InUnorderedLoop()) {
      Report(tokens_[i].line, "unordered-iteration",
             "accumulation while iterating an unordered container — the "
             "reduction order is the container's hash order, so "
             "floating-point results are unspecified");
    }
    const size_t lambda = OutermostParallelLambda();
    if (lambda == static_cast<size_t>(-1)) return;
    if (i == 0) return;
    // Walk the target chain backwards; indexed targets (`x[i] +=`) write
    // index-owned slots and are the sanctioned pattern.
    size_t idx = i - 1;
    size_t head = static_cast<size_t>(-1);
    while (true) {
      if (IsPunct(idx, "]")) return;  // indexed target
      if (!IsIdent(idx)) return;      // e.g. `) +=` — not a plain target
      head = idx;
      if (idx >= 2 && tokens_[idx - 1].kind == Token::kPunct &&
          (tokens_[idx - 1].text == "." || tokens_[idx - 1].text == "->" ||
           tokens_[idx - 1].text == "::")) {
        idx -= 2;
        continue;
      }
      break;
    }
    const std::string& name = tokens_[head].text;
    // Locals of the lambda (or of scopes nested inside it) are private to
    // one chunk; thread_locals are handled by thread-local-capture.
    for (size_t k = scopes_.size(); k-- > lambda;) {
      if (scopes_[k].locals.count(name) != 0) return;
      if (scopes_[k].tl_names.count(name) != 0) return;
    }
    for (const Scope& s : scopes_) {
      if (s.tl_names.count(name) != 0) return;  // thread-local-capture's case
    }
    Report(tokens_[i].line, "parallel-reduction-order",
           "`" + name + " " + tokens_[i].text +
               "` inside a ParallelFor/Submit lambda accumulates shared "
               "state in scheduling order — results differ across pool "
               "sizes");
  }

  /// Decides whether a loop header range expression iterates an unordered
  /// container: `for (decl : expr)` with `expr` naming a declared
  /// unordered variable (or the container type itself).
  bool HeaderIteratesUnordered(size_t open, size_t close) {
    int depth = 0;
    size_t colon = static_cast<size_t>(-1);
    for (size_t k = open + 1; k < close; ++k) {
      if (IsPunct(k, "(")) ++depth;
      if (IsPunct(k, ")")) --depth;
      if (depth == 0 && IsPunct(k, ":")) {
        colon = k;
        break;
      }
    }
    if (colon == static_cast<size_t>(-1)) return false;
    for (size_t k = colon + 1; k < close; ++k) {
      if (!IsIdent(k)) continue;
      if (tokens_[k].text == "unordered_map" ||
          tokens_[k].text == "unordered_set" ||
          decls_.unordered_vars.count(tokens_[k].text) != 0) {
        return true;
      }
    }
    return false;
  }

  /// Classifies the `{` at tokens[i] and pushes the scope.
  void OpenScope(size_t i) {
    Scope scope;
    scope.kind = Scope::kBlock;
    scope.open = i;
    if (lambda_pending_) {
      scope.kind = Scope::kLambda;
      scope.parallel = parallel_call_depth_ > 0;
      scope.ref_default = pending_ref_default_;
      scope.ref_caps = pending_ref_caps_;
      scope.locals = pending_lambda_locals_;
      lambda_pending_ = false;
      pending_lambda_locals_.clear();
    } else if (loop_body_pending_) {
      scope.kind = Scope::kLoopBody;
      scope.unordered = pending_unordered_;
      loop_body_pending_ = false;
      pending_unordered_ = false;
    } else {
      // Walk back over trailing signature tokens (const, noexcept,
      // override, -> type, ...) looking for the `)` that closed the most
      // recent paren group; its callee decides control vs function.
      size_t j = i;
      bool function_like = false;
      for (int steps = 0; j-- > 0 && steps < 16; ++steps) {
        const Token& b = tokens_[j];
        if (b.kind == Token::kPunct && b.text == ")") {
          if (j == last_rparen_index_) {
            function_like = last_rparen_callee_ != "if" &&
                            last_rparen_callee_ != "switch" &&
                            last_rparen_callee_ != "catch" &&
                            last_rparen_callee_ != "for" &&
                            last_rparen_callee_ != "while";
          }
          break;
        }
        if (b.kind == Token::kIdent ||
            (b.kind == Token::kPunct &&
             (b.text == "::" || b.text == ">" || b.text == "*" ||
              b.text == "&" || b.text == "->"))) {
          continue;
        }
        break;  // `=`/`,`/`;`/`{`/`:`/string — brace-init or type body
      }
      if (function_like) {
        scope.kind = Scope::kFunction;
        // A DBTUNE_REQUIRES annotation on the signature means the caller
        // holds the lock by contract.
        for (size_t k = i; k-- > 0;) {
          const Token& b = tokens_[k];
          if (b.kind == Token::kPunct &&
              (b.text == ";" || b.text == "}" || b.text == "{")) {
            break;
          }
          if (b.kind == Token::kIdent &&
              (b.text == "DBTUNE_REQUIRES" ||
               b.text == "DBTUNE_ASSERT_CAPABILITY" ||
               b.text == "DBTUNE_NO_THREAD_SAFETY_ANALYSIS")) {
            scope.has_lock = true;
            break;
          }
        }
      }
    }
    scopes_.push_back(scope);
  }

  // ---- main walk -----------------------------------------------------------

  void ScopeWalk() {
    const size_t n = tokens_.size();
    for (size_t i = 0; i < n; ++i) {
      const Token& t = tokens_[i];
      if (t.kind == Token::kIdent) {
        if (t.text == "for" || t.text == "while") {
          pending_loop_keyword_ = true;
        } else if (t.text == "do") {
          loop_body_pending_ = true;
        } else if (t.text == "thread_local") {
          HandleThreadLocal(i);
        } else {
          if ((t.text == "MutexLock" || t.text == "AssertHeld" ||
               t.text == "lock_guard" || t.text == "unique_lock" ||
               t.text == "scoped_lock") &&
              (IsIdent(i + 1) || IsPunct(i + 1, "(") || IsPunct(i + 1, "<"))) {
            // `MutexLock lock(...)` / `mu_.AssertHeld()` acquire; a bare
            // mention (forward declaration, friend decl) does not.
            scopes_.back().has_lock = true;
          }
          MaybeRecordLocal(i);
          CheckIdent(i);
        }
        continue;
      }
      if (t.kind != Token::kPunct) continue;
      const std::string& p = t.text;
      if (p == "(") {
        ParenFrame frame;
        frame.open = i;
        if (i > 0 && IsIdent(i - 1)) frame.callee = tokens_[i - 1].text;
        frame.loop_header = pending_loop_keyword_;
        pending_loop_keyword_ = false;
        frame.parallel_call =
            frame.callee == "ParallelFor" || frame.callee == "Submit";
        if (frame.parallel_call) ++parallel_call_depth_;
        if (frame.loop_header) ++open_loop_headers_;
        frame.lambda_params = lambda_pending_ && !lambda_params_seen_;
        if (frame.lambda_params) {
          lambda_params_seen_ = true;
          ++lambda_param_depth_;
        }
        parens_.push_back(frame);
      } else if (p == ")") {
        if (!parens_.empty()) {
          const ParenFrame frame = parens_.back();
          parens_.pop_back();
          if (frame.parallel_call) --parallel_call_depth_;
          if (frame.lambda_params) --lambda_param_depth_;
          last_rparen_index_ = i;
          last_rparen_callee_ = frame.callee;
          if (frame.loop_header) {
            --open_loop_headers_;
            loop_body_pending_ = true;
            pending_unordered_ = HeaderIteratesUnordered(frame.open, i);
          }
        }
      } else if (p == "{") {
        OpenScope(i);
      } else if (p == "}") {
        if (scopes_.size() > 1) {
          if (scopes_.back().kind == Scope::kFunction) {
            function_bodies_.emplace_back(scopes_.back().open, i);
          }
          scopes_.pop_back();
        }
      } else if (p == "[") {
        HandleBracket(i);
      } else if (p == ";") {
        if (open_loop_headers_ == 0) {
          loop_body_pending_ = false;
          pending_unordered_ = false;
        }
        // A lambda-intro that never reached a body was a misparse.
        if (lambda_pending_ && lambda_param_depth_ == 0) {
          lambda_pending_ = false;
          pending_lambda_locals_.clear();
        }
      } else if (p == "+=" || p == "-=") {
        CheckAccumulate(i);
      } else if (p == "<<") {
        if (InUnorderedLoop()) {
          Report(t.line, "unordered-iteration",
                 "stream output while iterating an unordered container — "
                 "the emission order is the container's hash order");
        }
      }
    }
  }

  void HandleBracket(size_t i) {
    // `[[attribute]]` — skip both brackets; subscript when the previous
    // token can end an expression; otherwise a lambda introducer.
    if (IsPunct(i + 1, "[")) return;
    if (i > 0 && IsPunct(i - 1, "[")) return;
    if (i > 0) {
      const Token& prev = tokens_[i - 1];
      if (prev.kind == Token::kIdent || prev.kind == Token::kNumber ||
          prev.kind == Token::kString ||
          (prev.kind == Token::kPunct &&
           (prev.text == ")" || prev.text == "]"))) {
        return;  // subscript or array declarator
      }
    }
    const size_t close = ParseCaptures(i);
    if (close == i) return;
    lambda_pending_ = true;
    lambda_params_seen_ = false;
    pending_lambda_locals_.clear();
  }

  // ---- discarded-result passes ---------------------------------------------

  /// Classifies how the value of the call at `tokens_[i](...)` (closing
  /// paren at `close`) is thrown away. Returns nullptr when the value is
  /// consumed (assigned, tested, passed on, returned).
  const char* DiscardForm(size_t i, size_t close) const {
    // Walk the qualifier chain (`a.b->c::name`) back to its start.
    size_t start = i;
    while (start >= 2 && tokens_[start - 1].kind == Token::kPunct &&
           (tokens_[start - 1].text == "." ||
            tokens_[start - 1].text == "->" ||
            tokens_[start - 1].text == "::") &&
           tokens_[start - 2].kind == Token::kIdent) {
      start -= 2;
    }
    const bool stmt_start =
        start == 0 || IsPunct(start - 1, ";") || IsPunct(start - 1, "{") ||
        IsPunct(start - 1, "}") || IsIdent(start - 1, "else") ||
        IsIdent(start - 1, "do");

    if (stmt_start && IsPunct(close + 1, ";")) {
      return "the result of a bare call statement";
    }
    if (start >= 3 && IsPunct(start - 1, ")") && IsIdent(start - 2, "void") &&
        IsPunct(start - 3, "(")) {
      return "a (void) cast";
    }
    if (start >= 5 && IsPunct(start - 1, "(") && IsPunct(start - 2, ">") &&
        IsIdent(start - 3, "void") && IsPunct(start - 4, "<") &&
        IsIdent(start - 5, "static_cast")) {
      return "a static_cast<void>";
    }
    if (IsPunct(close + 1, ",")) {
      // Comma counts as a discard only under a *grouping* paren (the
      // comma operator), never in an argument list.
      size_t k = start;
      size_t enclosing = static_cast<size_t>(-1);
      int depth = 0;
      while (k-- > 0) {
        if (IsPunct(k, ")")) ++depth;
        if (IsPunct(k, "(")) {
          if (depth == 0) {
            enclosing = k;
            break;
          }
          --depth;
        }
        if (depth == 0 && (IsPunct(k, ";") || IsPunct(k, "{"))) break;
      }
      if (enclosing != static_cast<size_t>(-1)) {
        const bool call_args =
            enclosing > 0 &&
            (tokens_[enclosing - 1].kind == Token::kIdent ||
             IsPunct(enclosing - 1, ")") || IsPunct(enclosing - 1, "]") ||
             IsPunct(enclosing - 1, ">"));
        if (!call_args) return "the comma operator";
      }
    }
    return nullptr;
  }

  void StatusDiscardPass() {
    const size_t n = tokens_.size();
    for (size_t i = 0; i < n; ++i) {
      if (!IsIdent(i) || !IsPunct(i + 1, "(")) continue;
      if (status_fns_.count(tokens_[i].text) == 0) continue;
      // This file's own non-Status declaration overrides the tree index.
      if (decls_.nonstatus_fns.count(tokens_[i].text) != 0) continue;
      const size_t close = paren_match_[i + 1];
      if (close == 0) continue;
      const char* how = DiscardForm(i, close);
      if (how != nullptr) ReportDiscard(tokens_[i].line, tokens_[i].text, how);
    }
  }

  void UncheckedWritePass() {
    if (!rules_.persistence) return;
    // C stdio calls whose return value reports the write/flush/close
    // failure; discarding it loses the only error signal.
    static const std::set<std::string> kWriteFns = {
        "fwrite", "fprintf", "vfprintf", "fputs",
        "fputc",  "putc",    "fflush",   "fclose"};
    const size_t n = tokens_.size();
    for (size_t i = 0; i < n; ++i) {
      if (!IsIdent(i) || !IsPunct(i + 1, "(")) continue;
      if (kWriteFns.count(tokens_[i].text) == 0) continue;
      const size_t close = paren_match_[i + 1];
      if (close == 0) continue;
      // stderr writes are best-effort diagnostics, not durable state.
      bool to_stderr = false;
      for (size_t k = i + 2; k < close; ++k) {
        if (IsIdent(k, "stderr")) {
          to_stderr = true;
          break;
        }
      }
      if (to_stderr) continue;
      const char* how = DiscardForm(i, close);
      if (how != nullptr) {
        Report(tokens_[i].line, "unchecked-write",
               "result of `" + tokens_[i].text + "()` discarded via " + how +
                   " on a persistence path — a full disk or dead "
                   "descriptor fails silently and truncates durable state");
      }
    }
    // ofstream declared and written but never state-checked anywhere in
    // the file: no `!stream` test and no good()/fail()/bad()/rdstate().
    for (size_t i = 0; i + 1 < n; ++i) {
      if (!IsIdent(i, "ofstream") || !IsIdent(i + 1)) continue;
      const std::string& name = tokens_[i + 1].text;
      bool checked = false;
      for (size_t k = 0; k + 1 < n && !checked; ++k) {
        if (IsPunct(k, "!") && IsIdent(k + 1, name.c_str())) checked = true;
        if (IsIdent(k, name.c_str()) && IsPunct(k + 1, ".") &&
            (IsIdent(k + 2, "good") || IsIdent(k + 2, "fail") ||
             IsIdent(k + 2, "bad") || IsIdent(k + 2, "rdstate"))) {
          checked = true;
        }
      }
      if (!checked) {
        Report(tokens_[i + 1].line, "unchecked-write",
               "ofstream `" + name +
                   "` on a persistence path is written but its state is "
                   "never checked — test good()/fail() (or `!" + name +
                   "`) after writing so short writes are not dropped");
      }
    }
  }

  // ---- enum casts on decode paths -------------------------------------------

  /// Identifiers of the expression in tokens (open, close), skipping
  /// called names and the type arguments of nested casts.
  std::set<std::string> OperandNames(size_t open, size_t close) const {
    std::set<std::string> names;
    for (size_t k = open + 1; k < close; ++k) {
      if (!IsIdent(k)) continue;
      if (IsPunct(k + 1, "<")) {
        k = SkipTemplateArgs(tokens_, k + 1) - 1;
        continue;
      }
      if (IsPunct(k + 1, "(")) continue;
      names.insert(tokens_[k].text);
    }
    return names;
  }

  /// True when a relational comparison in tokens [begin, end] has one of
  /// `operands` right beside it: as its left operand's last identifier
  /// (`x.type >`), inside a parenthesized left operand (`f(x) >`), or as
  /// its right operand's last identifier (`< x.type`).
  bool RangeChecked(size_t begin, size_t end,
                    const std::set<std::string>& operands) const {
    for (size_t k = begin + 1; k < end; ++k) {
      if (!IsPunct(k, "<") && !IsPunct(k, ">") && !IsPunct(k, "<=") &&
          !IsPunct(k, ">=")) {
        continue;
      }
      if (IsIdent(k - 1) && operands.count(tokens_[k - 1].text) != 0) {
        return true;
      }
      if (IsPunct(k - 1, ")") && paren_match_[k - 1] != 0) {
        for (const std::string& name :
             OperandNames(paren_match_[k - 1], k - 1)) {
          if (operands.count(name) != 0) return true;
        }
      }
      size_t right = k + 1;
      while (IsIdent(right) &&
             (IsPunct(right + 1, ".") || IsPunct(right + 1, "->") ||
              IsPunct(right + 1, "::"))) {
        right += 2;
      }
      if (IsIdent(right) && operands.count(tokens_[right].text) != 0) {
        return true;
      }
    }
    return false;
  }

  /// unvalidated-enum-cast: `static_cast<E>(expr)` with E a declared enum,
  /// on a serve/ or store/ path, in a function that never compares any
  /// identifier of `expr` with a bound.
  void EnumCastPass() {
    if (!rules_.decoder) return;
    const size_t n = tokens_.size();
    for (size_t i = 0; i + 1 < n; ++i) {
      if (!IsIdent(i, "static_cast") || !IsPunct(i + 1, "<")) continue;
      const size_t open = SkipTemplateArgs(tokens_, i + 1);
      if (!IsPunct(open, "(") || !IsIdent(open - 2)) continue;
      const std::string& target = tokens_[open - 2].text;
      if (enums_.count(target) == 0) continue;
      const size_t close = paren_match_[open];
      if (close <= open) continue;
      size_t begin = 0;
      size_t end = n;
      for (const auto& [body_open, body_close] : function_bodies_) {
        if (body_open < i && i < body_close &&
            body_close - body_open < end - begin) {
          begin = body_open;
          end = body_close;
        }
      }
      const std::set<std::string> operands = OperandNames(open, close);
      if (operands.empty() || RangeChecked(begin, end, operands)) continue;
      Report(tokens_[i].line, "unvalidated-enum-cast",
             "static_cast<" + target +
                 "> of an integer that this function never range-checks — "
                 "a wire or disk value past the last enumerator reaches "
                 "code that assumes a valid " + target +
                 "; compare it with the enum's bounds first");
    }
  }

  void ReportDiscard(int line, const std::string& name,
                     const std::string& how) {
    Report(line, "ignored-status",
           "result of Status/Result-returning `" + name +
               "()` discarded via " + how +
               " — handle it (DBTUNE_RETURN_IF_ERROR, .ok(), or store it); "
               "discarding errors silently corrupts trajectories");
  }

  // ---- members -------------------------------------------------------------

  struct ParenFrame {
    size_t open = 0;
    std::string callee;
    bool loop_header = false;
    bool parallel_call = false;
    bool lambda_params = false;
  };

  const FileScan& scan_;
  const std::vector<Token>& tokens_;
  const Decls& decls_;
  const std::set<std::string>& guarded_;
  const std::set<std::string>& status_fns_;
  const std::set<std::string>& enums_;
  PathRules rules_;
  std::string display_path_;
  std::vector<Diagnostic>* out_;

  std::vector<size_t> paren_match_;
  std::vector<Scope> scopes_;
  std::vector<ParenFrame> parens_;
  std::set<size_t> skip_;  // declaration tokens exempt from ident checks
  /// (open, close) brace indices of every function body, in close order.
  std::vector<std::pair<size_t, size_t>> function_bodies_;

  bool pending_loop_keyword_ = false;
  bool loop_body_pending_ = false;
  bool pending_unordered_ = false;
  int open_loop_headers_ = 0;
  int parallel_call_depth_ = 0;

  bool lambda_pending_ = false;
  bool lambda_params_seen_ = false;
  int lambda_param_depth_ = 0;
  bool pending_ref_default_ = false;
  std::set<std::string> pending_ref_caps_;
  std::set<std::string> pending_lambda_locals_;

  size_t last_rparen_index_ = static_cast<size_t>(-1);
  std::string last_rparen_callee_;
};

// ---------------------------------------------------------------------------
// Include-guard / directive checks
// ---------------------------------------------------------------------------

std::string ExpectedGuard(const std::string& relpath,
                          const std::string& prefix) {
  std::string guard = "DBTUNE_" + prefix;
  for (char c : relpath) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      guard.push_back(
          static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    } else {
      guard.push_back('_');
    }
  }
  guard.push_back('_');
  return guard;
}

/// First identifier after `directive` in a directive's text, or "".
std::string DirectiveArg(const std::string& text,
                         const std::string& directive) {
  size_t pos = text.find(directive);
  if (pos == std::string::npos) return "";
  pos += directive.size();
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
    ++pos;
  }
  size_t end = pos;
  while (end < text.size() && IsIdentChar(text[end])) ++end;
  return text.substr(pos, end - pos);
}

bool AllowedAt(const FileScan& scan, int line, const std::string& check) {
  if (scan.file_allows.count(check) != 0) return true;
  const auto it = scan.line_allows.find(line);
  return it != scan.line_allows.end() && it->second.count(check) != 0;
}

void CheckDirectives(const FileScan& scan, const std::string& display_path,
                     const std::string& relpath,
                     const std::string& guard_prefix, bool iostream_allowed,
                     std::vector<Diagnostic>* out) {
  const CheckInfo* iostream_info = FindCheck("iostream");
  const CheckInfo* guard_info = FindCheck("include-guard");

  const bool is_header = EndsWith(relpath, ".h");
  const std::string expected = ExpectedGuard(relpath, "");
  const std::string expected_prefixed =
      guard_prefix.empty() ? expected : ExpectedGuard(relpath, guard_prefix);

  bool saw_ifndef = false;
  bool guard_checked = false;
  int ifndef_line = 0;
  std::string ifndef_token;

  for (const Directive& directive : scan.directives) {
    std::string trimmed = directive.text;
    const size_t first = trimmed.find_first_not_of(" \t");
    trimmed = first == std::string::npos ? std::string() : trimmed.substr(first);

    if (!iostream_allowed &&
        trimmed.find("<iostream>") != std::string::npos &&
        !AllowedAt(scan, directive.line, "iostream")) {
      out->push_back(Diagnostic{
          display_path, directive.line, "iostream", iostream_info->severity,
          "<iostream> drags static iostream initializers into library code "
          "— use util/logging instead",
          iostream_info->fix_hint, false});
    }
    if (!is_header) continue;
    if (!saw_ifndef && StartsWith(trimmed, "ifndef")) {
      saw_ifndef = true;
      ifndef_token = DirectiveArg(trimmed, "ifndef");
      ifndef_line = directive.line;
    } else if (saw_ifndef && !guard_checked && StartsWith(trimmed, "define")) {
      guard_checked = true;
      const std::string define_token = DirectiveArg(trimmed, "define");
      const bool matches =
          (ifndef_token == expected && define_token == expected) ||
          (ifndef_token == expected_prefixed &&
           define_token == expected_prefixed);
      if (!matches && !AllowedAt(scan, ifndef_line, "include-guard") &&
          !AllowedAt(scan, directive.line, "include-guard")) {
        out->push_back(Diagnostic{
            display_path, ifndef_line, "include-guard", guard_info->severity,
            "include guard must be " + expected + " (found #ifndef " +
                ifndef_token + " / #define " + define_token + ")",
            guard_info->fix_hint, false});
      }
    }
  }
  if (is_header && !guard_checked &&
      !AllowedAt(scan, saw_ifndef ? ifndef_line : 1, "include-guard")) {
    out->push_back(Diagnostic{display_path, saw_ifndef ? ifndef_line : 1,
                              "include-guard", guard_info->severity,
                              "missing include guard " + expected,
                              guard_info->fix_hint, false});
  }
}

// ---------------------------------------------------------------------------
// Per-file driver
// ---------------------------------------------------------------------------

PathRules RulesFor(const std::string& relpath) {
  PathRules rules;
  rules.random = !StartsWith(relpath, "util/random");
  rules.timing =
      !StartsWith(relpath, "obs/") && !EndsWith(relpath, "bench_util.h");
  rules.env_read = relpath != "util/env_config.cc";
  // Optimizers and the transfer frameworks (RGPE, workload mapping) score
  // candidate pools and build GP surrogates.
  rules.model_user = StartsWith(relpath, "optimizer/") ||
                     StartsWith(relpath, "transfer/");
  rules.metrics_export = !StartsWith(relpath, "obs/");
  // Files whose writes ARE the durable state: the observation store's
  // WAL/snapshots, the obs trace/log/metrics files, dataset I/O, and the
  // CLIs that emit report/analysis artifacts.
  rules.persistence = StartsWith(relpath, "store/") ||
                      StartsWith(relpath, "obs/") ||
                      StartsWith(relpath, "benchmk/") ||
                      relpath.find("dbtune_report") != std::string::npos ||
                      relpath.find("dbtune_analyze") != std::string::npos;
  // The serving layer's scheduler path must never block: every session
  // shares the batch loop.
  rules.scheduler = StartsWith(relpath, "serve/");
  // The protocol decoders and the store's log readers turn wire and disk
  // integers into enums.
  rules.decoder =
      StartsWith(relpath, "serve/") || StartsWith(relpath, "store/");
  return rules;
}

std::vector<Diagnostic> AnalyzeScanned(
    const FileScan& scan, const Decls& decls,
    const std::set<std::string>& guarded,
    const std::set<std::string>& status_fns,
    const std::set<std::string>& enums, const std::string& display_path,
    const std::string& relpath, const std::string& guard_prefix) {
  std::vector<Diagnostic> out;
  CheckDirectives(scan, display_path, relpath, guard_prefix,
                  StartsWith(relpath, "util/logging"), &out);
  Analyzer analyzer(scan, decls, guarded, status_fns, enums,
                    RulesFor(relpath), display_path, &out);
  analyzer.Run();
  std::stable_sort(out.begin(), out.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return a.line < b.line;
                   });
  return out;
}

bool ReadFileText(const std::string& path, std::string* text) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *text = buffer.str();
  return true;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
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

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

const std::vector<CheckInfo>& Checks() { return Registry(); }

std::vector<Diagnostic> AnalyzeSource(const std::string& display_path,
                                      const std::string& relpath,
                                      const std::string& content,
                                      const std::string& guard_prefix) {
  const FileScan scan = Scan(content);
  const Decls decls = CollectDecls(scan);
  return AnalyzeScanned(scan, decls, decls.guarded, decls.status_fns,
                        decls.enums, display_path, relpath, guard_prefix);
}

std::vector<Diagnostic> AnalyzeFile(const std::string& path,
                                    const std::string& relpath,
                                    const std::string& guard_prefix) {
  std::string text;
  if (!ReadFileText(path, &text)) {
    const CheckInfo* info = FindCheck("io");
    return {Diagnostic{path, 0, "io", info->severity, "cannot open file",
                       info->fix_hint, false}};
  }
  return AnalyzeSource(path, relpath, text, guard_prefix);
}

TreeReport AnalyzeTree(const std::string& root) {
  namespace fs = std::filesystem;
  TreeReport report;

  std::vector<std::pair<std::string, std::string>> files;  // path, relpath
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    const fs::directory_entry& entry = *it;
    if (entry.is_directory()) {
      const std::string name = entry.path().filename().string();
      if (name == "lint_fixtures" || name == "build" ||
          (!name.empty() && name[0] == '.')) {
        it.disable_recursion_pending();
      }
      continue;
    }
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    files.emplace_back(
        entry.path().string(),
        fs::relative(entry.path(), fs::path(root)).generic_string());
  }
  std::sort(files.begin(), files.end());

  const std::string root_base = fs::path(root).filename().string().empty()
                                    ? fs::path(root).parent_path().filename().string()
                                    : fs::path(root).filename().string();
  std::string guard_prefix;
  for (char c : root_base) {
    guard_prefix.push_back(
        static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
  }
  guard_prefix.push_back('_');

  // Phase 1: tokenize and collect declarations, building the tree-wide
  // Status/Result and enum indexes and per-stem GUARDED_BY sets (a
  // header's guarded members also apply to its sibling .cc).
  struct FileState {
    FileScan scan;
    Decls decls;
    bool readable = true;
  };
  std::vector<FileState> states(files.size());
  std::set<std::string> status_index;
  std::set<std::string> nonstatus_index;
  std::set<std::string> enum_index;
  std::map<std::string, std::set<std::string>> guarded_by_stem;
  for (size_t f = 0; f < files.size(); ++f) {
    std::string text;
    if (!ReadFileText(files[f].first, &text)) {
      states[f].readable = false;
      continue;
    }
    states[f].scan = Scan(text);
    states[f].decls = CollectDecls(states[f].scan);
    status_index.insert(states[f].decls.status_fns.begin(),
                        states[f].decls.status_fns.end());
    nonstatus_index.insert(states[f].decls.nonstatus_fns.begin(),
                           states[f].decls.nonstatus_fns.end());
    enum_index.insert(states[f].decls.enums.begin(),
                      states[f].decls.enums.end());
    const std::string stem =
        files[f].second.substr(0, files[f].second.rfind('.'));
    guarded_by_stem[stem].insert(states[f].decls.guarded.begin(),
                                 states[f].decls.guarded.end());
  }

  // Phase 2: run the checks with the merged context.
  const CheckInfo* io_info = FindCheck("io");
  for (size_t f = 0; f < files.size(); ++f) {
    const std::string display = root_base + "/" + files[f].second;
    if (!states[f].readable) {
      report.diagnostics.push_back(Diagnostic{display, 0, "io",
                                              io_info->severity,
                                              "cannot open file",
                                              io_info->fix_hint, false});
      continue;
    }
    ++report.files_analyzed;
    const std::string stem =
        files[f].second.substr(0, files[f].second.rfind('.'));
    // A name declared with a non-Status return type anywhere in the tree
    // is ambiguous — the token pipeline cannot resolve which overload a
    // call binds to — so it stays in this file's index only when the
    // file itself declares the Status-returning form (e.g. the serving
    // layer's `Status Observe(...)` must not flag the optimizer
    // hierarchy's `void Observe(...)` call sites tree-wide).
    std::set<std::string> file_status = status_index;
    for (const std::string& name : nonstatus_index) {
      if (states[f].decls.status_fns.count(name) == 0) {
        file_status.erase(name);
      }
    }
    const std::vector<Diagnostic> file_diags = AnalyzeScanned(
        states[f].scan, states[f].decls, guarded_by_stem[stem], file_status,
        enum_index, display, files[f].second, guard_prefix);
    report.diagnostics.insert(report.diagnostics.end(), file_diags.begin(),
                              file_diags.end());
  }
  return report;
}

std::vector<BaselineEntry> ParseBaselineText(const std::string& text) {
  std::vector<BaselineEntry> entries;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    const size_t comment = line.find('#');
    if (comment != std::string::npos) line = line.substr(0, comment);
    std::istringstream fields(line);
    std::string location, check;
    if (!(fields >> location >> check)) continue;
    BaselineEntry entry;
    entry.check = check;
    const size_t colon = location.rfind(':');
    bool numeric_line = false;
    if (colon != std::string::npos && colon + 1 < location.size()) {
      numeric_line = true;
      for (size_t k = colon + 1; k < location.size(); ++k) {
        if (std::isdigit(static_cast<unsigned char>(location[k])) == 0) {
          numeric_line = false;
          break;
        }
      }
    }
    if (numeric_line) {
      entry.path = location.substr(0, colon);
      entry.line = std::atoi(location.c_str() + colon + 1);
    } else {
      entry.path = location;
      entry.line = 0;
    }
    entries.push_back(entry);
  }
  return entries;
}

bool LoadBaselineFile(const std::string& path,
                      std::vector<BaselineEntry>* entries) {
  std::string text;
  if (!ReadFileText(path, &text)) return false;
  *entries = ParseBaselineText(text);
  return true;
}

size_t ApplyBaseline(const std::vector<BaselineEntry>& baseline,
                     std::vector<Diagnostic>* diagnostics) {
  size_t matched = 0;
  for (Diagnostic& diagnostic : *diagnostics) {
    for (const BaselineEntry& entry : baseline) {
      if (entry.check != diagnostic.check) continue;
      if (entry.path != diagnostic.path) continue;
      if (entry.line != 0 && entry.line != diagnostic.line) continue;
      diagnostic.baselined = true;
      ++matched;
      break;
    }
  }
  return matched;
}

std::string FormatDiagnostic(const Diagnostic& diagnostic) {
  std::ostringstream out;
  out << diagnostic.path << ":" << diagnostic.line << ": "
      << diagnostic.severity << ": [" << diagnostic.check << "] "
      << diagnostic.message;
  return out.str();
}

std::string ReportJson(const std::vector<Diagnostic>& diagnostics,
                       size_t files_analyzed) {
  std::ostringstream out;
  size_t baselined = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.baselined) ++baselined;
  }
  out << "{\"version\":1,\"tool\":\"dbtune_analyze\",\"checks\":[";
  bool first = true;
  for (const CheckInfo& check : Registry()) {
    if (!first) out << ",";
    first = false;
    out << "{\"id\":\"" << JsonEscape(check.id) << "\",\"severity\":\""
        << JsonEscape(check.severity) << "\",\"summary\":\""
        << JsonEscape(check.summary) << "\"}";
  }
  out << "],\"summary\":{\"files\":" << files_analyzed
      << ",\"findings\":" << diagnostics.size()
      << ",\"baselined\":" << baselined
      << ",\"new\":" << diagnostics.size() - baselined << "},\"findings\":[";
  first = true;
  for (const Diagnostic& d : diagnostics) {
    if (!first) out << ",";
    first = false;
    out << "{\"path\":\"" << JsonEscape(d.path) << "\",\"line\":" << d.line
        << ",\"check\":\"" << JsonEscape(d.check) << "\",\"severity\":\""
        << JsonEscape(d.severity) << "\",\"message\":\""
        << JsonEscape(d.message) << "\",\"fix_hint\":\""
        << JsonEscape(d.fix_hint) << "\",\"baselined\":"
        << (d.baselined ? "true" : "false") << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace dbtune_analyze
