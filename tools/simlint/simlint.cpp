#include "simlint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <tuple>
#include <unordered_set>

namespace simlint {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Stable IDs.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(std::string_view s, std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return std::string(s.substr(b, e - b));
}

std::uint64_t finding_id(std::string_view rule, std::string_view file,
                         std::string_view line_text) {
  std::uint64_t h = fnv1a(rule);
  h = fnv1a("\x1f", h);
  h = fnv1a(file, h);
  h = fnv1a("\x1f", h);
  h = fnv1a(trim(line_text), h);
  return h;
}

// ---------------------------------------------------------------------------
// The layer DAG.
//
// Core layers are ranked; a file may include its own layer and any layer of
// strictly lower rank. obs/fault/check are cross-cutting: includable from
// every layer, and themselves restricted to the seam vocabulary (util,
// model, dram) plus each other. The one declared sibling edge is
// sys -> cache (sys::MemorySystem composes the cache hierarchy). Anything
// else — attacks -> genomics, graph -> exec — must carry an inline
// SIMLINT-ALLOW(layering) justification at the include site. Keep this
// table in sync with docs/static-analysis.md.
// ---------------------------------------------------------------------------

const std::map<std::string, int>& layer_ranks() {
  static const std::map<std::string, int> kRanks = {
      {"util", 0},  {"model", 1},   {"dram", 2},     {"cache", 3},
      {"sys", 3},   {"pim", 4},     {"channel", 5},  {"attacks", 6},
      {"defense", 6}, {"genomics", 6}, {"graph", 7},  {"exec", 8},
      {"store", 9},  {"lab", 10},
  };
  return kRanks;
}

bool is_cross_cutting(const std::string& layer) {
  return layer == "obs" || layer == "fault" || layer == "check";
}

bool layer_edge_allowed(const std::string& from, const std::string& to) {
  if (from == to) return true;
  if (is_cross_cutting(to)) return true;
  if (is_cross_cutting(from)) {
    return to == "util" || to == "model" || to == "dram";
  }
  if (from == "sys" && to == "cache") return true;  // Declared sibling edge.
  const auto& ranks = layer_ranks();
  const auto f = ranks.find(from);
  const auto t = ranks.find(to);
  if (f == ranks.end() || t == ranks.end()) return false;
  return t->second < f->second;
}

bool known_layer(const std::string& layer) {
  return is_cross_cutting(layer) || layer_ranks().count(layer) > 0;
}

// ---------------------------------------------------------------------------
// Tokenizer. Comments and preprocessor lines are consumed out of band:
// comments feed the SIMLINT directives, '#include "..."' feeds the include
// graph, and every other preprocessor line is skipped wholesale so macro
// bodies cannot confuse the scope tracker.
// ---------------------------------------------------------------------------

enum class TokKind { kIdent, kNumber, kString, kChar, kPunct };

struct Tok {
  TokKind kind;
  std::string text;
  int line;
};

struct IncludeDirective {
  std::string target;  ///< The quoted path, verbatim.
  int line;
};

struct HotRegion {
  int begin;  ///< First hot line (the line after SIMLINT-HOT-BEGIN).
  int end;    ///< Last hot line (the line before SIMLINT-HOT-END).
};

struct FileScan {
  std::string rel;                 ///< Path relative to its scan root.
  std::string layer;               ///< First path component, "" if none.
  std::vector<std::string> lines;  ///< 0-based raw source lines.
  std::vector<Tok> toks;
  std::vector<IncludeDirective> includes;
  /// line -> rules allowed there ("*" allows everything).
  std::map<int, std::vector<std::string>> allows;
  std::vector<HotRegion> hot;

  [[nodiscard]] std::string line_text(int line) const {
    if (line < 1 || line > static_cast<int>(lines.size())) return "";
    return lines[static_cast<std::size_t>(line) - 1];
  }

  [[nodiscard]] bool in_hot(int line) const {
    for (const auto& r : hot) {
      if (line >= r.begin && line <= r.end) return true;
    }
    return false;
  }
};

void parse_comment_directives(FileScan& f, const std::string& text, int line) {
  const auto allow_pos = text.find("SIMLINT-ALLOW(");
  if (allow_pos != std::string::npos) {
    const auto open = text.find('(', allow_pos);
    const auto close = text.find(')', open);
    if (close != std::string::npos) {
      std::string inside = text.substr(open + 1, close - open - 1);
      std::stringstream ss(inside);
      std::string rule;
      while (std::getline(ss, rule, ',')) {
        rule = trim(rule);
        if (!rule.empty()) f.allows[line].push_back(rule);
      }
    }
  }
  if (text.find("SIMLINT-HOT-BEGIN") != std::string::npos) {
    f.hot.push_back(HotRegion{line + 1, std::numeric_limits<int>::max()});
  } else if (text.find("SIMLINT-HOT-END") != std::string::npos) {
    if (!f.hot.empty() && f.hot.back().end == std::numeric_limits<int>::max()) {
      f.hot.back().end = line - 1;
    }
  }
}

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

void lex(FileScan& f, const std::string& src) {
  const std::size_t n = src.size();
  std::size_t i = 0;
  int line = 1;
  bool at_line_start = true;
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Preprocessor directive: record includes, skip the rest of the
    // (possibly continued) line.
    if (c == '#' && at_line_start) {
      std::size_t j = i + 1;
      while (j < n && (src[j] == ' ' || src[j] == '\t')) ++j;
      std::size_t k = j;
      while (k < n && ident_char(src[k])) ++k;
      const std::string directive = src.substr(j, k - j);
      if (directive == "include") {
        while (k < n && (src[k] == ' ' || src[k] == '\t')) ++k;
        if (k < n && src[k] == '"') {
          const auto close = src.find('"', k + 1);
          if (close != std::string::npos) {
            f.includes.push_back(
                IncludeDirective{src.substr(k + 1, close - k - 1), line});
          }
        }
      }
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        if (src[i] == '\n') break;
        ++i;
      }
      continue;
    }
    at_line_start = false;
    // Comments.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const auto eol = src.find('\n', i);
      const std::size_t end = (eol == std::string::npos) ? n : eol;
      parse_comment_directives(f, src.substr(i, end - i), line);
      i = end;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const int start_line = line;
      std::size_t j = i + 2;
      while (j + 1 < n && !(src[j] == '*' && src[j + 1] == '/')) {
        if (src[j] == '\n') ++line;
        ++j;
      }
      const std::size_t end = (j + 1 < n) ? j + 2 : n;
      parse_comment_directives(f, src.substr(i, end - i), start_line);
      i = end;
      continue;
    }
    // Raw strings.
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      const auto open = src.find('(', i + 2);
      if (open != std::string::npos) {
        const std::string delim = ")" + src.substr(i + 2, open - i - 2) + "\"";
        const auto close = src.find(delim, open + 1);
        const std::size_t end =
            (close == std::string::npos) ? n : close + delim.size();
        for (std::size_t j = i; j < end; ++j) {
          if (src[j] == '\n') ++line;
        }
        f.toks.push_back(Tok{TokKind::kString, "R\"...\"", line});
        i = end;
        continue;
      }
    }
    // String / char literals.
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t j = i + 1;
      while (j < n && src[j] != quote) {
        if (src[j] == '\\' && j + 1 < n) ++j;
        if (src[j] == '\n') ++line;  // Unterminated; be forgiving.
        ++j;
      }
      f.toks.push_back(Tok{quote == '"' ? TokKind::kString : TokKind::kChar,
                           src.substr(i, j + 1 - i), line});
      i = (j < n) ? j + 1 : n;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && ident_char(src[j])) ++j;
      f.toks.push_back(Tok{TokKind::kIdent, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t j = i + 1;
      while (j < n && (ident_char(src[j]) || src[j] == '\'' ||
                       (src[j] == '.' && j + 1 < n &&
                        std::isdigit(static_cast<unsigned char>(src[j + 1])) !=
                            0) ||
                       ((src[j] == '+' || src[j] == '-') &&
                        (src[j - 1] == 'e' || src[j - 1] == 'E' ||
                         src[j - 1] == 'p' || src[j - 1] == 'P')))) {
        ++j;
      }
      f.toks.push_back(Tok{TokKind::kNumber, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Punctuation; fuse the few multi-char operators the rules care about.
    static const std::array<const char*, 7> kMulti = {"::", "->", "==", "!=",
                                                      "&&", "||", "..."};
    std::string punct(1, c);
    for (const char* m : kMulti) {
      const std::size_t len = std::strlen(m);
      if (src.compare(i, len, m) == 0) {
        punct = m;
        break;
      }
    }
    f.toks.push_back(Tok{TokKind::kPunct, punct, line});
    i += punct.size();
  }
  // An unterminated hot region extends to end of file.
  for (auto& r : f.hot) {
    if (r.end == std::numeric_limits<int>::max()) r.end = line;
  }
}

// ---------------------------------------------------------------------------
// Scope tracking: classifies every brace so the rules know whether a token
// sits at namespace scope, inside a class body, or inside a function.
// ---------------------------------------------------------------------------

enum class Ctx { kTop, kNamespace, kClass, kFunction, kInit };

struct ScopeWalker {
  std::vector<Ctx> stack{Ctx::kTop};
  /// Index into toks where the current statement began (last ; { } or
  /// access-specifier colon at this nesting level).
  std::size_t stmt_begin = 0;

  [[nodiscard]] Ctx current() const { return stack.back(); }
  [[nodiscard]] bool in_function() const {
    return std::find(stack.begin(), stack.end(), Ctx::kFunction) !=
           stack.end();
  }
  /// Token index of the innermost enclosing function body's '{' (meaningful
  /// only when in_function()).
  std::size_t function_begin = 0;
};

bool stmt_has_ident(const std::vector<Tok>& toks, std::size_t begin,
                    std::size_t end, std::string_view ident) {
  for (std::size_t i = begin; i < end; ++i) {
    if (toks[i].kind == TokKind::kIdent && toks[i].text == ident) return true;
  }
  return false;
}

Ctx classify_brace(const std::vector<Tok>& toks, std::size_t brace,
                   std::size_t stmt_begin, Ctx enclosing) {
  if (enclosing == Ctx::kFunction || enclosing == Ctx::kInit) {
    return enclosing;  // Everything nested in a body is body.
  }
  if (brace > stmt_begin) {
    const Tok& prev = toks[brace - 1];
    if (prev.kind == TokKind::kPunct &&
        (prev.text == "=" || prev.text == "," || prev.text == "(" ||
         prev.text == "{")) {
      return Ctx::kInit;
    }
  }
  if (stmt_has_ident(toks, stmt_begin, brace, "namespace")) {
    return Ctx::kNamespace;
  }
  bool has_eq = false;
  for (std::size_t i = stmt_begin; i < brace; ++i) {
    if (toks[i].kind == TokKind::kPunct && toks[i].text == "=") has_eq = true;
  }
  if (!has_eq && (stmt_has_ident(toks, stmt_begin, brace, "class") ||
                  stmt_has_ident(toks, stmt_begin, brace, "struct") ||
                  stmt_has_ident(toks, stmt_begin, brace, "union") ||
                  stmt_has_ident(toks, stmt_begin, brace, "enum"))) {
    return Ctx::kClass;
  }
  for (std::size_t i = stmt_begin; i < brace; ++i) {
    if (toks[i].kind == TokKind::kPunct && toks[i].text == "(") {
      return Ctx::kFunction;  // Parameter list seen: a definition body.
    }
  }
  if (has_eq) return Ctx::kInit;
  // `int x[3] { ... }`-style braced init, or a stray block.
  return Ctx::kInit;
}

// ---------------------------------------------------------------------------
// Rule engine.
// ---------------------------------------------------------------------------

struct Emitter {
  const FileScan& f;
  std::vector<Finding>& out;

  void emit(const char* rule, int line, std::string message) {
    // Inline suppression: SIMLINT-ALLOW on the same line or the line above.
    for (int l = line - 1; l <= line; ++l) {
      const auto it = f.allows.find(l);
      if (it == f.allows.end()) continue;
      for (const auto& r : it->second) {
        if (r == "*" || r == rule) return;
      }
    }
    Finding finding;
    finding.rule = rule;
    finding.file = f.rel;
    finding.line = line;
    finding.message = std::move(message);
    finding.id = finding_id(finding.rule, finding.file, f.line_text(line));
    out.push_back(std::move(finding));
  }
};

bool is_seam_name(const std::string& name) {
  std::string base = name;
  while (!base.empty() && base.back() == '_') base.pop_back();
  static const std::unordered_set<std::string> kSeams = {
      "observer", "observers", "fault", "faults", "injector",
      "tap",      "checker",   "hook",  "hooks"};
  return kSeams.count(base) > 0;
}

/// True when toks[i] (a seam identifier) appears in a null-guard position:
/// compared against nullptr, used as a boolean (if (p), !p, p && ..., p ?),
/// or checked via assert-like call.
bool is_guard_use(const std::vector<Tok>& toks, std::size_t i) {
  const bool has_next = i + 1 < toks.size();
  if (has_next && toks[i + 1].kind == TokKind::kPunct) {
    const std::string& nx = toks[i + 1].text;
    if (nx == "==" || nx == "!=" || nx == "&&" || nx == "||" || nx == "?" ||
        nx == ")") {
      return true;
    }
  }
  if (i > 0 && toks[i - 1].kind == TokKind::kPunct && toks[i - 1].text == "!") {
    return true;
  }
  return false;
}

const std::unordered_set<std::string>& rng_engine_names() {
  static const std::unordered_set<std::string> kEngines = {
      "mt19937",      "mt19937_64",       "minstd_rand",
      "minstd_rand0", "default_random_engine", "Xoshiro256"};
  return kEngines;
}

/// Walks the ctor argument tokens of an RNG construction and decides whether
/// the seed expression is acceptable: it must reference exec::derive_seed or
/// at least one non-qualifier identifier (a parameter, member, or local that
/// the surrounding code seeded deterministically). Literal-only expressions
/// — `mt19937{42}`, `Xoshiro256 rng(3)` — are exactly the schedule-frozen
/// seeds the determinism contract bans outside derive_seed.
bool seed_expr_ok(const std::vector<Tok>& toks, std::size_t open,
                  std::size_t close) {
  bool has_ident = false;
  for (std::size_t i = open + 1; i < close; ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    if (toks[i].text == "derive_seed") return true;
    // Skip pure namespace/type qualifiers: `exec::`, `std::uint64_t(...)`.
    if (i + 1 < close && toks[i + 1].kind == TokKind::kPunct &&
        toks[i + 1].text == "::") {
      continue;
    }
    static const std::unordered_set<std::string> kCasts = {
        "static_cast", "uint64_t", "uint32_t", "size_t", "int64_t",
        "int32_t",     "unsigned", "int",      "long",   "auto"};
    if (kCasts.count(toks[i].text) > 0) continue;
    has_ident = true;
  }
  return has_ident;
}

std::size_t matching_close(const std::vector<Tok>& toks, std::size_t open) {
  const std::string& o = toks[open].text;
  const std::string c = (o == "(") ? ")" : "}";
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == o) ++depth;
    if (toks[i].text == c && --depth == 0) return i;
  }
  return toks.size() - 1;
}

/// Namespace-scope or static-member declaration statements: flags mutable
/// state. `stmt` excludes nested braced bodies (the walker clears them).
void check_state_stmt(Emitter& em, const std::vector<Tok>& toks,
                      std::size_t begin, std::size_t end, Ctx ctx) {
  if (end <= begin + 1) return;
  static const std::unordered_set<std::string> kSkip = {
      "using",  "typedef",  "namespace", "template", "friend",
      "extern", "operator", "class",     "struct",   "union",
      "enum",   "concept",  "requires",  "static_assert",
      "public", "private",  "protected", "goto",     "asm"};
  static const std::unordered_set<std::string> kImmutable = {
      "const", "constexpr", "constinit", "consteval"};
  bool is_static = false;
  for (std::size_t i = begin; i < end; ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    if (kSkip.count(toks[i].text) > 0) return;
    if (kImmutable.count(toks[i].text) > 0) return;
    if (toks[i].text == "static") is_static = true;
  }
  if (ctx == Ctx::kClass && !is_static) return;  // Instance members are fine.
  // A '(' before any '=' means a function declaration (or an all-caps macro
  // invocation like BENCHMARK(...)); after an '=' it is an initializer call.
  for (std::size_t i = begin; i < end; ++i) {
    if (toks[i].kind == TokKind::kPunct && toks[i].text == "=") break;
    if (toks[i].kind == TokKind::kPunct && toks[i].text == "(") return;
  }
  // Must actually declare something: last ident before ; / = / init.
  const Tok* name = nullptr;
  for (std::size_t i = begin; i < end; ++i) {
    if (toks[i].kind == TokKind::kIdent) name = &toks[i];
    if (toks[i].kind == TokKind::kPunct && toks[i].text == "=") break;
  }
  if (name == nullptr) return;
  em.emit(kRuleGlobalState, name->line,
          ctx == Ctx::kClass
              ? "mutable static data member '" + name->text +
                    "' — kernel state must live in instances or be const"
              : "mutable namespace-scope state '" + name->text +
                    "' — kernel state must be owned by instances (or be "
                    "constexpr)");
}

void run_token_rules(Emitter& em, const FileScan& f) {
  const std::vector<Tok>& toks = f.toks;
  ScopeWalker walker;
  const bool tls_allowed = f.layer == "obs";
  // The one place a host thread may legitimately block forever: the pool's
  // own worker loop (its shutdown path sets stop_ under the same mutex).
  // Everywhere else an untimed wait must justify what bounds it: a host
  // thread blocked forever hangs the whole experiment.
  const bool wait_allowlisted = f.rel == "exec/thread_pool.cpp";

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Tok& t = toks[i];

    // --- Scope bookkeeping. ---------------------------------------------
    if (t.kind == TokKind::kPunct) {
      if (t.text == "{") {
        const Ctx ctx =
            classify_brace(toks, i, walker.stmt_begin, walker.current());
        if ((ctx == Ctx::kNamespace || ctx == Ctx::kClass) &&
            (walker.current() == Ctx::kTop ||
             walker.current() == Ctx::kNamespace ||
             walker.current() == Ctx::kClass)) {
          // Entering a declaration scope: the heading is not state.
        } else if (ctx == Ctx::kFunction &&
                   !(walker.current() == Ctx::kFunction ||
                     walker.current() == Ctx::kInit)) {
          walker.function_begin = i;
        }
        walker.stack.push_back(ctx);
        walker.stmt_begin = i + 1;
        continue;
      }
      if (t.text == "}") {
        if (walker.stack.size() > 1) walker.stack.pop_back();
        walker.stmt_begin = i + 1;
        continue;
      }
      if (t.text == ";") {
        if (walker.current() == Ctx::kNamespace ||
            walker.current() == Ctx::kTop || walker.current() == Ctx::kClass) {
          check_state_stmt(em, toks, walker.stmt_begin, i, walker.current());
        }
        walker.stmt_begin = i + 1;
        continue;
      }
      if (t.text == ":" && walker.current() == Ctx::kClass) {
        // Access specifier (`public:`) — starts a fresh statement.
        if (i == walker.stmt_begin + 1 &&
            toks[walker.stmt_begin].kind == TokKind::kIdent) {
          static const std::unordered_set<std::string> kAccess = {
              "public", "private", "protected"};
          if (kAccess.count(toks[walker.stmt_begin].text) > 0) {
            walker.stmt_begin = i + 1;
          }
        }
        continue;
      }
      continue;
    }
    if (t.kind != TokKind::kIdent) continue;

    const bool qualified_member =
        i > 0 && toks[i - 1].kind == TokKind::kPunct &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->");
    const bool std_qualified =
        i >= 2 && toks[i - 1].kind == TokKind::kPunct &&
        toks[i - 1].text == "::" && toks[i - 2].kind == TokKind::kIdent &&
        toks[i - 2].text == "std";
    const bool scope_qualified = i > 0 && toks[i - 1].kind == TokKind::kPunct &&
                                 toks[i - 1].text == "::";
    const bool called = i + 1 < toks.size() &&
                        toks[i + 1].kind == TokKind::kPunct &&
                        toks[i + 1].text == "(";

    // --- Determinism. ----------------------------------------------------
    if (t.text == "random_device") {
      em.emit(kRuleNondetRandomDevice, t.line,
              "std::random_device is nondeterministic — seed via "
              "exec::derive_seed");
    } else if ((t.text == "rand" || t.text == "srand" || t.text == "rand_r" ||
                t.text == "drand48" || t.text == "srand48") &&
               called && !qualified_member &&
               (!scope_qualified || std_qualified)) {
      em.emit(kRuleNondetRand, t.line,
              "'" + t.text + "()' draws from hidden global state — use a "
              "seeded util::Xoshiro256");
    } else if ((t.text == "time" || t.text == "clock" ||
                t.text == "gettimeofday" || t.text == "clock_gettime" ||
                t.text == "localtime" || t.text == "gmtime" ||
                t.text == "mktime") &&
               called && !qualified_member &&
               (!scope_qualified || std_qualified)) {
      em.emit(kRuleNondetWallclock, t.line,
              "wall-clock call '" + t.text + "(' — simulated time must come "
              "from util::Cycle, never the host");
    } else if (t.text == "system_clock" || t.text == "steady_clock" ||
               t.text == "high_resolution_clock") {
      em.emit(kRuleNondetChronoClock, t.line,
              "std::chrono::" + t.text + " reads host time — kernel code "
              "must be schedule-independent");
    }

    // --- RNG seed provenance. -------------------------------------------
    if (rng_engine_names().count(t.text) > 0 && !qualified_member) {
      std::size_t j = i + 1;
      bool type_only = false;
      if (j < toks.size() && toks[j].kind == TokKind::kPunct &&
          (toks[j].text == ">" || toks[j].text == "," || toks[j].text == "&" ||
           toks[j].text == "*" || toks[j].text == ";" || toks[j].text == ")" ||
           toks[j].text == "::")) {
        type_only = true;  // Template arg, reference, member decl, etc.
      }
      if (!type_only && j < toks.size()) {
        std::size_t open = toks.size();
        if (toks[j].kind == TokKind::kPunct &&
            (toks[j].text == "(" || toks[j].text == "{")) {
          open = j;  // Temporary: mt19937{...}.
        } else if (toks[j].kind == TokKind::kIdent && j + 1 < toks.size() &&
                   toks[j + 1].kind == TokKind::kPunct &&
                   (toks[j + 1].text == "(" || toks[j + 1].text == "{")) {
          open = j + 1;  // Declaration: mt19937 rng(...).
        } else if (toks[j].kind == TokKind::kIdent && j + 1 < toks.size() &&
                   toks[j + 1].kind == TokKind::kPunct &&
                   toks[j + 1].text == ";" && walker.in_function() &&
                   t.text != "Xoshiro256") {
          em.emit(kRuleNondetSeed, t.line,
                  "default-seeded '" + t.text + "' — every RNG stream must "
                  "be seeded from exec::derive_seed or a parameter");
        }
        if (open < toks.size()) {
          const std::size_t close = matching_close(toks, open);
          // Skip constructor *declarations*: Xoshiro256(std::uint64_t seed).
          const bool decl_like =
              open == j && i > 0 && toks[i - 1].kind == TokKind::kIdent &&
              toks[i - 1].text == "explicit";
          if (!decl_like && !seed_expr_ok(toks, open, close)) {
            em.emit(kRuleNondetSeed, t.line,
                    "'" + t.text + "' seeded with a bare constant — derive "
                    "per-stream seeds via exec::derive_seed(base, index)");
          }
        }
      }
    }

    // --- Concurrency: host-side blocking must be bounded. ----------------
    // `x.wait(...)` / `t.join()` can stall a sweep forever on one wedged
    // cell. wait_for/wait_until are separate identifiers and pass freely;
    // a genuinely-bounded bare wait/join documents its bound with
    // SIMLINT-ALLOW(unbounded-wait) at the call site.
    if ((t.text == "wait" || t.text == "join") && qualified_member && called &&
        !wait_allowlisted) {
      em.emit(kRuleUnboundedWait, t.line,
              "'." + t.text + "(' blocks without a deadline — use a timed "
              "wait (wait_for/wait_until) or justify the bound with "
              "SIMLINT-ALLOW(unbounded-wait)");
    }

    // --- Concurrency: thread_local allowlist. ----------------------------
    if (t.text == "thread_local" && !tls_allowed) {
      em.emit(kRuleThreadLocal, t.line,
              "thread_local outside the obs:: allowlist — kernel state must "
              "be instance-owned for schedule independence");
    }

    // --- Seam hygiene: observer/injector hooks must be null-guarded. -----
    if (is_seam_name(t.text) && i + 1 < toks.size() &&
        toks[i + 1].kind == TokKind::kPunct && toks[i + 1].text == "->" &&
        !qualified_member && walker.in_function()) {
      bool guarded = false;
      for (std::size_t g = walker.function_begin; g < i; ++g) {
        if (toks[g].kind == TokKind::kIdent && toks[g].text == t.text &&
            is_guard_use(toks, g)) {
          guarded = true;
          break;
        }
      }
      if (!guarded) {
        em.emit(kRuleSeamUnguarded, t.line,
                "'" + t.text + "->' without a preceding null check in this "
                "function — observer/injector seams are optional by "
                "contract");
      }
    }

    // --- Hot-path hygiene. ----------------------------------------------
    if (f.in_hot(t.line)) {
      if ((t.text == "string" && std_qualified) || t.text == "to_string" ||
          t.text == "ostringstream" || t.text == "stringstream") {
        em.emit(kRuleHotString, t.line,
                "std::" + t.text + " in a SIMLINT-HOT region — hot paths "
                "must not allocate");
      } else if (t.text == "endl") {
        em.emit(kRuleHotEndl, t.line,
                "std::endl flushes in a SIMLINT-HOT region — use '\\n'");
      } else if ((t.text == "counter" || t.text == "gauge" ||
                  t.text == "distribution" || t.text == "find_attack" ||
                  t.text == "resolve" || t.text == "make_attack") &&
                 called && i + 2 < toks.size() &&
                 toks[i + 2].kind == TokKind::kString) {
        em.emit(kRuleHotResolve, t.line,
                "by-name registry resolve '" + t.text + "(\"...\")' in a "
                "SIMLINT-HOT region — resolve handles once at construction");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Include graph: layering + cycle detection.
// ---------------------------------------------------------------------------

std::string layer_of(const std::string& rel) {
  const auto slash = rel.find('/');
  if (slash == std::string::npos) return "";
  return rel.substr(0, slash);
}

std::string dirname_of(const std::string& rel) {
  const auto slash = rel.rfind('/');
  if (slash == std::string::npos) return "";
  return rel.substr(0, slash);
}

/// Resolves a quoted include to a scanned file's rel path: first as
/// root-relative (the project convention), then relative to the including
/// file's directory. Returns "" when the target is outside the scan set.
std::string resolve_include(const std::string& from_rel,
                            const std::string& target,
                            const std::unordered_set<std::string>& known) {
  if (known.count(target) > 0) return target;
  const std::string dir = dirname_of(from_rel);
  if (!dir.empty()) {
    const std::string local = dir + "/" + target;
    if (known.count(local) > 0) return local;
  }
  return "";
}

struct IncludeGraph {
  struct Edge {
    std::string to;
    int line;
  };
  std::map<std::string, std::vector<Edge>> adj;
};

void check_layering(const std::vector<FileScan>& files,
                    const IncludeGraph& graph, std::vector<Finding>& out) {
  std::map<std::string, const FileScan*> by_rel;
  for (const auto& f : files) by_rel[f.rel] = &f;
  for (const auto& [rel, edges] : graph.adj) {
    const FileScan& f = *by_rel.at(rel);
    const std::string from = f.layer;
    if (from.empty()) continue;  // Driver trees have no layers.
    Emitter em{f, out};
    for (const auto& e : edges) {
      const std::string to = layer_of(e.to);
      if (to.empty() || to == from) continue;
      if (!known_layer(from) || !known_layer(to)) {
        const std::string& unknown = known_layer(from) ? to : from;
        em.emit(kRuleLayering, e.line,
                "layer '" + unknown + "' is not registered in the layer DAG "
                "— add it to simlint and docs/static-analysis.md");
        continue;
      }
      if (!layer_edge_allowed(from, to)) {
        em.emit(kRuleLayering, e.line,
                "include crosses the layer DAG upward: '" + from + "' may "
                "not depend on '" + to + "'");
      }
    }
  }
}

/// Driver TUs — files directly under a scan root, hence layerless (the
/// apps/ tree) — must stay thin shims over the experiment registry: the
/// only project headers they may include are lab/ ones. Only quoted includes are recorded, so the standard library
/// passes untouched; any other project header means experiment logic is
/// growing back into a driver instead of src/lab/experiments/.
void check_driver_includes(const std::vector<FileScan>& files,
                           std::vector<Finding>& out) {
  for (const auto& f : files) {
    if (!f.layer.empty()) continue;
    Emitter em{f, out};
    for (const auto& inc : f.includes) {
      if (inc.target.rfind("lab/", 0) == 0) continue;
      em.emit(kRuleDriverInclude, inc.line,
              "driver TU includes '" + inc.target + "' — drivers are thin "
              "shims over the experiment registry; include only lab/ "
              "headers and move the logic into src/lab/experiments/");
    }
  }
}

void check_cycles(const std::vector<FileScan>& files, const IncludeGraph& graph,
                  std::vector<Finding>& out) {
  std::map<std::string, const FileScan*> by_rel;
  for (const auto& f : files) by_rel[f.rel] = &f;
  // Colors: 0 = white, 1 = on stack, 2 = done.
  std::map<std::string, int> color;
  std::vector<std::string> path;

  struct Frame {
    std::string node;
    std::size_t next_edge = 0;
  };

  for (const auto& [start, _] : graph.adj) {
    if (color[start] != 0) continue;
    std::vector<Frame> stack;
    stack.push_back(Frame{start});
    color[start] = 1;
    path.push_back(start);
    static const std::vector<IncludeGraph::Edge> kNoEdges;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto it = graph.adj.find(frame.node);
      const auto& edges = (it != graph.adj.end()) ? it->second : kNoEdges;
      if (frame.next_edge >= edges.size()) {
        color[frame.node] = 2;
        path.pop_back();
        stack.pop_back();
        continue;
      }
      const auto& edge = edges[frame.next_edge++];
      const int c = color[edge.to];
      if (c == 1) {
        // Back edge: report the cycle once, at this include site.
        std::string cycle;
        bool in_cycle = false;
        for (const auto& n : path) {
          if (n == edge.to) in_cycle = true;
          if (in_cycle) cycle += n + " -> ";
        }
        cycle += edge.to;
        Emitter em{*by_rel.at(frame.node), out};
        em.emit(kRuleIncludeCycle, edge.line, "include cycle: " + cycle);
      } else if (c == 0) {
        color[edge.to] = 1;
        path.push_back(edge.to);
        stack.push_back(Frame{edge.to});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

bool source_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" ||
         ext == ".hh" || ext == ".cxx";
}

bool rule_selected(const Options& options, const std::string& rule) {
  if (options.rules.empty()) return true;
  for (const auto& sel : options.rules) {
    if (sel == rule) return true;
    if (!sel.empty() && sel.back() == '*' &&
        rule.compare(0, sel.size() - 1, sel, 0, sel.size() - 1) == 0) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::string Finding::location() const {
  return file + ":" + std::to_string(line);
}

std::vector<Finding> analyze(const Options& options) {
  std::vector<FileScan> files;
  for (const auto& root : options.roots) {
    std::vector<fs::path> paths;
    if (fs::exists(root)) {
      for (const auto& entry : fs::recursive_directory_iterator(root)) {
        if (entry.is_regular_file() && source_extension(entry.path())) {
          paths.push_back(entry.path());
        }
      }
    }
    std::sort(paths.begin(), paths.end());
    for (const auto& p : paths) {
      FileScan f;
      f.rel = fs::relative(p, root).generic_string();
      f.layer = layer_of(f.rel);
      std::ifstream in(p, std::ios::binary);
      std::ostringstream ss;
      ss << in.rdbuf();
      const std::string src = ss.str();
      std::string line;
      std::istringstream ls(src);
      while (std::getline(ls, line)) f.lines.push_back(line);
      lex(f, src);
      files.push_back(std::move(f));
    }
  }

  std::unordered_set<std::string> known;
  for (const auto& f : files) known.insert(f.rel);
  IncludeGraph graph;
  for (const auto& f : files) {
    auto& edges = graph.adj[f.rel];
    for (const auto& inc : f.includes) {
      const std::string target = resolve_include(f.rel, inc.target, known);
      if (!target.empty()) edges.push_back({target, inc.line});
    }
  }

  std::vector<Finding> out;
  check_layering(files, graph, out);
  check_driver_includes(files, out);
  check_cycles(files, graph, out);
  for (const auto& f : files) {
    Emitter em{f, out};
    run_token_rules(em, f);
  }

  out.erase(std::remove_if(out.begin(), out.end(),
                           [&](const Finding& f) {
                             return !rule_selected(options, f.rule);
                           }),
            out.end());
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
  });
  return out;
}

std::set<std::uint64_t> load_baseline(const std::filesystem::path& path) {
  std::set<std::uint64_t> ids;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const std::string t = trim(line);
    if (t.empty() || t[0] == '#') continue;
    try {
      ids.insert(std::stoull(t.substr(0, t.find(' ')), nullptr, 16));
    } catch (const std::exception&) {
      // Malformed line: ignore (a stale hand-edit must not crash the gate).
    }
  }
  return ids;
}

void write_baseline(const std::filesystem::path& path,
                    const std::vector<Finding>& findings) {
  std::ofstream out(path);
  out << "# simlint baseline — grandfathered findings, one per line.\n"
      << "# Regenerate: simlint --root src --write-baseline "
         "tools/simlint/baseline.txt\n"
      << "# Only the leading 16-hex id is load-bearing.\n";
  for (const auto& f : findings) {
    char id[17];
    std::snprintf(id, sizeof id, "%016llx",
                  static_cast<unsigned long long>(f.id));
    out << id << " " << f.rule << " " << f.location() << "\n";
  }
}

std::vector<Finding> filter_baseline(std::vector<Finding> findings,
                                     const std::set<std::uint64_t>& baseline) {
  findings.erase(std::remove_if(findings.begin(), findings.end(),
                                [&](const Finding& f) {
                                  return baseline.count(f.id) > 0;
                                }),
                 findings.end());
  return findings;
}

namespace {
void json_escape(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}
}  // namespace

std::string to_json(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "[\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    char id[17];
    std::snprintf(id, sizeof id, "%016llx",
                  static_cast<unsigned long long>(f.id));
    out << "  {\"rule\": ";
    json_escape(out, f.rule);
    out << ", \"file\": ";
    json_escape(out, f.file);
    out << ", \"line\": " << f.line << ", \"id\": \"" << id
        << "\", \"message\": ";
    json_escape(out, f.message);
    out << "}" << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  out << "]\n";
  return out.str();
}

}  // namespace simlint
