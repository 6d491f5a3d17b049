#include "tdc_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace tdc::lint {

namespace {

// ------------------------------------------------------------- path scoping

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

/// Paths whose output must be bit-reproducible: any entropy or clock read
/// here can silently break the "identical stream for any --jobs" guarantee.
bool in_deterministic_path(const std::string& path) {
  return starts_with(path, "src/lzw/") || starts_with(path, "src/engine/") ||
         starts_with(path, "src/codec/") || starts_with(path, "src/bits/");
}

/// Paths where every thrown exception must come from the tdc::Error
/// taxonomy (core/error.h) so callers get typed, position-carrying errors.
bool in_taxonomy_path(const std::string& path) {
  return in_deterministic_path(path) || starts_with(path, "src/hw/") ||
         starts_with(path, "src/core/");
}

bool in_library_path(const std::string& path) { return starts_with(path, "src/"); }

bool is_header(const std::string& path) {
  return path.size() >= 2 && (path.rfind(".h") == path.size() - 2 ||
                              (path.size() >= 4 && path.rfind(".hpp") == path.size() - 4));
}

// ------------------------------------------------- scrubbing + suppressions

/// One allow(rule) suppression, tracked for the stale-suppression audit:
/// report() marks the record used when it actually swallows a finding, and
/// whatever is still unused at the end of the file is itself a violation.
/// (The tag is spelled out only inside harvest_allows — writing it in a
/// comment here would register a suppression in this very file.)
struct AllowRecord {
  std::string rule;
  int origin_line = 0;  ///< 1-based line the comment sits on
  bool used = false;
};

/// Comment- and literal-stripped copy of the source plus the suppression
/// map and `tdc-sync:` coverage harvested from the comments while stripping.
struct Scrubbed {
  std::vector<std::string> lines;  ///< literals/comments blanked, 0-based
  /// Every allow() parsed from the comments, in source order.
  std::vector<AllowRecord> allows;
  /// 1-based line -> rule id -> index into `allows` (an allow comment
  /// covers its own line and the next one).
  std::map<int, std::map<std::string, std::size_t>> allowed;
  /// 1-based lines carrying a `tdc-sync:` justification comment (the
  /// memory-order-audit declaration check walks up through comment-only
  /// lines to find one).
  std::set<int> sync_lines;
};

/// Parses occurrences of the suppression tag (the `tag` literal below,
/// followed by a comma-separated rule list and a closing paren) inside one
/// comment's text and registers them for `line` and `line + 1`; also
/// records `tdc-sync:` tags for the memory-order-audit rule.
void harvest_allows(const std::string& comment, int line, Scrubbed& out) {
  if (comment.find("tdc-sync:") != std::string::npos) {
    out.sync_lines.insert(line);
  }
  const std::string tag = "tdc-lint: allow(";
  std::size_t at = 0;
  while ((at = comment.find(tag, at)) != std::string::npos) {
    const std::size_t open = at + tag.size();
    const std::size_t close = comment.find(')', open);
    if (close == std::string::npos) break;
    std::string inside = comment.substr(open, close - open);
    std::string rule;
    std::istringstream list(inside);
    while (std::getline(list, rule, ',')) {
      const auto b = rule.find_first_not_of(" \t");
      const auto e = rule.find_last_not_of(" \t");
      if (b == std::string::npos) continue;
      const std::string id = rule.substr(b, e - b + 1);
      out.allows.push_back({id, line, false});
      const std::size_t idx = out.allows.size() - 1;
      out.allowed[line].emplace(id, idx);
      out.allowed[line + 1].emplace(id, idx);
    }
    at = close;
  }
}

/// True when `line` (1-based) is covered by a tdc-sync comment: the tag on
/// the line itself or separated from it only by comment/blank lines above.
bool sync_covered(const Scrubbed& sc, int line) {
  for (int m = line; m >= 1; --m) {
    if (sc.sync_lines.count(m) != 0) return true;
    if (m != line) {
      const std::string& s = sc.lines[static_cast<std::size_t>(m) - 1];
      if (s.find_first_not_of(" \t") != std::string::npos) return false;
    }
  }
  return false;
}

/// One-pass state machine producing the scrubbed lines. Handles //, /*...*/,
/// "...", '...' and raw string literals R"tag(...)tag". Blanked characters
/// become spaces so columns and line counts are preserved.
Scrubbed scrub(const std::string& content) {
  Scrubbed out;
  enum class State { Normal, Line, Block, Str, Chr, Raw };
  State state = State::Normal;
  std::string line;        // scrubbed current line
  std::string comment;     // text of the comment being consumed
  int comment_line = 1;    // line the current comment started on
  std::string raw_tag;     // )tag" terminator of the active raw literal
  int lineno = 1;

  auto end_line = [&] {
    if (state == State::Line) {
      harvest_allows(comment, comment_line, out);
      comment.clear();
      state = State::Normal;
    }
    out.lines.push_back(line);
    line.clear();
    ++lineno;
  };

  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::Block) harvest_allows(comment, lineno, out), comment.clear();
      end_line();
      continue;
    }
    switch (state) {
      case State::Normal:
        if (c == '/' && next == '/') {
          state = State::Line;
          comment_line = lineno;
          line += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::Block;
          comment_line = lineno;
          line += "  ";
          ++i;
        } else if (c == '"') {
          // Raw string? Look back for an R (optionally u8R/uR/LR prefixes).
          if (i > 0 && content[i - 1] == 'R') {
            std::size_t j = i + 1;
            std::string tag;
            while (j < content.size() && content[j] != '(') tag += content[j++];
            raw_tag = ")" + tag + "\"";
            state = State::Raw;
            line += '"';
          } else {
            state = State::Str;
            line += '"';
          }
        } else if (c == '\'') {
          state = State::Chr;
          line += '\'';
        } else {
          line += c;
        }
        break;
      case State::Line:
        comment += c;
        line += ' ';
        break;
      case State::Block:
        if (c == '*' && next == '/') {
          harvest_allows(comment, comment_line, out);
          comment.clear();
          state = State::Normal;
          line += "  ";
          ++i;
        } else {
          comment += c;
          line += ' ';
        }
        break;
      case State::Str:
        if (c == '\\') {
          line += "  ";
          ++i;
          if (next == '\n') --i;  // let the newline be processed normally
        } else if (c == '"') {
          state = State::Normal;
          line += '"';
        } else {
          line += ' ';
        }
        break;
      case State::Chr:
        if (c == '\\') {
          line += "  ";
          ++i;
        } else if (c == '\'') {
          state = State::Normal;
          line += '\'';
        } else {
          line += ' ';
        }
        break;
      case State::Raw:
        if (c == ')' && content.compare(i, raw_tag.size(), raw_tag) == 0) {
          // Consume the terminator on this line (raw strings stay rare and
          // short in this codebase; multi-line bodies are blanked above).
          line += '"';
          i += raw_tag.size() - 1;
          state = State::Normal;
        } else {
          line += ' ';
        }
        break;
    }
  }
  if (!line.empty() || content.empty() || content.back() == '\n') {
    if (state == State::Line || state == State::Block) {
      harvest_allows(comment, comment_line, out);
    }
    out.lines.push_back(line);
  }
  return out;
}

// ---------------------------------------------------------------- tokenizer

struct Token {
  std::string text;
  int line = 0;  ///< 1-based
};

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

/// Identifiers, numbers and punctuation from the scrubbed lines. "::" and
/// "->" are kept as single tokens (the rules key on them); every other
/// punctuation character is its own token.
std::vector<Token> tokenize(const Scrubbed& sc) {
  std::vector<Token> tokens;
  for (std::size_t li = 0; li < sc.lines.size(); ++li) {
    const std::string& s = sc.lines[li];
    const int lineno = static_cast<int>(li) + 1;
    for (std::size_t i = 0; i < s.size();) {
      const char c = s[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
      } else if (ident_start(c)) {
        std::size_t j = i;
        while (j < s.size() && ident_char(s[j])) ++j;
        tokens.push_back({s.substr(i, j - i), lineno});
        i = j;
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        std::size_t j = i;
        while (j < s.size() && (ident_char(s[j]) || s[j] == '.' || s[j] == '\'')) ++j;
        tokens.push_back({s.substr(i, j - i), lineno});
        i = j;
      } else if (c == ':' && i + 1 < s.size() && s[i + 1] == ':') {
        tokens.push_back({"::", lineno});
        i += 2;
      } else if (c == '-' && i + 1 < s.size() && s[i + 1] == '>') {
        tokens.push_back({"->", lineno});
        i += 2;
      } else {
        tokens.push_back({std::string(1, c), lineno});
        ++i;
      }
    }
  }
  return tokens;
}

const std::string& tok(const std::vector<Token>& t, std::size_t i) {
  static const std::string empty;
  return i < t.size() ? t[i].text : empty;
}

/// True when token i names a free (or std-qualified) entity: rejects member
/// access (`x.time`, `p->clock`) and foreign qualification (`foo::rand`).
bool free_or_std_qualified(const std::vector<Token>& t, std::size_t i) {
  if (i == 0) return true;
  const std::string& prev = t[i - 1].text;
  if (prev == "." || prev == "->") return false;
  if (prev == "::") {
    const std::string& qual = i >= 2 ? t[i - 2].text : "";
    return qual == "std" || qual == "chrono";
  }
  return true;
}

// ------------------------------------------------------------------- rules

struct Ctx {
  const std::string& path;
  Scrubbed& sc;  ///< non-const: report() marks matched suppressions used
  const std::vector<Token>& tokens;
  std::vector<Finding>& findings;

  void report(const std::string& rule, int line, const std::string& message) const {
    const auto it = sc.allowed.find(line);
    if (it != sc.allowed.end()) {
      const auto r = it->second.find(rule);
      if (r != it->second.end()) {
        sc.allows[r->second].used = true;
        return;
      }
    }
    findings.push_back({path, line, rule, message});
  }
};

/// determinism — no entropy or wall-clock reads where output must be
/// bit-reproducible. steady_clock is sanctioned (monotonic, used only for
/// durations); bits::Rng is the sanctioned seeded PRNG.
void check_determinism(const Ctx& ctx) {
  if (!in_deterministic_path(ctx.path)) return;
  static const std::set<std::string> banned_calls = {
      "rand", "srand", "rand_r",   "clock",  "time",
      "mktime", "gettimeofday", "localtime", "gmtime"};
  static const std::set<std::string> banned_names = {
      "random_device", "system_clock", "high_resolution_clock", "mt19937",
      "mt19937_64", "default_random_engine"};
  const auto& t = ctx.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!free_or_std_qualified(t, i)) continue;
    if (banned_names.count(t[i].text) != 0) {
      ctx.report("determinism", t[i].line,
                 "'" + t[i].text +
                     "' in a deterministic path; use bits::Rng (seeded) or "
                     "steady_clock for durations");
    } else if (banned_calls.count(t[i].text) != 0 && tok(t, i + 1) == "(") {
      ctx.report("determinism", t[i].line,
                 "call to '" + t[i].text +
                     "()' in a deterministic path; entropy and wall-clock "
                     "reads break --jobs reproducibility");
    }
  }
}

/// iostream-print — library code must not write to the console; only
/// examples/, bench/ and tests/ own stdout/stderr. (snprintf and file
/// streams are fine: the rule is about console output, not formatting.)
void check_iostream_print(const Ctx& ctx) {
  if (!in_library_path(ctx.path)) return;
  static const std::set<std::string> stream_objects = {"cout", "cerr", "clog"};
  static const std::set<std::string> print_calls = {"printf", "vprintf", "puts",
                                                    "putchar"};
  static const std::set<std::string> file_calls = {"fprintf", "fputs", "fputc",
                                                   "fwrite", "vfprintf"};
  const auto& t = ctx.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    // #include <iostream> (tokens: # include < iostream >)
    if (t[i].text == "iostream" && tok(t, i - 1) == "<" && tok(t, i + 1) == ">") {
      ctx.report("iostream-print", t[i].line,
                 "library code must not include <iostream>; only examples/, "
                 "bench/ and tests/ may print");
      continue;
    }
    if (t[i].text == "#" || !free_or_std_qualified(t, i)) continue;
    if (stream_objects.count(t[i].text) != 0) {
      ctx.report("iostream-print", t[i].line,
                 "console stream 'std::" + t[i].text + "' in library code");
    } else if (print_calls.count(t[i].text) != 0 && tok(t, i + 1) == "(") {
      ctx.report("iostream-print", t[i].line,
                 "console output call '" + t[i].text + "()' in library code");
    } else if (file_calls.count(t[i].text) != 0 && tok(t, i + 1) == "(") {
      // Only a console FILE* makes these console output: scan the call's
      // argument tokens (bounded) for stdout/stderr.
      for (std::size_t j = i + 2, depth = 1; j < t.size() && j < i + 40 && depth > 0;
           ++j) {
        if (t[j].text == "(") ++depth;
        if (t[j].text == ")") --depth;
        if (t[j].text == "stdout" || t[j].text == "stderr") {
          ctx.report("iostream-print", t[i].line,
                     "'" + t[i].text + "(" + t[j].text +
                         ", ...)' writes to the console from library code");
          break;
        }
      }
    }
  }
}

/// naked-throw — inside the taxonomy paths every throw must raise a
/// tdc::Error-family type (or be a bare rethrow) so callers always receive
/// typed, position-carrying failures.
void check_naked_throw(const Ctx& ctx) {
  if (!in_taxonomy_path(ctx.path)) return;
  static const std::set<std::string> allowed = {"Error", "ContainerError",
                                               "DecodeError", "TdcError"};
  const auto& t = ctx.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].text != "throw") continue;
    std::size_t j = i + 1;
    if (tok(t, j) == ";") continue;  // rethrow
    // Walk the qualified-id (`tdc::Error`, `std::runtime_error`, ...) up to
    // the constructor call / brace / template argument list.
    std::string last_ident;
    while (j < t.size()) {
      const std::string& s = t[j].text;
      if (s == "::") {
        ++j;
        continue;
      }
      if (!ident_start(s[0])) break;
      last_ident = s;
      ++j;
    }
    if (allowed.count(last_ident) == 0) {
      ctx.report("naked-throw", t[i].line,
                 "throw of '" + (last_ident.empty() ? "<expression>" : last_ident) +
                     "' outside the tdc::Error taxonomy; raise a typed "
                     "tdc::Error (core/error.h) instead");
    }
  }
}

/// unordered-iteration — a range-for over a std::unordered_* container has
/// unspecified order; anywhere in library code that is one sort away from a
/// nondeterministic serialized artifact. Iterate a sorted copy instead.
void check_unordered_iteration(const Ctx& ctx) {
  if (!in_library_path(ctx.path)) return;
  static const std::set<std::string> unordered_types = {
      "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
  const auto& t = ctx.tokens;

  // Pass 1: names declared with an unordered type in this file.
  std::set<std::string> names;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (unordered_types.count(t[i].text) == 0 || tok(t, i + 1) != "<") continue;
    std::size_t j = i + 2;
    for (int depth = 1; j < t.size() && depth > 0; ++j) {
      if (t[j].text == "<") ++depth;
      if (t[j].text == ">") --depth;
    }
    while (j < t.size() && (t[j].text == "&" || t[j].text == "*" || t[j].text == "const")) {
      ++j;
    }
    if (j < t.size() && ident_start(t[j].text[0])) names.insert(t[j].text);
  }
  if (names.empty()) return;

  // Pass 2: range-for whose range expression ends in one of those names.
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text != "for" || tok(t, i + 1) != "(") continue;
    std::size_t j = i + 2;
    int depth = 1;
    std::size_t colon = 0;
    for (; j < t.size() && depth > 0; ++j) {
      if (t[j].text == "(") ++depth;
      if (t[j].text == ")") --depth;
      if (depth == 1 && t[j].text == ":" && colon == 0) colon = j;
    }
    if (colon == 0) continue;  // classic for
    // Range expression = tokens (colon, j-1). A call in the expression
    // (e.g. `sorted(map_)`) is the sanctioned fix, so skip those.
    std::string last_ident;
    bool has_call = false;
    for (std::size_t k = colon + 1; k + 1 < j; ++k) {
      if (t[k].text == "(") has_call = true;
      if (ident_start(t[k].text[0])) last_ident = t[k].text;
    }
    if (!has_call && names.count(last_ident) != 0) {
      ctx.report("unordered-iteration", t[colon].line,
                 "range-for over unordered container '" + last_ident +
                     "'; iteration order is unspecified and must not feed "
                     "serialized output — iterate a sorted copy");
    }
  }
}

/// memory-order-audit — every atomic operation must spell its memory_order
/// (the default seq_cst hides the protocol and costs fences nobody asked
/// for), and every std::atomic<> declaration must carry a `// tdc-sync:`
/// comment justifying the ordering it participates in. The comment may sit
/// on the declaration's own line or any comment/blank line directly above
/// it, so one justification can head a block of related atomics only when
/// nothing but comments separates them.
void check_memory_order(const Ctx& ctx) {
  static const std::set<std::string> ops = {
      "load",      "store",     "exchange",     "fetch_add",
      "fetch_sub", "fetch_and", "fetch_or",     "fetch_xor",
      "test_and_set", "compare_exchange_weak", "compare_exchange_strong"};
  const auto& t = ctx.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    // Operation check: member calls only (free `load(...)` is some other
    // function, not an atomic op).
    if (ops.count(s) != 0 && i > 0 &&
        (t[i - 1].text == "." || t[i - 1].text == "->") && tok(t, i + 1) == "(") {
      std::size_t orders = 0;
      std::size_t j = i + 2;
      for (int depth = 1; j < t.size() && depth > 0; ++j) {
        if (t[j].text == "(") ++depth;
        if (t[j].text == ")") --depth;
        if (starts_with(t[j].text, "memory_order")) ++orders;
      }
      const std::size_t need = starts_with(s, "compare_exchange") ? 2 : 1;
      if (orders == 0) {
        ctx.report("memory-order-audit", t[i].line,
                   "atomic '" + s +
                       "' relies on the implicit seq_cst default; spell the "
                       "memory_order explicitly");
      } else if (orders < need) {
        ctx.report("memory-order-audit", t[i].line,
                   "'" + s +
                       "' names only a success order; compare_exchange takes "
                       "explicit success and failure orders");
      }
    }
    // Declaration check: `atomic<` ... `>` [>&* const]* identifier, where a
    // declarator is recognized by its terminator ({, ; or =) — this skips
    // function parameters and nested template arguments like
    // make_shared<std::atomic<int>>(...).
    if (s == "atomic" && tok(t, i + 1) == "<") {
      std::size_t j = i + 2;
      for (int depth = 1; j < t.size() && depth > 0; ++j) {
        if (t[j].text == "<") ++depth;
        if (t[j].text == ">") --depth;
      }
      while (j < t.size() && (t[j].text == ">" || t[j].text == "&" ||
                              t[j].text == "*" || t[j].text == "const")) {
        ++j;
      }
      if (j < t.size() && ident_start(t[j].text[0])) {
        const std::string& term = tok(t, j + 1);
        if ((term == "{" || term == ";" || term == "=") &&
            !sync_covered(ctx.sc, t[i].line)) {
          ctx.report("memory-order-audit", t[i].line,
                     "std::atomic declaration without a '// tdc-sync:' "
                     "justification; document the ordering protocol at the "
                     "declaration site");
        }
      }
    }
  }
}

/// blocking-under-lock — no unbounded I/O, sleep or nested condition wait
/// while a lock scope is open: whoever else wants that mutex now waits on a
/// peer's socket. Lock scopes are recognized lexically from guard
/// declarations (`lock_guard<...> g(m)`, `core::MutexLock lock(m)`), which
/// deliberately ignores parameters (`MutexLock& lock`) and member
/// declarations — those hold nothing at this site.
void check_blocking_under_lock(const Ctx& ctx) {
  static const std::set<std::string> lock_types = {
      "lock_guard", "unique_lock", "scoped_lock", "shared_lock", "MutexLock"};
  // Raw descriptors block arbitrarily long; flagged as free or ::-global
  // calls (a member `.read(...)` is some object's method, not the syscall).
  static const std::set<std::string> syscalls = {
      "poll", "select", "pselect", "epoll_wait", "read",   "write",  "send",
      "recv", "sendmsg", "recvmsg", "accept",    "accept4", "connect"};
  // Project I/O wrappers and sleeps: blocking in any call form.
  static const std::set<std::string> wrappers = {
      "write_frame", "read_exact", "write_all", "sleep_for", "sleep_until"};
  // A condition wait *releases its own lock* — the violation is waiting
  // while a second scope stays held across the sleep.
  static const std::set<std::string> cv_waits = {"wait", "wait_for",
                                                 "wait_until"};
  const auto& t = ctx.tokens;
  int depth = 0;
  std::vector<int> scopes;  // brace depth at which each held guard was declared
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "{") {
      ++depth;
      continue;
    }
    if (s == "}") {
      --depth;
      while (!scopes.empty() && scopes.back() > depth) scopes.pop_back();
      continue;
    }
    if (lock_types.count(s) != 0) {
      std::size_t j = i + 1;
      if (tok(t, j) == "<") {
        ++j;
        for (int d = 1; j < t.size() && d > 0; ++j) {
          if (t[j].text == "<") ++d;
          if (t[j].text == ">") --d;
        }
      }
      if (j < t.size() && ident_start(t[j].text[0]) &&
          (tok(t, j + 1) == "(" || tok(t, j + 1) == "{")) {
        scopes.push_back(depth);
      }
      continue;
    }
    if (scopes.empty()) continue;
    if (cv_waits.count(s) != 0 && i > 0 &&
        (t[i - 1].text == "." || t[i - 1].text == "->") && tok(t, i + 1) == "(") {
      if (scopes.size() >= 2) {
        ctx.report("blocking-under-lock", t[i].line,
                   "condition '" + s +
                       "' with a second lock scope open; the outer lock stays "
                       "held across the sleep");
      }
      continue;
    }
    if (tok(t, i + 1) != "(") continue;
    if (wrappers.count(s) != 0) {
      ctx.report("blocking-under-lock", t[i].line,
                 "'" + s +
                     "()' performs I/O or sleeps while a lock scope is open; "
                     "copy what you need and call it after the guard releases");
      continue;
    }
    if (syscalls.count(s) != 0) {
      bool free_call = true;
      if (i > 0) {
        const std::string& prev = t[i - 1].text;
        if (prev == "." || prev == "->") {
          free_call = false;
        } else if (prev == "::") {
          free_call = !(i >= 2 && ident_start(t[i - 2].text[0]));
        }
      }
      if (free_call) {
        ctx.report("blocking-under-lock", t[i].line,
                   "blocking call '" + s +
                       "()' while a lock scope is open; do descriptor I/O "
                       "after the guard releases");
      }
    }
  }
}

std::string to_lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

/// alloc-before-validate — in the wire-facing trees (src/service/,
/// src/codec/, and src/lzw/ whose container parser reads downloaded
/// images) a decode-path function must not size an allocation from a
/// variable before that variable has met a bound check. The heuristic:
/// inside any function whose name smells like decoding, every plain
/// identifier feeding `.resize(...)`, `.reserve(...)` or `new T[...]` must
/// appear earlier in the function next to a comparison operator or inside a
/// TDC_REQUIRE/TDC_ENSURE/TDC_CHECK/assert argument list.
void check_alloc_before_validate(const Ctx& ctx) {
  if (!starts_with(ctx.path, "src/service/") && !starts_with(ctx.path, "src/codec/") &&
      !starts_with(ctx.path, "src/lzw/")) {
    return;
  }
  static const std::set<std::string> control = {
      "if",     "for",    "while", "switch", "catch",
      "return", "sizeof", "else",  "do",     "constexpr"};
  static const std::set<std::string> decode_stems = {
      "decode", "decompress", "read", "parse", "expand", "inspect"};
  static const std::set<std::string> check_macros = {"TDC_REQUIRE", "TDC_ENSURE",
                                                     "TDC_CHECK", "assert"};
  static const std::set<std::string> type_words = {
      "const",    "unsigned",  "signed",          "auto",
      "std",      "static_cast", "reinterpret_cast", "const_cast",
      "true",     "false",     "nullptr"};
  const auto& t = ctx.tokens;

  // Pass 1: opening-brace token index -> function name, recognized as
  // `name (args) [qualifiers]* {` with a short qualifier run that contains
  // no expression punctuation (rejects calls, initializers and init lists).
  std::map<std::size_t, std::string> fn_at;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!ident_start(t[i].text[0]) || control.count(t[i].text) != 0) continue;
    if (tok(t, i + 1) != "(") continue;
    std::size_t j = i + 2;
    for (int d = 1; j < t.size() && d > 0; ++j) {
      if (t[j].text == "(") ++d;
      if (t[j].text == ")") --d;
    }
    std::size_t k = j;
    std::size_t steps = 0;
    bool plausible = true;
    while (k < t.size() && t[k].text != "{") {
      const std::string& q = t[k].text;
      if (q == ";" || q == "," || q == ")" || q == "(" || q == "=" || q == "}") {
        plausible = false;
        break;
      }
      if (++steps > 12) {
        plausible = false;
        break;
      }
      ++k;
    }
    if (plausible && k < t.size()) fn_at[k] = t[i].text;
  }

  // Pass 2: walk the file tracking the innermost named function (lambdas
  // open no frame, so their bodies inherit the enclosing function's name
  // and validation region).
  struct FnFrame {
    std::string name;
    int depth = 0;
    std::size_t start = 0;  ///< token index of the opening brace
    bool decodeish = false;
  };
  std::vector<FnFrame> frames;
  int depth = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "{") {
      ++depth;
      const auto it = fn_at.find(i);
      if (it != fn_at.end()) {
        FnFrame frame{it->second, depth, i, false};
        const std::string lname = to_lower(frame.name);
        for (const std::string& stem : decode_stems) {
          if (lname.find(stem) != std::string::npos) frame.decodeish = true;
        }
        frames.push_back(frame);
      }
      continue;
    }
    if (s == "}") {
      if (!frames.empty() && frames.back().depth == depth) frames.pop_back();
      --depth;
      continue;
    }
    if (frames.empty() || !frames.back().decodeish) continue;

    // Allocation site?
    std::size_t args_begin = 0, args_end = 0;
    if ((s == "resize" || s == "reserve") && i > 0 &&
        (t[i - 1].text == "." || t[i - 1].text == "->") && tok(t, i + 1) == "(") {
      args_begin = i + 2;
      std::size_t j = args_begin;
      for (int d = 1; j < t.size() && d > 0; ++j) {
        if (t[j].text == "(") ++d;
        if (t[j].text == ")") --d;
      }
      args_end = j - 1;
    } else if (s == "new") {
      std::size_t j = i + 1;
      const std::size_t limit = i + 8;
      while (j < t.size() && j < limit && t[j].text != "[" && t[j].text != ";" &&
             t[j].text != "(") {
        ++j;
      }
      if (j < t.size() && t[j].text == "[") {
        args_begin = j + 1;
        std::size_t k = args_begin;
        for (int d = 1; k < t.size() && d > 0; ++k) {
          if (t[k].text == "[") ++d;
          if (t[k].text == "]") --d;
        }
        args_end = k - 1;
      }
    }
    if (args_begin == 0 || args_end <= args_begin) continue;

    // Top-level plain identifiers in the size expression. An identifier
    // followed by `(` is a call, by `<` a template-id or an inline clamp
    // (`n < cap ? n : cap`) — both already bounded, so skipped.
    std::set<std::string> idents;
    int d = 0;
    for (std::size_t k = args_begin; k < args_end; ++k) {
      const std::string& a = t[k].text;
      if (a == "(" || a == "[") {
        ++d;
        continue;
      }
      if (a == ")" || a == "]") {
        --d;
        continue;
      }
      if (d != 0 || !ident_start(a[0])) continue;
      if (type_words.count(a) != 0 || control.count(a) != 0) continue;
      const std::string& next = tok(t, k + 1);
      // A base of member access (`msg.len`) is an object, not a size; its
      // trailing member is what gets collected (or skipped as a call).
      if (next == "(" || next == "<" || next == "::" || next == "." ||
          next == "->") {
        continue;
      }
      const std::string& prev = k > 0 ? t[k - 1].text : "";
      if (prev == "." || prev == "->" || prev == "::") continue;
      idents.insert(a);
    }
    if (idents.empty()) continue;

    const FnFrame& fn = frames.back();
    for (const std::string& id : idents) {
      bool validated = false;
      for (std::size_t k = fn.start; k < i && !validated; ++k) {
        if (check_macros.count(t[k].text) != 0 && tok(t, k + 1) == "(") {
          std::size_t m = k + 2;
          for (int cd = 1; m < t.size() && m < i && cd > 0; ++m) {
            if (t[m].text == "(") ++cd;
            if (t[m].text == ")") --cd;
            if (t[m].text == id) validated = true;
          }
          continue;
        }
        if (t[k].text != id) continue;
        const std::string& p = k > 0 ? t[k - 1].text : "";
        const std::string& n = tok(t, k + 1);
        if (p == "<" || p == ">" || n == "<" || n == ">") validated = true;
      }
      if (!validated) {
        ctx.report("alloc-before-validate", t[i].line,
                   "allocation sized by '" + id + "' in '" + fn.name +
                       "' before any bound check; validate the wire-derived "
                       "size against a cap first");
      }
    }
  }
}

/// detached-thread — detach() abandons the thread's lifetime: shutdown can
/// no longer prove it exited, and its captures dangle if the owner dies
/// first. Every thread in this codebase keeps a joinable handle.
void check_detached_thread(const Ctx& ctx) {
  const auto& t = ctx.tokens;
  for (std::size_t i = 1; i < t.size(); ++i) {
    if (t[i].text == "detach" &&
        (t[i - 1].text == "." || t[i - 1].text == "->") && tok(t, i + 1) == "(") {
      ctx.report("detached-thread", t[i].line,
                 "detach() abandons the thread's lifetime; keep a joinable "
                 "handle and join it on shutdown");
    }
  }
}

/// stale-suppression — runs after every other rule: an allow() that no rule
/// consulted is dead weight that silently re-licenses the violation if the
/// code regresses. Reported at the comment's own line, so a deliberate
/// `tdc-lint: allow(stale-suppression)` on that line can keep a
/// intentionally-speculative suppression (the one sanctioned escape hatch).
void check_stale_suppressions(const Ctx& ctx) {
  static const std::set<std::string> known = [] {
    const auto& ids = rule_ids();
    return std::set<std::string>(ids.begin(), ids.end());
  }();
  for (std::size_t idx = 0; idx < ctx.sc.allows.size(); ++idx) {
    const AllowRecord& a = ctx.sc.allows[idx];
    if (a.used) continue;
    if (known.count(a.rule) == 0) {
      ctx.report("stale-suppression", a.origin_line,
                 "suppression 'tdc-lint: allow(" + a.rule +
                     ")' names an unknown rule id");
    } else {
      ctx.report("stale-suppression", a.origin_line,
                 "suppression 'tdc-lint: allow(" + a.rule +
                     ")' no longer fires; remove it");
    }
  }
}

// The include-hygiene rule needs the *unscrubbed* lines (include paths are
// string literals, which scrub() blanks), so it reparses the raw content.

std::vector<std::string> split_lines(const std::string& content) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : content) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  lines.push_back(cur);
  return lines;
}

void check_includes_and_guard(const Ctx& ctx, const std::vector<std::string>& raw_lines) {
  for (std::size_t li = 0; li < raw_lines.size(); ++li) {
    const int lineno = static_cast<int>(li) + 1;
    // Use the scrubbed line to decide this is a real include directive (not
    // one inside a comment), then the raw line for the path text.
    const std::string& scrubbed =
        li < ctx.sc.lines.size() ? ctx.sc.lines[li] : raw_lines[li];
    std::size_t pos = scrubbed.find_first_not_of(" \t");
    if (pos == std::string::npos || scrubbed[pos] != '#') continue;
    std::size_t inc = scrubbed.find("include", pos + 1);
    if (inc == std::string::npos) continue;
    const std::string& raw = raw_lines[li];
    const std::size_t open = raw.find('"', inc);
    if (open == std::string::npos) continue;  // <system> include
    const std::size_t close = raw.find('"', open + 1);
    if (close == std::string::npos) continue;
    const std::string target = raw.substr(open + 1, close - open - 1);
    if (target.empty()) continue;
    if (target[0] == '.') {
      ctx.report("include-hygiene", lineno,
                 "relative include \"" + target +
                     "\"; use the project-relative form \"subsystem/file.h\"");
    } else if (target.find('/') == std::string::npos) {
      ctx.report("include-hygiene", lineno,
                 "bare include \"" + target +
                     "\" depends on the including file's directory; use the "
                     "project-relative form \"subsystem/file.h\"");
    } else if (in_library_path(ctx.path) &&
               (starts_with(target, "tests/") || starts_with(target, "bench/") ||
                starts_with(target, "examples/") || starts_with(target, "tools/"))) {
      // Only library code is barred from the non-library trees; a tool may
      // include another tool's header.
      ctx.report("include-hygiene", lineno,
                 "library code must not include \"" + target +
                     "\" from a non-library tree");
    }
  }

  // Headers must open with their include guard (or #pragma once) so they
  // stay safe to include from anywhere (self-sufficiency floor).
  if (is_header(ctx.path)) {
    for (std::size_t li = 0; li < ctx.sc.lines.size(); ++li) {
      const std::string& s = ctx.sc.lines[li];
      const std::size_t pos = s.find_first_not_of(" \t");
      if (pos == std::string::npos) continue;  // blank / comment-only
      const int lineno = static_cast<int>(li) + 1;
      if (s[pos] == '#') {
        std::size_t d = s.find_first_not_of(" \t", pos + 1);
        if (d != std::string::npos &&
            (s.compare(d, 6, "ifndef") == 0 || s.compare(d, 6, "pragma") == 0)) {
          break;  // guarded
        }
      }
      ctx.report("include-hygiene", lineno,
                 "header does not open with an include guard (#ifndef or "
                 "#pragma once)");
      break;
    }
  }
}

}  // namespace

// ------------------------------------------------------------------ driver

const std::vector<std::string>& rule_ids() {
  static const std::vector<std::string> ids = {
      "determinism",        "iostream-print",     "naked-throw",
      "unordered-iteration", "include-hygiene",    "memory-order-audit",
      "blocking-under-lock", "alloc-before-validate", "detached-thread",
      "stale-suppression"};
  return ids;
}

std::vector<Finding> lint_file(const std::string& path, const std::string& content) {
  std::vector<Finding> findings;
  Scrubbed sc = scrub(content);
  const std::vector<Token> tokens = tokenize(sc);
  const Ctx ctx{path, sc, tokens, findings};
  check_determinism(ctx);
  check_iostream_print(ctx);
  check_naked_throw(ctx);
  check_unordered_iteration(ctx);
  check_includes_and_guard(ctx, split_lines(content));
  check_memory_order(ctx);
  check_blocking_under_lock(ctx);
  check_alloc_before_validate(ctx);
  check_detached_thread(ctx);
  // Must run last: it audits which allow() comments the rules above used.
  check_stale_suppressions(ctx);
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return findings;
}

std::vector<Finding> lint_tree(const std::string& repo_root,
                               const std::vector<std::string>& subdirs,
                               std::size_t* files_scanned) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const std::string& sub : subdirs) {
    const fs::path base = fs::path(repo_root) / sub;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc") {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  if (files_scanned != nullptr) *files_scanned = files.size();

  std::vector<Finding> findings;
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string rel =
        fs::relative(file, fs::path(repo_root)).generic_string();
    std::vector<Finding> one = lint_file(rel, buf.str());
    findings.insert(findings.end(), one.begin(), one.end());
  }
  return findings;
}

std::string format_report(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += f.path + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.message + "\n";
  }
  return out;
}

}  // namespace tdc::lint
