#include "lint/srclint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "lint/rules.hpp"
#include "util/fmt.hpp"

namespace avf::lint {
namespace {

bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_space(char c) { return c == ' ' || c == '\t'; }

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// A suppression directive as parsed from a `//` comment.  An empty rule
/// marks a comment that started with the directive prefix but did not parse.
struct Directive {
  std::size_t line = 0;  // 1-based
  std::string rule;
  std::string justification;
};

/// Source with comments and string/char-literal bodies blanked to spaces.
/// Same length as the input, newlines preserved, so offsets and line
/// numbers carry over unchanged.
struct Stripped {
  std::string code;
  std::vector<Directive> directives;
};

/// Parse one `//` comment body.  A directive must be the entire comment
/// ("code();  // avf-srclint: allow(id why)"), not embedded in prose —
/// that keeps documentation *about* the syntax from parsing as the syntax.
void parse_comment(std::string_view text, std::size_t line,
                   std::vector<Directive>& out) {
  constexpr std::string_view kPrefix = "avf-srclint:";
  std::string_view body = trim(text);
  if (!body.starts_with(kPrefix)) return;
  body = trim(body.substr(kPrefix.size()));
  Directive directive;
  directive.line = line;
  constexpr std::string_view kAllow = "allow(";
  std::size_t close = body.rfind(')');
  if (body.starts_with(kAllow) && close != std::string_view::npos &&
      close > kAllow.size()) {
    std::string_view inner =
        trim(body.substr(kAllow.size(), close - kAllow.size()));
    std::size_t split = 0;
    while (split < inner.size() &&
           !std::isspace(static_cast<unsigned char>(inner[split]))) {
      ++split;
    }
    directive.rule = std::string(inner.substr(0, split));
    directive.justification = std::string(trim(inner.substr(split)));
  }
  out.push_back(std::move(directive));
}

Stripped strip(std::string_view src) {
  Stripped result;
  result.code.reserve(src.size());
  std::size_t line = 1;
  std::size_t i = 0;
  auto blank_until = [&](std::size_t end) {
    for (; i < end && i < src.size(); ++i) {
      if (src[i] == '\n') {
        result.code.push_back('\n');
        ++line;
      } else {
        result.code.push_back(' ');
      }
    }
  };
  while (i < src.size()) {
    char c = src[i];
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      std::size_t end = src.find('\n', i);
      if (end == std::string_view::npos) end = src.size();
      parse_comment(src.substr(i + 2, end - i - 2), line, result.directives);
      blank_until(end);
    } else if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
      std::size_t end = src.find("*/", i + 2);
      end = end == std::string_view::npos ? src.size() : end + 2;
      blank_until(end);
    } else if (c == '"' && i >= 1 && src[i - 1] == 'R') {
      // Raw string: R"delim( ... )delim"
      std::size_t open = src.find('(', i + 1);
      if (open == std::string_view::npos) {
        blank_until(src.size());
        break;
      }
      std::string closer = ")";
      closer += src.substr(i + 1, open - i - 1);
      closer += '"';
      std::size_t end = src.find(closer, open + 1);
      end = end == std::string_view::npos ? src.size() : end + closer.size();
      blank_until(end);
    } else if (c == '"' || (c == '\'' && (i == 0 || !is_word(src[i - 1])))) {
      // Ordinary string/char literal; the word-char guard before '\'' keeps
      // digit separators (1'000'000) out of this branch.
      char quote = c;
      std::size_t j = i + 1;
      while (j < src.size() && src[j] != quote && src[j] != '\n') {
        if (src[j] == '\\') ++j;
        ++j;
      }
      if (j < src.size() && src[j] == quote) ++j;
      blank_until(j);
    } else {
      result.code.push_back(c);
      if (c == '\n') ++line;
      ++i;
    }
  }
  return result;
}

/// 1-based line number of `offset` given the newline positions of `code`.
class LineMap {
 public:
  explicit LineMap(std::string_view code) {
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (code[i] == '\n') newlines_.push_back(i);
    }
  }
  std::size_t line_of(std::size_t offset) const {
    return 1 + static_cast<std::size_t>(std::upper_bound(newlines_.begin(),
                                                         newlines_.end(),
                                                         offset) -
                                        newlines_.begin());
  }

 private:
  std::vector<std::size_t> newlines_;
};

/// True when `pat` occurs in `text` with word boundaries on whichever ends
/// of the pattern are word characters.
bool token_boundaries_ok(std::string_view text, std::size_t pos,
                         std::string_view pat) {
  if (is_word(pat.front()) && pos > 0 && is_word(text[pos - 1])) return false;
  std::size_t end = pos + pat.size();
  if (is_word(pat.back()) && end < text.size() && is_word(text[end])) {
    return false;
  }
  return true;
}

bool contains_token(std::string_view text, std::string_view token) {
  std::size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string_view::npos) {
    if (token_boundaries_ok(text, pos, token)) return true;
    pos += 1;
  }
  return false;
}

/// Every token-boundary occurrence of `pat` in `code`, as offsets.
std::vector<std::size_t> find_token(std::string_view code,
                                    std::string_view pat) {
  std::vector<std::size_t> offsets;
  std::size_t pos = 0;
  while ((pos = code.find(pat, pos)) != std::string_view::npos) {
    if (token_boundaries_ok(code, pos, pat)) offsets.push_back(pos);
    pos += 1;
  }
  return offsets;
}

std::size_t skip_ws(std::string_view code, std::size_t i) {
  while (i < code.size() &&
         std::isspace(static_cast<unsigned char>(code[i]))) {
    ++i;
  }
  return i;
}

/// Identifier ending at (exclusive) `end`, scanning backwards over word
/// characters; empty when `end` is not preceded by one.
std::string_view word_before(std::string_view code, std::size_t end) {
  std::size_t begin = end;
  while (begin > 0 && is_word(code[begin - 1])) --begin;
  return code.substr(begin, end - begin);
}

/// Names declared with an unordered container type: after
/// `unordered_xxx<...>` (template arguments angle-matched) and optional
/// `&`/`*`, the next identifier is the declared name — covering members,
/// locals, parameters and functions returning unordered containers.
void collect_unordered_names(std::string_view code,
                             std::set<std::string>& names) {
  constexpr std::string_view kTypes[] = {"unordered_map", "unordered_set",
                                         "unordered_multimap",
                                         "unordered_multiset"};
  for (std::string_view type : kTypes) {
    for (std::size_t pos : find_token(code, type)) {
      std::size_t i = skip_ws(code, pos + type.size());
      if (i >= code.size() || code[i] != '<') continue;
      int depth = 0;
      for (; i < code.size(); ++i) {
        if (code[i] == '<') ++depth;
        if (code[i] == '>' && --depth == 0) break;
      }
      if (i >= code.size()) continue;
      i = skip_ws(code, i + 1);
      while (i < code.size() && (code[i] == '&' || code[i] == '*')) {
        i = skip_ws(code, i + 1);
      }
      std::size_t begin = i;
      while (i < code.size() && is_word(code[i])) ++i;
      std::string_view name = code.substr(begin, i - begin);
      if (!name.empty() &&
          std::isdigit(static_cast<unsigned char>(name.front())) == 0 &&
          name != "const") {
        names.insert(std::string(name));
      }
    }
  }
}

/// Names declared with type double/float (members, locals, parameters).
void collect_float_names(std::string_view code, std::set<std::string>& names) {
  for (std::string_view type : {std::string_view("double"),
                                std::string_view("float")}) {
    for (std::size_t pos : find_token(code, type)) {
      std::size_t i = skip_ws(code, pos + type.size());
      std::size_t begin = i;
      while (i < code.size() && is_word(code[i])) ++i;
      std::string_view name = code.substr(begin, i - begin);
      if (!name.empty() &&
          std::isdigit(static_cast<unsigned char>(name.front())) == 0 &&
          name != "const") {
        names.insert(std::string(name));
      }
    }
  }
}

struct Finding {
  std::string_view rule;
  std::size_t line;
  std::string message;
};

/// Range-for statements whose range expression names an unordered
/// container, plus explicit `name.begin()` / `name->begin()` calls.
void scan_unordered_iteration(std::string_view code, const LineMap& lines,
                              const std::set<std::string>& names,
                              std::vector<Finding>& findings) {
  if (names.empty()) return;
  for (std::size_t pos : find_token(code, "for")) {
    std::size_t open = skip_ws(code, pos + 3);
    if (open >= code.size() || code[open] != '(') continue;
    int depth = 0;
    std::size_t close = open;
    for (; close < code.size(); ++close) {
      if (code[close] == '(') ++depth;
      if (code[close] == ')' && --depth == 0) break;
    }
    if (close >= code.size()) continue;
    std::string_view inside = code.substr(open + 1, close - open - 1);
    // Top-level ':' (not '::') splits a range-for.
    int nest = 0;
    std::size_t colon = std::string_view::npos;
    for (std::size_t i = 0; i < inside.size(); ++i) {
      char c = inside[i];
      if (c == '(' || c == '[' || c == '{' || c == '<') ++nest;
      if (c == ')' || c == ']' || c == '}' || c == '>') --nest;
      if (c == ':' && nest == 0 &&
          (i == 0 || inside[i - 1] != ':') &&
          (i + 1 >= inside.size() || inside[i + 1] != ':')) {
        colon = i;
        break;
      }
    }
    if (colon == std::string_view::npos) continue;
    std::string_view range = inside.substr(colon + 1);
    for (const std::string& name : names) {
      if (contains_token(range, name)) {
        findings.push_back(
            {rules::kSrcUnorderedIter, lines.line_of(pos),
             util::format("range-for over unordered container '{}': bucket "
                          "order is not deterministic across runs; iterate "
                          "a sorted copy or an ordered sibling structure",
                          name)});
        break;
      }
    }
  }
  for (std::string_view member : {std::string_view("begin"),
                                  std::string_view("cbegin"),
                                  std::string_view("rbegin")}) {
    for (std::size_t pos : find_token(code, member)) {
      std::size_t after = skip_ws(code, pos + member.size());
      if (after >= code.size() || code[after] != '(') continue;
      std::string_view owner;
      if (pos >= 1 && code[pos - 1] == '.') {
        owner = word_before(code, pos - 1);
      } else if (pos >= 2 && code[pos - 2] == '-' && code[pos - 1] == '>') {
        owner = word_before(code, pos - 2);
      } else {
        continue;
      }
      if (names.contains(std::string(owner))) {
        findings.push_back(
            {rules::kSrcUnorderedIter, lines.line_of(pos),
             util::format("iterator over unordered container '{}': bucket "
                          "order is not deterministic across runs",
                          owner)});
      }
    }
  }
}

/// Simple token-presence rules (wall clock, randomness, raw mutexes).
void scan_patterns(std::string_view code, const LineMap& lines,
                   std::string_view rule,
                   const std::vector<std::string_view>& patterns,
                   std::string_view message, std::vector<Finding>& findings) {
  std::set<std::size_t> seen_lines;
  for (std::string_view pat : patterns) {
    for (std::size_t pos : find_token(code, pat)) {
      std::size_t line = lines.line_of(pos);
      if (!seen_lines.insert(line).second) continue;
      findings.push_back(
          {rule, line, util::format("{} — {}", pat, message)});
    }
  }
}

/// rand()/srand() need the call parenthesis to avoid flagging identifiers
/// that merely contain the substring.
void scan_rand_calls(std::string_view code, const LineMap& lines,
                     std::vector<Finding>& findings) {
  for (std::string_view fn : {std::string_view("rand"),
                              std::string_view("srand")}) {
    for (std::size_t pos : find_token(code, fn)) {
      std::size_t after = skip_ws(code, pos + fn.size());
      if (after < code.size() && code[after] == '(') {
        findings.push_back(
            {rules::kSrcNondetRandom, lines.line_of(pos),
             util::format("{}() — C library randomness is unseeded global "
                          "state; use util::SplitMix64 (util/rng.hpp)",
                          fn)});
      }
    }
  }
}

/// `name += expr` / `name -= expr` inside a loop where `name` was declared
/// double/float.  Loop bodies are tracked lexically: a brace opened after
/// for/while is a loop region; a single-statement body extends to the
/// terminating ';'.
void scan_float_accum(std::string_view code, const LineMap& lines,
                      const std::set<std::string>& names,
                      std::vector<Finding>& findings) {
  if (names.empty()) return;
  std::vector<bool> brace_is_loop;
  bool pending_loop = false;  // saw for/while; waiting for its body
  int pending_parens = 0;
  for (std::size_t i = 0; i < code.size(); ++i) {
    char c = code[i];
    if (is_word(c)) {
      std::size_t begin = i;
      while (i < code.size() && is_word(code[i])) ++i;
      std::string_view word = code.substr(begin, i - begin);
      if ((word == "for" || word == "while") &&
          (begin == 0 || !is_word(code[begin - 1]))) {
        pending_loop = true;
        pending_parens = 0;
      }
      --i;
      continue;
    }
    if (c == '(' && pending_loop) ++pending_parens;
    if (c == ')' && pending_loop) --pending_parens;
    if (c == '{') {
      brace_is_loop.push_back(pending_loop && pending_parens == 0);
      if (pending_loop && pending_parens == 0) pending_loop = false;
      continue;
    }
    if (c == '}') {
      if (!brace_is_loop.empty()) brace_is_loop.pop_back();
      continue;
    }
    if (c == ';' && pending_loop && pending_parens == 0) {
      pending_loop = false;  // single-statement loop body ended
      continue;
    }
    if ((c == '+' || c == '-') && i + 1 < code.size() &&
        code[i + 1] == '=' && (i + 2 >= code.size() || code[i + 2] != '=')) {
      bool in_loop =
          pending_loop ||
          std::find(brace_is_loop.begin(), brace_is_loop.end(), true) !=
              brace_is_loop.end();
      if (!in_loop) continue;
      std::size_t end = i;
      while (end > 0 && is_space(code[end - 1])) --end;
      std::string_view target = word_before(code, end);
      if (!target.empty() && names.contains(std::string(target))) {
        std::string_view op = c == '+' ? "+=" : "-=";
        findings.push_back(
            {rules::kSrcFloatAccum, lines.line_of(i),
             util::format("'{} {}' accumulates floating point in a loop: "
                          "the result depends on summation order; use "
                          "util::CompensatedSum (util/stats.hpp) or justify "
                          "why the order is pinned",
                          target, op)});
      }
      ++i;  // skip '='
    }
  }
}

/// True when the `{` at `open` begins a namespace or class body rather than
/// code (a function body, lambda, control block or braced initializer):
/// the statement before it, after any preprocessor line, access label or
/// template header, starts with namespace/class/struct/union/enum or is
/// `extern "C"`.
bool opens_type_scope(std::string_view code, std::size_t open) {
  std::string_view before = code.substr(0, open);
  std::size_t start = before.find_last_of(";{}");
  std::string_view head =
      trim(before.substr(start == std::string_view::npos ? 0 : start + 1));
  for (bool stripped = true; stripped;) {
    stripped = false;
    if (head.starts_with('#')) {
      std::size_t eol = head.find('\n');
      head = eol == std::string_view::npos ? "" : trim(head.substr(eol));
      stripped = true;
    }
    for (std::string_view label : {std::string_view("public:"),
                                   std::string_view("protected:"),
                                   std::string_view("private:")}) {
      if (head.starts_with(label)) {
        head = trim(head.substr(label.size()));
        stripped = true;
      }
    }
    std::size_t i = head.find('<');
    if (head.starts_with("template") && i != std::string_view::npos) {
      int depth = 0;
      for (; i < head.size(); ++i) {
        if (head[i] == '<') ++depth;
        if (head[i] == '>' && --depth == 0) break;
      }
      head = trim(head.substr(std::min(i + 1, head.size())));
      stripped = true;
    }
  }
  std::size_t word_end = 0;
  while (word_end < head.size() && is_word(head[word_end])) ++word_end;
  std::string_view first = head.substr(0, word_end);
  return first == "namespace" || first == "class" || first == "struct" ||
         first == "union" || first == "enum" || first == "extern";
}

/// `static` variables that are neither const nor constexpr: state that
/// every world built in the process shares.  A declaration after `static`
/// ends at the first `;`, `{`, or top-level `=` or `(`; it is a variable
/// unless it names `const`/`constexpr`/`operator` or is a `(` declarator
/// in a namespace or class body (a function).  At block scope `static`
/// always declares a variable, so `static T x(args);` there is flagged.
void scan_mutable_statics(std::string_view code, const LineMap& lines,
                          std::vector<Finding>& findings) {
  const std::vector<std::size_t> statics = find_token(code, "static");
  std::vector<bool> scopes;  // open braces: true = namespace/class body
  std::size_t next = 0;
  for (std::size_t i = 0; i < code.size() && next < statics.size(); ++i) {
    if (code[i] == '{') scopes.push_back(opens_type_scope(code, i));
    if (code[i] == '}' && !scopes.empty()) scopes.pop_back();
    if (i != statics[next]) continue;
    ++next;
    const bool type_scope = scopes.empty() || scopes.back();
    std::size_t end = i + 6;
    int angle = 0;
    for (; end < code.size(); ++end) {
      char c = code[end];
      if (c == '<') ++angle;
      if (c == '>') --angle;
      if (c == ';' || c == '{' || (angle == 0 && (c == '=' || c == '('))) {
        break;
      }
    }
    if (end >= code.size()) continue;
    std::string_view decl = code.substr(i + 6, end - i - 6);
    if (contains_token(decl, "const") || contains_token(decl, "constexpr") ||
        contains_token(decl, "operator")) {
      continue;
    }
    if (code[end] == '(' && type_scope) continue;  // a function
    std::size_t name_end = decl.size();
    while (name_end > 0 && !is_word(decl[name_end - 1])) --name_end;
    findings.push_back(
        {rules::kSrcMutableStatic, lines.line_of(i),
         util::format("mutable static '{}': process-wide state shared by "
                      "every world a sweep builds; give it an owner that "
                      "is passed in, or make it const",
                      word_before(decl, name_end))});
  }
}

bool starts_with_any(std::string_view path,
                     std::initializer_list<std::string_view> prefixes) {
  for (std::string_view prefix : prefixes) {
    if (path.starts_with(prefix)) return true;
  }
  return false;
}

/// Per-rule path scoping (paths are repo-relative, forward slashes).
bool rule_applies(std::string_view rule, std::string_view path) {
  if (rule == rules::kSrcUnorderedIter || rule == rules::kSrcMutableStatic) {
    return starts_with_any(path, {"src/sim/", "src/viz/", "src/adapt/",
                                  "src/perfdb/", "src/testkit/"});
  }
  if (rule == rules::kSrcWallClock) {
    return !starts_with_any(path, {"bench/"});
  }
  if (rule == rules::kSrcNondetRandom) {
    return path != "src/util/rng.hpp" && !starts_with_any(path, {"bench/"});
  }
  if (rule == rules::kSrcRawMutex) {
    return path != "src/util/mutex.hpp";
  }
  if (rule == rules::kSrcFloatAccum) {
    return starts_with_any(path, {"src/sim/"});
  }
  return true;  // meta rules apply wherever a directive appears
}

const SrcRule* find_rule(std::string_view id) {
  for (const SrcRule& rule : srclint_rules()) {
    if (rule.id == id) return &rule;
  }
  return nullptr;
}

std::string known_rule_list() {
  std::string out;
  for (const SrcRule& rule : srclint_rules()) {
    if (!rule.suppressible) continue;
    if (!out.empty()) out += ", ";
    out += rule.id;
  }
  return out;
}

}  // namespace

const std::vector<SrcRule>& srclint_rules() {
  static const std::vector<SrcRule> kRules = {
      {rules::kSrcUnorderedIter, Severity::kWarning, true,
       "unordered-container iteration in a trace-affecting module "
       "(src/{sim,viz,adapt,perfdb,testkit})"},
      {rules::kSrcWallClock, Severity::kWarning, true,
       "wall-clock time source (steady_clock/system_clock) outside bench/"},
      {rules::kSrcNondetRandom, Severity::kWarning, true,
       "non-seeded randomness outside util/rng.hpp and bench/"},
      {rules::kSrcRawMutex, Severity::kWarning, true,
       "raw std synchronization primitive bypassing the TSA-annotated "
       "util::Mutex wrappers"},
      {rules::kSrcFloatAccum, Severity::kWarning, true,
       "floating-point loop accumulation in src/sim/ without the Neumaier "
       "helpers"},
      {rules::kSrcMutableStatic, Severity::kWarning, true,
       "non-const static variable in a trace-affecting module "
       "(src/{sim,viz,adapt,perfdb,testkit})"},
      {rules::kSrcUnknownRule, Severity::kError, false,
       "suppression directive names an unknown rule"},
      {rules::kSrcBadSuppression, Severity::kError, false,
       "malformed suppression directive or missing justification"},
  };
  return kRules;
}

Report srclint_file(std::string_view path, std::string_view contents,
                    std::string_view sibling_header) {
  Report report;
  Stripped stripped = strip(contents);
  LineMap lines(stripped.code);

  std::set<std::string> unordered_names;
  std::set<std::string> float_names;
  collect_unordered_names(stripped.code, unordered_names);
  collect_float_names(stripped.code, float_names);
  if (!sibling_header.empty()) {
    Stripped sibling = strip(sibling_header);
    collect_unordered_names(sibling.code, unordered_names);
    collect_float_names(sibling.code, float_names);
  }

  auto subject = [&](std::size_t line) {
    return util::format("{}:{}", path, line);
  };

  // Validate directives first: meta diagnostics are never suppressible.
  // rule -> lines carrying a valid suppression for it
  std::map<std::string, std::set<std::size_t>> allowed;
  for (const Directive& directive : stripped.directives) {
    if (directive.rule.empty()) {
      report.error(std::string(rules::kSrcBadSuppression),
                   subject(directive.line),
                   "malformed directive; expected "
                   "avf-srclint: allow(<rule.id> <justification>)");
      continue;
    }
    const SrcRule* rule = find_rule(directive.rule);
    if (rule == nullptr) {
      report.error(std::string(rules::kSrcUnknownRule),
                   subject(directive.line),
                   util::format("unknown rule '{}' in suppression; known "
                                "rules: {}",
                                directive.rule, known_rule_list()));
      continue;
    }
    if (!rule->suppressible) {
      report.error(std::string(rules::kSrcBadSuppression),
                   subject(directive.line),
                   util::format("rule {} cannot be suppressed",
                                directive.rule));
      continue;
    }
    if (directive.justification.empty()) {
      report.error(std::string(rules::kSrcBadSuppression),
                   subject(directive.line),
                   util::format("suppression of {} needs a justification: "
                                "allow({} <why this site is sound>)",
                                directive.rule, directive.rule));
      continue;
    }
    allowed[directive.rule].insert(directive.line);
  }

  std::vector<Finding> findings;
  if (rule_applies(rules::kSrcUnorderedIter, path)) {
    scan_unordered_iteration(stripped.code, lines, unordered_names,
                             findings);
  }
  if (rule_applies(rules::kSrcWallClock, path)) {
    scan_patterns(stripped.code, lines, rules::kSrcWallClock,
                  {"steady_clock", "system_clock", "high_resolution_clock"},
                  "wall-clock time is nondeterministic; simulated time "
                  "comes from sim::Simulator::now()",
                  findings);
  }
  if (rule_applies(rules::kSrcNondetRandom, path)) {
    scan_patterns(stripped.code, lines, rules::kSrcNondetRandom,
                  {"random_device", "mt19937", "default_random_engine",
                   "minstd_rand", "random_shuffle"},
                  "non-seeded/engine randomness breaks replayability; use "
                  "util::SplitMix64 (util/rng.hpp)",
                  findings);
    scan_rand_calls(stripped.code, lines, findings);
  }
  if (rule_applies(rules::kSrcRawMutex, path)) {
    scan_patterns(
        stripped.code, lines, rules::kSrcRawMutex,
        {"std::mutex", "std::recursive_mutex", "std::timed_mutex",
         "std::shared_mutex", "std::shared_timed_mutex", "std::lock_guard",
         "std::scoped_lock", "std::unique_lock", "std::shared_lock",
         "std::condition_variable", "std::call_once", "std::once_flag"},
        "raw std primitive is invisible to -Werror=thread-safety; use "
        "util::Mutex / util::MutexLock (util/mutex.hpp)",
        findings);
  }
  if (rule_applies(rules::kSrcFloatAccum, path)) {
    scan_float_accum(stripped.code, lines, float_names, findings);
  }
  if (rule_applies(rules::kSrcMutableStatic, path)) {
    scan_mutable_statics(stripped.code, lines, findings);
  }

  // Stable output order: by line, then catalog order.
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  for (const Finding& finding : findings) {
    auto it = allowed.find(std::string(finding.rule));
    if (it != allowed.end() &&
        (it->second.contains(finding.line) ||
         (finding.line > 1 && it->second.contains(finding.line - 1)))) {
      continue;  // suppressed at the line or the line above
    }
    const SrcRule* rule = find_rule(finding.rule);
    Diagnostic diagnostic;
    diagnostic.severity = rule != nullptr ? rule->severity
                                          : Severity::kWarning;
    diagnostic.rule = std::string(finding.rule);
    diagnostic.subject = subject(finding.line);
    diagnostic.message = finding.message;
    report.add(std::move(diagnostic));
  }
  return report;
}

Report srclint_tree(const std::filesystem::path& root) {
  namespace fs = std::filesystem;
  Report report;
  std::vector<std::string> files;  // repo-relative, forward slashes
  for (std::string_view sub : {std::string_view("src"),
                               std::string_view("tools")}) {
    fs::path dir = root / sub;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
      if (!entry.is_regular_file()) continue;
      std::string ext = entry.path().extension().string();
      if (ext == ".hpp" || ext == ".h" || ext == ".hh" || ext == ".cpp" ||
          ext == ".cc") {
        files.push_back(fs::relative(entry.path(), root).generic_string());
      }
    }
  }
  // Directory iteration order is unspecified; sort for a stable report.
  std::sort(files.begin(), files.end());
  std::set<std::string> file_set(files.begin(), files.end());

  auto read_file = [&](const std::string& rel,
                       std::string& out) -> bool {
    std::ifstream in(root / fs::path(rel));
    if (!in) return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
  };

  for (const std::string& rel : files) {
    std::string contents;
    if (!read_file(rel, contents)) {
      report.note(std::string(rules::kSkipped), rel, "cannot read file");
      continue;
    }
    std::string sibling;
    std::size_t dot = rel.rfind('.');
    std::string_view ext = std::string_view(rel).substr(dot);
    if (ext == ".cpp" || ext == ".cc") {
      for (std::string_view header_ext : {std::string_view(".hpp"),
                                          std::string_view(".h")}) {
        std::string candidate = rel.substr(0, dot) + std::string(header_ext);
        if (file_set.contains(candidate) && read_file(candidate, sibling)) {
          break;
        }
      }
    }
    report.merge(srclint_file(rel, contents, sibling));
  }
  return report;
}

}  // namespace avf::lint
