#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string_view>
#include <utility>

namespace coldstart::lint {

namespace {

// ---------------------------------------------------------------------------
// Rule registry.
// ---------------------------------------------------------------------------

const std::vector<RuleInfo> kRules = {
    {"wall-clock",
     "wall-clock reads (time(), gettimeofday, std::chrono::*_clock) in simulation "
     "code; simulations consume SimTime only"},
    {"ambient-rng",
     "ambient randomness (std::rand, std::random_device, standard engines) outside "
     "src/common/rng; all draws flow through the seeded substream tree"},
    {"unordered-iter",
     "iteration over std::unordered_{map,set} in output-affecting code "
     "(src/{platform,policy,analysis,trace,checkpoint}); hash order must not reach "
     "traces, aggregates, or serialized blobs"},
    {"serde-pair",
     "asymmetric Save*/Restore* or Write*/Read* ByteWriter/ByteReader pair; the "
     "write and read call sequences must match in count and type"},
    {"policy-hooks",
     "PlatformPolicy subclass with mutable state but no CloneForShard or "
     "SavePolicyState/RestorePolicyState override; state would silently vanish "
     "in sharded or checkpointed runs"},
    {"stale-allow",
     "LINT-ALLOW annotation that is malformed, names an unknown rule, or no longer "
     "matches a diagnostic on its line"},
};

bool IsKnownRule(const std::string& name) {
  for (const RuleInfo& r : kRules) {
    if (r.name == name) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Comment/string stripping + LINT-ALLOW collection.
// ---------------------------------------------------------------------------

struct Allow {
  std::string rule;
  std::string reason;
  bool used = false;
  bool malformed = false;  // LINT-ALLOW present but not of the required form.
};

struct Stripped {
  // Same length as the input; comments, string/char literal contents, and
  // preprocessor directives are blanked so lexical rules cannot match inside
  // them. Newlines are preserved, so line numbers survive.
  std::string code;
  std::map<int, std::vector<Allow>> allows;  // line (1-based) -> annotations.
  std::vector<size_t> line_starts;           // offset of each line's first char.
};

// Parses "LINT-ALLOW(rule): reason" occurrences out of one comment's text.
void ParseAllows(const std::string& comment, int line, Stripped* out) {
  static const std::regex kAllowRe(
      R"(LINT-ALLOW\(([A-Za-z0-9-]+)\)\s*:\s*(\S[^\n]*))");
  size_t searched = 0;
  while (true) {
    const size_t at = comment.find("LINT-ALLOW", searched);
    if (at == std::string::npos) {
      return;
    }
    std::smatch m;
    const std::string tail = comment.substr(at);
    if (std::regex_search(tail, m, kAllowRe) && m.position(0) == 0) {
      Allow a;
      a.rule = m[1];
      a.reason = m[2];
      out->allows[line].push_back(std::move(a));
      searched = at + static_cast<size_t>(m.length(0));
    } else {
      Allow a;
      a.malformed = true;
      out->allows[line].push_back(std::move(a));
      searched = at + 10;
    }
  }
}

Stripped Strip(const std::string& content) {
  Stripped out;
  out.code.assign(content.size(), ' ');
  out.line_starts.push_back(0);
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  std::string comment_text;
  int comment_line = 1;
  int line = 1;
  bool line_is_preprocessor = false;
  bool line_seen_nonspace = false;
  for (size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) {
        ParseAllows(comment_text, comment_line, &out);
        comment_text.clear();
        state = State::kCode;
      }
      out.code[i] = '\n';
      ++line;
      out.line_starts.push_back(i + 1);
      line_is_preprocessor = false;
      line_seen_nonspace = false;
      continue;
    }
    switch (state) {
      case State::kCode:
        if (!line_seen_nonspace && !std::isspace(static_cast<unsigned char>(c))) {
          line_seen_nonspace = true;
          if (c == '#') {
            line_is_preprocessor = true;
          }
        }
        if (line_is_preprocessor) {
          break;  // Blank the whole directive (keeps #if braces out of scopes).
        }
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          comment_line = line;
          ++i;  // Skip the second slash.
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"') {
          out.code[i] = '"';
          state = State::kString;
        } else if (c == '\'') {
          out.code[i] = '\'';
          state = State::kChar;
        } else {
          out.code[i] = c;
        }
        break;
      case State::kLineComment:
        comment_text.push_back(c);
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          out.code[i] = '"';
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          out.code[i] = '\'';
          state = State::kCode;
        }
        break;
    }
  }
  if (state == State::kLineComment) {
    ParseAllows(comment_text, comment_line, &out);
  }
  return out;
}

int LineOf(const Stripped& s, size_t pos) {
  const auto it =
      std::upper_bound(s.line_starts.begin(), s.line_starts.end(), pos);
  return static_cast<int>(it - s.line_starts.begin());
}

// ---------------------------------------------------------------------------
// Scope scanning: class bodies and Save*/Restore*/Write*/Read* definitions.
// ---------------------------------------------------------------------------

struct ClassScope {
  std::string name;
  std::string base_clause;  // Text between ':' and '{', empty if none.
  int decl_line = 0;
  size_t body_begin = 0;  // Just after '{'.
  size_t body_end = 0;    // At the matching '}'.
};

struct SerdeFn {
  std::string qualifier;  // "Platform" for Platform::SaveX or enclosing class.
  std::string prefix;     // Save | Restore | Write | Read.
  std::string suffix;     // Rest of the name ("PolicyState", "Framed", ...).
  std::string head;       // Signature text (return type through params).
  int line = 0;
  size_t body_begin = 0;
  size_t body_end = 0;
};

struct Scopes {
  std::vector<ClassScope> classes;
  std::vector<SerdeFn> serde_fns;
};

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// The identifier (plus optional "Qualifier::") immediately preceding the first
// top-level '(' of a scope head; empty when the head has no call-ish shape.
struct HeadName {
  std::string qualifier;
  std::string name;
};
HeadName FunctionNameOf(std::string_view head) {
  const size_t paren = head.find('(');
  if (paren == std::string_view::npos) {
    return {};
  }
  size_t e = paren;
  while (e > 0 && std::isspace(static_cast<unsigned char>(head[e - 1]))) {
    --e;
  }
  size_t b = e;
  while (b > 0 && IsIdentChar(head[b - 1])) {
    --b;
  }
  HeadName hn;
  hn.name = std::string(head.substr(b, e - b));
  // Optional qualifier chain; keep the last component.
  if (b >= 2 && head[b - 1] == ':' && head[b - 2] == ':') {
    size_t qe = b - 2;
    size_t qb = qe;
    while (qb > 0 && IsIdentChar(head[qb - 1])) {
      --qb;
    }
    hn.qualifier = std::string(head.substr(qb, qe - qb));
  }
  return hn;
}

bool ContainsWord(std::string_view text, std::string_view word) {
  size_t at = 0;
  while ((at = text.find(word, at)) != std::string_view::npos) {
    const bool left_ok = at == 0 || !IsIdentChar(text[at - 1]);
    const size_t end = at + word.size();
    const bool right_ok = end >= text.size() || !IsIdentChar(text[end]);
    if (left_ok && right_ok) {
      return true;
    }
    at = end;
  }
  return false;
}

// One forward pass over the stripped code classifying every brace scope. A
// serde-named function counts as a *definition* only when no enclosing scope
// is itself a function body — that is what separates `void SaveX(...) {` from
// a `SaveX(...)` call (or a RestoreEvent(...) lambda) inside another function.
Scopes ScanScopes(const Stripped& s) {
  Scopes out;
  enum class Kind { kNamespace, kClass, kFunction, kBlock };
  struct Open {
    Kind kind;
    size_t class_index = 0;  // Valid when kind == kClass.
  };
  std::vector<Open> stack;
  const std::string& code = s.code;
  size_t head_start = 0;
  int functions_open = 0;
  for (size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    if (c == ';' || c == '}') {
      head_start = i + 1;
      if (c == '}' && !stack.empty()) {
        const Open top = stack.back();
        stack.pop_back();
        if (top.kind == Kind::kClass) {
          out.classes[top.class_index].body_end = i;
        } else if (top.kind == Kind::kFunction) {
          --functions_open;
          if (functions_open == 0 && !out.serde_fns.empty() &&
              out.serde_fns.back().body_end == 0) {
            out.serde_fns.back().body_end = i;
          }
        }
      }
      continue;
    }
    if (c != '{') {
      continue;
    }
    const std::string_view head(code.data() + head_start, i - head_start);
    Open open{Kind::kBlock, 0};
    static const std::regex kClassRe(R"((class|struct)\s+([A-Za-z_]\w*))");
    std::cmatch m;
    if (ContainsWord(head, "namespace")) {
      open.kind = Kind::kNamespace;
    } else if (!ContainsWord(head, "enum") &&
               std::regex_search(head.begin(), head.end(), m, kClassRe)) {
      open.kind = Kind::kClass;
      ClassScope cls;
      cls.name = m[2];
      cls.decl_line = LineOf(s, head_start + static_cast<size_t>(m.position(2)));
      const size_t colon = head.find(':', static_cast<size_t>(m.position(2)));
      if (colon != std::string_view::npos &&
          (colon + 1 >= head.size() || head[colon + 1] != ':')) {
        cls.base_clause = std::string(head.substr(colon + 1));
      }
      cls.body_begin = i + 1;
      open.class_index = out.classes.size();
      out.classes.push_back(std::move(cls));
    } else if (head.find('(') != std::string_view::npos) {
      open.kind = Kind::kFunction;
      if (functions_open == 0) {
        const HeadName hn = FunctionNameOf(head);
        static const std::regex kSerdeName(
            R"(^(Save|Restore|Write|Read)([A-Za-z0-9_]*)$)");
        std::smatch nm;
        if (std::regex_match(hn.name, nm, kSerdeName)) {
          SerdeFn fn;
          fn.prefix = nm[1];
          fn.suffix = nm[2];
          fn.qualifier = hn.qualifier;
          if (fn.qualifier.empty()) {
            for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
              if (it->kind == Kind::kClass) {
                fn.qualifier = out.classes[it->class_index].name;
                break;
              }
            }
          }
          fn.head = std::string(head);
          fn.line = LineOf(s, head_start);
          // Skip leading blank lines of multi-line heads for the report line.
          const size_t first_char = head.find_first_not_of(" \t\n");
          if (first_char != std::string_view::npos) {
            fn.line = LineOf(s, head_start + first_char);
          }
          fn.body_begin = i + 1;
          fn.body_end = 0;  // Filled when the scope pops.
          out.serde_fns.push_back(std::move(fn));
        }
      }
      ++functions_open;
    }
    stack.push_back(open);
    head_start = i + 1;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-file state assembled before rules run.
// ---------------------------------------------------------------------------

struct FileState {
  std::string path;
  Stripped stripped;
  Scopes scopes;
  std::vector<std::string> unordered_names;  // Declared unordered containers.
};

bool PathContains(const std::string& path, std::string_view needle) {
  return path.find(needle) != std::string::npos;
}

// Collects names declared with an unordered container type, e.g.
// `std::unordered_map<K, V> counts;` or `const std::unordered_set<T>& live`.
std::vector<std::string> CollectUnorderedNames(const std::string& code) {
  std::vector<std::string> names;
  static const char* kTypes[] = {"unordered_map<", "unordered_set<",
                                 "unordered_multimap<", "unordered_multiset<"};
  for (const char* type : kTypes) {
    size_t at = 0;
    const size_t type_len = std::char_traits<char>::length(type);
    while ((at = code.find(type, at)) != std::string::npos) {
      size_t i = at + type_len;  // Just past '<'.
      int depth = 1;
      while (i < code.size() && depth > 0) {
        if (code[i] == '<') {
          ++depth;
        } else if (code[i] == '>') {
          --depth;
        }
        ++i;
      }
      // Skip cv/ref/ptr decoration, then read the declared identifier.
      while (i < code.size() &&
             (std::isspace(static_cast<unsigned char>(code[i])) ||
              code[i] == '&' || code[i] == '*')) {
        ++i;
      }
      size_t b = i;
      while (i < code.size() && IsIdentChar(code[i])) {
        ++i;
      }
      if (i > b) {
        names.emplace_back(code, b, i - b);
      }
      at += type_len;
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

// ---------------------------------------------------------------------------
// Rules.
// ---------------------------------------------------------------------------

void AddDiag(std::vector<Diagnostic>* diags, const std::string& file, int line,
             const char* rule, std::string message) {
  diags->push_back(Diagnostic{file, line, rule, std::move(message)});
}

// Rule: wall-clock + ambient-rng. Pure token scan over the stripped code.
void CheckBannedConstructs(const FileState& f, std::vector<Diagnostic>* diags) {
  static const std::regex kWallClock(
      R"(\b(time|clock)\s*\(|\b(gettimeofday|clock_gettime|timespec_get|mktime|localtime|gmtime|strftime|system_clock|steady_clock|high_resolution_clock)\b)");
  static const std::regex kAmbientRng(
      R"(\bsrand\b|\brand\s*\(|\b(random_device|mt19937|mt19937_64|minstd_rand|minstd_rand0|default_random_engine|ranlux24|ranlux48|knuth_b|random_shuffle|rand_r|drand48|lrand48)\b)");
  const bool rng_exempt = PathContains(f.path, "common/rng");
  std::istringstream lines(f.stripped.code);
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    ++n;
    std::smatch m;
    if (std::regex_search(line, m, kWallClock)) {
      const std::string tok = m[1].matched ? m[1].str() : m[2].str();
      AddDiag(diags, f.path, n, "wall-clock",
              "wall-clock call '" + tok +
                  "' — deterministic code consumes SimTime only "
                  "(docs/determinism.md)");
    }
    if (!rng_exempt && std::regex_search(line, m, kAmbientRng)) {
      AddDiag(diags, f.path, n, "ambient-rng",
              "ambient randomness '" + m.str() +
                  "' — all draws must flow through the seeded coldstart::Rng "
                  "substream tree (src/common/rng)");
    }
  }
}

// Rule: unordered-iter. Flags range-for over (and begin()/end() access to) any
// name declared as an unordered container in this file or its paired header.
void CheckUnorderedIteration(const FileState& f,
                             const std::vector<std::string>& names,
                             std::vector<Diagnostic>* diags) {
  static const char* kScopedDirs[] = {"src/platform", "src/policy",
                                      "src/analysis", "src/trace",
                                      "src/checkpoint"};
  bool in_scope = false;
  for (const char* dir : kScopedDirs) {
    in_scope = in_scope || PathContains(f.path, dir);
  }
  if (!in_scope || names.empty()) {
    return;
  }
  std::vector<std::pair<std::regex, std::string>> patterns;
  patterns.reserve(names.size() * 2);
  for (const std::string& name : names) {
    patterns.emplace_back(
        std::regex("\\bfor\\s*\\([^;()]*:\\s*" + name + "\\s*\\)"), name);
    // begin() starts an iteration; a bare end() (the `it != m.end()` half of a
    // find-result check) does not, so only the begin family is flagged.
    patterns.emplace_back(
        std::regex("\\b" + name + "\\s*\\.\\s*(c?r?begin)\\s*\\("), name);
  }
  std::istringstream lines(f.stripped.code);
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    ++n;
    for (const auto& [re, name] : patterns) {
      if (std::regex_search(line, re)) {
        AddDiag(diags, f.path, n, "unordered-iter",
                "iteration over unordered container '" + name +
                    "' in output-affecting code — hash order can leak into "
                    "results; sort first or use an ordered container");
        break;  // One diagnostic per line is enough.
      }
    }
  }
}

// Rule: serde-pair. Extracts ByteWriter/ByteReader call sequences from every
// Save*/Restore* (and Write*/Read*) definition and compares pairs.
struct SerdeSide {
  const SerdeFn* fn = nullptr;
  const FileState* file = nullptr;
  std::vector<std::string> ops;     // Call types in source order.
  std::vector<int> op_lines;        // Parallel to ops.
};

std::vector<std::string> SerdeVarNames(const SerdeFn& fn, const std::string& code,
                                       const char* type) {
  std::vector<std::string> vars;
  const std::regex re(std::string("\\b") + type + R"(\s*&?\s+([A-Za-z_]\w*))");
  const std::string text =
      fn.head + code.substr(fn.body_begin, fn.body_end - fn.body_begin);
  for (std::sregex_iterator it(text.begin(), text.end(), re), end; it != end;
       ++it) {
    vars.push_back((*it)[1]);
  }
  return vars;
}

void CollectOps(const FileState& f, const SerdeFn& fn, const char* var_type,
                SerdeSide* side) {
  const std::vector<std::string> vars =
      SerdeVarNames(fn, f.stripped.code, var_type);
  if (vars.empty()) {
    return;
  }
  static const std::regex kOp(
      R"(\b([A-Za-z_]\w*)\s*\.\s*(U8|U32|U64|I64|F64|Str|Raw)\s*\()");
  const char* begin = f.stripped.code.data() + fn.body_begin;
  const char* end = f.stripped.code.data() + fn.body_end;
  for (std::cregex_iterator it(begin, end, kOp), last; it != last; ++it) {
    const std::string receiver = (*it)[1];
    if (std::find(vars.begin(), vars.end(), receiver) != vars.end()) {
      side->ops.push_back((*it)[2]);
      side->op_lines.push_back(LineOf(
          f.stripped, fn.body_begin + static_cast<size_t>(it->position(0))));
    }
  }
}

std::string JoinOps(const std::vector<std::string>& ops) {
  std::string out;
  for (size_t i = 0; i < ops.size(); ++i) {
    out += (i > 0 ? "," : "") + ops[i];
  }
  return out;
}

void CheckSerdePairs(const std::vector<const FileState*>& unit,
                     std::vector<Diagnostic>* diags) {
  // Key: qualifier + "::" + suffix. Write pairs with Read, Save with Restore.
  std::map<std::string, SerdeSide> writers;
  std::map<std::string, SerdeSide> readers;
  for (const FileState* f : unit) {
    for (const SerdeFn& fn : f->scopes.serde_fns) {
      const bool is_writer = fn.prefix == "Save" || fn.prefix == "Write";
      const std::string key = fn.qualifier + "::" + fn.suffix;
      SerdeSide side;
      side.fn = &fn;
      side.file = f;
      CollectOps(*f, fn, is_writer ? "ByteWriter" : "ByteReader", &side);
      auto& table = is_writer ? writers : readers;
      // First definition wins; duplicate suffixes in one unit are rare
      // (template specializations) and collapse to the first occurrence.
      table.emplace(key, std::move(side));
    }
  }
  for (const auto& [key, save] : writers) {
    const auto restore_it = readers.find(key);
    if (restore_it == readers.end()) {
      if (!save.ops.empty()) {
        AddDiag(diags, save.file->path, save.fn->line, "serde-pair",
                save.fn->prefix + save.fn->suffix + " writes " +
                    std::to_string(save.ops.size()) +
                    " fields but has no matching " +
                    (save.fn->prefix == "Save" ? "Restore" : "Read") +
                    save.fn->suffix + " in this file — restore-side fields are "
                    "silently dropped");
      }
      continue;
    }
    const SerdeSide& restore = restore_it->second;
    if (save.ops == restore.ops) {
      continue;
    }
    size_t k = 0;
    while (k < save.ops.size() && k < restore.ops.size() &&
           save.ops[k] == restore.ops[k]) {
      ++k;
    }
    std::string detail;
    if (k < save.ops.size() && k < restore.ops.size()) {
      detail = "op #" + std::to_string(k + 1) + " writes " + save.ops[k] +
               " (line " + std::to_string(save.op_lines[k]) + ") but reads " +
               restore.ops[k] + " (" + restore.file->path + ":" +
               std::to_string(restore.op_lines[k]) + ")";
    } else if (k < save.ops.size()) {
      detail = "write side has " +
               std::to_string(save.ops.size() - restore.ops.size()) +
               " extra op(s) starting with " + save.ops[k] + " at line " +
               std::to_string(save.op_lines[k]);
    } else {
      detail = "read side has " +
               std::to_string(restore.ops.size() - save.ops.size()) +
               " extra op(s) starting with " + restore.ops[k] + " at " +
               restore.file->path + ":" + std::to_string(restore.op_lines[k]);
    }
    AddDiag(diags, save.file->path, save.fn->line, "serde-pair",
            save.fn->prefix + save.fn->suffix + " writes [" + JoinOps(save.ops) +
                "] but " + restore.fn->prefix + restore.fn->suffix + " reads [" +
                JoinOps(restore.ops) + "]: " + detail);
  }
}

// Rule: policy-hooks. A PlatformPolicy subclass that accumulates state must
// say how that state shards (CloneForShard) and checkpoints (SavePolicyState/
// RestorePolicyState) — or carry a LINT-ALLOW explaining why it cannot.
void CheckPolicyHooks(const FileState& f, std::vector<Diagnostic>* diags) {
  static const std::regex kMember(R"(\b([A-Za-z_]\w*_)\s*(;|\{|=[^=]))");
  for (const ClassScope& cls : f.scopes.classes) {
    if (!ContainsWord(cls.base_clause, "PlatformPolicy") ||
        cls.name == "PlatformPolicy") {
      continue;
    }
    const std::string body = f.stripped.code.substr(
        cls.body_begin, cls.body_end - cls.body_begin);
    std::set<std::string> members;
    for (std::sregex_iterator it(body.begin(), body.end(), kMember), end;
         it != end; ++it) {
      const std::string name = (*it)[1];
      if (name != "options_" && name != "platform_") {
        members.insert(name);
      }
    }
    if (members.empty()) {
      continue;  // Config-only policy: nothing to shard or checkpoint.
    }
    std::vector<std::string> missing;
    if (!ContainsWord(body, "CloneForShard")) {
      missing.emplace_back("CloneForShard");
    }
    if (!ContainsWord(body, "SavePolicyState") ||
        !ContainsWord(body, "RestorePolicyState")) {
      missing.emplace_back("SavePolicyState/RestorePolicyState");
    }
    if (missing.empty()) {
      continue;
    }
    std::string state;
    for (const std::string& m : members) {
      state += (state.empty() ? "" : ", ") + m;
    }
    std::string lacks;
    for (size_t i = 0; i < missing.size(); ++i) {
      lacks += (i > 0 ? " and " : "") + missing[i];
    }
    AddDiag(diags, f.path, cls.decl_line, "policy-hooks",
            "policy '" + cls.name + "' has mutable state (" + state +
                ") but no " + lacks +
                " — the state silently vanishes in sharded or checkpointed "
                "runs (platform/policy_hooks.h)");
  }
}

// ---------------------------------------------------------------------------
// Suppression + assembly.
// ---------------------------------------------------------------------------

struct Unit {
  std::vector<FileState> files;
};

Result RunRules(Unit& unit) {
  Result result;
  std::map<std::string, FileState*> by_path;
  for (FileState& f : unit.files) {
    by_path[f.path] = &f;
  }
  std::vector<Diagnostic> raw;
  std::vector<const FileState*> all;
  all.reserve(unit.files.size());
  for (FileState& f : unit.files) {
    all.push_back(&f);
    CheckBannedConstructs(f, &raw);
    CheckPolicyHooks(f, &raw);
    // Unordered declarations are merged from the paired header ("x.cc" reads
    // "x.h") so member containers flag at their .cc iteration sites.
    std::vector<std::string> names = f.unordered_names;
    if (f.path.size() > 3 && f.path.rfind(".cc") == f.path.size() - 3) {
      const std::string header = f.path.substr(0, f.path.size() - 3) + ".h";
      const auto it = by_path.find(header);
      if (it != by_path.end()) {
        names.insert(names.end(), it->second->unordered_names.begin(),
                     it->second->unordered_names.end());
      }
    }
    CheckUnorderedIteration(f, names, &raw);
  }
  // Serde pairing is per translation unit: a file plus its paired header.
  for (FileState& f : unit.files) {
    std::vector<const FileState*> tu{&f};
    if (f.path.size() > 3 && f.path.rfind(".cc") == f.path.size() - 3) {
      const auto it =
          by_path.find(f.path.substr(0, f.path.size() - 3) + ".h");
      if (it != by_path.end()) {
        tu.push_back(it->second);
      }
    }
    // Headers paired with a .cc in the unit are checked within that unit only
    // when their serde functions pair across the two files; standalone header
    // pairs (inline definitions) are covered by the header's own pass.
    CheckSerdePairs(tu, &raw);
  }
  // Deduplicate (a header processed standalone and as part of a .cc unit can
  // produce the same serde diagnostic twice).
  std::sort(raw.begin(), raw.end(), [](const Diagnostic& a, const Diagnostic& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });
  raw.erase(std::unique(raw.begin(), raw.end(),
                        [](const Diagnostic& a, const Diagnostic& b) {
                          return a.file == b.file && a.line == b.line &&
                                 a.rule == b.rule && a.message == b.message;
                        }),
            raw.end());

  // Apply LINT-ALLOW suppressions: same line or the line directly above.
  for (const Diagnostic& d : raw) {
    FileState* f = by_path[d.file];
    bool suppressed = false;
    for (const int line : {d.line, d.line - 1}) {
      const auto it = f->stripped.allows.find(line);
      if (it == f->stripped.allows.end()) {
        continue;
      }
      for (Allow& a : it->second) {
        if (!a.malformed && a.rule == d.rule) {
          a.used = true;
          result.allowed.push_back(Suppression{d.file, line, a.rule, a.reason});
          suppressed = true;
          break;
        }
      }
      if (suppressed) {
        break;
      }
    }
    if (!suppressed) {
      result.diagnostics.push_back(d);
    }
  }

  // Stale / malformed / unknown-rule allows.
  for (FileState& f : unit.files) {
    for (auto& [line, allows] : f.stripped.allows) {
      for (const Allow& a : allows) {
        if (a.malformed) {
          AddDiag(&result.diagnostics, f.path, line, "stale-allow",
                  "malformed LINT-ALLOW — expected "
                  "'LINT-ALLOW(rule): reason'");
        } else if (!IsKnownRule(a.rule)) {
          AddDiag(&result.diagnostics, f.path, line, "stale-allow",
                  "LINT-ALLOW names unknown rule '" + a.rule +
                      "' (see --list-rules)");
        } else if (!a.used) {
          AddDiag(&result.diagnostics, f.path, line, "stale-allow",
                  "stale LINT-ALLOW(" + a.rule +
                      ") — no such diagnostic fires here any more; delete the "
                      "annotation");
        }
      }
    }
  }

  std::sort(result.diagnostics.begin(), result.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  std::sort(result.allowed.begin(), result.allowed.end(),
            [](const Suppression& a, const Suppression& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return result;
}

}  // namespace

const std::vector<RuleInfo>& Rules() { return kRules; }

std::string FormatDiagnostic(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ": [" + d.rule + "] " +
         d.message;
}

Result LintFiles(const std::vector<FileInput>& files) {
  Unit unit;
  unit.files.reserve(files.size());
  for (const FileInput& in : files) {
    FileState f;
    f.path = in.path;
    f.stripped = Strip(in.content);
    f.scopes = ScanScopes(f.stripped);
    f.unordered_names = CollectUnorderedNames(f.stripped.code);
    unit.files.push_back(std::move(f));
  }
  return RunRules(unit);
}

bool LintTree(const std::string& root, Result* result) {
  namespace fs = std::filesystem;
  const fs::path src = fs::path(root) / "src";
  std::error_code ec;
  if (!fs::is_directory(src, ec)) {
    return false;
  }
  std::vector<std::string> paths;
  for (auto it = fs::recursive_directory_iterator(src, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) {
      return false;
    }
    if (!it->is_regular_file()) {
      continue;
    }
    const std::string ext = it->path().extension().string();
    if (ext == ".h" || ext == ".cc") {
      paths.push_back(it->path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<FileInput> inputs;
  inputs.reserve(paths.size());
  const std::string prefix = (fs::path(root) / "").string();
  for (const std::string& p : paths) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string rel = p;
    if (rel.rfind(prefix, 0) == 0) {
      rel = rel.substr(prefix.size());
    }
    inputs.push_back(FileInput{rel, buf.str()});
  }
  *result = LintFiles(inputs);
  return true;
}

}  // namespace coldstart::lint
