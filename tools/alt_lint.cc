// alt_lint: repo-specific correctness linter for the ALT codebase.
//
// Rules enforced on .h/.cc files under the directories given on the command
// line (normally <repo>/src):
//   L001  no `throw` in library code — error handling is Status/Result
//         (src/util/status.h); programmer errors abort via ALT_CHECK.
//   L002  include guards must be named ALT_<PATH>_H_, e.g.
//         src/util/logging.h -> ALT_SRC_UTIL_LOGGING_H_.
//   L003  banned call rand(): use alt::Rng (deterministic, seedable).
//   L004  banned call printf(): use ALT_LOG or util/table_printer.
//   L005  raw assert(): use ALT_CHECK* / ALT_DCHECK* from util/logging.h.
//   L006  raw std::chrono clock reads (steady_clock::now() etc.): telemetry
//         must go through the observability layer (obs::ScopedTimerMs /
//         obs::TraceSpan). src/obs and src/util (which implement the
//         primitives) are exempt.
//   L007  ad-hoc `*Stats` structs/classes outside src/obs: per-component
//         stats stores fragment observability; report through
//         obs::MetricsRegistry instead.
//   L008  discarded Status/Result return value: a statement consisting
//         solely of a call to a function declared as returning Status or
//         Result<...> silently drops the error. Handle it, return it
//         (ALT_RETURN_IF_ERROR), or waive the line. Function names are
//         collected from declarations across every scanned file, so a
//         call in one file is checked against a declaration in another.
//         Heuristic: calls used inside a larger expression (arguments,
//         conditions, assignments, member chains) are never flagged.
//   L009  raw float-buffer allocation (`new float[...]` or `malloc(`)
//         outside src/tensor: float storage must live in Tensor/
//         TensorStorage so the obs memory tracker accounts for it.
//         src/tensor (the accounted arena) and src/util are exempt.
//   L010  raw SIMD intrinsics (`_mm*` identifiers or
//         `#include <immintrin.h>`) outside src/tensor: ISA-specific code
//         must stay behind the dispatched kernel layer (cpu_features.h),
//         where the scalar contract and the ALT_SIMD override keep holding.
//   L011  direct ModelServer construction (stack instance, `new`, or
//         make_unique/make_shared) outside src/serving: serving goes
//         through the ServingClient facade (src/serving/serving_client.h),
//         which owns sharding, replication, failover and batching.
//   L012  shard lifecycle mutation outside src/serving/shard: direct
//         member calls to WorkerShard::Kill or the ring mutator
//         RemoveShard, and direct HashRing construction, bypass the
//         coordinator — its replica tables and the deploy-then-route
//         re-join invariant go stale.
//         Kill/rejoin/grow through ShardCoordinator (KillShard /
//         RejoinShard / AddShard) or the ServingClient facade. Bare
//         `AddShard(` member calls are deliberately not flagged: that name
//         is also the coordinator's own grow-the-fleet entry point, and
//         the construction ban already denies outsiders a ring to mutate.
//
// A violation can be waived by a comment on the same line:
//   `alt_lint: allow(L006): <reason>`
// Waivers are matched against the original (unstripped) line, so they live
// in normal comments.
//
// Comments, string literals, and char literals are stripped before token
// scanning, so prose mentions (e.g. "never throws" in a doc comment) do not
// trip rules, and token boundaries are respected (snprintf/ static_assert/
// srand do not match printf/assert/rand).
//
// Usage:
//   alt_lint <dir> [<dir>...]   lint all .h/.cc files under the dirs
//   alt_lint --self-test        run embedded known-bad/known-good snippets
//                               through the same scanner; exit 0 iff every
//                               rule fires where expected and nowhere else
//
// Standalone by design (standard library only): the linter must stay
// buildable even when the library it lints does not compile.

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

struct Violation {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Replaces comments and string/char literal contents with spaces, keeping
// newlines so line numbers survive. Handles //, /* */, "...", '...', and
// basic raw strings R"( ... )". A ' preceded by an identifier char is a
// digit separator (1'000'000), not a char literal.
std::string StripCommentsAndStrings(const std::string& in) {
  std::string out = in;
  size_t i = 0;
  const size_t n = in.size();
  auto blank = [&](size_t from, size_t to) {
    for (size_t k = from; k < to && k < n; ++k) {
      if (out[k] != '\n') out[k] = ' ';
    }
  };
  while (i < n) {
    const char c = in[i];
    if (c == '/' && i + 1 < n && in[i + 1] == '/') {
      size_t end = in.find('\n', i);
      if (end == std::string::npos) end = n;
      blank(i, end);
      i = end;
    } else if (c == '/' && i + 1 < n && in[i + 1] == '*') {
      size_t end = in.find("*/", i + 2);
      end = end == std::string::npos ? n : end + 2;
      blank(i, end);
      i = end;
    } else if (c == 'R' && i + 1 < n && in[i + 1] == '"' &&
               (i == 0 || !IsIdentChar(in[i - 1]))) {
      const size_t paren = in.find('(', i + 2);
      if (paren == std::string::npos) break;
      const std::string delim = ")" + in.substr(i + 2, paren - i - 2) + "\"";
      size_t end = in.find(delim, paren + 1);
      end = end == std::string::npos ? n : end + delim.size();
      blank(i, end);
      i = end;
    } else if (c == '"' || (c == '\'' && (i == 0 || !IsIdentChar(in[i - 1])))) {
      size_t j = i + 1;
      while (j < n && in[j] != c) {
        j += in[j] == '\\' ? 2 : 1;
      }
      blank(i + 1, j);  // Keep the quotes; they still delimit tokens.
      i = j < n ? j + 1 : n;
    } else {
      ++i;
    }
  }
  return out;
}

int LineOfOffset(const std::string& text, size_t offset) {
  return 1 + static_cast<int>(std::count(text.begin(),
                                         text.begin() +
                                             static_cast<std::ptrdiff_t>(
                                                 std::min(offset, text.size())),
                                         '\n'));
}

// Finds `token` at identifier boundaries in already-stripped text. A token
// ending in '(' only needs a left boundary (the paren is the right one).
void FindToken(const std::string& stripped, const std::string& token,
               const std::string& rule, const std::string& message,
               const std::string& file, std::vector<Violation>* out) {
  const bool call_like = !token.empty() && token.back() == '(';
  for (size_t pos = stripped.find(token); pos != std::string::npos;
       pos = stripped.find(token, pos + 1)) {
    if (pos > 0 && IsIdentChar(stripped[pos - 1])) continue;
    const size_t end = pos + token.size();
    if (!call_like && end < stripped.size() && IsIdentChar(stripped[end])) {
      continue;
    }
    out->push_back({file, LineOfOffset(stripped, pos), rule, message});
  }
}

// Finds `struct`/`class` declarations whose name ends in "Stats" (L007).
void FindStatsTypes(const std::string& stripped, const std::string& file,
                    std::vector<Violation>* out) {
  for (const char* kw : {"struct", "class"}) {
    const std::string token(kw);
    for (size_t pos = stripped.find(token); pos != std::string::npos;
         pos = stripped.find(token, pos + 1)) {
      if (pos > 0 && IsIdentChar(stripped[pos - 1])) continue;
      size_t j = pos + token.size();
      if (j < stripped.size() && IsIdentChar(stripped[j])) continue;
      while (j < stripped.size() &&
             std::isspace(static_cast<unsigned char>(stripped[j])) != 0) {
        ++j;
      }
      size_t name_end = j;
      while (name_end < stripped.size() && IsIdentChar(stripped[name_end])) {
        ++name_end;
      }
      const std::string name = stripped.substr(j, name_end - j);
      if (name.size() > 5 &&
          name.compare(name.size() - 5, 5, "Stats") == 0) {
        out->push_back(
            {file, LineOfOffset(stripped, pos), "L007",
             "ad-hoc stats type " + name +
                 "; report through obs::MetricsRegistry (src/obs/metrics.h)"});
      }
    }
  }
}

// L008 pass 1: records the names of functions declared (or defined) with a
// `Status name(` / `Result<...> name(` return type in already-stripped
// text. Variable declarations (`Status s = ...`) don't match: the token
// after the name must be '('.
void CollectStatusReturning(const std::string& stripped,
                            std::set<std::string>* names) {
  const size_t n = stripped.size();
  auto skip_ws = [&](size_t j) {
    while (j < n && std::isspace(static_cast<unsigned char>(stripped[j])) != 0)
      ++j;
    return j;
  };
  for (const char* ret : {"Status", "Result"}) {
    const std::string token(ret);
    const bool templated = token == "Result";
    for (size_t pos = stripped.find(token); pos != std::string::npos;
         pos = stripped.find(token, pos + 1)) {
      if (pos > 0 && IsIdentChar(stripped[pos - 1])) continue;
      size_t j = pos + token.size();
      if (j < n && IsIdentChar(stripped[j])) continue;  // e.g. StatusCode
      if (templated) {
        j = skip_ws(j);
        if (j >= n || stripped[j] != '<') continue;
        int depth = 0;
        for (; j < n; ++j) {
          if (stripped[j] == '<') ++depth;
          if (stripped[j] == '>' && --depth == 0) {
            ++j;
            break;
          }
        }
        if (depth != 0) continue;
      }
      j = skip_ws(j);
      size_t name_end = j;
      while (name_end < n && IsIdentChar(stripped[name_end])) ++name_end;
      if (name_end == j) continue;  // `Status::OK()`, `std::function<Status(`
      const size_t after = skip_ws(name_end);
      if (after < n && stripped[after] == '(') {
        names->insert(stripped.substr(j, name_end - j));
      }
    }
  }
}

// L008 pass 2: flags statements that consist solely of a call to a
// Status/Result-returning function — `Foo(x);`, `obj.Foo(x);`,
// `ns::Foo(x);` — i.e. the returned status is discarded. The scan is
// deliberately conservative: anything between the last statement boundary
// (';', '{', '}') and the call other than an identifier/receiver chain
// (idents, whitespace, '.', '->', '::') disqualifies the site, as does a
// leading `return`/`co_return` or a preceding identifier (that shape is
// the function's own declaration).
void FindDiscardedStatusCalls(const std::string& stripped,
                              const std::set<std::string>& names,
                              const std::string& file,
                              std::vector<Violation>* out) {
  const size_t n = stripped.size();
  for (const std::string& name : names) {
    const std::string token = name + "(";
    for (size_t pos = stripped.find(token); pos != std::string::npos;
         pos = stripped.find(token, pos + 1)) {
      if (pos > 0 && IsIdentChar(stripped[pos - 1])) continue;
      // Forward: the statement must end right after the call's ')'.
      size_t j = pos + name.size();
      int depth = 0;
      for (; j < n; ++j) {
        if (stripped[j] == '(') ++depth;
        if (stripped[j] == ')' && --depth == 0) {
          ++j;
          break;
        }
      }
      if (depth != 0) continue;
      while (j < n &&
             std::isspace(static_cast<unsigned char>(stripped[j])) != 0) {
        ++j;
      }
      if (j >= n || stripped[j] != ';') continue;
      // Backward: previous identifier means `Status Foo(`-style declaration.
      size_t p = pos;
      while (p > 0 &&
             std::isspace(static_cast<unsigned char>(stripped[p - 1])) != 0) {
        --p;
      }
      if (p > 0 && IsIdentChar(stripped[p - 1])) continue;
      // Walk to the statement boundary; only receiver-chain characters may
      // appear, and none of the statement's tokens may be a return keyword.
      bool discarded = true;
      std::string tokens;
      while (p > 0 && discarded) {
        const char c = stripped[p - 1];
        if (c == ';' || c == '{' || c == '}') break;
        if (IsIdentChar(c) || c == '.' || c == '-' || c == '>' || c == ':' ||
            std::isspace(static_cast<unsigned char>(c)) != 0) {
          tokens.insert(tokens.begin(), c);
          --p;
        } else {
          discarded = false;  // Part of a larger expression.
        }
      }
      if (!discarded) continue;
      std::istringstream words(tokens);
      std::string word;
      while (words >> word) {
        if (word == "return" || word == "co_return" || word == "co_await") {
          discarded = false;
          break;
        }
      }
      if (!discarded) continue;
      out->push_back(
          {file, LineOfOffset(stripped, pos), "L008",
           "discarded Status/Result value from call to " + name +
               "(); handle it, ALT_RETURN_IF_ERROR it, or waive the line"});
    }
  }
}

// L009: `new float [` with any whitespace between the tokens — a raw float
// buffer the obs memory tracker can never see.
void FindRawFloatNew(const std::string& stripped, const std::string& file,
                     std::vector<Violation>* out) {
  const size_t n = stripped.size();
  auto skip_ws = [&](size_t j) {
    while (j < n && std::isspace(static_cast<unsigned char>(stripped[j])) != 0)
      ++j;
    return j;
  };
  const std::string token = "new";
  for (size_t pos = stripped.find(token); pos != std::string::npos;
       pos = stripped.find(token, pos + 1)) {
    if (pos > 0 && IsIdentChar(stripped[pos - 1])) continue;
    size_t j = pos + token.size();
    if (j < n && IsIdentChar(stripped[j])) continue;  // e.g. newline_count
    j = skip_ws(j);
    if (stripped.compare(j, 5, "float") != 0) continue;
    j += 5;
    if (j < n && IsIdentChar(stripped[j])) continue;  // e.g. new FloatBufT
    j = skip_ws(j);
    if (j >= n || stripped[j] != '[') continue;
    out->push_back(
        {file, LineOfOffset(stripped, pos), "L009",
         "raw float buffer (new float[]); use Tensor/TensorStorage "
         "(src/tensor) so the obs memory tracker accounts for it"});
  }
}

// L010: SIMD intrinsics outside the kernel backend. Flags any identifier
// starting with `_mm` (covers _mm_/_mm256_/_mm512_ and the mask forms) and
// any <immintrin.h> include. Works on stripped text, so intrinsic names in
// comments or strings never fire.
void FindRawSimd(const std::string& stripped, const std::string& file,
                 std::vector<Violation>* out) {
  for (size_t pos = stripped.find("immintrin.h"); pos != std::string::npos;
       pos = stripped.find("immintrin.h", pos + 1)) {
    out->push_back(
        {file, LineOfOffset(stripped, pos), "L010",
         "<immintrin.h> outside src/tensor; ISA-specific code belongs in "
         "the dispatched kernel backend (src/tensor/cpu_features.h)"});
  }
  for (size_t pos = stripped.find("_mm"); pos != std::string::npos;
       pos = stripped.find("_mm", pos + 1)) {
    if (pos > 0 && IsIdentChar(stripped[pos - 1])) continue;
    out->push_back(
        {file, LineOfOffset(stripped, pos), "L010",
         "raw SIMD intrinsic (_mm*) outside src/tensor; call the "
         "dispatched kernels (src/tensor/kernels.h) instead"});
  }
}

// Shared construction scanner for L011/L012. Flags, for one `type` name:
//   - stack instances:      `serving::ModelServer server(&registry);`
//   - heap instances:       `new serving::ModelServer(...)`
//   - factory helpers:      `std::make_unique<serving::ModelServer>(...)`
// Pointer/reference uses (parameters, return types, members handed out by
// the facade) are deliberately not construction and never fire.
void FindDirectConstructionOf(const std::string& stripped,
                              const std::string& file, const char* type,
                              const char* rule, const std::string& advice,
                              std::vector<Violation>* out) {
  const size_t n = stripped.size();
  auto skip_ws = [&](size_t j) {
    while (j < n && std::isspace(static_cast<unsigned char>(stripped[j])) != 0)
      ++j;
    return j;
  };
  // The identifier token (word-wise) immediately before offset `pos`.
  auto prev_word = [&](size_t pos) {
    size_t e = pos;
    while (e > 0 &&
           std::isspace(static_cast<unsigned char>(stripped[e - 1])) != 0)
      --e;
    size_t b = e;
    while (b > 0 && IsIdentChar(stripped[b - 1])) --b;
    return stripped.substr(b, e - b);
  };
  const std::string token = type;
  for (size_t pos = stripped.find(token); pos != std::string::npos;
       pos = stripped.find(token, pos + 1)) {
    if (pos > 0 && IsIdentChar(stripped[pos - 1])) continue;
    size_t j = pos + token.size();
    if (j < n && IsIdentChar(stripped[j])) continue;  // Longer identifier.
    // Start of the (possibly namespace-qualified) type name, so
    // `new serving::ModelServer` sees the word before the qualifier.
    size_t q = pos;
    while (q > 0 && (IsIdentChar(stripped[q - 1]) || stripped[q - 1] == ':'))
      --q;
    const std::string before = prev_word(q);
    if (before == "class" || before == "struct" || before == "enum") {
      continue;  // Forward declarations are not construction.
    }
    if (before == "new") {
      out->push_back({file, LineOfOffset(stripped, pos), rule, advice});
      continue;
    }
    // make_unique<...ModelServer>(...) / make_shared — the token sits
    // inside the template argument, so look back past the '<'.
    if (q > 0 && stripped[q - 1] == '<') {
      const std::string helper = prev_word(q - 1);
      if (helper == "make_unique" || helper == "make_shared") {
        out->push_back({file, LineOfOffset(stripped, pos), rule, advice});
      }
      continue;
    }
    // Stack instance: the type name followed by a declarator identifier.
    j = skip_ws(j);
    if (j < n &&
        (std::isalpha(static_cast<unsigned char>(stripped[j])) != 0 ||
         stripped[j] == '_')) {
      out->push_back({file, LineOfOffset(stripped, pos), rule, advice});
    }
  }
}

// L011: direct construction of the serving internals outside the serving
// layer.
void FindDirectServingConstruction(const std::string& stripped,
                                   const std::string& file,
                                   std::vector<Violation>* out) {
  FindDirectConstructionOf(
      stripped, file, "ModelServer", "L011",
      "direct ModelServer construction outside src/serving; serve through "
      "the serving::ServingClient facade (src/serving/serving_client.h)",
      out);
}

// L012: shard lifecycle mutation outside the shard layer. Flags member
// calls `x.Kill(` / `x->Kill(` (WorkerShard teardown) and the ring
// mutator `RemoveShard`, plus direct HashRing construction. Qualified names (`WorkerShard::Kill` definitions) and
// longer identifiers (`KillShard`) never fire; `AddShard` is not scanned
// because it is also the coordinator's own facade entry point.
void FindDirectShardLifecycleMutation(const std::string& stripped,
                                      const std::string& file,
                                      std::vector<Violation>* out) {
  const size_t n = stripped.size();
  auto skip_ws = [&](size_t j) {
    while (j < n && std::isspace(static_cast<unsigned char>(stripped[j])) != 0)
      ++j;
    return j;
  };
  struct Banned {
    const char* token;
    const char* advice;
  };
  const Banned kMemberCalls[] = {
      {"Kill",
       "direct WorkerShard::Kill outside src/serving/shard; tear shards "
       "down through ShardCoordinator::KillShard (or "
       "ServingClient::KillShard) so routing and rebalancing stay "
       "consistent"},
      {"RemoveShard",
       "direct ring mutation outside src/serving/shard; membership changes "
       "go through ShardCoordinator::KillShard/RejoinShard so the replica "
       "table and the deploy-then-route re-join invariant hold"},
  };
  for (const Banned& banned : kMemberCalls) {
    const std::string token = banned.token;
    for (size_t pos = stripped.find(token); pos != std::string::npos;
         pos = stripped.find(token, pos + 1)) {
      if (pos > 0 && IsIdentChar(stripped[pos - 1])) continue;
      size_t j = pos + token.size();
      if (j < n && IsIdentChar(stripped[j])) continue;  // KillShard etc.
      // Member call only: preceded by `.` or `->`; `WorkerShard::Kill`
      // definitions and free functions named Kill are out of scope.
      const bool dot = pos > 0 && stripped[pos - 1] == '.';
      const bool arrow = pos > 1 && stripped[pos - 2] == '-' &&
                         stripped[pos - 1] == '>';
      if (!dot && !arrow) continue;
      j = skip_ws(j);
      if (j < n && stripped[j] == '(') {
        out->push_back(
            {file, LineOfOffset(stripped, pos), "L012", banned.advice});
      }
    }
  }
  FindDirectConstructionOf(
      stripped, file, "HashRing", "L012",
      "direct HashRing construction outside src/serving/shard; the "
      "coordinator owns the ring so shard admission and replica "
      "recomputation stay atomic",
      out);
}

// True for directories exempt from the shard-lifecycle rule L012: the shard
// layer itself (the coordinator owns membership).
bool InShardExemptDir(const std::string& path) {
  std::string norm = path;
  std::replace(norm.begin(), norm.end(), '\\', '/');
  return norm.rfind("src/serving/shard/", 0) == 0 ||
         norm.find("/src/serving/shard/") != std::string::npos;
}

// True for directories exempt from the serving-facade rule L011: the serving
// layer itself (it constructs and shims its own internals).
bool InServingExemptDir(const std::string& path) {
  std::string norm = path;
  std::replace(norm.begin(), norm.end(), '\\', '/');
  return norm.rfind("src/serving/", 0) == 0 ||
         norm.find("/src/serving/") != std::string::npos;
}

// True for directories exempt from the SIMD rule L010: the kernel backend.
bool InSimdExemptDir(const std::string& path) {
  std::string norm = path;
  std::replace(norm.begin(), norm.end(), '\\', '/');
  return norm.rfind("src/tensor/", 0) == 0 ||
         norm.find("/src/tensor/") != std::string::npos;
}

// True for directories exempt from the raw-allocation rule L009: the
// accounted tensor arena itself and src/util.
bool InRawAllocExemptDir(const std::string& path) {
  std::string norm = path;
  std::replace(norm.begin(), norm.end(), '\\', '/');
  for (const char* dir : {"src/tensor/", "src/util/"}) {
    if (norm.rfind(dir, 0) == 0 ||
        norm.find(std::string("/") + dir) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// True for directories exempt from the observability rules L006/L007: the
// obs layer itself and src/util, which implement the timing primitives.
bool InObsExemptDir(const std::string& path) {
  std::string norm = path;
  std::replace(norm.begin(), norm.end(), '\\', '/');
  for (const char* dir : {"src/obs/", "src/util/"}) {
    if (norm.rfind(dir, 0) == 0 ||
        norm.find(std::string("/") + dir) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// True when line `line` (1-based) of the original, unstripped content
// carries a same-line waiver comment for `rule`.
bool HasWaiver(const std::string& content, int line, const std::string& rule) {
  size_t start = 0;
  for (int l = 1; l < line; ++l) {
    start = content.find('\n', start);
    if (start == std::string::npos) return false;
    ++start;
  }
  size_t end = content.find('\n', start);
  if (end == std::string::npos) end = content.size();
  return content.substr(start, end - start)
             .find("alt_lint: allow(" + rule + ")") != std::string::npos;
}

// Expected include guard for a path like ".../src/util/logging.h":
// ALT_SRC_UTIL_LOGGING_H_. Empty when the path has no src/ component.
std::string ExpectedGuard(const std::string& path) {
  std::string norm = path;
  std::replace(norm.begin(), norm.end(), '\\', '/');
  size_t start = std::string::npos;
  if (norm.rfind("src/", 0) == 0) {
    start = 0;
  } else {
    const size_t at = norm.rfind("/src/");
    if (at != std::string::npos) start = at + 1;
  }
  if (start == std::string::npos) return "";
  std::string guard = "ALT_";
  for (size_t i = start; i < norm.size(); ++i) {
    const char c = norm[i];
    guard += IsIdentChar(c) ? static_cast<char>(std::toupper(
                                  static_cast<unsigned char>(c)))
                            : '_';
  }
  guard += '_';
  return guard;
}

bool IsHeader(const std::string& path) {
  return path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;
}

// Lints one file's contents. Exposed separately so --self-test can feed
// synthetic snippets through the exact production scanner. `status_fns` is
// the cross-file set of Status/Result-returning function names for L008;
// nullptr means "collect from this file alone" (self-test mode).
// `apply_waivers=false` keeps waived findings in the result — the --waivers
// report needs the pre-waiver list to detect stale waivers.
std::vector<Violation> LintContent(const std::string& path,
                                   const std::string& content,
                                   const std::set<std::string>* status_fns =
                                       nullptr,
                                   bool apply_waivers = true) {
  std::vector<Violation> v;
  const std::string stripped = StripCommentsAndStrings(content);
  std::set<std::string> local_fns;
  if (status_fns == nullptr) {
    CollectStatusReturning(stripped, &local_fns);
    status_fns = &local_fns;
  }
  FindDiscardedStatusCalls(stripped, *status_fns, path, &v);
  FindToken(stripped, "throw", "L001",
            "no exceptions in library code; return Status/Result "
            "(src/util/status.h) or ALT_CHECK", path, &v);
  FindToken(stripped, "rand(", "L003",
            "banned call rand(); use alt::Rng for deterministic seeding",
            path, &v);
  FindToken(stripped, "printf(", "L004",
            "banned call printf(); use ALT_LOG or util/table_printer", path,
            &v);
  FindToken(stripped, "assert(", "L005",
            "raw assert(); use ALT_CHECK*/ALT_DCHECK* (src/util/logging.h)",
            path, &v);
  if (!InObsExemptDir(path)) {
    for (const char* clock : {"steady_clock::now(", "system_clock::now(",
                              "high_resolution_clock::now("}) {
      FindToken(stripped, clock, "L006",
                "raw std::chrono timing; use obs::ScopedTimerMs or "
                "obs::TraceSpan (src/obs) so wall time has one source of "
                "truth",
                path, &v);
    }
    FindStatsTypes(stripped, path, &v);
  }
  if (!InRawAllocExemptDir(path)) {
    FindToken(stripped, "malloc(", "L009",
              "raw malloc(); float storage belongs in Tensor/TensorStorage "
              "(src/tensor) so the obs memory tracker accounts for it", path,
              &v);
    FindRawFloatNew(stripped, path, &v);
  }
  if (!InSimdExemptDir(path)) {
    FindRawSimd(stripped, path, &v);
  }
  if (!InServingExemptDir(path)) {
    FindDirectServingConstruction(stripped, path, &v);
  }
  if (!InShardExemptDir(path)) {
    FindDirectShardLifecycleMutation(stripped, path, &v);
  }
  // Same-line `alt_lint: allow(LXXX)` comments waive individual findings.
  if (apply_waivers) {
    v.erase(std::remove_if(v.begin(), v.end(),
                           [&](const Violation& x) {
                             return HasWaiver(content, x.line, x.rule);
                           }),
            v.end());
  }
  if (IsHeader(path)) {
    const std::string guard = ExpectedGuard(path);
    if (!guard.empty() &&
        (stripped.find("#ifndef " + guard) == std::string::npos ||
         stripped.find("#define " + guard) == std::string::npos)) {
      v.push_back({path, 1, "L002",
                   "include guard must be " + guard +
                       " (#ifndef/#define pair)"});
    }
  }
  return v;
}

// One `alt_lint: allow(Lxxx): reason` comment found in a file.
struct WaiverEntry {
  std::string file;
  int line = 0;
  std::string rule;
  std::string reason;
};

// Scans the original (unstripped) content for waiver comments. Multiple
// waivers on one line are all reported.
std::vector<WaiverEntry> CollectWaivers(const std::string& path,
                                        const std::string& content) {
  std::vector<WaiverEntry> out;
  const std::string token = "alt_lint: allow(";
  for (size_t pos = content.find(token); pos != std::string::npos;
       pos = content.find(token, pos + token.size())) {
    const size_t rule_start = pos + token.size();
    const size_t rule_end = content.find(')', rule_start);
    if (rule_end == std::string::npos) continue;
    WaiverEntry w;
    w.file = path;
    w.line = 1 + static_cast<int>(std::count(
                     content.begin(),
                     content.begin() + static_cast<std::ptrdiff_t>(pos), '\n'));
    w.rule = content.substr(rule_start, rule_end - rule_start);
    size_t reason_start = rule_end + 1;
    if (reason_start < content.size() && content[reason_start] == ':') {
      ++reason_start;
    }
    while (reason_start < content.size() && content[reason_start] == ' ') {
      ++reason_start;
    }
    size_t reason_end = content.find('\n', reason_start);
    if (reason_end == std::string::npos) reason_end = content.size();
    w.reason = content.substr(reason_start, reason_end - reason_start);
    out.push_back(std::move(w));
  }
  return out;
}

// --waivers: lists every waiver with its location and reason, and fails on
// stale ones — a waiver whose rule no longer fires on that exact line. The
// match is line-level on purpose: if the offending statement moved, the
// waiver moved with it or it is stale; a file-level match would let dead
// waivers suppress future regressions elsewhere in the file.
int RunWaiversReport(
    const std::vector<std::pair<std::string, std::string>>& files,
    const std::set<std::string>& status_fns) {
  std::vector<WaiverEntry> stale;
  int total = 0;
  for (const auto& [path, content] : files) {
    const std::vector<WaiverEntry> waivers = CollectWaivers(path, content);
    if (waivers.empty()) continue;
    const std::vector<Violation> raw =
        LintContent(path, content, &status_fns, /*apply_waivers=*/false);
    for (const WaiverEntry& w : waivers) {
      ++total;
      const bool fires = std::any_of(
          raw.begin(), raw.end(), [&](const Violation& x) {
            return x.line == w.line && x.rule == w.rule;
          });
      std::cout << w.file << ":" << w.line << ": [" << w.rule << "] "
                << (fires ? "" : "STALE ") << w.reason << "\n";
      if (!fires) stale.push_back(w);
    }
  }
  if (stale.empty()) {
    std::cout << "alt_lint: " << total << " waiver(s), none stale\n";
    return 0;
  }
  std::cerr << "alt_lint: " << stale.size() << " of " << total
            << " waiver(s) stale — the waived rule no longer fires on that "
               "line; delete the waiver or re-anchor it\n";
  return 1;
}

int RunSelfTest() {
  struct Case {
    const char* name;
    const char* path;
    const char* content;
    const char* expect_rule;  // nullptr => must be clean
  };
  const Case kCases[] = {
      {"throw in code", "src/x/bad.cc", "void F() { throw 1; }", "L001"},
      {"throw in comment ok", "src/x/ok.cc",
       "// this function never throws; throw is banned\nvoid F();", nullptr},
      {"throw in string ok", "src/x/ok2.cc",
       "const char* k = \"do not throw here\";", nullptr},
      {"rand call", "src/x/bad2.cc", "int R() { return rand(); }", "L003"},
      {"srand ok (boundary)", "src/x/ok3.cc", "void S() { srand(1); }",
       nullptr},
      {"printf call", "src/x/bad3.cc", "void P() { printf(\"x\"); }", "L004"},
      {"snprintf ok (boundary)", "src/x/ok4.cc",
       "void P(char* b) { snprintf(b, 2, \"x\"); }", nullptr},
      {"raw assert", "src/x/bad4.cc", "void A(int x) { assert(x > 0); }",
       "L005"},
      {"static_assert ok", "src/x/ok5.cc", "static_assert(1 + 1 == 2);",
       nullptr},
      {"bad include guard", "src/x/bad5.h",
       "#ifndef WRONG_H\n#define WRONG_H\n#endif\n", "L002"},
      {"good include guard", "src/x/ok6.h",
       "#ifndef ALT_SRC_X_OK6_H_\n#define ALT_SRC_X_OK6_H_\n"
       "#endif  // ALT_SRC_X_OK6_H_\n",
       nullptr},
      {"digit separator ok", "src/x/ok7.cc", "int k = 1'000'000;", nullptr},
      {"raw clock read", "src/x/bad6.cc",
       "auto t = std::chrono::steady_clock::now();", "L006"},
      {"clock read waived", "src/x/ok8.cc",
       "auto t = std::chrono::steady_clock::now();  "
       "// alt_lint: allow(L006): control-flow deadline\n",
       nullptr},
      {"clock read in src/util ok", "src/util/ok9.cc",
       "auto t = std::chrono::steady_clock::now();", nullptr},
      {"clock read in src/obs ok", "src/obs/ok10.cc",
       "auto t = std::chrono::high_resolution_clock::now();", nullptr},
      {"ad-hoc stats struct", "src/x/bad7.cc", "struct QueueStats { int n; };",
       "L007"},
      {"stats class waived", "src/x/ok11.cc",
       "class LatencyStats {  // alt_lint: allow(L007): thin view\n};\n",
       nullptr},
      {"stats-prefix name ok", "src/x/ok12.cc",
       "struct StatsCollector { int n; };", nullptr},
      {"discarded status call", "src/x/bad8.cc",
       "Status Save(int x);\nvoid F() { Save(1); }", "L008"},
      {"discarded result call", "src/x/bad9.cc",
       "Result<std::vector<int>> Load();\nvoid F() { Load(); }", "L008"},
      {"discarded via receiver chain", "src/x/bad10.cc",
       "struct S { Status Save(); };\nvoid F(S* s) { s->Save(); }", "L008"},
      {"returned status ok", "src/x/ok13.cc",
       "Status Save(int x);\nStatus F() { return Save(1); }", nullptr},
      {"assigned status ok", "src/x/ok14.cc",
       "Status Save(int x);\nvoid F() { Status s = Save(1); s.ok(); }",
       nullptr},
      {"macro-wrapped status ok", "src/x/ok15.cc",
       "Status Save(int x);\n"
       "Status F() { ALT_RETURN_IF_ERROR(Save(1)); return Save(2); }",
       nullptr},
      {"condition status ok", "src/x/ok16.cc",
       "Status Save(int x);\nvoid F() { if (!Save(1).ok()) { } }", nullptr},
      {"discarded call waived", "src/x/ok17.cc",
       "Status Save(int x);\n"
       "void F() { Save(1); }  // alt_lint: allow(L008): best-effort save\n",
       nullptr},
      {"raw float new", "src/x/bad11.cc",
       "float* F(int n) { return new float[n]; }", "L009"},
      {"raw float new spaced", "src/x/bad12.cc",
       "float* F(int n) { return new float [n]; }", "L009"},
      {"raw malloc", "src/x/bad13.cc",
       "void* F(int n) { return malloc(n); }", "L009"},
      {"float new in src/tensor ok", "src/tensor/ok18.cc",
       "float* F(int n) { return new float[n]; }", nullptr},
      {"float new waived", "src/x/ok19.cc",
       "float* F(int n) { return new float[n]; }  "
       "// alt_lint: allow(L009): interop buffer\n",
       nullptr},
      {"scalar float new ok", "src/x/ok20.cc",
       "float* F() { return new float(0.0f); }", nullptr},
      {"newline_count ident ok", "src/x/ok21.cc",
       "int newline_count = 0; int f = newline_count;", nullptr},
      {"raw intrinsic outside tensor", "src/nn/bad14.cc",
       "void F(float* y) { *y = _mm_cvtss_f32(v); }", "L010"},
      {"immintrin include outside tensor", "src/serving/bad15.cc",
       "#include <immintrin.h>\n", "L010"},
      {"intrinsic in src/tensor ok", "src/tensor/ok28.cc",
       "#include <immintrin.h>\n"
       "void F(float* y) { _mm256_storeu_ps(y, _mm256_setzero_ps()); }",
       nullptr},
      {"intrinsic waived", "src/x/ok29.cc",
       "void F() { _mm_pause(); }  "
       "// alt_lint: allow(L010): spin-wait hint, not compute\n",
       nullptr},
      {"intrinsic in comment ok", "src/x/ok30.cc",
       "// the _mm256_fmadd_ps path lives in src/tensor\nint F();",
       nullptr},
      {"mm-suffixed ident ok", "src/x/ok31.cc",
       "int latency_mm = 0; int f = latency_mm;", nullptr},
      {"direct ModelServer stack instance", "src/core/bad16.cc",
       "void F() { serving::ModelServer server(nullptr); }", "L011"},
      {"direct ModelServer via new", "src/core/bad17.cc",
       "void F() { auto* p = new serving::ModelServer(nullptr); }", "L011"},
      {"direct ModelServer via make_unique", "src/core/bad18.cc",
       "void F() { auto p = std::make_unique<serving::ModelServer>(); }",
       "L011"},
      {"ModelServer construction in src/serving ok", "src/serving/ok38.cc",
       "void F() { ModelServer server(nullptr); }", nullptr},
      {"ModelServer construction waived", "src/core/ok39.cc",
       "void F() { serving::ModelServer server(nullptr); }  "
       "// alt_lint: allow(L011): single-node tool, no sharding\n",
       nullptr},
      {"ModelServer pointer use ok", "src/core/ok40.cc",
       "serving::ModelServer* Engine();\n"
       "float F(serving::ModelServer& server);",
       nullptr},
      {"ModelServer forward declaration ok", "src/core/ok41.cc",
       "namespace serving { class ModelServer; }\nint F();", nullptr},
      {"ModelServer in comment ok", "src/core/ok42.cc",
       "// ModelServer server(...) is banned outside src/serving\nint F();",
       nullptr},
      {"unique_ptr member of ModelServer ok", "src/core/ok43.cc",
       "struct H { std::unique_ptr<serving::ModelServer> engine; };",
       nullptr},
      {"direct shard Kill outside shard layer", "src/core/bad19.cc",
       "void F(serving::shard::WorkerShard* w) { w->Kill(); }", "L012"},
      {"direct ring removal outside shard layer", "src/core/bad21.cc",
       "void F(serving::shard::HashRing& r) { r.RemoveShard(\"shard-1\"); }",
       "L012"},
      {"direct HashRing construction outside shard layer", "src/core/bad22.cc",
       "void F() { serving::shard::HashRing ring(64); }", "L012"},
      {"KillShard facade ok (boundary)", "src/core/ok44.cc",
       "void F(serving::ServingClient* c) { c->KillShard(\"shard-0\").ok(); }",
       nullptr},
      {"HashRing static hash ok", "src/app/ok45.cc",
       "uint64_t F(const std::string& s) "
       "{ return serving::shard::HashRing::KeyHash(s); }",
       nullptr},
      {"Kill in src/serving/shard ok", "src/serving/shard/ok46.cc",
       "void F(WorkerShard* w) { w->Kill(); }", nullptr},
      {"shard Kill waived", "src/core/ok47.cc",
       "void F(serving::shard::WorkerShard* w) { w->Kill(); }  "
       "// alt_lint: allow(L012): chaos-harness teardown\n",
       nullptr},
      {"Kill definition qualified ok", "src/core/ok48.cc",
       "void WorkerShard::Kill() { }", nullptr},
      {"Kill in comment ok", "src/core/ok49.cc",
       "// w->Kill() is banned outside the shard layer\nint F();", nullptr},
      // Banned tokens inside string literals and block comments must never
      // fire — the scanner works on stripped text.
      {"rand in string ok", "src/x/ok22.cc",
       "const char* k = \"seed with rand() is banned\";", nullptr},
      {"rand in block comment ok", "src/x/ok23.cc",
       "/* never call rand( ) here; rand() drifts */\nint F();", nullptr},
      {"printf in string ok", "src/x/ok24.cc",
       "const char* k = \"printf(%d) style\";", nullptr},
      {"printf in block comment ok", "src/x/ok25.cc",
       "/* printf(\"x\") would bypass ALT_LOG */\nint F();", nullptr},
      {"assert in string ok", "src/x/ok26.cc",
       "const char* k = \"assert(x) considered harmful\";", nullptr},
      {"assert in block comment ok", "src/x/ok27.cc",
       "/* assert(ptr) loses the message; use ALT_CHECK */\nint F();",
       nullptr},
      {"clock read in block comment ok", "src/x/ok28.cc",
       "/* std::chrono::steady_clock::now() is the raw form */\nint F();",
       nullptr},
      {"clock read in string ok", "src/x/ok29.cc",
       "const char* k = \"steady_clock::now( value\";", nullptr},
      {"stats struct in string ok", "src/x/ok30.cc",
       "const char* k = \"struct QueueStats is deprecated\";", nullptr},
      {"stats struct in block comment ok", "src/x/ok31.cc",
       "/* struct LatencyStats { int n; }; was removed */\nint F();", nullptr},
      {"discarded status call in comment ok", "src/x/ok32.cc",
       "Status Save(int x);\n/* plain Save(1); discards the status */\n"
       "Status F() { return Save(1); }",
       nullptr},
      {"discarded status call in string ok", "src/x/ok33.cc",
       "Status Save(int x);\nconst char* k = \"call Save(1); and check\";\n"
       "Status F() { return Save(1); }",
       nullptr},
      {"malloc in string ok", "src/x/ok34.cc",
       "const char* k = \"malloc(n) bypasses the tracker\";", nullptr},
      {"malloc in block comment ok", "src/x/ok35.cc",
       "/* malloc(64) would not be tracked */\nint F();", nullptr},
      {"float new in block comment ok", "src/x/ok36.cc",
       "/* new float[n] must go through TensorStorage */\nint F();", nullptr},
      {"float new in string ok", "src/x/ok37.cc",
       "const char* k = \"new float[8] is banned\";", nullptr},
  };
  int failures = 0;
  for (const Case& c : kCases) {
    const std::vector<Violation> v = LintContent(c.path, c.content);
    bool ok;
    if (c.expect_rule == nullptr) {
      ok = v.empty();
    } else {
      ok = v.size() == 1 && v[0].rule == c.expect_rule;
    }
    if (!ok) {
      ++failures;
      std::cerr << "self-test FAIL: " << c.name << " (expected "
                << (c.expect_rule ? c.expect_rule : "clean") << ", got "
                << v.size() << " violation(s)";
      for (const Violation& x : v) std::cerr << " " << x.rule;
      std::cerr << ")\n";
    }
  }
  if (failures == 0) {
    std::cout << "alt_lint self-test: all "
              << sizeof(kCases) / sizeof(kCases[0]) << " cases passed\n";
    return 0;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: alt_lint [--waivers] <dir> [<dir>...] | "
                 "alt_lint --self-test\n";
    return 2;
  }
  if (std::string(argv[1]) == "--self-test") {
    return RunSelfTest();
  }
  bool waivers_mode = false;
  int first_dir = 1;
  if (std::string(argv[1]) == "--waivers") {
    waivers_mode = true;
    first_dir = 2;
    if (argc < 3) {
      std::cerr << "usage: alt_lint --waivers <dir> [<dir>...]\n";
      return 2;
    }
  }
  // Pass 1: read every file and collect the cross-file set of
  // Status/Result-returning function names (L008). Pass 2: lint each file
  // against that shared set.
  std::vector<Violation> all;
  std::vector<std::pair<std::string, std::string>> files;  // path, content
  std::set<std::string> status_fns;
  for (int a = first_dir; a < argc; ++a) {
    const std::filesystem::path root(argv[a]);
    if (!std::filesystem::exists(root)) {
      std::cerr << "alt_lint: no such directory: " << root << "\n";
      return 2;
    }
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".cc") continue;
      std::ifstream in(entry.path());
      if (!in) {
        all.push_back({entry.path().string(), 0, "L000", "cannot read file"});
        continue;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      files.emplace_back(entry.path().generic_string(), buf.str());
      CollectStatusReturning(StripCommentsAndStrings(files.back().second),
                             &status_fns);
    }
  }
  if (waivers_mode) {
    return RunWaiversReport(files, status_fns);
  }
  const int files_scanned = static_cast<int>(files.size());
  for (const auto& [path, content] : files) {
    std::vector<Violation> v = LintContent(path, content, &status_fns);
    all.insert(all.end(), v.begin(), v.end());
  }
  for (const Violation& v : all) {
    std::cerr << v.file << ":" << v.line << ": [" << v.rule << "] "
              << v.message << "\n";
  }
  if (all.empty()) {
    std::cout << "alt_lint: " << files_scanned << " files clean\n";
    return 0;
  }
  std::cerr << "alt_lint: " << all.size() << " violation(s) in "
            << files_scanned << " files\n";
  return 1;
}
