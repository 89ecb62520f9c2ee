// Token-sequence rules: the peega_lint rule set re-hosted on the real
// lexer. Working on tokens (not stripped text) means a needle inside a
// comment, string, or raw string can never fire — the lexer already
// removed it — and positions are exact token coordinates.

#include <cctype>
#include <string>
#include <vector>

#include "passes.h"

namespace repro::analyze::passes {

namespace {

enum class NeedleKind {
  kQualified,  // `::`-joined identifier path, e.g. std::thread
  kCall,       // bare function call: ident immediately called, not a
               // member access and not a longer identifier
  kHeader,     // header name of an #include (quoted or angle)
};

struct TokenRule {
  NeedleKind kind;
  std::vector<std::string> parts;  // qualified path, or single name
  bool last_is_prefix;             // "mt19937" also hits mt19937_64
  const char* only_prefix;    // non-empty: rule applies only under this
  const char* exempt_prefix;  // non-empty: files under this are exempt
  const char* message;
};

void ScanRules(const AnalysisContext& ctx, const char* pass_name,
               const std::vector<TokenRule>& rules,
               std::vector<Finding>* out) {
  const PassInfo* info = FindPass(pass_name);
  for (const SourceFile& file : *ctx.files) {
    for (const TokenRule& rule : rules) {
      if (rule.only_prefix[0] != '\0' &&
          file.rel.rfind(rule.only_prefix, 0) != 0) {
        continue;
      }
      if (rule.exempt_prefix[0] != '\0' &&
          file.rel.rfind(rule.exempt_prefix, 0) == 0) {
        continue;
      }
      const std::vector<Token>& toks = file.tokens;
      for (size_t i = 0; i < toks.size(); ++i) {
        bool hit = false;
        switch (rule.kind) {
          case NeedleKind::kQualified:
            // Reject matches that continue a longer qualified name on
            // the left (foo::std::thread).
            hit = MatchQualified(toks, i, rule.parts, rule.last_is_prefix) &&
                  (i == 0 || !toks[i - 1].IsPunct("::"));
            break;
          case NeedleKind::kCall: {
            if (!toks[i].IsIdent(rule.parts[0].c_str())) break;
            const bool member =
                i > 0 && (toks[i - 1].IsPunct(".") ||
                          toks[i - 1].IsPunct("->") ||
                          toks[i - 1].IsPunct("::"));
            hit = !member && i + 1 < toks.size() && toks[i + 1].IsPunct("(");
            break;
          }
          case NeedleKind::kHeader:
            hit = (toks[i].kind == TokenKind::kQuotedHeader ||
                   toks[i].kind == TokenKind::kAngleHeader) &&
                  toks[i].text == rule.parts[0];
            break;
        }
        if (hit) {
          std::string shown;
          for (size_t p = 0; p < rule.parts.size(); ++p) {
            if (p > 0) shown += "::";
            shown += rule.parts[p];
          }
          out->push_back(Finding{pass_name, file.rel, toks[i].line,
                                 toks[i].col, shown + ": " + rule.message,
                                 info != nullptr ? info->fixit : "",
                                 info != nullptr ? info->severity
                                                 : Severity::kError});
        }
      }
    }
  }
}

}  // namespace

void NoRawThread(const AnalysisContext& ctx, std::vector<Finding>* out) {
  static const std::vector<TokenRule> kRules = {
      {NeedleKind::kQualified, {"std", "thread"}, false, "src/",
       "src/parallel/",
       "raw std::thread outside src/parallel breaks the deterministic "
       "thread-pool contract"},
      {NeedleKind::kQualified, {"std", "jthread"}, false, "src/",
       "src/parallel/", "raw std::jthread outside src/parallel"},
      {NeedleKind::kQualified, {"std", "async"}, false, "src/",
       "src/parallel/", "std::async outside src/parallel"},
  };
  ScanRules(ctx, "no-raw-thread", kRules, out);
}

void NoUnseededRng(const AnalysisContext& ctx, std::vector<Finding>* out) {
  static const std::vector<TokenRule> kRules = {
      {NeedleKind::kQualified, {"std", "random_device"}, false, "src/",
       "src/linalg/random",
       "std::random_device is nondeterministic; all randomness must flow "
       "through the seeded linalg::Rng"},
      {NeedleKind::kQualified, {"std", "mt19937"}, true, "src/",
       "src/linalg/random",
       "raw std::mt19937 outside src/linalg/random; construct a "
       "linalg::Rng with an explicit seed instead"},
      {NeedleKind::kCall, {"rand"}, false, "src/", "src/linalg/random",
       "rand() is unseeded global state; use the seeded linalg::Rng"},
      {NeedleKind::kCall, {"srand"}, false, "src/", "src/linalg/random",
       "srand() mutates global RNG state; use the seeded linalg::Rng"},
  };
  ScanRules(ctx, "no-unseeded-rng", kRules, out);
}

void NoStdout(const AnalysisContext& ctx, std::vector<Finding>* out) {
  static const std::vector<TokenRule> kRules = {
      {NeedleKind::kQualified, {"std", "cout"}, false, "src/", "",
       "libraries must not write to stdout; return strings or take an "
       "std::ostream& so the eval/table layer owns the output format"},
  };
  ScanRules(ctx, "no-stdout", kRules, out);
}

void NoRawChrono(const AnalysisContext& ctx, std::vector<Finding>* out) {
  static const std::vector<TokenRule> kRules = {
      {NeedleKind::kQualified, {"std", "chrono"}, false, "src/",
       "src/obs/",
       "raw std::chrono outside src/obs; time with obs::StopWatch (or an "
       "obs::TraceSpan) so every duration is observable in one place"},
  };
  ScanRules(ctx, "no-raw-chrono", kRules, out);
}

void NoRawIntrinsics(const AnalysisContext& ctx, std::vector<Finding>* out) {
  static const std::vector<TokenRule> kRules = {
      {NeedleKind::kHeader, {"immintrin.h"}, false, "src/",
       "src/linalg/kernels/",
       "x86 intrinsics outside src/linalg/kernels bypass SIMD dispatch; "
       "add a kernel variant to the op's KernelTable instead"},
      {NeedleKind::kHeader, {"arm_neon.h"}, false, "src/",
       "src/linalg/kernels/",
       "NEON intrinsics outside src/linalg/kernels bypass SIMD dispatch; "
       "add a kernel variant to the op's KernelTable instead"},
      {NeedleKind::kQualified, {"_mm256_"}, true, "src/",
       "src/linalg/kernels/",
       "AVX2 intrinsics outside src/linalg/kernels bypass SIMD dispatch "
       "and the differential-test suite"},
      {NeedleKind::kQualified, {"_mm_"}, true, "src/",
       "src/linalg/kernels/",
       "SSE intrinsics outside src/linalg/kernels bypass SIMD dispatch "
       "and the differential-test suite"},
      {NeedleKind::kQualified, {"vld1q_"}, true, "src/",
       "src/linalg/kernels/",
       "NEON intrinsics outside src/linalg/kernels bypass SIMD dispatch "
       "and the differential-test suite"},
  };
  ScanRules(ctx, "no-raw-intrinsics", kRules, out);
}

void NoAbortOnInput(const AnalysisContext& ctx, std::vector<Finding>* out) {
  // graph/io parses bytes an adversary may control (PR-5 failure
  // model): malformed input must surface as a status::Status with
  // file/line context, never as a process abort. The only rule scoped
  // BY an only_prefix instead of exempted by one.
  static const std::vector<TokenRule> kRules = {
      {NeedleKind::kQualified, {"PEEGA_CHECK"}, true, "src/graph/io", "",
       "PEEGA_CHECK on externally sourced data aborts the process; return "
       "status::InvalidInput/IoError with file/line context instead"},
      {NeedleKind::kQualified, {"PEEGA_DCHECK"}, true, "src/graph/io", "",
       "PEEGA_DCHECK on externally sourced data aborts debug builds; "
       "return status::InvalidInput/IoError with file/line context "
       "instead"},
  };
  ScanRules(ctx, "no-abort-on-input", kRules, out);
}

void DenseRoundtrip(const AnalysisContext& ctx, std::vector<Finding>* out) {
  // Files allowed to densify an adjacency, each for a stated reason.
  // Everything else under src/core + src/attack commits CSR-natively
  // (graph::WithFlips / PeegaEngine::PoisonedAdjacency); a new ToDense()
  // there silently reinstates the O(N²) memory wall the scale path
  // removed, long before any test notices.
  static const char* const kAllowlist[] = {
      "src/attack/common.h",   // DenseToAdjacency's own declaration
      "src/attack/common.cc",  // ... and definition
      "src/attack/pgd.cc",     // relaxed (continuous) perturbation is dense
      "src/attack/greedy.h",   // TapeOracle: the tape's input is dense
  };
  const PassInfo* info = FindPass("dense-roundtrip");
  for (const SourceFile& file : *ctx.files) {
    if (file.rel.rfind("src/core/", 0) != 0 &&
        file.rel.rfind("src/attack/", 0) != 0) {
      continue;
    }
    bool allowed = false;
    for (const char* path : kAllowlist) allowed = allowed || file.rel == path;
    if (allowed) continue;
    const std::vector<Token>& toks = file.tokens;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      const bool is_needle = toks[i].IsIdent("ToDense") ||
                             toks[i].IsIdent("DenseToAdjacency");
      // Unlike NeedleKind::kCall, member/qualified spellings count:
      // `adjacency.ToDense()` IS the hazard this pass exists for.
      if (!is_needle || !toks[i + 1].IsPunct("(")) continue;
      out->push_back(Finding{
          "dense-roundtrip", file.rel, toks[i].line, toks[i].col,
          toks[i].text +
              "(): dense O(N²) adjacency round-trip on the sparse-first "
              "path; commit via graph::WithFlips or the engine's sparse "
              "state (or allowlist the file with a justification)",
          info != nullptr ? info->fixit : "",
          info != nullptr ? info->severity : Severity::kError});
    }
  }
}

void HeaderGuard(const AnalysisContext& ctx, std::vector<Finding>* out) {
  const PassInfo* info = FindPass("header-guard");
  for (const SourceFile& file : *ctx.files) {
    if (!file.IsHeader()) continue;
    // Guard symbol: PEEGA_ + repo-relative path uppercased, with the
    // leading src/ dropped (bench/tools/tests keep their prefix).
    std::string path = file.rel;
    if (path.rfind("src/", 0) == 0) path = path.substr(4);
    std::string expected = "PEEGA_";
    for (const char c : path) {
      expected += IsIdentChar(c)
                      ? static_cast<char>(
                            std::toupper(static_cast<unsigned char>(c)))
                      : '_';
    }
    expected += '_';

    // The first code token must open the guard: `#ifndef` + the symbol
    // (leading `#pragma` lines are tolerated for `#pragma once` files
    // that also carry a guard).
    bool checked = false;
    for (size_t i = 0; i < file.tokens.size() && !checked; ++i) {
      const Token& tok = file.tokens[i];
      if (tok.Is(TokenKind::kDirective, "#pragma")) {
        const int pragma_line = tok.line;
        while (i + 1 < file.tokens.size() &&
               file.tokens[i + 1].line == pragma_line) {
          ++i;
        }
        continue;
      }
      checked = true;
      if (tok.Is(TokenKind::kDirective, "#ifndef") &&
          i + 1 < file.tokens.size() &&
          file.tokens[i + 1].kind == TokenKind::kIdentifier) {
        const Token& sym = file.tokens[i + 1];
        if (sym.text != expected) {
          out->push_back(Finding{"header-guard", file.rel, sym.line, sym.col,
                                 "guard '" + sym.text + "' should be '" +
                                     expected +
                                     "' (PEEGA_ + path, src/ stripped)",
                                 info->fixit, info->severity});
        }
      } else {
        out->push_back(Finding{"header-guard", file.rel, tok.line, tok.col,
                               "missing include guard; expected #ifndef " +
                                   expected,
                               info->fixit, info->severity});
      }
    }
    if (!checked && !file.tokens.empty()) {
      out->push_back(Finding{"header-guard", file.rel, 1, 1,
                             "missing include guard; expected #ifndef " +
                                 expected,
                             info->fixit, info->severity});
    }
  }
}

}  // namespace repro::analyze::passes
