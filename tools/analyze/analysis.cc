#include "analysis.h"

#include <algorithm>
#include <tuple>

#include "passes.h"

namespace repro::analyze {

const char* SeverityName(Severity s) {
  switch (s) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kNote:
      return "note";
  }
  return "none";
}

const SourceFile* AnalysisContext::FindFile(const std::string& rel) const {
  for (const SourceFile& f : *files) {
    if (f.rel == rel) return &f;
  }
  return nullptr;
}

const std::vector<PassInfo>& PassRegistry() {
  static const std::vector<PassInfo>* const registry = new std::vector<
      PassInfo>{
      {"no-raw-thread", Severity::kError,
       "No std::thread/std::jthread/std::async outside src/parallel. "
       "Exactly one layer owns threads; everything else is serial "
       "orchestration over parallel kernels, which is what makes results "
       "bitwise-identical at any thread count.",
       "route the work through parallel::ParallelFor / ParallelReduce",
       &passes::NoRawThread},
      {"no-unseeded-rng", Severity::kError,
       "No std::random_device, raw std::mt19937, rand(), or srand() "
       "outside src/linalg/random. Unseeded or global RNG state would "
       "silently skew the paper's tables between runs.",
       "construct a linalg::Rng with an explicit seed",
       &passes::NoUnseededRng},
      {"no-stdout", Severity::kError,
       "No std::cout in src/ libraries. The eval/table layer owns the "
       "output format; libraries return strings or take an "
       "std::ostream&.",
       "return a string or take an std::ostream& parameter",
       &passes::NoStdout},
      {"no-raw-chrono", Severity::kError,
       "No std::chrono outside src/obs. All timing flows through "
       "obs::StopWatch / obs::TraceSpan so every measured duration lands "
       "in one observable place.",
       "time with obs::StopWatch or an obs::TraceSpan",
       &passes::NoRawChrono},
      {"no-raw-intrinsics", Severity::kError,
       "SIMD intrinsics (immintrin.h/arm_neon.h includes, _mm*/vld1q* "
       "identifiers) only inside src/linalg/kernels/. Vector code must "
       "be reachable only through the dispatch tables so the CPUID gate "
       "and the registry's differential tests cover every SIMD "
       "instruction in the tree.",
       "add a kernel variant to the op's KernelTable in "
       "src/linalg/kernels/",
       &passes::NoRawIntrinsics},
      {"no-abort-on-input", Severity::kError,
       "No PEEGA_CHECK/PEEGA_DCHECK in src/graph/io. Parsers of "
       "externally sourced bytes must return a status::Status with "
       "file/line context, never abort the process.",
       "return status::InvalidInput/IoError with file/line context",
       &passes::NoAbortOnInput},
      {"header-guard", Severity::kError,
       "Headers guard with PEEGA_<PATH>_H_, where <PATH> is the "
       "repo-relative path (src/ stripped) uppercased.",
       "rename the guard to PEEGA_ + the file's path",
       &passes::HeaderGuard},
      {"include-cycle", Severity::kError,
       "No #include cycles among analyzed files. Cycles make build "
       "order fragile and always indicate a layering knot.",
       "break the cycle by splitting an interface header or inverting "
       "the dependency",
       &passes::IncludeCycle},
      {"layering", Severity::kError,
       "Every #include edge between src/ modules must appear in the "
       "layer DAG (the table in ARCHITECTURE.md, encoded in "
       "tools/analyze/passes_graph.cc). An undeclared edge is a layer "
       "violation even if it happens to compile today.",
       "depend on a lower layer, or amend the DAG in passes_graph.cc "
       "AND ARCHITECTURE.md together",
       &passes::Layering},
      {"status-discipline", Severity::kError,
       "A statement that calls a Status/StatusOr-returning function and "
       "discards the result loses a failure signal: deadline expiries "
       "and IO errors would vanish. Results must be returned, assigned, "
       "checked with .ok(), propagated via PEEGA_RETURN_IF_ERROR / "
       "PEEGA_ASSIGN_OR_RETURN, or explicitly dropped with "
       ".IgnoreError().",
       "propagate with PEEGA_RETURN_IF_ERROR, branch on .ok(), or call "
       ".IgnoreError() to document the drop",
       &passes::StatusDiscipline},
      {"determinism-hazard", Severity::kError,
       "In src/linalg and src/core (the determinism-critical layers): "
       "no std::reduce/std::transform_reduce (reassociates float "
       "accumulation) and no unordered containers (iteration order "
       "varies across standard libraries and hash seeds). Everywhere in "
       "src/ outside src/linalg/kernels/: no FP-relaxation pragmas "
       "(fp_contract, float_control, fast-math) — rounding contracts "
       "are owned by the kernel TUs and their build flags.",
       "accumulate with an ordered loop or parallel::ParallelReduce; "
       "use sorted containers or index vectors",
       &passes::DeterminismHazard},
      {"fp-contract-sync", Severity::kError,
       "Cross-checks src/linalg/op_registry.cc against "
       "src/linalg/CMakeLists.txt: every op declared kLanePerOutput "
       "promises separate mul/add rounding in every variant, so each "
       "variant's kernel TU must be on the -ffp-contract=off "
       "PEEGA_KERNEL_SOURCES list. A TU missing from the list could "
       "silently fuse mul+add into FMA and break cross-variant bitwise "
       "equality.",
       "add the kernel TU to PEEGA_KERNEL_SOURCES in "
       "src/linalg/CMakeLists.txt",
       &passes::FpContractSync},
      {"hot-loop-alloc", Severity::kWarning,
       "No operator new/malloc inside loops, and no "
       "push_back/emplace_back in a loop on a container that never sees "
       "reserve()/resize(), in files tagged hot (the SIMD kernel TUs, "
       "linalg/incremental, core/peega_engine). Per-iteration "
       "allocation in those files is a measurable regression on the "
       "attack hot path.",
       "hoist the allocation out of the loop or reserve() the container "
       "before entering it",
       &passes::HotLoopAlloc},
      {"capi-boundary", Severity::kError,
       "In src/capi (the stable C ABI): every extern \"C\" function must "
       "be gg_-prefixed, keep C++ tokens (std, ::, &, class) out of its "
       "signature so graphguard.h stays compilable as C11, and wrap its "
       "entire body in try { ... } catch (...) — an exception unwinding "
       "into a C caller is undefined behavior. Helper functions without "
       "the extern \"C\" marker are exempt; translating between the two "
       "worlds is what the shim is for.",
       "rename the symbol gg_*, move C++ types behind the opaque "
       "gg_ctx, and wrap the body in try { ... } catch (...) returning "
       "GG_INTERNAL",
       &passes::CapiBoundary},
      {"dense-roundtrip", Severity::kError,
       "No ToDense() / DenseToAdjacency() in src/core or src/attack "
       "outside the explicit allowlist of dense-by-design files. The "
       "PEEGA hot path commits flips CSR-natively (graph::WithFlips, "
       "PeegaEngine::PoisonedAdjacency); densifying an adjacency "
       "reintroduces the O(N²) memory wall that caps campaigns at "
       "CI-scale graphs. PGD's relaxed perturbation and the tape "
       "oracle's autograd input (attack/greedy.h, which PEEGA's "
       "reference engine and Metattack score on) are allowlisted by "
       "file.",
       "commit through graph::WithFlips / the engine's sparse state; if "
       "the algorithm is inherently dense, add the file to the "
       "dense-roundtrip allowlist with a justification",
       &passes::DenseRoundtrip},
  };
  return *registry;
}

const PassInfo* FindPass(const std::string& name) {
  for (const PassInfo& pass : PassRegistry()) {
    if (name == pass.name) return &pass;
  }
  return nullptr;
}

namespace {

void SortFindings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.col, a.pass) <
                     std::tie(b.file, b.line, b.col, b.pass);
            });
}

}  // namespace

std::vector<Finding> RunAllPasses(const AnalysisContext& ctx) {
  std::vector<Finding> findings;
  for (const PassInfo& pass : PassRegistry()) {
    pass.run(ctx, &findings);
  }
  SortFindings(&findings);
  return findings;
}

std::vector<Finding> RunPass(const std::string& name,
                             const AnalysisContext& ctx) {
  std::vector<Finding> findings;
  if (const PassInfo* pass = FindPass(name)) {
    pass->run(ctx, &findings);
  }
  SortFindings(&findings);
  return findings;
}

}  // namespace repro::analyze
