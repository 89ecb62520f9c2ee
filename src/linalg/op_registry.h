#ifndef PEEGA_LINALG_OP_REGISTRY_H_
#define PEEGA_LINALG_OP_REGISTRY_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace repro::linalg {

/// \file
/// Declarative metadata for every dispatched linalg op.
///
/// Each hot kernel behind `linalg/dispatch.h` has one `OpInfo` entry
/// describing its public API, cost, parallel split, determinism class
/// and which SIMD variants are implemented in source. The registry is
/// the single source of truth for three consumers:
///
///  - `tools/gen_op_docs` renders it into `docs/OPS.md` (CI fails when
///    the committed file drifts from the registry);
///  - `tests/dispatch_test.cc` walks it to differentially test every
///    compiled variant against the scalar reference, bit for bit, via
///    the per-op `probe` hook — a new op registered here is covered
///    with zero new test code;
///  - `ValidateOpRegistry()` cross-checks it against the live dispatch
///    tables in `linalg/kernels/kernels.h`, so the metadata cannot
///    silently drift from the wiring.

/// How an op's SIMD variants stay bit-identical to the scalar reference
/// (see DESIGN.md, "Kernel dispatch & determinism classes"). Every op
/// is lane-per-output today; the peega_analyze `fp-contract-sync` pass
/// reads this field from each registry entry.
enum class DeterminismClass {
  /// Vector lanes map to distinct output elements and replay the scalar
  /// per-element accumulation order; multiplies and adds round
  /// separately (no FMA contraction).
  kLanePerOutput,
};

const char* DeterminismClassName(DeterminismClass c);

struct OpInfo {
  /// Dispatch-table op name, e.g. "linalg.matmul". Must match the
  /// `op` field of the corresponding `KernelTable`.
  const char* name;
  /// Public entry point(s), e.g. "linalg::MatMul".
  const char* api;
  /// One-line description for the docs.
  const char* summary;
  /// Flop cost, e.g. "O(m · k · n)".
  const char* complexity;
  /// How ParallelFor splits the work (and why that is deterministic).
  const char* parallelism;
  DeterminismClass determinism;
  /// Variants implemented in source. Static (platform-independent) so
  /// docs generated from the registry are identical on every machine;
  /// `ValidateOpRegistry` checks them against what this build compiled.
  bool generic;
  bool avx2;
  bool neon;
  /// Runs the op's public wrapper on fixed seeded inputs that cover the
  /// vector-width boundaries (sizes below / at / above one vector, plus
  /// scalar-tail sizes) and appends every output float to `*out`. The
  /// differential test calls this under each forced SIMD variant and
  /// compares the streams bit for bit.
  std::function<void(std::vector<float>* out)> probe;
};

/// All registered ops, in docs order. Built once, never mutated.
const std::vector<OpInfo>& OpRegistry();

/// Looks up an op by dispatch name; nullptr when absent.
const OpInfo* FindOp(std::string_view name);

/// Cross-checks the registry against the live dispatch tables: every
/// table has exactly one entry and vice versa, names match, every op
/// has a generic reference, and each variant this build compiled in is
/// declared in the registry (and vice versa for the gates this build
/// enables). Returns an empty string on success, else a description of
/// the first mismatch.
std::string ValidateOpRegistry();

}  // namespace repro::linalg

#endif  // PEEGA_LINALG_OP_REGISTRY_H_
