#ifndef PEEGA_LINALG_KERNELS_KERNELS_H_
#define PEEGA_LINALG_KERNELS_KERNELS_H_

#include <cstdint>
#include <vector>

#include "linalg/dispatch.h"

namespace repro::linalg::kernels {

/// \file
/// Chunk- and row-level kernel signatures plus the per-op variant
/// tables behind `linalg/ops.cc` and `linalg/incremental.cc`.
///
/// The public kernels keep their orchestration (shape checks, tracing,
/// FLOP counters, `parallel::ParallelFor` chunking) and resolve ONE
/// function pointer per call from the op's `KernelTable`; the pointed-to
/// functions below do the arithmetic for one chunk of rows or columns
/// (matmul, matmul_ta, spmm; `linalg::SpMMRowsInto` runs the spmm kernel
/// one listed row at a time), one column panel (the dense dot, whose
/// chunking `DotPanels` below shares between its callers) or one tile
/// of A rows (the sparse-B dot of `linalg::DotRowsInto`/`DotColsInto`).
/// Signatures are raw pointers + sizes on purpose: the AVX2/NEON
/// translation units are compiled with instruction-set flags the rest
/// of the tree must not assume, so they must not instantiate inline
/// class members that could be ODR-merged into baseline code.
///
/// Variant contract (DESIGN.md, "Kernel dispatch & determinism
/// classes"): every non-generic variant reproduces the generic float
/// accumulation order per output element EXACTLY — vector lanes map to
/// distinct output elements, never to partial sums of one element, and
/// multiplies/adds round separately (no FMA contraction; the kernel TUs
/// compile with `-ffp-contract=off`). The op registry
/// (`linalg/op_registry.h`) auto-generates bitwise differential tests
/// for every compiled variant from this promise.

// ---------------------------------------------------------------------------
// Chunk kernels (dense ops; all matrices row-major, stride = cols)
// ---------------------------------------------------------------------------

/// Rows [r0, r1) of C(m×n) = A(m×k) · B(k×n), cache-blocked over k with
/// block 64; per-element accumulation ascends kk within ascending
/// k-blocks, zero `a` entries skipped.
using MatMulRowsFn = void (*)(const float* a, const float* b, float* c,
                              int64_t r0, int64_t r1, int k, int n);

/// Column slice [j0, j1) of C(m×n) = A(k_rows×m)ᵀ · B(k_rows×n);
/// kk-outer streaming order, per-element accumulation ascends kk.
using MatMulTransAColsFn = void (*)(const float* a, const float* b, float* c,
                                    int64_t j0, int64_t j1, int k_rows, int m,
                                    int n);

/// Rows [r0, r1) of C = S · B for CSR S, accumulated onto zeroed rows
/// of `c`; each row adds its nonzeros in stored (ascending-column) order.
using SpMMRowsFn = void (*)(const int64_t* row_ptr, const int* col_idx,
                            const float* values, const float* b, float* c,
                            int64_t r0, int64_t r1, int n);

// ---------------------------------------------------------------------------
// Dense dot panels (linalg::MatMulTransB; the non-finite A rows of
// DotRowsInto and DotColsInto)
// ---------------------------------------------------------------------------

/// One column panel of C = A · Bᵀ over a row subset:
///   c[rows[i]·ldc + cols[l]] = dot(a + rows[i]·k, b + cols[l]·k)
/// for i in [0, num_rows) and l in [0, num_cols), with num_cols at most
/// kDotPanelWidth (16, variants.h). Every dot starts from 0.0f and
/// ascends k. `panel` is scratch of kDotPanelWidth·k floats: packing
/// variants copy the num_cols B rows into it k-major and compute
/// register tiles from it; the generic reference reads `b` directly, so
/// the differential tests also check the packing.
using DotPanelFn = void (*)(const float* a, const int* rows, int64_t num_rows,
                            const float* b, const int* cols, int num_cols,
                            int k, float* c, int64_t ldc, float* panel);

/// The dense dot's shared driver: computes c[r·ldc + j] =
/// dot(a + r·k, b + j·k) for every r in `rows` and j in `cols` with
/// `kernel`, in parallel over (column panel × row block) tasks (sizes in
/// kernels.cc). Each task packs its own panel into a per-thread scratch
/// buffer; no packed copy of B as a whole is ever built. Outputs are
/// disjoint per task and each is one full ascending-k chain, so the
/// result is bitwise-identical at any thread count.
void DotPanels(DotPanelFn kernel, const float* a, const std::vector<int>& rows,
               const float* b, const std::vector<int>& cols, int k, float* c,
               int64_t ldc);

// ---------------------------------------------------------------------------
// Sparse-B dot tiles (linalg::DotRowsInto, DotColsInto)
// ---------------------------------------------------------------------------

/// One stored entry of a sparse row: its column and value.
struct StoredEntry {
  int col;
  float value;
};

/// One row of a sparse B: `count` stored entries, ascending by column.
struct EntryRow {
  const StoredEntry* entries;
  int64_t count;
};

/// A rows per sparse-B dot tile.
inline constexpr int kSparseDotTile = 8;

/// One tile of C = A · Bᵀ with B given by its stored entries: for t in
/// [0, num_rows), num_rows <= kSparseDotTile, and l in [0, num_cols),
///   c[rows[t]·ldc + cols[l]] = Σ a[rows[t]·k + col] · value
/// over b[l]'s entries (col, value) in ascending column order, from 0.0f,
/// each product and sum rounded separately. `b[l]` is the B row of
/// output column cols[l]. While row a[rows[t]] is finite this is the
/// float of the dense ascending-k dot, because every skipped product is
/// an exact ±0 that cannot change a sum which starts at +0 (DESIGN.md,
/// "Incremental objective engine"). Returns a mask with bit t set when
/// a[rows[t]] holds a NaN or ±Inf: those rows are not written, and the
/// caller computes them with the dense DotPanel. `panel` is scratch of
/// kSparseDotTile·k floats: packing variants copy the tile there
/// k-major; the generic reference reads `a` directly.
using SparseDotTileFn = uint32_t (*)(const float* a, const int* rows,
                                     int num_rows, int k, const EntryRow* b,
                                     const int* cols, int64_t num_cols,
                                     float* c, int64_t ldc, float* panel);

// ---------------------------------------------------------------------------
// Bernoulli mask (linalg::Mt19937_64::FillBernoulli)
// ---------------------------------------------------------------------------

/// Fills out[0, n) from the MT19937-64 stream whose state block
/// (mt64::kWords words) is `block`, at position `*index` in
/// [0, mt64::kWords] (mt64::kWords: the block is spent). Cell i takes
/// the next tempered value v and stores entry[always || v < cut]; the
/// block is twisted in place whenever it is spent, and `*index` is left
/// after the last value used. Cells and stream position match one
/// scalar draw per cell, row-major; vector variants map lanes to
/// distinct stream positions.
using BernoulliMaskFn = void (*)(uint64_t* block, int* index, uint64_t cut,
                                 bool always, const float* entry, float* out,
                                 int64_t n);

// ---------------------------------------------------------------------------
// Bernoulli outcomes at listed stream offsets (Mt19937_64::BernoulliAt)
// ---------------------------------------------------------------------------

/// Walks the next n values of the MT19937-64 stream whose state block
/// and position are `block` and `*index` (as for BernoulliMaskFn), and
/// for each of the `count` strictly ascending offsets in [0, n) tempers
/// only the value at that offset: outcome[i] = always || v < cut for the
/// value v at offsets[i]. Every block the walk crosses is twisted in
/// place, and `*index` is left where n scalar draws would leave it.
using BernoulliAtFn = void (*)(uint64_t* block, int* index, uint64_t cut,
                               bool always, const int64_t* offsets,
                               int64_t count, uint8_t* outcome, int64_t n);

// ---------------------------------------------------------------------------
// Greedy scan scores over a run of candidates (linalg::PairScores)
// ---------------------------------------------------------------------------

/// Which scores a PairScoresFn run writes. An edge score of the pair
/// (u, o) is PeegaEngine::EdgeScore(u, o) before its direction:
///   ((x·s_o)·s_u + d_u) + ((y·s_u)·s_o + d_o)
/// with x = G_N[u][o], y = G_N[o][u], s the GCN scales and d the degree
/// terms. One endpoint is fixed for the whole run and the other runs.
enum class PairScoreForm : int {
  /// u fixed, o runs: a run along a row u (x, y from rows u of G_N and
  /// G_Nᵀ).
  kRow,
  /// o fixed, u runs: a run down a column o (x, y from rows o of G_Nᵀ
  /// and G_N).
  kColumn,
  /// Feature scores divided by the feature cost β, ((1 − 2·x)·y) / β:
  /// x a row of X, y the same row of G_X, β the fixed scale. The scan
  /// ranks S_f / β (Sec. V-D1); β = 1 gives the raw score.
  kFeature,
};

/// The inputs of one run of n scores. x, y, and for the edge forms
/// scale and ddeg (the running endpoint's), hold n floats each; the
/// fixed endpoint's scale and ddeg are broadcast. The feature form
/// reads x, y and fixed_scale (β).
struct PairScoreRun {
  const float* x;
  const float* y;
  const float* scale;
  const float* ddeg;
  float fixed_scale;
  float fixed_ddeg;
};

/// out[i] for i in [0, n), each operation rounded separately in the
/// order of the formulas above.
using PairScoresFn = void (*)(PairScoreForm form, const PairScoreRun& run,
                              float* out, int64_t n);

// ---------------------------------------------------------------------------
// Per-op tables
// ---------------------------------------------------------------------------

const KernelTable<MatMulRowsFn>& MatMulTable();
const KernelTable<MatMulTransAColsFn>& MatMulTransATable();
/// The dense dot: MatMulTransB, and the non-finite rows of DotRowsInto
/// and DotColsInto, run `DotPanel` through DotPanels.
const KernelTable<DotPanelFn>& DotTable();
/// DotRowsInto's and DotColsInto's dots over B's stored entries.
const KernelTable<SparseDotTileFn>& SparseDotTable();
const KernelTable<SpMMRowsFn>& SpMMTable();
const KernelTable<BernoulliMaskFn>& BernoulliMaskTable();
const KernelTable<BernoulliAtFn>& BernoulliAtTable();
const KernelTable<PairScoresFn>& PairScoresTable();

/// Introspection row for the registry self-check and gen_op_docs: which
/// variants of each dispatched op this binary actually compiled.
struct KernelTableInfo {
  const char* op;
  bool has_generic = false;
  bool has_avx2 = false;
  bool has_neon = false;
};

/// One entry per kernel table above, in table-declaration order. The op
/// registry cross-checks this against its own entries in both
/// directions (every dispatched op documented, every documented variant
/// compiled where the toolchain allows).
std::vector<KernelTableInfo> AllKernelTables();

}  // namespace repro::linalg::kernels

#endif  // PEEGA_LINALG_KERNELS_KERNELS_H_
