// Per-op dispatch tables. The variant slots are wired at compile time
// from the same PEEGA_HAVE_* definitions that gate the variant TUs, so
// a table can never reference a symbol the link does not provide; at
// runtime KernelTable::Select() narrows further to what the CPU
// supports. AllKernelTables() exposes the wiring to the op registry's
// self-check and to gen_op_docs. Also home of DotPanels, the chunking
// the three dot-family ops share.

#include "linalg/kernels/kernels.h"

#include <algorithm>

#include "linalg/kernels/variants.h"
#include "parallel/thread_pool.h"

namespace repro::linalg::kernels {

namespace {

// Rows per dot task. A whole row subset of the engine's U_k refresh
// (about 185 rows at Cora scale) fits one block, so each column panel
// is packed once and its A rows stay in L2; full-height products
// (MatMulTransB, DotColsInto over all rows) split into blocks so a
// one-panel product still spreads over the pool.
constexpr int64_t kDotRowBlock = 256;

}  // namespace

void DotPanels(DotPanelFn kernel, const float* a, const std::vector<int>& rows,
               const float* b, const std::vector<int>& cols, int k, float* c,
               int64_t ldc) {
  const int64_t m = static_cast<int64_t>(rows.size());
  const int64_t n = static_cast<int64_t>(cols.size());
  if (m == 0 || n == 0) return;
  const int64_t row_blocks = (m + kDotRowBlock - 1) / kDotRowBlock;
  const int64_t panels = (n + kDotPanelWidth - 1) / kDotPanelWidth;
  parallel::ParallelFor(0, panels * row_blocks, 1, [&](int64_t t0,
                                                       int64_t t1) {
    // Per-thread scratch, grown once to the largest k seen.
    thread_local std::vector<float> panel;
    panel.resize(static_cast<size_t>(kDotPanelWidth) *
                 static_cast<size_t>(k));
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t r0 = (t % row_blocks) * kDotRowBlock;
      const int64_t c0 = (t / row_blocks) * kDotPanelWidth;
      kernel(a, rows.data() + r0, std::min(kDotRowBlock, m - r0), b,
             cols.data() + c0,
             static_cast<int>(std::min<int64_t>(kDotPanelWidth, n - c0)), k,
             c, ldc, panel.data());
    }
  });
}

#if defined(PEEGA_HAVE_AVX2)
#define PEEGA_AVX2_FN(fn) (&avx2::fn)
#else
#define PEEGA_AVX2_FN(fn) nullptr
#endif

#if defined(PEEGA_HAVE_NEON)
#define PEEGA_NEON_FN(fn) (&neon::fn)
#else
#define PEEGA_NEON_FN(fn) nullptr
#endif

const KernelTable<MatMulRowsFn>& MatMulTable() {
  static const KernelTable<MatMulRowsFn> table = {
      "linalg.matmul", &generic::MatMulRows, PEEGA_AVX2_FN(MatMulRows),
      PEEGA_NEON_FN(MatMulRows)};
  return table;
}

const KernelTable<MatMulTransAColsFn>& MatMulTransATable() {
  static const KernelTable<MatMulTransAColsFn> table = {
      "linalg.matmul_ta", &generic::MatMulTransACols,
      PEEGA_AVX2_FN(MatMulTransACols), PEEGA_NEON_FN(MatMulTransACols)};
  return table;
}

const KernelTable<DotPanelFn>& DotTable() {
  static const KernelTable<DotPanelFn> table = {
      "linalg.dot", &generic::DotPanel, PEEGA_AVX2_FN(DotPanel), nullptr};
  return table;
}

const KernelTable<SparseDotTileFn>& SparseDotTable() {
  static const KernelTable<SparseDotTileFn> table = {
      "linalg.sparse_dot", &generic::SparseDotTile,
      PEEGA_AVX2_FN(SparseDotTile), nullptr};
  return table;
}

const KernelTable<SpMMRowsFn>& SpMMTable() {
  static const KernelTable<SpMMRowsFn> table = {
      "linalg.spmm", &generic::SpMMRows, PEEGA_AVX2_FN(SpMMRows),
      PEEGA_NEON_FN(SpMMRows)};
  return table;
}

const KernelTable<BernoulliMaskFn>& BernoulliMaskTable() {
  static const KernelTable<BernoulliMaskFn> table = {
      "linalg.bernoulli_mask", &generic::BernoulliMask,
      PEEGA_AVX2_FN(BernoulliMask), nullptr};
  return table;
}

const KernelTable<BernoulliAtFn>& BernoulliAtTable() {
  static const KernelTable<BernoulliAtFn> table = {
      "linalg.bernoulli_at", &generic::BernoulliAt, PEEGA_AVX2_FN(BernoulliAt),
      nullptr};
  return table;
}

const KernelTable<PairScoresFn>& PairScoresTable() {
  static const KernelTable<PairScoresFn> table = {
      "linalg.pair_scores", &generic::PairScores, PEEGA_AVX2_FN(PairScores),
      nullptr};
  return table;
}

#undef PEEGA_AVX2_FN
#undef PEEGA_NEON_FN

namespace {

template <typename Fn>
KernelTableInfo InfoOf(const KernelTable<Fn>& table) {
  KernelTableInfo info;
  info.op = table.op;
  info.has_generic = table.generic != nullptr;
  info.has_avx2 = table.avx2 != nullptr;
  info.has_neon = table.neon != nullptr;
  return info;
}

}  // namespace

std::vector<KernelTableInfo> AllKernelTables() {
  return {InfoOf(MatMulTable()), InfoOf(MatMulTransATable()),
          InfoOf(DotTable()), InfoOf(SparseDotTable()), InfoOf(SpMMTable()),
          InfoOf(BernoulliMaskTable()), InfoOf(BernoulliAtTable()),
          InfoOf(PairScoresTable())};
}

}  // namespace repro::linalg::kernels
