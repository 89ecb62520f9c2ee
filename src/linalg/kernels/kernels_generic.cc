// Scalar reference kernels — the implementations every other variant is
// differentially tested against, moved verbatim from the pre-dispatch
// loop bodies of linalg/ops.cc and linalg/incremental.cc so their float
// accumulation order (and hence every golden fixture and the engine ==
// tape bitwise guarantee) is unchanged. Compiled with -ffp-contract=off
// like all kernel TUs, which pins the mul-then-add rounding the SIMD
// variants reproduce lane-for-lane.

#include <algorithm>
#include <cmath>

#include "linalg/kernels/variants.h"
#include "linalg/random.h"

namespace repro::linalg::kernels::generic {

void MatMulRows(const float* a, const float* b, float* c, int64_t r0,
                int64_t r1, int k, int n) {
  constexpr int kBlock = 64;
  for (int k0 = 0; k0 < k; k0 += kBlock) {
    const int k1 = std::min(k0 + kBlock, k);
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
      const float* arow = a + static_cast<int64_t>(i) * k;
      float* crow = c + static_cast<int64_t>(i) * n;
      for (int kk = k0; kk < k1; ++kk) {
        const float av = arow[kk];
        if (av == 0.0f) continue;
        const float* brow = b + static_cast<int64_t>(kk) * n;
        for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

void MatMulTransACols(const float* a, const float* b, float* c, int64_t j0,
                      int64_t j1, int k_rows, int m, int n) {
  for (int kk = 0; kk < k_rows; ++kk) {
    const float* arow = a + static_cast<int64_t>(kk) * m;
    const float* brow = b + static_cast<int64_t>(kk) * n;
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + static_cast<int64_t>(i) * n;
      for (int j = static_cast<int>(j0); j < static_cast<int>(j1); ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

void SpMMRows(const int64_t* row_ptr, const int* col_idx, const float* values,
              const float* b, float* c, int64_t r0, int64_t r1, int n) {
  for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
    float* crow = c + static_cast<int64_t>(i) * n;
    for (int64_t kk = row_ptr[i]; kk < row_ptr[i + 1]; ++kk) {
      const float v = values[kk];
      const float* brow = b + static_cast<int64_t>(col_idx[kk]) * n;
      for (int j = 0; j < n; ++j) crow[j] += v * brow[j];
    }
  }
}

void DotPanel(const float* a, const int* rows, int64_t num_rows,
              const float* b, const int* cols, int num_cols, int k, float* c,
              int64_t ldc, float* /*panel*/) {
  // Ascending-k float dots straight from B: the order every packed
  // variant replays per output lane.
  for (int64_t i = 0; i < num_rows; ++i) {
    const float* arow = a + static_cast<int64_t>(rows[i]) * k;
    float* crow = c + static_cast<int64_t>(rows[i]) * ldc;
    for (int l = 0; l < num_cols; ++l) {
      const float* brow = b + static_cast<int64_t>(cols[l]) * k;
      float dot = 0.0f;
      for (int kk = 0; kk < k; ++kk) dot += arow[kk] * brow[kk];
      crow[cols[l]] = dot;
    }
  }
}

uint32_t SparseDotTile(const float* a, const int* rows, int num_rows, int k,
                       const EntryRow* b, const int* cols, int64_t num_cols,
                       float* c, int64_t ldc, float* /*panel*/) {
  // Straight from A: one float chain per output over B's stored
  // entries, in the order every packed variant replays per lane.
  uint32_t non_finite = 0;
  for (int t = 0; t < num_rows; ++t) {
    const float* arow = a + static_cast<int64_t>(rows[t]) * k;
    if (!std::all_of(arow, arow + k,
                     [](float v) { return std::isfinite(v); })) {
      non_finite |= uint32_t{1} << t;
      continue;
    }
    float* crow = c + static_cast<int64_t>(rows[t]) * ldc;
    for (int64_t l = 0; l < num_cols; ++l) {
      const StoredEntry* e = b[l].entries;
      float dot = 0.0f;
      for (int64_t i = 0; i < b[l].count; ++i) {
        dot += arow[e[i].col] * e[i].value;
      }
      crow[cols[l]] = dot;
    }
  }
  return non_finite;
}

void BernoulliMask(uint64_t* block, int* index, uint64_t cut, bool always,
                   const float* entry, float* out, int64_t n) {
  int at = *index;
  for (int64_t i = 0; i < n; ++i) {
    if (at == mt64::kWords) {
      Mt19937_64::Twist(block);
      at = 0;
    }
    const uint64_t v = Mt19937_64::Temper(block[at++]);
    out[i] = entry[always || v < cut];
  }
  *index = at;
}

void BernoulliAt(uint64_t* block, int* index, uint64_t cut, bool always,
                 const int64_t* offsets, int64_t count, uint8_t* outcome,
                 int64_t n) {
  int at = *index;
  int64_t first = 0;  // stream offset of block[at]
  int64_t i = 0;
  while (first < n) {
    if (at == mt64::kWords) {
      Mt19937_64::Twist(block);
      at = 0;
    }
    const int64_t end = std::min<int64_t>(n, first + (mt64::kWords - at));
    for (; i < count && offsets[i] < end; ++i) {
      const uint64_t v = Mt19937_64::Temper(block[at + (offsets[i] - first)]);
      outcome[i] = always || v < cut;
    }
    at += static_cast<int>(end - first);
    first = end;
  }
  *index = at;
}

void PairScores(PairScoreForm form, const PairScoreRun& run, float* out,
                int64_t n) {
  // PeegaEngine::EdgeScore's and FeatureScore's expressions, with the
  // running endpoint's terms read at i.
  const float* x = run.x;
  const float* y = run.y;
  const float s = run.fixed_scale;
  const float d = run.fixed_ddeg;
  switch (form) {
    case PairScoreForm::kRow:
      for (int64_t i = 0; i < n; ++i) {
        out[i] = ((x[i] * run.scale[i]) * s + d) +
                 ((y[i] * s) * run.scale[i] + run.ddeg[i]);
      }
      break;
    case PairScoreForm::kColumn:
      for (int64_t i = 0; i < n; ++i) {
        out[i] = ((x[i] * s) * run.scale[i] + run.ddeg[i]) +
                 ((y[i] * run.scale[i]) * s + d);
      }
      break;
    case PairScoreForm::kFeature:
      for (int64_t i = 0; i < n; ++i) {
        out[i] = ((1.0f - 2.0f * x[i]) * y[i]) / s;
      }
      break;
  }
}

}  // namespace repro::linalg::kernels::generic
