// NEON kernel variants for aarch64, covering the saxpy-family ops
// (matmul, matmul_ta, spmm). The gather-based dot
// kernels have no NEON implementation — NEON lacks a gather load, so a
// lane-per-output mapping would degenerate to scalar lane inserts — and
// dispatch falls back to generic for them.
//
// Same bitwise-equality discipline as kernels_avx2.cc: lanes map to
// distinct output columns, multiplies and adds round separately
// (vmulq_f32 + vaddq_f32, never the fused vmlaq/vfmaq: aarch64 scalar
// references are ALSO compiled with -ffp-contract=off, so the generic
// kernel rounds mul and add separately there too).

#include <arm_neon.h>

#include <algorithm>

#include "linalg/kernels/variants.h"

namespace repro::linalg::kernels::neon {

namespace {

// crow[j] += av * brow[j] for j in [0, n); lane l owns element j + l.
inline void AxpyRow(float av, const float* brow, float* crow, int n) {
  const float32x4_t vav = vdupq_n_f32(av);
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const float32x4_t vb = vld1q_f32(brow + j);
    const float32x4_t vc = vld1q_f32(crow + j);
    vst1q_f32(crow + j, vaddq_f32(vc, vmulq_f32(vav, vb)));
  }
  for (; j < n; ++j) crow[j] += av * brow[j];
}

}  // namespace

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
        AxpyRow(av, b + static_cast<int64_t>(kk) * n, crow, n);
      }
    }
  }
}

void MatMulTransACols(const float* a, const float* b, float* c, int64_t j0,
                      int64_t j1, int k_rows, int m, int n) {
  const int jb = static_cast<int>(j0);
  const int je = static_cast<int>(j1);
  for (int kk = 0; kk < k_rows; ++kk) {
    const float* arow = a + static_cast<int64_t>(kk) * m;
    const float* brow = b + static_cast<int64_t>(kk) * n;
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + static_cast<int64_t>(i) * n;
      const float32x4_t vav = vdupq_n_f32(av);
      int j = jb;
      for (; j + 4 <= je; j += 4) {
        const float32x4_t vb = vld1q_f32(brow + j);
        const float32x4_t vc = vld1q_f32(crow + j);
        vst1q_f32(crow + j, vaddq_f32(vc, vmulq_f32(vav, vb)));
      }
      for (; j < je; ++j) crow[j] += av * brow[j];
    }
  }
}

void SpMMRows(const int64_t* row_ptr, const int* col_idx, const float* values,
              const float* b, float* c, int64_t r0, int64_t r1, int n) {
  for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
    float* crow = c + static_cast<int64_t>(i) * n;
    for (int64_t kk = row_ptr[i]; kk < row_ptr[i + 1]; ++kk) {
      AxpyRow(values[kk], b + static_cast<int64_t>(col_idx[kk]) * n, crow, n);
    }
  }
}

}  // namespace repro::linalg::kernels::neon
