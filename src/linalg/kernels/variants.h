#ifndef PEEGA_LINALG_KERNELS_VARIANTS_H_
#define PEEGA_LINALG_KERNELS_VARIANTS_H_

#include <cstdint>

#include "linalg/kernels/kernels.h"

// Internal declarations shared by the variant translation units and the
// table definitions in kernels.cc. Each namespace mirrors a subset of
// the signatures in kernels.h; an op/variant pair missing here is
// simply not implemented (its table slot stays null and dispatch falls
// back to generic). The AVX2/NEON blocks are guarded by the same
// compile definitions CMake sets when it builds those TUs, so kernels.cc
// sees exactly the symbols the link will provide.

namespace repro::linalg::kernels {

/// Column-panel width of the dot family (`DotPanelFn` in kernels.h): the
/// driver hands each kernel call at most this many B rows, and packing
/// variants lay them out k-major in a scratch panel of
/// kDotPanelWidth · k floats.
inline constexpr int kDotPanelWidth = 16;

namespace generic {
void MatMulRows(const float* a, const float* b, float* c, int64_t r0,
                int64_t r1, int k, int n);
void MatMulTransACols(const float* a, const float* b, float* c, int64_t j0,
                      int64_t j1, int k_rows, int m, int n);
void SpMMRows(const int64_t* row_ptr, const int* col_idx, const float* values,
              const float* b, float* c, int64_t r0, int64_t r1, int n);
void DotPanel(const float* a, const int* rows, int64_t num_rows,
              const float* b, const int* cols, int num_cols, int k, float* c,
              int64_t ldc, float* panel);
uint32_t SparseDotTile(const float* a, const int* rows, int num_rows, int k,
                       const EntryRow* b, const int* cols, int64_t num_cols,
                       float* c, int64_t ldc, float* panel);
void BernoulliMask(uint64_t* block, int* index, uint64_t cut, bool always,
                   const float* entry, float* out, int64_t n);
void BernoulliAt(uint64_t* block, int* index, uint64_t cut, bool always,
                 const int64_t* offsets, int64_t count, uint8_t* outcome,
                 int64_t n);
void PairScores(PairScoreForm form, const PairScoreRun& run, float* out,
                int64_t n);
}  // namespace generic

#if defined(PEEGA_HAVE_AVX2)
namespace avx2 {
void MatMulRows(const float* a, const float* b, float* c, int64_t r0,
                int64_t r1, int k, int n);
void MatMulTransACols(const float* a, const float* b, float* c, int64_t j0,
                      int64_t j1, int k_rows, int m, int n);
void SpMMRows(const int64_t* row_ptr, const int* col_idx, const float* values,
              const float* b, float* c, int64_t r0, int64_t r1, int n);
void DotPanel(const float* a, const int* rows, int64_t num_rows,
              const float* b, const int* cols, int num_cols, int k, float* c,
              int64_t ldc, float* panel);
uint32_t SparseDotTile(const float* a, const int* rows, int num_rows, int k,
                       const EntryRow* b, const int* cols, int64_t num_cols,
                       float* c, int64_t ldc, float* panel);
void BernoulliMask(uint64_t* block, int* index, uint64_t cut, bool always,
                   const float* entry, float* out, int64_t n);
void BernoulliAt(uint64_t* block, int* index, uint64_t cut, bool always,
                 const int64_t* offsets, int64_t count, uint8_t* outcome,
                 int64_t n);
void PairScores(PairScoreForm form, const PairScoreRun& run, float* out,
                int64_t n);
}  // namespace avx2
#endif  // PEEGA_HAVE_AVX2

#if defined(PEEGA_HAVE_NEON)
namespace neon {
void MatMulRows(const float* a, const float* b, float* c, int64_t r0,
                int64_t r1, int k, int n);
void MatMulTransACols(const float* a, const float* b, float* c, int64_t j0,
                      int64_t j1, int k_rows, int m, int n);
void SpMMRows(const int64_t* row_ptr, const int* col_idx, const float* values,
              const float* b, float* c, int64_t r0, int64_t r1, int n);
}  // namespace neon
#endif  // PEEGA_HAVE_NEON

}  // namespace repro::linalg::kernels

#endif  // PEEGA_LINALG_KERNELS_VARIANTS_H_
