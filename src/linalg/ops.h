#ifndef PEEGA_LINALG_OPS_H_
#define PEEGA_LINALG_OPS_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/random.h"
#include "linalg/sparse.h"

namespace repro::linalg {

/// \file
/// Numerical kernels over `Matrix` / `SparseMatrix`.
///
/// Threading: every kernel below is internally parallelized over the
/// process-wide pool in `parallel/thread_pool.h` unless its doc says
/// "serial". Parallel kernels use deterministic static chunking with
/// disjoint per-chunk outputs, so their results are **bitwise identical
/// at any thread count** (see DESIGN.md, "Determinism & threading").
/// All kernels are safe to call concurrently on distinct outputs only
/// in the sense that they never touch global mutable state besides the
/// shared pool; the library is driven by one orchestrating thread.
///
/// SIMD: the hot kernels dispatch per-row work through the per-op
/// `KernelTable`s in `linalg/kernels/kernels.h` (scalar reference plus
/// optional AVX2/NEON variants picked once at startup; force with
/// `PEEGA_SIMD`). Every variant is **bitwise identical** to the scalar
/// reference — see DESIGN.md, "Kernel dispatch & determinism classes",
/// and the generated op inventory in docs/OPS.md.

// ---------------------------------------------------------------------------
// Dense kernels
// ---------------------------------------------------------------------------

/// C = A * B. Cache-blocked i-k-j loop order, row-parallel.
/// Complexity O(m·k·n); bitwise-deterministic at any thread count.
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = A^T * B without materializing A^T. Column-parallel (each chunk
/// owns a column slice of C). Complexity O(k·m·n); bitwise-deterministic
/// at any thread count.
Matrix MatMulTransA(const Matrix& a, const Matrix& b);

/// C = A * B^T without materializing B^T. Row-parallel dot products.
/// Complexity O(m·n·k); bitwise-deterministic at any thread count.
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

/// Returns A^T. Parallel over output rows. Complexity O(m·n).
Matrix Transpose(const Matrix& a);

/// Elementwise a + b (same shape). Flat-parallel; O(m·n).
Matrix Add(const Matrix& a, const Matrix& b);
/// Elementwise a - b (same shape). Flat-parallel; O(m·n).
Matrix Sub(const Matrix& a, const Matrix& b);
/// Elementwise a ⊙ b (same shape). Flat-parallel; O(m·n).
Matrix Mul(const Matrix& a, const Matrix& b);

/// a * scale + offset, elementwise. Flat-parallel; O(m·n).
Matrix Affine(const Matrix& a, float scale, float offset = 0.0f);

/// In-place a += b * scale. Flat-parallel; O(m·n).
void Axpy(Matrix* a, const Matrix& b, float scale);

/// Adds vector `v` (length = a.cols()) to every row of a.
/// Row-parallel; O(m·n).
Matrix AddRowVector(const Matrix& a, const std::vector<float>& v);

/// Scales row r of a by s[r] (s.size() == a.rows()).
/// Row-parallel; O(m·n).
Matrix ScaleRows(const Matrix& a, const std::vector<float>& s);

/// Scales column c of a by s[c] (s.size() == a.cols()).
/// Row-parallel; O(m·n).
Matrix ScaleCols(const Matrix& a, const std::vector<float>& s);

/// Per-row sums; length = rows(). Row-parallel; O(m·n); each row's
/// accumulation order matches the serial loop (bitwise-deterministic).
std::vector<float> RowSums(const Matrix& a);

/// Sum of all entries, accumulated in double. Chunked parallel
/// reduction; O(m·n). Deterministic at any thread count, but the
/// floating-point association is fixed by the internal reduce grain,
/// not by a single left-to-right scan (low-order bits may differ from
/// a serial sum on inputs larger than one chunk).
double Sum(const Matrix& a);

/// Frobenius norm, accumulated in double. Chunked parallel reduction;
/// O(m·n); same association caveat as `Sum`.
double FrobeniusNorm(const Matrix& a);

/// Max absolute entrywise difference, for test comparisons. Chunked
/// parallel reduction; O(m·n); exact (max is associative).
float MaxAbsDiff(const Matrix& a, const Matrix& b);

/// ReLU, elementwise. Flat-parallel; O(m·n).
Matrix Relu(const Matrix& a);
/// LeakyReLU with negative slope `slope`, elementwise. Flat-parallel.
Matrix LeakyRelu(const Matrix& a, float slope);
/// Logistic sigmoid, elementwise. Flat-parallel; O(m·n).
Matrix Sigmoid(const Matrix& a);

/// Row-wise softmax, numerically stabilized by the row max.
/// Row-parallel; O(m·n); bitwise-deterministic at any thread count.
Matrix RowSoftmax(const Matrix& a);

/// Row-wise argmax; ties resolve to the lowest index. Row-parallel;
/// O(m·n); deterministic (each row is scanned serially).
std::vector<int> RowArgmax(const Matrix& a);

/// Fills with N(0, stddev) samples. Serial: the RNG stream is
/// sequential state, so parallel draws would break seed reproducibility.
Matrix RandomNormal(int rows, int cols, float stddev, Rng* rng);
/// Fills with U(lo, hi) samples. Serial (same RNG-stream reason).
Matrix RandomUniform(int rows, int cols, float lo, float hi, Rng* rng);

// ---------------------------------------------------------------------------
// Sparse kernels
// ---------------------------------------------------------------------------

/// C = S * B for CSR S and dense B. Row-parallel over CSR rows; each
/// row's nonzeros accumulate in stored (ascending-column) order.
/// Complexity O(nnz · B.cols()); bitwise-deterministic at any thread
/// count.
Matrix SpMM(const SparseMatrix& s, const Matrix& b);

// ---------------------------------------------------------------------------
// Similarity measures used by defenders
// ---------------------------------------------------------------------------

/// Cosine similarity between rows i and j of `x`. Returns 0 when either
/// row is all-zero. Serial; O(cols).
float CosineSimilarity(const Matrix& x, int i, int j);

/// For each row i of `x`, the rows j != i with the `k` largest
/// `CosineSimilarity(x, i, j)` above `min_similarity`, most similar
/// first; ties fall as `std::partial_sort` leaves them from a list in
/// ascending j. `x` must be finite. Works over x's stored (nonzero)
/// entries: each row walks its columns in ascending order and, through a
/// feature -> row column index, adds each product into the dot of every
/// row sharing that column, so every similarity is the float
/// `CosineSimilarity` returns. Row-parallel after a serial O(rows ·
/// cols) read of x; O(nnz + Σ_c nnz_c²) for column c's nnz_c stored
/// rows, plus O(rows) scratch per 8-row chunk and, only when
/// `min_similarity` < 0 (every row is then a candidate), O(rows) per
/// row; bitwise-deterministic at any thread count.
std::vector<std::vector<int>> TopCosineNeighbors(const Matrix& x, int k,
                                                 float min_similarity);

/// Jaccard similarity between binary rows i and j of `x` (entries > 0.5
/// are treated as 1). Serial; O(cols).
float JaccardSimilarity(const Matrix& x, int i, int j);

// ---------------------------------------------------------------------------
// Vector helpers
// ---------------------------------------------------------------------------

/// Elementwise x^(-1/2) with 0 mapped to 0 (degree normalization).
/// Serial; O(n).
std::vector<float> RSqrt(const std::vector<float>& x);

}  // namespace repro::linalg

#endif  // PEEGA_LINALG_OPS_H_
