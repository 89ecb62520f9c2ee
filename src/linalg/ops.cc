#include "linalg/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "debug/check.h"
#include "debug/failpoints.h"
#include "debug/numerics.h"
#include "linalg/kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace repro::linalg {

namespace {

// Static-chunk grains for the parallel kernels. For row-parallel ops the
// grain only affects load balance (outputs are disjoint per row, so any
// partition is bitwise-deterministic); for the ordered-chunk reductions
// at the bottom of this file the grain also FIXES the floating-point
// association, so changing kReduceGrain changes low-order bits of Sum /
// FrobeniusNorm on large inputs (never their determinism).
constexpr int64_t kMatMulRowGrain = 8;    // rows per chunk, O(k*n) work/row
constexpr int64_t kRowGrain = 64;         // rows per chunk, O(n) work/row
constexpr int64_t kElemGrain = 1 << 14;   // flat elements per chunk
constexpr int64_t kReduceGrain = 1 << 15; // flat elements per reduce chunk

std::vector<int> Iota(int n) {
  std::vector<int> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  PEEGA_CHECK_EQ(a.cols(), b.rows());
  const obs::TraceSpan span("linalg.matmul");
  static obs::Counter* const calls = obs::GetCounter("linalg.matmul.calls");
  static obs::Counter* const flops = obs::GetCounter("linalg.matmul.flops");
  calls->Add(1);
  flops->Add(2ull * static_cast<uint64_t>(a.rows()) *
             static_cast<uint64_t>(a.cols()) *
             static_cast<uint64_t>(b.cols()));
  Matrix c(a.rows(), b.cols());
  const int k = a.cols(), n = b.cols();
  // Row-parallel: each chunk owns rows [r0, r1) of C outright, and the
  // per-row accumulation order (k-blocks ascending, kk ascending within
  // a block) matches the serial kernel exactly in every SIMD variant.
  const kernels::MatMulRowsFn kernel = kernels::MatMulTable().Select();
  parallel::ParallelFor(0, a.rows(), kMatMulRowGrain, [&](int64_t r0,
                                                          int64_t r1) {
    kernel(a.data(), b.data(), c.data(), r0, r1, k, n);
  });
  PEEGA_CHECK_FINITE_MAT(c, "MatMul");
  return c;
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  PEEGA_CHECK_EQ(a.rows(), b.rows());
  const obs::TraceSpan span("linalg.matmul_ta");
  static obs::Counter* const flops = obs::GetCounter("linalg.matmul.flops");
  flops->Add(2ull * static_cast<uint64_t>(a.rows()) *
             static_cast<uint64_t>(a.cols()) *
             static_cast<uint64_t>(b.cols()));
  Matrix c(a.cols(), b.cols());
  const int m = a.cols(), k = a.rows(), n = b.cols();
  // Column-parallel: each chunk owns the column slice [j0, j1) of every
  // row of C, keeping the cache-friendly kk-outer streaming order and
  // the serial per-element accumulation order (kk ascending).
  const kernels::MatMulTransAColsFn kernel =
      kernels::MatMulTransATable().Select();
  parallel::ParallelFor(0, b.cols(), kMatMulRowGrain * 4, [&](int64_t j0,
                                                              int64_t j1) {
    kernel(a.data(), b.data(), c.data(), j0, j1, k, m, n);
  });
  PEEGA_CHECK_FINITE_MAT(c, "MatMulTransA");
  return c;
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  PEEGA_CHECK_EQ(a.cols(), b.cols());
  const obs::TraceSpan span("linalg.matmul_tb");
  static obs::Counter* const flops = obs::GetCounter("linalg.matmul.flops");
  flops->Add(2ull * static_cast<uint64_t>(a.rows()) *
             static_cast<uint64_t>(a.cols()) *
             static_cast<uint64_t>(b.rows()));
  Matrix c(a.rows(), b.rows());
  // The all-rows, all-columns case of the dot family's panel driver.
  kernels::DotPanels(kernels::DotTable().Select(), a.data(),
                     Iota(a.rows()), b.data(), Iota(b.rows()), a.cols(),
                     c.data(), c.cols());
  PEEGA_CHECK_FINITE_MAT(c, "MatMulTransB");
  return c;
}

Matrix Transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  // Chunks own rows of T (= columns of A) outright.
  parallel::ParallelFor(0, a.cols(), kRowGrain, [&](int64_t j0, int64_t j1) {
    for (int j = static_cast<int>(j0); j < static_cast<int>(j1); ++j) {
      float* trow = t.row(j);
      for (int i = 0; i < a.rows(); ++i) trow[i] = a(i, j);
    }
  });
  return t;
}

namespace {

template <typename F>
Matrix Elementwise(const Matrix& a, const Matrix& b, F f) {
  PEEGA_CHECK(a.SameShape(b));
  Matrix c(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  parallel::ParallelFor(0, a.size(), kElemGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pc[i] = f(pa[i], pb[i]);
  });
  return c;
}

template <typename F>
Matrix Map(const Matrix& a, F f) {
  Matrix c(a.rows(), a.cols());
  const float* pa = a.data();
  float* pc = c.data();
  parallel::ParallelFor(0, a.size(), kElemGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pc[i] = f(pa[i]);
  });
  return c;
}

}  // namespace

Matrix Add(const Matrix& a, const Matrix& b) {
  return Elementwise(a, b, [](float x, float y) { return x + y; });
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  return Elementwise(a, b, [](float x, float y) { return x - y; });
}

Matrix Mul(const Matrix& a, const Matrix& b) {
  return Elementwise(a, b, [](float x, float y) { return x * y; });
}

Matrix Affine(const Matrix& a, float scale, float offset) {
  return Map(a, [scale, offset](float x) { return x * scale + offset; });
}

void Axpy(Matrix* a, const Matrix& b, float scale) {
  PEEGA_CHECK(a->SameShape(b));
  float* pa = a->data();
  const float* pb = b.data();
  parallel::ParallelFor(0, a->size(), kElemGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pa[i] += scale * pb[i];
  });
}

Matrix AddRowVector(const Matrix& a, const std::vector<float>& v) {
  PEEGA_CHECK_EQ(static_cast<int>(v.size()), a.cols());
  Matrix c(a.rows(), a.cols());
  parallel::ParallelFor(0, a.rows(), kRowGrain, [&](int64_t r0, int64_t r1) {
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
      const float* arow = a.row(i);
      float* crow = c.row(i);
      for (int j = 0; j < a.cols(); ++j) crow[j] = arow[j] + v[j];
    }
  });
  return c;
}

Matrix ScaleRows(const Matrix& a, const std::vector<float>& s) {
  PEEGA_CHECK_EQ(static_cast<int>(s.size()), a.rows());
  Matrix c(a.rows(), a.cols());
  parallel::ParallelFor(0, a.rows(), kRowGrain, [&](int64_t r0, int64_t r1) {
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
      const float* arow = a.row(i);
      float* crow = c.row(i);
      const float sv = s[i];
      for (int j = 0; j < a.cols(); ++j) crow[j] = arow[j] * sv;
    }
  });
  return c;
}

Matrix ScaleCols(const Matrix& a, const std::vector<float>& s) {
  PEEGA_CHECK_EQ(static_cast<int>(s.size()), a.cols());
  Matrix c(a.rows(), a.cols());
  parallel::ParallelFor(0, a.rows(), kRowGrain, [&](int64_t r0, int64_t r1) {
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
      const float* arow = a.row(i);
      float* crow = c.row(i);
      for (int j = 0; j < a.cols(); ++j) crow[j] = arow[j] * s[j];
    }
  });
  return c;
}

std::vector<float> RowSums(const Matrix& a) {
  std::vector<float> sums(a.rows(), 0.0f);
  parallel::ParallelFor(0, a.rows(), kRowGrain, [&](int64_t r0, int64_t r1) {
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
      const float* arow = a.row(i);
      float acc = 0.0f;
      for (int j = 0; j < a.cols(); ++j) acc += arow[j];
      sums[i] = acc;
    }
  });
  return sums;
}

double Sum(const Matrix& a) {
  const float* p = a.data();
  return parallel::ParallelReduce<double>(
      0, a.size(), kReduceGrain, 0.0,
      [&](int64_t lo, int64_t hi) {
        double acc = 0.0;
        for (int64_t i = lo; i < hi; ++i) acc += p[i];
        return acc;
      },
      [](double x, double y) { return x + y; });
}

double FrobeniusNorm(const Matrix& a) {
  const float* p = a.data();
  const double sq = parallel::ParallelReduce<double>(
      0, a.size(), kReduceGrain, 0.0,
      [&](int64_t lo, int64_t hi) {
        double acc = 0.0;
        for (int64_t i = lo; i < hi; ++i) {
          acc += static_cast<double>(p[i]) * p[i];
        }
        return acc;
      },
      [](double x, double y) { return x + y; });
  return std::sqrt(sq);
}

float MaxAbsDiff(const Matrix& a, const Matrix& b) {
  PEEGA_CHECK(a.SameShape(b));
  const float* pa = a.data();
  const float* pb = b.data();
  return parallel::ParallelReduce<float>(
      0, a.size(), kReduceGrain, 0.0f,
      [&](int64_t lo, int64_t hi) {
        float max_diff = 0.0f;
        for (int64_t i = lo; i < hi; ++i) {
          max_diff = std::max(max_diff, std::fabs(pa[i] - pb[i]));
        }
        return max_diff;
      },
      [](float x, float y) { return std::max(x, y); });
}

Matrix Relu(const Matrix& a) {
  return Map(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}

Matrix LeakyRelu(const Matrix& a, float slope) {
  return Map(a, [slope](float x) { return x > 0.0f ? x : slope * x; });
}

Matrix Sigmoid(const Matrix& a) {
  return Map(a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}

Matrix RowSoftmax(const Matrix& a) {
  Matrix c(a.rows(), a.cols());
  const int n = a.cols();
  parallel::ParallelFor(0, a.rows(), kRowGrain, [&](int64_t r0, int64_t r1) {
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
      const float* arow = a.row(i);
      float* crow = c.row(i);
      float row_max = arow[0];
      for (int j = 1; j < n; ++j) row_max = std::max(row_max, arow[j]);
      float denom = 0.0f;
      for (int j = 0; j < n; ++j) {
        crow[j] = std::exp(arow[j] - row_max);
        denom += crow[j];
      }
      const float inv = 1.0f / denom;
      for (int j = 0; j < n; ++j) crow[j] *= inv;
    }
  });
  PEEGA_CHECK_FINITE_MAT(c, "RowSoftmax");
  return c;
}

std::vector<int> RowArgmax(const Matrix& a) {
  std::vector<int> result(a.rows(), 0);
  parallel::ParallelFor(0, a.rows(), kRowGrain, [&](int64_t r0, int64_t r1) {
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
      const float* arow = a.row(i);
      int best = 0;
      for (int j = 1; j < a.cols(); ++j) {
        if (arow[j] > arow[best]) best = j;
      }
      result[i] = best;
    }
  });
  return result;
}

Matrix RandomNormal(int rows, int cols, float stddev, Rng* rng) {
  // Serial by contract: the RNG stream is sequential state.
  Matrix m(rows, cols);
  float* p = m.data();
  const int64_t n = m.size();
  for (int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<float>(rng->Normal(0.0, stddev));
  }
  return m;
}

Matrix RandomUniform(int rows, int cols, float lo, float hi, Rng* rng) {
  // Serial by contract: the RNG stream is sequential state.
  Matrix m(rows, cols);
  float* p = m.data();
  const int64_t n = m.size();
  for (int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return m;
}

Matrix SpMM(const SparseMatrix& s, const Matrix& b) {
  PEEGA_CHECK_EQ(s.cols(), b.rows());
  const obs::TraceSpan span("linalg.spmm");
  static obs::Counter* const calls = obs::GetCounter("linalg.spmm.calls");
  static obs::Counter* const flops = obs::GetCounter("linalg.spmm.flops");
  calls->Add(1);
  flops->Add(2ull * static_cast<uint64_t>(s.nnz()) *
             static_cast<uint64_t>(b.cols()));
  Matrix c(s.rows(), b.cols());
  const auto& row_ptr = s.row_ptr();
  const auto& col_idx = s.col_idx();
  const auto& values = s.values();
  const int n = b.cols();
  // Row-parallel over CSR rows: chunk [r0, r1) owns rows [r0, r1) of C,
  // and each row's nonzeros are accumulated in stored (ascending column)
  // order exactly as in the serial kernel.
  const kernels::SpMMRowsFn kernel = kernels::SpMMTable().Select();
  parallel::ParallelFor(0, s.rows(), kRowGrain, [&](int64_t r0, int64_t r1) {
    kernel(row_ptr.data(), col_idx.data(), values.data(), b.data(), c.data(),
           r0, r1, n);
  });
  PEEGA_CHECK_FINITE_MAT(c, "SpMM");
  // Failpoint after the (debug-numerics-only) finite check: an armed
  // "linalg.spmm" simulates a silent kernel fault, which callers must
  // catch via their own non-finite sentinels and degrade gracefully.
  // The whole output is poisoned with +Inf rather than NaN: ReLU clamps
  // NaN to zero (NaN > 0 is false), which would silently mask the fault,
  // while Inf survives activations and collapses to NaN in any softmax
  // or norm downstream.
  if (PEEGA_FAILPOINT("linalg.spmm")) {
    c.Fill(std::numeric_limits<float>::infinity());
  }
  return c;
}

float CosineSimilarity(const Matrix& x, int i, int j) {
  const float* a = x.row(i);
  const float* b = x.row(j);
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (int k = 0; k < x.cols(); ++k) {
    dot += static_cast<double>(a[k]) * b[k];
    na += static_cast<double>(a[k]) * a[k];
    nb += static_cast<double>(b[k]) * b[k];
  }
  if (na == 0.0 || nb == 0.0) return 0.0f;
  return static_cast<float>(dot / (std::sqrt(na) * std::sqrt(nb)));
}

std::vector<std::vector<int>> TopCosineNeighbors(const Matrix& x, int k,
                                                 float min_similarity) {
  const int n = x.rows();
  std::vector<std::vector<int>> top(static_cast<size_t>(n));
  if (k <= 0) return top;
  // X's stored entries by row and, through the counting transpose, by
  // column (feature -> nodes, ascending). A dense dot product differs
  // from the sum of the stored products only by ±0 terms, which leave a
  // double sum unchanged, and a float × float product is exact in
  // double; so summing the stored products in ascending column order
  // gives CosineSimilarity's double for any finite X.
  const SparseMatrix by_row = SparseMatrix::FromDense(x);
  const SparseMatrix by_col = by_row.Transposed();
  const auto& row_ptr = by_row.row_ptr();
  const auto& row_col = by_row.col_idx();
  const auto& row_val = by_row.values();
  const auto& col_ptr = by_col.row_ptr();
  const auto& col_row = by_col.col_idx();
  const auto& col_val = by_col.values();
  std::vector<double> norm(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    double na = 0.0;
    for (int64_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      na += static_cast<double>(row_val[p]) * row_val[p];
    }
    norm[i] = std::sqrt(na);
  }
  // A row j that shares no stored column with row i has cosine 0, which
  // passes only a negative floor; otherwise the touched rows are all the
  // candidates there are.
  const bool list_every_row = !(min_similarity >= 0.0f);
  // Row-parallel: chunk [r0, r1) writes only top[r0..r1). Candidates are
  // listed in ascending j and partially sorted as a serial scan would,
  // so ties keep the same order at any thread count.
  parallel::ParallelFor(0, n, kMatMulRowGrain, [&](int64_t r0, int64_t r1) {
    std::vector<double> dot(static_cast<size_t>(n), 0.0);
    std::vector<int> touched_by(static_cast<size_t>(n), -1);
    std::vector<int> touched;
    std::vector<std::pair<float, int>> candidates;
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
      touched.clear();
      for (int64_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
        const double a = row_val[p];
        const int c = row_col[p];
        for (int64_t q = col_ptr[c]; q < col_ptr[c + 1]; ++q) {
          const int j = col_row[q];
          dot[j] += a * col_val[q];
          if (touched_by[j] != i) {
            touched_by[j] = i;
            touched.push_back(j);
          }
        }
      }
      const auto consider = [&](int j) {
        if (j == i) return;
        const float sim =
            norm[i] == 0.0 || norm[j] == 0.0
                ? 0.0f
                : static_cast<float>(dot[j] / (norm[i] * norm[j]));
        if (sim > min_similarity) candidates.emplace_back(sim, j);
      };
      candidates.clear();
      if (list_every_row) {
        for (int j = 0; j < n; ++j) consider(j);
      } else {
        std::sort(touched.begin(), touched.end());
        for (const int j : touched) consider(j);
      }
      for (const int j : touched) dot[j] = 0.0;
      const int take = std::min<int>(k, static_cast<int>(candidates.size()));
      std::partial_sort(candidates.begin(), candidates.begin() + take,
                        candidates.end(), [](const auto& a, const auto& b) {
                          return a.first > b.first;
                        });
      auto& row = top[static_cast<size_t>(i)];
      for (int t = 0; t < take; ++t) row.push_back(candidates[t].second);
    }
  });
  return top;
}

float JaccardSimilarity(const Matrix& x, int i, int j) {
  const float* a = x.row(i);
  const float* b = x.row(j);
  int inter = 0, uni = 0;
  for (int k = 0; k < x.cols(); ++k) {
    const bool av = a[k] > 0.5f;
    const bool bv = b[k] > 0.5f;
    inter += (av && bv) ? 1 : 0;
    uni += (av || bv) ? 1 : 0;
  }
  if (uni == 0) return 0.0f;
  return static_cast<float>(inter) / static_cast<float>(uni);
}

std::vector<float> RSqrt(const std::vector<float>& x) {
  std::vector<float> y(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    y[i] = x[i] > 0.0f ? 1.0f / std::sqrt(x[i]) : 0.0f;
  }
  return y;
}

}  // namespace repro::linalg
