#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/dispatch.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "linalg/ops.h"
#include "linalg/random.h"
#include "linalg/sparse.h"

namespace repro::linalg {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6);
  EXPECT_FLOAT_EQ(m(1, 2), 1.5f);
  m(0, 1) = -2.0f;
  EXPECT_FLOAT_EQ(m(0, 1), -2.0f);
}

TEST(MatrixTest, IdentityHasOnesOnDiagonal) {
  const Matrix id = Matrix::Identity(4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_FLOAT_EQ(id(i, j), i == j ? 1.0f : 0.0f);
    }
  }
}

TEST(MatrixTest, FromRowsMatchesInput) {
  const Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_FLOAT_EQ(m(2, 1), 6.0f);
}

TEST(MatrixTest, FillOverwritesEverything) {
  Matrix m(3, 3, 1.0f);
  m.Fill(7.0f);
  EXPECT_FLOAT_EQ(m(2, 2), 7.0f);
  EXPECT_DOUBLE_EQ(Sum(m), 63.0);
}

TEST(OpsTest, MatMulMatchesManual) {
  const Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  const Matrix c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 50.0f);
}

TEST(OpsTest, MatMulTransVariantsAgreeWithExplicitTranspose) {
  Rng rng(1);
  const Matrix a = RandomNormal(7, 5, 1.0f, &rng);
  const Matrix b = RandomNormal(7, 4, 1.0f, &rng);
  const Matrix expected = MatMul(Transpose(a), b);
  EXPECT_LT(MaxAbsDiff(MatMulTransA(a, b), expected), 1e-4f);

  const Matrix c = RandomNormal(6, 5, 1.0f, &rng);
  const Matrix d = RandomNormal(3, 5, 1.0f, &rng);
  const Matrix expected2 = MatMul(c, Transpose(d));
  EXPECT_LT(MaxAbsDiff(MatMulTransB(c, d), expected2), 1e-4f);
}

TEST(OpsTest, ElementwiseOps) {
  const Matrix a = Matrix::FromRows({{1, -2}, {3, 0}});
  const Matrix b = Matrix::FromRows({{2, 2}, {-1, 5}});
  EXPECT_FLOAT_EQ(Add(a, b)(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(Sub(a, b)(1, 0), 4.0f);
  EXPECT_FLOAT_EQ(Mul(a, b)(0, 1), -4.0f);
  EXPECT_FLOAT_EQ(Affine(a, 2.0f, 1.0f)(0, 1), -3.0f);
}

TEST(OpsTest, ReluAndLeakyRelu) {
  const Matrix a = Matrix::FromRows({{-1, 2}});
  EXPECT_FLOAT_EQ(Relu(a)(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(Relu(a)(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(LeakyRelu(a, 0.1f)(0, 0), -0.1f);
}

TEST(OpsTest, RowSoftmaxRowsSumToOne) {
  Rng rng(2);
  const Matrix a = RandomNormal(5, 7, 3.0f, &rng);
  const Matrix s = RowSoftmax(a);
  for (int i = 0; i < 5; ++i) {
    float total = 0.0f;
    for (int j = 0; j < 7; ++j) {
      EXPECT_GE(s(i, j), 0.0f);
      total += s(i, j);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(OpsTest, RowSoftmaxIsShiftInvariant) {
  const Matrix a = Matrix::FromRows({{1000.0f, 1001.0f, 999.0f}});
  const Matrix s = RowSoftmax(a);
  EXPECT_FALSE(std::isnan(s(0, 0)));
  EXPECT_GT(s(0, 1), s(0, 0));
  EXPECT_GT(s(0, 0), s(0, 2));
}

TEST(OpsTest, RowArgmaxPicksLargest) {
  const Matrix a = Matrix::FromRows({{0.1f, 0.9f, 0.3f}, {5, 1, 2}});
  const std::vector<int> argmax = RowArgmax(a);
  EXPECT_EQ(argmax[0], 1);
  EXPECT_EQ(argmax[1], 0);
}

TEST(OpsTest, ScaleRowsAndCols) {
  const Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  const Matrix r = ScaleRows(a, {2.0f, 0.5f});
  EXPECT_FLOAT_EQ(r(0, 1), 4.0f);
  EXPECT_FLOAT_EQ(r(1, 0), 1.5f);
  const Matrix c = ScaleCols(a, {10.0f, 0.0f});
  EXPECT_FLOAT_EQ(c(1, 0), 30.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 0.0f);
}

TEST(OpsTest, CosineSimilarityProperties) {
  const Matrix x = Matrix::FromRows({{1, 0, 1}, {1, 0, 1}, {0, 1, 0}});
  EXPECT_NEAR(CosineSimilarity(x, 0, 1), 1.0f, 1e-6f);
  EXPECT_NEAR(CosineSimilarity(x, 0, 2), 0.0f, 1e-6f);
}

TEST(OpsTest, CosineSimilarityZeroRowIsZero) {
  const Matrix x = Matrix::FromRows({{0, 0}, {1, 1}});
  EXPECT_FLOAT_EQ(CosineSimilarity(x, 0, 1), 0.0f);
}

TEST(OpsTest, JaccardSimilarity) {
  const Matrix x = Matrix::FromRows({{1, 1, 0, 0}, {1, 0, 1, 0}});
  EXPECT_NEAR(JaccardSimilarity(x, 0, 1), 1.0f / 3.0f, 1e-6f);
  EXPECT_NEAR(JaccardSimilarity(x, 0, 0), 1.0f, 1e-6f);
}

TEST(OpsTest, RSqrtMapsZeroToZero) {
  const std::vector<float> y = RSqrt({4.0f, 0.0f, 0.25f});
  EXPECT_FLOAT_EQ(y[0], 0.5f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
}

TEST(SparseTest, FromTripletsSumsDuplicates) {
  const SparseMatrix m = SparseMatrix::FromTriplets(
      3, 3, {{0, 1, 1.0f}, {0, 1, 2.0f}, {2, 0, 5.0f}});
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_FLOAT_EQ(m.At(0, 1), 3.0f);
  EXPECT_FLOAT_EQ(m.At(2, 0), 5.0f);
  EXPECT_FLOAT_EQ(m.At(1, 1), 0.0f);
}

TEST(SparseTest, EmptyRowsHaveValidRowPtr) {
  const SparseMatrix m =
      SparseMatrix::FromTriplets(4, 4, {{3, 0, 1.0f}});
  EXPECT_EQ(m.RowNnz(0), 0);
  EXPECT_EQ(m.RowNnz(3), 1);
}

TEST(SparseTest, DenseRoundTrip) {
  Rng rng(3);
  Matrix dense = RandomUniform(6, 5, 0.0f, 1.0f, &rng);
  // Sparsify ~half.
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 5; ++j) {
      if (dense(i, j) < 0.5f) dense(i, j) = 0.0f;
    }
  }
  const SparseMatrix sparse = SparseMatrix::FromDense(dense);
  EXPECT_LT(MaxAbsDiff(sparse.ToDense(), dense), 1e-6f);
}

TEST(SparseTest, TransposeIsInvolution) {
  const SparseMatrix m = SparseMatrix::FromTriplets(
      3, 4, {{0, 3, 2.0f}, {1, 0, -1.0f}, {2, 2, 4.0f}});
  const SparseMatrix tt = m.Transposed().Transposed();
  EXPECT_LT(MaxAbsDiff(tt.ToDense(), m.ToDense()), 1e-6f);
  EXPECT_FLOAT_EQ(m.Transposed().At(3, 0), 2.0f);
}

TEST(SparseTest, TransposedMatchesTripletPath) {
  // Random non-square CSRs with empty rows and columns: the counting
  // transpose must give the arrays the sorted-triplet rebuild gives.
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const int rows = static_cast<int>(rng.UniformInt(1, 40));
    const int cols = static_cast<int>(rng.UniformInt(1, 40));
    std::vector<std::tuple<int, int, float>> triplets;
    for (int r = 0; r < rows; ++r) {
      if (rng.Bernoulli(0.3)) continue;  // empty row
      for (int c = 0; c < cols; ++c) {
        if (c % 3 != trial % 3 && rng.Bernoulli(0.25)) {  // empty columns
          triplets.emplace_back(r, c, static_cast<float>(rng.Normal()));
        }
      }
    }
    const SparseMatrix m = SparseMatrix::FromTriplets(rows, cols, triplets);
    std::vector<std::tuple<int, int, float>> swapped;
    for (const auto& [r, c, v] : triplets) swapped.emplace_back(c, r, v);
    const SparseMatrix expected =
        SparseMatrix::FromTriplets(cols, rows, swapped);
    const SparseMatrix t = m.Transposed();
    ASSERT_EQ(t.rows(), cols);
    ASSERT_EQ(t.cols(), rows);
    EXPECT_EQ(t.row_ptr(), expected.row_ptr()) << "trial " << trial;
    EXPECT_EQ(t.col_idx(), expected.col_idx()) << "trial " << trial;
    EXPECT_EQ(t.values(), expected.values()) << "trial " << trial;
  }
}

TEST(SparseTest, SpMMMatchesDense) {
  Rng rng(4);
  Matrix dense = RandomNormal(8, 8, 1.0f, &rng);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      if (std::fabs(dense(i, j)) < 0.8f) dense(i, j) = 0.0f;
    }
  }
  const SparseMatrix sparse = SparseMatrix::FromDense(dense);
  const Matrix b = RandomNormal(8, 3, 1.0f, &rng);
  EXPECT_LT(MaxAbsDiff(SpMM(sparse, b), MatMul(dense, b)), 1e-4f);
}

TEST(EigenTest, RecoverKnownSpectrum) {
  // Diagonal matrix: eigenvalues are the diagonal.
  Matrix d(5, 5);
  const std::vector<float> diag = {9.0f, -6.0f, 3.0f, 1.0f, 0.5f};
  for (int i = 0; i < 5; ++i) d(i, i) = diag[i];
  Rng rng(5);
  const EigenResult eig = TopKEigenSymmetricDense(d, 3, &rng, 60);
  EXPECT_NEAR(eig.values[0], 9.0f, 1e-3f);
  EXPECT_NEAR(std::fabs(eig.values[1]), 6.0f, 1e-3f);
  EXPECT_NEAR(eig.values[2], 3.0f, 1e-3f);
}

TEST(EigenTest, ReconstructionApproximatesLowRankMatrix) {
  // Build an exactly rank-2 symmetric matrix.
  Rng rng(6);
  const Matrix u = RandomNormal(10, 2, 1.0f, &rng);
  const Matrix a = MatMulTransB(u, u);  // u u^T, PSD rank 2
  const EigenResult eig = TopKEigenSymmetricDense(a, 2, &rng, 60);
  const Matrix rec = LowRankReconstruct(eig);
  EXPECT_LT(MaxAbsDiff(rec, a), 1e-2f);
}

TEST(EigenTest, SparseAndDensePathsAgree) {
  Rng rng(7);
  Matrix sym(12, 12);
  for (int i = 0; i < 12; ++i) {
    for (int j = i; j < 12; ++j) {
      if (rng.Bernoulli(0.3)) {
        const float v = static_cast<float>(rng.Normal());
        sym(i, j) = v;
        sym(j, i) = v;
      }
    }
  }
  const EigenResult dense_eig = TopKEigenSymmetricDense(sym, 4, &rng, 60);
  Rng rng2(7);
  const EigenResult sparse_eig =
      TopKEigenSymmetric(SparseMatrix::FromDense(sym), 4, &rng2, 60);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(std::fabs(dense_eig.values[i]),
                std::fabs(sparse_eig.values[i]), 1e-2f);
  }
}

TEST(EigenTest, OrthonormalizeProducesOrthonormalColumns) {
  Rng rng(8);
  Matrix m = RandomNormal(10, 4, 1.0f, &rng);
  OrthonormalizeColumns(&m);
  const Matrix gram = MatMulTransA(m, m);
  EXPECT_LT(MaxAbsDiff(gram, Matrix::Identity(4)), 1e-4f);
}

TEST(RandomTest, PermutationIsAPermutation) {
  Rng rng(9);
  const std::vector<int> perm = rng.Permutation(100);
  std::vector<int> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(RandomTest, SampleIsDistinctAndInRange) {
  Rng rng(10);
  const std::vector<int> sample = rng.Sample(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::vector<int> sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_GE(sorted.front(), 0);
  EXPECT_LT(sorted.back(), 50);
}

TEST(RandomTest, SeedDeterminism) {
  Rng a(123), b(123);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RandomTest, BernoulliRespectsProbabilityRoughly) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

/// A generator with the engine's range that yields one fixed value.
struct FixedValue {
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }
  result_type operator()() const { return value; }
  uint64_t value;
};

TEST(RandomTest, BernoulliCutMatchesBernoulliDistribution) {
  // The same seeded stream through both paths: every trial agrees, and
  // each consumed exactly one engine value, so the streams stay aligned.
  for (const double p : {0.0, 1e-12, 0.1, 0.3, 0.5, 0.9, 1.0 - 1e-12, 1.0}) {
    Rng by_distribution(99);
    Rng by_cut(99);
    const BernoulliCut cut(p);
    int64_t mismatches = 0;
    for (int i = 0; i < 1000000; ++i) {
      mismatches += by_distribution.Bernoulli(p) != by_cut.Bernoulli(cut);
    }
    EXPECT_EQ(mismatches, 0) << "p = " << p;
    EXPECT_EQ(by_distribution.engine()(), by_cut.engine()()) << "p = " << p;
    // Random values almost never land on the cut itself, so also sweep
    // the 2^14 values around p * 2^64, where the cut lies.
    std::bernoulli_distribution trial(p);
    const long double center = static_cast<long double>(p) * 0x1p64L;
    const uint64_t last_start = ~uint64_t{0} - (1 << 14);
    const uint64_t start =
        center >= static_cast<long double>(last_start)
            ? last_start
            : static_cast<uint64_t>(std::max(center - 0x1p13L, 0.0L));
    for (uint64_t i = 0; i <= (1 << 14); ++i) {
      const uint64_t v = start + i;
      FixedValue gen{v};
      ASSERT_EQ(cut(v), trial(gen)) << "p = " << p << ", value " << v;
    }
  }
}

constexpr uint64_t kStreamSeeds[] = {0, 1, 42, ~uint64_t{0}};

std::string TextOf(const Mt19937_64& engine) {
  std::ostringstream out;
  out << engine;
  return out.str();
}

std::string TextOf(const std::mt19937_64& engine) {
  std::ostringstream out;
  out << engine;
  return out.str();
}

TEST(Mt19937Test, ScalarDrawsMatchStdEngine) {
  for (const uint64_t seed : kStreamSeeds) {
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    int64_t mismatches = 0;
    for (int i = 0; i < 1000000; ++i) mismatches += engine() != reference();
    EXPECT_EQ(mismatches, 0) << "seed " << seed;
  }
}

TEST(Mt19937Test, MaskFillsInterleavedWithDrawsMatchStdReference) {
  // Every usable kernel variant fills masks of lengths around the
  // 4-word vector and the 312-word block between distribution draws;
  // the reference draws the same sequence on std::mt19937_64, the mask
  // cell by cell through std::bernoulli_distribution.
  constexpr int64_t kLengths[] = {0, 1, 3, 4, 5, 311, 312, 313, 580000};
  const float entry[2] = {2.0f, 0.0f};
  for (const SimdVariant variant :
       {SimdVariant::kGeneric, SimdVariant::kAvx2, SimdVariant::kNeon}) {
    if (!SimdVariantUsable(variant)) continue;
    const ScopedSimdVariant forced(variant);
    for (const uint64_t seed : kStreamSeeds) {
      SCOPED_TRACE(std::string(SimdVariantName(variant)) + ", seed " +
                   std::to_string(seed));
      Rng rng(seed);
      std::mt19937_64 reference(seed);
      for (const double p : {0.5, 0.3}) {
        const BernoulliCut cut(p);
        std::bernoulli_distribution trial(p);
        for (const int64_t n : kLengths) {
          std::vector<float> mask(static_cast<size_t>(n));
          rng.engine().FillBernoulli(cut, entry, mask.data(), n);
          int64_t mismatches = 0;
          for (int64_t i = 0; i < n; ++i) {
            mismatches += mask[i] != entry[trial(reference)];
          }
          ASSERT_EQ(mismatches, 0) << "p = " << p << ", length " << n;
          ASSERT_EQ(rng.Uniform(-1.0, 3.0),
                    std::uniform_real_distribution<double>(-1.0, 3.0)(
                        reference));
          ASSERT_EQ(rng.Normal(0.5, 2.0),
                    std::normal_distribution<double>(0.5, 2.0)(reference));
          std::vector<int> perm(13);
          std::iota(perm.begin(), perm.end(), 0);
          std::shuffle(perm.begin(), perm.end(), reference);
          ASSERT_EQ(rng.Permutation(13), perm);
          Rng child = rng.Fork();
          std::mt19937_64 child_reference(reference());
          for (int i = 0; i < 400; ++i) {
            ASSERT_EQ(child.engine()(), child_reference());
          }
        }
      }
      EXPECT_EQ(TextOf(rng.engine()), TextOf(reference));
    }
  }
}

TEST(Mt19937Test, TextStateMatchesStdAtBlockStartMidBlockAndEnd) {
  for (const uint64_t seed : kStreamSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 reference(seed);
    Mt19937_64 engine(seed);
    // Position 312: a freshly seeded, spent block.
    EXPECT_EQ(TextOf(engine), TextOf(reference));
    for (int i = 0; i < 100; ++i) ASSERT_EQ(engine(), reference());
    // Mid-block.
    EXPECT_EQ(TextOf(engine), TextOf(reference));
    // Position 0 never follows a draw, so write it into the text of a
    // twisted block; both engines read it and continue alike.
    std::string text = TextOf(reference);
    text = text.substr(0, text.rfind(' ') + 1) + "0";
    std::istringstream in_reference(text);
    in_reference >> reference;
    std::istringstream in_engine(text);
    in_engine >> engine;
    ASSERT_FALSE(in_engine.fail());
    EXPECT_EQ(TextOf(engine), text);
    EXPECT_EQ(TextOf(reference), text);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(engine(), reference());
    // Round trip through our text into the std engine and back.
    std::istringstream back(TextOf(engine));
    back >> reference;
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(engine(), reference());
  }
}

TEST(Mt19937Test, BernoulliAtMatchesScalarDrawsAtListedOffsets) {
  // Every usable kernel variant walks n values from a spent block, from
  // mid-block and from one word before a twist, for n below, at and past
  // the 312-word block and not a multiple of it. The lists: none, the
  // block edges (0, 311, 312 and the last), a sparse random subset and
  // every offset. Each outcome is the cut of the scalar engine's value
  // at its offset, and both engines draw alike afterwards.
  constexpr int64_t kLengths[] = {0, 1, 5, 311, 312, 313, 1000, 4999};
  for (const SimdVariant variant :
       {SimdVariant::kGeneric, SimdVariant::kAvx2, SimdVariant::kNeon}) {
    if (!SimdVariantUsable(variant)) continue;
    const ScopedSimdVariant forced(variant);
    for (const uint64_t seed : kStreamSeeds) {
      Rng pick(seed + 5);
      for (const int skip : {0, 100, 311}) {
        for (const int64_t n : kLengths) {
          std::vector<std::vector<int64_t>> lists(4);
          for (int64_t c = 0; c < n; ++c) {
            if (c == 0 || c == 311 || c == 312 || c == n - 1) {
              lists[1].push_back(c);
            }
            if (pick.Bernoulli(0.02)) lists[2].push_back(c);
            lists[3].push_back(c);
          }
          for (const double p : {0.3, 0.5}) {
            const BernoulliCut cut(p);
            for (const std::vector<int64_t>& offsets : lists) {
              SCOPED_TRACE(std::string(SimdVariantName(variant)) +
                           ", seed " + std::to_string(seed) + ", skip " +
                           std::to_string(skip) + ", n " + std::to_string(n) +
                           ", " + std::to_string(offsets.size()) +
                           " offsets, p " + std::to_string(p));
              Mt19937_64 engine(seed);
              Mt19937_64 reference(seed);
              for (int i = 0; i < skip; ++i) {
                engine();
                reference();
              }
              std::vector<uint64_t> values(static_cast<size_t>(n));
              for (uint64_t& v : values) v = reference();
              std::vector<uint8_t> outcome(offsets.size(), 7);
              engine.BernoulliAt(cut, offsets.data(),
                                 static_cast<int64_t>(offsets.size()),
                                 outcome.data(), n);
              int64_t mismatches = 0;
              for (size_t i = 0; i < offsets.size(); ++i) {
                mismatches += outcome[i] != (cut(values[offsets[i]]) ? 1 : 0);
              }
              ASSERT_EQ(mismatches, 0);
              ASSERT_EQ(engine(), reference());
            }
          }
        }
      }
    }
  }
}

TEST(Mt19937Test, StateTextIsReadStrictly) {
  Mt19937_64 source(7);
  for (int i = 0; i < 5; ++i) source();
  const std::string valid = TextOf(source);
  const std::string words = valid.substr(0, valid.rfind(' ') + 1);
  const std::string bad[] = {
      "",
      words,                       // no position
      words + "313",               // position past the block
      words + "-1",                // signed position
      words + "+5",
      words + "5 ",                // trailing whitespace
      words + "5 6",               // an extra word
      "18446744073709551616 " + valid.substr(valid.find(' ') + 1),
      "0x1 " + valid.substr(valid.find(' ') + 1),
  };
  const std::string untouched = TextOf(Mt19937_64(99));
  for (const std::string& text : bad) {
    Mt19937_64 engine(99);
    std::istringstream in(text);
    in >> engine;
    EXPECT_TRUE(in.fail()) << "accepted: ..." << text.substr(
        text.size() > 40 ? text.size() - 40 : 0);
    EXPECT_EQ(TextOf(engine), untouched);
  }
  Mt19937_64 engine(99);
  std::istringstream in(valid);
  in >> engine;
  EXPECT_FALSE(in.fail());
  EXPECT_EQ(TextOf(engine), valid);
}

}  // namespace
}  // namespace repro::linalg
