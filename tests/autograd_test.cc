#include <cmath>
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "autograd/tape.h"
#include "linalg/ops.h"
#include "linalg/random.h"

namespace repro::autograd {
namespace {

using linalg::Matrix;
using linalg::Rng;
using linalg::SparseMatrix;

// Builds a scalar loss from a single differentiable input.
using ScalarFn = std::function<Var(Tape&, Var)>;

double Eval(const Matrix& x, const ScalarFn& fn) {
  Tape tape;
  Var input = tape.Input(x, /*requires_grad=*/false);
  return fn(tape, input).value()(0, 0);
}

// Central-difference gradient check of `fn` at `x0`. Checks every entry.
void CheckGradient(const Matrix& x0, const ScalarFn& fn,
                   float rel_tol = 2e-2f, float abs_tol = 2e-3f,
                   float h = 1e-2f) {
  Tape tape;
  Var input = tape.Input(x0, /*requires_grad=*/true);
  Var loss = fn(tape, input);
  ASSERT_EQ(loss.rows(), 1);
  ASSERT_EQ(loss.cols(), 1);
  tape.Backward(loss);
  const Matrix& analytic = input.grad();

  Matrix x = x0;
  for (int i = 0; i < x0.rows(); ++i) {
    for (int j = 0; j < x0.cols(); ++j) {
      const float original = x(i, j);
      x(i, j) = original + h;
      const double up = Eval(x, fn);
      x(i, j) = original - h;
      const double down = Eval(x, fn);
      x(i, j) = original;
      const double numeric = (up - down) / (2.0 * h);
      const double got = analytic(i, j);
      const double scale =
          std::max({std::fabs(numeric), std::fabs(got), 1.0});
      EXPECT_NEAR(got, numeric, rel_tol * scale + abs_tol)
          << "entry (" << i << "," << j << ")";
    }
  }
}

Matrix RandomInput(int rows, int cols, uint64_t seed, float stddev = 1.0f) {
  Rng rng(seed);
  return linalg::RandomNormal(rows, cols, stddev, &rng);
}

struct OpCase {
  std::string name;
  int rows;
  int cols;
  ScalarFn fn;
  // Some ops need positive inputs (log, pow).
  bool positive_input = false;
};

class GradientCheck : public ::testing::TestWithParam<OpCase> {};

TEST_P(GradientCheck, MatchesNumericalGradient) {
  const OpCase& op = GetParam();
  Matrix x = RandomInput(op.rows, op.cols, 42);
  if (op.positive_input) {
    float* p = x.data();
    for (int64_t i = 0; i < x.size(); ++i) p[i] = std::fabs(p[i]) + 0.5f;
  }
  CheckGradient(x, op.fn);
}

std::vector<OpCase> MakeOpCases() {
  std::vector<OpCase> cases;
  const Matrix other = RandomInput(4, 3, 7);
  const Matrix square = RandomInput(3, 3, 8);

  cases.push_back({"MatMulLeft", 4, 3, [](Tape& t, Var v) {
    Var b = t.Input(RandomInput(3, 5, 11), false);
    return t.Sum(t.MatMul(v, b));
  }});
  cases.push_back({"MatMulRight", 3, 5, [](Tape& t, Var v) {
    Var a = t.Input(RandomInput(4, 3, 12), false);
    return t.Sum(t.Mul(t.MatMul(a, v), t.MatMul(a, v)));
  }});
  cases.push_back({"SpMMConst", 4, 3, [](Tape& t, Var v) {
    Matrix dense = RandomInput(5, 4, 13);
    for (int i = 0; i < 5; ++i) {
      for (int j = 0; j < 4; ++j) {
        if (std::fabs(dense(i, j)) < 0.5f) dense(i, j) = 0.0f;
      }
    }
    const SparseMatrix s = SparseMatrix::FromDense(dense);
    Var out = t.SpMMConst(s, v);
    return t.Sum(t.Mul(out, out));
  }});
  cases.push_back({"Transpose", 3, 4, [](Tape& t, Var v) {
    Var vt = t.Transpose(v);
    return t.Sum(t.Mul(vt, vt));
  }});
  cases.push_back({"AddMulSub", 4, 3, [other](Tape& t, Var v) {
    Var b = t.Input(other, false);
    Var c = t.Sub(t.Mul(t.Add(v, b), v), b);
    return t.Sum(t.Mul(c, c));
  }});
  cases.push_back({"ScaleAddConst", 4, 3, [other](Tape& t, Var v) {
    Var c = t.AddConst(t.Scale(v, 2.5f), other);
    return t.Sum(t.Mul(c, c));
  }});
  cases.push_back({"MulConst", 4, 3, [other](Tape& t, Var v) {
    return t.Sum(t.Mul(t.MulConst(v, other), v));
  }});
  cases.push_back({"Sigmoid", 4, 3, [](Tape& t, Var v) {
    Var s = t.Sigmoid(v);
    return t.Sum(t.Mul(s, s));
  }});
  cases.push_back({"Exp", 4, 3, [](Tape& t, Var v) {
    return t.Sum(t.Exp(t.Scale(v, 0.5f)));
  }});
  cases.push_back({"PowNonNeg", 4, 3, [](Tape& t, Var v) {
    return t.Sum(t.PowNonNeg(v, -0.5f));
  }, true});
  cases.push_back({"RowSums", 4, 3, [](Tape& t, Var v) {
    Var r = t.RowSums(v);
    return t.Sum(t.Mul(r, r));
  }});
  cases.push_back({"BroadcastCol", 4, 1, [other](Tape& t, Var v) {
    return t.Sum(t.MulConst(t.BroadcastCol(v, 3), other));
  }});
  cases.push_back({"BroadcastRow", 1, 3, [](Tape& t, Var v) {
    Var b = t.Input(RandomInput(4, 3, 14), false);
    return t.Sum(t.Mul(t.BroadcastRow(v, 4), b));
  }});
  cases.push_back({"ScaleRowsVar_data", 4, 3, [](Tape& t, Var v) {
    Var s = t.Input(RandomInput(4, 1, 15), false);
    Var out = t.ScaleRowsVar(v, s);
    return t.Sum(t.Mul(out, out));
  }});
  cases.push_back({"ScaleRowsVar_scale", 4, 1, [](Tape& t, Var v) {
    Var a = t.Input(RandomInput(4, 3, 16), false);
    Var out = t.ScaleRowsVar(a, v);
    return t.Sum(t.Mul(out, out));
  }});
  cases.push_back({"ScaleColsVar_scale", 3, 1, [](Tape& t, Var v) {
    Var a = t.Input(RandomInput(4, 3, 17), false);
    Var out = t.ScaleColsVar(a, v);
    return t.Sum(t.Mul(out, out));
  }});
  cases.push_back({"AddRowVector", 1, 3, [](Tape& t, Var v) {
    Var a = t.Input(RandomInput(4, 3, 18), false);
    Var out = t.AddRowVector(a, v);
    return t.Sum(t.Mul(out, out));
  }});
  cases.push_back({"RowSoftmax", 4, 5, [](Tape& t, Var v) {
    Var s = t.RowSoftmax(v);
    Var w = t.Input(RandomInput(4, 5, 19), false);
    return t.Sum(t.Mul(s, w));
  }});
  cases.push_back({"MaskedRowSoftmax", 4, 5, [](Tape& t, Var v) {
    Matrix mask(4, 5);
    Rng rng(20);
    for (int i = 0; i < 4; ++i) {
      mask(i, i) = 1.0f;  // ensure non-empty rows
      for (int j = 0; j < 5; ++j) {
        if (rng.Bernoulli(0.5)) mask(i, j) = 1.0f;
      }
    }
    Var s = t.MaskedRowSoftmax(v, mask);
    Var w = t.Input(RandomInput(4, 5, 21), false);
    return t.Sum(t.Mul(s, w));
  }});
  cases.push_back({"SoftmaxCrossEntropy", 5, 3, [](Tape& t, Var v) {
    Matrix labels(5, 3);
    for (int i = 0; i < 5; ++i) labels(i, i % 3) = 1.0f;
    const std::vector<float> mask = {1, 1, 0, 1, 1};
    return t.SoftmaxCrossEntropy(v, labels, mask);
  }});
  cases.push_back({"SumEdgePNorm", 4, 3, [other](Tape& t, Var v) {
    const std::vector<std::pair<int, int>> edges = {
        {0, 1}, {1, 0}, {2, 3}, {3, 3}, {0, 2}};
    return t.SumEdgePNorm(v, other, edges, 2);
  }});
  cases.push_back({"Relu", 4, 3, [](Tape& t, Var v) {
    // Shift away from the kink so finite differences are valid.
    Var shifted = t.AddConst(v, Matrix(4, 3, 0.1f));
    Var r = t.Relu(shifted);
    return t.Sum(t.Mul(r, r));
  }});
  cases.push_back({"LeakyRelu", 4, 3, [](Tape& t, Var v) {
    Var shifted = t.AddConst(v, Matrix(4, 3, 0.1f));
    Var r = t.LeakyRelu(shifted, 0.2f);
    return t.Sum(t.Mul(r, r));
  }});
  cases.push_back({"GcnNormalizeDense", 3, 3, [square](Tape& t, Var v) {
    // Use |v| as a nonnegative adjacency-like input.
    Var sq = t.Mul(v, v);
    Var a_n = t.GcnNormalizeDense(sq);
    Var w = t.Input(square, false);
    return t.Sum(t.Mul(a_n, w));
  }});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, GradientCheck, ::testing::ValuesIn(MakeOpCases()),
    [](const ::testing::TestParamInfo<OpCase>& info) {
      return info.param.name;
    });

TEST(TapeTest, BackwardAccumulatesOverMultipleUses) {
  // loss = sum(v * v) via two separate uses of v: d/dv = 2v.
  Matrix x0 = Matrix::FromRows({{1.0f, -2.0f}});
  Tape tape;
  Var v = tape.Input(x0, true);
  Var loss = tape.Sum(tape.Mul(v, v));
  tape.Backward(loss);
  EXPECT_FLOAT_EQ(v.grad()(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(v.grad()(0, 1), -4.0f);
}

TEST(TapeTest, NoGradForConstInputs) {
  Tape tape;
  Var v = tape.Input(Matrix(2, 2, 1.0f), false);
  Var w = tape.Input(Matrix(2, 2, 2.0f), true);
  Var loss = tape.Sum(tape.Mul(v, w));
  tape.Backward(loss);
  EXPECT_FLOAT_EQ(w.grad()(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(v.grad()(1, 1), 0.0f);  // untouched => zero
}

TEST(TapeTest, GcnNormalizeDenseMatchesSparseNormalization) {
  // On a fixed adjacency the dense differentiable normalization must
  // agree with the sparse graph::GcnNormalize (checked via values only).
  Matrix a(3, 3);
  a(0, 1) = a(1, 0) = 1.0f;
  a(1, 2) = a(2, 1) = 1.0f;
  Tape tape;
  Var av = tape.Input(a, false);
  Var a_n = tape.GcnNormalizeDense(av);
  // Node degrees with self-loop: 2, 3, 2.
  EXPECT_NEAR(a_n.value()(0, 0), 1.0f / 2.0f, 1e-5f);
  EXPECT_NEAR(a_n.value()(0, 1), 1.0f / std::sqrt(6.0f), 1e-5f);
  EXPECT_NEAR(a_n.value()(1, 1), 1.0f / 3.0f, 1e-5f);
  EXPECT_NEAR(a_n.value()(0, 2), 0.0f, 1e-5f);
}

TEST(TapeTest, DropoutMaskScalesEntries) {
  Tape tape;
  Matrix mask(2, 2);
  mask(0, 0) = 2.0f;  // keep with 1/keep = 2
  Var v = tape.Input(Matrix(2, 2, 3.0f), true);
  Var out = tape.Dropout(v, mask);
  EXPECT_FLOAT_EQ(out.value()(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(out.value()(1, 1), 0.0f);
}

}  // namespace
}  // namespace repro::autograd
