// Death tests for the src/debug correctness tooling: the value-printing
// PEEGA_CHECK macros, the PEEGA_DCHECK Release behavior, the tape shape
// validator's op-trace rejection of malformed graphs, and the
// PEEGA_DEBUG_NUMERICS NaN/Inf poison checks.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "attack/common.h"
#include "autograd/tape.h"
#include "debug/check.h"
#include "debug/numerics.h"
#include "graph/graph.h"
#include "linalg/matrix.h"
#include "linalg/ops.h"
#include "linalg/random.h"
#include "nn/gcn.h"

namespace repro {
namespace {

using autograd::Tape;
using autograd::Var;
using linalg::Matrix;

// ---------------------------------------------------------------------------
// PEEGA_CHECK macros
// ---------------------------------------------------------------------------

TEST(CheckMacros, PassingChecksAreSilent) {
  PEEGA_CHECK(1 + 1 == 2);
  PEEGA_CHECK_EQ(3, 3);
  PEEGA_CHECK_NE(3, 4);
  PEEGA_CHECK_LT(3, 4) << "context that is never rendered";
  PEEGA_CHECK_LE(3, 3);
  PEEGA_CHECK_GT(4, 3);
  PEEGA_CHECK_GE(4, 4);
}

TEST(CheckMacrosDeathTest, PrintsBothOperandValues) {
  const int rows = 3;
  const int cols = 4;
  // The failure message must show the operand VALUES, not just the text.
  EXPECT_DEATH(PEEGA_CHECK_EQ(rows, cols), "rows == cols \\(3 vs. 4\\)");
}

TEST(CheckMacrosDeathTest, StreamedContextIsAppended) {
  const int v = 7;
  EXPECT_DEATH(PEEGA_CHECK_LT(v, 5) << " while flipping node " << v,
               "CHECK failed.*7 vs. 5.*while flipping node 7");
}

TEST(CheckMacrosDeathTest, PlainCheckShowsConditionText) {
  const bool symmetric = false;
  EXPECT_DEATH(PEEGA_CHECK(symmetric), "CHECK failed: symmetric");
}

TEST(CheckMacros, DcheckMatchesBuildMode) {
  const int bad = -1;
#ifdef NDEBUG
  // Compiled out in Release: must not evaluate, must not abort.
  PEEGA_DCHECK_GE(bad, 0) << "never printed";
  SUCCEED();
#else
  EXPECT_DEATH(PEEGA_DCHECK_GE(bad, 0), "CHECK failed.*-1 vs. 0");
#endif
}

// ---------------------------------------------------------------------------
// Tape shape validator
// ---------------------------------------------------------------------------

TEST(TapeValidatorDeathTest, RejectsNonScalarLoss) {
  Tape tape;
  Var m = tape.Input(Matrix(2, 3), /*requires_grad=*/true);
  Var r = tape.Relu(m);
  EXPECT_DEATH(tape.Backward(r), "loss must be 1x1, got 2x3");
}

TEST(TapeValidatorDeathTest, RejectsDefaultConstructedVar) {
  Tape tape;
  EXPECT_DEATH(tape.Backward(Var()), "default-constructed Var");
}

TEST(TapeValidatorDeathTest, RejectsVarFromAnotherTape) {
  Tape a;
  Tape b;
  (void)a.Input(Matrix(1, 1), true);
  Var foreign = b.Input(Matrix(1, 1), true);
  Var scalar = b.Sum(foreign);
  EXPECT_DEATH(a.Backward(scalar), "does not belong to this tape");
}

TEST(TapeValidatorDeathTest, CorruptedShapeRejectedWithOpTrace) {
  Tape tape;
  Var x = tape.Input(Matrix(2, 3, 1.0f), /*requires_grad=*/true);
  Var w = tape.Input(Matrix(3, 2, 1.0f), /*requires_grad=*/true);
  Var prod = tape.MatMul(x, w);
  Var loss = tape.Sum(prod);
  tape.CorruptValueShapeForTest(prod, 5, 5);
  // The failure must name the divergence and render an op-trace naming the
  // producing op and its ancestors.
  EXPECT_DEATH(tape.Backward(loss),
               "diverged from the 2x2 recorded at creation(.|\n)*op-trace"
               "(.|\n)*MatMul(.|\n)*Input");
}

TEST(TapeValidator, AcceptsWellFormedGraph) {
  Tape tape;
  Var x = tape.Input(Matrix(2, 3, 1.0f), /*requires_grad=*/true);
  Var w = tape.Input(Matrix(3, 2, 0.5f), /*requires_grad=*/true);
  Var loss = tape.Sum(tape.MatMul(x, w));
  tape.ValidateForBackward(loss);  // must not abort
  tape.Backward(loss);
  EXPECT_FLOAT_EQ(x.grad()(0, 0), 1.0f);
}

// ---------------------------------------------------------------------------
// Mis-shaped model forward / out-of-range flips
// ---------------------------------------------------------------------------

TEST(ModelShapeDeathTest, MisshapenGcnForwardDies) {
  linalg::Rng rng(7);
  // 4-node ring; features deliberately have 3 rows instead of 4, so the
  // first propagation A_n (4x4) * H (3x2 after X W) must fail the SpMM
  // shape check.
  const linalg::SparseMatrix adj = graph::AdjacencyFromEdges(
      4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const linalg::SparseMatrix a_n = graph::GcnNormalize(adj);
  nn::Gcn::Options options;
  options.num_layers = 1;
  options.dropout = 0.0f;
  nn::Gcn gcn(/*in_dim=*/2, /*num_classes=*/2, options, &rng);
  Tape tape;
  auto bound = gcn.BindParameters(&tape);
  const linalg::SparseMatrix bad_x =
      linalg::SparseMatrix::FromDense(Matrix(3, 2, 1.0f));
  EXPECT_DEATH((void)gcn.ForwardWithPropagation(&tape, a_n, bad_x, bound,
                                                /*training=*/false, &rng),
               "CHECK failed");
}

TEST(FlipDeathTest, OutOfRangeEdgeFlipDies) {
  Matrix adj(4, 4);
  EXPECT_DEATH(attack::FlipEdge(&adj, 0, 99),
               "CHECK failed: v < n \\(99 vs. 4\\).*FlipEdge on 4 nodes");
}

TEST(FlipDeathTest, SelfLoopEdgeFlipDies) {
  Matrix adj(4, 4);
  EXPECT_DEATH(attack::FlipEdge(&adj, 2, 2),
               "self-loop flips are not valid perturbations");
}

TEST(FlipDeathTest, OutOfRangeFeatureFlipDies) {
  Matrix features(4, 8);
  EXPECT_DEATH(attack::FlipFeature(&features, 4, 0), "in FlipFeature");
}

// ---------------------------------------------------------------------------
// Numerics guard
// ---------------------------------------------------------------------------

// The scan helper is always compiled (only the PEEGA_CHECK_FINITE_* macro
// wiring is conditional), so its contract is testable in every build mode.
TEST(NumericsGuard, CheckFiniteArrayPassesOnFiniteData) {
  const float data[] = {0.0f, -1.5f, 3.0e37f};
  debug::CheckFiniteArray(data, 3, 3, "test", __FILE__, __LINE__);
}

TEST(NumericsGuardDeathTest, CheckFiniteArrayReportsNaNPosition) {
  float data[] = {0.0f, 1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
  data[4] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_DEATH(
      debug::CheckFiniteArray(data, 6, 3, "RowSoftmax", __FILE__, __LINE__),
      "non-finite value in RowSoftmax.*flat index 4.*row 1, col 1");
}

TEST(NumericsGuardDeathTest, CheckFiniteArrayReportsInf) {
  float data[] = {1.0f, -std::numeric_limits<float>::infinity()};
  EXPECT_DEATH(debug::CheckFiniteArray(data, 2, 0, "SpMV", __FILE__, __LINE__),
               "non-finite value in SpMV");
}

#ifdef PEEGA_DEBUG_NUMERICS
TEST(NumericsGuardDeathTest, MatMulCatchesInjectedNaN) {
  ASSERT_TRUE(debug::NumericsGuardEnabled());
  Matrix a(2, 2, 1.0f);
  a(1, 0) = std::numeric_limits<float>::quiet_NaN();
  const Matrix b(2, 2, 1.0f);
  EXPECT_DEATH((void)linalg::MatMul(a, b), "non-finite value in MatMul");
}

TEST(NumericsGuardDeathTest, BackwardCatchesInjectedNaN) {
  ASSERT_TRUE(debug::NumericsGuardEnabled());
  // Scale is an unguarded forward op, so a NaN scale factor survives the
  // forward pass; the per-node backward poison check must catch the NaN
  // gradient the moment the backward of Scale produces it.
  Tape tape;
  Var x = tape.Input(Matrix(2, 2, 1.0f), /*requires_grad=*/true);
  Var scaled = tape.Scale(x, std::numeric_limits<float>::quiet_NaN());
  Var loss = tape.Sum(scaled);
  EXPECT_DEATH(tape.Backward(loss), "non-finite value in backward of Scale");
}
#else
TEST(NumericsGuard, MacrosCompileToNoOpsWhenDisabled) {
  EXPECT_FALSE(debug::NumericsGuardEnabled());
  Matrix a(2, 2, std::numeric_limits<float>::quiet_NaN());
  const Matrix b(2, 2, 1.0f);
  // Without the guard the NaN propagates silently — exactly the failure
  // mode PEEGA_DEBUG_NUMERICS=ON exists to catch.
  const Matrix c = linalg::MatMul(a, b);
  EXPECT_TRUE(std::isnan(c(0, 0)));
}
#endif

}  // namespace
}  // namespace repro
