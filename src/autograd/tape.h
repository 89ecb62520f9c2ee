#ifndef PEEGA_AUTOGRAD_TAPE_H_
#define PEEGA_AUTOGRAD_TAPE_H_

#include <functional>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/sparse.h"

namespace repro::autograd {

class Tape;

namespace internal {

/// A kind of tape op: its name in op-trace diagnostics and the trace
/// spans of its forward and of its backward closure, all string
/// literals ("MatMul", "autograd.MatMul", "autograd.MatMul.backward").
struct OpKind {
  const char* name;
  const char* forward_span;
  const char* backward_span;
};

/// One entry on the tape: a value, its (lazily allocated) gradient, and a
/// backward closure that scatters this node's gradient into its parents.
/// `op`, `parents`, and the shapes recorded at creation exist for the
/// pre-Backward graph validation pass and its op-trace diagnostics.
struct Node {
  linalg::Matrix value;
  linalg::Matrix grad;
  bool requires_grad = false;
  bool grad_initialized = false;
  std::function<void(Node*)> backward;

  const char* op = "?";
  const char* backward_span = "autograd.?.backward";
  int index = -1;               // position on the tape
  int recorded_rows = 0;        // value shape captured at creation
  int recorded_cols = 0;
  std::vector<Node*> parents;   // tape nodes this op consumed

  linalg::Matrix& EnsureGrad() {
    if (!grad_initialized) {
      grad = linalg::Matrix(value.rows(), value.cols());
      grad_initialized = true;
    }
    return grad;
  }
};

}  // namespace internal

/// Lightweight handle to a tape node. Copyable; lifetime is bounded by the
/// owning `Tape`.
class Var {
 public:
  Var() : node_(nullptr) {}

  const linalg::Matrix& value() const { return node_->value; }

  /// Gradient of the backward root with respect to this node. Only valid
  /// after `Tape::Backward`; zero matrix when the node never received
  /// gradient.
  const linalg::Matrix& grad() const { return node_->EnsureGrad(); }

  int rows() const { return node_->value.rows(); }
  int cols() const { return node_->value.cols(); }
  bool valid() const { return node_ != nullptr; }

 private:
  friend class Tape;
  explicit Var(internal::Node* node) : node_(node) {}
  internal::Node* node_;
};

/// A constant sparse operand of `Tape::SpMMConst`: S together with the
/// transpose Sᵀ that the product's backward multiplies by. Building one
/// transposes S once (a counting transpose, O(nnz + cols)); copies share
/// both matrices, so a matrix that is fixed for a training run (A_n,
/// GNAT's views) is transposed once in `Prepare` rather than on every
/// forward. Converts implicitly from a `SparseMatrix` for an operand used
/// once (the dropped-out input of a GCN's first layer). Immutable.
class ConstSparse {
 public:
  ConstSparse() : ConstSparse(linalg::SparseMatrix()) {}
  ConstSparse(linalg::SparseMatrix s);  // NOLINT(google-explicit-constructor)

  const linalg::SparseMatrix& matrix() const { return pair_->matrix; }
  const linalg::SparseMatrix& transposed() const { return pair_->transposed; }

 private:
  struct Pair {
    linalg::SparseMatrix matrix;
    linalg::SparseMatrix transposed;
  };
  // Shared with the backward closures of the tapes that multiply by it.
  std::shared_ptr<const Pair> pair_;
};

/// Reverse-mode autodiff tape.
///
/// A `Tape` records one computation (typically a single forward pass). Ops
/// are member functions that append a node and return a `Var`. Calling
/// `Backward(loss)` runs the recorded closures in reverse creation order,
/// accumulating gradients into every node with `requires_grad`.
///
/// Constant operands (the sparse propagation matrix of a trained GCN, the
/// clean-representation reference matrix of the PEEGA objective, dropout
/// masks) are passed as plain matrices and receive no gradient.
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Registers an input. `requires_grad` marks trainable parameters or
  /// attack surfaces (the relaxed adjacency / feature matrices).
  Var Input(linalg::Matrix value, bool requires_grad = false);

  // --- Linear algebra -----------------------------------------------------
  Var MatMul(Var a, Var b);
  /// C = S * B for a constant sparse S; gradient flows to B only, as
  /// Sᵀ * dC through the transpose `s` carries.
  Var SpMMConst(const ConstSparse& s, Var b);
  Var Transpose(Var a);

  // --- Elementwise --------------------------------------------------------
  Var Add(Var a, Var b);
  Var Sub(Var a, Var b);
  Var Mul(Var a, Var b);
  Var Scale(Var a, float s);
  /// a + c for a constant matrix c (shape match).
  Var AddConst(Var a, const linalg::Matrix& c);
  /// a ⊙ c for a constant matrix c; used for masking. The backward
  /// keeps c (moved in) only when `a` requires grad.
  Var MulConst(Var a, linalg::Matrix c);
  /// Elementwise max(x,0) / LeakyReLU / sigmoid / exp.
  Var Relu(Var a);
  Var LeakyRelu(Var a, float slope);
  Var Sigmoid(Var a);
  Var Exp(Var a);
  /// Elementwise |x|^p-free power for x >= 0: x^exponent (0 maps to 0).
  Var PowNonNeg(Var a, float exponent);
  /// Elementwise 1/sqrt(x) for x > 0 (else 0). Equivalent in value to
  /// PowNonNeg(a, -0.5f) up to rounding, but computed as 1.0f/sqrt —
  /// the SAME float expression as `linalg::RSqrt` — so the dense
  /// normalization of `GcnNormalizeDense` agrees bitwise with the sparse
  /// `graph::GcnNormalize` path (the incremental PEEGA engine relies on
  /// this for its flip-sequence equivalence; see DESIGN.md).
  Var RsqrtNonNeg(Var a);
  /// Inverted-dropout with keep probability `keep`; `mask` entries are the
  /// precomputed 0 / (1/keep) multipliers.
  Var Dropout(Var a, linalg::Matrix mask);

  // --- Broadcast / reductions ---------------------------------------------
  /// Row sums: (n x m) -> (n x 1).
  Var RowSums(Var a);
  /// Total sum -> 1x1 scalar.
  Var Sum(Var a);
  /// out[i][j] = a[i][0]; broadcasts an (n x 1) column across `cols`.
  Var BroadcastCol(Var a, int cols);
  /// out[i][j] = a[0][j]; broadcasts a (1 x m) row across `rows`.
  Var BroadcastRow(Var a, int rows);
  /// out[i][j] = a[i][j] * s[i][0] (per-row scale by a column Var).
  Var ScaleRowsVar(Var a, Var s);
  /// out[i][j] = a[i][j] * s[j] treated via (1 x m) Var.
  Var ScaleColsVar(Var a, Var s);
  /// Adds a (1 x m) bias row Var to every row of a.
  Var AddRowVector(Var a, Var bias);

  // --- Softmax / losses ----------------------------------------------------
  /// Numerically stable row-wise softmax.
  Var RowSoftmax(Var a);
  /// Row-wise softmax over entries where mask > 0; other entries are 0.
  /// Rows whose mask is empty produce all-zero rows.
  Var MaskedRowSoftmax(Var a, const linalg::Matrix& mask);
  /// Mean cross-entropy of row-softmax(logits) against one-hot `labels`,
  /// restricted to rows with row_mask[i] > 0. Returns a 1x1 scalar.
  Var SoftmaxCrossEntropy(Var logits, const linalg::Matrix& labels,
                          const std::vector<float>& row_mask);

  // --- PEEGA objective kernels ---------------------------------------------
  /// sum over (v,u) pairs of || x[v] - ref[u] ||_p (global view, Eq. 6).
  Var SumEdgePNorm(Var x, const linalg::Matrix& ref,
                   const std::vector<std::pair<int, int>>& edges, int p);

  // --- Graph-specific ------------------------------------------------------
  /// GCN normalization of a dense adjacency Var:
  ///   A_n = D^{-1/2} (A + I) D^{-1/2},  D = diag(rowsum(A + I)).
  /// Fully differentiable with respect to A; composed from primitive ops.
  Var GcnNormalizeDense(Var a);

  /// Runs reverse-mode accumulation from `loss` (must be 1x1) with seed 1.
  /// Calls `ValidateForBackward(loss)` first; a malformed graph aborts with
  /// an op-trace instead of silently producing wrong gradients. When the
  /// build has PEEGA_DEBUG_NUMERICS on, every gradient produced by a
  /// backward node is additionally poison-checked for NaN/Inf.
  void Backward(Var loss);

  /// Structural validation of the recorded graph, run by `Backward` before
  /// any closure executes. Rejects (with a readable op-trace of the
  /// offending node and its ancestors): an invalid/foreign root Var, a
  /// non-1x1 loss, nodes whose value shape changed since recording, parents
  /// recorded out of topological order, and gradients whose shape diverged
  /// from their value. Exposed separately so tests can drive it directly.
  void ValidateForBackward(Var loss) const;

  /// Number of recorded nodes (for tests).
  size_t node_count() const { return nodes_.size(); }

  /// Test-only back door: overwrites the node's value with a `rows` x
  /// `cols` zero matrix WITHOUT updating the shape recorded at creation,
  /// manufacturing exactly the malformed graph `ValidateForBackward` must
  /// reject. Never call outside tests.
  void CorruptValueShapeForTest(Var v, int rows, int cols);

 private:
  internal::Node* NewNode(linalg::Matrix value, bool requires_grad,
                          const internal::OpKind& kind,
                          std::initializer_list<internal::Node*> parents);

  std::vector<std::unique_ptr<internal::Node>> nodes_;
};

}  // namespace repro::autograd

#endif  // PEEGA_AUTOGRAD_TAPE_H_
