#include "autograd/tape.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "debug/check.h"
#include "debug/numerics.h"
#include "linalg/ops.h"
#include "obs/trace.h"

namespace repro::autograd {

using linalg::Matrix;
using linalg::SparseMatrix;

namespace {

// Accumulates `delta` scaled by `scale` into the parent's gradient if it
// participates in differentiation.
void Accumulate(internal::Node* parent, const Matrix& delta,
                float scale = 1.0f) {
  if (parent == nullptr) return;
  linalg::Axpy(&parent->EnsureGrad(), delta, scale);
}

// Every op kind the tape records. An input has no work to time; each
// other kind times its forward in its Tape method and its backward
// closure in Tape::Backward.
#define PEEGA_TAPE_OP_KIND(name)                                     \
  constexpr internal::OpKind k##name = {#name, "autograd." #name,   \
                                        "autograd." #name ".backward"}
PEEGA_TAPE_OP_KIND(Input);
PEEGA_TAPE_OP_KIND(MatMul);
PEEGA_TAPE_OP_KIND(SpMMConst);
PEEGA_TAPE_OP_KIND(Transpose);
PEEGA_TAPE_OP_KIND(Add);
PEEGA_TAPE_OP_KIND(Sub);
PEEGA_TAPE_OP_KIND(Mul);
PEEGA_TAPE_OP_KIND(Scale);
PEEGA_TAPE_OP_KIND(AddConst);
PEEGA_TAPE_OP_KIND(MulConst);
PEEGA_TAPE_OP_KIND(Relu);
PEEGA_TAPE_OP_KIND(LeakyRelu);
PEEGA_TAPE_OP_KIND(Sigmoid);
PEEGA_TAPE_OP_KIND(Exp);
PEEGA_TAPE_OP_KIND(PowNonNeg);
PEEGA_TAPE_OP_KIND(RsqrtNonNeg);
PEEGA_TAPE_OP_KIND(RowSums);
PEEGA_TAPE_OP_KIND(Sum);
PEEGA_TAPE_OP_KIND(BroadcastCol);
PEEGA_TAPE_OP_KIND(BroadcastRow);
PEEGA_TAPE_OP_KIND(ScaleRowsVar);
PEEGA_TAPE_OP_KIND(ScaleColsVar);
PEEGA_TAPE_OP_KIND(RowSoftmax);
PEEGA_TAPE_OP_KIND(MaskedRowSoftmax);
PEEGA_TAPE_OP_KIND(SoftmaxCrossEntropy);
PEEGA_TAPE_OP_KIND(SumEdgePNorm);
#undef PEEGA_TAPE_OP_KIND

}  // namespace

internal::Node* Tape::NewNode(Matrix value, bool requires_grad,
                              const internal::OpKind& kind,
                              std::initializer_list<internal::Node*> parents) {
  nodes_.push_back(std::make_unique<internal::Node>());
  internal::Node* node = nodes_.back().get();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  node->op = kind.name;
  node->backward_span = kind.backward_span;
  node->index = static_cast<int>(nodes_.size()) - 1;
  node->recorded_rows = node->value.rows();
  node->recorded_cols = node->value.cols();
  node->parents.assign(parents.begin(), parents.end());
  return node;
}

Var Tape::Input(Matrix value, bool requires_grad) {
  return Var(NewNode(std::move(value), requires_grad, kInput, {}));
}

Var Tape::MatMul(Var a, Var b) {
  const obs::TraceSpan span(kMatMul.forward_span);
  internal::Node* na = a.node_;
  internal::Node* nb = b.node_;
  internal::Node* out = NewNode(linalg::MatMul(na->value, nb->value),
                                na->requires_grad || nb->requires_grad, kMatMul, {na, nb});
  out->backward = [na, nb](internal::Node* self) {
    if (na->requires_grad) {
      Accumulate(na, linalg::MatMulTransB(self->grad, nb->value));
    }
    if (nb->requires_grad) {
      Accumulate(nb, linalg::MatMulTransA(na->value, self->grad));
    }
  };
  return Var(out);
}

ConstSparse::ConstSparse(SparseMatrix s) {
  SparseMatrix transposed = s.Transposed();
  pair_ = std::make_shared<const Pair>(
      Pair{std::move(s), std::move(transposed)});
}

Var Tape::SpMMConst(const ConstSparse& s, Var b) {
  const obs::TraceSpan span(kSpMMConst.forward_span);
  internal::Node* nb = b.node_;
  internal::Node* out = NewNode(linalg::SpMM(s.matrix(), nb->value),
                                nb->requires_grad, kSpMMConst, {nb});
  if (nb->requires_grad) {
    out->backward = [nb, s](internal::Node* self) {
      Accumulate(nb, linalg::SpMM(s.transposed(), self->grad));
    };
  }
  return Var(out);
}

Var Tape::Transpose(Var a) {
  const obs::TraceSpan span(kTranspose.forward_span);
  internal::Node* na = a.node_;
  internal::Node* out =
      NewNode(linalg::Transpose(na->value), na->requires_grad, kTranspose, {na});
  out->backward = [na](internal::Node* self) {
    if (na->requires_grad) Accumulate(na, linalg::Transpose(self->grad));
  };
  return Var(out);
}

Var Tape::Add(Var a, Var b) {
  const obs::TraceSpan span(kAdd.forward_span);
  internal::Node* na = a.node_;
  internal::Node* nb = b.node_;
  internal::Node* out = NewNode(linalg::Add(na->value, nb->value),
                                na->requires_grad || nb->requires_grad, kAdd, {na, nb});
  out->backward = [na, nb](internal::Node* self) {
    if (na->requires_grad) Accumulate(na, self->grad);
    if (nb->requires_grad) Accumulate(nb, self->grad);
  };
  return Var(out);
}

Var Tape::Sub(Var a, Var b) {
  const obs::TraceSpan span(kSub.forward_span);
  internal::Node* na = a.node_;
  internal::Node* nb = b.node_;
  internal::Node* out = NewNode(linalg::Sub(na->value, nb->value),
                                na->requires_grad || nb->requires_grad, kSub, {na, nb});
  out->backward = [na, nb](internal::Node* self) {
    if (na->requires_grad) Accumulate(na, self->grad);
    if (nb->requires_grad) Accumulate(nb, self->grad, -1.0f);
  };
  return Var(out);
}

Var Tape::Mul(Var a, Var b) {
  const obs::TraceSpan span(kMul.forward_span);
  internal::Node* na = a.node_;
  internal::Node* nb = b.node_;
  internal::Node* out = NewNode(linalg::Mul(na->value, nb->value),
                                na->requires_grad || nb->requires_grad, kMul, {na, nb});
  out->backward = [na, nb](internal::Node* self) {
    if (na->requires_grad) {
      Accumulate(na, linalg::Mul(self->grad, nb->value));
    }
    if (nb->requires_grad) {
      Accumulate(nb, linalg::Mul(self->grad, na->value));
    }
  };
  return Var(out);
}

Var Tape::Scale(Var a, float s) {
  const obs::TraceSpan span(kScale.forward_span);
  internal::Node* na = a.node_;
  internal::Node* out =
      NewNode(linalg::Affine(na->value, s), na->requires_grad, kScale, {na});
  out->backward = [na, s](internal::Node* self) {
    if (na->requires_grad) Accumulate(na, self->grad, s);
  };
  return Var(out);
}

Var Tape::AddConst(Var a, const Matrix& c) {
  const obs::TraceSpan span(kAddConst.forward_span);
  internal::Node* na = a.node_;
  internal::Node* out =
      NewNode(linalg::Add(na->value, c), na->requires_grad, kAddConst, {na});
  out->backward = [na](internal::Node* self) {
    if (na->requires_grad) Accumulate(na, self->grad);
  };
  return Var(out);
}

Var Tape::MulConst(Var a, Matrix c) {
  const obs::TraceSpan span(kMulConst.forward_span);
  internal::Node* na = a.node_;
  internal::Node* out =
      NewNode(linalg::Mul(na->value, c), na->requires_grad, kMulConst, {na});
  if (na->requires_grad) {
    out->backward = [na, c = std::move(c)](internal::Node* self) {
      Accumulate(na, linalg::Mul(self->grad, c));
    };
  }
  return Var(out);
}

Var Tape::Relu(Var a) {
  const obs::TraceSpan span(kRelu.forward_span);
  internal::Node* na = a.node_;
  internal::Node* out = NewNode(linalg::Relu(na->value), na->requires_grad, kRelu, {na});
  out->backward = [na](internal::Node* self) {
    if (!na->requires_grad) return;
    Matrix masked = self->grad;
    const float* v = na->value.data();
    float* g = masked.data();
    for (int64_t i = 0; i < masked.size(); ++i) {
      if (v[i] <= 0.0f) g[i] = 0.0f;
    }
    Accumulate(na, masked);
  };
  return Var(out);
}

Var Tape::LeakyRelu(Var a, float slope) {
  const obs::TraceSpan span(kLeakyRelu.forward_span);
  internal::Node* na = a.node_;
  internal::Node* out =
      NewNode(linalg::LeakyRelu(na->value, slope), na->requires_grad, kLeakyRelu, {na});
  out->backward = [na, slope](internal::Node* self) {
    if (!na->requires_grad) return;
    Matrix scaled = self->grad;
    const float* v = na->value.data();
    float* g = scaled.data();
    for (int64_t i = 0; i < scaled.size(); ++i) {
      if (v[i] <= 0.0f) g[i] *= slope;
    }
    Accumulate(na, scaled);
  };
  return Var(out);
}

Var Tape::Sigmoid(Var a) {
  const obs::TraceSpan span(kSigmoid.forward_span);
  internal::Node* na = a.node_;
  internal::Node* out =
      NewNode(linalg::Sigmoid(na->value), na->requires_grad, kSigmoid, {na});
  out->backward = [na](internal::Node* self) {
    if (!na->requires_grad) return;
    Matrix d = self->grad;
    const float* s = self->value.data();
    float* g = d.data();
    for (int64_t i = 0; i < d.size(); ++i) g[i] *= s[i] * (1.0f - s[i]);
    Accumulate(na, d);
  };
  return Var(out);
}

Var Tape::Exp(Var a) {
  const obs::TraceSpan span(kExp.forward_span);
  internal::Node* na = a.node_;
  Matrix value(na->value.rows(), na->value.cols());
  {
    const float* v = na->value.data();
    float* o = value.data();
    for (int64_t i = 0; i < value.size(); ++i) o[i] = std::exp(v[i]);
  }
  internal::Node* out = NewNode(std::move(value), na->requires_grad, kExp, {na});
  out->backward = [na](internal::Node* self) {
    if (!na->requires_grad) return;
    Accumulate(na, linalg::Mul(self->grad, self->value));
  };
  return Var(out);
}

Var Tape::PowNonNeg(Var a, float exponent) {
  const obs::TraceSpan span(kPowNonNeg.forward_span);
  internal::Node* na = a.node_;
  Matrix value(na->value.rows(), na->value.cols());
  {
    const float* v = na->value.data();
    float* o = value.data();
    for (int64_t i = 0; i < value.size(); ++i) {
      o[i] = v[i] > 0.0f ? std::pow(v[i], exponent) : 0.0f;
    }
  }
  internal::Node* out = NewNode(std::move(value), na->requires_grad, kPowNonNeg, {na});
  out->backward = [na, exponent](internal::Node* self) {
    if (!na->requires_grad) return;
    Matrix d = self->grad;
    const float* v = na->value.data();
    float* g = d.data();
    for (int64_t i = 0; i < d.size(); ++i) {
      g[i] *= v[i] > 0.0f ? exponent * std::pow(v[i], exponent - 1.0f) : 0.0f;
    }
    Accumulate(na, d);
  };
  return Var(out);
}

Var Tape::RsqrtNonNeg(Var a) {
  const obs::TraceSpan span(kRsqrtNonNeg.forward_span);
  internal::Node* na = a.node_;
  Matrix value(na->value.rows(), na->value.cols());
  {
    const float* v = na->value.data();
    float* o = value.data();
    for (int64_t i = 0; i < value.size(); ++i) {
      o[i] = v[i] > 0.0f ? 1.0f / std::sqrt(v[i]) : 0.0f;
    }
  }
  internal::Node* out = NewNode(std::move(value), na->requires_grad, kRsqrtNonNeg, {na});
  out->backward = [na](internal::Node* self) {
    if (!na->requires_grad) return;
    Matrix d = self->grad;
    const float* v = na->value.data();
    float* g = d.data();
    for (int64_t i = 0; i < d.size(); ++i) {
      g[i] *= v[i] > 0.0f ? -0.5f * std::pow(v[i], -1.5f) : 0.0f;
    }
    Accumulate(na, d);
  };
  return Var(out);
}

Var Tape::Dropout(Var a, Matrix mask) {
  return MulConst(a, std::move(mask));
}

Var Tape::RowSums(Var a) {
  const obs::TraceSpan span(kRowSums.forward_span);
  internal::Node* na = a.node_;
  const std::vector<float> sums = linalg::RowSums(na->value);
  Matrix value(na->value.rows(), 1);
  for (int i = 0; i < value.rows(); ++i) value(i, 0) = sums[i];
  internal::Node* out = NewNode(std::move(value), na->requires_grad, kRowSums, {na});
  out->backward = [na](internal::Node* self) {
    if (!na->requires_grad) return;
    Matrix d(na->value.rows(), na->value.cols());
    for (int i = 0; i < d.rows(); ++i) {
      const float g = self->grad(i, 0);
      float* drow = d.row(i);
      for (int j = 0; j < d.cols(); ++j) drow[j] = g;
    }
    Accumulate(na, d);
  };
  return Var(out);
}

Var Tape::Sum(Var a) {
  const obs::TraceSpan span(kSum.forward_span);
  internal::Node* na = a.node_;
  Matrix value(1, 1);
  value(0, 0) = static_cast<float>(linalg::Sum(na->value));
  internal::Node* out = NewNode(std::move(value), na->requires_grad, kSum, {na});
  out->backward = [na](internal::Node* self) {
    if (!na->requires_grad) return;
    Matrix d(na->value.rows(), na->value.cols(), self->grad(0, 0));
    Accumulate(na, d);
  };
  return Var(out);
}

Var Tape::BroadcastCol(Var a, int cols) {
  const obs::TraceSpan span(kBroadcastCol.forward_span);
  internal::Node* na = a.node_;
  PEEGA_CHECK_EQ(na->value.cols(), 1);
  Matrix value(na->value.rows(), cols);
  for (int i = 0; i < value.rows(); ++i) {
    const float v = na->value(i, 0);
    float* row = value.row(i);
    for (int j = 0; j < cols; ++j) row[j] = v;
  }
  internal::Node* out = NewNode(std::move(value), na->requires_grad, kBroadcastCol, {na});
  out->backward = [na](internal::Node* self) {
    if (!na->requires_grad) return;
    Matrix d(na->value.rows(), 1);
    for (int i = 0; i < self->grad.rows(); ++i) {
      const float* grow = self->grad.row(i);
      float acc = 0.0f;
      for (int j = 0; j < self->grad.cols(); ++j) acc += grow[j];
      d(i, 0) = acc;
    }
    Accumulate(na, d);
  };
  return Var(out);
}

Var Tape::BroadcastRow(Var a, int rows) {
  const obs::TraceSpan span(kBroadcastRow.forward_span);
  internal::Node* na = a.node_;
  PEEGA_CHECK_EQ(na->value.rows(), 1);
  Matrix value(rows, na->value.cols());
  for (int i = 0; i < rows; ++i) {
    float* row = value.row(i);
    for (int j = 0; j < value.cols(); ++j) row[j] = na->value(0, j);
  }
  internal::Node* out = NewNode(std::move(value), na->requires_grad, kBroadcastRow, {na});
  out->backward = [na](internal::Node* self) {
    if (!na->requires_grad) return;
    Matrix d(1, na->value.cols());
    for (int i = 0; i < self->grad.rows(); ++i) {
      const float* grow = self->grad.row(i);
      for (int j = 0; j < self->grad.cols(); ++j) d(0, j) += grow[j];
    }
    Accumulate(na, d);
  };
  return Var(out);
}

Var Tape::ScaleRowsVar(Var a, Var s) {
  const obs::TraceSpan span(kScaleRowsVar.forward_span);
  internal::Node* na = a.node_;
  internal::Node* ns = s.node_;
  PEEGA_CHECK_EQ(ns->value.cols(), 1);
  PEEGA_CHECK_EQ(ns->value.rows(), na->value.rows());
  Matrix value(na->value.rows(), na->value.cols());
  for (int i = 0; i < value.rows(); ++i) {
    const float sv = ns->value(i, 0);
    const float* arow = na->value.row(i);
    float* vrow = value.row(i);
    for (int j = 0; j < value.cols(); ++j) vrow[j] = arow[j] * sv;
  }
  internal::Node* out = NewNode(std::move(value),
                                na->requires_grad || ns->requires_grad, kScaleRowsVar, {na, ns});
  out->backward = [na, ns](internal::Node* self) {
    if (na->requires_grad) {
      Matrix d(na->value.rows(), na->value.cols());
      for (int i = 0; i < d.rows(); ++i) {
        const float sv = ns->value(i, 0);
        const float* grow = self->grad.row(i);
        float* drow = d.row(i);
        for (int j = 0; j < d.cols(); ++j) drow[j] = grow[j] * sv;
      }
      Accumulate(na, d);
    }
    if (ns->requires_grad) {
      Matrix d(ns->value.rows(), 1);
      for (int i = 0; i < d.rows(); ++i) {
        const float* grow = self->grad.row(i);
        const float* arow = na->value.row(i);
        float acc = 0.0f;
        for (int j = 0; j < na->value.cols(); ++j) acc += grow[j] * arow[j];
        d(i, 0) = acc;
      }
      Accumulate(ns, d);
    }
  };
  return Var(out);
}

Var Tape::ScaleColsVar(Var a, Var s) {
  const obs::TraceSpan span(kScaleColsVar.forward_span);
  internal::Node* na = a.node_;
  internal::Node* ns = s.node_;
  PEEGA_CHECK_EQ(ns->value.cols(), 1);
  PEEGA_CHECK_EQ(ns->value.rows(), na->value.cols());
  Matrix value(na->value.rows(), na->value.cols());
  for (int i = 0; i < value.rows(); ++i) {
    const float* arow = na->value.row(i);
    float* vrow = value.row(i);
    for (int j = 0; j < value.cols(); ++j) {
      vrow[j] = arow[j] * ns->value(j, 0);
    }
  }
  internal::Node* out = NewNode(std::move(value),
                                na->requires_grad || ns->requires_grad, kScaleColsVar, {na, ns});
  out->backward = [na, ns](internal::Node* self) {
    if (na->requires_grad) {
      Matrix d(na->value.rows(), na->value.cols());
      for (int i = 0; i < d.rows(); ++i) {
        const float* grow = self->grad.row(i);
        float* drow = d.row(i);
        for (int j = 0; j < d.cols(); ++j) {
          drow[j] = grow[j] * ns->value(j, 0);
        }
      }
      Accumulate(na, d);
    }
    if (ns->requires_grad) {
      Matrix d(ns->value.rows(), 1);
      for (int i = 0; i < na->value.rows(); ++i) {
        const float* grow = self->grad.row(i);
        const float* arow = na->value.row(i);
        for (int j = 0; j < na->value.cols(); ++j) {
          d(j, 0) += grow[j] * arow[j];
        }
      }
      Accumulate(ns, d);
    }
  };
  return Var(out);
}

Var Tape::AddRowVector(Var a, Var bias) {
  Var broadcast = BroadcastRow(bias, a.rows());
  return Add(a, broadcast);
}

Var Tape::RowSoftmax(Var a) {
  const obs::TraceSpan span(kRowSoftmax.forward_span);
  internal::Node* na = a.node_;
  internal::Node* out =
      NewNode(linalg::RowSoftmax(na->value), na->requires_grad, kRowSoftmax, {na});
  out->backward = [na](internal::Node* self) {
    if (!na->requires_grad) return;
    // d a = (g - (g . s) 1) ⊙ s  row-wise.
    Matrix d(na->value.rows(), na->value.cols());
    for (int i = 0; i < d.rows(); ++i) {
      const float* srow = self->value.row(i);
      const float* grow = self->grad.row(i);
      float dot = 0.0f;
      for (int j = 0; j < d.cols(); ++j) dot += grow[j] * srow[j];
      float* drow = d.row(i);
      for (int j = 0; j < d.cols(); ++j) {
        drow[j] = (grow[j] - dot) * srow[j];
      }
    }
    Accumulate(na, d);
  };
  return Var(out);
}

Var Tape::MaskedRowSoftmax(Var a, const Matrix& mask) {
  const obs::TraceSpan span(kMaskedRowSoftmax.forward_span);
  internal::Node* na = a.node_;
  PEEGA_CHECK(na->value.SameShape(mask));
  Matrix value(na->value.rows(), na->value.cols());
  for (int i = 0; i < value.rows(); ++i) {
    const float* arow = na->value.row(i);
    const float* mrow = mask.row(i);
    float* vrow = value.row(i);
    float row_max = -std::numeric_limits<float>::infinity();
    for (int j = 0; j < value.cols(); ++j) {
      if (mrow[j] > 0.0f) row_max = std::max(row_max, arow[j]);
    }
    if (row_max == -std::numeric_limits<float>::infinity()) continue;
    float denom = 0.0f;
    for (int j = 0; j < value.cols(); ++j) {
      if (mrow[j] > 0.0f) {
        vrow[j] = std::exp(arow[j] - row_max);
        denom += vrow[j];
      }
    }
    const float inv = 1.0f / denom;
    for (int j = 0; j < value.cols(); ++j) vrow[j] *= inv;
  }
  internal::Node* out = NewNode(std::move(value), na->requires_grad, kMaskedRowSoftmax, {na});
  Matrix mask_copy = mask;
  out->backward = [na, mask_copy](internal::Node* self) {
    if (!na->requires_grad) return;
    Matrix d(na->value.rows(), na->value.cols());
    for (int i = 0; i < d.rows(); ++i) {
      const float* srow = self->value.row(i);
      const float* grow = self->grad.row(i);
      const float* mrow = mask_copy.row(i);
      float dot = 0.0f;
      for (int j = 0; j < d.cols(); ++j) dot += grow[j] * srow[j];
      float* drow = d.row(i);
      for (int j = 0; j < d.cols(); ++j) {
        drow[j] = mrow[j] > 0.0f ? (grow[j] - dot) * srow[j] : 0.0f;
      }
    }
    Accumulate(na, d);
  };
  return Var(out);
}

Var Tape::SoftmaxCrossEntropy(Var logits, const Matrix& labels,
                              const std::vector<float>& row_mask) {
  const obs::TraceSpan span(kSoftmaxCrossEntropy.forward_span);
  internal::Node* nl = logits.node_;
  PEEGA_CHECK(nl->value.SameShape(labels));
  PEEGA_CHECK_EQ(static_cast<int>(row_mask.size()), nl->value.rows());
  Matrix probs = linalg::RowSoftmax(nl->value);
  double loss = 0.0;
  double count = 0.0;
  for (int i = 0; i < probs.rows(); ++i) {
    if (row_mask[i] <= 0.0f) continue;
    count += 1.0;
    const float* prow = probs.row(i);
    const float* lrow = labels.row(i);
    for (int j = 0; j < probs.cols(); ++j) {
      if (lrow[j] > 0.0f) {
        loss -= lrow[j] * std::log(std::max(prow[j], 1e-12f));
      }
    }
  }
  if (count > 0.0) loss /= count;
  Matrix value(1, 1);
  value(0, 0) = static_cast<float>(loss);
  internal::Node* out = NewNode(std::move(value), nl->requires_grad, kSoftmaxCrossEntropy, {nl});
  PEEGA_CHECK_FINITE_MAT(out->value, "SoftmaxCrossEntropy");
  if (nl->requires_grad) {
    auto probs_ptr = std::make_shared<Matrix>(std::move(probs));
    Matrix labels_copy = labels;
    std::vector<float> mask_copy = row_mask;
    const float inv_count = count > 0.0 ? static_cast<float>(1.0 / count)
                                        : 0.0f;
    out->backward = [nl, probs_ptr, labels_copy, mask_copy,
                     inv_count](internal::Node* self) {
      const float g = self->grad(0, 0) * inv_count;
      Matrix d(nl->value.rows(), nl->value.cols());
      for (int i = 0; i < d.rows(); ++i) {
        if (mask_copy[i] <= 0.0f) continue;
        const float* prow = probs_ptr->row(i);
        const float* lrow = labels_copy.row(i);
        float* drow = d.row(i);
        for (int j = 0; j < d.cols(); ++j) {
          drow[j] = g * (prow[j] - lrow[j]);
        }
      }
      Accumulate(nl, d);
    };
  }
  return Var(out);
}

Var Tape::SumEdgePNorm(Var x, const Matrix& ref,
                       const std::vector<std::pair<int, int>>& edges,
                       int p) {
  const obs::TraceSpan span(kSumEdgePNorm.forward_span);
  internal::Node* nx = x.node_;
  PEEGA_CHECK_EQ(nx->value.cols(), ref.cols());
  PEEGA_CHECK_GE(p, 1);
  const int d = nx->value.cols();
  double total = 0.0;
  // Cache per-pair norms for backward.
  auto norms = std::make_shared<std::vector<float>>();
  norms->reserve(edges.size());
  for (const auto& [v, u] : edges) {
    double acc = 0.0;
    const float* xrow = nx->value.row(v);
    const float* rrow = ref.row(u);
    for (int j = 0; j < d; ++j) {
      const double diff = std::fabs(xrow[j] - rrow[j]);
      acc += p == 1 ? diff : (p == 2 ? diff * diff : std::pow(diff, p));
    }
    const double norm = p == 1 ? acc : std::pow(acc, 1.0 / p);
    norms->push_back(static_cast<float>(norm));
    total += norm;
  }
  Matrix value(1, 1);
  value(0, 0) = static_cast<float>(total);
  internal::Node* out = NewNode(std::move(value), nx->requires_grad, kSumEdgePNorm, {nx});
  if (nx->requires_grad) {
    Matrix ref_copy = ref;
    std::vector<std::pair<int, int>> edges_copy = edges;
    out->backward = [nx, ref_copy, edges_copy, norms,
                     p](internal::Node* self) {
      const float g = self->grad(0, 0);
      Matrix dx(nx->value.rows(), nx->value.cols());
      const int d = nx->value.cols();
      for (size_t e = 0; e < edges_copy.size(); ++e) {
        const auto [v, u] = edges_copy[e];
        const float norm = (*norms)[e];
        if (norm < 1e-12f) continue;
        const float* xrow = nx->value.row(v);
        const float* rrow = ref_copy.row(u);
        float* drow = dx.row(v);
        // d||d||_p / d d_j = sign(d_j) |d_j|^{p-1} / ||d||_p^{p-1}.
        const float denom = p == 1 ? 1.0f : std::pow(norm, p - 1);
        for (int j = 0; j < d; ++j) {
          const float diff = xrow[j] - rrow[j];
          if (diff == 0.0f) continue;
          const float mag =
              p == 1 ? 1.0f
                     : (p == 2 ? std::fabs(diff)
                               : std::pow(std::fabs(diff), p - 1));
          drow[j] += g * (diff > 0.0f ? 1.0f : -1.0f) * mag / denom;
        }
      }
      Accumulate(nx, dx);
    };
  }
  return Var(out);
}

Var Tape::GcnNormalizeDense(Var a) {
  const obs::TraceSpan span("autograd.GcnNormalizeDense");
  const int n = a.rows();
  PEEGA_CHECK_EQ(n, a.cols());
  Var a_hat = AddConst(a, Matrix::Identity(n));
  Var deg = RowSums(a_hat);                 // (n x 1)
  Var inv_sqrt = RsqrtNonNeg(deg);          // D^{-1/2} diagonal as column
  Var scaled_rows = ScaleRowsVar(a_hat, inv_sqrt);
  return ScaleColsVar(scaled_rows, inv_sqrt);
}

namespace {

// "#12 MatMul[3x4]" — one node in an op-trace line.
void AppendNodeDesc(std::ostream& os, const internal::Node* n) {
  os << "#" << n->index << " " << n->op << "[" << n->value.rows() << "x"
     << n->value.cols() << "]";
}

// Renders `node` and up to `depth` generations of its ancestors, one line
// per node, so a validation failure names the op chain that produced the
// malformed region instead of a bare pointer.
void AppendOpTrace(std::ostream& os, const internal::Node* node, int depth) {
  os << "\n    ";
  AppendNodeDesc(os, node);
  if (!node->parents.empty()) {
    os << " <- ";
    bool first = true;
    for (const internal::Node* p : node->parents) {
      if (!first) os << ", ";
      first = false;
      AppendNodeDesc(os, p);
    }
  }
  if (depth > 0) {
    for (const internal::Node* p : node->parents) {
      AppendOpTrace(os, p, depth - 1);
    }
  }
}

[[noreturn]] void FailValidation(const char* file, int line,
                                 const std::string& why,
                                 const internal::Node* node) {
  std::ostringstream os;
  os << "CHECK failed: tape graph validation: " << why;
  if (node != nullptr) {
    os << "\n  op-trace (offending node, then ancestors):";
    AppendOpTrace(os, node, 3);
  }
  { debug::internal::CheckMessage message(file, line, os.str()); }
  std::abort();  // unreachable: CheckMessage aborts in its destructor
}

}  // namespace

void Tape::ValidateForBackward(Var loss) const {
  if (!loss.valid()) {
    FailValidation(__FILE__, __LINE__,
                   "Backward called on a default-constructed Var", nullptr);
  }
  const internal::Node* root = loss.node_;
  const bool owned = root->index >= 0 &&
                     root->index < static_cast<int>(nodes_.size()) &&
                     nodes_[root->index].get() == root;
  if (!owned) {
    FailValidation(__FILE__, __LINE__,
                   "loss Var does not belong to this tape", nullptr);
  }
  for (int i = 0; i <= root->index; ++i) {
    const internal::Node* n = nodes_[i].get();
    if (n->value.rows() != n->recorded_rows ||
        n->value.cols() != n->recorded_cols) {
      std::ostringstream why;
      why << "node value shape " << n->value.rows() << "x" << n->value.cols()
          << " diverged from the " << n->recorded_rows << "x"
          << n->recorded_cols << " recorded at creation";
      FailValidation(__FILE__, __LINE__, why.str(), n);
    }
    for (const internal::Node* p : n->parents) {
      if (p->index < 0 || p->index >= i || nodes_[p->index].get() != p) {
        FailValidation(__FILE__, __LINE__,
                       "parent is not an earlier node of this tape "
                       "(topological order broken)",
                       n);
      }
    }
    if (n->grad_initialized && !n->grad.SameShape(n->value)) {
      std::ostringstream why;
      why << "gradient shape " << n->grad.rows() << "x" << n->grad.cols()
          << " does not match value shape " << n->value.rows() << "x"
          << n->value.cols();
      FailValidation(__FILE__, __LINE__, why.str(), n);
    }
  }
  if (root->value.rows() != 1 || root->value.cols() != 1) {
    std::ostringstream why;
    why << "loss must be 1x1, got " << root->value.rows() << "x"
        << root->value.cols();
    FailValidation(__FILE__, __LINE__, why.str(), root);
  }
}

void Tape::CorruptValueShapeForTest(Var v, int rows, int cols) {
  PEEGA_CHECK(v.valid());
  v.node_->value = Matrix(rows, cols);
}

void Tape::Backward(Var loss) {
  const obs::TraceSpan span("autograd.backward");
  ValidateForBackward(loss);
  internal::Node* root = loss.node_;
  root->EnsureGrad()(0, 0) = 1.0f;
  // Nodes were appended in topological order; reverse order is valid for
  // reverse-mode accumulation. Stop at the root's position.
  bool seen_root = false;
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    internal::Node* node = it->get();
    if (!seen_root) {
      if (node == root) seen_root = true;
      else continue;
    }
    if (node->backward && node->grad_initialized) {
      const obs::TraceSpan op_span(node->backward_span);
      node->backward(node);
#ifdef PEEGA_DEBUG_NUMERICS
      // Poison-check every gradient this backward node just produced; a
      // NaN is reported at the op that created it, not steps later.
      for (internal::Node* parent : node->parents) {
        if (!parent->grad_initialized) continue;
        const std::string what = std::string("backward of ") + node->op;
        debug::CheckFiniteArray(parent->grad.data(), parent->grad.size(),
                                parent->grad.cols(), what.c_str(), __FILE__,
                                __LINE__);
      }
#endif
    }
  }
}

}  // namespace repro::autograd
