#include "linalg/op_registry.h"

#include <cmath>
#include <limits>
#include <set>
#include <string_view>
#include <tuple>

#include "debug/numerics.h"
#include "linalg/incremental.h"
#include "linalg/kernels/kernels.h"
#include "linalg/matrix.h"
#include "linalg/ops.h"
#include "linalg/random.h"
#include "linalg/sparse.h"

namespace repro::linalg {

const char* DeterminismClassName(DeterminismClass c) {
  switch (c) {
    case DeterminismClass::kLanePerOutput:
      return "lane-per-output";
  }
  return "unknown";
}

namespace {

// Probe input sizes straddle the AVX2 (8-float) and NEON (4-float)
// vector widths so every probe exercises full vector bodies AND the
// scalar tails: below one lane group, exactly one, one-plus-a-tail,
// and several groups plus a tail.
constexpr int kProbeDims[] = {1, 3, 7, 8, 9, 17, 33};

// Deterministic dense test matrix; ~20% exact zeros exercise the
// zero-skip branches of the saxpy kernels.
Matrix ProbeMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    float* row = m.row(i);
    for (int j = 0; j < cols; ++j) {
      row[j] = rng->Bernoulli(0.2)
                   ? 0.0f
                   : static_cast<float>(rng->Uniform(-1.0, 1.0));
    }
  }
  return m;
}

void Append(const Matrix& m, std::vector<float>* out) {
  out->insert(out->end(), m.data(), m.data() + m.size());
}

void ProbeMatMul(std::vector<float>* out) {
  Rng rng(101);
  for (const int n : kProbeDims) {
    Append(MatMul(ProbeMatrix(5, 9, &rng), ProbeMatrix(9, n, &rng)), out);
  }
  Append(MatMul(ProbeMatrix(9, 65, &rng), ProbeMatrix(65, 12, &rng)), out);
}

void ProbeMatMulTransA(std::vector<float>* out) {
  Rng rng(102);
  for (const int n : kProbeDims) {
    Append(MatMulTransA(ProbeMatrix(9, 5, &rng), ProbeMatrix(9, n, &rng)),
           out);
  }
  Append(MatMulTransA(ProbeMatrix(65, 9, &rng), ProbeMatrix(65, 12, &rng)),
         out);
}

void ProbeMatMulTransB(std::vector<float>* out) {
  Rng rng(103);
  for (const int n : kProbeDims) {
    // n B rows → n dot products per A row: below, at and past one
    // 8-float vector of a panel.
    Append(MatMulTransB(ProbeMatrix(5, 9, &rng), ProbeMatrix(n, 9, &rng)),
           out);
  }
  Append(MatMulTransB(ProbeMatrix(4, 65, &rng), ProbeMatrix(19, 65, &rng)),
         out);
  // Full 4-row tiles plus a 1-row remainder, panels of 16 plus 5
  // columns, and k past any k-block.
  Append(MatMulTransB(ProbeMatrix(13, 131, &rng), ProbeMatrix(37, 131, &rng)),
         out);
  // More rows than one task's row block, ending in a 3-row remainder.
  Append(MatMulTransB(ProbeMatrix(303, 5, &rng), ProbeMatrix(17, 5, &rng)),
         out);
}

void ProbeSpMM(std::vector<float>* out) {
  Rng rng(104);
  std::vector<std::tuple<int, int, float>> triplets;
  const int rows = 13, cols = 11;
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      if (rng.Bernoulli(0.35)) {
        triplets.emplace_back(i, j,
                              static_cast<float>(rng.Uniform(-1.0, 1.0)));
      }
    }
  }
  const SparseMatrix s = SparseMatrix::FromTriplets(rows, cols, triplets);
  for (const int n : kProbeDims) {
    const Matrix b = ProbeMatrix(cols, n, &rng);
    const Matrix full = SpMM(s, b);
    Append(full, out);
    // A row subset recomputed from a fresh B on top of the full product,
    // the engine's usage pattern: unlisted rows keep the old product.
    Matrix partial = full;
    SpMMRowsInto(s, {0, 3, 7, rows - 1}, ProbeMatrix(cols, n, &rng),
                 &partial);
    Append(partial, out);
  }
}

// The NaN this machine's arithmetic makes (Inf · 0). Which NaN operand
// an add returns depends on operand order, which a compiler may swap in
// the scalar reference, so the probes' input NaNs carry the generated
// NaN's bits: every NaN in a dot chain is then the same float.
float GeneratedNaN() {
  volatile float inf = std::numeric_limits<float>::infinity();
  return inf * 0.0f;
}

// A sparse right factor for the dot probes: about 70% unstored zeros,
// some of them -0; the rest uniform in (-1, 1), with subnormals, a NaN
// and ±Inf among them. Row 0 stores nothing, row 1 every entry.
Matrix ProbeSparseMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    float* row = m.row(i);
    for (int j = 0; j < cols; ++j) {
      if (i == 0 || (i > 1 && rng->Bernoulli(0.7))) {
        row[j] = rng->Bernoulli(0.2) ? -0.0f : 0.0f;
      } else {
        row[j] = static_cast<float>(rng->Uniform(-1.0, 1.0));
        if (rng->Bernoulli(0.05)) row[j] *= 1e-38f;  // subnormal
      }
    }
  }
  // A debug-numerics build aborts on the non-finite outputs these make.
  if (rows > 2 && cols > 2 && !debug::NumericsGuardEnabled()) {
    m(2, cols - 1) = GeneratedNaN();
    m(rows - 1, 0) = std::numeric_limits<float>::infinity();
    m(rows - 1, cols / 2) = -std::numeric_limits<float>::infinity();
  }
  return m;
}

// DotRowsInto over every row-subset length of a 13-row A (one 8-row tile
// plus remainders of 1-7 rows, unsorted, a zero-flag row at 5), then
// DotColsInto over unsorted column subsets, for B of n rows.
void ProbeDotSubsets(const Matrix& a, const Matrix& b,
                     std::vector<float>* out) {
  const RowEntries entries(b);
  std::vector<char> nonzero(static_cast<size_t>(a.rows()), 1);
  nonzero[5] = 0;
  const std::vector<int> order = {12, 5, 0, 7, 3, 9, 1, 11, 4, 8, 2, 6, 10};
  for (size_t count = 1; count <= order.size(); ++count) {
    const std::vector<int> rows(order.begin(), order.begin() + count);
    Matrix c(a.rows(), b.rows(), 2.0f);
    DotRowsInto(a, b, entries, rows, &nonzero, &c);
    Append(c, out);
  }
  const int n = b.rows();
  std::vector<int> reversed(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) reversed[static_cast<size_t>(j)] = n - 1 - j;
  const std::vector<std::vector<int>> col_sets = {
      {n - 1}, {n / 2, 0, n - 1}, reversed};
  for (const auto& cols : col_sets) {
    Matrix c(a.rows(), n, 2.0f);
    DotColsInto(a, b, entries, cols, &nonzero, &c);
    Append(c, out);
  }
}

void ProbeSparseDot(std::vector<float>* out) {
  Rng rng(108);
  for (const int k : kProbeDims) {
    const Matrix a = ProbeMatrix(13, k, &rng);
    ProbeDotSubsets(a, ProbeSparseMatrix(11, k, &rng), out);
  }
  // k past any vector block; B of 3 to 37 rows.
  for (const int n : {3, 16, 37}) {
    const Matrix a = ProbeMatrix(13, 131, &rng);
    ProbeDotSubsets(a, ProbeSparseMatrix(n, 131, &rng), out);
  }
}

// The dense route of DotRowsInto / DotColsInto: A rows holding ±Inf or
// NaN, inside full tiles and in a remainder. Not in a debug-numerics
// build, which aborts on the non-finite outputs.
void ProbeDotNonFinite(std::vector<float>* out) {
  if (debug::NumericsGuardEnabled()) return;
  Rng rng(109);
  for (const int k : {1, 9, 131}) {
    Matrix a = ProbeMatrix(13, k, &rng);
    a(3, k - 1) = std::numeric_limits<float>::infinity();
    a(10, 0) = -std::numeric_limits<float>::infinity();
    a(12, k / 2) = GeneratedNaN();
    ProbeDotSubsets(a, ProbeSparseMatrix(21, k, &rng), out);
  }
}

// The dense dot serves MatMulTransB and the non-finite rows of the
// sparse-B dots.
void ProbeDot(std::vector<float>* out) {
  ProbeMatMulTransB(out);
  ProbeDotNonFinite(out);
}

void ProbeBernoulliMask(std::vector<float>* out) {
  // Lengths straddle one and two 4-word vectors and the 312-word block;
  // fills start on a spent block, a few words in and one word before a
  // twist, and a scalar draw after each fill checks the stream position,
  // so tails and twists land at every offset.
  constexpr int64_t kLengths[] = {0, 1, 3, 4, 5, 7, 8, 9, 311, 312, 313, 1000};
  const float entry[2] = {1.25f, -3.0f};
  for (const double p : {0.0, 0.3, 0.5, 1.0}) {
    const BernoulliCut cut(p);
    for (const int skip : {0, 1, 6, 311}) {
      Mt19937_64 engine(1000 + skip);
      for (int i = 0; i < skip; ++i) engine();
      for (const int64_t n : kLengths) {
        std::vector<float> mask(static_cast<size_t>(n));
        engine.FillBernoulli(cut, entry, mask.data(), n);
        out->insert(out->end(), mask.begin(), mask.end());
        out->push_back(static_cast<float>(engine() >> 40));  // exact
      }
    }
  }
  // Random values land far from a cut, where only their top bits
  // decide; cuts taken from the stream's own values put the compare on
  // the low bits too, in every lane and in the scalar tail.
  for (const int at : {0, 1, 2, 3, 5, 150, 311, 312}) {
    Mt19937_64 engine(2000 + at);
    Mt19937_64 peek = engine;
    for (int i = 0; i < at; ++i) peek();
    const BernoulliCut cut(std::ldexp(static_cast<double>(peek()), -64));
    std::vector<float> mask(315);
    engine.FillBernoulli(cut, entry, mask.data(), 315);
    out->insert(out->end(), mask.begin(), mask.end());
  }
}

void ProbeBernoulliAt(std::vector<float>* out) {
  // Offset lists: none, every cell, the block edges (0, 311, 312, the
  // last) and a sparse random subset. Each length walks from a fresh
  // engine at a spent block, one word in, mid-block and one word before
  // a twist, so walks also end exactly on a block edge; lengths are not
  // all multiples of 312. A scalar draw after each walk checks the
  // stream position.
  for (const double p : {0.0, 0.3, 0.5, 1.0}) {
    const BernoulliCut cut(p);
    for (const int skip : {0, 1, 6, 311}) {
      Rng pick(4000 + skip);
      for (const int64_t n : {0, 1, 5, 311, 312, 313, 1000}) {
        Mt19937_64 engine(3000 + skip);
        for (int i = 0; i < skip; ++i) engine();
        std::vector<std::vector<int64_t>> lists = {{}, {}, {}, {}};
        for (int64_t c = 0; c < n; ++c) {
          lists[1].push_back(c);
          if (c == 0 || c == 311 || c == 312 || c == n - 1) {
            lists[2].push_back(c);
          }
          if (pick.Bernoulli(0.05)) lists[3].push_back(c);
        }
        for (const std::vector<int64_t>& offsets : lists) {
          std::vector<uint8_t> outcome(offsets.size());
          engine.BernoulliAt(cut, offsets.data(),
                             static_cast<int64_t>(offsets.size()),
                             outcome.data(), n);
          out->insert(out->end(), outcome.begin(), outcome.end());
          out->push_back(static_cast<float>(engine() >> 40));  // exact
        }
      }
    }
  }
}

// Inputs of one pair-score run: uniform in (-1, 1), with about one
// value in twelve -0, subnormal, the generated NaN or ±Inf.
std::vector<float> ProbePairInputs(int n, Rng* rng) {
  const float special[] = {-0.0f, 3e-39f, GeneratedNaN(),
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity()};
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) {
    x = rng->UniformInt(0, 11) == 0
            ? special[rng->UniformInt(0, 4)]
            : static_cast<float>(rng->Uniform(-1.0, 1.0));
  }
  return v;
}

// Every form over runs of 1-40 candidates at starts 0-7 (so runs start
// off a vector boundary and end in every tail length), each with fresh
// inputs, the fixed endpoint's terms finite, -0, subnormal, NaN or Inf,
// and the first, the last or both lanes negated.
void ProbePairScores(std::vector<float>* out) {
  Rng rng(110);
  const float fixed[][2] = {{0.375f, -0.625f},
                            {-0.0f, 1e-40f},
                            {GeneratedNaN(), 0.5f},
                            {0.5f, std::numeric_limits<float>::infinity()}};
  for (const kernels::PairScoreForm form :
       {kernels::PairScoreForm::kRow, kernels::PairScoreForm::kColumn,
        kernels::PairScoreForm::kFeature}) {
    for (const auto& [fixed_scale, fixed_ddeg] : fixed) {
      for (int n = 1; n <= 40; ++n) {
        const int first = n % 8;
        const std::vector<float> x = ProbePairInputs(first + n, &rng);
        const std::vector<float> y = ProbePairInputs(first + n, &rng);
        const std::vector<float> scale = ProbePairInputs(first + n, &rng);
        const std::vector<float> ddeg = ProbePairInputs(first + n, &rng);
        const kernels::PairScoreRun run = {
            x.data() + first,    y.data() + first, scale.data() + first,
            ddeg.data() + first, fixed_scale,      fixed_ddeg};
        // None, the first lane, the last, or both.
        std::vector<int> negate;
        if (n % 2 == 1) negate.push_back(first);
        if (n % 4 >= 2) negate.push_back(first + n - 1);
        std::vector<float> scores(static_cast<size_t>(n));
        PairScores(form, run, negate, first, scores.data(), n);
        out->insert(out->end(), scores.begin(), scores.end());
      }
    }
  }
}

std::vector<OpInfo> BuildRegistry() {
  std::vector<OpInfo> ops;
  ops.push_back({"linalg.matmul", "linalg::MatMul",
                 "Dense C = A · B with k-blocked saxpy inner loops.",
                 "O(m · k · n)",
                 "row-parallel; each chunk owns rows [r0, r1) of C",
                 DeterminismClass::kLanePerOutput, true, true, true,
                 &ProbeMatMul});
  ops.push_back({"linalg.matmul_ta", "linalg::MatMulTransA",
                 "Dense C = Aᵀ · B, streaming rows of A and B together.",
                 "O(k · m · n)",
                 "column-parallel; each chunk owns columns [j0, j1) of C",
                 DeterminismClass::kLanePerOutput, true, true, true,
                 &ProbeMatMulTransA});
  ops.push_back({"linalg.dot",
                 "linalg::MatMulTransB (and the non-finite A rows of "
                 "linalg::DotRowsInto / linalg::DotColsInto)",
                 "Dense C = A · Bᵀ, or a subset of its rows and columns, as "
                 "ascending-k float dot products, in register tiles over "
                 "packed 16-row panels of B.",
                 "O(|rows| · |cols| · k)",
                 "tasks of one 16-column panel × 256 rows of the output; "
                 "disjoint outputs",
                 DeterminismClass::kLanePerOutput, true, true, false,
                 &ProbeDot});
  ops.push_back({"linalg.sparse_dot",
                 "linalg::DotRowsInto / linalg::DotColsInto",
                 "Row or column subset of C = A · Bᵀ with B given by its "
                 "stored entries (linalg::RowEntries): each dot walks B's "
                 "entries in ascending column order against a k-major pack "
                 "of 8 A rows, one vector lane per A row. Rows of A holding "
                 "±Inf or NaN go to linalg.dot.",
                 "O(|rows| · Σ_{j ∈ cols} nnz_j + |rows| · k), the second "
                 "term the tile pack",
                 "tasks of one 8-row tile of A × every listed column; "
                 "disjoint outputs",
                 DeterminismClass::kLanePerOutput, true, true, false,
                 &ProbeSparseDot});
  ops.push_back({"linalg.spmm", "linalg::SpMM / linalg::SpMMRowsInto",
                 "CSR sparse × dense product, nonzeros in stored order, "
                 "over every row or a listed row subset (the incremental "
                 "engine's A_n rows).",
                 "O(Σ_r nnz_r · n) over the computed rows",
                 "row-parallel over CSR rows or the listed subset; "
                 "disjoint output rows",
                 DeterminismClass::kLanePerOutput, true, true, true,
                 &ProbeSpMM});
  ops.push_back({"linalg.bernoulli_mask",
                 "linalg::Mt19937_64::FillBernoulli",
                 "Bernoulli mask (nn::DropoutMask) straight from the "
                 "MT19937-64 state block: twist, temper, compare each value "
                 "with a 64-bit cut and store one of two floats, one stream "
                 "value per cell.",
                 "O(n) for n cells",
                 "serial: one sequential stream, generated in 312-word "
                 "blocks; vector lanes map to distinct stream positions",
                 DeterminismClass::kLanePerOutput, true, true, false,
                 &ProbeBernoulliMask});
  ops.push_back({"linalg.bernoulli_at", "linalg::Mt19937_64::BernoulliAt",
                 "Bernoulli outcomes (nn::DropoutSparse) at listed, ascending "
                 "offsets of the next n MT19937-64 stream values: twist "
                 "every block the walk crosses, temper and compare only the "
                 "listed values.",
                 "O(n / 312) block twists + O(count) for count listed "
                 "offsets",
                 "serial: one sequential stream; the AVX2 variant twists "
                 "four state words per vector",
                 DeterminismClass::kLanePerOutput, true, true, false,
                 &ProbeBernoulliAt});
  ops.push_back({"linalg.pair_scores", "linalg::PairScores",
                 "The greedy scan's scores over a run of candidates: edge "
                 "scores along a row or down a column of G_N (one endpoint's "
                 "scale and degree term broadcast, the other's read along "
                 "the run), or feature scores ((1 − 2·x)·g) / β along a row; "
                 "then "
                 "the sign of every edge in the run flipped.",
                 "O(n) for a run of n candidates",
                 "serial per run; the scan's row chunks call it in parallel "
                 "on disjoint outputs",
                 DeterminismClass::kLanePerOutput, true, true, false,
                 &ProbePairScores});
  return ops;
}

}  // namespace

const std::vector<OpInfo>& OpRegistry() {
  static const std::vector<OpInfo>* const registry =
      new std::vector<OpInfo>(BuildRegistry());
  return *registry;
}

const OpInfo* FindOp(std::string_view name) {
  for (const OpInfo& op : OpRegistry()) {
    if (name == op.name) return &op;
  }
  return nullptr;
}

std::string ValidateOpRegistry() {
  const std::vector<OpInfo>& reg = OpRegistry();
  const std::vector<kernels::KernelTableInfo> tables =
      kernels::AllKernelTables();
  if (reg.size() != tables.size()) {
    return "registry has " + std::to_string(reg.size()) +
           " ops but dispatch exposes " + std::to_string(tables.size()) +
           " kernel tables";
  }
  std::set<std::string> seen;
  for (const OpInfo& op : reg) {
    if (!seen.insert(op.name).second) {
      return std::string("duplicate op name: ") + op.name;
    }
    if (!op.generic) {
      return std::string(op.name) + ": every op needs a generic reference";
    }
    if (!op.probe) {
      return std::string(op.name) + ": missing differential-test probe";
    }
    const kernels::KernelTableInfo* table = nullptr;
    for (const kernels::KernelTableInfo& t : tables) {
      // By value: identical literals in two TUs need not share storage.
      if (std::string_view(op.name) == t.op) {
        table = &t;
        break;
      }
    }
    if (table == nullptr) {
      return std::string(op.name) + ": no dispatch table with this name";
    }
    if (!table->has_generic) {
      return std::string(op.name) + ": dispatch table lacks a generic slot";
    }
    // A compiled-in variant must be declared; and when this build
    // enables a variant's compile gate, the declaration must match the
    // wiring exactly (the registry lists SOURCE-level availability, so
    // on builds without the gate the table slot is legitimately null).
    if (table->has_avx2 && !op.avx2) {
      return std::string(op.name) + ": avx2 kernel wired but not declared";
    }
    if (table->has_neon && !op.neon) {
      return std::string(op.name) + ": neon kernel wired but not declared";
    }
#if defined(PEEGA_HAVE_AVX2)
    if (op.avx2 != table->has_avx2) {
      return std::string(op.name) + ": avx2 declaration disagrees with table";
    }
#endif
#if defined(PEEGA_HAVE_NEON)
    if (op.neon != table->has_neon) {
      return std::string(op.name) + ": neon declaration disagrees with table";
    }
#endif
  }
  return "";
}

}  // namespace repro::linalg
