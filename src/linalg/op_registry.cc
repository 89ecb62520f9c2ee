#include "linalg/op_registry.h"

#include <cmath>
#include <set>
#include <string_view>
#include <tuple>

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

void ProbeDotRows(std::vector<float>* out) {
  Rng rng(108);
  for (const int n : kProbeDims) {
    const Matrix a = ProbeMatrix(7, 9, &rng);
    const Matrix b = ProbeMatrix(n, 9, &rng);
    Matrix c(a.rows(), b.rows());
    std::vector<char> nonzero(a.rows(), 1);
    nonzero[2] = 0;
    DotRowsInto(a, b, {0, 2, 4, 6}, &nonzero, &c);
    Append(c, out);
  }
  // An unsorted 11-row subset of a 13-row A: two full 4-row tiles plus
  // a 2-row remainder once the zero-flag row (5, inside the first tile)
  // is dropped; n straddles one 16-column panel, and k = 131 passes any
  // k-block.
  const std::vector<int> rows = {12, 5, 0, 7, 3, 9, 1, 11, 4, 8, 2};
  for (const int n : {15, 16, 17, 37}) {
    const Matrix a = ProbeMatrix(13, 131, &rng);
    const Matrix b = ProbeMatrix(n, 131, &rng);
    Matrix c(a.rows(), b.rows());
    std::vector<char> nonzero(a.rows(), 1);
    nonzero[5] = 0;
    DotRowsInto(a, b, rows, &nonzero, &c);
    Append(c, out);
  }
}

void ProbeDotCols(std::vector<float>* out) {
  Rng rng(109);
  const Matrix a = ProbeMatrix(9, 9, &rng);
  const Matrix b = ProbeMatrix(21, 9, &rng);
  std::vector<char> nonzero(a.rows(), 1);
  nonzero[4] = 0;
  // Unsorted column subsets: one column, a part-filled first vector of
  // a panel, and one spilling into its second vector.
  const std::vector<std::vector<int>> col_sets = {
      {5}, {2, 19, 7}, {0, 1, 2, 3, 4, 5, 6, 7, 20, 11, 9}};
  for (const auto& cols : col_sets) {
    Matrix c(a.rows(), b.rows());
    DotColsInto(a, b, cols, &nonzero, &c);
    Append(c, out);
  }
  // Unsorted subsets of 17 and 21 columns span two panels; 13 rows
  // with a zero-flag row inside the first tile; k = 131.
  const Matrix a2 = ProbeMatrix(13, 131, &rng);
  const Matrix b2 = ProbeMatrix(37, 131, &rng);
  std::vector<char> nonzero2(a2.rows(), 1);
  nonzero2[2] = 0;
  const std::vector<std::vector<int>> wide_sets = {
      {36, 0, 17, 5, 22, 9, 31, 14, 2, 27, 11, 33, 6, 19, 25, 1, 30},
      {3, 35, 8, 16, 29, 12, 21, 0, 34, 7, 26, 15, 32, 4, 23, 10, 28, 18,
       36, 13, 24}};
  for (const auto& cols : wide_sets) {
    Matrix c(a2.rows(), b2.rows());
    DotColsInto(a2, b2, cols, &nonzero2, &c);
    Append(c, out);
  }
}

// The dot family shares one kernel table, so its probe runs all three
// public ops, one after the other.
void ProbeDot(std::vector<float>* out) {
  ProbeMatMulTransB(out);
  ProbeDotRows(out);
  ProbeDotCols(out);
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
                 "linalg::MatMulTransB / linalg::DotRowsInto / "
                 "linalg::DotColsInto",
                 "Dense C = A · Bᵀ, or a row or column subset of it, as "
                 "ascending-k float dot products, in register tiles over "
                 "packed 16-row panels of B.",
                 "O(|rows| · |cols| · k)",
                 "tasks of one 16-column panel × 256 rows of the output; "
                 "disjoint outputs",
                 DeterminismClass::kLanePerOutput, true, true, false,
                 &ProbeDot});
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
