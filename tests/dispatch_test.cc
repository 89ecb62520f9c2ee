// SIMD dispatch tests: registry-driven differential tests of every
// compiled kernel variant against the scalar reference (bit-for-bit),
// the registry/dispatch-table cross-check, the PEEGA_SIMD forcing
// machinery, and the end-to-end guarantee the kernels exist to uphold —
// a full PEEGA attack commits the IDENTICAL flip sequence under
// PEEGA_SIMD=generic and PEEGA_SIMD=avx2 at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "attack/attacker.h"
#include "core/peega.h"
#include "debug/numerics.h"
#include "graph/generators.h"
#include "graph/metrics.h"
#include "linalg/dispatch.h"
#include "linalg/incremental.h"
#include "linalg/kernels/kernels.h"
#include "linalg/matrix.h"
#include "linalg/op_registry.h"
#include "linalg/ops.h"
#include "linalg/random.h"
#include "parallel/thread_pool.h"

namespace repro::linalg {
namespace {

std::vector<SimdVariant> UsableSimdVariants() {
  std::vector<SimdVariant> variants;
  for (const SimdVariant v :
       {SimdVariant::kGeneric, SimdVariant::kAvx2, SimdVariant::kNeon}) {
    if (SimdVariantUsable(v)) variants.push_back(v);
  }
  return variants;
}

// Bit-exact float comparison: NaN payloads and signed zeros count too,
// because the flip-selection argmax compares raw floats.
::testing::AssertionResult StreamsBitwiseEqual(const std::vector<float>& ref,
                                               const std::vector<float>& got,
                                               const char* op,
                                               SimdVariant variant) {
  if (ref.size() != got.size()) {
    return ::testing::AssertionFailure()
           << op << " [" << SimdVariantName(variant) << "]: output length "
           << got.size() << " != reference length " << ref.size();
  }
  for (size_t i = 0; i < ref.size(); ++i) {
    uint32_t rb, gb;
    std::memcpy(&rb, &ref[i], sizeof(rb));
    std::memcpy(&gb, &got[i], sizeof(gb));
    if (rb != gb) {
      return ::testing::AssertionFailure()
             << op << " [" << SimdVariantName(variant) << "]: output " << i
             << " differs from reference: " << got[i] << " vs " << ref[i]
             << " (bits 0x" << std::hex << gb << " vs 0x" << rb << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(OpRegistry, MatchesDispatchTables) {
  EXPECT_EQ(ValidateOpRegistry(), "");
}

TEST(OpRegistry, CoversEveryKernelTable) {
  for (const kernels::KernelTableInfo& table : kernels::AllKernelTables()) {
    EXPECT_NE(FindOp(table.op), nullptr)
        << "kernel table " << table.op << " has no registry entry";
  }
  EXPECT_EQ(FindOp("linalg.no_such_op"), nullptr);
}

TEST(SimdDispatch, GenericAlwaysUsable) {
  EXPECT_TRUE(SimdVariantCompiled(SimdVariant::kGeneric));
  EXPECT_TRUE(SimdVariantUsable(SimdVariant::kGeneric));
}

TEST(SimdDispatch, NamesAreStable) {
  EXPECT_STREQ(SimdVariantName(SimdVariant::kGeneric), "generic");
  EXPECT_STREQ(SimdVariantName(SimdVariant::kAvx2), "avx2");
  EXPECT_STREQ(SimdVariantName(SimdVariant::kNeon), "neon");
}

TEST(SimdDispatch, ScopedVariantRestores) {
  const SimdVariant before = ActiveSimdVariant();
  {
    ScopedSimdVariant forced(SimdVariant::kGeneric);
    EXPECT_EQ(ActiveSimdVariant(), SimdVariant::kGeneric);
  }
  EXPECT_EQ(ActiveSimdVariant(), before);
}

TEST(SimdDispatch, SelectFallsBackToGenericForUnimplementedOps) {
  // A table with only a generic slot (as DotTable on NEON): whatever
  // variant is active, Select() must resolve to the generic kernel
  // rather than a null pointer.
  const KernelTable<kernels::SpMMRowsFn> generic_only = {
      "linalg.generic_only", kernels::SpMMTable().generic, nullptr, nullptr};
  for (const SimdVariant v : UsableSimdVariants()) {
    ScopedSimdVariant forced(v);
    EXPECT_EQ(generic_only.Select(), generic_only.generic)
        << SimdVariantName(v);
  }
}

TEST(SimdDispatch, ForcedVariantSelectsDistinctKernel) {
  // Guards against the differential suite degenerating into
  // generic-vs-generic: under a forced non-generic variant, an op that
  // implements it must resolve to a DIFFERENT function than generic.
  for (const SimdVariant v : UsableSimdVariants()) {
    if (v == SimdVariant::kGeneric) continue;
    ScopedSimdVariant forced(v);
    EXPECT_NE(kernels::MatMulTable().Select(), kernels::MatMulTable().generic)
        << SimdVariantName(v);
  }
}

// The heart of the PR: every op in the registry, probed under every
// usable variant, must produce a bit-identical output stream to the
// generic reference. A new op added to the registry is covered here
// automatically.
TEST(SimdDifferential, EveryOpBitwiseEqualAcrossVariants) {
  const std::vector<SimdVariant> variants = UsableSimdVariants();
  ASSERT_FALSE(variants.empty());
  if (variants.size() == 1) {
    GTEST_SKIP() << "only generic is usable on this machine; "
                    "nothing to compare against";
  }
  for (const OpInfo& op : OpRegistry()) {
    std::vector<float> reference;
    {
      ScopedSimdVariant forced(SimdVariant::kGeneric);
      op.probe(&reference);
    }
    EXPECT_FALSE(reference.empty()) << op.name << ": probe produced nothing";
    for (const SimdVariant v : variants) {
      if (v == SimdVariant::kGeneric) continue;
      std::vector<float> got;
      {
        ScopedSimdVariant forced(v);
        op.probe(&got);
      }
      EXPECT_TRUE(StreamsBitwiseEqual(reference, got, op.name, v));
    }
  }
}

// Same differential, across thread counts: the chunked ParallelFor
// partition must not interact with the kernel variant.
TEST(SimdDifferential, BitwiseEqualAcrossVariantsAndThreadCounts) {
  const std::vector<SimdVariant> variants = UsableSimdVariants();
  if (variants.size() == 1) {
    GTEST_SKIP() << "only generic is usable on this machine";
  }
  for (const OpInfo& op : OpRegistry()) {
    std::vector<float> reference;
    {
      parallel::SetNumThreads(1);
      ScopedSimdVariant forced(SimdVariant::kGeneric);
      op.probe(&reference);
    }
    for (const int threads : {2, 8}) {
      parallel::SetNumThreads(threads);
      for (const SimdVariant v : variants) {
        std::vector<float> got;
        {
          ScopedSimdVariant forced(v);
          op.probe(&got);
        }
        EXPECT_TRUE(StreamsBitwiseEqual(reference, got, op.name, v))
            << "at " << threads << " threads";
      }
    }
  }
  parallel::SetNumThreads(0);
}

// The dot family at the engine's scale: row subsets and column subsets
// of a few hundred, many 16-column panels, more rows than one task's
// row block, and zero-flag rows, under the default variant at several
// pool sizes against generic at one thread. This pins the
// (panel × row block) task partition, which the small registry probes
// barely split.
TEST(SimdDifferential, DotFamilyBitwiseEqualAtCoraScale) {
  const int n = 300, k = 200;
  Rng rng(2024);
  const Matrix a = RandomNormal(n, k, 1.0f, &rng);
  const Matrix b = RandomNormal(n, k, 1.0f, &rng);
  std::vector<char> nonzero(n, 1);
  for (int i = 0; i < n; i += 7) nonzero[static_cast<size_t>(i)] = 0;
  std::vector<int> rows = rng.Permutation(n);
  rows.resize(185);
  std::vector<int> cols = rng.Permutation(n);
  cols.resize(37);
  const auto run = [&] {
    Matrix c(n, n, 1.0f);
    DotRowsInto(a, b, RowEntries(b), rows, &nonzero, &c);
    DotColsInto(a, b, RowEntries(b), cols, &nonzero, &c);
    const Matrix full = MatMulTransB(a, b);
    std::vector<float> got(c.data(), c.data() + c.size());
    got.insert(got.end(), full.data(), full.data() + full.size());
    return got;
  };
  std::vector<float> reference;
  {
    parallel::SetNumThreads(1);
    ScopedSimdVariant forced(SimdVariant::kGeneric);
    reference = run();
  }
  for (const int threads : {1, 2, 8}) {
    parallel::SetNumThreads(threads);
    EXPECT_TRUE(StreamsBitwiseEqual(reference, run(), "dot family",
                                    ActiveSimdVariant()))
        << "at " << threads << " threads";
  }
  parallel::SetNumThreads(0);
}

// The sparse-B dots against the dense oracle: every output DotRowsInto
// and DotColsInto write is MatMulTransB's float bit for bit (+0 for a
// zero-flag row), under every usable variant at 1, 2 and 8 threads. B
// holds -0, subnormals, NaN and ±Inf, an empty row and a fully stored
// one; A holds rows with ±Inf or NaN, which take the dense route, and
// row subsets leave tile remainders of every size.
TEST(SparseDot, MatchesDenseOracleBitwise) {
  constexpr int kRows = 29, kCols = 45, kDepth = 37;
  constexpr float kUntouched = 7.0f;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Rng rng(77);
  Matrix a(kRows, kDepth);
  for (int64_t i = 0; i < a.size(); ++i) {
    a.data()[i] = rng.Bernoulli(0.2)
                      ? 0.0f
                      : static_cast<float>(rng.Uniform(-2.0, 2.0));
  }
  // A debug-numerics build aborts on the non-finite outputs NaN and ±Inf
  // make, so there the test keeps every value finite. Input NaNs carry
  // the bits of the NaN arithmetic makes (Inf · 0): which NaN operand an
  // add returns depends on operand order, which a compiler may swap.
  const bool non_finite = !debug::NumericsGuardEnabled();
  volatile float inf = kInf;
  const float generated_nan = inf * 0.0f;
  if (non_finite) {
    a(4, 36) = kInf;
    a(11, 0) = generated_nan;
    a(19, 17) = -kInf;
  }
  std::vector<char> nonzero(kRows, 1);
  for (const int r : {6, 23}) {
    std::fill_n(a.row(r), kDepth, 0.0f);
    nonzero[static_cast<size_t>(r)] = 0;
  }
  Matrix b(kCols, kDepth);
  for (int j = 2; j < kCols; ++j) {
    for (int c = 0; c < kDepth; ++c) {
      if (rng.Bernoulli(0.15)) {
        b(j, c) = static_cast<float>(rng.Uniform(-1.0, 1.0));
        if (rng.Bernoulli(0.1)) b(j, c) *= 1e-39f;  // subnormal
      } else if (rng.Bernoulli(0.3)) {
        b(j, c) = -0.0f;
      }
    }
  }
  for (int c = 0; c < kDepth; ++c) {
    b(1, c) = static_cast<float>(rng.Uniform(0.5, 1.0));  // fully stored
  }
  if (non_finite) {
    b(3, 5) = generated_nan;
    b(8, 0) = kInf;
    b(8, 20) = -kInf;
  }
  const RowEntries entries(b);
  ASSERT_EQ(entries.row(0).count, 0);
  ASSERT_EQ(entries.row(1).count, kDepth);

  Matrix oracle;
  {
    parallel::SetNumThreads(1);
    ScopedSimdVariant forced(SimdVariant::kGeneric);
    oracle = MatMulTransB(a, b);
  }
  const auto expect_output = [&](const Matrix& c, int r, int j,
                                 bool written) {
    const float want = !written ? kUntouched
                       : nonzero[static_cast<size_t>(r)] != 0 ? oracle(r, j)
                                                               : 0.0f;
    return std::bit_cast<uint32_t>(c(r, j)) == std::bit_cast<uint32_t>(want);
  };
  const std::vector<int> order = rng.Permutation(kRows);
  const std::vector<int> col_order = rng.Permutation(kCols);
  for (const SimdVariant v : UsableSimdVariants()) {
    ScopedSimdVariant forced(v);
    for (const int threads : {1, 2, 8}) {
      parallel::SetNumThreads(threads);
      for (int count = 1; count <= kRows; ++count) {
        const std::vector<int> rows(order.begin(), order.begin() + count);
        std::vector<char> listed(kRows, 0);
        for (const int r : rows) listed[static_cast<size_t>(r)] = 1;
        Matrix c(kRows, kCols, kUntouched);
        DotRowsInto(a, b, entries, rows, &nonzero, &c);
        for (int r = 0; r < kRows; ++r) {
          for (int j = 0; j < kCols; ++j) {
            ASSERT_TRUE(expect_output(c, r, j, listed[static_cast<size_t>(r)]))
                << "DotRowsInto [" << SimdVariantName(v) << ", " << threads
                << " threads, " << count << " rows]: (" << r << ", " << j
                << ") = " << c(r, j) << ", oracle " << oracle(r, j);
          }
        }
      }
      for (const int count : {1, 5, 17, kCols}) {
        const std::vector<int> cols(col_order.begin(),
                                    col_order.begin() + count);
        std::vector<char> listed(kCols, 0);
        for (const int j : cols) listed[static_cast<size_t>(j)] = 1;
        Matrix c(kRows, kCols, kUntouched);
        DotColsInto(a, b, entries, cols, &nonzero, &c);
        for (int r = 0; r < kRows; ++r) {
          for (int j = 0; j < kCols; ++j) {
            ASSERT_TRUE(expect_output(c, r, j, listed[static_cast<size_t>(j)]))
                << "DotColsInto [" << SimdVariantName(v) << ", " << threads
                << " threads, " << count << " columns]: (" << r << ", " << j
                << ") = " << c(r, j) << ", oracle " << oracle(r, j);
          }
        }
      }
    }
  }
  parallel::SetNumThreads(0);
}

// The scan's pair-score op under every usable variant, bit for bit
// against generic: all three forms over runs of 1-40 candidates at every
// start 0-7 (so runs begin off a vector boundary and end in every tail),
// each with fresh inputs holding -0, subnormals, NaN and ±Inf in every
// array, with those in the fixed endpoint's terms too, and no lane, the
// first, the last or both negated. Input NaNs carry the bits of the NaN arithmetic makes
// (Inf · 0), as in the registry's probes: which NaN operand an operation
// returns depends on operand order, which a compiler may swap.
TEST(PairScores, VariantsBitwiseEqualGeneric) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  volatile float inf = kInf;
  const float generated_nan = inf * 0.0f;
  const float special[] = {-0.0f, 3e-39f, generated_nan, kInf, -kInf};
  Rng rng(91);
  // Fresh inputs for every run: uniform in (-1, 1), about one value in
  // twelve special.
  const auto inputs = [&](int size) {
    std::vector<float> v(static_cast<size_t>(size));
    for (float& x : v) {
      x = rng.UniformInt(0, 11) == 0
              ? special[rng.UniformInt(0, 4)]
              : static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
    return v;
  };
  const float fixed[][2] = {{0.375f, -0.625f}, {-0.8125f, 0.2f},
                            {-0.0f, 3e-39f},   {generated_nan, 0.5f},
                            {0.5f, generated_nan}, {kInf, 0.25f},
                            {0.25f, -kInf}};
  for (const kernels::PairScoreForm form :
       {kernels::PairScoreForm::kRow, kernels::PairScoreForm::kColumn,
        kernels::PairScoreForm::kFeature}) {
    for (const auto& terms : fixed) {
      for (int n = 1; n <= 40; ++n) {
        for (int first = 0; first < 8; ++first) {
          const std::vector<float> x = inputs(first + n);
          const std::vector<float> y = inputs(first + n);
          const std::vector<float> scale = inputs(first + n);
          const std::vector<float> ddeg = inputs(first + n);
          const kernels::PairScoreRun run = {
              x.data() + first,    y.data() + first, scale.data() + first,
              ddeg.data() + first, terms[0],         terms[1]};
          const std::vector<std::vector<int>> negates = {
              {}, {first}, {first + n - 1}, {first, first + n - 1}};
          for (size_t k = 0; k < negates.size(); ++k) {
            if (n == 1 && k == 3) continue;  // one lane, negated twice
            const auto scores = [&] {
              std::vector<float> out(static_cast<size_t>(n));
              PairScores(form, run, negates[k], first, out.data(), n);
              return out;
            };
            std::vector<float> ref;
            {
              ScopedSimdVariant forced(SimdVariant::kGeneric);
              ref = scores();
            }
            for (const SimdVariant v : UsableSimdVariants()) {
              ScopedSimdVariant forced(v);
              ASSERT_TRUE(StreamsBitwiseEqual(ref, scores(),
                                              "linalg.pair_scores", v))
                  << " form " << static_cast<int>(form) << ", n " << n
                  << ", first " << first << ", negated " << k;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace repro::linalg

namespace repro::core {
namespace {

using attack::AttackOptions;
using attack::AttackResult;
using attack::Flip;
using graph::Graph;
using linalg::Rng;
using linalg::ScopedSimdVariant;
using linalg::SimdVariant;
using linalg::SimdVariantUsable;

Graph SbmGraph(uint64_t seed) {
  graph::SyntheticConfig config;
  config.name = "sbm-simd";
  config.num_nodes = 60;
  config.num_classes = 3;
  config.feature_dim = 48;
  config.avg_degree = 4.0;
  Rng rng(seed);
  return graph::MakeSynthetic(config, &rng);
}

std::string FlipString(const std::vector<Flip>& flips) {
  std::ostringstream os;
  for (const Flip& f : flips) {
    os << (f.is_feature ? "F " : "E ") << f.a << " " << f.b << "\n";
  }
  return os.str();
}

AttackResult RunPeega(const Graph& g, PeegaAttack::Engine engine,
                      SimdVariant variant) {
  ScopedSimdVariant forced(variant);
  PeegaAttack::Options peega;
  peega.engine = engine;
  AttackOptions options;
  options.perturbation_rate = 0.1;
  Rng rng(99);
  return PeegaAttack(peega).Attack(g, options, &rng);
}

// Acceptance criterion of the dispatch PR: a full PEEGA campaign forced
// to generic and forced to AVX2 commits the identical flip sequence at
// 1, 2 and 8 threads, on both engines.
TEST(SimdEndToEnd, FlipSequenceIdenticalGenericVsAvx2) {
  if (!SimdVariantUsable(SimdVariant::kAvx2)) {
    GTEST_SKIP() << "AVX2 not usable on this machine";
  }
  const Graph g = SbmGraph(31);
  for (const auto engine :
       {PeegaAttack::Engine::kTape, PeegaAttack::Engine::kIncremental}) {
    std::string reference;
    for (const int threads : {1, 2, 8}) {
      parallel::SetNumThreads(threads);
      const AttackResult gen = RunPeega(g, engine, SimdVariant::kGeneric);
      const AttackResult avx = RunPeega(g, engine, SimdVariant::kAvx2);
      EXPECT_EQ(FlipString(gen.flips), FlipString(avx.flips))
          << "engine " << static_cast<int>(engine) << " at " << threads
          << " threads";
      EXPECT_EQ(gen.final_objective, avx.final_objective);
      EXPECT_EQ(graph::ComputeEdgeDiff(gen.poisoned, avx.poisoned).total(), 0);
      EXPECT_EQ(graph::FeatureDiffCount(gen.poisoned, avx.poisoned), 0);
      if (reference.empty()) {
        reference = FlipString(gen.flips);
      } else {
        EXPECT_EQ(reference, FlipString(gen.flips))
            << "thread count changed the flip sequence";
      }
    }
  }
  parallel::SetNumThreads(0);
}

// Cross-engine equivalence must also hold when BOTH engines run the
// AVX2 kernels — the tape-as-oracle property is variant-independent.
TEST(SimdEndToEnd, TapeOracleHoldsUnderAvx2) {
  if (!SimdVariantUsable(SimdVariant::kAvx2)) {
    GTEST_SKIP() << "AVX2 not usable on this machine";
  }
  const Graph g = SbmGraph(32);
  const AttackResult tape =
      RunPeega(g, PeegaAttack::Engine::kTape, SimdVariant::kAvx2);
  const AttackResult inc =
      RunPeega(g, PeegaAttack::Engine::kIncremental, SimdVariant::kAvx2);
  EXPECT_EQ(FlipString(tape.flips), FlipString(inc.flips));
  EXPECT_EQ(graph::ComputeEdgeDiff(tape.poisoned, inc.poisoned).total(), 0);
  EXPECT_EQ(graph::FeatureDiffCount(tape.poisoned, inc.poisoned), 0);
}

}  // namespace
}  // namespace repro::core
