// Google-benchmark microbenchmarks of the numerical substrate: dense
// matmul, SpMM, GCN normalization, truncated eigendecomposition, one
// autodiff train step, one PEEGA greedy step, a features-only PEEGA
// campaign at n = 1e5, and GNAT's dropout masks
// (dense and sparse) and kNN feature graph. These bound the cost of
// everything the experiment harnesses do.
//
// The *Threads variants sweep the pool size (1/2/4/8) through
// parallel::SetNumThreads so the speedup of the row-parallel kernels is
// measured in one run; the per-benchmark label records the count.
// Record results as JSON for EXPERIMENTS.md with e.g.
//   ./build/bench/micro_kernels --benchmark_filter=Threads
//       --benchmark_out=BENCH_threads.json --benchmark_out_format=json
// (one command line; wrapped here for width)
// Speedup requires real cores; on a 1-core machine the sweep instead
// demonstrates the determinism contract (identical outputs, no gain).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "autograd/tape.h"
#include "bench_common.h"
#include "core/peega.h"
#include "graph/generators.h"
#include "graph/streaming_sbm.h"
#include "linalg/dispatch.h"
#include "linalg/eigen.h"
#include "linalg/incremental.h"
#include "linalg/ops.h"
#include "nn/gcn.h"
#include "nn/init.h"
#include "nn/optim.h"
#include "parallel/thread_pool.h"

namespace {

using namespace repro;
using linalg::Matrix;
using linalg::Rng;

// RAII pool-size override so a sweep benchmark can't leak its thread
// count into later benchmarks (registration order is not a contract).
class ScopedThreads {
 public:
  explicit ScopedThreads(benchmark::State& state, int threads)
      : state_(state) {
    parallel::SetNumThreads(threads);
    state_.SetLabel("threads=" + std::to_string(parallel::NumThreads()));
  }
  ~ScopedThreads() { parallel::SetNumThreads(0); }

 private:
  benchmark::State& state_;
};

void BM_DenseMatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  const Matrix a = linalg::RandomNormal(n, n, 1.0f, &rng);
  const Matrix b = linalg::RandomNormal(n, n, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n * n);
}
BENCHMARK(BM_DenseMatMul)->Arg(128)->Arg(256)->Arg(512);

void BM_SpMM(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  const graph::Graph g = graph::MakeCoraLike(&rng, n / 500.0);
  const auto a_n = graph::GcnNormalize(g.adjacency);
  const Matrix x = g.features;
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::SpMM(a_n, x));
  }
}
BENCHMARK(BM_SpMM)->Arg(250)->Arg(500)->Arg(1000);

void BM_GcnNormalize(benchmark::State& state) {
  Rng rng(3);
  const graph::Graph g = graph::MakeCoraLike(&rng, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::GcnNormalize(g.adjacency));
  }
}
BENCHMARK(BM_GcnNormalize);

void BM_TopKEigen(benchmark::State& state) {
  const int rank = static_cast<int>(state.range(0));
  Rng rng(4);
  const graph::Graph g = graph::MakeCoraLike(&rng, 1.0);
  const auto a_n = graph::GcnNormalize(g.adjacency);
  for (auto _ : state) {
    Rng eig_rng(5);
    benchmark::DoNotOptimize(
        linalg::TopKEigenSymmetric(a_n, rank, &eig_rng));
  }
}
BENCHMARK(BM_TopKEigen)->Arg(8)->Arg(16)->Arg(32);

void BM_GcnTrainStep(benchmark::State& state) {
  Rng rng(6);
  const graph::Graph g = graph::MakeCoraLike(&rng, 1.0);
  nn::Gcn gcn(g.features.cols(), g.num_classes, nn::Gcn::Options(), &rng);
  gcn.Prepare(g);
  nn::Adam adam;
  const Matrix labels = g.OneHotLabels();
  const auto mask = g.NodeMask(g.train_nodes);
  for (auto _ : state) {
    autograd::Tape tape;
    auto fwd = gcn.Forward(&tape, g, /*training=*/true, &rng);
    auto loss = tape.SoftmaxCrossEntropy(fwd.logits, labels, mask);
    tape.Backward(loss);
    for (auto& [param, var] : fwd.bound) adam.Step(param, var.grad());
  }
}
BENCHMARK(BM_GcnTrainStep);

void BM_PeegaGreedyStep(benchmark::State& state) {
  Rng rng(7);
  const graph::Graph g = graph::MakeCoraLike(&rng, 0.5);
  // One greedy step == attack with a budget of one flip.
  for (auto _ : state) {
    core::PeegaAttack attacker;
    attack::AttackOptions options;
    options.perturbation_rate = 1e-9;  // clamps to budget 1
    Rng step_rng(8);
    benchmark::DoNotOptimize(attacker.Attack(g, options, &step_rng));
  }
}
BENCHMARK(BM_PeegaGreedyStep);

// A features-only PEEGA campaign at scale: n = 1e5 streaming SBM (the
// ggbench peega-sbm-1e5 graph at seed 1), budget pinned at 20 flips.
// Each iteration builds the engine and runs 20 incremental refreshes
// and cached feature scans plus the final objective-only refresh, so
// the per-refresh serial work shows against the O(N F) build. Items
// are flips.
void BM_PeegaFeaturesOnlyCampaign(benchmark::State& state) {
  graph::StreamingSbmConfig config;
  config.seed = 1;
  const graph::Graph g = graph::StreamingSbm(config).Materialize();
  core::PeegaAttack::Options peega;
  peega.mode = core::PeegaAttack::Mode::kFeaturesOnly;
  attack::AttackOptions options;
  options.perturbation_rate = 20.5 / static_cast<double>(g.NumEdges());
  for (auto _ : state) {
    core::PeegaAttack attacker(peega);
    Rng rng(8);
    benchmark::DoNotOptimize(attacker.Attack(g, options, &rng));
  }
  state.SetItemsProcessed(state.iterations() * 20);
}
BENCHMARK(BM_PeegaFeaturesOnlyCampaign)->Unit(benchmark::kMillisecond);

// A topology + features PEEGA campaign at the peega-cora shape: a
// Cora-like graph with n = 2500 and F = 1450, budget pinned at 20
// flips. Each iteration pays the full build and first full scans once,
// then 20 incremental refreshes, G_N transpose updates and cached edge
// and feature scans, which BM_PeegaGreedyStep (one flip) never reaches.
// Items are flips.
void BM_PeegaTopologyCampaign(benchmark::State& state) {
  Rng rng(1);
  const graph::Graph g = graph::MakeCoraLike(&rng, 5.0);
  attack::AttackOptions options;
  options.perturbation_rate = 20.5 / static_cast<double>(g.NumEdges());
  for (auto _ : state) {
    core::PeegaAttack attacker;
    Rng attack_rng(8);
    benchmark::DoNotOptimize(attacker.Attack(g, options, &attack_rng));
  }
  state.SetItemsProcessed(state.iterations() * 20);
}
BENCHMARK(BM_PeegaTopologyCampaign)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// Thread-count sweeps of the parallel hot paths (see file comment for
// how to record these as BENCH_*.json).
// --------------------------------------------------------------------------

void BM_DenseMatMulThreads(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const ScopedThreads scope(state, static_cast<int>(state.range(1)));
  Rng rng(1);
  const Matrix a = linalg::RandomNormal(n, n, 1.0f, &rng);
  const Matrix b = linalg::RandomNormal(n, n, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n * n);
}
BENCHMARK(BM_DenseMatMulThreads)->ArgsProduct({{512}, {1, 2, 4, 8}});

void BM_SpMMThreads(benchmark::State& state) {
  const ScopedThreads scope(state, static_cast<int>(state.range(0)));
  Rng rng(2);
  const graph::Graph g = graph::MakeCoraLike(&rng, 2.0);
  const auto a_n = graph::GcnNormalize(g.adjacency);
  const Matrix x = g.features;
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::SpMM(a_n, x));
  }
}
BENCHMARK(BM_SpMMThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_PeegaGreedyStepThreads(benchmark::State& state) {
  const ScopedThreads scope(state, static_cast<int>(state.range(0)));
  Rng rng(7);
  const graph::Graph g = graph::MakeCoraLike(&rng, 0.5);
  for (auto _ : state) {
    core::PeegaAttack attacker;
    attack::AttackOptions options;
    options.perturbation_rate = 1e-9;  // clamps to budget 1
    Rng step_rng(8);
    benchmark::DoNotOptimize(attacker.Attack(g, options, &step_rng));
  }
}
BENCHMARK(BM_PeegaGreedyStepThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The incremental engine's U_k refresh at the peega-cora shape: n = 2500
// nodes, F = 1450 features, 185 rows (or columns) per refresh, the
// traced core.rows_per_refresh. The right factor B stores the second
// argument's entries per row on average, peega-cora's measured
// densities: 10 for X, 49 for H_1 = A_n·X. Items are the products
// computed (stored entries walked times rows); compare variants with
// PEEGA_SIMD=generic.
constexpr int kDotNodes = 2500, kDotFeatures = 1450, kDotSubset = 185;

struct DotCase {
  Matrix a, b, out;
  linalg::RowEntries entries;
  std::vector<int> subset;
  std::vector<char> nonzero;
};

DotCase MakeDotCase(int per_row) {
  Rng rng(11);
  Matrix b(kDotNodes, kDotFeatures);
  const double density = static_cast<double>(per_row) / kDotFeatures;
  for (int64_t i = 0; i < b.size(); ++i) {
    if (rng.Bernoulli(density)) {
      b.data()[i] = static_cast<float>(rng.Uniform(0.0, 1.0));
    }
  }
  DotCase c{linalg::RandomNormal(kDotNodes, kDotFeatures, 1.0f, &rng),
            std::move(b),
            Matrix(kDotNodes, kDotNodes),
            {},
            rng.Permutation(kDotNodes),
            std::vector<char>(kDotNodes, 1)};
  c.entries = linalg::RowEntries(c.b);
  c.subset.resize(kDotSubset);
  return c;
}

void BM_DotRowsInto(benchmark::State& state) {
  const ScopedThreads scope(state, static_cast<int>(state.range(0)));
  DotCase c = MakeDotCase(static_cast<int>(state.range(1)));
  int64_t walked = 0;
  for (int j = 0; j < kDotNodes; ++j) walked += c.entries.row(j).count;
  for (auto _ : state) {
    linalg::DotRowsInto(c.a, c.b, c.entries, c.subset, &c.nonzero, &c.out);
    benchmark::DoNotOptimize(c.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * int64_t{kDotSubset} * walked);
}
BENCHMARK(BM_DotRowsInto)
    ->ArgsProduct({{1, 2, 4, 8}, {10, 49}})
    ->UseRealTime();

void BM_DotColsInto(benchmark::State& state) {
  const ScopedThreads scope(state, static_cast<int>(state.range(0)));
  DotCase c = MakeDotCase(static_cast<int>(state.range(1)));
  int64_t walked = 0;
  for (const int j : c.subset) walked += c.entries.row(j).count;
  for (auto _ : state) {
    linalg::DotColsInto(c.a, c.b, c.entries, c.subset, &c.nonzero, &c.out);
    benchmark::DoNotOptimize(c.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * int64_t{kDotNodes} * walked);
}
BENCHMARK(BM_DotColsInto)
    ->ArgsProduct({{1, 2, 4, 8}, {10, 49}})
    ->UseRealTime();

// The greedy scan's pair-score op (linalg::PairScores) at peega-cora's
// n = 2500. Run 0 is the row form over the upper part of every row, a
// full rescan. Otherwise the column form, as a scan's clean chunks merge
// 256 changed columns spread over the matrix: for each chunk of that
// many rows, one run down every changed column b past the chunk's first
// row, over the chunk's rows a < b. Items are the scores written;
// compare variants with PEEGA_SIMD=generic.
void BM_PairScores(benchmark::State& state) {
  using linalg::kernels::PairScoreForm;
  using linalg::kernels::PairScoreRun;
  constexpr int n = 2500;
  const int run = static_cast<int>(state.range(0));
  Rng rng(15);
  const Matrix gn = linalg::RandomNormal(n, n, 1.0f, &rng);
  const Matrix gnt = linalg::RandomNormal(n, n, 1.0f, &rng);
  const Matrix terms = linalg::RandomNormal(2, n, 1.0f, &rng);
  const float* scale = terms.row(0);
  const float* ddeg = terms.row(1);
  std::vector<int> changed;
  for (int b = 5; b < n; b += n / 256) changed.push_back(b);
  std::vector<float> out(n);
  int64_t items = 0;
  for (auto _ : state) {
    if (run == 0) {
      for (int a = 0; a + 1 < n; ++a) {
        const PairScoreRun row = {gn.row(a) + a + 1, gnt.row(a) + a + 1,
                                  scale + a + 1,     ddeg + a + 1,
                                  scale[a],          ddeg[a]};
        linalg::PairScores(PairScoreForm::kRow, row, {}, a + 1, out.data(),
                           n - a - 1);
        items += n - a - 1;
      }
    } else {
      for (int a0 = 0; a0 < n; a0 += run) {
        for (const int b : changed) {
          const int a1 = std::min(a0 + run, b);
          if (a1 <= a0) continue;
          const PairScoreRun column = {gnt.row(b) + a0, gn.row(b) + a0,
                                       scale + a0,      ddeg + a0,
                                       scale[b],        ddeg[b]};
          linalg::PairScores(PairScoreForm::kColumn, column, {}, a0,
                             out.data(), a1 - a0);
          items += a1 - a0;
        }
      }
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_PairScores)->ArgName("run")->Arg(0)->Arg(32)->Arg(64);

// GNAT's per-epoch input dropout mask at the gnat-cora shape (n = 1000
// nodes, F = 580 features, drop 0.5): one engine value per entry, so
// items_per_second is the draw rate.
void BM_DropoutMask(benchmark::State& state) {
  Rng rng(12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::DropoutMask(1000, 580, 0.5f, &rng));
  }
  state.SetItemsProcessed(state.iterations() * 1000 * 580);
}
BENCHMARK(BM_DropoutMask);

// The sparse first-layer dropout (nn::DropoutSparse) over a 1000 x 580
// input at Arg per mille density: 17 is gnat-cora's bag-of-words input
// (1.7%), 1000 a dense feature matrix, where every cell is stored and
// drawn. Items are the 580000 stream values walked.
void BM_DropoutSparse(benchmark::State& state) {
  Rng fill(14);
  const double density = static_cast<double>(state.range(0)) / 1000.0;
  Matrix x(1000, 580);
  for (int64_t i = 0; i < x.size(); ++i) {
    if (fill.Bernoulli(density)) x.data()[i] = 1.0f;
  }
  const linalg::SparseMatrix xs = linalg::SparseMatrix::FromDense(x);
  Rng rng(12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::DropoutSparse(xs, 0.5f, &rng));
  }
  state.SetItemsProcessed(state.iterations() * 1000 * 580);
}
BENCHMARK(BM_DropoutSparse)->Arg(17)->Arg(1000);

// GNAT's top-k_f cosine feature graph (k_f = 15) on the gnat-cora graph
// (Cora-like, n = 1000, F = 580). Items are the products the column walk
// adds: Σ_c nnz_c² over X's columns.
void BM_FeatureKnnGraph(benchmark::State& state) {
  const ScopedThreads scope(state, static_cast<int>(state.range(0)));
  Rng rng(13);
  const graph::Graph g = graph::MakeCoraLike(&rng, 2.0);
  const linalg::SparseMatrix by_col =
      linalg::SparseMatrix::FromDense(g.features).Transposed();
  int64_t products = 0;
  for (int c = 0; c < by_col.rows(); ++c) {
    products += int64_t{by_col.RowNnz(c)} * by_col.RowNnz(c);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::FeatureKnnGraph(g.features, 15, 1e-6f));
  }
  state.SetItemsProcessed(state.iterations() * products);
}
BENCHMARK(BM_FeatureKnnGraph)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// --------------------------------------------------------------------------
// SIMD-variant sweeps of the dispatched kernels. Registered dynamically
// (RegisterSimdVariantBenchmarks, called from main) for exactly the
// variants this machine can run, so the suite never reports a forced
// variant that silently fell back. Record with e.g.
//   ./build/bench/micro_kernels --benchmark_filter=Simd
//       --json BENCH_simd.json
// The dispatch contract makes the outputs bitwise-identical across
// these rows; only the time may differ.
// --------------------------------------------------------------------------

void BM_DenseMatMulSimd(benchmark::State& state, linalg::SimdVariant v) {
  const linalg::ScopedSimdVariant scope(v);
  state.SetLabel(std::string("simd=") + linalg::SimdVariantName(v));
  const int n = 256;
  Rng rng(1);
  const Matrix a = linalg::RandomNormal(n, n, 1.0f, &rng);
  const Matrix b = linalg::RandomNormal(n, n, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n * n);
}

void BM_MatMulTransBSimd(benchmark::State& state, linalg::SimdVariant v) {
  const linalg::ScopedSimdVariant scope(v);
  state.SetLabel(std::string("simd=") + linalg::SimdVariantName(v));
  Rng rng(9);
  const Matrix a = linalg::RandomNormal(256, 128, 1.0f, &rng);
  const Matrix b = linalg::RandomNormal(256, 128, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::MatMulTransB(a, b));
  }
}

void BM_SpMMSimd(benchmark::State& state, linalg::SimdVariant v) {
  const linalg::ScopedSimdVariant scope(v);
  state.SetLabel(std::string("simd=") + linalg::SimdVariantName(v));
  Rng rng(2);
  const graph::Graph g = graph::MakeCoraLike(&rng, 2.0);
  const auto a_n = graph::GcnNormalize(g.adjacency);
  const Matrix x = g.features;
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::SpMM(a_n, x));
  }
}

void BM_PeegaGreedyStepSimd(benchmark::State& state, linalg::SimdVariant v) {
  const linalg::ScopedSimdVariant scope(v);
  state.SetLabel(std::string("simd=") + linalg::SimdVariantName(v));
  Rng rng(7);
  const graph::Graph g = graph::MakeCoraLike(&rng, 0.5);
  for (auto _ : state) {
    core::PeegaAttack attacker;
    attack::AttackOptions options;
    options.perturbation_rate = 1e-9;  // clamps to budget 1
    Rng step_rng(8);
    benchmark::DoNotOptimize(attacker.Attack(g, options, &step_rng));
  }
}

// BM_DropoutMask under each variant of the linalg.bernoulli_mask kernel.
void BM_DropoutMaskSimd(benchmark::State& state, linalg::SimdVariant v) {
  const linalg::ScopedSimdVariant scope(v);
  state.SetLabel(std::string("simd=") + linalg::SimdVariantName(v));
  Rng rng(12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::DropoutMask(1000, 580, 0.5f, &rng));
  }
  state.SetItemsProcessed(state.iterations() * 1000 * 580);
}

void RegisterSimdVariantBenchmarks() {
  using Fn = void (*)(benchmark::State&, linalg::SimdVariant);
  const std::pair<const char*, Fn> benches[] = {
      {"BM_DenseMatMulSimd", &BM_DenseMatMulSimd},
      {"BM_MatMulTransBSimd", &BM_MatMulTransBSimd},
      {"BM_SpMMSimd", &BM_SpMMSimd},
      {"BM_PeegaGreedyStepSimd", &BM_PeegaGreedyStepSimd},
      {"BM_DropoutMaskSimd", &BM_DropoutMaskSimd},
  };
  for (const auto& [name, fn] : benches) {
    for (const linalg::SimdVariant v :
         {linalg::SimdVariant::kGeneric, linalg::SimdVariant::kAvx2,
          linalg::SimdVariant::kNeon}) {
      if (!linalg::SimdVariantUsable(v)) continue;
      benchmark::RegisterBenchmark(
          (std::string(name) + "/" + linalg::SimdVariantName(v)).c_str(),
          fn, v);
    }
  }
}

}  // namespace

// Forwards every google-benchmark result into the BenchReporter so
// `--json` emits the same {bench, config, threads, metrics, phases}
// schema as the table/fig benches: one phase per benchmark, wall_ms =
// accumulated real time, count = iterations.
class PhaseForwardingReporter : public benchmark::ConsoleReporter {
 public:
  explicit PhaseForwardingReporter(repro::bench::BenchReporter* out)
      : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      out_->RecordPhase(run.benchmark_name(), run.real_accumulated_time,
                        static_cast<uint64_t>(run.iterations));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  repro::bench::BenchReporter* out_;
};

// Custom main (instead of BENCHMARK_MAIN) so the run-metadata line —
// including the default thread count — lands in every saved bench log,
// and --json/--trace work exactly as in the table benches. The reporter
// consumes its flags before benchmark::Initialize sees argv.
int main(int argc, char** argv) {
  repro::bench::BenchReporter reporter("micro_kernels", &argc, argv);
  RegisterSimdVariantBenchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  PhaseForwardingReporter display(&reporter);
  benchmark::RunSpecifiedBenchmarks(&display);
  benchmark::Shutdown();
  return 0;
}
