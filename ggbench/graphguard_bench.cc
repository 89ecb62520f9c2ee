// graphguard_bench — the end-to-end benchmark driver (see README.md).
//
//   graphguard_bench --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--json <path>]
//
// Generates the workload's inputs from the seed, runs them through the
// library's public entry points for about `seconds`, checks the outputs,
// prints every metric as `metric <name>=<value> <unit>` and then
// `result: correct|INCORRECT attempted=<n> failed=<m>`, and exits
// non-zero when a check failed. --json writes bench_common's BenchReporter
// report: run metadata, the obs counters, and one phase each for the
// set-ups, the operations and, with --trace 1, every folded layer.
//
// End-to-end metrics always come from untraced operations. --trace 1
// alternates untraced and traced operations, folds the trace of the
// traced ones into per-layer self time (bench_support.h) and adds the
// per-layer metrics.
//
// Scratch graph files go to the working directory.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_support.h"
#include "core/gnat.h"
#include "core/peega.h"
#include "core/peega_batch.h"
#include "eval/pipeline.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/streaming_sbm.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace repro::ggbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Metrics and check outcomes of one run; timings also go to the
/// BenchReporter as phases.
class Report {
 public:
  explicit Report(bench::BenchReporter* reporter) : reporter_(reporter) {}

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }

  /// Adds `ms` to phase `phase` of the --json report.
  void Phase(const std::string& phase, double ms, uint64_t count = 1) {
    reporter_->RecordPhase(phase, ms / 1e3, count);
  }

  /// Counts one operation; `failure` is "" when it succeeded and passed
  /// its output checks.
  void Op(const std::string& failure) {
    ++attempted_;
    if (failure.empty()) return;
    ++failed_;
    Fail(failure);
  }

  /// Records a failed run-level check ("" = passed).
  void Check(const std::string& failure) {
    if (!failure.empty()) Fail(failure);
  }

  bool correct() const { return failures_ == 0; }

  /// Every metric with all its digits, then the result line.
  void Print() const {
    for (const auto& [name, metric] : metrics_) {
      std::printf("metric %s=%.17g %s\n", name.c_str(), metric.first,
                  metric.second.c_str());
    }
    std::printf("result: %s attempted=%d failed=%d\n",
                correct() ? "correct" : "INCORRECT", attempted_, failed_);
  }

 private:
  void Fail(const std::string& failure) {
    std::fprintf(stderr, "graphguard_bench: check failed: %s\n",
                 failure.c_str());
    ++failures_;
  }

  bench::BenchReporter* reporter_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  int failures_ = 0;
  int attempted_ = 0;
  int failed_ = 0;
};

std::string StatusFailure(const std::string& what, const status::Status& s) {
  return s.ok() ? "" : what + ": " + s.ToString();
}

/// Runs `setup` at least three times and for at least one second (at
/// most 15 times) and reports the median as `setup_s`, so a set-up of a
/// few milliseconds is measured as steadily as one of seconds. The state
/// the last run leaves behind is what the workload uses.
void MeasureSetup(const std::function<void()>& setup, Report* report) {
  std::vector<double> seconds;
  const obs::StopWatch total;
  while (seconds.size() < 3 ||
         (total.Seconds() < 1.0 && seconds.size() < 15)) {
    const obs::StopWatch watch;
    setup();
    seconds.push_back(watch.Seconds());
    report->Phase("setup", seconds.back() * 1e3);
  }
  report->Metric("setup_s", Percentile(seconds, 50.0), "s");
}

/// Medians, per set-up, of the bench-timed graph layer calls.
struct GraphTimes {
  std::vector<double> generate_ms, save_ms, load_ms;

  void Emit(Report* report) const {
    report->Metric("graph.generate_ms", Percentile(generate_ms, 50.0), "ms");
    report->Metric("graph.save_ms", Percentile(save_ms, 50.0), "ms");
    report->Metric("graph.load_ms", Percentile(load_ms, 50.0), "ms");
  }
};

/// Generates a graph, writes it to `path` and reads it back, timing each
/// step; the workload runs on the loaded copy, as a user's would.
status::StatusOr<graph::Graph> GenerateSaveLoad(
    const std::function<graph::Graph()>& generate, const std::string& path,
    GraphTimes* times) {
  obs::StopWatch watch;
  const graph::Graph g = generate();
  times->generate_ms.push_back(watch.Millis());
  watch.Restart();
  PEEGA_RETURN_IF_ERROR(graph::SaveGraph(g, path), "save graph");
  times->save_ms.push_back(watch.Millis());
  watch.Restart();
  status::StatusOr<graph::Graph> loaded = graph::LoadGraph(path);
  times->load_ms.push_back(watch.Millis());
  return loaded;
}

// ---- Traced runs --------------------------------------------------------

/// Counter deltas over a window of operations.
class CounterWindow {
 public:
  CounterWindow() : before_(obs::SnapshotMetrics()) {}

  /// Delta of counter `name` since construction.
  double Delta(const std::string& name) const {
    const obs::MetricsSnapshot now = obs::SnapshotMetrics();
    const auto after = now.counters.find(name);
    const auto before = before_.counters.find(name);
    const uint64_t a = after == now.counters.end() ? 0 : after->second;
    const uint64_t b = before == before_.counters.end() ? 0 : before->second;
    return static_cast<double>(a - b);
  }

 private:
  obs::MetricsSnapshot before_;
};

/// Reports the counters every compute workload shares, per operation.
void ReportCounters(const CounterWindow& window, double ops,
                    double flips_per_op, Report* report) {
  const auto per_op = [&](const char* counter) {
    return ops > 0 ? window.Delta(counter) / ops : 0.0;
  };
  const double regions = window.Delta("parallel.regions");
  const double refreshes = window.Delta("peega_engine.refreshes");
  const double candidates = window.Delta("attack.edges_scanned") +
                            window.Delta("attack.features_scanned");
  report->Metric("linalg.incremental_flops",
                 per_op("linalg.incremental.flops"), "count");
  report->Metric("linalg.matmul_flops", per_op("linalg.matmul.flops"),
                 "count");
  report->Metric("linalg.spmm_flops", per_op("linalg.spmm.flops"), "count");
  report->Metric("parallel.regions", per_op("parallel.regions"), "count");
  report->Metric("parallel.threads", parallel::NumThreads(), "count");
  report->Metric("parallel.chunks_per_region",
                 regions > 0 ? window.Delta("parallel.chunks") / regions : 0.0,
                 "count");
  report->Metric("attack.edges_scanned", per_op("attack.edges_scanned"),
                 "count");
  report->Metric("attack.features_scanned",
                 per_op("attack.features_scanned"), "count");
  report->Metric("attack.flips_per_mcand",
                 candidates > 0 ? flips_per_op * ops / (candidates / 1e6) : 0.0,
                 "ratio");
  report->Metric("core.refreshes", per_op("peega_engine.refreshes"),
                 "count");
  report->Metric("core.rows_per_refresh",
                 refreshes > 0
                     ? window.Delta("peega_engine.rows_touched") / refreshes
                     : 0.0,
                 "count");
  report->Metric("gnat.epochs", per_op("gnat.epochs"), "count");
}

/// Folds the collected trace into the per-layer metrics, and into one
/// `layer:<layer>` and one `span:<name>` phase (self time) each in the
/// --json report. `wall_ms` is the bench-measured time of the traced work
/// and `ops` the number of operations it covered; layer times are
/// reported per operation.
void FoldLayers(double wall_ms, double ops, Report* report) {
  std::vector<TraceEvent> events;
  std::string error;
  if (!ParseTrace(CaptureTrace(), &events, &error)) {
    report->Check("trace does not parse: " + error);
    return;
  }
  const TraceFold fold = FoldTrace(events);
  const std::map<std::string, double> layers = LayerSelfMs(fold);
  const auto layer_ms = [&](const char* layer) {
    const auto it = layers.find(layer);
    return it == layers.end() || ops <= 0 ? 0.0 : it->second / ops;
  };
  static const std::pair<const char*, const char*> kLayerMetrics[] = {
      {"linalg.incremental", "linalg.incremental_ms"},
      {"linalg.dense", "linalg.dense_ms"},
      {"attack.edge_scan", "attack.edge_scan_ms"},
      {"attack.feature_scan", "attack.feature_scan_ms"},
      {"core.engine", "core.engine_ms"},
      {"core.greedy", "core.greedy_ms"},
      {"core.gnat_views", "core.gnat_views_ms"},
      {"core.gnat_feature_graph", "core.gnat_feature_graph_ms"},
      {"core.gnat_topology_graph", "core.gnat_topology_graph_ms"},
      {"core.gnat_forward", "core.gnat_forward_ms"},
      {"eval", "eval.overhead_ms"},
  };
  for (const auto& [layer, metric] : kLayerMetrics) {
    report->Metric(metric, layer_ms(layer), "ms");
  }
  const uint64_t traced_ops = static_cast<uint64_t>(ops);
  double folded_ms = 0.0;
  for (const auto& [layer, self_ms] : layers) {
    folded_ms += self_ms;
    report->Phase("layer:" + layer, self_ms, traced_ops);
  }
  for (const auto& [name, totals] : fold) {
    report->Phase("span:" + name, totals.self_ms,
                  static_cast<uint64_t>(totals.count));
  }
  // Unattributed: traced time no library span covers, which is the self
  // time of the `bench.op` root span every traced operation runs under.
  const auto bench = layers.find("bench");
  const double unattributed_ms = bench == layers.end() ? 0.0 : bench->second;
  report->Metric("unattributed_frac",
                 wall_ms > 0 ? unattributed_ms / wall_ms : 0.0, "ratio");
  report->Metric("fold.coverage_frac",
                 wall_ms > 0 ? folded_ms / wall_ms : 0.0, "ratio");
  report->Metric("traced_ops", ops, "count");
}

// ---- Compute workloads --------------------------------------------------

/// Runs `op` once unmeasured (pool spin-up, first-touch page faults),
/// then repeatedly until `args.seconds` have passed and at least
/// `min_ops` measured operations ran. With tracing, every second
/// operation runs traced under a `bench.op` root span; the end-to-end
/// metrics come from the untraced ones either way.
void RunOps(const Args& args, int min_ops, double flips_per_op,
            const std::function<void()>& op, Report* report) {
  const obs::StopWatch warmup;
  op();
  report->Phase("warmup", warmup.Millis());
  obs::ClearTrace();
  const CounterWindow counters;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  const obs::StopWatch window;
  const size_t min_untraced = args.trace ? 1 : static_cast<size_t>(min_ops);
  while (window.Seconds() < args.seconds ||
         untraced_ms.size() < min_untraced ||
         (args.trace && traced_ms.empty())) {
    const bool traced = args.trace && untraced_ms.size() > traced_ms.size();
    if (traced) obs::SetTracing(true);
    const obs::StopWatch watch;
    {
      const obs::TraceSpan root("bench.op");
      op();
    }
    const double ms = watch.Millis();
    obs::SetTracing(false);
    (traced ? traced_ms : untraced_ms).push_back(ms);
    report->Phase(traced ? "traced_op" : "op", ms);
  }
  const double ops = static_cast<double>(untraced_ms.size() + traced_ms.size());
  report->Metric("op_p50_ms", Percentile(untraced_ms, 50.0), "ms");
  if (!args.trace) return;
  ReportCounters(counters, ops, flips_per_op, report);
  double traced_total_ms = 0.0;
  for (const double ms : traced_ms) traced_total_ms += ms;
  report->Metric("trace_overhead_frac",
                 Percentile(traced_ms, 50.0) / Percentile(untraced_ms, 50.0) -
                     1.0,
                 "ratio");
  FoldLayers(traced_total_ms, static_cast<double>(traced_ms.size()), report);
}

/// PEEGA (Alg. 1) campaigns on one graph: every repeat must return
/// status OK, the first repeat's flip sequence and objective, and spend
/// the whole budget. With `oracle_check`, the engine's final objective
/// must match PeegaAttack::Objective recomputed through the autograd tape
/// on the densified poisoned graph (only affordable at Cora size).
void RunCampaigns(const Args& args, const graph::Graph& g,
                  const core::PeegaAttack::Options& peega,
                  const attack::AttackOptions& options, bool oracle_check,
                  Report* report) {
  core::PeegaAttack attacker(peega);
  const int budget = attack::ComputeBudget(g, options.perturbation_rate);
  attack::AttackResult first;
  bool have_first = false;
  RunOps(args, /*min_ops=*/3, budget,
         [&] {
           linalg::Rng rng(args.seed);
           attack::AttackResult result = attacker.Attack(g, options, &rng);
           std::string failure = StatusFailure("PEEGA", result.status);
           if (failure.empty() &&
               static_cast<int>(result.flips.size()) != budget) {
             failure = "PEEGA spent " +
                       std::to_string(result.flips.size()) + " of " +
                       std::to_string(budget) + " flips";
           }
           if (!have_first) {
             first = std::move(result);
             have_first = true;
           } else if (failure.empty()) {
             failure = FlipMismatch(first.flips, result.flips);
             if (failure.empty()) {
               failure = ValueMismatch("PEEGA final_objective",
                                       first.final_objective,
                                       result.final_objective, 0.0);
             }
           }
           report->Op(failure);
         },
         report);
  if (oracle_check) {
    const core::PeegaAttack oracle(peega);
    report->Check(ValueMismatch(
        "engine objective vs tape",
        oracle.Objective(g, first.poisoned.adjacency.ToDense(),
                         first.poisoned.features),
        first.final_objective, 1e-6));
  }
  report->Metric("attack.objective", first.final_objective, "score");
}

void RunPeegaCora(const Args& args, Report* report) {
  graph::Graph g;
  GraphTimes times;
  MeasureSetup(
      [&] {
        status::StatusOr<graph::Graph> loaded = GenerateSaveLoad(
            [&] {
              linalg::Rng rng(args.seed);
              return graph::MakeCoraLike(&rng, 5.0);  // n=2500, F=1450
            },
            "cora.txt", &times);
        report->Check(StatusFailure("cora graph", loaded.status()));
        if (loaded.ok()) g = std::move(loaded).value();
      },
      report);
  if (g.num_nodes == 0) return;
  times.Emit(report);
  attack::AttackOptions options;
  options.perturbation_rate = 0.01;
  RunCampaigns(args, g, core::PeegaAttack::Options(), options,
               /*oracle_check=*/true, report);
}

void RunPeegaSbm(const Args& args, Report* report) {
  graph::Graph g;
  GraphTimes times;
  MeasureSetup(
      [&] {
        const obs::StopWatch watch;
        graph::StreamingSbmConfig config;
        config.num_nodes = 100000;
        config.seed = args.seed;
        g = graph::StreamingSbm(config).Materialize();
        times.generate_ms.push_back(watch.Millis());
      },
      report);
  times.Emit(report);
  core::PeegaAttack::Options peega;
  peega.mode = core::PeegaAttack::Mode::kFeaturesOnly;
  attack::AttackOptions options;
  // Budget pinned at 150 flips whatever the edge count.
  options.perturbation_rate = 150.5 / static_cast<double>(g.NumEdges());
  RunCampaigns(args, g, peega, options, /*oracle_check=*/false, report);
}

void RunGnatCora(const Args& args, Report* report) {
  graph::Graph poisoned;
  GraphTimes times;
  MeasureSetup(
      [&] {
        status::StatusOr<graph::Graph> clean = GenerateSaveLoad(
            [&] {
              linalg::Rng rng(args.seed);
              return graph::MakeCoraLike(&rng, 2.0);  // n=1000
            },
            "cora.txt", &times);
        report->Check(StatusFailure("cora graph", clean.status()));
        if (!clean.ok()) return;
        core::PeegaBatchAttack attacker;
        attack::AttackOptions options;
        options.perturbation_rate = 0.05;
        linalg::Rng rng(args.seed);
        attack::AttackResult result = attacker.Attack(*clean, options, &rng);
        report->Check(StatusFailure("poisoning", result.status));
        poisoned = std::move(result.poisoned);
      },
      report);
  if (poisoned.num_nodes == 0) return;
  times.Emit(report);
  // The paper's Cora setting of GNAT (k_t, k_f, k_e).
  core::GnatDefender::Options gnat_options;
  gnat_options.k_t = 2;
  gnat_options.k_f = 10;
  gnat_options.k_e = 10;
  core::GnatDefender gnat(gnat_options);
  eval::PipelineOptions pipeline;
  pipeline.runs = 1;
  pipeline.seed = args.seed;
  // A fixed epoch count: with early stopping the work per run depends on
  // when validation accuracy plateaus, which varies 1.6x across seeds.
  pipeline.train.max_epochs = 60;
  pipeline.train.patience = 0;
  double first_accuracy = -1.0;
  RunOps(args, /*min_ops=*/3, /*flips_per_op=*/0,
         [&] {
           eval::DefenseEvaluation evaluation;
           {
             const obs::TraceSpan span("eval.evaluate_defense");
             evaluation = eval::EvaluateDefense(&gnat, poisoned, pipeline);
           }
           std::string failure = StatusFailure("GNAT", evaluation.status);
           if (failure.empty() && evaluation.ok_runs != 1) {
             failure = "GNAT ok_runs " + std::to_string(evaluation.ok_runs);
           }
           const double accuracy = evaluation.accuracy.mean * 100.0;
           if (first_accuracy < 0.0) {
             first_accuracy = accuracy;
           } else if (failure.empty()) {
             failure = ValueMismatch("GNAT accuracy", first_accuracy,
                                     accuracy, 0.0);
           }
           report->Op(failure);
         },
         report);
  report->Metric("gnat.accuracy_pct", first_accuracy, "percent");
}

// ---- main ---------------------------------------------------------------

int Main(int argc, char** argv) {
  // This driver's --trace is a 0|1 switch, taken before BenchReporter
  // would read it as a trace path; the reporter takes --json.
  const std::string trace = bench::ConsumeFlag("--trace", &argc, argv);
  bench::BenchReporter reporter("graphguard_bench", &argc, argv);
  Args args;
  args.workload = bench::ConsumeFlag("--workload", &argc, argv);
  const std::string seed = bench::ConsumeFlag("--seed", &argc, argv);
  const std::string seconds = bench::ConsumeFlag("--seconds", &argc, argv);
  char* seed_end = nullptr;
  char* seconds_end = nullptr;
  args.seed = std::strtoull(seed.c_str(), &seed_end, 10);
  args.seconds = std::strtod(seconds.c_str(), &seconds_end);
  args.trace = trace == "1";
  if (argc != 1 || args.workload.empty() || seed.empty() || *seed_end != '\0' ||
      seconds.empty() || *seconds_end != '\0' || !(args.seconds > 0.0) ||
      (trace != "0" && trace != "1")) {
    std::fprintf(stderr,
                 "usage: graphguard_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--json <path>]\n");
    return 2;
  }
  const std::map<std::string, std::function<void(Report*)>> workloads = {
      {"peega-cora", [&](Report* r) { RunPeegaCora(args, r); }},
      {"peega-sbm-1e5", [&](Report* r) { RunPeegaSbm(args, r); }},
      {"gnat-cora", [&](Report* r) { RunGnatCora(args, r); }},
  };
  const auto workload = workloads.find(args.workload);
  if (workload == workloads.end()) {
    std::fprintf(stderr, "graphguard_bench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  reporter.Config("workload", args.workload);
  reporter.Config("workload_seed", static_cast<double>(args.seed));
  reporter.Config("seconds", args.seconds);
  reporter.Config("trace", args.trace ? 1.0 : 0.0);
  Report report(&reporter);
  workload->second(&report);
  if (!args.trace) {
    report.Metric("peak_rss_mb",
                  static_cast<double>(bench::PeakRssBytes()) / (1 << 20),
                  "MB");
  }
  report.Print();
  reporter.Finish();
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace repro::ggbench

int main(int argc, char** argv) { return repro::ggbench::Main(argc, argv); }
