// graphguard — command-line front end to the library.
//
//   graphguard generate --dataset cora --scale 1.0 --seed 42 --out g.txt
//   graphguard attack   --in g.txt --out poisoned.txt --attacker peega
//                       --rate 0.1 [--deadline SECONDS] [op fields]
//   graphguard defend   --in poisoned.txt --defender gnat [--runs 3]
//   graphguard inspect  --in g.txt [--clean g_clean.txt]
//   graphguard serve    --socket /tmp/graphguard.sock [--max-queue 64]
//                       [--journal DIR] [--max-attempts 3]
//                       [--retry-backoff-ms 100]
//
// The attack/defend flags are the attack/eval op fields of
// eval/op_schema.h (flag = wire name with '_' -> '-'); `graphguard`
// with no command prints them all with their defaults. Every command
// refuses undeclared flags and numbers that do not parse in full,
// exiting 1 with the flag named.
//
// `defend` prints mean±std test accuracy; `inspect` prints homophily and
// (given a clean reference) the Add/Del x Same/Diff forensics of Fig. 2.
//
// `attack --deadline` caps the wall-clock budget: on expiry the
// best-so-far poisoned graph is still written and the exit stays 0, but
// the status line reports DEADLINE_EXCEEDED. `--checkpoint` makes PEEGA
// and PEEGA-Batch periodically persist their campaign state; re-running
// the same command after an interruption resumes from the file and
// reproduces the uninterrupted flip sequence bit for bit.
//
// The one-shot attack/defend paths run through the stable C ABI
// (capi/graphguard.h) rather than the C++ library directly: the CLI is
// the ABI's first consumer, so any capability it needs the ABI must
// provide — embedders get the same guarantee for free. `serve` starts
// the long-running multi-tenant job server (src/serve; DESIGN.md
// "Serving model & admission control").
#include <cstdio>
#include <string>
#include <vector>

#include "capi/attack_options.h"
#include "capi/graphguard.h"
#include "eval/args.h"
#include "eval/op_schema.h"
#include "eval/stats.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "serve/server.h"
#include "status/status.h"

namespace {

using namespace repro;

// Prints `head` and then `tokens`, wrapped at 72 columns.
void PrintUsage(const std::string& head,
                const std::vector<std::string>& tokens) {
  std::string line = head;
  for (const std::string& token : tokens) {
    if (line.size() + 1 + token.size() > 72) {
      std::fprintf(stderr, "%s\n", line.c_str());
      line = "          ";
    }
    line += " " + token;
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: graphguard <generate|attack|defend|inspect|serve> "
      "[--flags]\n"
      "  generate --dataset cora|citeseer|polblogs|pubmed|blog\n"
      "           [--scale S] [--seed N] --out FILE\n");
  PrintUsage("  attack   --in FILE --out FILE [--deadline SECONDS]",
             eval::FlagUsage<eval::AttackerSpec>());
  PrintUsage("  defend   --in FILE", eval::FlagUsage<eval::EvalSpec>());
  std::fprintf(
      stderr,
      "  inspect  --in FILE [--clean FILE]\n"
      "  serve    [--socket PATH] [--max-queue N] [--journal DIR]\n"
      "           [--max-attempts N] [--retry-backoff-ms MS]\n");
  return 2;
}

int Fail(const status::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int CapiError(gg_ctx* gg) {
  std::fprintf(stderr, "error: %s\n", gg_last_error(gg));
  gg_free(gg);
  return 1;
}

int Generate(const eval::Args& args) {
  if (const status::Status known =
          args.CheckFlags({"dataset", "scale", "seed", "out"});
      !known.ok()) {
    return Fail(known);
  }
  const status::StatusOr<double> scale = args.GetDouble("scale", 1.0);
  if (!scale.ok()) return Fail(scale.status());
  const status::StatusOr<int> seed = args.GetInt("seed", 42);
  if (!seed.ok()) return Fail(seed.status());
  const std::string dataset = args.GetString("dataset", "cora");
  linalg::Rng rng(static_cast<uint64_t>(*seed));
  graph::Graph g;
  if (dataset == "cora") g = graph::MakeCoraLike(&rng, *scale);
  else if (dataset == "citeseer") g = graph::MakeCiteseerLike(&rng, *scale);
  else if (dataset == "polblogs") g = graph::MakePolblogsLike(&rng, *scale);
  else if (dataset == "pubmed") g = graph::MakePubmedLike(&rng, *scale);
  else if (dataset == "blog") g = graph::MakeBlogLike(&rng, *scale);
  else return Usage();
  const std::string out = args.GetString("out");
  if (out.empty()) {
    std::fprintf(stderr, "error: --out is required\n");
    return 1;
  }
  if (const status::Status save = graph::SaveGraph(g, out); !save.ok()) {
    return Fail(save);
  }
  std::printf("wrote %s: %d nodes, %lld edges, homophily %.3f\n",
              out.c_str(), g.num_nodes,
              static_cast<long long>(g.NumEdges()),
              graph::HomophilyRatio(g));
  return 0;
}

int AttackCmd(const eval::Args& args) {
  eval::AttackerSpec spec;
  if (const status::Status read =
          eval::ReadFlags(args, {"in", "out", "deadline"}, &spec);
      !read.ok()) {
    return Fail(read);
  }
  const status::StatusOr<double> deadline = args.GetDouble("deadline", 0.0);
  if (!deadline.ok()) return Fail(deadline.status());
  if (args.Has("deadline") && !(*deadline > 0.0)) {
    return Fail(status::InvalidInput(
        "flag --deadline: must be > 0 seconds, got \"" +
        args.GetString("deadline") + "\""));
  }
  const std::string out = args.GetString("out");
  if (out.empty()) {
    std::fprintf(stderr, "error: --out is required\n");
    return 1;
  }
  gg_ctx* gg = gg_init();
  if (gg == nullptr) {
    std::fprintf(stderr, "error: gg_init failed\n");
    return 1;
  }
  if (gg_load_graph(gg, args.GetString("in").c_str()) != GG_OK) {
    return CapiError(gg);
  }
  gg_attack_options options;
  capi::ToAttackOptions(spec, &options);  // borrows spec's strings
  if (args.Has("deadline")) gg_set_deadline_ms(gg, *deadline * 1000.0);
  const gg_status attacked = gg_attack(gg, &options);
  if (attacked == GG_INVALID_INPUT) {
    // Nothing was attacked (rejected checkpoint, invalid PEEGA option):
    // writing the clean graph out would be misleading.
    return CapiError(gg);
  }
  if (gg_save_graph(gg, out.c_str()) != GG_OK) return CapiError(gg);
  std::printf("%s: %d edge flips, %d feature flips in %.2fs -> %s\n",
              gg_result_name(gg), gg_edge_modifications(gg),
              gg_feature_modifications(gg), gg_elapsed_seconds(gg),
              out.c_str());
  if (attacked != GG_OK) {
    // Best-so-far output: the written graph is valid but the campaign
    // stopped early (deadline, cancellation, numeric fault).
    std::printf("attack-status: %s\n", gg_last_error(gg));
  }
  gg_free(gg);
  return 0;
}

int Defend(const eval::Args& args) {
  eval::EvalSpec spec;
  if (const status::Status read = eval::ReadFlags(args, {"in"}, &spec);
      !read.ok()) {
    return Fail(read);
  }
  gg_ctx* gg = gg_init();
  if (gg == nullptr) {
    std::fprintf(stderr, "error: gg_init failed\n");
    return 1;
  }
  if (gg_load_graph(gg, args.GetString("in").c_str()) != GG_OK) {
    return CapiError(gg);
  }
  gg_eval_result result;
  const gg_status evaluated = gg_eval(gg, spec.defender.c_str(), spec.runs,
                                      spec.seed, &result);
  if (evaluated == GG_INVALID_INPUT) return CapiError(gg);
  const eval::MeanStd accuracy{result.accuracy_mean,
                               result.accuracy_std};
  std::printf("%s on %s: %s test accuracy (%.2fs/run)\n",
              spec.defender.c_str(), gg_graph_name(gg),
              eval::FormatMeanStd(accuracy).c_str(),
              result.mean_train_seconds);
  if (evaluated != GG_OK) {
    std::printf("eval-status: %s\n", gg_last_error(gg));
  }
  gg_free(gg);
  return 0;
}

int Inspect(const eval::Args& args) {
  if (const status::Status known = args.CheckFlags({"in", "clean"});
      !known.ok()) {
    return Fail(known);
  }
  status::StatusOr<graph::Graph> loaded =
      graph::LoadGraph(args.GetString("in"));
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const graph::Graph& g = *loaded;
  std::printf("%s: %d nodes, %lld edges, %d classes, homophily %.3f\n",
              g.name.c_str(), g.num_nodes,
              static_cast<long long>(g.NumEdges()), g.num_classes,
              graph::HomophilyRatio(g));
  const auto sim =
      graph::SummarizeLabelSimilarity(graph::CrossLabelSimilarity(g));
  std::printf("context similarity: intra %.3f, inter %.3f\n", sim.intra,
              sim.inter);
  if (args.Has("clean")) {
    status::StatusOr<graph::Graph> clean_loaded =
        graph::LoadGraph(args.GetString("clean"));
    if (!clean_loaded.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   clean_loaded.status().ToString().c_str());
      return 1;
    }
    const graph::Graph& clean = *clean_loaded;
    const auto diff = graph::ComputeEdgeDiff(clean, g);
    std::printf("vs clean: +same %d, +diff %d, -same %d, -diff %d, "
                "feature edits %lld\n",
                diff.add_same, diff.add_diff, diff.del_same,
                diff.del_diff,
                static_cast<long long>(graph::FeatureDiffCount(clean, g)));
  }
  return 0;
}

int ServeCmd(const eval::Args& args) {
  if (const status::Status known =
          args.CheckFlags({"socket", "max-queue", "journal", "max-attempts",
                           "retry-backoff-ms"});
      !known.ok()) {
    return Fail(known);
  }
  const status::StatusOr<int> max_queue = args.GetInt("max-queue", 64);
  if (!max_queue.ok()) return Fail(max_queue.status());
  const status::StatusOr<int> max_attempts = args.GetInt("max-attempts", 3);
  if (!max_attempts.ok()) return Fail(max_attempts.status());
  const status::StatusOr<double> backoff =
      args.GetDouble("retry-backoff-ms", 100.0);
  if (!backoff.ok()) return Fail(backoff.status());
  serve::ServerOptions options;
  options.socket_path =
      args.GetString("socket", "/tmp/graphguard.sock");
  options.max_queue = *max_queue;
  options.journal_dir = args.GetString("journal", "");
  options.max_attempts = *max_attempts;
  options.retry_backoff_ms = *backoff;
  serve::Server server(options);
  if (const status::Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("graphguard serve: listening on %s (max queue %d)\n",
              options.socket_path.c_str(), options.max_queue);
  if (!options.journal_dir.empty()) {
    const serve::RecoveryInfo& recovery = server.recovery();
    std::printf(
        "graphguard serve: journal %s — recovered %d job(s) from %d "
        "record(s) in %.1fms (%d corrupt skipped, %lld bytes "
        "truncated)\n",
        options.journal_dir.c_str(), recovery.requeued_jobs,
        recovery.replayed_records, recovery.recovery_ms,
        recovery.corrupt_records,
        static_cast<long long>(recovery.truncated_bytes));
    for (const std::string& warning : recovery.warnings) {
      std::fprintf(stderr, "graphguard serve: journal warning: %s\n",
                   warning.c_str());
    }
  }
  std::fflush(stdout);  // the CI smoke job backgrounds this process
  server.Wait();
  std::printf("graphguard serve: drained, exiting\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const eval::Args args = eval::Args::Parse(argc, argv);
  if (args.command() == "generate") return Generate(args);
  if (args.command() == "attack") return AttackCmd(args);
  if (args.command() == "defend") return Defend(args);
  if (args.command() == "inspect") return Inspect(args);
  if (args.command() == "serve") return ServeCmd(args);
  return Usage();
}
