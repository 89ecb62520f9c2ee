// graphguard — command-line front end to the library.
//
//   graphguard generate --dataset cora --scale 1.0 --seed 42 --out g.txt
//   graphguard attack   --in g.txt --out poisoned.txt --attacker peega
//                       --rate 0.1 [--lambda 0.01 --p 2 --layers 2]
//                       [--batch 16]
//                       [--deadline SECONDS] [--checkpoint FILE
//                        --checkpoint-every K]
//   graphguard defend   --in poisoned.txt --defender gnat [--runs 3]
//   graphguard inspect  --in g.txt [--clean g_clean.txt]
//   graphguard serve    --socket /tmp/graphguard.sock [--max-queue 64]
//                       [--journal DIR] [--max-attempts 3]
//                       [--retry-backoff-ms 100]
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

#include "capi/graphguard.h"
#include "eval/args.h"
#include "eval/stats.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "serve/server.h"
#include "status/status.h"

namespace {

using namespace repro;

int Usage() {
  std::fprintf(
      stderr,
      "usage: graphguard <generate|attack|defend|inspect|serve> "
      "[--flags]\n"
      "  generate --dataset cora|citeseer|polblogs|pubmed|blog\n"
      "           [--scale S] [--seed N] --out FILE\n"
      "  attack   --in FILE --out FILE\n"
      "           [--attacker peega|peega-batch|metattack|pgd|minmax|\n"
      "            gf|dice|random] [--rate R] [--lambda L] [--p P]\n"
      "           [--layers K] [--mode both|tm|fp] [--seed N]\n"
      "           [--batch K] (peega-batch: flips per gradient pass)\n"
      "           [--deadline SECONDS]\n"
      "           [--checkpoint FILE] [--checkpoint-every K]\n"
      "  defend   --in FILE [--defender gnat|gcn|gat|jaccard|svd|rgcn|\n"
      "            prognn|simpgcn|gnnguard] [--runs N] [--seed N]\n"
      "  inspect  --in FILE [--clean FILE]\n"
      "  serve    [--socket PATH] [--max-queue N] [--journal DIR]\n"
      "           [--max-attempts N] [--retry-backoff-ms MS]\n");
  return 2;
}

int CapiError(gg_ctx* gg) {
  std::fprintf(stderr, "error: %s\n", gg_last_error(gg));
  gg_free(gg);
  return 1;
}

int Generate(const eval::Args& args) {
  const std::string dataset = args.GetString("dataset", "cora");
  const double scale = args.GetDouble("scale", 1.0);
  linalg::Rng rng(static_cast<uint64_t>(args.GetInt("seed", 42)));
  graph::Graph g;
  if (dataset == "cora") g = graph::MakeCoraLike(&rng, scale);
  else if (dataset == "citeseer") g = graph::MakeCiteseerLike(&rng, scale);
  else if (dataset == "polblogs") g = graph::MakePolblogsLike(&rng, scale);
  else if (dataset == "pubmed") g = graph::MakePubmedLike(&rng, scale);
  else if (dataset == "blog") g = graph::MakeBlogLike(&rng, scale);
  else return Usage();
  const std::string out = args.GetString("out");
  if (out.empty()) {
    std::fprintf(stderr, "error: --out is required\n");
    return 1;
  }
  if (const status::Status save = graph::SaveGraph(g, out); !save.ok()) {
    std::fprintf(stderr, "error: %s\n", save.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %d nodes, %lld edges, homophily %.3f\n",
              out.c_str(), g.num_nodes,
              static_cast<long long>(g.NumEdges()),
              graph::HomophilyRatio(g));
  return 0;
}

int AttackCmd(const eval::Args& args) {
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
  // The option strings must outlive the gg_attack call.
  const std::string attacker = args.GetString("attacker", "peega");
  const std::string mode = args.GetString("mode", "both");
  const std::string checkpoint = args.GetString("checkpoint", "");
  gg_attack_options options;
  gg_attack_options_init(&options);
  options.attacker = attacker.c_str();
  options.rate = args.GetDouble("rate", 0.1);
  options.lambda = args.GetDouble("lambda", 0.01);
  options.norm_p = args.GetInt("p", 2);
  options.layers = args.GetInt("layers", 2);
  options.batch_size = args.GetInt("batch", 16);
  options.mode = mode.c_str();
  options.checkpoint_path = checkpoint.empty() ? nullptr
                                               : checkpoint.c_str();
  options.checkpoint_every = args.GetInt("checkpoint-every", 16);
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const double deadline = args.GetDouble("deadline", 0.0);
  if (deadline > 0.0) gg_set_deadline_ms(gg, deadline * 1000.0);
  const gg_status attacked = gg_attack(gg, &options);
  if (attacked == GG_INVALID_INPUT) {
    // Nothing was attacked (unknown attacker, rejected checkpoint):
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
  gg_ctx* gg = gg_init();
  if (gg == nullptr) {
    std::fprintf(stderr, "error: gg_init failed\n");
    return 1;
  }
  if (gg_load_graph(gg, args.GetString("in").c_str()) != GG_OK) {
    return CapiError(gg);
  }
  const std::string defender = args.GetString("defender", "gnat");
  gg_eval_result result;
  const gg_status evaluated = gg_eval(
      gg, defender.c_str(), args.GetInt("runs", 3),
      static_cast<uint64_t>(args.GetInt("seed", 42)), &result);
  if (evaluated == GG_INVALID_INPUT) return CapiError(gg);
  const eval::MeanStd accuracy{result.accuracy_mean,
                               result.accuracy_std};
  std::printf("%s on %s: %s test accuracy (%.2fs/run)\n",
              defender.c_str(), gg_graph_name(gg),
              eval::FormatMeanStd(accuracy).c_str(),
              result.mean_train_seconds);
  if (evaluated != GG_OK) {
    std::printf("eval-status: %s\n", gg_last_error(gg));
  }
  gg_free(gg);
  return 0;
}

int Inspect(const eval::Args& args) {
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
  serve::ServerOptions options;
  options.socket_path =
      args.GetString("socket", "/tmp/graphguard.sock");
  options.max_queue = args.GetInt("max-queue", 64);
  options.journal_dir = args.GetString("journal", "");
  options.max_attempts = args.GetInt("max-attempts", 3);
  options.retry_backoff_ms = args.GetDouble("retry-backoff-ms", 100.0);
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
