// The C ABI is a shim, not a fork: everything reachable through
// capi/graphguard.h must behave bitwise-identically to the native C++
// API it wraps. These tests drive the same attack through both doors
// and demand the identical flip sequence, objective, and output bytes;
// they also pin the error-code mapping, gg_last_error's contract, the
// cancellation handshake, and the hex-float model round-trip.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "attack/attacker.h"
#include "capi/graphguard.h"
#include "eval/registry.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "linalg/random.h"
#include "op_rejections.h"
#include "status/status.h"

namespace repro {
namespace {

constexpr unsigned kGraphSeed = 20240502;
constexpr uint64_t kAttackSeed = 11;

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "/capi_test_" + tag;
}

// Writes a small cora-like graph to disk; returns its path.
std::string MakeGraphFile(const std::string& tag) {
  linalg::Rng rng(kGraphSeed);
  const graph::Graph g = graph::MakeCoraLike(&rng, 0.1);
  const std::string path = TempPath(tag + ".txt");
  EXPECT_TRUE(graph::SaveGraph(g, path).ok());
  return path;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(CapiAttackTest, BitwiseEqualToNativeApi) {
  const std::string graph_path = MakeGraphFile("bitwise");

  // Native run.
  linalg::Rng rng(kGraphSeed);
  const graph::Graph g = graph::MakeCoraLike(&rng, 0.1);
  eval::AttackerSpec spec;  // defaults match gg_attack_options_init
  auto attacker = eval::MakeAttackerByName(spec);
  ASSERT_NE(attacker, nullptr);
  attack::AttackOptions native_options;
  native_options.perturbation_rate = 0.05;
  linalg::Rng attack_rng(kAttackSeed);
  const attack::AttackResult native =
      attacker->Attack(g, native_options, &attack_rng);
  ASSERT_TRUE(native.status.ok());

  // Same campaign through the ABI.
  gg_ctx* gg = gg_init();
  ASSERT_NE(gg, nullptr);
  ASSERT_EQ(gg_load_graph(gg, graph_path.c_str()), GG_OK);
  gg_attack_options options;
  gg_attack_options_init(&options);
  options.rate = 0.05;
  options.seed = kAttackSeed;
  ASSERT_EQ(gg_attack(gg, &options), GG_OK) << gg_last_error(gg);

  ASSERT_EQ(gg_num_flips(gg), static_cast<int32_t>(native.flips.size()));
  for (int32_t i = 0; i < gg_num_flips(gg); ++i) {
    gg_flip flip;
    ASSERT_EQ(gg_get_flip(gg, i, &flip), GG_OK);
    EXPECT_EQ(flip.is_feature != 0,
              native.flips[static_cast<size_t>(i)].is_feature);
    EXPECT_EQ(flip.a, native.flips[static_cast<size_t>(i)].a);
    EXPECT_EQ(flip.b, native.flips[static_cast<size_t>(i)].b);
  }
  EXPECT_EQ(gg_edge_modifications(gg), native.edge_modifications);
  EXPECT_EQ(gg_feature_modifications(gg), native.feature_modifications);
  // Bitwise: the shim must not perturb the objective arithmetic at all.
  EXPECT_EQ(gg_final_objective(gg), native.final_objective);
  EXPECT_STREQ(gg_result_name(gg), attacker->name().c_str());

  // The poisoned graphs serialize to identical bytes.
  const std::string abi_out = TempPath("bitwise_abi_out.txt");
  const std::string native_out = TempPath("bitwise_native_out.txt");
  ASSERT_EQ(gg_save_graph(gg, abi_out.c_str()), GG_OK);
  ASSERT_TRUE(graph::SaveGraph(native.poisoned, native_out).ok());
  EXPECT_EQ(ReadFileBytes(abi_out), ReadFileBytes(native_out));
  gg_free(gg);
}

TEST(CapiErrorTest, CodesMapAndLastErrorCarriesContext) {
  gg_ctx* gg = gg_init();
  ASSERT_NE(gg, nullptr);
  EXPECT_STREQ(gg_last_error(gg), "");

  // IO failure surfaces as GG_IO_ERROR and names the path.
  EXPECT_EQ(gg_load_graph(gg, "/nonexistent/graphguard/g.txt"),
            GG_IO_ERROR);
  const std::string io_message = gg_last_error(gg);
  EXPECT_NE(io_message.find("IO_ERROR"), std::string::npos) << io_message;
  EXPECT_NE(io_message.find("/nonexistent/graphguard/g.txt"),
            std::string::npos)
      << io_message;

  // Operating without a graph is invalid input, not a crash.
  gg_attack_options options;
  gg_attack_options_init(&options);
  EXPECT_EQ(gg_attack(gg, &options), GG_INVALID_INPUT);

  // Unknown names are invalid input with the name quoted back.
  const std::string graph_path = MakeGraphFile("errors");
  ASSERT_EQ(gg_load_graph(gg, graph_path.c_str()), GG_OK);
  EXPECT_STREQ(gg_last_error(gg), "");  // success clears the slot
  options.attacker = "definitely-not-an-attacker";
  EXPECT_EQ(gg_attack(gg, &options), GG_INVALID_INPUT);
  EXPECT_NE(std::string(gg_last_error(gg))
                .find("definitely-not-an-attacker"),
            std::string::npos);

  // NULL arguments are rejected, including a NULL context.
  EXPECT_EQ(gg_attack(gg, nullptr), GG_INVALID_INPUT);
  EXPECT_EQ(gg_attack(nullptr, &options), GG_INVALID_INPUT);
  EXPECT_STREQ(gg_last_error(nullptr), "");
  EXPECT_STREQ(gg_status_name(GG_DEADLINE_EXCEEDED), "DEADLINE_EXCEEDED");
  EXPECT_STREQ(gg_status_name(GG_RESOURCE_EXHAUSTED),
               "RESOURCE_EXHAUSTED");

  // Transient/permanent partition mirrors status::IsTransient, so
  // embedders can implement the same retry policy the job server uses.
  EXPECT_EQ(gg_status_is_transient(GG_NUMERIC_FAULT), 1);
  EXPECT_EQ(gg_status_is_transient(GG_IO_ERROR), 1);
  EXPECT_EQ(gg_status_is_transient(GG_RESOURCE_EXHAUSTED), 1);
  EXPECT_EQ(gg_status_is_transient(GG_UNAVAILABLE), 1);
  EXPECT_EQ(gg_status_is_transient(GG_OK), 0);
  EXPECT_EQ(gg_status_is_transient(GG_INVALID_INPUT), 0);
  EXPECT_EQ(gg_status_is_transient(GG_DEADLINE_EXCEEDED), 0);
  EXPECT_EQ(gg_status_is_transient(GG_CANCELLED), 0);
  EXPECT_EQ(gg_status_is_transient(GG_INTERNAL), 0);
  gg_free(gg);
}

// A PEEGA option the campaign cannot run with is invalid input, not an
// abort, and the context's graph stays exactly as loaded.
TEST(CapiErrorTest, InvalidPeegaOptionLeavesGraphUnchanged) {
  gg_ctx* gg = gg_init();
  ASSERT_NE(gg, nullptr);
  const std::string graph_path = MakeGraphFile("invalid_option");
  ASSERT_EQ(gg_load_graph(gg, graph_path.c_str()), GG_OK);
  const std::string before = TempPath("invalid_option_before.txt");
  const std::string after = TempPath("invalid_option_after.txt");
  ASSERT_EQ(gg_save_graph(gg, before.c_str()), GG_OK);

  gg_attack_options options;
  gg_attack_options_init(&options);
  options.layers = 0;
  EXPECT_EQ(gg_attack(gg, &options), GG_INVALID_INPUT);
  EXPECT_NE(std::string(gg_last_error(gg)).find("layers = 0"),
            std::string::npos)
      << gg_last_error(gg);
  EXPECT_EQ(gg_num_flips(gg), 0);
  ASSERT_EQ(gg_save_graph(gg, after.c_str()), GG_OK);
  EXPECT_EQ(ReadFileBytes(before), ReadFileBytes(after));
  gg_free(gg);
  std::remove(before.c_str());
  std::remove(after.c_str());
  std::remove(graph_path.c_str());
}

TEST(CapiCancelTest, PendingCancelStopsTheNextAttack) {
  const std::string graph_path = MakeGraphFile("cancel");
  gg_ctx* gg = gg_init();
  ASSERT_NE(gg, nullptr);
  ASSERT_EQ(gg_load_graph(gg, graph_path.c_str()), GG_OK);
  // No operation is in flight, so the cancel arms for the next one —
  // this is the no-race half of the gg_cancel contract; the in-flight
  // half is exercised end-to-end by the serve cancel op.
  ASSERT_EQ(gg_cancel(gg), GG_OK);
  gg_attack_options options;
  gg_attack_options_init(&options);
  options.seed = kAttackSeed;
  EXPECT_EQ(gg_attack(gg, &options), GG_CANCELLED);
  EXPECT_NE(std::string(gg_last_error(gg)).find("CANCELLED"),
            std::string::npos);
  // Cancelled at the first check: the best-so-far prefix is empty.
  EXPECT_EQ(gg_num_flips(gg), 0);
  // The pending cancel was consumed; the same campaign now completes.
  EXPECT_EQ(gg_attack(gg, &options), GG_OK) << gg_last_error(gg);
  EXPECT_GT(gg_num_flips(gg), 0);
  gg_free(gg);
}

TEST(CapiModelTest, HexFloatRoundTripIsBitwise) {
  const std::string graph_path = MakeGraphFile("model");
  gg_ctx* gg = gg_init();
  ASSERT_NE(gg, nullptr);
  ASSERT_EQ(gg_load_graph(gg, graph_path.c_str()), GG_OK);
  ASSERT_EQ(gg_assign_splits(gg, 0.1, 0.1, 7), GG_OK);
  ASSERT_EQ(gg_train_model(gg, 16, 2, 3), GG_OK) << gg_last_error(gg);
  double trained_accuracy = -1.0;
  ASSERT_EQ(gg_model_accuracy(gg, &trained_accuracy), GG_OK);

  const std::string model_path = TempPath("model.ggm");
  ASSERT_EQ(gg_save_model(gg, model_path.c_str()), GG_OK);

  // Reload into a fresh context over the same graph: predictions (and
  // hence accuracy) must match exactly, and save->load->save must
  // reproduce the model file byte for byte.
  gg_ctx* gg2 = gg_init();
  ASSERT_NE(gg2, nullptr);
  ASSERT_EQ(gg_load_graph(gg2, graph_path.c_str()), GG_OK);
  ASSERT_EQ(gg_assign_splits(gg2, 0.1, 0.1, 7), GG_OK);
  ASSERT_EQ(gg_load_model(gg2, model_path.c_str()), GG_OK)
      << gg_last_error(gg2);
  double reloaded_accuracy = -2.0;
  ASSERT_EQ(gg_model_accuracy(gg2, &reloaded_accuracy), GG_OK);
  EXPECT_EQ(trained_accuracy, reloaded_accuracy);

  const std::string resaved_path = TempPath("model_resaved.ggm");
  ASSERT_EQ(gg_save_model(gg2, resaved_path.c_str()), GG_OK);
  EXPECT_EQ(ReadFileBytes(model_path), ReadFileBytes(resaved_path));
  gg_free(gg2);
  gg_free(gg);
}

// A model file is outside input: non-finite weights and dims the file
// is too small to back are refused, naming what and where, before the
// model is allocated or installed.
TEST(CapiModelTest, LoadRejectsNonFiniteWeightsAndUnbackedDims) {
  const std::string header = "GGMODEL 1\n2 2 1 1 0\n1\nP 2 2\n";
  const struct {
    const char* name;
    std::string contents;
    gg_status code;
    const char* names;
  } rows[] = {
      {"valid", header + "0x1p+0 -0x1p-1 0 1.5\n", GG_OK, ""},
      {"nan", header + "0x1p+0 nan 0 1.5\n", GG_INVALID_INPUT,
       ":line 5: parameter 0 weight 1"},
      {"inf", header + "0x1p+0 0 -inf 1.5\n", GG_INVALID_INPUT,
       ":line 5: parameter 0 weight 2"},
      {"overflow", header + "1e39 0 0 0\n", GG_INVALID_INPUT,
       ":line 5: parameter 0 weight 0"},
      {"dims", "GGMODEL 1\n100000 7 100000 2 1\n4\n", GG_INVALID_INPUT,
       ":line 2: the dims need more weights"},
      {"layers", "GGMODEL 1\n1 1 1 2000000000 0\n1\n", GG_INVALID_INPUT,
       ":line 2: the dims need more weights"},
      {"bias", "GGMODEL 1\n2 2 1 1 7\n1\n", GG_INVALID_INPUT,
       ":line 2: bias 7 out of range"},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.name);
    const std::string path = TempPath(std::string("load_") + row.name);
    {
      std::ofstream out(path, std::ios::binary);
      out << row.contents;
    }
    gg_ctx* gg = gg_init();
    ASSERT_NE(gg, nullptr);
    EXPECT_EQ(gg_load_model(gg, path.c_str()), row.code) << gg_last_error(gg);
    EXPECT_NE(std::string(gg_last_error(gg)).find(row.names),
              std::string::npos)
        << gg_last_error(gg);
    // A refused file leaves no model behind.
    double accuracy = 0.0;
    if (row.code != GG_OK) {
      EXPECT_NE(std::string(gg_last_error(gg)).find(path), std::string::npos);
      EXPECT_EQ(gg_model_accuracy(gg, &accuracy), GG_INVALID_INPUT);
    }
    gg_free(gg);
    std::remove(path.c_str());
  }
}

TEST(CapiCsrTest, ValidatesAndInstallsCallerBuffers) {
  gg_ctx* gg = gg_init();
  ASSERT_NE(gg, nullptr);

  // A 3-node path graph 0-1-2 (symmetric, no self-loops).
  const int64_t row_ptr[] = {0, 1, 3, 4};
  const int32_t col_idx[] = {1, 0, 2, 1};
  const float features[] = {1.0f, 0.0f, 0.0f, 1.0f, 1.0f, 1.0f};
  const int32_t labels[] = {0, 1, 0};
  ASSERT_EQ(gg_set_graph_csr(gg, 3, 2, row_ptr, col_idx, 2, features,
                             labels),
            GG_OK)
      << gg_last_error(gg);
  EXPECT_EQ(gg_num_nodes(gg), 3);
  EXPECT_EQ(gg_num_edges(gg), 2);  // undirected edge count

  // Asymmetric adjacency: 0->1 without 1->0.
  const int64_t asym_row_ptr[] = {0, 1, 1, 1};
  const int32_t asym_col_idx[] = {1};
  EXPECT_EQ(gg_set_graph_csr(gg, 3, 2, asym_row_ptr, asym_col_idx, 0,
                             nullptr, labels),
            GG_INVALID_INPUT);

  // Decreasing row_ptr.
  const int64_t bad_row_ptr[] = {0, 2, 1, 4};
  EXPECT_EQ(gg_set_graph_csr(gg, 3, 2, bad_row_ptr, col_idx, 0, nullptr,
                             labels),
            GG_INVALID_INPUT);

  // Self-loop.
  const int64_t loop_row_ptr[] = {0, 1, 1, 1};
  const int32_t loop_col_idx[] = {0};
  EXPECT_EQ(gg_set_graph_csr(gg, 3, 2, loop_row_ptr, loop_col_idx, 0,
                             nullptr, labels),
            GG_INVALID_INPUT);

  // Column out of range.
  const int64_t oob_row_ptr[] = {0, 1, 1, 1};
  const int32_t oob_col_idx[] = {5};
  EXPECT_EQ(gg_set_graph_csr(gg, 3, 2, oob_row_ptr, oob_col_idx, 0,
                             nullptr, labels),
            GG_INVALID_INPUT);

  // Duplicate column: 0-1 listed twice would sum to weight 2.
  const int64_t dup_row_ptr[] = {0, 2, 4, 4};
  const int32_t dup_col_idx[] = {1, 1, 0, 0};
  EXPECT_EQ(gg_set_graph_csr(gg, 3, 2, dup_row_ptr, dup_col_idx, 0,
                             nullptr, labels),
            GG_INVALID_INPUT);
  EXPECT_STREQ(gg_last_error(gg),
               "gg_set_graph_csr: duplicate column 1 in row 0");

  // Negative row_ptr[num_nodes]: rejected before it sizes an allocation.
  const int64_t neg_row_ptr[] = {0, 1, 1, -1};
  EXPECT_EQ(gg_set_graph_csr(gg, 3, 2, neg_row_ptr, col_idx, 0, nullptr,
                             labels),
            GG_INVALID_INPUT);
  EXPECT_STREQ(gg_last_error(gg),
               "gg_set_graph_csr: row_ptr decreases at row 2");

  // A failed install leaves the previous (valid) graph in place.
  EXPECT_EQ(gg_num_nodes(gg), 3);
  gg_free(gg);
}

TEST(CapiCsrTest, RejectsNonFiniteFeaturesNamingNodeAndColumn) {
  gg_ctx* gg = gg_init();
  ASSERT_NE(gg, nullptr);
  const int64_t row_ptr[] = {0, 1, 3, 4};
  const int32_t col_idx[] = {1, 0, 2, 1};
  const int32_t labels[] = {0, 1, 0};
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const struct {
    const char* name;
    float features[6];
    const char* error;
  } cases[] = {
      {"NaN", {1.0f, 0.0f, 0.0f, nan, 1.0f, 1.0f},
       "gg_set_graph_csr: feature of node 1 column 1 is not finite"},
      {"Inf", {1.0f, 0.0f, 0.0f, 1.0f, -inf, 1.0f},
       "gg_set_graph_csr: feature of node 2 column 0 is not finite"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(gg_set_graph_csr(gg, 3, 2, row_ptr, col_idx, 2, c.features,
                               labels),
              GG_INVALID_INPUT);
    EXPECT_STREQ(gg_last_error(gg), c.error);
    EXPECT_EQ(gg_num_nodes(gg), 0);  // nothing installed
  }
  gg_free(gg);
}

// Features are binary: the graph file keeps only the ones, so any other
// finite value is refused where it enters, naming the first bad cell.
TEST(CapiCsrTest, RejectsNonBinaryFeaturesNamingTheFirstBadCell) {
  gg_ctx* gg = gg_init();
  ASSERT_NE(gg, nullptr);
  const int64_t row_ptr[] = {0, 1, 3, 4};
  const int32_t col_idx[] = {1, 0, 2, 1};
  const int32_t labels[] = {0, 1, 0};
  const float mixed[] = {0.3f, 0.7f, 2.5f, -1.0f, 0.0f, 0.5f};
  EXPECT_EQ(gg_set_graph_csr(gg, 3, 2, row_ptr, col_idx, 2, mixed, labels),
            GG_INVALID_INPUT);
  EXPECT_STREQ(gg_last_error(gg),
               "gg_set_graph_csr: feature of node 0 column 0 is not 0 or 1");
  EXPECT_EQ(gg_num_nodes(gg), 0);  // nothing installed

  // Each of those values alone in an otherwise binary matrix.
  const float binary[] = {1.0f, 0.0f, 0.0f, 1.0f, 1.0f, 1.0f};
  for (int cell = 0; cell < 6; ++cell) {
    if (mixed[cell] == 0.0f) continue;
    float features[6];
    std::copy(binary, binary + 6, features);
    features[cell] = mixed[cell];
    SCOPED_TRACE("value " + std::to_string(mixed[cell]));
    EXPECT_EQ(gg_set_graph_csr(gg, 3, 2, row_ptr, col_idx, 2, features,
                               labels),
              GG_INVALID_INPUT);
    EXPECT_EQ(gg_last_error(gg),
              "gg_set_graph_csr: feature of node " + std::to_string(cell / 2) +
                  " column " + std::to_string(cell % 2) + " is not 0 or 1");
    EXPECT_EQ(gg_num_nodes(gg), 0);
  }
  // -0 is 0.
  const float signed_zero[] = {1.0f, -0.0f, 0.0f, 1.0f, 1.0f, 1.0f};
  EXPECT_EQ(gg_set_graph_csr(gg, 3, 2, row_ptr, col_idx, 2, signed_zero,
                             labels),
            GG_OK)
      << gg_last_error(gg);
  gg_free(gg);
}

// A binary graph set through the ABI and saved by it loads back through
// the native reader with the same features, adjacency and labels.
TEST(CapiCsrTest, BinaryGraphSurvivesSaveAndNativeLoad) {
  linalg::Rng rng(kGraphSeed);
  const graph::Graph g = graph::MakeCoraLike(&rng, 0.1);
  const std::vector<int64_t>& row_ptr = g.adjacency.row_ptr();
  const std::vector<int32_t> col_idx(g.adjacency.col_idx().begin(),
                                     g.adjacency.col_idx().end());
  const std::vector<int32_t> labels(g.labels.begin(), g.labels.end());
  gg_ctx* gg = gg_init();
  ASSERT_NE(gg, nullptr);
  ASSERT_EQ(gg_set_graph_csr(gg, g.num_nodes, g.num_classes, row_ptr.data(),
                             col_idx.data(), g.features.cols(),
                             g.features.data(), labels.data()),
            GG_OK)
      << gg_last_error(gg);
  const std::string path = TempPath("csr_roundtrip.txt");
  ASSERT_EQ(gg_save_graph(gg, path.c_str()), GG_OK) << gg_last_error(gg);
  gg_free(gg);

  status::StatusOr<graph::Graph> loaded = graph::LoadGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_nodes, g.num_nodes);
  EXPECT_EQ(loaded->num_classes, g.num_classes);
  EXPECT_EQ(loaded->labels, g.labels);
  EXPECT_EQ(loaded->adjacency.row_ptr(), g.adjacency.row_ptr());
  EXPECT_EQ(loaded->adjacency.col_idx(), g.adjacency.col_idx());
  EXPECT_EQ(loaded->adjacency.values(), g.adjacency.values());
  ASSERT_EQ(loaded->features.rows(), g.features.rows());
  ASSERT_EQ(loaded->features.cols(), g.features.cols());
  EXPECT_TRUE(std::equal(g.features.data(),
                         g.features.data() + g.features.size(),
                         loaded->features.data()));
  std::remove(path.c_str());
}

TEST(CapiDeadlineTest, TinyBudgetDegradesNotHangs) {
  const std::string graph_path = MakeGraphFile("deadline");
  gg_ctx* gg = gg_init();
  ASSERT_NE(gg, nullptr);
  ASSERT_EQ(gg_load_graph(gg, graph_path.c_str()), GG_OK);
  // An already-expired budget: the attack must return promptly with the
  // best-so-far prefix, never hang or abort.
  ASSERT_EQ(gg_set_deadline_ms(gg, 1e-9), GG_OK);
  // NaN is neither a budget nor "no budget": refused, budget kept.
  EXPECT_EQ(gg_set_deadline_ms(gg, std::nan("")), GG_INVALID_INPUT);
  EXPECT_STREQ(gg_last_error(gg), "gg_set_deadline_ms: ms is NaN");
  gg_attack_options options;
  gg_attack_options_init(&options);
  const gg_status rc = gg_attack(gg, &options);
  EXPECT_EQ(rc, GG_DEADLINE_EXCEEDED) << gg_status_name(rc);
  // Removing the budget restores normal completion.
  ASSERT_EQ(gg_set_deadline_ms(gg, 0.0), GG_OK);
  EXPECT_EQ(gg_attack(gg, &options), GG_OK) << gg_last_error(gg);
  gg_free(gg);
}

TEST(CapiAttackTest, OptionsInitCopiesEvalDefaults) {
  const eval::AttackerSpec spec;
  gg_attack_options options;
  gg_attack_options_init(&options);
  EXPECT_EQ(std::string(options.attacker), spec.name);
  EXPECT_EQ(options.rate, spec.rate);
  EXPECT_EQ(options.feature_cost, spec.feature_cost);
  EXPECT_EQ(options.lambda, spec.lambda);
  EXPECT_EQ(options.norm_p, spec.norm_p);
  EXPECT_EQ(options.layers, spec.layers);
  EXPECT_EQ(options.batch_size, spec.batch_size);
  EXPECT_EQ(std::string(options.mode), spec.mode);
  EXPECT_EQ(options.checkpoint_path, nullptr);  // "" = no checkpointing
  EXPECT_EQ(options.checkpoint_every, spec.checkpoint_every);
  EXPECT_EQ(options.seed, spec.seed);
}

// The shared rejection table through the ABI: every row the C types
// can carry is INVALID_INPUT naming the field, before anything runs, so
// the context's graph stays byte-identical.
TEST(CapiErrorTest, RejectionTableRowsLeaveGraphUnchanged) {
  gg_ctx* gg = gg_init();
  ASSERT_NE(gg, nullptr);
  const std::string graph_path = MakeGraphFile("rejections");
  ASSERT_EQ(gg_load_graph(gg, graph_path.c_str()), GG_OK);
  const std::string before = TempPath("rejections_before.txt");
  const std::string after = TempPath("rejections_after.txt");
  ASSERT_EQ(gg_save_graph(gg, before.c_str()), GG_OK);

  for (const RejectionRow& row : RejectionTable()) {
    if (!row.abi) continue;
    const std::string field = row.field;
    SCOPED_TRACE(field + " = " + row.text);
    gg_status rc = GG_OK;
    if (std::string(row.op) == "eval") {
      gg_eval_result result;
      rc = gg_eval(gg, "gcn", std::atoi(row.text), 42, &result);
    } else {
      gg_attack_options options;
      gg_attack_options_init(&options);
      if (field == "rate") {
        options.rate = std::strtod(row.text, nullptr);
      } else if (field == "feature_cost") {
        options.feature_cost = std::strtod(row.text, nullptr);
      } else if (field == "mode") {
        options.mode = row.text;
      } else if (field == "seed") {
        options.seed =
            static_cast<uint64_t>(std::strtoll(row.text, nullptr, 10));
      } else {
        FAIL() << "no ABI member for " << field;
      }
      rc = gg_attack(gg, &options);
    }
    EXPECT_EQ(rc, GG_INVALID_INPUT) << gg_status_name(rc);
    EXPECT_NE(std::string(gg_last_error(gg)).find("\"" + field + "\""),
              std::string::npos)
        << gg_last_error(gg);
    EXPECT_EQ(gg_num_flips(gg), 0);
  }
  ASSERT_EQ(gg_save_graph(gg, after.c_str()), GG_OK);
  EXPECT_EQ(ReadFileBytes(before), ReadFileBytes(after));
  gg_free(gg);
  std::remove(before.c_str());
  std::remove(after.c_str());
  std::remove(graph_path.c_str());
}

}  // namespace
}  // namespace repro
