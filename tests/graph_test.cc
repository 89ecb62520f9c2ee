#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "graph/streaming_sbm.h"
#include "linalg/ops.h"
#include "parallel/thread_pool.h"

namespace repro::graph {
namespace {

using linalg::Matrix;
using linalg::Rng;
using linalg::SparseMatrix;

Graph TinyPathGraph() {
  // 0 - 1 - 2 - 3, labels {0, 0, 1, 1}, one feature per class.
  Graph g;
  g.num_nodes = 4;
  g.num_classes = 2;
  g.adjacency = AdjacencyFromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  g.features = Matrix::FromRows({{1, 0}, {1, 0}, {0, 1}, {0, 1}});
  g.labels = {0, 0, 1, 1};
  g.train_nodes = {0, 3};
  g.val_nodes = {1};
  g.test_nodes = {2};
  return g;
}

TEST(GraphTest, NeighborsAndEdges) {
  const Graph g = TinyPathGraph();
  EXPECT_EQ(g.NumEdges(), 3);
  EXPECT_EQ(g.Neighbors(1), (std::vector<int>{0, 2}));
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_FALSE(g.HasEdge(0, 3));
  const auto edges = g.EdgeList();
  EXPECT_EQ(edges.size(), 3u);
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
}

TEST(GraphTest, OneHotLabels) {
  const Graph g = TinyPathGraph();
  const Matrix y = g.OneHotLabels();
  EXPECT_FLOAT_EQ(y(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(y(2, 1), 1.0f);
  EXPECT_FLOAT_EQ(y(2, 0), 0.0f);
}

TEST(GraphTest, NodeMask) {
  const Graph g = TinyPathGraph();
  const std::vector<float> mask = g.NodeMask({0, 2});
  EXPECT_FLOAT_EQ(mask[0], 1.0f);
  EXPECT_FLOAT_EQ(mask[1], 0.0f);
  EXPECT_FLOAT_EQ(mask[2], 1.0f);
}

TEST(GraphTest, CheckInvariantsAcceptsValidGraph) {
  TinyPathGraph().CheckInvariants();
}

TEST(GraphTest, WithAdjacencyKeepsOtherFields) {
  const Graph g = TinyPathGraph();
  const Graph g2 = g.WithAdjacency(AdjacencyFromEdges(4, {{0, 3}}));
  EXPECT_EQ(g2.num_nodes, 4);
  EXPECT_EQ(g2.NumEdges(), 1);
  EXPECT_EQ(g2.labels, g.labels);
  EXPECT_LT(linalg::MaxAbsDiff(g2.features, g.features), 1e-6f);
}

void ExpectSameCsr(const SparseMatrix& a, const SparseMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(a.row_ptr(), b.row_ptr());
  EXPECT_EQ(a.col_idx(), b.col_idx());
  EXPECT_EQ(a.values(), b.values());
}

TEST(GraphTest, WithAdjacencyAndFeaturesReplacesBothKeepsTheRest) {
  Graph g = TinyPathGraph();
  g.name = "path";
  const SparseMatrix adjacency = AdjacencyFromEdges(4, {{0, 3}});
  const Matrix features = Matrix::FromRows({{0, 1}, {0, 1}, {1, 0}, {1, 0}});
  const Graph g2 = g.WithAdjacencyAndFeatures(adjacency, features);
  ExpectSameCsr(g2.adjacency, adjacency);
  EXPECT_EQ(linalg::MaxAbsDiff(g2.features, features), 0.0f);
  EXPECT_EQ(g2.num_nodes, g.num_nodes);
  EXPECT_EQ(g2.num_classes, g.num_classes);
  EXPECT_EQ(g2.labels, g.labels);
  EXPECT_EQ(g2.train_nodes, g.train_nodes);
  EXPECT_EQ(g2.val_nodes, g.val_nodes);
  EXPECT_EQ(g2.test_nodes, g.test_nodes);
  EXPECT_EQ(g2.name, g.name);
}

TEST(CsrFlipTest, FlipEdgeAddsAndRemovesSymmetrically) {
  const SparseMatrix adj = TinyPathGraph().adjacency;
  const SparseMatrix added = CsrFlipEdge(adj, 0, 3);  // absent -> added
  EXPECT_EQ(added.nnz(), adj.nnz() + 2);
  EXPECT_FLOAT_EQ(added.At(0, 3), 1.0f);
  EXPECT_FLOAT_EQ(added.At(3, 0), 1.0f);
  const SparseMatrix removed = CsrFlipEdge(adj, 2, 1);  // present -> removed
  EXPECT_EQ(removed.nnz(), adj.nnz() - 2);
  EXPECT_FLOAT_EQ(removed.At(1, 2), 0.0f);
  EXPECT_FLOAT_EQ(removed.At(2, 1), 0.0f);
}

TEST(CsrFlipTest, FlipTwiceIsIdentity) {
  const SparseMatrix adj = TinyPathGraph().adjacency;
  // Round trip through two single flips...
  ExpectSameCsr(CsrFlipEdge(CsrFlipEdge(adj, 0, 3), 3, 0), adj);
  // ...and parity cancellation inside one WithFlips call, including a
  // reversed duplicate of an existing edge.
  ExpectSameCsr(WithFlips(adj, {{0, 3}, {3, 0}}), adj);
  ExpectSameCsr(WithFlips(adj, {{1, 2}, {2, 1}}), adj);
}

TEST(CsrFlipTest, WithFlipsMixedBatchStaysSymmetricAndBinary) {
  const SparseMatrix adj = TinyPathGraph().adjacency;
  // Add (0,2) and (0,3), remove (1,2), leave (2,3) alone.
  const SparseMatrix flipped = WithFlips(adj, {{0, 2}, {1, 2}, {0, 3}});
  EXPECT_EQ(flipped.nnz(), adj.nnz() + 2);
  for (int u = 0; u < flipped.rows(); ++u) {
    for (int v = 0; v < flipped.cols(); ++v) {
      EXPECT_FLOAT_EQ(flipped.At(u, v), flipped.At(v, u));
      EXPECT_TRUE(flipped.At(u, v) == 0.0f || flipped.At(u, v) == 1.0f);
    }
  }
  EXPECT_FLOAT_EQ(flipped.At(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(flipped.At(0, 3), 1.0f);
  EXPECT_FLOAT_EQ(flipped.At(1, 2), 0.0f);
  EXPECT_FLOAT_EQ(flipped.At(2, 3), 1.0f);
}

TEST(CsrFlipTest, WithFlipsMatchesDenseRebuild) {
  const SparseMatrix adj = TinyPathGraph().adjacency;
  const std::vector<std::pair<int, int>> flips = {{0, 2}, {1, 2}, {0, 3}};
  Matrix dense = adj.ToDense();
  for (const auto& [u, v] : flips) {
    dense(u, v) = 1.0f - dense(u, v);
    dense(v, u) = 1.0f - dense(v, u);
  }
  ExpectSameCsr(WithFlips(adj, flips), SparseMatrix::FromDense(dense));
}

TEST(CsrFlipTest, WithFlipsRejectsSelfLoops) {
  const SparseMatrix adj = TinyPathGraph().adjacency;
  EXPECT_DEATH((void)WithFlips(adj, {{1, 1}}), "self-loop");
}

/// The triplet path: toggle each flip in an edge set, then rebuild.
SparseMatrix WithFlipsByTriplets(
    const SparseMatrix& adj, const std::vector<std::pair<int, int>>& flips) {
  std::set<std::pair<int, int>> edges;
  for (int u = 0; u < adj.rows(); ++u) {
    for (int64_t k = adj.row_ptr()[u]; k < adj.row_ptr()[u + 1]; ++k) {
      edges.emplace(u, adj.col_idx()[k]);
    }
  }
  for (const auto& [u, v] : flips) {
    for (const auto& key : {std::make_pair(u, v), std::make_pair(v, u)}) {
      if (!edges.erase(key)) edges.insert(key);
    }
  }
  std::vector<std::tuple<int, int, float>> triplets;
  for (const auto& [u, v] : edges) triplets.emplace_back(u, v, 1.0f);
  return SparseMatrix::FromTriplets(adj.rows(), adj.cols(), triplets);
}

TEST(CsrFlipTest, WithNoFlipsReturnsTheInput) {
  Rng rng(29);
  const SparseMatrix adj = MakeCoraLike(&rng, 0.05).adjacency;
  ExpectSameCsr(WithFlips(adj, {}), adj);
  ExpectSameCsr(WithFlips(adj, {}), WithFlipsByTriplets(adj, {}));
}

TEST(CsrFlipTest, WithFlipsMatchesTripletPath) {
  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = MakeCoraLike(&rng, 0.05);
    const int n = g.num_nodes;
    // Repeated pairs in both orientations, so parity cancellation and
    // re-adding a removed edge are exercised.
    std::vector<std::pair<int, int>> flips;
    for (int i = 0; i < 40; ++i) {
      const int u = static_cast<int>(rng.UniformInt(0, n - 1));
      int v = static_cast<int>(rng.UniformInt(0, n - 2));
      if (v >= u) ++v;
      flips.emplace_back(u, v);
      if (rng.Bernoulli(0.3)) flips.emplace_back(v, u);
      if (rng.Bernoulli(0.2)) flips.push_back(flips[rng.UniformInt(
          0, static_cast<int64_t>(flips.size()) - 1)]);
    }
    ExpectSameCsr(WithFlips(g.adjacency, flips),
                  WithFlipsByTriplets(g.adjacency, flips));
  }
}

TEST(NormalizeTest, GcnNormalizeRowValues) {
  // Path 0-1-2: degrees with self-loop 2, 3, 2.
  const SparseMatrix adj = AdjacencyFromEdges(3, {{0, 1}, {1, 2}});
  const SparseMatrix a_n = GcnNormalize(adj);
  EXPECT_NEAR(a_n.At(0, 0), 0.5f, 1e-5f);
  EXPECT_NEAR(a_n.At(0, 1), 1.0f / std::sqrt(6.0f), 1e-5f);
  EXPECT_NEAR(a_n.At(1, 1), 1.0f / 3.0f, 1e-5f);
  EXPECT_NEAR(a_n.At(2, 0), 0.0f, 1e-5f);
}

TEST(NormalizeTest, NormalizedMatrixIsSymmetric) {
  Rng rng(1);
  const Graph g = MakeCoraLike(&rng, 0.3);
  const SparseMatrix a_n = GcnNormalize(g.adjacency);
  const SparseMatrix a_n_t = a_n.Transposed();
  EXPECT_LT(linalg::MaxAbsDiff(a_n.ToDense(), a_n_t.ToDense()), 1e-5f);
}

TEST(NormalizeTest, WeightedSelfLoopIncreasesDiagonal) {
  const SparseMatrix adj = AdjacencyFromEdges(3, {{0, 1}, {1, 2}});
  const SparseMatrix plain = GcnNormalize(adj);
  const SparseMatrix heavy = GcnNormalizeWeighted(adj, 11.0f);
  EXPECT_GT(heavy.At(0, 0), plain.At(0, 0));
  EXPECT_LT(heavy.At(0, 1), plain.At(0, 1));
}

TEST(NormalizeTest, IsolatedNodeHandled) {
  const SparseMatrix adj = AdjacencyFromEdges(3, {{0, 1}});
  const SparseMatrix a_n = GcnNormalize(adj);
  EXPECT_NEAR(a_n.At(2, 2), 1.0f, 1e-5f);  // only its self-loop
}

TEST(KHopTest, TwoHopReachability) {
  // Path 0-1-2-3: 2-hop neighbors of 0 are {1, 2}.
  const SparseMatrix adj =
      AdjacencyFromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  const SparseMatrix two_hop = KHopAdjacency(adj, 2);
  EXPECT_GT(two_hop.At(0, 1), 0.0f);
  EXPECT_GT(two_hop.At(0, 2), 0.0f);
  EXPECT_FLOAT_EQ(two_hop.At(0, 3), 0.0f);
  EXPECT_FLOAT_EQ(two_hop.At(0, 0), 0.0f);  // no self loops
}

TEST(KHopTest, OneHopIsIdentityTransform) {
  const SparseMatrix adj = AdjacencyFromEdges(4, {{0, 1}, {2, 3}});
  const SparseMatrix one_hop = KHopAdjacency(adj, 1);
  EXPECT_LT(linalg::MaxAbsDiff(one_hop.ToDense(), adj.ToDense()), 1e-6f);
}

TEST(GeneratorTest, CoraLikeMatchesConfiguredShape) {
  Rng rng(2);
  const Graph g = MakeCoraLike(&rng);
  EXPECT_EQ(g.num_nodes, 500);
  EXPECT_EQ(g.num_classes, 7);
  g.CheckInvariants();
  // Splits partition the node set.
  EXPECT_EQ(g.train_nodes.size() + g.val_nodes.size() +
                g.test_nodes.size(),
            static_cast<size_t>(g.num_nodes));
  // Average degree close to config (4.1).
  const double avg_degree = 2.0 * g.NumEdges() / g.num_nodes;
  EXPECT_NEAR(avg_degree, 4.1, 0.8);
}

TEST(GeneratorTest, HomophilyIsCalibrated) {
  Rng rng(3);
  const Graph cora = MakeCoraLike(&rng);
  EXPECT_GT(HomophilyRatio(cora), 0.70);  // paper Fig. 1: >= 70.43%
  const Graph polblogs = MakePolblogsLike(&rng);
  EXPECT_GT(HomophilyRatio(polblogs), 0.85);
}

TEST(GeneratorTest, FeaturesCorrelateWithClasses) {
  Rng rng(4);
  const Graph g = MakeCiteseerLike(&rng);
  // Mean intra-class cosine similarity must exceed inter-class.
  double intra = 0.0, inter = 0.0;
  int n_intra = 0, n_inter = 0;
  for (int i = 0; i < 200; ++i) {
    for (int j = i + 1; j < 200; ++j) {
      const float s = linalg::CosineSimilarity(g.features, i, j);
      if (g.labels[i] == g.labels[j]) {
        intra += s;
        ++n_intra;
      } else {
        inter += s;
        ++n_inter;
      }
    }
  }
  EXPECT_GT(intra / n_intra, 1.5 * (inter / n_inter));
}

TEST(GeneratorTest, PolblogsHasIdentityFeatures) {
  Rng rng(5);
  const Graph g = MakePolblogsLike(&rng);
  EXPECT_EQ(g.features.cols(), g.num_nodes);
  EXPECT_LT(linalg::MaxAbsDiff(g.features,
                               Matrix::Identity(g.num_nodes)),
            1e-6f);
}

TEST(GeneratorTest, DeterministicGivenSeed) {
  Rng rng1(6), rng2(6);
  const Graph a = MakeCoraLike(&rng1, 0.4);
  const Graph b = MakeCoraLike(&rng2, 0.4);
  EXPECT_EQ(a.EdgeList(), b.EdgeList());
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_LT(linalg::MaxAbsDiff(a.features, b.features), 1e-6f);
}

TEST(MetricsTest, HomophilyOnKnownGraph) {
  const Graph g = TinyPathGraph();
  // Edges: (0,1) same, (1,2) diff, (2,3) same -> 2/3.
  EXPECT_NEAR(HomophilyRatio(g), 2.0 / 3.0, 1e-9);
}

TEST(MetricsTest, CrossLabelSimilarityIdentifiesCleanStructure) {
  Rng rng(7);
  const Graph g = MakeCoraLike(&rng);
  const Matrix sim = CrossLabelSimilarity(g);
  const LabelSimilaritySummary s = SummarizeLabelSimilarity(sim);
  EXPECT_GT(s.intra, s.inter);  // clean graphs: intra >> inter (Fig. 3)
}

TEST(MetricsTest, EdgeDiffCountsAllFourBuckets) {
  const Graph clean = TinyPathGraph();
  // Add (0,3): labels differ -> add_diff. Add (0,2): differ -> add_diff.
  // Remove (0,1): same -> del_same.
  Graph poisoned = clean.WithAdjacency(
      AdjacencyFromEdges(4, {{1, 2}, {2, 3}, {0, 3}, {0, 2}}));
  const EdgeDiffStats stats = ComputeEdgeDiff(clean, poisoned);
  EXPECT_EQ(stats.add_diff, 2);
  EXPECT_EQ(stats.add_same, 0);
  EXPECT_EQ(stats.del_same, 1);
  EXPECT_EQ(stats.del_diff, 0);
  EXPECT_EQ(stats.total(), 3);
}

TEST(MetricsTest, FeatureDiffCount) {
  const Graph clean = TinyPathGraph();
  Graph poisoned = clean;
  poisoned.features(0, 1) = 1.0f;
  poisoned.features(3, 0) = 1.0f;
  EXPECT_EQ(FeatureDiffCount(clean, poisoned), 2);
}

TEST(MetricsTest, AccuracyComputation) {
  const std::vector<int> preds = {0, 1, 1, 0};
  const std::vector<int> labels = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(Accuracy(preds, labels, {0, 1, 2, 3}), 0.5);
  EXPECT_DOUBLE_EQ(Accuracy(preds, labels, {0, 2}), 1.0);
}

TEST(IoTest, SaveLoadRoundTrip) {
  Rng rng(8);
  const Graph g = MakeCiteseerLike(&rng, 0.2);
  const std::string path = ::testing::TempDir() + "/graph_roundtrip.txt";
  ASSERT_TRUE(SaveGraph(g, path).ok());
  repro::status::StatusOr<Graph> result = LoadGraph(path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Graph& loaded = *result;
  EXPECT_EQ(loaded.num_nodes, g.num_nodes);
  EXPECT_EQ(loaded.num_classes, g.num_classes);
  EXPECT_EQ(loaded.labels, g.labels);
  EXPECT_EQ(loaded.train_nodes, g.train_nodes);
  EXPECT_EQ(loaded.EdgeList(), g.EdgeList());
  EXPECT_LT(linalg::MaxAbsDiff(loaded.features, g.features), 1e-6f);
  std::remove(path.c_str());
}

TEST(IoTest, SaveRefusesNonBinaryFeatureNamingNodeAndColumn) {
  // The file lists the coordinates of the ones; 0.3 would be lost.
  Graph g = TinyPathGraph();
  g.features(2, 1) = 0.3f;
  const std::string path = ::testing::TempDir() + "/graph_non_binary.txt";
  std::remove(path.c_str());
  const repro::status::Status saved = SaveGraph(g, path);
  EXPECT_EQ(saved.code(), repro::status::Code::kInvalidInput);
  EXPECT_NE(saved.message().find("feature of node 2 column 1 is not 0 or 1"),
            std::string::npos)
      << saved.ToString();
  EXPECT_FALSE(std::ifstream(path).good());  // no file created
}

TEST(IoTest, LoadRejectsMissingFile) {
  const auto result = LoadGraph("/nonexistent/path/graph.txt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), repro::status::Code::kIoError);
}

TEST(IoTest, LoadRejectsCorruptHeader) {
  const std::string path = ::testing::TempDir() + "/bad_graph.txt";
  FILE* f = fopen(path.c_str(), "w");
  fputs("not-a-graph 9\n", f);
  fclose(f);
  const auto result = LoadGraph(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), repro::status::Code::kInvalidInput);
  // The message names the offending file so the user can act on it.
  EXPECT_NE(result.status().message().find(path), std::string::npos)
      << result.status().ToString();
  std::remove(path.c_str());
}

// Corrupted-fixture regressions: every malformed input yields a non-OK
// status with file/line context — never an abort, never a garbage graph.

namespace {

std::string WriteFixture(const std::string& name,
                         const std::string& contents) {
  const std::string path = ::testing::TempDir() + "/" + name;
  FILE* f = fopen(path.c_str(), "w");
  fputs(contents.c_str(), f);
  fclose(f);
  return path;
}

// A tiny, fully valid serialized graph the corruption tests mutate.
std::string ValidFixture() {
  Rng rng(11);
  Graph g = MakeCoraLike(&rng, 0.1);
  const std::string path = ::testing::TempDir() + "/valid_fixture.txt";
  EXPECT_TRUE(SaveGraph(g, path).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  return buffer.str();
}

}  // namespace

TEST(IoTest, LoadRejectsTruncatedFile) {
  const std::string full = ValidFixture();
  const std::string path =
      WriteFixture("truncated_graph.txt", full.substr(0, full.size() / 2));
  const auto result = LoadGraph(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), repro::status::Code::kInvalidInput);
  EXPECT_NE(result.status().message().find(path), std::string::npos)
      << result.status().ToString();
  std::remove(path.c_str());
}

TEST(IoTest, LoadRejectsBadDimensions) {
  const std::string path = WriteFixture(
      "bad_dims_graph.txt", "peega-graph 1\nbad\n-5 3 2\n");
  const auto result = LoadGraph(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), repro::status::Code::kInvalidInput);
  std::remove(path.c_str());
}

TEST(IoTest, LoadRejectsNonNumericToken) {
  std::string contents = ValidFixture();
  // Replace the first digit after the header block with a letter.
  const size_t pos = contents.find('\n', contents.find('\n') + 1) + 1;
  ASSERT_LT(pos, contents.size());
  contents[pos] = 'x';
  const std::string path = WriteFixture("nonnum_graph.txt", contents);
  const auto result = LoadGraph(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), repro::status::Code::kInvalidInput);
  // Context names the line the bad token sits on.
  EXPECT_NE(result.status().message().find(":line "), std::string::npos)
      << result.status().ToString();
  std::remove(path.c_str());
}

TEST(IoTest, LoadRejectsOutOfRangeEdgeIndex) {
  const std::string path = WriteFixture(
      "oob_graph.txt",
      "peega-graph 1\ntiny\n3 2 2\n1\n0 99\n"  // edge endpoint 99 >= 3 nodes
      "0\n0 1 2\n0\n1\n1\n2\n");
  const auto result = LoadGraph(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), repro::status::Code::kInvalidInput);
  EXPECT_NE(result.status().message().find("99"), std::string::npos)
      << result.status().ToString();
  std::remove(path.c_str());
}

// A count the rest of the file cannot hold is refused before anything
// is sized by it: this 45-byte file declares 2.5e15 edges, and the node
// count alone needs a label per node further down.
TEST(IoTest, LoadRejectsCountsTheFileCannotHold) {
  const struct {
    const char* name;
    std::string contents;
    const char* what;
  } rows[] = {
      {"nodes", "peega-graph 1\nx\n50000000 2 0\n2500000000000000",
       "node count"},
      {"edges", "peega-graph 1\nx\n3 2 2\n9\n0 1 1\n", "edge count"},
      {"coords", "peega-graph 1\nx\n3 2 2\n0\n6\n0 1 1\n",
       "feature coordinate count"},
      {"split", "peega-graph 1\nx\n3 2 2\n0\n0\n0 1 1\n3 0\n",
       "train node"},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.name);
    const std::string path =
        WriteFixture(std::string("count_") + row.name + ".txt", row.contents);
    const auto result = LoadGraph(path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), repro::status::Code::kInvalidInput);
    EXPECT_NE(result.status().message().find(path + ":line "),
              std::string::npos)
        << result.status().ToString();
    EXPECT_NE(result.status().message().find(row.what), std::string::npos)
        << result.status().ToString();
    std::remove(path.c_str());
  }
}

// The feature dim is not backed by file bytes (features are stored as
// sparse coordinates), so the dense N x F matrix is bounded by a memory
// limit instead: a short file past it is refused at the header line,
// before anything is allocated.
TEST(IoTest, LoadRejectsFeatureMatrixPastTheMemoryLimit) {
  std::string labels;
  for (int v = 0; v < 1000; ++v) labels += "0 ";
  const struct {
    const char* name;
    std::string dims;
    const char* what;
  } rows[] = {
      // 1000 x 268436 floats is 1 GiB + 2.2 MB: just past the limit.
      {"just_past", "1000 2 268436", "feature matrix 1000 x 268436"},
      {"huge_dim", "1000 2 1099511627776", "feature dim"},
  };
  EXPECT_GT(1000LL * 268436 * 4, kMaxFeatureMatrixBytes);
  EXPECT_LE(1000LL * 268435 * 4, kMaxFeatureMatrixBytes);
  for (const auto& row : rows) {
    SCOPED_TRACE(row.name);
    const std::string path = WriteFixture(
        std::string("features_") + row.name + ".txt",
        "peega-graph 1\nbig\n" + row.dims + "\n0\n0\n" + labels +
            "\n0\n0\n0\n");
    const auto result = LoadGraph(path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), repro::status::Code::kInvalidInput);
    EXPECT_NE(result.status().message().find(path + ":line 3"),
              std::string::npos)
        << result.status().ToString();
    EXPECT_NE(result.status().message().find(row.what), std::string::npos)
        << result.status().ToString();
    std::remove(path.c_str());
  }
}

TEST(IoTest, LoadRejectsSelfLoopEdge) {
  const std::string path = WriteFixture(
      "self_loop_graph.txt",
      "peega-graph 1\ntiny\n3 2 2\n1\n1 1\n0\n0 1 1\n0\n0\n0\n");
  const auto result = LoadGraph(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), repro::status::Code::kInvalidInput);
  EXPECT_NE(result.status().message().find("self-loop edge 1 1"),
            std::string::npos)
      << result.status().ToString();
  std::remove(path.c_str());
}

TEST(SplitTest, FractionsRespected) {
  Rng rng(9);
  Graph g = MakeCoraLike(&rng, 0.5);
  AssignSplits(&g, 0.2, 0.3, &rng);
  EXPECT_EQ(g.train_nodes.size(), 50u);
  EXPECT_EQ(g.val_nodes.size(), 75u);
  EXPECT_EQ(g.test_nodes.size(), 125u);
  std::set<int> all;
  for (int v : g.train_nodes) all.insert(v);
  for (int v : g.val_nodes) all.insert(v);
  for (int v : g.test_nodes) all.insert(v);
  EXPECT_EQ(all.size(), 250u);  // disjoint cover
}

/// The serial top-k cosine scan FeatureKnnGraph ran before its scoring
/// moved to linalg::TopCosineNeighbors.
SparseMatrix SerialFeatureKnnGraph(const Matrix& x, int k,
                                   float min_similarity) {
  const int n = x.rows();
  std::vector<std::tuple<int, int, float>> triplets;
  std::vector<std::pair<float, int>> sims;
  for (int i = 0; k > 0 && i < n; ++i) {
    sims.clear();
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const float s = linalg::CosineSimilarity(x, i, j);
      if (s > min_similarity) sims.emplace_back(s, j);
    }
    const int take = std::min<int>(k, static_cast<int>(sims.size()));
    std::partial_sort(sims.begin(), sims.begin() + take, sims.end(),
                      [](const auto& a, const auto& b) {
                        return a.first > b.first;
                      });
    for (int t = 0; t < take; ++t) {
      triplets.emplace_back(i, sims[t].second, 1.0f);
      triplets.emplace_back(sims[t].second, i, 1.0f);
    }
  }
  SparseMatrix knn = SparseMatrix::FromTriplets(n, n, triplets);
  for (float& v : knn.mutable_values()) v = v > 0.0f ? 1.0f : 0.0f;
  return knn;
}

TEST(FeatureKnnTest, MatchesSerialReferenceAtAnyThreadCount) {
  Rng rng(31);
  // 0/1 features over few columns (many exactly tied similarities),
  // real-valued features, and both with all-zero rows mixed in. 67 rows
  // leave a ragged tail after the blocks of four.
  Matrix binary(67, 6);
  Matrix real = linalg::RandomNormal(67, 23, 1.0f, &rng);
  for (int i = 0; i < binary.rows(); ++i) {
    for (int c = 0; c < binary.cols(); ++c) {
      binary(i, c) = rng.Bernoulli(0.4) ? 1.0f : 0.0f;
    }
    if (i % 9 == 4) {
      for (int c = 0; c < binary.cols(); ++c) binary(i, c) = 0.0f;
      for (int c = 0; c < real.cols(); ++c) real(i, c) = 0.0f;
    }
  }
  for (const Matrix* x : {&binary, &real}) {
    for (const int k : {0, 1, 5, 70}) {
      for (const float floor : {-1.0f, 0.0f, 1e-6f}) {
        const SparseMatrix expected = SerialFeatureKnnGraph(*x, k, floor);
        for (const int threads : {1, 2, 8}) {
          parallel::SetNumThreads(threads);
          SCOPED_TRACE("k=" + std::to_string(k) + " floor=" +
                       std::to_string(floor) +
                       " threads=" + std::to_string(threads));
          ExpectSameCsr(FeatureKnnGraph(*x, k, floor), expected);
        }
        parallel::SetNumThreads(0);
      }
    }
  }
}

// GNAT's own input (gnat-cora's graph: n = 1000, F = 580) at its k_f
// and floor, plus rows whose mixed-sign products cancel to a dot of
// exactly 0: such a pair is touched by the column walk but has cosine 0,
// so a negative floor lists it and a floor of 0 does not.
TEST(FeatureKnnTest, CoraLikeAndCancellingRowsMatchSerialReference) {
  Rng rng(13);
  const Graph g = MakeCoraLike(&rng, 2.0);
  const int n = g.num_nodes;
  const int f = g.features.cols();
  ASSERT_EQ(n, 1000);
  ASSERT_EQ(f, 580);
  // Rows n..n+2 are p = e0 + e1, q = e0 - e1 and r = 0.5 e0 - 0.5 e1 +
  // 2 e2: p·q = 1 - 1 and p·r = 0.5 - 0.5.
  Matrix x(n + 3, f);
  std::copy(g.features.data(), g.features.data() + g.features.size(),
            x.data());
  const int p = n, q = n + 1, r = n + 2;
  x(p, 0) = 1.0f;
  x(p, 1) = 1.0f;
  x(q, 0) = 1.0f;
  x(q, 1) = -1.0f;
  x(r, 0) = 0.5f;
  x(r, 1) = -0.5f;
  x(r, 2) = 2.0f;
  ASSERT_EQ(linalg::CosineSimilarity(x, p, q), 0.0f);
  ASSERT_EQ(linalg::CosineSimilarity(x, p, r), 0.0f);
  const auto lists = [&](float floor) {
    const std::vector<std::vector<int>> top =
        linalg::TopCosineNeighbors(x, n + 3, floor);
    return std::set<int>(top[p].begin(), top[p].end());
  };
  EXPECT_EQ(lists(-1.0f).count(q), 1u);
  EXPECT_EQ(lists(-1.0f).count(r), 1u);
  EXPECT_EQ(lists(0.0f).count(q), 0u);
  EXPECT_EQ(lists(0.0f).count(r), 0u);

  for (const int k : {10, 15}) {
    for (const float floor : {-1.0f, 0.0f, 1e-6f}) {
      const SparseMatrix expected = SerialFeatureKnnGraph(x, k, floor);
      for (const int threads : {1, 2, 8}) {
        parallel::SetNumThreads(threads);
        SCOPED_TRACE("k=" + std::to_string(k) + " floor=" +
                     std::to_string(floor) +
                     " threads=" + std::to_string(threads));
        ExpectSameCsr(FeatureKnnGraph(x, k, floor), expected);
      }
      parallel::SetNumThreads(0);
    }
  }
}

TEST(StreamingSbmTest, MaterializedCsrMatchesTripletRebuild) {
  StreamingSbmConfig config;
  config.num_nodes = 500;
  config.avg_degree = 6.0;
  StreamingSbm stream(config);
  const Graph g = stream.Materialize();
  std::vector<std::tuple<int, int, float>> triplets;
  for (int u = 0; u < g.num_nodes; ++u) {
    for (const int v : g.Neighbors(u)) triplets.emplace_back(u, v, 1.0f);
  }
  ExpectSameCsr(g.adjacency,
                SparseMatrix::FromTriplets(g.num_nodes, g.num_nodes, triplets));
}

}  // namespace
}  // namespace repro::graph
