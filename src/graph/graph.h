#ifndef PEEGA_GRAPH_GRAPH_H_
#define PEEGA_GRAPH_GRAPH_H_

#include <string>
#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/random.h"
#include "linalg/sparse.h"

namespace repro::graph {

/// An attributed graph for node classification:
/// G(V, A, X, Y) with train/valid/test splits.
///
/// The adjacency is symmetric, binary, and has no self-loops (self-loops
/// are added by the GCN normalization). Features are binary as in the
/// paper's setting (Sec. II). `labels[v]` is the ground-truth class of v;
/// attackers never read it (the black-box constraint is enforced by the
/// attacker interfaces, which receive only A and X).
struct Graph {
  int num_nodes = 0;
  int num_classes = 0;
  linalg::SparseMatrix adjacency;
  linalg::Matrix features;
  std::vector<int> labels;
  std::vector<int> train_nodes;
  std::vector<int> val_nodes;
  std::vector<int> test_nodes;
  std::string name;

  /// Number of undirected edges ‖A‖₀/2.
  int64_t NumEdges() const { return adjacency.nnz() / 2; }

  /// Neighbor list of v (column indices of row v).
  std::vector<int> Neighbors(int v) const;

  bool HasEdge(int u, int v) const { return adjacency.At(u, v) > 0.0f; }

  /// Undirected edge list with u < v.
  std::vector<std::pair<int, int>> EdgeList() const;

  /// One-hot label matrix (num_nodes x num_classes); unlabeled rows are 0.
  linalg::Matrix OneHotLabels() const;

  /// 0/1 mask over nodes for a node subset.
  std::vector<float> NodeMask(const std::vector<int>& nodes) const;

  /// Returns a copy with a replaced adjacency (features/labels shared by
  /// value copy). Used by attackers and defenders producing new graphs.
  Graph WithAdjacency(linalg::SparseMatrix new_adjacency) const;
  Graph WithFeatures(linalg::Matrix new_features) const;
  /// Both replaced: copies only the labels, splits and name.
  Graph WithAdjacencyAndFeatures(linalg::SparseMatrix new_adjacency,
                                 linalg::Matrix new_features) const;

  /// Validates structural invariants (symmetry, binary entries, no
  /// self-loops, label range); aborts on violation. Cheap enough to call
  /// in tests and after attacks.
  void CheckInvariants() const;
};

/// GCN propagation matrix: A_n = D^{-1/2} (A + I) D^{-1/2}.
linalg::SparseMatrix GcnNormalize(const linalg::SparseMatrix& adjacency);

/// GCN normalization with a weighted self-loop:
/// A_n = D^{-1/2} (A + w I) D^{-1/2}, D = diag(rowsum(A) + w). With w = 1
/// this equals `GcnNormalize`; GNAT's ego graph uses w = k_e + 1 to
/// emphasize each node's own features (Sec. IV-B3).
linalg::SparseMatrix GcnNormalizeWeighted(
    const linalg::SparseMatrix& adjacency, float self_loop_weight);

/// Binary k-hop reachability adjacency (edge u-v iff u reaches v within k
/// hops, u != v). k = 1 returns the input structure.
linalg::SparseMatrix KHopAdjacency(const linalg::SparseMatrix& adjacency,
                                   int k);

/// Symmetric binary top-k cosine feature graph: edge v-u iff u is among
/// v's k most cosine-similar rows of `x` (u != v) with similarity above
/// `min_similarity`, or v among u's. k <= 0, or features with no pair
/// above the floor (identity matrices), give an empty graph. GNAT's
/// feature view and SimPGCN's similarity graph.
linalg::SparseMatrix FeatureKnnGraph(const linalg::Matrix& x, int k,
                                     float min_similarity);

/// Builds a symmetric binary adjacency from an undirected edge list.
linalg::SparseMatrix AdjacencyFromEdges(
    int num_nodes, const std::vector<std::pair<int, int>>& edges);

/// Returns `adjacency` with every listed undirected edge toggled: a
/// present (u, v) is removed, an absent one is added, both directions at
/// once. A pair appearing an even number of times cancels (flip-twice
/// identity). Self-loops are rejected. O(nnz + k log k) for k flips —
/// never O(N²) — and the result is bitwise-identical to densifying,
/// applying attack::FlipEdge per pair, and rebuilding with
/// attack::DenseToAdjacency: sorted columns, every value exactly 1.0f.
/// This is the sparse-first commit path: attackers turn their flip list
/// into the poisoned adjacency directly instead of rescanning a dense
/// matrix. With no flips it returns a copy of `adjacency` as it is.
linalg::SparseMatrix WithFlips(
    const linalg::SparseMatrix& adjacency,
    const std::vector<std::pair<int, int>>& flips);

/// Single-edge convenience form of `WithFlips`.
linalg::SparseMatrix CsrFlipEdge(const linalg::SparseMatrix& adjacency,
                                 int u, int v);

/// Assigns random train/val/test splits with the given fractions.
void AssignSplits(Graph* g, double train_frac, double val_frac,
                  linalg::Rng* rng);

}  // namespace repro::graph

#endif  // PEEGA_GRAPH_GRAPH_H_
