/* capi_quickstart.c — embedding graphguard from plain C11.
 *
 * Builds a 6-node ring with binary features from caller-owned CSR
 * buffers, shows that a non-binary feature is refused, runs the PEEGA
 * black-box attack through the stable ABI (src/capi/graphguard.h),
 * prints the committed flip sequence, and saves and reloads the
 * poisoned graph. No C++ anywhere in this file: it compiles with
 * `gcc -std=c11` and links against the library. It exits non-zero when
 * any step does not behave as the header documents.
 *
 * Every call site shows the intended error discipline: check the
 * gg_status, read gg_last_error() for context, and always gg_free().
 */
#include <stdio.h>
#include <stdint.h>

#include "capi/graphguard.h"

static int Failed(gg_ctx* gg, const char* step, gg_status status) {
  fprintf(stderr, "%s: %s: %s\n", step, gg_status_name(status),
          gg_last_error(gg));
  gg_free(gg);
  return 1;
}

int main(void) {
  /* Undirected 6-ring: node i <-> (i+1) mod 6, stored symmetrically.
   * Features are 0 or 1; node i has feature i mod 3. */
  enum { kNodes = 6, kFeatures = 3 };
  int64_t row_ptr[kNodes + 1];
  int32_t col_idx[2 * kNodes];
  int32_t labels[kNodes];
  float features[kNodes * kFeatures] = {0};
  for (int32_t i = 0; i < kNodes; ++i) {
    row_ptr[i] = 2 * (int64_t)i;
    col_idx[2 * i] = (i + kNodes - 1) % kNodes;
    col_idx[2 * i + 1] = (i + 1) % kNodes;
    labels[i] = i % 2;
    features[i * kFeatures + i % kFeatures] = 1.0f;
  }
  row_ptr[kNodes] = 2 * kNodes;

  gg_ctx* gg = gg_init();
  if (gg == NULL) {
    fprintf(stderr, "gg_init failed\n");
    return 1;
  }

  /* The graph file stores the coordinates of the ones, so a value such
   * as 0.5 would be lost: the ABI refuses it and installs nothing. */
  features[4] = 0.5f;
  gg_status status = gg_set_graph_csr(gg, kNodes, /*num_classes=*/2,
                                      row_ptr, col_idx, kFeatures,
                                      features, labels);
  if (status != GG_INVALID_INPUT || gg_num_nodes(gg) != 0) {
    fprintf(stderr, "set_graph_csr accepted a feature of 0.5 (%s)\n",
            gg_status_name(status));
    gg_free(gg);
    return 1;
  }
  printf("refused: %s\n", gg_last_error(gg));
  features[4] = 0.0f;

  status = gg_set_graph_csr(gg, kNodes, /*num_classes=*/2, row_ptr,
                            col_idx, kFeatures, features, labels);
  if (status != GG_OK) return Failed(gg, "set_graph_csr", status);
  printf("graph: %d nodes, %lld edges\n", gg_num_nodes(gg),
         (long long)gg_num_edges(gg));

  gg_attack_options options;
  gg_attack_options_init(&options);
  options.rate = 0.5;   /* budget = 3 flips on a 6-edge ring */
  options.mode = "tm";  /* topology only */
  options.seed = 7;

  status = gg_attack(gg, &options);
  if (status != GG_OK) return Failed(gg, "attack", status);

  printf("%s committed %d flips (objective %.4f, %.3fs):\n",
         gg_result_name(gg), gg_num_flips(gg), gg_final_objective(gg),
         gg_elapsed_seconds(gg));
  for (int32_t i = 0; i < gg_num_flips(gg); ++i) {
    gg_flip flip;
    if (gg_get_flip(gg, i, &flip) != GG_OK) break;
    if (flip.is_feature) {
      printf("  flip feature bit %d of node %d\n", flip.b, flip.a);
    } else {
      printf("  flip edge %d -- %d\n", flip.a, flip.b);
    }
  }

  /* The poisoned graph survives a save and load whole. */
  const char* path = "capi_quickstart_graph.txt";
  const int32_t nodes = gg_num_nodes(gg);
  const int64_t edges = gg_num_edges(gg);
  status = gg_save_graph(gg, path);
  if (status != GG_OK) return Failed(gg, "save_graph", status);
  status = gg_load_graph(gg, path);
  remove(path);
  if (status != GG_OK) return Failed(gg, "load_graph", status);
  if (gg_num_nodes(gg) != nodes || gg_num_edges(gg) != edges) {
    fprintf(stderr, "reloaded %d nodes, %lld edges; saved %d, %lld\n",
            gg_num_nodes(gg), (long long)gg_num_edges(gg), nodes,
            (long long)edges);
    gg_free(gg);
    return 1;
  }
  printf("saved and reloaded: %d nodes, %lld edges\n", nodes,
         (long long)edges);

  gg_free(gg);
  return 0;
}
