#ifndef PEEGA_CAPI_GRAPHGUARD_H_
#define PEEGA_CAPI_GRAPHGUARD_H_

/* graphguard.h — stable C ABI for embedding the attack/defense/eval
 * library into other runtimes.
 *
 * Design rules (machine-checked by the `capi-boundary` analyzer pass):
 *   - pure C11: this header compiles standalone with `gcc -std=c11`
 *     (CI does exactly that), so any FFI layer can consume it;
 *   - opaque handles only: the gg_ctx layout is private to the
 *     implementation and may change freely between versions;
 *   - no C++ types cross the boundary — flat structs, C strings,
 *     integer/double scalars, caller-owned output parameters;
 *   - every entry point is exception-safe: C++ exceptions are caught
 *     at the boundary and converted into a gg_status code plus a
 *     message retrievable via gg_last_error().
 *
 * Thread-safety: a gg_ctx is a single-caller session object. The one
 * exception is gg_cancel(), which may be called from any thread to
 * interrupt an operation in flight on the context. Use one context per
 * concurrent caller (the `graphguard serve` job server does exactly
 * that).
 *
 * Typical embedding:
 *
 *   gg_ctx* gg = gg_init();
 *   if (gg_load_graph(gg, "cora.txt") != GG_OK) {
 *     fprintf(stderr, "%s\n", gg_last_error(gg));
 *   }
 *   gg_attack_options opt;
 *   gg_attack_options_init(&opt);
 *   opt.rate = 0.05;
 *   if (gg_attack(gg, &opt) == GG_OK) {
 *     gg_save_graph(gg, "poisoned.txt");
 *   }
 *   gg_free(gg);
 */

#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* Status codes. GG_OK..GG_UNAVAILABLE mirror repro::status::Code
 * one-to-one (same meaning, same stable names); GG_INTERNAL is the
 * boundary's own code for an unexpected C++ exception caught in the
 * shim. Values are part of the ABI — append only. */
typedef enum gg_status {
  GG_OK = 0,
  GG_INVALID_INPUT = 1,
  GG_NUMERIC_FAULT = 2,
  GG_DEADLINE_EXCEEDED = 3,
  GG_CANCELLED = 4,
  GG_IO_ERROR = 5,
  GG_RESOURCE_EXHAUSTED = 6,
  GG_UNAVAILABLE = 7,
  GG_INTERNAL = 8
} gg_status;

/* Stable name for a code ("OK", "INVALID_INPUT", ...). Never NULL. */
const char* gg_status_name(gg_status status);

/* 1 when a retry with fresh resources might clear the failure
 * (NUMERIC_FAULT, IO_ERROR, RESOURCE_EXHAUSTED, UNAVAILABLE), 0 for
 * permanent codes, GG_OK, and GG_INTERNAL. Mirrors
 * repro::status::IsTransient — the classification the serve retry
 * policy uses — so embedders can apply the same policy. */
int32_t gg_status_is_transient(gg_status status);

/* Opaque session handle. Create with gg_init, destroy with gg_free. */
typedef struct gg_ctx gg_ctx;

gg_ctx* gg_init(void);
void gg_free(gg_ctx* ctx);

/* Message of the most recent failing call on this context ("" after a
 * successful call; also "" when ctx is NULL). The pointer stays valid
 * until the next call on the same context. */
const char* gg_last_error(const gg_ctx* ctx);

/* ---- graph I/O ------------------------------------------------------ */

/* Loads a graph in the library's text format (see graph/io.h). The
 * loaded graph becomes the context's current graph. */
gg_status gg_load_graph(gg_ctx* ctx, const char* path);

/* Saves the current graph (after gg_attack: the poisoned graph). */
gg_status gg_save_graph(gg_ctx* ctx, const char* path);

/* Installs a graph from caller-owned CSR buffers. The adjacency must be
 * symmetric and self-loop free; entries are taken as binary (value 1).
 *   row_ptr:  num_nodes+1 entries, row_ptr[0] == 0, nondecreasing;
 *   col_idx:  row_ptr[num_nodes] entries, each in [0, num_nodes) and
 *             listed at most once per row;
 *   features: row-major num_nodes x num_features, every value 0 or 1
 *             (any other value is GG_INVALID_INPUT naming the node and
 *             column: "is not finite" for NaN or Inf, "is not 0 or 1"
 *             otherwise), may be NULL when num_features == 0;
 *   labels:   num_nodes entries in [0, num_classes), or NULL for all-0.
 * Buffers are copied; the caller keeps ownership. Train/val/test splits
 * start empty — call gg_assign_splits before gg_defend/gg_eval/
 * gg_train_model (gg_attack needs no splits). */
gg_status gg_set_graph_csr(gg_ctx* ctx, int32_t num_nodes,
                           int32_t num_classes, const int64_t* row_ptr,
                           const int32_t* col_idx, int32_t num_features,
                           const float* features, const int32_t* labels);

/* Random train/val/test splits with the given fractions (seeded). */
gg_status gg_assign_splits(gg_ctx* ctx, double train_frac,
                           double val_frac, uint64_t seed);

int32_t gg_num_nodes(const gg_ctx* ctx);
int64_t gg_num_edges(const gg_ctx* ctx);
const char* gg_graph_name(const gg_ctx* ctx);

/* ---- attack --------------------------------------------------------- */

/* The attack op's fields (DESIGN.md "One op schema"). gg_attack
 * checks every field before it runs anything: a value outside the
 * range given below (NaN included) returns GG_INVALID_INPUT, with
 * gg_last_error naming the field, and attacks nothing.
 * The int32_t fields take any value here; PEEGA itself refuses
 * values < 1 with GG_INVALID_INPUT when the campaign starts. */
typedef struct gg_attack_options {
  /* "peega", "peega-batch", "metattack", "pgd", "minmax", "gf",
   * "dice", "random". */
  const char* attacker;
  double rate;          /* perturbation rate (budget = rate * #edges):
                           finite, in [0, 1] */
  double feature_cost;  /* beta, cost of one feature flip vs one edge:
                           finite, > 0 */
  double lambda;        /* PEEGA objective trade-off: finite */
  int32_t norm_p;       /* PEEGA norm order */
  int32_t layers;       /* PEEGA surrogate depth */
  int32_t batch_size;   /* peega-batch only */
  const char* mode;     /* "both", "tm" (topology), "fp" (features) */
  const char* checkpoint_path;  /* NULL/"" = no checkpointing */
  int32_t checkpoint_every;
  uint64_t seed;        /* < 2^53 */
} gg_attack_options;

/* Fills the defaults every front end shares (peega, rate 0.1, the
 * paper's hyper-parameters, seed 42; checkpoint_path NULL). */
void gg_attack_options_init(gg_attack_options* options);

/* Runs the attack on the current graph. On GG_OK — and on the
 * degraded-but-usable codes GG_DEADLINE_EXCEEDED / GG_CANCELLED /
 * GG_NUMERIC_FAULT, where the result is the best-so-far prefix — the
 * poisoned graph replaces the context's current graph and the flip
 * sequence is readable through gg_num_flips/gg_get_flip. On
 * GG_INVALID_INPUT (e.g. a rejected checkpoint) nothing was attacked
 * and the current graph is untouched. */
gg_status gg_attack(gg_ctx* ctx, const gg_attack_options* options);

/* One committed perturbation: an edge flip (is_feature == 0, a/b the
 * endpoints) or a feature-bit flip (is_feature == 1, a the node, b the
 * dimension). */
typedef struct gg_flip {
  int32_t is_feature;
  int32_t a;
  int32_t b;
} gg_flip;

/* Result accessors for the most recent gg_attack on this context. */
int32_t gg_num_flips(const gg_ctx* ctx);
gg_status gg_get_flip(const gg_ctx* ctx, int32_t index, gg_flip* out);
int32_t gg_edge_modifications(const gg_ctx* ctx);
int32_t gg_feature_modifications(const gg_ctx* ctx);
double gg_elapsed_seconds(const gg_ctx* ctx);
double gg_final_objective(const gg_ctx* ctx);
/* Display name of the attacker that produced the last result. */
const char* gg_result_name(const gg_ctx* ctx);

/* ---- defense / evaluation ------------------------------------------ */

typedef struct gg_defense_report {
  double test_accuracy;
  double val_accuracy;
  double train_seconds;
} gg_defense_report;

/* One defense training run on the current graph. `defender` is one of
 * "gnat", "gcn", "gat", "jaccard", "svd", "rgcn", "prognn", "simpgcn",
 * "gnnguard". */
gg_status gg_defend(gg_ctx* ctx, const char* defender, uint64_t seed,
                    gg_defense_report* out);

typedef struct gg_eval_result {
  double accuracy_mean;  /* fraction in [0, 1] */
  double accuracy_std;
  double mean_train_seconds;
  int32_t ok_runs;
} gg_eval_result;

/* Repeated-run evaluation (paper protocol: re-seed the defender per
 * run, aggregate mean±std over the runs that completed). `runs` must be
 * >= 1 and `seed` < 2^53 (also for gg_defend), else GG_INVALID_INPUT. */
gg_status gg_eval(gg_ctx* ctx, const char* defender, int32_t runs,
                  uint64_t seed, gg_eval_result* out);

/* ---- victim model lifecycle ---------------------------------------- */

/* Trains a GCN victim model on the current graph and keeps it on the
 * context. */
gg_status gg_train_model(gg_ctx* ctx, int32_t hidden_dim,
                         int32_t num_layers, uint64_t seed);

/* Deterministic (eval-mode) test-split accuracy of the context's model
 * on the current graph. Works after gg_train_model or gg_load_model. */
gg_status gg_model_accuracy(gg_ctx* ctx, double* out_test_accuracy);

/* Model weights round-trip bitwise: floats are serialized as C99 hex
 * literals, so save -> load -> save reproduces the file byte for byte
 * and the reloaded model predicts identically. Save replaces the file
 * durably: after a crash it holds the old or the new model. Load refuses
 * non-finite weights and dims the file is too small to hold, with
 * GG_INVALID_INPUT naming the field and line. */
gg_status gg_save_model(gg_ctx* ctx, const char* path);
gg_status gg_load_model(gg_ctx* ctx, const char* path);

/* ---- budgets & cancellation ---------------------------------------- */

/* Wall-clock budget applied to each subsequent gg_attack / gg_defend /
 * gg_eval / gg_train_model call (each call gets the full budget).
 * ms <= 0 removes the budget; NaN is GG_INVALID_INPUT and leaves the
 * budget unchanged. On expiry the operation stops committing
 * work and returns GG_DEADLINE_EXCEEDED with its best-so-far result —
 * it never hangs or aborts. */
gg_status gg_set_deadline_ms(gg_ctx* ctx, double ms);

/* Cooperatively cancels the operation in flight on `ctx` (safe from
 * any thread). When no operation is running, the NEXT operation is
 * cancelled at its first check instead, so cancel never races with
 * operation start. The interrupted call returns GG_CANCELLED. */
gg_status gg_cancel(gg_ctx* ctx);

#ifdef __cplusplus
}  /* extern "C" */
#endif

#endif  /* PEEGA_CAPI_GRAPHGUARD_H_ */
