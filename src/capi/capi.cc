// Implementation of the stable C ABI (capi/graphguard.h): a thin,
// exception-safe shim over src/attack, src/defense, src/eval and
// src/nn. Every extern "C" entry point is wrapped in an explicit
// try/catch(...) that converts any C++ exception into GG_INTERNAL plus
// a stored message — the `capi-boundary` analyzer pass checks the
// wrapper is present and that no C++ type appears in a gg_ signature.
#include "capi/graphguard.h"
#include "capi/attack_options.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "attack/attacker.h"
#include "defense/defender.h"
#include "eval/op_schema.h"
#include "eval/registry.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "linalg/random.h"
#include "nn/gcn.h"
#include "nn/trainer.h"
#include "obs/record.h"
#include "status/deadline.h"
#include "status/status.h"

namespace {

using repro::status::Code;
using repro::status::InvalidInput;
using repro::status::Status;

}  // namespace

// The session object behind the opaque handle. Single-caller except for
// the deadline/cancel fields, which gg_cancel may touch from another
// thread under `mu`.
struct gg_ctx {
  repro::graph::Graph graph;
  bool has_graph = false;

  repro::attack::AttackResult result;
  bool has_result = false;
  std::string result_name;

  std::unique_ptr<repro::nn::Gcn> model;
  repro::nn::Gcn::Options model_options;
  int model_in_dim = 0;
  int model_classes = 0;

  std::mutex mu;  // guards the four fields below
  double budget_ms = 0.0;
  repro::status::Deadline active;  // armed for the operation in flight
  bool op_in_flight = false;
  bool pending_cancel = false;

  std::string last_error;
};

namespace {

gg_status MapCode(Code code) {
  switch (code) {
    case Code::kOk:
      return GG_OK;
    case Code::kInvalidInput:
      return GG_INVALID_INPUT;
    case Code::kNumericFault:
      return GG_NUMERIC_FAULT;
    case Code::kDeadlineExceeded:
      return GG_DEADLINE_EXCEEDED;
    case Code::kCancelled:
      return GG_CANCELLED;
    case Code::kIoError:
      return GG_IO_ERROR;
    case Code::kResourceExhausted:
      return GG_RESOURCE_EXHAUSTED;
    case Code::kUnavailable:
      return GG_UNAVAILABLE;
  }
  return GG_INTERNAL;
}

// Records `status` as the context's last error (cleared when OK) and
// returns the mapped code.
gg_status Settle(gg_ctx* ctx, const Status& status) {
  if (status.ok()) {
    ctx->last_error.clear();
    return GG_OK;
  }
  ctx->last_error = status.ToString();
  return MapCode(status.code());
}

gg_status Fail(gg_ctx* ctx, gg_status code, const std::string& message) {
  if (ctx != nullptr) ctx->last_error = message;
  return code;
}

// Catch-all tail of every entry point: store a diagnostic and report
// GG_INTERNAL. Never throws.
gg_status Caught(gg_ctx* ctx, const char* where) {
  if (ctx != nullptr) {
    ctx->last_error =
        std::string("INTERNAL: unexpected exception in ") + where;
  }
  return GG_INTERNAL;
}

// Arms the per-operation deadline: the configured budget (if any) made
// cancellable, with a pending gg_cancel applied. Returns the copy the
// operation should thread through its options (shares the cancel flag
// with ctx->active, so gg_cancel reaches the running loop).
repro::status::Deadline ArmDeadline(gg_ctx* ctx) {
  std::lock_guard<std::mutex> lock(ctx->mu);
  ctx->active = ctx->budget_ms > 0.0
                    ? repro::status::Deadline::AfterSeconds(
                          ctx->budget_ms / 1000.0)
                    : repro::status::Deadline::Cancellable();
  if (ctx->pending_cancel) {
    ctx->active.RequestCancel();
    ctx->pending_cancel = false;
  }
  ctx->op_in_flight = true;
  return ctx->active;
}

struct OpGuard {
  explicit OpGuard(gg_ctx* ctx) : ctx_(ctx) {}
  ~OpGuard() {
    std::lock_guard<std::mutex> lock(ctx_->mu);
    ctx_->op_in_flight = false;
  }
  gg_ctx* ctx_;
};

std::string CStr(const char* s) { return s == nullptr ? "" : s; }

// Hex-float (%a) rendering: lossless and locale-independent, so model
// files round-trip bitwise.
void AppendHexFloat(std::string* out, float v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", static_cast<double>(v));
  out->append(buf);
}

}  // namespace

extern "C" const char* gg_status_name(gg_status status) {
  try {
    switch (status) {
      case GG_OK:
        return "OK";
      case GG_INVALID_INPUT:
        return "INVALID_INPUT";
      case GG_NUMERIC_FAULT:
        return "NUMERIC_FAULT";
      case GG_DEADLINE_EXCEEDED:
        return "DEADLINE_EXCEEDED";
      case GG_CANCELLED:
        return "CANCELLED";
      case GG_IO_ERROR:
        return "IO_ERROR";
      case GG_RESOURCE_EXHAUSTED:
        return "RESOURCE_EXHAUSTED";
      case GG_UNAVAILABLE:
        return "UNAVAILABLE";
      case GG_INTERNAL:
        return "INTERNAL";
    }
    return "UNKNOWN";
  } catch (...) {
    return "UNKNOWN";
  }
}

extern "C" int32_t gg_status_is_transient(gg_status status) {
  try {
    switch (status) {
      case GG_NUMERIC_FAULT:
      case GG_IO_ERROR:
      case GG_RESOURCE_EXHAUSTED:
      case GG_UNAVAILABLE:
        return 1;
      case GG_OK:
      case GG_INVALID_INPUT:
      case GG_DEADLINE_EXCEEDED:
      case GG_CANCELLED:
      case GG_INTERNAL:
        return 0;
    }
    return 0;
  } catch (...) {
    return 0;
  }
}

extern "C" gg_ctx* gg_init(void) {
  try {
    return new gg_ctx();
  } catch (...) {
    return nullptr;
  }
}

extern "C" void gg_free(gg_ctx* ctx) {
  try {
    delete ctx;
  } catch (...) {
    // Destruction must never propagate into C callers.
  }
}

extern "C" const char* gg_last_error(const gg_ctx* ctx) {
  try {
    return ctx == nullptr ? "" : ctx->last_error.c_str();
  } catch (...) {
    return "";
  }
}

extern "C" gg_status gg_load_graph(gg_ctx* ctx, const char* path) {
  try {
    if (ctx == nullptr) return GG_INVALID_INPUT;
    if (path == nullptr) {
      return Fail(ctx, GG_INVALID_INPUT, "gg_load_graph: path is NULL");
    }
    repro::status::StatusOr<repro::graph::Graph> loaded =
        repro::graph::LoadGraph(path);
    if (!loaded.ok()) return Settle(ctx, loaded.status());
    ctx->graph = std::move(loaded).value();
    ctx->has_graph = true;
    ctx->has_result = false;
    return Settle(ctx, Status::Ok());
  } catch (...) {
    return Caught(ctx, "gg_load_graph");
  }
}

extern "C" gg_status gg_save_graph(gg_ctx* ctx, const char* path) {
  try {
    if (ctx == nullptr) return GG_INVALID_INPUT;
    if (path == nullptr) {
      return Fail(ctx, GG_INVALID_INPUT, "gg_save_graph: path is NULL");
    }
    if (!ctx->has_graph) {
      return Fail(ctx, GG_INVALID_INPUT, "gg_save_graph: no graph loaded");
    }
    return Settle(ctx, repro::graph::SaveGraph(ctx->graph, path));
  } catch (...) {
    return Caught(ctx, "gg_save_graph");
  }
}

extern "C" gg_status gg_set_graph_csr(gg_ctx* ctx, int32_t num_nodes,
                                      int32_t num_classes,
                                      const int64_t* row_ptr,
                                      const int32_t* col_idx,
                                      int32_t num_features,
                                      const float* features,
                                      const int32_t* labels) {
  try {
    if (ctx == nullptr) return GG_INVALID_INPUT;
    if (num_nodes < 0 || num_classes <= 0 || num_features < 0) {
      return Fail(ctx, GG_INVALID_INPUT,
                  "gg_set_graph_csr: negative dimension");
    }
    if (row_ptr == nullptr || (row_ptr[num_nodes] > 0 && col_idx == nullptr)) {
      return Fail(ctx, GG_INVALID_INPUT,
                  "gg_set_graph_csr: NULL adjacency buffer");
    }
    if (num_features > 0 && features == nullptr) {
      return Fail(ctx, GG_INVALID_INPUT,
                  "gg_set_graph_csr: NULL feature buffer");
    }
    if (row_ptr[0] != 0) {
      return Fail(ctx, GG_INVALID_INPUT,
                  "gg_set_graph_csr: row_ptr[0] != 0");
    }
    // The whole row_ptr first: its last entry sizes the allocation below.
    for (int32_t u = 0; u < num_nodes; ++u) {
      if (row_ptr[u + 1] < row_ptr[u]) {
        return Fail(ctx, GG_INVALID_INPUT,
                    "gg_set_graph_csr: row_ptr decreases at row " +
                        std::to_string(u));
      }
    }
    std::vector<std::tuple<int, int, float>> triplets;
    triplets.reserve(static_cast<size_t>(row_ptr[num_nodes]));
    // last_row[v] == u once row u listed column v: a repeat would be
    // summed into weight 2 by FromTriplets.
    std::vector<int32_t> last_row(static_cast<size_t>(num_nodes), -1);
    for (int32_t u = 0; u < num_nodes; ++u) {
      for (int64_t k = row_ptr[u]; k < row_ptr[u + 1]; ++k) {
        const int32_t v = col_idx[k];
        if (v < 0 || v >= num_nodes) {
          return Fail(ctx, GG_INVALID_INPUT,
                      "gg_set_graph_csr: column index out of range");
        }
        if (v == u) {
          return Fail(ctx, GG_INVALID_INPUT,
                      "gg_set_graph_csr: self-loop rejected");
        }
        if (last_row[static_cast<size_t>(v)] == u) {
          return Fail(ctx, GG_INVALID_INPUT,
                      "gg_set_graph_csr: duplicate column " +
                          std::to_string(v) + " in row " + std::to_string(u));
        }
        last_row[static_cast<size_t>(v)] = u;
        triplets.emplace_back(u, v, 1.0f);
      }
    }
    repro::graph::Graph g;
    g.num_nodes = num_nodes;
    g.num_classes = num_classes;
    g.adjacency = repro::linalg::SparseMatrix::FromTriplets(
        num_nodes, num_nodes, triplets);
    for (const auto& [u, v, w] : triplets) {
      (void)w;
      if (g.adjacency.At(v, u) <= 0.0f) {
        return Fail(ctx, GG_INVALID_INPUT,
                    "gg_set_graph_csr: adjacency is not symmetric");
      }
    }
    // Features are binary: the graph file stores the 1 coordinates,
    // and feature flips and Jaccard read a cell as 0 or 1. NaN and Inf
    // get their own message (models multiply over the features'
    // nonzeros, which equals the dense product only for finite values).
    const int64_t cells = static_cast<int64_t>(num_nodes) * num_features;
    for (int64_t i = 0; i < cells; ++i) {
      const float value = features[i];
      if (value == 0.0f || value == 1.0f) continue;
      return Fail(ctx, GG_INVALID_INPUT,
                  "gg_set_graph_csr: feature of node " +
                      std::to_string(i / num_features) + " column " +
                      std::to_string(i % num_features) +
                      (std::isfinite(value) ? " is not 0 or 1"
                                            : " is not finite"));
    }
    g.features = repro::linalg::Matrix(num_nodes, num_features);
    if (num_features > 0) {
      std::memcpy(g.features.data(), features,
                  static_cast<size_t>(num_nodes) * num_features *
                      sizeof(float));
    }
    g.labels.assign(num_nodes, 0);
    if (labels != nullptr) {
      for (int32_t v = 0; v < num_nodes; ++v) {
        if (labels[v] < 0 || labels[v] >= num_classes) {
          return Fail(ctx, GG_INVALID_INPUT,
                      "gg_set_graph_csr: label out of range");
        }
        g.labels[v] = labels[v];
      }
    }
    g.name = "csr";
    ctx->graph = std::move(g);
    ctx->has_graph = true;
    ctx->has_result = false;
    return Settle(ctx, Status::Ok());
  } catch (...) {
    return Caught(ctx, "gg_set_graph_csr");
  }
}

extern "C" gg_status gg_assign_splits(gg_ctx* ctx, double train_frac,
                                      double val_frac, uint64_t seed) {
  try {
    if (ctx == nullptr) return GG_INVALID_INPUT;
    if (!ctx->has_graph) {
      return Fail(ctx, GG_INVALID_INPUT,
                  "gg_assign_splits: no graph loaded");
    }
    if (train_frac < 0.0 || val_frac < 0.0 ||
        train_frac + val_frac > 1.0) {
      return Fail(ctx, GG_INVALID_INPUT,
                  "gg_assign_splits: fractions out of range");
    }
    repro::linalg::Rng rng(seed);
    repro::graph::AssignSplits(&ctx->graph, train_frac, val_frac, &rng);
    return Settle(ctx, Status::Ok());
  } catch (...) {
    return Caught(ctx, "gg_assign_splits");
  }
}

extern "C" int32_t gg_num_nodes(const gg_ctx* ctx) {
  try {
    return (ctx != nullptr && ctx->has_graph) ? ctx->graph.num_nodes : 0;
  } catch (...) {
    return 0;
  }
}

extern "C" int64_t gg_num_edges(const gg_ctx* ctx) {
  try {
    return (ctx != nullptr && ctx->has_graph) ? ctx->graph.NumEdges() : 0;
  } catch (...) {
    return 0;
  }
}

extern "C" const char* gg_graph_name(const gg_ctx* ctx) {
  try {
    return (ctx != nullptr && ctx->has_graph) ? ctx->graph.name.c_str()
                                              : "";
  } catch (...) {
    return "";
  }
}

extern "C" void gg_attack_options_init(gg_attack_options* options) {
  try {
    if (options == nullptr) return;
    // Static, so the strings it lends the caller outlive every call.
    static const repro::eval::AttackerSpec defaults;
    repro::capi::ToAttackOptions(defaults, options);
  } catch (...) {
    // Nothing here should throw; keep the boundary contract anyway.
  }
}

extern "C" gg_status gg_attack(gg_ctx* ctx,
                               const gg_attack_options* options) {
  try {
    if (ctx == nullptr) return GG_INVALID_INPUT;
    if (options == nullptr) {
      return Fail(ctx, GG_INVALID_INPUT, "gg_attack: options is NULL");
    }
    if (!ctx->has_graph) {
      return Fail(ctx, GG_INVALID_INPUT, "gg_attack: no graph loaded");
    }
    const repro::eval::AttackerSpec spec =
        repro::capi::FromAttackOptions(*options);
    // Checked before the deadline is armed, so a refused call does not
    // consume a pending gg_cancel.
    if (const Status valid = repro::eval::Validate(spec); !valid.ok()) {
      return Settle(ctx, valid.WithContext("gg_attack"));
    }
    OpGuard guard(ctx);
    repro::eval::AttackRun run =
        repro::eval::RunAttackOp(ctx->graph, spec, ArmDeadline(ctx));
    if (run.result.status.code() == Code::kInvalidInput) {
      // Nothing was attacked (e.g. a rejected checkpoint): leave the
      // current graph and any previous result untouched.
      return Settle(ctx, run.result.status);
    }
    ctx->result_name = run.attacker;
    ctx->graph = run.result.poisoned;
    ctx->result = std::move(run.result);
    ctx->has_result = true;
    return Settle(ctx, ctx->result.status);
  } catch (...) {
    return Caught(ctx, "gg_attack");
  }
}

extern "C" int32_t gg_num_flips(const gg_ctx* ctx) {
  try {
    if (ctx == nullptr || !ctx->has_result) return 0;
    return static_cast<int32_t>(ctx->result.flips.size());
  } catch (...) {
    return 0;
  }
}

extern "C" gg_status gg_get_flip(const gg_ctx* ctx, int32_t index,
                                 gg_flip* out) {
  try {
    if (ctx == nullptr || out == nullptr) return GG_INVALID_INPUT;
    if (!ctx->has_result || index < 0 ||
        index >= static_cast<int32_t>(ctx->result.flips.size())) {
      return GG_INVALID_INPUT;
    }
    const repro::attack::Flip& flip = ctx->result.flips[index];
    out->is_feature = flip.is_feature ? 1 : 0;
    out->a = flip.a;
    out->b = flip.b;
    return GG_OK;
  } catch (...) {
    return Caught(nullptr, "gg_get_flip");
  }
}

extern "C" int32_t gg_edge_modifications(const gg_ctx* ctx) {
  try {
    return (ctx != nullptr && ctx->has_result)
               ? ctx->result.edge_modifications
               : 0;
  } catch (...) {
    return 0;
  }
}

extern "C" int32_t gg_feature_modifications(const gg_ctx* ctx) {
  try {
    return (ctx != nullptr && ctx->has_result)
               ? ctx->result.feature_modifications
               : 0;
  } catch (...) {
    return 0;
  }
}

extern "C" double gg_elapsed_seconds(const gg_ctx* ctx) {
  try {
    return (ctx != nullptr && ctx->has_result)
               ? ctx->result.elapsed_seconds
               : 0.0;
  } catch (...) {
    return 0.0;
  }
}

extern "C" double gg_final_objective(const gg_ctx* ctx) {
  try {
    return (ctx != nullptr && ctx->has_result)
               ? ctx->result.final_objective
               : 0.0;
  } catch (...) {
    return 0.0;
  }
}

extern "C" const char* gg_result_name(const gg_ctx* ctx) {
  try {
    return (ctx != nullptr && ctx->has_result)
               ? ctx->result_name.c_str()
               : "";
  } catch (...) {
    return "";
  }
}

extern "C" gg_status gg_defend(gg_ctx* ctx, const char* defender,
                               uint64_t seed, gg_defense_report* out) {
  try {
    if (ctx == nullptr) return GG_INVALID_INPUT;
    if (out == nullptr) {
      return Fail(ctx, GG_INVALID_INPUT, "gg_defend: out is NULL");
    }
    if (!ctx->has_graph) {
      return Fail(ctx, GG_INVALID_INPUT, "gg_defend: no graph loaded");
    }
    const repro::eval::EvalSpec spec{.defender = CStr(defender), .seed = seed};
    if (const Status valid = repro::eval::Validate(spec); !valid.ok()) {
      return Settle(ctx, valid.WithContext("gg_defend"));
    }
    std::unique_ptr<repro::defense::Defender> d =
        repro::eval::MakeDefenderByName(spec.defender);
    repro::nn::TrainOptions train;
    train.deadline = ArmDeadline(ctx);
    OpGuard guard(ctx);
    repro::linalg::Rng rng(seed);
    const repro::defense::DefenseReport report =
        d->Run(ctx->graph, train, &rng);
    out->test_accuracy = report.test_accuracy;
    out->val_accuracy = report.val_accuracy;
    out->train_seconds = report.train_seconds;
    return Settle(ctx, report.status);
  } catch (...) {
    return Caught(ctx, "gg_defend");
  }
}

extern "C" gg_status gg_eval(gg_ctx* ctx, const char* defender,
                             int32_t runs, uint64_t seed,
                             gg_eval_result* out) {
  try {
    if (ctx == nullptr) return GG_INVALID_INPUT;
    if (out == nullptr) {
      return Fail(ctx, GG_INVALID_INPUT, "gg_eval: out is NULL");
    }
    if (!ctx->has_graph) {
      return Fail(ctx, GG_INVALID_INPUT, "gg_eval: no graph loaded");
    }
    const repro::eval::EvalSpec spec{
        .defender = CStr(defender), .runs = runs, .seed = seed};
    if (const Status valid = repro::eval::Validate(spec); !valid.ok()) {
      return Settle(ctx, valid.WithContext("gg_eval"));
    }
    OpGuard guard(ctx);
    const repro::eval::DefenseEvaluation evaluation =
        repro::eval::RunEvalOp(ctx->graph, spec, ArmDeadline(ctx)).evaluation;
    out->accuracy_mean = evaluation.accuracy.mean;
    out->accuracy_std = evaluation.accuracy.std;
    out->mean_train_seconds = evaluation.mean_train_seconds;
    out->ok_runs = evaluation.ok_runs;
    return Settle(ctx, evaluation.status);
  } catch (...) {
    return Caught(ctx, "gg_eval");
  }
}

extern "C" gg_status gg_train_model(gg_ctx* ctx, int32_t hidden_dim,
                                    int32_t num_layers, uint64_t seed) {
  try {
    if (ctx == nullptr) return GG_INVALID_INPUT;
    if (!ctx->has_graph) {
      return Fail(ctx, GG_INVALID_INPUT, "gg_train_model: no graph loaded");
    }
    if (hidden_dim <= 0 || num_layers <= 0) {
      return Fail(ctx, GG_INVALID_INPUT,
                  "gg_train_model: hidden_dim and num_layers must be >= 1");
    }
    if (ctx->graph.train_nodes.empty()) {
      return Fail(ctx, GG_INVALID_INPUT,
                  "gg_train_model: graph has no training split "
                  "(call gg_assign_splits)");
    }
    repro::nn::Gcn::Options options;
    options.hidden_dim = hidden_dim;
    options.num_layers = num_layers;
    repro::linalg::Rng rng(seed);
    auto model = std::make_unique<repro::nn::Gcn>(
        ctx->graph.features.cols(), ctx->graph.num_classes, options,
        &rng);
    repro::nn::TrainOptions train;
    train.deadline = ArmDeadline(ctx);
    OpGuard guard(ctx);
    const repro::nn::TrainReport report = repro::nn::TrainNodeClassifier(
        model.get(), ctx->graph, train, &rng);
    ctx->model = std::move(model);
    ctx->model_options = options;
    ctx->model_in_dim = ctx->graph.features.cols();
    ctx->model_classes = ctx->graph.num_classes;
    return Settle(ctx, report.status);
  } catch (...) {
    return Caught(ctx, "gg_train_model");
  }
}

extern "C" gg_status gg_model_accuracy(gg_ctx* ctx,
                                       double* out_test_accuracy) {
  try {
    if (ctx == nullptr) return GG_INVALID_INPUT;
    if (out_test_accuracy == nullptr) {
      return Fail(ctx, GG_INVALID_INPUT, "gg_model_accuracy: out is NULL");
    }
    if (ctx->model == nullptr) {
      return Fail(ctx, GG_INVALID_INPUT, "gg_model_accuracy: no model "
                  "(call gg_train_model or gg_load_model)");
    }
    if (!ctx->has_graph) {
      return Fail(ctx, GG_INVALID_INPUT, "gg_model_accuracy: no graph");
    }
    if (ctx->graph.test_nodes.empty()) {
      return Fail(ctx, GG_INVALID_INPUT,
                  "gg_model_accuracy: graph has no test split");
    }
    if (ctx->graph.features.cols() != ctx->model_in_dim ||
        ctx->graph.num_classes != ctx->model_classes) {
      return Fail(ctx, GG_INVALID_INPUT,
                  "gg_model_accuracy: model/graph shape mismatch");
    }
    // PredictLabels does not Prepare; a freshly loaded model (or a
    // graph swapped by gg_attack) needs its propagation matrix rebuilt.
    ctx->model->Prepare(ctx->graph);
    repro::linalg::Rng rng(1);  // eval mode: dropout off, rng unused
    *out_test_accuracy = repro::graph::Accuracy(
        repro::nn::PredictLabels(ctx->model.get(), ctx->graph, &rng),
        ctx->graph.labels, ctx->graph.test_nodes);
    return Settle(ctx, Status::Ok());
  } catch (...) {
    return Caught(ctx, "gg_model_accuracy");
  }
}

extern "C" gg_status gg_save_model(gg_ctx* ctx, const char* path) {
  try {
    if (ctx == nullptr) return GG_INVALID_INPUT;
    if (path == nullptr) {
      return Fail(ctx, GG_INVALID_INPUT, "gg_save_model: path is NULL");
    }
    if (ctx->model == nullptr) {
      return Fail(ctx, GG_INVALID_INPUT, "gg_save_model: no model");
    }
    std::string text = "GGMODEL 1\n";
    text += std::to_string(ctx->model_in_dim) + " " +
            std::to_string(ctx->model_classes) + " " +
            std::to_string(ctx->model_options.hidden_dim) + " " +
            std::to_string(ctx->model_options.num_layers) + " " +
            (ctx->model_options.bias ? "1" : "0") + "\n";
    const std::vector<repro::linalg::Matrix*> params =
        ctx->model->Parameters();
    text += std::to_string(params.size()) + "\n";
    for (const repro::linalg::Matrix* m : params) {
      text += "P " + std::to_string(m->rows()) + " " +
              std::to_string(m->cols()) + "\n";
      for (int64_t i = 0; i < m->size(); ++i) {
        AppendHexFloat(&text, m->data()[i]);
        text += (i + 1) % 8 == 0 || i + 1 == m->size() ? "\n" : " ";
      }
      if (m->size() == 0) text += "\n";
    }
    std::string error;
    if (!repro::obs::ReplaceFile(path, text, &error)) {
      return Settle(ctx,
                    repro::status::IoError("gg_save_model: " + error));
    }
    return Settle(ctx, Status::Ok());
  } catch (...) {
    return Caught(ctx, "gg_save_model");
  }
}

extern "C" gg_status gg_load_model(gg_ctx* ctx, const char* path) {
  try {
    if (ctx == nullptr) return GG_INVALID_INPUT;
    if (path == nullptr) {
      return Fail(ctx, GG_INVALID_INPUT, "gg_load_model: path is NULL");
    }
    repro::status::StatusOr<repro::graph::TokenReader> opened =
        repro::graph::TokenReader::Open(path);
    if (!opened.ok()) {
      return Settle(ctx, opened.status().WithContext("gg_load_model"));
    }
    repro::graph::TokenReader& reader = *opened;
    constexpr long long kMaxInt = std::numeric_limits<int>::max();
    long long in_dim = 0, classes = 0, hidden = 0, layers = 0, bias = 0;
    repro::nn::Gcn::Options options;
    std::unique_ptr<repro::nn::Gcn> model;
    const Status read = [&]() -> Status {
      std::string magic;
      long long version = 0;
      PEEGA_RETURN_IF_ERROR(reader.NextToken(&magic), "header");
      if (magic != "GGMODEL") {
        return InvalidInput(reader.Where() + ": bad magic '" + magic + "'");
      }
      PEEGA_RETURN_IF_ERROR(reader.ReadInt("version", 1, 1, &version),
                            "header");
      for (const auto& [what, value] :
           {std::pair<const char*, long long*>{"in_dim", &in_dim},
            {"classes", &classes}, {"hidden", &hidden}, {"layers", &layers}}) {
        PEEGA_RETURN_IF_ERROR(reader.ReadInt(what, 1, kMaxInt, value), "dims");
      }
      PEEGA_RETURN_IF_ERROR(reader.ReadInt("bias", 0, 1, &bias), "dims");
      // Each weight takes at least a character and a separator, so the
      // bytes left bound the model before Gcn allocates it.
      const long long capacity = reader.BytesLeft() / 2;
      long long weights = 0;
      long long dim = in_dim;
      for (long long l = 0; l < layers && weights <= capacity; ++l) {
        const long long out_dim = l + 1 == layers ? classes : hidden;
        weights += dim * out_dim + bias * out_dim;
        dim = out_dim;
      }
      if (weights > capacity) {
        return InvalidInput(reader.Where() + ": the dims need more weights " +
                            "than the " + std::to_string(reader.BytesLeft()) +
                            " bytes left can hold");
      }
      options.hidden_dim = static_cast<int>(hidden);
      options.num_layers = static_cast<int>(layers);
      options.bias = bias != 0;
      repro::linalg::Rng rng(0);
      model = std::make_unique<repro::nn::Gcn>(
          static_cast<int>(in_dim), static_cast<int>(classes), options, &rng);
      const std::vector<repro::linalg::Matrix*> params = model->Parameters();
      const long long count = static_cast<long long>(params.size());
      long long num_params = 0;
      PEEGA_RETURN_IF_ERROR(
          reader.ReadInt("parameter count", count, count, &num_params),
          "dims");
      for (size_t p = 0; p < params.size(); ++p) {
        repro::linalg::Matrix* m = params[p];
        const std::string param = "parameter " + std::to_string(p);
        std::string tag;
        long long rows = 0, cols = 0;
        PEEGA_RETURN_IF_ERROR(reader.NextToken(&tag), param);
        if (tag != "P") {
          return InvalidInput(reader.Where() + ": " + param +
                              ": expected 'P', got '" + tag + "'");
        }
        PEEGA_RETURN_IF_ERROR(
            reader.ReadInt("rows", m->rows(), m->rows(), &rows), param);
        PEEGA_RETURN_IF_ERROR(
            reader.ReadInt("cols", m->cols(), m->cols(), &cols), param);
        for (int64_t i = 0; i < m->size(); ++i) {
          std::string token;
          PEEGA_RETURN_IF_ERROR(reader.NextToken(&token), param);
          char* end = nullptr;
          const float v = std::strtof(token.c_str(), &end);
          if (end == token.c_str() || *end != '\0' || !std::isfinite(v)) {
            return InvalidInput(reader.Where() + ": " + param + " weight " +
                                std::to_string(i) + ": not a finite number '" +
                                token + "'");
          }
          m->data()[i] = v;
        }
      }
      return Status::Ok();
    }();
    if (!read.ok()) return Settle(ctx, read.WithContext("gg_load_model"));
    ctx->model = std::move(model);
    ctx->model_options = options;
    ctx->model_in_dim = static_cast<int>(in_dim);
    ctx->model_classes = static_cast<int>(classes);
    return Settle(ctx, Status::Ok());
  } catch (...) {
    return Caught(ctx, "gg_load_model");
  }
}

extern "C" gg_status gg_set_deadline_ms(gg_ctx* ctx, double ms) {
  try {
    if (ctx == nullptr) return GG_INVALID_INPUT;
    std::lock_guard<std::mutex> lock(ctx->mu);
    if (std::isnan(ms)) {
      return Fail(ctx, GG_INVALID_INPUT, "gg_set_deadline_ms: ms is NaN");
    }
    ctx->budget_ms = ms > 0.0 ? ms : 0.0;
    ctx->last_error.clear();
    return GG_OK;
  } catch (...) {
    return Caught(ctx, "gg_set_deadline_ms");
  }
}

extern "C" gg_status gg_cancel(gg_ctx* ctx) {
  try {
    if (ctx == nullptr) return GG_INVALID_INPUT;
    std::lock_guard<std::mutex> lock(ctx->mu);
    if (ctx->op_in_flight) {
      ctx->active.RequestCancel();
    } else {
      // No operation running: cancel the NEXT one at its first check,
      // so cancel/start races resolve deterministically.
      ctx->pending_cancel = true;
    }
    return GG_OK;
  } catch (...) {
    return Caught(ctx, "gg_cancel");
  }
}
