#include "bench_support.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/json.h"
#include "obs/trace.h"

namespace repro::ggbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                     static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string CaptureTrace() {
  std::ostringstream out;
  out.precision(17);
  obs::FlushTraceTo(out);
  return out.str();
}

bool ParseTrace(const std::string& json, std::vector<TraceEvent>* events,
                std::string* error) {
  obs::Json root;
  if (!obs::Json::Parse(json, &root, error)) return false;
  const obs::Json* list = root.Find("traceEvents");
  if (list == nullptr || list->type != obs::Json::Type::kArray) {
    *error = "no traceEvents array";
    return false;
  }
  events->clear();
  for (const obs::Json& entry : list->array) {
    const obs::Json* ph = entry.Find("ph");
    if (ph == nullptr || ph->string_value != "X") continue;
    const obs::Json* name = entry.Find("name");
    const obs::Json* tid = entry.Find("tid");
    const obs::Json* ts = entry.Find("ts");
    const obs::Json* dur = entry.Find("dur");
    if (name == nullptr || tid == nullptr || ts == nullptr || dur == nullptr) {
      *error = "X event without name/tid/ts/dur";
      return false;
    }
    events->push_back({name->string_value,
                       static_cast<int>(tid->number_value), ts->number_value,
                       dur->number_value});
  }
  return true;
}

TraceFold FoldTrace(std::vector<TraceEvent> events) {
  // Integer nanoseconds: the tracer records whole nanoseconds, so with
  // full-precision timestamps nesting comparisons are exact.
  struct Span {
    const TraceEvent* event;
    int64_t begin_ns;
    int64_t end_ns;
    int64_t children_ns = 0;
  };
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.dur_us > b.dur_us;  // parent before its first child
            });
  TraceFold fold;
  std::vector<Span> stack;
  const auto close_top = [&] {
    const Span top = stack.back();
    stack.pop_back();
    const bool is_region = top.event->name == "parallel.region";
    const bool charged_to_parent = is_region && !stack.empty();
    const int64_t duration_ns = top.end_ns - top.begin_ns;
    SpanTotals& totals = fold[top.event->name];
    totals.count += 1;
    totals.total_ms += static_cast<double>(duration_ns) / 1e6;
    if (!charged_to_parent) {
      totals.self_ms +=
          static_cast<double>(duration_ns - top.children_ns) / 1e6;
    }
    if (!stack.empty()) {
      // A charged region hides only its own children from the parent's
      // self time; its self time stays with the parent.
      stack.back().children_ns +=
          charged_to_parent ? top.children_ns : duration_ns;
    }
  };
  int tid = 0;
  for (const TraceEvent& event : events) {
    const int64_t begin_ns = std::llround(event.ts_us * 1e3);
    const int64_t end_ns = begin_ns + std::llround(event.dur_us * 1e3);
    if (event.tid != tid) {
      while (!stack.empty()) close_top();
      tid = event.tid;
    }
    while (!stack.empty() && stack.back().end_ns <= begin_ns) close_top();
    stack.push_back({&event, begin_ns, end_ns});
  }
  while (!stack.empty()) close_top();
  return fold;
}

std::string LayerOf(const std::string& name) {
  const auto starts = [&](const char* prefix) {
    return name.rfind(prefix, 0) == 0;
  };
  if (name == "linalg.dot_rows" || name == "linalg.dot_cols" ||
      name == "linalg.norm_spmm_rows") {
    return "linalg.incremental";
  }
  if (starts("linalg.")) return "linalg.dense";
  if (name == "attack.best_edge_flip") return "attack.edge_scan";
  if (name == "attack.best_feature_flip") return "attack.feature_scan";
  if (starts("peega_engine.")) return "core.engine";
  if (starts("peega.") || starts("peega_batch.")) return "core.greedy";
  if (name == "gnat.build_views") return "core.gnat_views";
  if (name == "gnat.build_feature_graph") return "core.gnat_feature_graph";
  if (name == "gnat.build_topology_graph") return "core.gnat_topology_graph";
  if (starts("gnat.")) return "core.gnat_forward";
  const size_t dot = name.find('.');
  return dot == std::string::npos ? "other" : name.substr(0, dot);
}

std::map<std::string, double> LayerSelfMs(const TraceFold& fold) {
  std::map<std::string, double> layers;
  for (const auto& [name, totals] : fold) {
    layers[LayerOf(name)] += totals.self_ms;
  }
  return layers;
}

std::string FlipMismatch(const std::vector<attack::Flip>& expected,
                         const std::vector<attack::Flip>& actual) {
  const auto describe = [](const attack::Flip& flip) {
    return std::string(flip.is_feature ? "feature(" : "edge(") +
           std::to_string(flip.a) + "," + std::to_string(flip.b) + ")";
  };
  const size_t common = std::min(expected.size(), actual.size());
  for (size_t i = 0; i < common; ++i) {
    if (expected[i] != actual[i]) {
      return "flip " + std::to_string(i) + " is " + describe(actual[i]) +
             ", expected " + describe(expected[i]);
    }
  }
  if (expected.size() != actual.size()) {
    return std::to_string(actual.size()) + " flips, expected " +
           std::to_string(expected.size());
  }
  return "";
}

std::string ValueMismatch(const std::string& what, double expected,
                          double actual, double rel_tol) {
  const double scale = std::max(1.0, std::abs(expected));
  if (std::abs(actual - expected) <= rel_tol * scale) return "";
  std::ostringstream out;
  out.precision(12);
  out << what << " is " << actual << ", expected " << expected;
  return out.str();
}

}  // namespace repro::ggbench
