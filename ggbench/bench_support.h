#ifndef PEEGA_GGBENCH_BENCH_SUPPORT_H_
#define PEEGA_GGBENCH_BENCH_SUPPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "attack/attacker.h"

namespace repro::ggbench {

// ---- Sample statistics --------------------------------------------------

/// Linear-interpolated percentile of `values` (any order), `p` in
/// [0, 100]. 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

// ---- Trace fold ---------------------------------------------------------

/// One complete ("X") event of a Chrome trace, times in microseconds.
struct TraceEvent {
  std::string name;
  int tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
};

/// Flushes the process trace (obs::FlushTraceTo) through a stream with
/// precision(17). The default six significant digits round a timestamp
/// past 1e7 us (10 s into the process) to 10 us, which makes children
/// appear to outlast their parents and self times go negative.
std::string CaptureTrace();

/// Reads the "X" events of a Chrome trace_event document. False, with
/// `error` set, on malformed input.
bool ParseTrace(const std::string& json, std::vector<TraceEvent>* events,
                std::string* error);

/// Per-span-name totals of a folded trace.
struct SpanTotals {
  double self_ms = 0.0;   // duration minus direct children
  double total_ms = 0.0;  // duration, children included
  int64_t count = 0;
};

/// Self time by span name. Nesting is reconstructed per thread from the
/// timestamps; a span's self time is its duration minus that of its
/// direct children. A `parallel.region` span is charged to its parent:
/// its self time is the calling thread running its own chunks and
/// waiting for the workers, which is the cost of the kernel or scan that
/// opened it. A region with no parent keeps its own entry.
using TraceFold = std::map<std::string, SpanTotals>;
TraceFold FoldTrace(std::vector<TraceEvent> events);

/// The layer a span name belongs to: "linalg.incremental" (row-subset
/// kernels), "linalg.dense", "attack.edge_scan", "attack.feature_scan",
/// "core.engine" (peega_engine.*), "core.greedy" (peega.*,
/// peega_batch.*), "core.gnat_views",
/// "core.gnat_feature_graph", "core.gnat_topology_graph",
/// "core.gnat_forward" (other gnat.*); otherwise the name's prefix before
/// the first '.' ("nn", "eval", "parallel" for an unparented region,
/// "bench" for the benchmark's own root spans, ...), or "other".
std::string LayerOf(const std::string& span_name);

/// Sums a fold's self times by LayerOf.
std::map<std::string, double> LayerSelfMs(const TraceFold& fold);

// ---- Output checks ------------------------------------------------------

/// "" when the two flip sequences are identical, else a description of
/// the first difference.
std::string FlipMismatch(const std::vector<attack::Flip>& expected,
                         const std::vector<attack::Flip>& actual);

/// "" when `actual` is within `rel_tol` of `expected` (relative to
/// |expected|, absolute below 1), else a description. NaN never matches.
std::string ValueMismatch(const std::string& what, double expected,
                          double actual, double rel_tol);

}  // namespace repro::ggbench

#endif  // PEEGA_GGBENCH_BENCH_SUPPORT_H_
