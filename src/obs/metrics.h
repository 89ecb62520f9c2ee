#ifndef PEEGA_OBS_METRICS_H_
#define PEEGA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace repro::obs {

/// Process-wide registry of named counters, gauges, and fixed-bucket
/// histograms, snapshotable to JSON.
///
/// Collection is always on: every instrument is a relaxed atomic, so an
/// update costs one uncontended RMW and hot loops amortize further by
/// accumulating locally and adding once per chunk (see
/// `attack::ScanCache::Scan`). Lookup by name takes a lock — call sites
/// cache the pointer in a function-local static:
///
///     static obs::Counter* const calls = obs::GetCounter("spmm.calls");
///     calls->Add(1);
///
/// Determinism contract: metric *counts* (counters, histogram totals)
/// produced by the deterministic kernels are identical at any thread
/// count, because everything they count (chunks, scanned candidates,
/// FLOPs) is a function of the static partition, never of the worker
/// assignment. Latency *values* (gauge readings, histogram bucket
/// spread) are machine-dependent by nature. tests/obs_test.cc pins the
/// former at 1/2/8 threads.

class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Histogram over fixed upper-bound buckets: bucket i counts values
/// v <= bounds[i] (cumulative-exclusive style, first matching bucket
/// wins), and one implicit overflow bucket counts v > bounds.back().
/// Bucket boundaries are fixed at registration; re-registering the same
/// name with different bounds is a programming error and is checked.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket `i`; `i == bounds().size()` is the overflow bucket.
  uint64_t bucket_count(size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  uint64_t total_count() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  const std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<double> sum_{0.0};
};

/// Default latency bucket bounds in milliseconds (sub-ms to minutes,
/// roughly 3x apart) for the per-phase histograms.
const std::vector<double>& LatencyBucketsMs();

/// Registry lookups: create-on-first-use, then return the same pointer
/// forever (instruments are never destroyed, so cached pointers stay
/// valid for the process lifetime).
Counter* GetCounter(const std::string& name);
Gauge* GetGauge(const std::string& name);
/// `bounds` must be strictly increasing and non-empty; a second call
/// with the same name must pass identical bounds.
Histogram* GetHistogram(const std::string& name, std::vector<double> bounds);

/// Point-in-time copy of every registered instrument.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<uint64_t> counts;  // bounds.size() + 1, last = overflow
  uint64_t total = 0;
  double sum = 0.0;
};

struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

MetricsSnapshot SnapshotMetrics();

/// Zeroes every instrument (registrations and cached pointers stay
/// valid). Benches call this after warm-up so the exported snapshot
/// covers only measured work.
void ResetMetrics();

/// Serializes a snapshot as one JSON object:
///   {"counters":{...},"gauges":{...},
///    "histograms":{"name":{"count":..,"sum":..,
///                          "buckets":[{"le":..,"count":..},...]}}}
/// The overflow bucket's "le" is the string "inf".
std::string MetricsToJson(const MetricsSnapshot& snapshot);

}  // namespace repro::obs

#endif  // PEEGA_OBS_METRICS_H_
