// Tests of the observability subsystem: trace span nesting and
// thread-buffer merging, counter/gauge/histogram math, the disabled-mode
// zero-allocation fast path, JSON parse-back of both exporters, and the
// determinism contract for metric counts at 1/2/8 threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "attack/common.h"
#include "linalg/matrix.h"
#include "linalg/ops.h"
#include "linalg/random.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/record.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

// ---------------------------------------------------------------------------
// Global allocation counter: plain operator new/delete are replaced for
// this test binary so the disabled-tracing fast path can assert it
// allocates NOTHING. All other tests tolerate the counter ticking.
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_allocation_count{0};
}  // namespace

// noinline keeps GCC's -Wmismatched-new-delete from pairing the inlined
// std::free against the (replaced) declaration of operator new.
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}

namespace repro {
namespace {

using linalg::Matrix;

// Restores the default pool size even when a test fails mid-sweep.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) { parallel::SetNumThreads(n); }
  ~ScopedThreads() { parallel::SetNumThreads(0); }
};

// Every trace test starts from a quiescent, empty, disabled tracer and
// leaves it that way for the next test.
class ScopedTracing {
 public:
  ScopedTracing() {
    obs::SetTracing(false);
    obs::ClearTrace();
    obs::SetTracing(true);
  }
  ~ScopedTracing() {
    obs::SetTracing(false);
    obs::ClearTrace();
  }
};

obs::Json ParseOrDie(const std::string& text) {
  obs::Json doc;
  std::string error;
  EXPECT_TRUE(obs::Json::Parse(text, &doc, &error)) << error << "\n" << text;
  return doc;
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

TEST(Trace, SpanNestingIsRecordedWithContainedTimestamps) {
  const ScopedTracing tracing;
  {
    const obs::TraceSpan outer("outer");
    {
      const obs::TraceSpan inner("inner");
    }
  }
  EXPECT_EQ(obs::TraceEventCount(), 2u);

  std::ostringstream out;
  obs::FlushTraceTo(out);
  const obs::Json doc = ParseOrDie(out.str());
  const obs::Json* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);

  const obs::Json* outer_event = nullptr;
  const obs::Json* inner_event = nullptr;
  for (const obs::Json& event : events->array) {
    const obs::Json* name = event.Find("name");
    ASSERT_NE(name, nullptr);
    if (name->string_value == "outer") outer_event = &event;
    if (name->string_value == "inner") inner_event = &event;
  }
  ASSERT_NE(outer_event, nullptr);
  ASSERT_NE(inner_event, nullptr);
  // The inner complete-event [ts, ts+dur) nests inside the outer one.
  const double outer_ts = outer_event->Find("ts")->number_value;
  const double outer_dur = outer_event->Find("dur")->number_value;
  const double inner_ts = inner_event->Find("ts")->number_value;
  const double inner_dur = inner_event->Find("dur")->number_value;
  EXPECT_LE(outer_ts, inner_ts);
  EXPECT_GE(outer_ts + outer_dur, inner_ts + inner_dur);
}

TEST(Trace, WorkerThreadBuffersMergeIntoOneTrace) {
  const ScopedThreads threads(4);
  const ScopedTracing tracing;
  constexpr int64_t kChunks = 16;
  std::atomic<int> ran{0};
  parallel::ParallelFor(0, kChunks, 1, [&](int64_t, int64_t) {
    const obs::TraceSpan span("work");
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), kChunks);
  // kChunks "work" spans + the dispatcher's own "parallel.region".
  EXPECT_EQ(obs::TraceEventCount(), static_cast<size_t>(kChunks) + 1u);

  std::ostringstream out;
  obs::FlushTraceTo(out);
  const obs::Json doc = ParseOrDie(out.str());
  const obs::Json* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  int work_events = 0;
  std::set<double> work_tids;
  std::set<double> named_tids;  // thread_name metadata events
  for (const obs::Json& event : events->array) {
    const std::string& ph = event.Find("ph")->string_value;
    if (ph == "M") {
      named_tids.insert(event.Find("tid")->number_value);
      continue;
    }
    ASSERT_EQ(ph, "X");
    if (event.Find("name")->string_value == "work") {
      ++work_events;
      work_tids.insert(event.Find("tid")->number_value);
    }
  }
  EXPECT_EQ(work_events, kChunks);
  // Every thread that recorded a span also has a thread_name record.
  for (const double tid : work_tids) {
    EXPECT_TRUE(named_tids.count(tid) == 1) << "unnamed tid " << tid;
  }
}

TEST(Trace, DisabledSpansAllocateNothingAndRecordNothing) {
  obs::SetTracing(false);
  obs::ClearTrace();
  const size_t events_before = obs::TraceEventCount();
  const uint64_t allocations_before =
      g_allocation_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    const obs::TraceSpan span("disabled");
  }
  const uint64_t allocations_after =
      g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(allocations_after, allocations_before)
      << "disabled TraceSpan must not allocate";
  EXPECT_EQ(obs::TraceEventCount(), events_before);
}

TEST(Trace, ClearTraceDropsBufferedEvents) {
  const ScopedTracing tracing;
  {
    const obs::TraceSpan span("dropped");
  }
  EXPECT_EQ(obs::TraceEventCount(), 1u);
  obs::ClearTrace();
  EXPECT_EQ(obs::TraceEventCount(), 0u);
}

TEST(Trace, ExportIsValidChromeTraceJson) {
  const ScopedTracing tracing;
  {
    const obs::TraceSpan span("exported \"span\" \\ with escapes");
  }
  std::ostringstream out;
  obs::FlushTraceTo(out);
  const obs::Json doc = ParseOrDie(out.str());
  ASSERT_EQ(doc.type, obs::Json::Type::kObject);
  const obs::Json* unit = doc.Find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->string_value, "ms");
  const obs::Json* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, obs::Json::Type::kArray);
  bool found = false;
  for (const obs::Json& event : events->array) {
    if (event.Find("ph")->string_value != "X") continue;
    found = true;
    EXPECT_NE(event.Find("name"), nullptr);
    EXPECT_NE(event.Find("ts"), nullptr);
    EXPECT_NE(event.Find("dur"), nullptr);
    EXPECT_NE(event.Find("pid"), nullptr);
    EXPECT_NE(event.Find("tid"), nullptr);
    EXPECT_GE(event.Find("dur")->number_value, 0.0);
  }
  EXPECT_TRUE(found);
}

// Timestamps keep nanosecond resolution (three decimals of µs) however
// late in the trace they fall and whatever the caller's stream state: a
// stream at precision(2) must not round them or switch to exponents.
TEST(Trace, TimestampsPrintThreeDecimalsAtAnyStreamPrecision) {
  const ScopedTracing tracing;
  const auto busy_wait_ms = [](double ms) {
    const obs::StopWatch watch;
    while (watch.Millis() < ms) {
    }
  };
  busy_wait_ms(2.0);  // every later ts is past 1000 µs
  {
    const obs::TraceSpan span("long");
    busy_wait_ms(1.5);
  }
  std::ostringstream out;
  out.precision(2);
  obs::FlushTraceTo(out);
  const std::string text = out.str();
  ParseOrDie(text);
  int checked = 0;
  for (const std::string key : {"\"ts\":", "\"dur\":"}) {
    for (size_t at = text.find(key); at != std::string::npos;
         at = text.find(key, at + 1)) {
      const size_t begin = at + key.size();
      const size_t end = text.find_first_of(",}", begin);
      const std::string value = text.substr(begin, end - begin);
      const size_t dot = value.find('.');
      ASSERT_NE(dot, std::string::npos) << value;
      EXPECT_EQ(value.size() - dot - 1, 3u) << value;
      EXPECT_EQ(value.find_first_not_of("0123456789."), std::string::npos)
          << value;
      ++checked;
    }
  }
  EXPECT_GE(checked, 2);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(Metrics, CounterAddsAndResets) {
  obs::Counter* counter = obs::GetCounter("test.counter");
  counter->Reset();
  counter->Add();
  counter->Add(41);
  EXPECT_EQ(counter->value(), 42u);
  // Same name returns the same instrument.
  EXPECT_EQ(obs::GetCounter("test.counter"), counter);
  counter->Reset();
  EXPECT_EQ(counter->value(), 0u);
}

TEST(Metrics, GaugeHoldsLastValue) {
  obs::Gauge* gauge = obs::GetGauge("test.gauge");
  gauge->Set(2.5);
  gauge->Set(-1.0);
  EXPECT_EQ(gauge->value(), -1.0);
}

TEST(Metrics, HistogramBucketBoundariesAndOverflow) {
  obs::Histogram* histogram =
      obs::GetHistogram("test.histogram", {1.0, 2.0, 4.0});
  histogram->Reset();
  // v <= bounds[i], first match wins: exactly-on-boundary goes low.
  histogram->Observe(0.5);  // bucket 0
  histogram->Observe(1.0);  // bucket 0 (boundary)
  histogram->Observe(1.5);  // bucket 1
  histogram->Observe(4.0);  // bucket 2 (boundary)
  histogram->Observe(100.0);  // overflow
  histogram->Observe(-3.0);  // bucket 0 (below the lowest bound)
  EXPECT_EQ(histogram->bucket_count(0), 3u);
  EXPECT_EQ(histogram->bucket_count(1), 1u);
  EXPECT_EQ(histogram->bucket_count(2), 1u);
  EXPECT_EQ(histogram->bucket_count(3), 1u);  // overflow bucket
  EXPECT_EQ(histogram->total_count(), 6u);
  EXPECT_DOUBLE_EQ(histogram->sum(), 0.5 + 1.0 + 1.5 + 4.0 + 100.0 - 3.0);
  histogram->Reset();
  EXPECT_EQ(histogram->total_count(), 0u);
  EXPECT_EQ(histogram->sum(), 0.0);
}

TEST(Metrics, LatencyBucketsAreStrictlyIncreasing) {
  const std::vector<double>& bounds = obs::LatencyBucketsMs();
  ASSERT_FALSE(bounds.empty());
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(Metrics, SnapshotRoundTripsThroughJson) {
  obs::GetCounter("test.snapshot.counter")->Reset();
  obs::GetCounter("test.snapshot.counter")->Add(7);
  obs::GetGauge("test.snapshot.gauge")->Set(1.5);
  obs::Histogram* histogram =
      obs::GetHistogram("test.snapshot.histogram", {10.0, 20.0});
  histogram->Reset();
  histogram->Observe(15.0);

  const obs::MetricsSnapshot snapshot = obs::SnapshotMetrics();
  ASSERT_EQ(snapshot.counters.count("test.snapshot.counter"), 1u);
  EXPECT_EQ(snapshot.counters.at("test.snapshot.counter"), 7u);
  ASSERT_EQ(snapshot.gauges.count("test.snapshot.gauge"), 1u);
  EXPECT_EQ(snapshot.gauges.at("test.snapshot.gauge"), 1.5);
  const obs::HistogramSnapshot& hist =
      snapshot.histograms.at("test.snapshot.histogram");
  ASSERT_EQ(hist.counts.size(), 3u);  // 2 bounds + overflow
  EXPECT_EQ(hist.counts[1], 1u);
  EXPECT_EQ(hist.total, 1u);

  const obs::Json doc = ParseOrDie(obs::MetricsToJson(snapshot));
  EXPECT_EQ(doc.Find("counters")
                ->Find("test.snapshot.counter")
                ->number_value,
            7.0);
  EXPECT_EQ(doc.Find("gauges")->Find("test.snapshot.gauge")->number_value,
            1.5);
  const obs::Json* hist_json =
      doc.Find("histograms")->Find("test.snapshot.histogram");
  ASSERT_NE(hist_json, nullptr);
  EXPECT_EQ(hist_json->Find("count")->number_value, 1.0);
  const obs::Json& buckets = *hist_json->Find("buckets");
  ASSERT_EQ(buckets.array.size(), 3u);
  // Overflow bucket serializes its bound as the string "inf".
  EXPECT_EQ(buckets.array.back().Find("le")->string_value, "inf");
}

TEST(Metrics, CountsAreIdenticalAtAnyThreadCount) {
  // The attack scan counters count scan INPUTS (candidate pairs), which
  // the determinism contract pins to the static partition — never the
  // worker assignment. The same holds for parallel.chunks.
  linalg::Rng rng(99);
  const int n = 48;
  Matrix grad = linalg::RandomNormal(n, n, 1.0f, &rng);
  Matrix dense(n, n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      const bool edge = ((u * 31 + v * 17) % 5) == 0;
      dense(u, v) = edge ? 1.0f : 0.0f;
      dense(v, u) = dense(u, v);
    }
  }
  const attack::AccessControl access(n, {});

  std::vector<uint64_t> scanned_deltas;
  std::vector<uint64_t> chunk_deltas;
  std::vector<std::pair<int, int>> winners;
  for (const int threads : {1, 2, 8}) {
    const ScopedThreads scope(threads);
    obs::Counter* scanned = obs::GetCounter("attack.edges_scanned");
    obs::Counter* chunks = obs::GetCounter("parallel.chunks");
    const uint64_t scanned_before = scanned->value();
    const uint64_t chunks_before = chunks->value();
    const std::vector<attack::FlipCandidate> best =
        attack::TopFlips</*is_feature=*/false>(
            n, n, access, nullptr, /*keep=*/1, [&](int u, int v) {
              return (1.0f - 2.0f * dense(u, v)) * (grad(u, v) + grad(v, u));
            });
    scanned_deltas.push_back(scanned->value() - scanned_before);
    chunk_deltas.push_back(chunks->value() - chunks_before);
    ASSERT_EQ(best.size(), 1u);
    winners.emplace_back(best[0].flip.a, best[0].flip.b);
  }
  EXPECT_EQ(scanned_deltas[0], scanned_deltas[1]);
  EXPECT_EQ(scanned_deltas[0], scanned_deltas[2]);
  EXPECT_EQ(chunk_deltas[0], chunk_deltas[1]);
  EXPECT_EQ(chunk_deltas[0], chunk_deltas[2]);
  EXPECT_EQ(winners[0], winners[1]);
  EXPECT_EQ(winners[0], winners[2]);
  // The scan covered every unordered pair exactly once.
  EXPECT_EQ(scanned_deltas[0],
            static_cast<uint64_t>(n) * (n - 1) / 2);
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(Json, ParsesScalarsArraysAndObjects) {
  const obs::Json doc = ParseOrDie(
      R"({"a":1,"b":-2.5e3,"c":"x\n\"y\"","d":[true,false,null],"e":{}})");
  EXPECT_EQ(doc.Find("a")->number_value, 1.0);
  EXPECT_EQ(doc.Find("b")->number_value, -2500.0);
  EXPECT_EQ(doc.Find("c")->string_value, "x\n\"y\"");
  ASSERT_EQ(doc.Find("d")->array.size(), 3u);
  EXPECT_TRUE(doc.Find("d")->array[0].bool_value);
  EXPECT_EQ(doc.Find("d")->array[2].type, obs::Json::Type::kNull);
  EXPECT_EQ(doc.Find("e")->type, obs::Json::Type::kObject);
}

TEST(Json, RejectsMalformedInput) {
  obs::Json doc;
  std::string error;
  EXPECT_FALSE(obs::Json::Parse("{", &doc, &error));
  EXPECT_FALSE(obs::Json::Parse("[1,]", &doc, &error));
  EXPECT_FALSE(obs::Json::Parse("{} trailing", &doc, &error));
  EXPECT_FALSE(obs::Json::Parse("'single'", &doc, &error));
  EXPECT_FALSE(error.empty());
}

TEST(Json, DumpParsesBackByteIdentically) {
  obs::Json root = obs::Json::MakeObject();
  root.object["int"] = obs::Json::MakeNumber(42);
  root.object["float"] = obs::Json::MakeNumber(0.125);
  root.object["text"] = obs::Json::MakeString("line\nbreak\t\"quoted\"");
  obs::Json list = obs::Json::MakeArray();
  list.array.push_back(obs::Json::MakeBool(true));
  list.array.push_back(obs::Json::MakeNull());
  root.object["list"] = std::move(list);
  const std::string dumped = root.Dump();
  const obs::Json reparsed = ParseOrDie(dumped);
  EXPECT_EQ(reparsed.Dump(), dumped);
  // Integral numbers print without a fractional part.
  EXPECT_NE(dumped.find("\"int\":42,"), std::string::npos) << dumped;
}

TEST(Json, NestingPastTheLimitFailsCleanly) {
  obs::Json doc;
  std::string error;
  EXPECT_FALSE(obs::Json::Parse(std::string(1000000, '['), &doc, &error));
  EXPECT_EQ(error, "nesting deeper than 64 at offset 64");
  const std::string deepest = std::string(64, '[') + std::string(64, ']');
  EXPECT_TRUE(obs::Json::Parse(deepest, &doc, &error)) << error;
  EXPECT_FALSE(obs::Json::Parse("[" + deepest + "]", &doc, &error));
}

// ---------------------------------------------------------------------------
// Sealed records
// ---------------------------------------------------------------------------

TEST(Record, SealUnsealRoundTripsAndTellsMalformedFromMismatch) {
  obs::Json record = obs::Json::MakeObject();
  record.object["k"] = obs::Json::MakeString("v");
  record.object["n"] = obs::Json::MakeNumber(7);
  const std::string sealed = obs::Seal(record);
  EXPECT_EQ(sealed.back(), '\n');
  obs::Json back;
  std::string error;
  ASSERT_EQ(obs::Unseal(sealed, &back, &error), obs::Unsealed::kOk) << error;
  EXPECT_EQ(back.Dump(), record.Dump());

  std::string tampered = sealed;
  tampered[tampered.find("\"v\"") + 1] = 'w';
  EXPECT_EQ(obs::Unseal(tampered, &back, &error),
            obs::Unsealed::kCrcMismatch);
  EXPECT_NE(error.find("crc mismatch"), std::string::npos) << error;
  // A crc that is not an integer in [0, 2^32) is malformed, never cast.
  for (const char* text :
       {"{\"crc\":-1}", "{\"crc\":4294967296}", "{\"crc\":1e300}",
        "{\"crc\":0.5}", "{\"crc\":\"0\"}", "{\"k\":1}", "[]", "{"}) {
    EXPECT_EQ(obs::Unseal(text, &back, &error), obs::Unsealed::kMalformed)
        << text;
  }
}

TEST(Record, StrictReadsNameTheKey) {
  obs::Json doc;
  std::string error;
  ASSERT_TRUE(obs::Json::Parse(
      R"({"i":3,"big":1e300,"half":2.5,"s":"x","n":-4})", &doc, &error));
  int64_t i = 0;
  EXPECT_TRUE(obs::ReadInteger(doc, "i", 0, 3, &i, &error));
  EXPECT_EQ(i, 3);
  EXPECT_TRUE(obs::ReadInteger(doc, "n", -4, 0, &i, &error));
  EXPECT_EQ(i, -4);
  for (const char* key : {"i", "big", "half", "s", "missing"}) {
    EXPECT_FALSE(obs::ReadInteger(doc, key, 0, 2, &i, &error)) << key;
    EXPECT_NE(error.find(std::string("\"") + key + "\""), std::string::npos)
        << error;
  }
  double d = 0.0;
  EXPECT_TRUE(obs::ReadFinite(doc, "half", &d, &error));
  EXPECT_EQ(d, 2.5);
  EXPECT_FALSE(obs::ReadFinite(doc, "s", &d, &error));
  std::string s;
  EXPECT_TRUE(obs::ReadString(doc, "s", &s, &error));
  EXPECT_FALSE(obs::ReadString(doc, "i", &s, &error));
}

TEST(Record, ReplaceFileSwapsContentsAndLeavesNoTemporary) {
  const std::string path = ::testing::TempDir() + "/obs_replace.txt";
  std::string error;
  ASSERT_TRUE(obs::ReplaceFile(path, "first\n", &error)) << error;
  ASSERT_TRUE(obs::ReplaceFile(path, "second\n", &error)) << error;
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), "second\n");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  EXPECT_FALSE(obs::ReplaceFile("/nonexistent/dir/x", "y", &error));
  EXPECT_NE(error.find("/nonexistent/dir/x.tmp"), std::string::npos) << error;
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// StopWatch
// ---------------------------------------------------------------------------

TEST(StopWatch, MeasuresNonNegativeMonotonicTime) {
  const obs::StopWatch watch;
  const double first = watch.Seconds();
  const double second = watch.Seconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(second, first);
  EXPECT_NEAR(watch.Millis(), watch.Seconds() * 1e3,
              1.0);  // same clock, ms vs s
}

}  // namespace
}  // namespace repro
