#include "bench_support.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "parallel/worker_thread.h"

namespace repro::ggbench {
namespace {

TraceEvent Event(const std::string& name, int tid, double ts_us,
                 double dur_us) {
  return TraceEvent{name, tid, ts_us, dur_us};
}

TEST(FoldTraceTest, NestedAndSiblingSpans) {
  // root [0,100) > a [10,40) > b [15,25); sibling c [40,70) starts where
  // a ends.
  const TraceFold fold = FoldTrace({Event("b", 0, 15, 10),
                                    Event("root", 0, 0, 100),
                                    Event("c", 0, 40, 30),
                                    Event("a", 0, 10, 30)});
  EXPECT_DOUBLE_EQ(fold.at("root").self_ms, 0.040);
  EXPECT_DOUBLE_EQ(fold.at("a").self_ms, 0.020);
  EXPECT_DOUBLE_EQ(fold.at("b").self_ms, 0.010);
  EXPECT_DOUBLE_EQ(fold.at("c").self_ms, 0.030);
  EXPECT_DOUBLE_EQ(fold.at("a").total_ms, 0.030);
}

TEST(FoldTraceTest, RepeatedNamesAccumulate) {
  const TraceFold fold = FoldTrace(
      {Event("op", 0, 0, 10), Event("op", 0, 10, 10), Event("k", 0, 12, 3)});
  EXPECT_EQ(fold.at("op").count, 2);
  EXPECT_DOUBLE_EQ(fold.at("op").self_ms, 0.017);
}

TEST(FoldTraceTest, ThreadsNestIndependently) {
  // Thread 1's span overlaps thread 0's in time but is not its child.
  const TraceFold fold = FoldTrace({Event("main", 0, 0, 100),
                                    Event("worker", 1, 10, 50),
                                    Event("inner", 1, 20, 10),
                                    Event("kernel", 0, 30, 20)});
  EXPECT_DOUBLE_EQ(fold.at("main").self_ms, 0.080);
  EXPECT_DOUBLE_EQ(fold.at("worker").self_ms, 0.040);
  EXPECT_DOUBLE_EQ(fold.at("inner").self_ms, 0.010);
}

TEST(FoldTraceTest, ParallelRegionIsChargedToItsParent) {
  // scan [0,100) > parallel.region [10,90) > matmul [20,30): the region's
  // 70 us of self time (own chunks + waiting) belongs to the scan.
  const TraceFold fold = FoldTrace({Event("attack.best_edge_flip", 0, 0, 100),
                                    Event("parallel.region", 0, 10, 80),
                                    Event("linalg.matmul", 0, 20, 10)});
  EXPECT_DOUBLE_EQ(fold.at("attack.best_edge_flip").self_ms, 0.090);
  EXPECT_DOUBLE_EQ(fold.at("parallel.region").self_ms, 0.0);
  EXPECT_EQ(fold.at("parallel.region").count, 1);
  EXPECT_DOUBLE_EQ(fold.at("linalg.matmul").self_ms, 0.010);
  const auto layers = LayerSelfMs(fold);
  EXPECT_DOUBLE_EQ(layers.at("attack.edge_scan"), 0.090);
  EXPECT_DOUBLE_EQ(layers.at("linalg.dense"), 0.010);
}

TEST(FoldTraceTest, UnparentedRegionKeepsItsSelfTime) {
  const TraceFold fold = FoldTrace({Event("parallel.region", 0, 0, 50)});
  EXPECT_DOUBLE_EQ(fold.at("parallel.region").self_ms, 0.050);
  EXPECT_DOUBLE_EQ(LayerSelfMs(fold).at("parallel"), 0.050);
}

TEST(FoldTraceTest, TimestampsPastTenSecondsStayExact) {
  // 10+ s into a process, microsecond timestamps need more than six
  // significant digits; children 1-2 us apart must still nest.
  const std::string trace =
      "{\"traceEvents\":["
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\"},"
      "{\"ph\":\"X\",\"tid\":0,\"name\":\"bench.op\","
      "\"ts\":12345678.901,\"dur\":5.5},"
      "{\"ph\":\"X\",\"tid\":0,\"name\":\"linalg.dot_rows\","
      "\"ts\":12345679.902,\"dur\":1.25},"
      "{\"ph\":\"X\",\"tid\":0,\"name\":\"linalg.dot_cols\","
      "\"ts\":12345681.152,\"dur\":2.003}]}";
  std::vector<TraceEvent> events;
  std::string error;
  ASSERT_TRUE(ParseTrace(trace, &events, &error)) << error;
  ASSERT_EQ(events.size(), 3u);
  const TraceFold fold = FoldTrace(events);
  EXPECT_NEAR(fold.at("bench.op").self_ms, 0.002247, 1e-12);
  EXPECT_NEAR(LayerSelfMs(fold).at("linalg.incremental"), 0.003253, 1e-12);
}

TEST(FoldTraceTest, CapturedTraceFoldsWithoutNegativeSelfTime) {
  obs::ClearTrace();
  obs::SetTracing(true);
  {
    const obs::TraceSpan root("bench.op");
    parallel::WorkerThread other([] {
      const obs::TraceSpan span("graph.load");
      const obs::TraceSpan inner("linalg.spmm");
    });
    for (int i = 0; i < 100; ++i) {
      const obs::TraceSpan kernel("linalg.dot_rows");
    }
    other.Join();
  }
  obs::SetTracing(false);
  std::vector<TraceEvent> events;
  std::string error;
  ASSERT_TRUE(ParseTrace(CaptureTrace(), &events, &error)) << error;
  obs::ClearTrace();
  ASSERT_EQ(events.size(), 103u);
  const TraceFold fold = FoldTrace(events);
  EXPECT_EQ(fold.at("linalg.dot_rows").count, 100);
  for (const auto& [name, totals] : fold) {
    EXPECT_GE(totals.self_ms, 0.0) << name;
    EXPECT_LE(totals.self_ms, totals.total_ms) << name;
  }
}

TEST(FoldTraceTest, MalformedTraceIsRejected) {
  std::vector<TraceEvent> events;
  std::string error;
  EXPECT_FALSE(ParseTrace("{\"traceEvents\":[", &events, &error));
  EXPECT_FALSE(ParseTrace("{}", &events, &error));
  EXPECT_FALSE(
      ParseTrace("{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"a\"}]}", &events,
                 &error));
}

TEST(LayerOfTest, MapsSpanPrefixesToLayers) {
  EXPECT_EQ(LayerOf("linalg.norm_spmm_rows"), "linalg.incremental");
  EXPECT_EQ(LayerOf("linalg.matmul_tb"), "linalg.dense");
  EXPECT_EQ(LayerOf("attack.best_feature_flip"), "attack.feature_scan");
  EXPECT_EQ(LayerOf("peega_engine.refresh"), "core.engine");
  EXPECT_EQ(LayerOf("peega.iteration"), "core.greedy");
  EXPECT_EQ(LayerOf("peega_batch.collect"), "core.greedy");
  EXPECT_EQ(LayerOf("gnat.build_feature_graph"), "core.gnat_feature_graph");
  EXPECT_EQ(LayerOf("gnat.epoch"), "core.gnat_forward");
  EXPECT_EQ(LayerOf("nn.train_epoch"), "nn");
  EXPECT_EQ(LayerOf("bench.op"), "bench");
  EXPECT_EQ(LayerOf("mystery"), "other");
}

TEST(StatsTest, PercentileEdgeCases) {
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
  EXPECT_EQ(Percentile({7.0}, 0.0), 7.0);
  EXPECT_EQ(Percentile({7.0}, 99.0), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.5);
  std::vector<double> thousand;
  for (int i = 0; i < 1000; ++i) thousand.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(thousand, 99.0), 989.01);
  EXPECT_DOUBLE_EQ(Percentile(thousand, 100.0), 999.0);
  thousand.pop_back();  // 999 values: the median is a sample
  EXPECT_DOUBLE_EQ(Percentile(thousand, 50.0), 499.0);
  EXPECT_DOUBLE_EQ(Percentile(thousand, 25.0), 249.5);
}

TEST(CheckTest, FlipMismatchRejectsEveryDifference) {
  const std::vector<attack::Flip> flips = {{false, 1, 2}, {true, 3, 4}};
  EXPECT_EQ(FlipMismatch(flips, flips), "");
  EXPECT_NE(FlipMismatch(flips, {{false, 1, 2}, {false, 3, 4}}), "");
  EXPECT_NE(FlipMismatch(flips, {{false, 1, 2}, {true, 3, 5}}), "");
  EXPECT_NE(FlipMismatch(flips, {{false, 1, 2}}), "");
  EXPECT_NE(FlipMismatch({}, flips), "");
}

TEST(CheckTest, ValueMismatchRejectsValuesOutsideTolerance) {
  EXPECT_EQ(ValueMismatch("objective", 145.183731079, 145.183731079, 0.0),
            "");
  EXPECT_EQ(ValueMismatch("objective", 145.183731079, 145.1837312, 1e-6), "");
  EXPECT_NE(ValueMismatch("objective", 145.183731079, 145.19, 1e-6), "");
  EXPECT_NE(ValueMismatch("objective", 145.0, 145.0 + 1e-9, 0.0), "");
  EXPECT_NE(ValueMismatch("objective", 1.0, std::nan(""), 1e-6), "");
}

}  // namespace
}  // namespace repro::ggbench
