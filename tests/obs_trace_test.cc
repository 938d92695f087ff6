// Observability unit tests: TraceRecorder span recording (nesting,
// thread-buffer merge, hot-span floor, the off-is-a-no-op contract, Chrome
// trace export), the TimelineSampler fold rules, and the latency
// HistogramRegistry. The cross-cutting guarantee — tracing never changes a
// metric bit — is covered by sim_parallel_determinism_test's
// TraceDeterminism axis; this file covers the recorder itself.
//
// The recorder is process-global and accumulates, so every test starts with
// Clear() and ends disarmed; events from one test cannot leak into the
// next's snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/histogram_registry.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"

namespace watter {
namespace obs {
namespace {

class TraceRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::Global().Clear();
    TraceRecorder::Global().set_hot_min_us(20.0);
    TraceRecorder::Global().Enable();
  }
  void TearDown() override {
    TraceRecorder::Global().Disable();
    TraceRecorder::Global().Clear();
  }
};

TEST_F(TraceRecorderTest, DisabledRecordsNothing) {
  TraceRecorder::Global().Disable();
  {
    WATTER_TRACE_SPAN("outer");
    WATTER_TRACE_SPAN_HOT("hot");
  }
  EXPECT_TRUE(TraceRecorder::Global().Snapshot().empty());
  EXPECT_EQ(TraceRecorder::Global().dropped(), 0);
}

TEST_F(TraceRecorderTest, NestedSpansAreContained) {
  {
    WATTER_TRACE_SPAN("outer");
    {
      WATTER_TRACE_SPAN("inner");
    }
  }
  auto events = TraceRecorder::Global().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Spans close inner-first, so "inner" lands in the buffer before "outer".
  const auto& inner = events[0];
  const auto& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_LE(outer.start_us, inner.start_us);
  EXPECT_GE(outer.start_us + outer.dur_us, inner.start_us + inner.dur_us);
  EXPECT_GE(inner.dur_us, 0.0);
}

TEST_F(TraceRecorderTest, HotSpanFloorDropsAndCounts) {
  TraceRecorder::Global().set_hot_min_us(1e9);  // Nothing can pass.
  {
    WATTER_TRACE_SPAN_HOT("too-fast");
  }
  EXPECT_TRUE(TraceRecorder::Global().Snapshot().empty());
  EXPECT_EQ(TraceRecorder::Global().dropped(), 1);

  TraceRecorder::Global().set_hot_min_us(0.0);  // Everything passes.
  {
    WATTER_TRACE_SPAN_HOT("kept");
  }
  auto events = TraceRecorder::Global().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "kept");
}

TEST_F(TraceRecorderTest, MergesPerThreadBuffersWithNames) {
  constexpr int kThreads = 4;
  constexpr int kSpansEach = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      TraceRecorder& recorder = TraceRecorder::Global();
      recorder.SetCurrentThreadName("merge-" + std::to_string(t));
      for (int s = 0; s < kSpansEach; ++s) {
        double now = recorder.NowMicros();
        recorder.EmitSpan("merged", now, 1.0);
      }
    });
  }
  for (auto& thread : threads) thread.join();  // Quiescence for Snapshot.

  auto events = TraceRecorder::Global().Snapshot();
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads * kSpansEach));
  for (int t = 0; t < kThreads; ++t) {
    std::string expected = "merge-" + std::to_string(t);
    int count = 0;
    int tid = -1;
    for (const auto& event : events) {
      if (event.thread_name != expected) continue;
      ++count;
      if (tid == -1) tid = event.tid;
      EXPECT_EQ(event.tid, tid) << "one tid per thread track";
    }
    EXPECT_EQ(count, kSpansEach) << expected;
  }
}

TEST_F(TraceRecorderTest, ExportsLoadableChromeTraceJson) {
  {
    WATTER_TRACE_SPAN("round");
  }
  TraceRecorder::Global().SetCurrentThreadName("main");
  std::string path = ::testing::TempDir() + "/obs_trace_export.json";
  ASSERT_TRUE(TraceRecorder::Global().ExportChromeTrace(path));

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text;
  char chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    text.append(chunk, n);
  }
  std::fclose(f);
  std::remove(path.c_str());

  // Structural sanity a C++ test can assert without a JSON parser; the CI
  // smoke run puts the same file through tools/trace_summary.py --check,
  // which fully parses it.
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"process_name\""), std::string::npos);
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"round\""), std::string::npos);
  EXPECT_NE(text.find("\"dropped_events\": 0"), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
  EXPECT_EQ(std::count(text.begin(), text.end(), '['),
            std::count(text.begin(), text.end(), ']'));
  EXPECT_EQ(std::count(text.begin(), text.end(), '"') % 2, 0);
}

TEST(TimelineSamplerTest, TotalsFoldSumMaxAndLast) {
  TimelineSampler sampler;
  RoundSample a;
  a.round = 1;
  a.now = 10.0;
  a.pool_size = 5;
  a.offers = 3;
  a.refresh_s = 0.25;
  RoundSample b;
  b.round = 2;
  b.now = 20.0;
  b.pool_size = 2;
  b.offers = 4;
  b.refresh_s = 0.5;
  sampler.Record(a);
  sampler.Record(b);

  RoundSample totals = sampler.Totals();
  EXPECT_EQ(totals.round, 2);           // kLast: sample count.
  EXPECT_EQ(totals.now, 20.0);          // kLast.
  EXPECT_EQ(totals.pool_size, 5);       // kMax.
  EXPECT_EQ(totals.offers, 7);          // kSum.
  EXPECT_DOUBLE_EQ(totals.refresh_s, 0.75);  // kSum.
}

TEST(TimelineSamplerTest, WritesJsonAndCsv) {
  TimelineSampler sampler;
  RoundSample sample;
  sample.round = 1;
  sample.pool_size = 3;
  sampler.Record(sample);

  auto slurp = [](const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    EXPECT_NE(f, nullptr);
    std::string text;
    char chunk[4096];
    size_t n;
    while (f != nullptr && (n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      text.append(chunk, n);
    }
    if (f != nullptr) std::fclose(f);
    std::remove(path.c_str());
    return text;
  };

  std::string json_path = ::testing::TempDir() + "/obs_timeline.json";
  ASSERT_TRUE(sampler.WriteJson(json_path));
  std::string json = slurp(json_path);
  EXPECT_NE(json.find("\"rounds\""), std::string::npos);
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
  EXPECT_NE(json.find("\"pool_size\": 3"), std::string::npos);

  std::string csv_path = ::testing::TempDir() + "/obs_timeline.csv";
  ASSERT_TRUE(sampler.WriteCsv(csv_path));
  std::string csv = slurp(csv_path);
  EXPECT_EQ(csv.compare(0, 6, "round,"), 0);
  EXPECT_NE(csv.find("pool_size"), std::string::npos);
}

TEST(HistogramRegistryTest, DisabledRecordsNothingEnabledAggregates) {
  HistogramRegistry& registry = HistogramRegistry::Global();
  registry.Clear();
  registry.Disable();
  RecordLatency("test.latency_s", 0.5);
  EXPECT_TRUE(registry.Snapshots().empty());

  registry.Enable();
  RecordLatency("test.latency_s", 0.25);
  RecordLatency("test.latency_s", 0.75);
  auto snapshots = registry.Snapshots();
  registry.Disable();
  registry.Clear();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].name, "test.latency_s");
  EXPECT_EQ(snapshots[0].count, 2);
  EXPECT_DOUBLE_EQ(snapshots[0].mean, 0.5);
  EXPECT_DOUBLE_EQ(snapshots[0].min, 0.25);
  EXPECT_DOUBLE_EQ(snapshots[0].max, 0.75);
}

TEST(HistogramRegistryTest, QuantilesStayWithinTheObservedRange) {
  // Round-phase durations of a few milliseconds all land in bin 0 of the
  // 0..60 s latency shape; interpolating inside that bin used to report
  // p50 near 0.47 s against a max of 1.6 ms.
  HistogramRegistry& registry = HistogramRegistry::Global();
  registry.Clear();
  registry.Enable();
  for (int i = 0; i < 100; ++i) {
    RecordLatency("test.sub_bin_s", 0.001 + 0.000006 * i, /*hi_seconds=*/60.0);
  }
  auto snapshots = registry.Snapshots();
  registry.Disable();
  registry.Clear();
  ASSERT_EQ(snapshots.size(), 1u);
  const HistogramSnapshot& snap = snapshots[0];
  EXPECT_DOUBLE_EQ(snap.min, 0.001);
  EXPECT_LE(snap.min, snap.p50);
  EXPECT_LE(snap.p50, snap.p90);
  EXPECT_LE(snap.p90, snap.p99);
  EXPECT_LE(snap.p99, snap.max);
  EXPECT_LT(snap.max, 0.0016);
}

}  // namespace
}  // namespace obs
}  // namespace watter
