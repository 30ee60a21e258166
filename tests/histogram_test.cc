#include "src/obs/histogram.h"

#include <gtest/gtest.h>

namespace wvote {
namespace {

TEST(HistogramTest, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), Duration::Zero());
  EXPECT_EQ(h.Percentile(50), Duration::Zero());
}

TEST(HistogramTest, SingleSample) {
  LatencyHistogram h;
  h.Record(Duration::Millis(42));
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Mean(), Duration::Millis(42));
  EXPECT_EQ(h.Min(), Duration::Millis(42));
  EXPECT_EQ(h.Max(), Duration::Millis(42));
  // Bucketed percentile is within one bucket width (~1.1%) of the value.
  EXPECT_NEAR(h.Percentile(50).ToMillis(), 42.0, 1.0);
}

TEST(HistogramTest, MeanIsExact) {
  LatencyHistogram h;
  for (int ms : {10, 20, 30, 40}) {
    h.Record(Duration::Millis(ms));
  }
  EXPECT_EQ(h.Mean(), Duration::Millis(25));
}

TEST(HistogramTest, PercentilesAreOrdered) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Record(Duration::Micros(i * 100));
  }
  EXPECT_LE(h.Percentile(10), h.Percentile(50));
  EXPECT_LE(h.Percentile(50), h.Percentile(90));
  EXPECT_LE(h.Percentile(90), h.Percentile(99));
  EXPECT_LE(h.Percentile(99), h.Max());
  // Median of uniform 0.1..100ms is ~50ms (within bucket resolution).
  EXPECT_NEAR(h.Percentile(50).ToMillis(), 50.0, 2.0);
}

TEST(HistogramTest, PercentileClampsDomain) {
  LatencyHistogram h;
  h.Record(Duration::Millis(5));
  EXPECT_EQ(h.Percentile(-10), h.Percentile(0));
  EXPECT_EQ(h.Percentile(200), h.Percentile(100));
}

TEST(HistogramTest, ZeroAndHugeSamplesLandInEdgeBuckets) {
  LatencyHistogram h;
  h.Record(Duration::Zero());
  h.Record(Duration::Seconds(100000));
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.Min(), Duration::Zero());
}

TEST(HistogramTest, OverflowPercentileReportsTheMarker) {
  // Samples above 100 s share the overflow bucket, whose percentile is the
  // 10^10 us marker (100 s x 100), computed without int overflow.
  LatencyHistogram h;
  h.Record(Duration::Seconds(150));
  EXPECT_EQ(h.Percentile(50), Duration::Micros(int64_t{10000000000}));
  EXPECT_EQ(h.Max(), Duration::Seconds(150));
}

TEST(HistogramTest, MergeCombines) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.Record(Duration::Millis(10));
  b.Record(Duration::Millis(30));
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.Mean(), Duration::Millis(20));
  EXPECT_EQ(a.Min(), Duration::Millis(10));
  EXPECT_EQ(a.Max(), Duration::Millis(30));
}

TEST(HistogramTest, MergeIntoEmpty) {
  LatencyHistogram a;
  LatencyHistogram b;
  b.Record(Duration::Millis(7));
  a.MergeFrom(b);
  EXPECT_EQ(a.Min(), Duration::Millis(7));
  EXPECT_EQ(a.Max(), Duration::Millis(7));
}

TEST(HistogramTest, ResetClears) {
  LatencyHistogram h;
  h.Record(Duration::Millis(10));
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), Duration::Zero());
}

TEST(HistogramTest, SummaryMentionsCount) {
  LatencyHistogram h;
  h.Record(Duration::Millis(10));
  EXPECT_NE(h.Summary().find("n=1"), std::string::npos);
}

// The window statistics DeltaStatsSince reports, in one struct.
struct WindowStats {
  uint64_t count = 0;
  int64_t p50_us = 0;
  int64_t p99_us = 0;
  int64_t max_us = 0;
};

WindowStats WindowSince(const LatencyHistogram& h, const LatencyHistogram& prev) {
  WindowStats w;
  h.DeltaStatsSince(prev, &w.count, &w.p50_us, &w.p99_us, &w.max_us);
  return w;
}

TEST(HistogramTest, DeltaStatsSinceIsolatesTheWindow) {
  LatencyHistogram h;
  h.Record(Duration::Millis(10));
  h.Record(Duration::Millis(10));
  LatencyHistogram prev = h;  // snapshot at window start
  h.Record(Duration::Millis(100));
  h.Record(Duration::Millis(100));
  h.Record(Duration::Millis(100));
  const WindowStats window = WindowSince(h, prev);
  EXPECT_EQ(window.count, 3u);
  // Only the 100ms samples landed in the window, so its median sits at the
  // 100ms bucket, not between 10 and 100.
  EXPECT_NEAR(static_cast<double>(window.p50_us), 100000.0, 3000.0);
  EXPECT_NEAR(static_cast<double>(window.p99_us), 100000.0, 3000.0);
  EXPECT_NEAR(static_cast<double>(window.max_us), 100000.0, 3000.0);
}

TEST(HistogramTest, DeltaStatsSinceEmptyWindow) {
  LatencyHistogram h;
  h.Record(Duration::Millis(10));
  const WindowStats window = WindowSince(h, h);
  EXPECT_EQ(window.count, 0u);
  EXPECT_EQ(window.p50_us, 0);
  EXPECT_EQ(window.p99_us, 0);
  EXPECT_EQ(window.max_us, 0);
}

TEST(HistogramTest, DeltaStatsSinceAfterResetYieldsCurrentContents) {
  LatencyHistogram h;
  h.Record(Duration::Millis(10));
  h.Record(Duration::Millis(20));
  LatencyHistogram prev = h;
  h.Reset();
  h.Record(Duration::Millis(30));
  // prev has more samples than *this: the reset is the window start.
  const WindowStats window = WindowSince(h, prev);
  EXPECT_EQ(window.count, 1u);
  EXPECT_NEAR(static_cast<double>(window.p50_us), 30000.0, 1000.0);
  EXPECT_NEAR(static_cast<double>(window.max_us), 30000.0, 1000.0);
}

}  // namespace
}  // namespace wvote
