// Tests for the sim-time time-series layer: the ring-buffered store, the
// sparkline renderer, and the Scraper's sampling plan (counter deltas,
// gauge sampling, histogram windows, exclusions, and plan rebuilds when the
// registry grows mid-run).

#include "src/obs/timeseries.h"

#include <gtest/gtest.h>

#include "src/obs/metrics.h"

namespace wvote {
namespace {

TEST(TimeSeriesStoreTest, TailIsOldestFirstAndRingBounded) {
  TimeSeriesStore store(4);
  TimeSeriesStore::Series* s = store.GetOrCreate("a", SeriesKind::kGauge);
  for (int i = 1; i <= 6; ++i) {
    store.Push(s, static_cast<double>(i));
    store.SealWindow(i * 10);
  }
  // Capacity 4: only the last four windows survive, oldest first.
  EXPECT_EQ(store.Tail("a", 10), (std::vector<double>{3, 4, 5, 6}));
  EXPECT_EQ(store.Tail("a", 2), (std::vector<double>{5, 6}));
  EXPECT_EQ(store.TimesTail(10), (std::vector<int64_t>{30, 40, 50, 60}));
  EXPECT_EQ(store.windows_sealed(), 6u);
  EXPECT_TRUE(store.Tail("missing", 4).empty());
}

TEST(TimeSeriesStoreTest, SumTailAlignsMidRunSeriesAtTheTail) {
  TimeSeriesStore store(8);
  TimeSeriesStore::Series* a = store.GetOrCreate("ops{c=a}", SeriesKind::kCounterDelta);
  store.Push(a, 1);
  store.SealWindow(10);
  store.Push(a, 2);
  store.SealWindow(20);
  // A second label variant appears two windows in: its points are the two
  // most recent windows, and it contributes zero to the older ones.
  TimeSeriesStore::Series* b = store.GetOrCreate("ops{c=b}", SeriesKind::kCounterDelta);
  store.Push(a, 3);
  store.Push(b, 10);
  store.SealWindow(30);
  store.Push(a, 4);
  store.Push(b, 20);
  store.SealWindow(40);
  EXPECT_EQ(store.SumTail("ops", 8), (std::vector<double>{1, 2, 13, 24}));
  EXPECT_TRUE(store.SumTail("other", 8).empty());
}

TEST(TimeSeriesStoreTest, MaxTailTakesPerWindowMaxAcrossVariants) {
  TimeSeriesStore store(8);
  TimeSeriesStore::Series* a = store.GetOrCreate("share{c=a}", SeriesKind::kGauge);
  TimeSeriesStore::Series* b = store.GetOrCreate("share{c=b}", SeriesKind::kGauge);
  store.Push(a, 0.3);
  store.Push(b, 0.9);
  store.SealWindow(10);
  store.Push(a, 0.8);
  store.Push(b, 0.2);
  store.SealWindow(20);
  EXPECT_EQ(store.MaxTail("share", 8), (std::vector<double>{0.9, 0.8}));
}

TEST(TimeSeriesStoreTest, SumHistTailSumsCountsAndMaxesPercentiles) {
  TimeSeriesStore store(8);
  TimeSeriesStore::Series* a = store.GetOrCreate("lat{c=a}", SeriesKind::kHistogram);
  TimeSeriesStore::Series* b = store.GetOrCreate("lat{c=b}", SeriesKind::kHistogram);
  store.PushHist(a, HistPoint{3, 100, 200, 250});
  store.PushHist(b, HistPoint{2, 500, 900, 950});
  store.SealWindow(10);
  const std::vector<HistPoint> tail = store.SumHistTail("lat", 8);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].count, 5u);
  EXPECT_EQ(tail[0].p50_us, 500);
  EXPECT_EQ(tail[0].p99_us, 900);
  EXPECT_EQ(tail[0].max_us, 950);
}

TEST(TimeSeriesStoreTest, ExportJsonCarriesKindsTimesAndPoints) {
  TimeSeriesStore store(4);
  store.set_resolution_us(10000);
  TimeSeriesStore::Series* g = store.GetOrCreate("g", SeriesKind::kGauge);
  TimeSeriesStore::Series* h = store.GetOrCreate("h", SeriesKind::kHistogram);
  store.Push(g, 1.5);
  store.PushHist(h, HistPoint{1, 10, 20, 30});
  store.SealWindow(10000);
  const std::string json = store.ExportJson(4);
  EXPECT_NE(json.find("\"resolution_us\":10000"), std::string::npos);
  EXPECT_NE(json.find("\"t_us\":[10000]"), std::string::npos);
  EXPECT_NE(json.find("\"g\":{\"kind\":\"gauge\",\"points\":[1.5]}"), std::string::npos);
  EXPECT_NE(json.find("\"h\":{\"kind\":\"histogram\",\"points\":"
                      "[{\"n\":1,\"p50_us\":10,\"p99_us\":20,\"max_us\":30}]}"),
            std::string::npos);
}

TEST(SparklineTest, EmptyFlatAndRamp) {
  EXPECT_EQ(Sparkline({}), "");
  EXPECT_EQ(Sparkline({5, 5, 5}), "▁▁▁");
  const std::string ramp = Sparkline({0, 1, 2, 3, 4, 5, 6, 7});
  EXPECT_EQ(ramp, "▁▂▃▄▅▆▇█");
}

TEST(ScraperTest, CounterDeltasPerWindow) {
  MetricsRegistry reg;
  uint64_t ops = 0;
  reg.RegisterCounter("core.test.ops", {}, &ops);
  ScraperOptions opts;
  opts.window_capacity = 8;
  Scraper scraper(&reg, opts);

  ops = 5;
  scraper.ScrapeAt(TimePoint::FromMicros(10000));
  ops = 12;
  scraper.ScrapeAt(TimePoint::FromMicros(20000));
  ops = 12;  // idle window
  scraper.ScrapeAt(TimePoint::FromMicros(30000));
  EXPECT_EQ(scraper.store().Tail("core.test.ops", 8), (std::vector<double>{5, 7, 0}));
  EXPECT_EQ(scraper.scrapes(), 3u);
}

TEST(ScraperTest, CounterResetRestartsTheWindow) {
  MetricsRegistry reg;
  uint64_t ops = 0;
  reg.RegisterCounter("core.test.ops", {}, &ops);
  Scraper scraper(&reg);
  ops = 12;
  scraper.ScrapeAt(TimePoint::FromMicros(10000));
  // Registry reset between scrapes: the total drops below prev, so the
  // delta is the post-reset total, not a huge unsigned wraparound.
  ops = 3;
  scraper.ScrapeAt(TimePoint::FromMicros(20000));
  EXPECT_EQ(scraper.store().Tail("core.test.ops", 8), (std::vector<double>{12, 3}));
}

TEST(ScraperTest, SameKeySourcesAggregateBySummation) {
  MetricsRegistry reg;
  uint64_t a = 2;
  uint64_t b = 3;
  reg.RegisterCounter("core.test.ops", {}, &a);
  reg.RegisterCounter("core.test.ops", {}, &b);
  Scraper scraper(&reg);
  scraper.ScrapeAt(TimePoint::FromMicros(10000));
  EXPECT_EQ(scraper.store().Tail("core.test.ops", 8), (std::vector<double>{5}));
}

TEST(ScraperTest, PlanRebuildsWhenRegistryGrowsAndCarriesDeltas) {
  MetricsRegistry reg;
  uint64_t ops = 10;
  reg.RegisterCounter("core.test.ops", {}, &ops);
  Scraper scraper(&reg);
  scraper.ScrapeAt(TimePoint::FromMicros(10000));

  // A component registers mid-run (e.g. a client added after deploy). The
  // next scrape rebuilds the plan, samples the newcomer, and must NOT spike
  // the existing counter's delta (prev is carried across the rebuild).
  uint64_t late = 7;
  reg.RegisterCounter("core.test.late", {}, &late);
  ops = 14;
  scraper.ScrapeAt(TimePoint::FromMicros(20000));
  EXPECT_EQ(scraper.store().Tail("core.test.ops", 8), (std::vector<double>{10, 4}));
  // The newcomer's series is tail-aligned: one point, at the latest window.
  EXPECT_EQ(scraper.store().Tail("core.test.late", 8), (std::vector<double>{7}));
}

TEST(ScraperTest, GaugesSampleAtEachWindowEnd) {
  MetricsRegistry reg;
  double depth = 0.0;
  reg.RegisterGauge("core.test.depth", {}, [&] { return depth; });
  Scraper scraper(&reg);
  depth = 2.5;
  scraper.ScrapeAt(TimePoint::FromMicros(10000));
  depth = 4.0;
  scraper.ScrapeAt(TimePoint::FromMicros(20000));
  EXPECT_EQ(scraper.store().Tail("core.test.depth", 8), (std::vector<double>{2.5, 4.0}));
  EXPECT_NE(scraper.store().ExportJson(8).find("\"core.test.depth\":{\"kind\":\"gauge\""),
            std::string::npos);
}

TEST(ScraperTest, HistogramWindowsDoNotLeakAcrossBoundaries) {
  MetricsRegistry reg;
  LatencyHistogram lat;
  reg.RegisterHistogram("workload.test.lat", {}, &lat);
  Scraper scraper(&reg);

  lat.Record(Duration::Millis(10));
  lat.Record(Duration::Millis(10));
  scraper.ScrapeAt(TimePoint::FromMicros(10000));
  lat.Record(Duration::Millis(100));
  scraper.ScrapeAt(TimePoint::FromMicros(20000));
  scraper.ScrapeAt(TimePoint::FromMicros(30000));  // nothing recorded

  const std::vector<HistPoint> tail = scraper.store().HistTail("workload.test.lat", 8);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].count, 2u);
  EXPECT_NEAR(static_cast<double>(tail[0].p99_us), 10000.0, 500.0);
  // The second window holds only the 100ms sample — the 10ms samples from
  // window one must not bleed into its percentiles.
  EXPECT_EQ(tail[1].count, 1u);
  EXPECT_NEAR(static_cast<double>(tail[1].p50_us), 100000.0, 3000.0);
  EXPECT_EQ(tail[2].count, 0u);
}

TEST(ScraperTest, ObserversRunAfterEachSealedWindow) {
  MetricsRegistry reg;
  uint64_t ops = 0;
  reg.RegisterCounter("core.test.ops", {}, &ops);
  Scraper scraper(&reg);
  int calls = 0;
  int64_t last_t = 0;
  uint64_t windows_at_call = 0;
  scraper.AddObserver([&](TimePoint now, const TimeSeriesStore& store) {
    ++calls;
    last_t = now.ToMicros();
    windows_at_call = store.windows_sealed();
  });
  scraper.ScrapeAt(TimePoint::FromMicros(10000));
  scraper.ScrapeAt(TimePoint::FromMicros(20000));
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(last_t, 20000);
  // The window is sealed before observers run, so they see the new point.
  EXPECT_EQ(windows_at_call, 2u);
}

}  // namespace
}  // namespace wvote
