#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <string>

namespace wvote {
namespace {

TEST(MetricKeyTest, BareNameWithoutLabels) {
  EXPECT_EQ(RenderMetricKey("net.network.messages_sent", {}),
            "net.network.messages_sent");
}

TEST(MetricKeyTest, LabelsRenderSorted) {
  EXPECT_EQ(RenderMetricKey("core.suite_client.probes_sent",
                            {{"suite", "doc"}, {"host", "client"}}),
            "core.suite_client.probes_sent{host=client,suite=doc}");
}

TEST(MetricKeyTest, BaseNameDropsLabels) {
  EXPECT_EQ(MetricBaseName("rpc.endpoint.calls{host=client}"), "rpc.endpoint.calls");
  EXPECT_EQ(MetricBaseName("rpc.endpoint.calls"), "rpc.endpoint.calls");
}

TEST(JsonEscapeTest, QuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(JsonEscape("plain key{a=b}"), "plain key{a=b}");
  EXPECT_EQ(JsonEscape("q\"b\\"), "q\\\"b\\\\");
  EXPECT_EQ(JsonEscape("n\nt\tr\r"), "n\\nt\\tr\\u000d");
  EXPECT_EQ(JsonEscape(std::string("\x01\0", 2)), "\\u0001\\u0000");
}

TEST(MetricsRegistryTest, LabelFanOut) {
  MetricsRegistry registry;
  uint64_t client = 5;
  uint64_t server = 7;
  registry.RegisterCounter("rpc.endpoint.calls", {{"host", "client"}}, &client);
  registry.RegisterCounter("rpc.endpoint.calls", {{"host", "server"}}, &server);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("rpc.endpoint.calls{host=client}"), 5u);
  EXPECT_EQ(snap.counter("rpc.endpoint.calls{host=server}"), 7u);
  EXPECT_EQ(snap.SumCounters("rpc.endpoint.calls"), 12u);
  EXPECT_TRUE(registry.Contains("rpc.endpoint.calls", {{"host", "client"}}));
  EXPECT_FALSE(registry.Contains("rpc.endpoint.calls", {{"host", "other"}}));
}

TEST(MetricsRegistryTest, ExternalCounterReadsThrough) {
  MetricsRegistry registry;
  uint64_t source = 0;
  registry.RegisterCounter("a.b.c", {}, &source);
  EXPECT_EQ(registry.Snapshot().counter("a.b.c"), 0u);
  source = 41;
  EXPECT_EQ(registry.Snapshot().counter("a.b.c"), 41u);
}

TEST(MetricsRegistryTest, SameKeySourcesAggregateBySummation) {
  MetricsRegistry registry;
  uint64_t one = 10;
  uint64_t two = 32;
  registry.RegisterCounter("a.b.c", {{"host", "h"}}, &one);
  registry.RegisterCounter("a.b.c", {{"host", "h"}}, &two);
  EXPECT_EQ(registry.Snapshot().counter("a.b.c{host=h}"), 42u);
}

TEST(MetricsRegistryTest, GaugeCallback) {
  MetricsRegistry registry;
  double level = 0.25;
  registry.RegisterGauge("kv.store.fill", {}, [&level]() { return level; });
  EXPECT_DOUBLE_EQ(registry.Snapshot().gauge("kv.store.fill"), 0.25);
  level = 0.75;
  EXPECT_DOUBLE_EQ(registry.Snapshot().gauge("kv.store.fill"), 0.75);
}

TEST(MetricsRegistryTest, HistogramSnapshotAndMerge) {
  MetricsRegistry registry;
  LatencyHistogram h1;
  LatencyHistogram h2;
  h1.Record(Duration::Millis(10));
  h2.Record(Duration::Millis(30));
  registry.RegisterHistogram("w.c.latency", {}, &h1);
  registry.RegisterHistogram("w.c.latency", {}, &h2);
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.histograms.count("w.c.latency"), 1u);
  const HistogramSnapshot& hs = snap.histograms.at("w.c.latency");
  EXPECT_EQ(hs.count, 2u);
  EXPECT_EQ(hs.mean_us, 20000);
  EXPECT_EQ(hs.min_us, 10000);
}

TEST(MetricsRegistryTest, DeltaSubtractsBase) {
  MetricsRegistry registry;
  uint64_t ops = 10;
  LatencyHistogram lat;
  registry.RegisterCounter("a.b.ops", {}, &ops);
  registry.RegisterHistogram("a.b.latency", {}, &lat);
  lat.Record(Duration::Millis(1));
  MetricsSnapshot before = registry.Snapshot();
  ops = 17;
  lat.Record(Duration::Millis(2));
  lat.Record(Duration::Millis(3));
  MetricsSnapshot delta = registry.Delta(before);
  EXPECT_EQ(delta.counter("a.b.ops"), 7u);
  EXPECT_EQ(delta.histograms.at("a.b.latency").count, 2u);
  // A key absent from the base counts from zero.
  uint64_t fresh = 4;
  registry.RegisterCounter("a.b.new", {}, &fresh);
  EXPECT_EQ(registry.Delta(before).counter("a.b.new"), 4u);
}

TEST(MetricsRegistryTest, ResetRunsHooks) {
  MetricsRegistry registry;
  uint64_t ops = 9;
  LatencyHistogram lat;
  lat.Record(Duration::Millis(1));
  registry.RegisterCounter("a.b.ops", {}, &ops);
  registry.RegisterHistogram("a.b.latency", {}, &lat);
  registry.AddResetHook([&ops]() { ops = 0; });
  registry.AddResetHook([&lat]() { lat.Reset(); });
  registry.Reset();
  EXPECT_EQ(ops, 0u);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("a.b.ops"), 0u);
  EXPECT_EQ(snap.histograms.at("a.b.latency").count, 0u);
}

TEST(MetricsRegistryTest, NumMetricsCountsSources) {
  MetricsRegistry registry;
  uint64_t src = 0;
  registry.RegisterCounter("a.b.c", {}, &src);
  registry.RegisterCounter("a.b.c", {}, &src);  // same key, a second source
  registry.RegisterGauge("a.b.d", {}, [] { return 0.0; });
  EXPECT_EQ(registry.num_metrics(), 3u);
  EXPECT_TRUE(registry.Contains("a.b.d"));
  EXPECT_FALSE(registry.Contains("a.b.e"));
}

TEST(MetricsSnapshotTest, TextExportOneLinePerMetric) {
  MetricsRegistry registry;
  uint64_t first = 1;
  uint64_t second = 2;
  registry.RegisterCounter("b.first", {}, &first);
  registry.RegisterCounter("a.second", {}, &second);
  const std::string text = registry.ExportText();
  // Sorted by key: "a.second" before "b.first".
  EXPECT_NE(text.find("a.second 2\n"), std::string::npos);
  EXPECT_NE(text.find("b.first 1\n"), std::string::npos);
  EXPECT_LT(text.find("a.second"), text.find("b.first"));
}

TEST(MetricsSnapshotTest, JsonExportIsWellFormed) {
  MetricsRegistry registry;
  uint64_t ops = 3;
  LatencyHistogram lat;
  lat.Record(Duration::Millis(5));
  registry.RegisterCounter("a.ops", {{"host", "h\"q"}}, &ops);
  registry.RegisterGauge("a.level", {}, [] { return 1.5; });
  registry.RegisterHistogram("a.lat", {}, &lat);
  const std::string json = registry.ExportJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a.ops{host=h\\\"q}\":3"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

}  // namespace
}  // namespace wvote
