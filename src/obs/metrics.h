// Unified metrics registry: the one observability layer every component
// reports through.
//
// Gifford's evaluation rests on counting things — probes sent, votes
// gathered, messages dropped, commits vs. aborts. Each layer keeps its
// counts in a plain `*Stats` struct (cheap inline `++stats_.field`
// recording, no indirection on the hot path) and registers the struct's
// fields here under a stable, label-tagged name. The registry then offers
// one shared snapshot / delta / reset / export path, so benches, tests, and
// the scenario CLI all read the same instrument instead of 15 disconnected
// ad-hoc structs.
//
// Naming scheme: `layer.component.metric{label=value,...}`, e.g.
//   net.network.messages_sent
//   rpc.endpoint.calls_started{host=client}
//   core.suite_client.probes_sent{host=client,suite=research.paper}
//
// Sources are registered by address (counters, histograms) or by callback
// (gauges); Snapshot() reads through them, so a registered source must
// outlive its registry entry. Metrics that render to the same key aggregate
// by summation (histograms merge) — deliberately, so several instances of
// one component (e.g. two clients on one host) roll up instead of clashing.
// The registry owns no metric storage of its own, and every registered
// value is a function of the simulation alone (nothing reads the wall
// clock), so two runs of one seed snapshot the same bytes.

#ifndef WVOTE_SRC_OBS_METRICS_H_
#define WVOTE_SRC_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/histogram.h"

namespace wvote {

using MetricLabels = std::map<std::string, std::string>;

// "name{k1=v1,k2=v2}"; bare "name" when labels are empty. Labels render in
// sorted key order, so equal label sets always produce equal keys.
std::string RenderMetricKey(const std::string& name, const MetricLabels& labels);

// The metric name of a rendered key: the part before '{'.
std::string_view MetricBaseName(std::string_view key);

// `s` escaped for the inside of a JSON string literal: '"', '\\', '\n' and
// '\t' get their short escapes, other control characters \u00XX. Every
// JSON export (metrics, time series, flight records, Chrome traces) uses it.
std::string JsonEscape(std::string_view s);

struct HistogramSnapshot {
  uint64_t count = 0;
  int64_t mean_us = 0;
  int64_t p50_us = 0;
  int64_t p99_us = 0;
  int64_t min_us = 0;
  int64_t max_us = 0;
};

// Point-in-time copy of every registered metric, keyed by rendered name.
// Value semantics: snapshots survive the registry and its sources, so tests
// and benches can take one before and one after a phase and diff them.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  // Lookup by rendered key; 0 / 0.0 when absent.
  uint64_t counter(const std::string& key) const;
  double gauge(const std::string& key) const;

  // Sum of every counter whose metric name (the part before '{') equals
  // `name` — i.e. the total across all label combinations.
  uint64_t SumCounters(const std::string& name) const;

  // This snapshot minus `base`, for counters and histogram counts (both are
  // monotone between resets); gauges pass through unchanged. Keys absent
  // from `base` are treated as zero there.
  MetricsSnapshot Delta(const MetricsSnapshot& base) const;

  // One "key value" line per metric, sorted by key.
  std::string ToText() const;
  // {"counters":{...},"gauges":{...},"histograms":{"k":{"count":...}}}
  std::string ToJson() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Sources, read at Snapshot() time. The source must outlive this registry
  // entry (components register members of themselves and are torn down
  // before — or with — the registry that observes them); instrumented code
  // writes its own member directly (no lookup on the hot path).
  void RegisterCounter(const std::string& name, const MetricLabels& labels,
                       const uint64_t* source);
  void RegisterGauge(const std::string& name, const MetricLabels& labels,
                     std::function<double()> source);
  void RegisterHistogram(const std::string& name, const MetricLabels& labels,
                         const LatencyHistogram* source);

  // Reset() runs every hook, so the components' stats structs share one
  // reset path (each component adds a hook that zeroes what it registered).
  void AddResetHook(std::function<void()> hook);
  void Reset();

  size_t num_metrics() const;
  bool Contains(const std::string& name, const MetricLabels& labels = {}) const;

  // Read-only source visitation in registration order, same-key sources
  // repeated (callers aggregate). The time-series Scraper builds its flat
  // sampling plan through these instead of paying Snapshot()'s map and
  // string construction on every sim-time tick. The visited pointers stay
  // valid until more sources are registered — callers that cache them must
  // rebuild when num_metrics() changes.
  void VisitCounterSources(
      const std::function<void(const std::string&, const uint64_t*)>& fn) const;
  void VisitGaugeSources(
      const std::function<void(const std::string&, const std::function<double()>*)>& fn) const;
  void VisitHistogramSources(
      const std::function<void(const std::string&, const LatencyHistogram*)>& fn) const;

  MetricsSnapshot Snapshot() const;
  MetricsSnapshot Delta(const MetricsSnapshot& base) const { return Snapshot().Delta(base); }
  std::string ExportText() const { return Snapshot().ToText(); }
  std::string ExportJson() const { return Snapshot().ToJson(); }

 private:
  struct CounterSource {
    std::string key;
    const uint64_t* source;
  };
  struct GaugeSource {
    std::string key;
    std::function<double()> source;
  };
  struct HistogramSource {
    std::string key;
    const LatencyHistogram* source;
  };

  std::vector<CounterSource> counter_sources_;
  std::vector<GaugeSource> gauge_sources_;
  std::vector<HistogramSource> histogram_sources_;
  std::vector<std::function<void()>> reset_hooks_;
};

}  // namespace wvote

#endif  // WVOTE_SRC_OBS_METRICS_H_
