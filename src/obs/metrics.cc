#include "src/obs/metrics.h"

#include <algorithm>
#include <cstdio>

namespace wvote {
namespace {

HistogramSnapshot SnapshotOf(const LatencyHistogram& h) {
  HistogramSnapshot out;
  out.count = h.count();
  out.mean_us = h.Mean().ToMicros();
  out.p50_us = h.Percentile(50).ToMicros();
  out.p99_us = h.Percentile(99).ToMicros();
  out.min_us = h.Min().ToMicros();
  out.max_us = h.Max().ToMicros();
  return out;
}

}  // namespace

std::string RenderMetricKey(const std::string& name, const MetricLabels& labels) {
  if (labels.empty()) {
    return name;
  }
  std::string key = name + "{";
  bool first = true;
  for (const auto& [k, v] : labels) {  // std::map iterates in sorted key order
    if (!first) {
      key += ',';
    }
    first = false;
    key += k;
    key += '=';
    key += v;
  }
  key += '}';
  return key;
}

std::string_view MetricBaseName(std::string_view key) {
  return key.substr(0, key.find('{'));
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

uint64_t MetricsSnapshot::counter(const std::string& key) const {
  auto it = counters.find(key);
  return it == counters.end() ? 0 : it->second;
}

double MetricsSnapshot::gauge(const std::string& key) const {
  auto it = gauges.find(key);
  return it == gauges.end() ? 0.0 : it->second;
}

uint64_t MetricsSnapshot::SumCounters(const std::string& name) const {
  uint64_t total = 0;
  for (const auto& [key, value] : counters) {
    if (MetricBaseName(key) == name) {
      total += value;
    }
  }
  return total;
}

MetricsSnapshot MetricsSnapshot::Delta(const MetricsSnapshot& base) const {
  MetricsSnapshot out;
  for (const auto& [key, value] : counters) {
    const uint64_t before = base.counter(key);
    out.counters[key] = value >= before ? value - before : 0;
  }
  out.gauges = gauges;
  for (const auto& [key, value] : histograms) {
    HistogramSnapshot d = value;
    auto it = base.histograms.find(key);
    if (it != base.histograms.end() && it->second.count <= d.count) {
      d.count -= it->second.count;
    }
    out.histograms[key] = d;
  }
  return out;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  char buf[192];
  for (const auto& [key, value] : counters) {
    std::snprintf(buf, sizeof(buf), "%s %llu\n", key.c_str(),
                  static_cast<unsigned long long>(value));
    out += buf;
  }
  for (const auto& [key, value] : gauges) {
    std::snprintf(buf, sizeof(buf), "%s %g\n", key.c_str(), value);
    out += buf;
  }
  for (const auto& [key, h] : histograms) {
    std::snprintf(buf, sizeof(buf),
                  "%s n=%llu mean_us=%lld p50_us=%lld p99_us=%lld max_us=%lld\n", key.c_str(),
                  static_cast<unsigned long long>(h.count), static_cast<long long>(h.mean_us),
                  static_cast<long long>(h.p50_us), static_cast<long long>(h.p99_us),
                  static_cast<long long>(h.max_us));
    out += buf;
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  char buf[160];
  for (const auto& [key, value] : counters) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '"' + JsonEscape(key) + "\":";
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(value));
    out += buf;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [key, value] : gauges) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '"' + JsonEscape(key) + "\":";
    std::snprintf(buf, sizeof(buf), "%g", value);
    out += buf;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [key, h] : histograms) {
    if (!first) {
      out += ',';
    }
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"count\":%llu,\"mean_us\":%lld,\"p50_us\":%lld,\"p99_us\":%lld,"
                  "\"min_us\":%lld,\"max_us\":%lld}",
                  static_cast<unsigned long long>(h.count), static_cast<long long>(h.mean_us),
                  static_cast<long long>(h.p50_us), static_cast<long long>(h.p99_us),
                  static_cast<long long>(h.min_us), static_cast<long long>(h.max_us));
    out += '"' + JsonEscape(key) + "\":" + buf;
  }
  out += "}}";
  return out;
}

void MetricsRegistry::RegisterCounter(const std::string& name, const MetricLabels& labels,
                                      const uint64_t* source) {
  counter_sources_.push_back({RenderMetricKey(name, labels), source});
}

void MetricsRegistry::RegisterGauge(const std::string& name, const MetricLabels& labels,
                                    std::function<double()> source) {
  gauge_sources_.push_back({RenderMetricKey(name, labels), std::move(source)});
}

void MetricsRegistry::RegisterHistogram(const std::string& name, const MetricLabels& labels,
                                        const LatencyHistogram* source) {
  histogram_sources_.push_back({RenderMetricKey(name, labels), source});
}

void MetricsRegistry::AddResetHook(std::function<void()> hook) {
  reset_hooks_.push_back(std::move(hook));
}

void MetricsRegistry::Reset() {
  for (const auto& hook : reset_hooks_) {
    hook();
  }
}

size_t MetricsRegistry::num_metrics() const {
  return counter_sources_.size() + gauge_sources_.size() + histogram_sources_.size();
}

bool MetricsRegistry::Contains(const std::string& name, const MetricLabels& labels) const {
  const std::string key = RenderMetricKey(name, labels);
  auto match = [&key](const auto& entry) { return entry.key == key; };
  return std::any_of(counter_sources_.begin(), counter_sources_.end(), match) ||
         std::any_of(gauge_sources_.begin(), gauge_sources_.end(), match) ||
         std::any_of(histogram_sources_.begin(), histogram_sources_.end(), match);
}

void MetricsRegistry::VisitCounterSources(
    const std::function<void(const std::string&, const uint64_t*)>& fn) const {
  for (const CounterSource& c : counter_sources_) {
    fn(c.key, c.source);
  }
}

void MetricsRegistry::VisitGaugeSources(
    const std::function<void(const std::string&, const std::function<double()>*)>& fn) const {
  for (const GaugeSource& g : gauge_sources_) {
    fn(g.key, &g.source);
  }
}

void MetricsRegistry::VisitHistogramSources(
    const std::function<void(const std::string&, const LatencyHistogram*)>& fn) const {
  for (const HistogramSource& h : histogram_sources_) {
    fn(h.key, h.source);
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot out;
  for (const CounterSource& c : counter_sources_) {
    out.counters[c.key] += *c.source;
  }
  for (const GaugeSource& g : gauge_sources_) {
    out.gauges[g.key] += g.source();
  }
  // Same-key histograms merge before summarizing, so percentiles of the
  // aggregate are computed over the union of samples.
  std::map<std::string, LatencyHistogram> merged;
  for (const HistogramSource& h : histogram_sources_) {
    merged[h.key].MergeFrom(*h.source);
  }
  for (const auto& [key, hist] : merged) {
    out.histograms[key] = SnapshotOf(hist);
  }
  return out;
}

}  // namespace wvote
