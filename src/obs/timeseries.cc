#include "src/obs/timeseries.h"

#include <algorithm>
#include <cstdio>

#include "src/common/check.h"

namespace wvote {
namespace {

void AppendDouble(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  *out += buf;
}

}  // namespace

const char* SeriesKindName(SeriesKind kind) {
  switch (kind) {
    case SeriesKind::kCounterDelta:
      return "counter_delta";
    case SeriesKind::kGauge:
      return "gauge";
    case SeriesKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

TimeSeriesStore::TimeSeriesStore(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), times_(capacity_, 0) {}

TimeSeriesStore::Series* TimeSeriesStore::GetOrCreate(const std::string& key, SeriesKind kind) {
  auto it = series_.find(key);
  if (it != series_.end()) {
    WVOTE_CHECK_MSG(it->second->kind == kind, "series kind changed across scrapes");
    return it->second.get();
  }
  auto s = std::make_unique<Series>();
  s->key = key;
  s->kind = kind;
  if (kind == SeriesKind::kHistogram) {
    s->hists.resize(capacity_);
  } else {
    s->vals.resize(capacity_, 0.0);
  }
  Series* raw = s.get();
  series_[key] = std::move(s);
  return raw;
}

void TimeSeriesStore::Push(Series* series, double value) {
  WVOTE_DCHECK(series->kind != SeriesKind::kHistogram);
  series->vals[series->head] = value;
  series->head = (series->head + 1) % capacity_;
  series->size = std::min(series->size + 1, capacity_);
}

void TimeSeriesStore::PushHist(Series* series, const HistPoint& point) {
  WVOTE_DCHECK(series->kind == SeriesKind::kHistogram);
  series->hists[series->head] = point;
  series->head = (series->head + 1) % capacity_;
  series->size = std::min(series->size + 1, capacity_);
}

void TimeSeriesStore::SealWindow(int64_t t_end_us) {
  times_[times_head_] = t_end_us;
  times_head_ = (times_head_ + 1) % capacity_;
  times_size_ = std::min(times_size_ + 1, capacity_);
  ++windows_;
}

std::vector<double> TimeSeriesStore::Tail(const std::string& key, size_t last_n) const {
  auto it = series_.find(key);
  if (it == series_.end() || it->second->kind == SeriesKind::kHistogram) {
    return {};
  }
  const Series& s = *it->second;
  const size_t n = std::min(last_n, s.size);
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) {
    // Index of the (n - i)-th most recent point.
    const size_t idx = (s.head + capacity_ - n + i) % capacity_;
    out[i] = s.vals[idx];
  }
  return out;
}

std::vector<HistPoint> TimeSeriesStore::HistTail(const std::string& key, size_t last_n) const {
  auto it = series_.find(key);
  if (it == series_.end() || it->second->kind != SeriesKind::kHistogram) {
    return {};
  }
  const Series& s = *it->second;
  const size_t n = std::min(last_n, s.size);
  std::vector<HistPoint> out(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t idx = (s.head + capacity_ - n + i) % capacity_;
    out[i] = s.hists[idx];
  }
  return out;
}

std::vector<double> TimeSeriesStore::FoldTail(const std::string& name, size_t last_n,
                                              double (*combine)(double, double)) const {
  std::vector<double> out;
  for (const auto& [key, series] : series_) {
    if (series->kind == SeriesKind::kHistogram || MetricBaseName(key) != name) {
      continue;
    }
    const std::vector<double> tail = Tail(key, last_n);
    if (tail.size() > out.size()) {
      // Grow at the front: older windows the previous series never saw.
      out.insert(out.begin(), tail.size() - out.size(), 0.0);
    }
    // Tail-aligned: both vectors end at the latest window.
    const size_t off = out.size() - tail.size();
    for (size_t i = 0; i < tail.size(); ++i) {
      out[off + i] = combine(out[off + i], tail[i]);
    }
  }
  return out;
}

std::vector<double> TimeSeriesStore::SumTail(const std::string& name, size_t last_n) const {
  return FoldTail(name, last_n, [](double acc, double v) { return acc + v; });
}

std::vector<double> TimeSeriesStore::MaxTail(const std::string& name, size_t last_n) const {
  return FoldTail(name, last_n, [](double acc, double v) { return std::max(acc, v); });
}

std::vector<HistPoint> TimeSeriesStore::SumHistTail(const std::string& name,
                                                    size_t last_n) const {
  std::vector<HistPoint> out;
  for (const auto& [key, series] : series_) {
    if (series->kind != SeriesKind::kHistogram || MetricBaseName(key) != name) {
      continue;
    }
    const std::vector<HistPoint> tail = HistTail(key, last_n);
    if (tail.size() > out.size()) {
      out.insert(out.begin(), tail.size() - out.size(), HistPoint{});
    }
    const size_t off = out.size() - tail.size();
    for (size_t i = 0; i < tail.size(); ++i) {
      HistPoint& dst = out[off + i];
      dst.count += tail[i].count;
      dst.p50_us = std::max(dst.p50_us, tail[i].p50_us);
      dst.p99_us = std::max(dst.p99_us, tail[i].p99_us);
      dst.max_us = std::max(dst.max_us, tail[i].max_us);
    }
  }
  return out;
}

std::vector<int64_t> TimeSeriesStore::TimesTail(size_t last_n) const {
  const size_t n = std::min(last_n, times_size_);
  std::vector<int64_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t idx = (times_head_ + capacity_ - n + i) % capacity_;
    out[i] = times_[idx];
  }
  return out;
}

std::string TimeSeriesStore::ExportJson(size_t last_n) const {
  char buf[128];
  std::string out = "{\"resolution_us\":";
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(resolution_us_));
  out += buf;
  out += ",\"windows_sealed\":";
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(windows_));
  out += buf;
  out += ",\"t_us\":[";
  const std::vector<int64_t> times = TimesTail(last_n);
  for (size_t i = 0; i < times.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(times[i]));
    out += buf;
  }
  out += "],\"series\":{";
  bool first = true;
  for (const auto& [key, series] : series_) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '"' + JsonEscape(key) + "\":{\"kind\":\"";
    out += SeriesKindName(series->kind);
    out += "\",\"points\":[";
    if (series->kind == SeriesKind::kHistogram) {
      const std::vector<HistPoint> tail = HistTail(key, last_n);
      for (size_t i = 0; i < tail.size(); ++i) {
        if (i > 0) {
          out += ',';
        }
        std::snprintf(buf, sizeof(buf),
                      "{\"n\":%llu,\"p50_us\":%lld,\"p99_us\":%lld,\"max_us\":%lld}",
                      static_cast<unsigned long long>(tail[i].count),
                      static_cast<long long>(tail[i].p50_us),
                      static_cast<long long>(tail[i].p99_us),
                      static_cast<long long>(tail[i].max_us));
        out += buf;
      }
    } else {
      const std::vector<double> tail = Tail(key, last_n);
      for (size_t i = 0; i < tail.size(); ++i) {
        if (i > 0) {
          out += ',';
        }
        AppendDouble(&out, tail[i]);
      }
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string Sparkline(const std::vector<double>& values) {
  static const char* kLevels[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  if (values.empty()) {
    return "";
  }
  double lo = values[0];
  double hi = values[0];
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double span = hi - lo;
  std::string out;
  out.reserve(values.size() * 3);
  for (double v : values) {
    int level = 0;
    if (span > 0.0) {
      level = static_cast<int>((v - lo) / span * 7.0 + 0.5);
      level = std::clamp(level, 0, 7);
    }
    out += kLevels[level];
  }
  return out;
}

Scraper::Scraper(const MetricsRegistry* registry, ScraperOptions options)
    : registry_(registry),
      options_(std::move(options)),
      store_(options_.window_capacity) {
  WVOTE_CHECK(registry_ != nullptr);
  store_.set_resolution_us(options_.resolution.ToMicros());
}

void Scraper::RebuildPlan() {
  // Carry per-series scrape state across the rebuild so counter deltas and
  // histogram windows don't spike when the registry grows mid-run.
  std::map<const TimeSeriesStore::Series*, uint64_t> prev_counts;
  for (const CounterPlan& p : counters_) {
    prev_counts[p.series] = p.prev;
  }
  std::map<const TimeSeriesStore::Series*, LatencyHistogram> prev_hists;
  for (HistogramPlan& p : histograms_) {
    prev_hists[p.series] = std::move(p.prev);
  }
  counters_.clear();
  gauges_.clear();
  histograms_.clear();

  std::map<std::string, size_t> counter_index;
  registry_->VisitCounterSources([&](const std::string& key, const uint64_t* src) {
    auto it = counter_index.find(key);
    if (it == counter_index.end()) {
      CounterPlan plan;
      plan.series = store_.GetOrCreate(key, SeriesKind::kCounterDelta);
      auto carried = prev_counts.find(plan.series);
      if (carried != prev_counts.end()) {
        plan.prev = carried->second;
      }
      counter_index[key] = counters_.size();
      counters_.push_back(std::move(plan));
      it = counter_index.find(key);
    }
    counters_[it->second].sources.push_back(src);
  });

  std::map<std::string, size_t> gauge_index;
  registry_->VisitGaugeSources(
      [&](const std::string& key, const std::function<double()>* src) {
        auto it = gauge_index.find(key);
        if (it == gauge_index.end()) {
          GaugePlan plan;
          plan.series = store_.GetOrCreate(key, SeriesKind::kGauge);
          gauge_index[key] = gauges_.size();
          gauges_.push_back(std::move(plan));
          it = gauge_index.find(key);
        }
        gauges_[it->second].sources.push_back(src);
      });

  std::map<std::string, size_t> hist_index;
  registry_->VisitHistogramSources([&](const std::string& key, const LatencyHistogram* src) {
    auto it = hist_index.find(key);
    if (it == hist_index.end()) {
      HistogramPlan plan;
      plan.series = store_.GetOrCreate(key, SeriesKind::kHistogram);
      auto carried = prev_hists.find(plan.series);
      if (carried != prev_hists.end()) {
        plan.prev = std::move(carried->second);
      }
      hist_index[key] = histograms_.size();
      histograms_.push_back(std::move(plan));
      it = hist_index.find(key);
    }
    histograms_[it->second].sources.push_back(src);
  });

  planned_metrics_ = registry_->num_metrics();
}

void Scraper::ScrapeAt(TimePoint now) {
  if (registry_->num_metrics() != planned_metrics_) {
    RebuildPlan();
  }
  for (CounterPlan& p : counters_) {
    uint64_t total = 0;
    for (const uint64_t* src : p.sources) {
      total += *src;
    }
    // A total below prev means the sources were reset; the window restarts.
    const uint64_t delta = total >= p.prev ? total - p.prev : total;
    store_.Push(p.series, static_cast<double>(delta));
    p.prev = total;
  }
  for (GaugePlan& p : gauges_) {
    double total = 0.0;
    for (const auto* src : p.sources) {
      total += (*src)();
    }
    store_.Push(p.series, total);
  }
  for (HistogramPlan& p : histograms_) {
    // Idle fast path: the sample counts are cheap to read, and an unchanged
    // total means an empty window — skip the bucket scan entirely. (A reset
    // moves the total too, so resets take the slow path below.)
    uint64_t total = 0;
    for (const LatencyHistogram* src : p.sources) {
      total += src->count();
    }
    HistPoint point;
    if (total != p.prev.count()) {
      const LatencyHistogram* merged = p.sources[0];
      if (p.sources.size() > 1) {
        p.scratch.Reset();
        for (const LatencyHistogram* src : p.sources) {
          p.scratch.MergeFrom(*src);
        }
        merged = &p.scratch;
      }
      merged->DeltaStatsSince(p.prev, &point.count, &point.p50_us, &point.p99_us,
                              &point.max_us);
      if (p.sources.size() > 1) {
        std::swap(p.prev, p.scratch);
      } else {
        p.prev = *merged;  // bucket vector capacity is reused, no allocation
      }
    }
    store_.PushHist(p.series, point);
  }
  store_.SealWindow(now.ToMicros());
  ++scrapes_;
  for (const Observer& obs : observers_) {
    obs(now, store_);
  }
}

}  // namespace wvote
