// Sim-time time-series: ring-buffered windows sampled from a
// MetricsRegistry at a fixed sim-time resolution.
//
// The Scraper turns the registry's point-in-time metrics into per-window
// series: counters become per-window deltas (a rate, in events per window),
// gauges are sampled, histograms become windowed sketches (count / p50 /
// p99 / max over just that window, via bucket-wise subtraction). Windows
// live in the TimeSeriesStore's fixed-capacity rings, so memory stays
// constant however long the run; exports and the flight recorder read the
// tail.
//
// Determinism contract: scraping only READS registered sources. The scraper
// is driven by the simulator's metronome (see Simulator::SetMetronome),
// which consumes no event nodes and no sequence numbers — a run with
// scraping enabled executes the exact same event schedule as one without,
// so golden replay pins stay bit-exact.
//
// Layering: obs is a leaf library. The scraper takes plain TimePoints; the
// component that owns both a Simulator and a registry (Cluster, chaos
// runner) wires ScrapeAt into the metronome.

#ifndef WVOTE_SRC_OBS_TIMESERIES_H_
#define WVOTE_SRC_OBS_TIMESERIES_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/obs/metrics.h"

namespace wvote {

enum class SeriesKind {
  kCounterDelta,  // per-window increase of a monotone counter
  kGauge,         // value sampled at the window end
  kHistogram,     // windowed sketch of a latency histogram
};

const char* SeriesKindName(SeriesKind kind);

// One histogram window: the samples recorded during that window only.
// Percentiles are bucket lower bounds (see LatencyHistogram::DeltaStatsSince).
struct HistPoint {
  uint64_t count = 0;
  int64_t p50_us = 0;
  int64_t p99_us = 0;
  int64_t max_us = 0;
};

// Fixed-capacity ring-buffered series, keyed like MetricsSnapshot
// ("name{label=value,...}"). Windows are sealed in time order; every
// series is tail-aligned to the latest sealed window (a series registered
// mid-run simply has fewer points, all at the tail).
class TimeSeriesStore {
 public:
  struct Series {
    std::string key;
    SeriesKind kind;

   private:
    friend class TimeSeriesStore;
    std::vector<double> vals;       // kCounterDelta / kGauge
    std::vector<HistPoint> hists;   // kHistogram
    size_t head = 0;                // next write slot
    size_t size = 0;
  };

  explicit TimeSeriesStore(size_t capacity = 512);

  size_t capacity() const { return capacity_; }
  // Total windows ever sealed (monotone; only the last `capacity` are kept).
  uint64_t windows_sealed() const { return windows_; }
  int64_t resolution_us() const { return resolution_us_; }
  void set_resolution_us(int64_t us) { resolution_us_ = us; }

  // Get-or-create; the returned pointer is stable for the store's lifetime.
  // Asserts the kind matches on re-lookup.
  Series* GetOrCreate(const std::string& key, SeriesKind kind);

  void Push(Series* series, double value);
  void PushHist(Series* series, const HistPoint& point);
  // Seals the current window at sim time `t_end_us`. Call once per scrape,
  // after every series has been pushed. Times are recorded per window, so
  // exports stay honest when the metronome skips deadlines across idle gaps.
  void SealWindow(int64_t t_end_us);

  // Chronological tail (oldest first) of one exact key; empty if absent.
  std::vector<double> Tail(const std::string& key, size_t last_n) const;
  std::vector<HistPoint> HistTail(const std::string& key, size_t last_n) const;

  // Per-window sum across every value series whose metric name (the part
  // before '{') equals `name`, tail-aligned; length is the longest matching
  // series (capped at last_n), shorter series contribute 0 to older windows.
  std::vector<double> SumTail(const std::string& name, size_t last_n) const;
  // Like SumTail but taking the per-window max across label variants — the
  // right aggregate for share/ratio gauges where summing across clients is
  // meaningless.
  std::vector<double> MaxTail(const std::string& name, size_t last_n) const;
  // Histogram aggregate across label variants: counts sum, p50/p99/max take
  // the per-window max (conservative for limit rules).
  std::vector<HistPoint> SumHistTail(const std::string& name, size_t last_n) const;

  // Window end times (us, oldest first) for the last `last_n` windows.
  std::vector<int64_t> TimesTail(size_t last_n) const;

  // {"resolution_us":...,"windows_sealed":...,"t_us":[...],
  //  "series":{"key":{"kind":"counter_delta","points":[...]},...}}
  // Histogram points export as {"n":..,"p50_us":..,"p99_us":..,"max_us":..}.
  std::string ExportJson(size_t last_n) const;

 private:
  // SumTail and MaxTail: folds every value series named `name` into one
  // tail-aligned vector with `acc = combine(acc, point)`, each window
  // starting from 0.
  std::vector<double> FoldTail(const std::string& name, size_t last_n,
                               double (*combine)(double, double)) const;

  size_t capacity_;
  int64_t resolution_us_ = 0;
  uint64_t windows_ = 0;
  std::vector<int64_t> times_;
  size_t times_head_ = 0;
  size_t times_size_ = 0;
  // unique_ptr for pointer stability; map for sorted, deterministic export.
  std::map<std::string, std::unique_ptr<Series>> series_;
};

// Terminal sparkline of `values` scaled to its own min..max, one glyph per
// window (▁▂▃▄▅▆▇█); flat series render as all-▁, empty input as "".
std::string Sparkline(const std::vector<double>& values);

struct ScraperOptions {
  // Sim-time window width. 10ms keeps quorum-scale dynamics visible while
  // staying far below 1% of bench wall time (see bench_trace_overhead).
  Duration resolution = Duration::Millis(10);
  size_t window_capacity = 512;
};

// Samples a MetricsRegistry into a TimeSeriesStore. Builds a flat sampling
// plan over the registry's sources (no map lookups or string building per
// scrape) and rebuilds it whenever the registry grows; per-window counter
// deltas survive rebuilds (carried over by key).
class Scraper {
 public:
  explicit Scraper(const MetricsRegistry* registry, ScraperOptions options = {});

  // Samples every registered source and seals one window ending at `now`.
  // Pure observer: never mutates the registry or its sources, safe to call
  // from a Simulator metronome hook.
  void ScrapeAt(TimePoint now);

  TimeSeriesStore& store() { return store_; }
  const TimeSeriesStore& store() const { return store_; }
  const ScraperOptions& options() const { return options_; }
  uint64_t scrapes() const { return scrapes_; }

  // Called after each sealed window (e.g. the SLO engine). Observers must
  // not mutate the registry.
  using Observer = std::function<void(TimePoint, const TimeSeriesStore&)>;
  void AddObserver(Observer observer) { observers_.push_back(std::move(observer)); }

 private:
  void RebuildPlan();

  struct CounterPlan {
    TimeSeriesStore::Series* series;
    std::vector<const uint64_t*> sources;  // same-key sources sum
    uint64_t prev = 0;
  };
  struct GaugePlan {
    TimeSeriesStore::Series* series;
    std::vector<const std::function<double()>*> sources;
  };
  struct HistogramPlan {
    TimeSeriesStore::Series* series;
    std::vector<const LatencyHistogram*> sources;
    LatencyHistogram prev;     // merged state at the last scrape
    LatencyHistogram scratch;  // merged state this scrape (reused allocation)
  };

  const MetricsRegistry* registry_;
  ScraperOptions options_;
  TimeSeriesStore store_;
  size_t planned_metrics_ = static_cast<size_t>(-1);
  std::vector<CounterPlan> counters_;
  std::vector<GaugePlan> gauges_;
  std::vector<HistogramPlan> histograms_;
  std::vector<Observer> observers_;
  uint64_t scrapes_ = 0;
};

}  // namespace wvote

#endif  // WVOTE_SRC_OBS_TIMESERIES_H_
