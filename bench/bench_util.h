// Shared helpers for the experiment binaries in bench/.
//
// Each bench regenerates one table or figure of the paper's evaluation (see
// DESIGN.md's experiment index). They print their rows to stdout; the
// simulation is deterministic, so rows are reproducible bit-for-bit for a
// given seed.

#ifndef WVOTE_BENCH_BENCH_UTIL_H_
#define WVOTE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/gifford_examples.h"
#include "src/core/cluster.h"
#include "src/obs/histogram.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"

namespace wvote {

// --metrics[=text|json] support: every bench accepts the flag and dumps a
// registry snapshot per scenario, so BENCH_*.json trajectories come from the
// unified metrics layer instead of hand-rolled prints.
enum class MetricsMode { kNone, kText, kJson };

inline MetricsMode ParseMetricsMode(int argc, char** argv) {
  MetricsMode mode = MetricsMode::kNone;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0 || std::strcmp(argv[i], "--metrics=text") == 0) {
      mode = MetricsMode::kText;
    } else if (std::strcmp(argv[i], "--metrics=json") == 0) {
      mode = MetricsMode::kJson;
    }
  }
  return mode;
}

// --trace=FILE support: every bench accepts the flag and exports a
// Chrome-trace-event JSON file (chrome://tracing, Perfetto) covering every
// scenario it ran. With the flag present, clusters deploy with the causal
// tracer enabled; each scenario drains its spans into one shared
// traceEvents array (tagged, distinct pid ranges) before tearing its
// cluster down, and main() writes the file once at exit.
struct ChromeTraceState {
  std::string path;       // empty = flag absent, tracing stays disabled
  std::string events;     // accumulated traceEvents bodies
  bool first = true;
  int next_pid_base = 0;  // keeps per-cluster host pids disjoint

  bool active() const { return !path.empty(); }
};
inline ChromeTraceState g_chrome_trace;

inline void ParseTraceFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      g_chrome_trace.path = argv[i] + 8;
    }
  }
}

// Call right after constructing a cluster whose traffic should be traced.
inline void MaybeEnableTracing(Cluster& cluster) {
  if (g_chrome_trace.active()) {
    cluster.tracer().Enable(true);
  }
}

// Call once per cluster before it is destroyed; `tag` labels its processes
// in the exported file (e.g. the scenario name).
inline void CollectChromeTrace(Cluster& cluster, const std::string& tag) {
  if (!g_chrome_trace.active()) {
    return;
  }
  g_chrome_trace.next_pid_base = cluster.tracer().AppendChromeEvents(
                                     &g_chrome_trace.events, &g_chrome_trace.first,
                                     g_chrome_trace.next_pid_base, tag) +
                                 1;
}

// Call once at the end of main(); writes the collected trace if --trace was
// given.
inline void WriteChromeTrace() {
  if (!g_chrome_trace.active()) {
    return;
  }
  std::FILE* f = std::fopen(g_chrome_trace.path.c_str(), "w");
  WVOTE_CHECK_MSG(f != nullptr, "cannot open --trace output file");
  std::fprintf(f, "{\"traceEvents\":[\n%s\n]}\n", g_chrome_trace.events.c_str());
  std::fclose(f);
  std::fprintf(stderr, "wrote Chrome trace to %s\n", g_chrome_trace.path.c_str());
}

// --timeseries=FILE support: every bench accepts the flag and exports the
// sim-time time-series layer (src/obs/timeseries.h) for every scenario it
// ran, as a JSON array of {"tag","timeseries","slo_events"} objects. With
// the flag present, clusters deploy with 10ms sim-time scraping enabled
// (replay-invisible — the scraper rides the simulator metronome), and each
// scenario prints a terminal sparkline summary of its headline series.
struct TimeseriesState {
  std::string path;    // empty = flag absent, scraping stays disabled
  Duration resolution = Duration::Millis(10);
  std::string objects;  // accumulated per-scenario JSON objects
  bool first = true;

  bool active() const { return !path.empty(); }
};
inline TimeseriesState g_timeseries;

inline void ParseTimeseriesFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--timeseries=", 13) == 0) {
      g_timeseries.path = argv[i] + 13;
    }
  }
}

// Call right after constructing a cluster (DeployExample does it for you).
inline void MaybeEnableScraping(Cluster& cluster) {
  if (g_timeseries.active()) {
    cluster.EnableScraping(g_timeseries.resolution);
  }
}

// Terminal sparkline summary: one line per headline series that carried
// traffic this scenario, scaled to its own range over the last 64 windows.
inline void PrintSparklines(const Cluster& cluster, const std::string& tag) {
  static const char* kHeadline[] = {
      "core.suite_client.reads",       "core.suite_client.writes",
      "core.suite_client.probes_sent", "core.suite_client.unavailable",
      "net.network.messages_sent",
  };
  const TimeSeriesStore& store = cluster.scraper()->store();
  std::printf("timeseries [%s] %llu windows @ %lldus\n", tag.c_str(),
              static_cast<unsigned long long>(store.windows_sealed()),
              static_cast<long long>(store.resolution_us()));
  for (const char* name : kHeadline) {
    const std::vector<double> tail = store.SumTail(name, 64);
    double total = 0.0;
    for (double v : tail) {
      total += v;
    }
    if (total > 0.0) {
      std::printf("  %-34s %s\n", name, Sparkline(tail).c_str());
    }
  }
  if (cluster.slo() != nullptr && cluster.slo()->total_breaches() > 0) {
    std::printf("  SLO breaches:\n%s", cluster.slo()->Summary().c_str());
  }
}

// Call once per cluster before it is destroyed; `tag` labels the scenario.
inline void CollectTimeseries(Cluster& cluster, const std::string& tag) {
  if (!g_timeseries.active() || cluster.scraper() == nullptr) {
    return;
  }
  const TimeSeriesStore& store = cluster.scraper()->store();
  if (!g_timeseries.first) {
    g_timeseries.objects += ",\n";
  }
  g_timeseries.first = false;
  g_timeseries.objects += "{\"tag\":\"" + tag + "\",\"timeseries\":";
  g_timeseries.objects += store.ExportJson(store.capacity());
  g_timeseries.objects += ",\"slo_events\":";
  g_timeseries.objects +=
      cluster.slo() != nullptr ? cluster.slo()->EventsJson() : std::string("[]");
  g_timeseries.objects += "}";
  PrintSparklines(cluster, tag);
}

// Call once at the end of main(); writes the collected series if
// --timeseries was given.
inline void WriteTimeseries() {
  if (!g_timeseries.active()) {
    return;
  }
  std::FILE* f = std::fopen(g_timeseries.path.c_str(), "w");
  WVOTE_CHECK_MSG(f != nullptr, "cannot open --timeseries output file");
  std::fprintf(f, "[\n%s\n]\n", g_timeseries.objects.c_str());
  std::fclose(f);
  std::fprintf(stderr, "wrote time-series to %s\n", g_timeseries.path.c_str());
}

// --smoke support: the bench-smoke ctest label runs every experiment binary
// end-to-end with shrunk iteration counts and run lengths, so a broken bench
// fails CI in seconds instead of rotting until the next full run. Each bench
// sets `g_bench_smoke` from ParseSmoke() and routes its sizes through
// SmokeIters() / SmokeRun(); full-size runs are unaffected.
inline bool g_bench_smoke = false;

inline bool ParseSmoke(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      return true;
    }
  }
  return false;
}

inline int SmokeIters(int full, int tiny = 5) {
  return g_bench_smoke ? (full < tiny ? full : tiny) : full;
}

inline Duration SmokeRun(Duration full, Duration tiny = Duration::Seconds(5)) {
  return g_bench_smoke ? (full < tiny ? full : tiny) : full;
}

// The metrics mode every bench shares, set by ParseBenchFlags.
inline MetricsMode g_bench_metrics = MetricsMode::kNone;

// One-call parsing of the flags common to every bench: --metrics[=text|json],
// --smoke, --trace=FILE, and --timeseries=FILE. Sets the bench-wide globals
// (g_bench_metrics, g_bench_smoke, g_chrome_trace, g_timeseries) and returns
// the metrics mode for convenience. Call once at the top of main(); benches
// with extra flags keep parsing argv themselves afterwards.
inline MetricsMode ParseBenchFlags(int argc, char** argv) {
  g_bench_metrics = ParseMetricsMode(argc, argv);
  g_bench_smoke = ParseSmoke(argc, argv);
  ParseTraceFlag(argc, argv);
  ParseTimeseriesFlag(argc, argv);
  return g_bench_metrics;
}

// Prints one snapshot of `registry`, tagged so sweeps emit one record per
// scenario: text mode as a delimited block, JSON mode as a single line
// (one JSON object per scenario — trivially machine-collectable).
inline void DumpMetrics(const MetricsRegistry& registry, MetricsMode mode,
                        const std::string& tag) {
  if (mode == MetricsMode::kNone) {
    return;
  }
  if (mode == MetricsMode::kText) {
    std::printf("=== metrics [%s] ===\n%s=== end metrics ===\n", tag.c_str(),
                registry.ExportText().c_str());
  } else {
    std::printf("{\"metrics_tag\":\"%s\",\"metrics\":%s}\n", tag.c_str(),
                registry.ExportJson().c_str());
  }
}

struct ExampleDeployment {
  std::unique_ptr<Cluster> cluster;
  SuiteClient* client = nullptr;
};

// Builds a cluster for one of the paper's examples: representatives, the
// example's client round-trip latencies, suite bootstrap, and one client.
inline ExampleDeployment DeployExample(const GiffordExample& ex,
                                       SuiteClientOptions client_options = {},
                                       uint64_t seed = 42,
                                       const std::string& initial = "initial contents") {
  ExampleDeployment out;
  ClusterOptions opts;
  opts.seed = seed;
  opts.rep_options.disk_write_latency = LatencyModel::Fixed(Duration::Micros(500));
  opts.rep_options.disk_read_latency = LatencyModel::Fixed(Duration::Micros(200));
  out.cluster = std::make_unique<Cluster>(opts);
  MaybeEnableTracing(*out.cluster);
  MaybeEnableScraping(*out.cluster);
  for (const RepresentativeInfo& rep : ex.config.representatives) {
    if (!rep.weak()) {
      out.cluster->AddRepresentative(rep.host_name);
    }
  }
  WVOTE_CHECK(out.cluster->CreateSuite(ex.config, initial).ok());
  out.client = out.cluster->AddClient("client", ex.config, client_options,
                                      ex.client_has_cache);
  for (const auto& [host, rtt] : ex.client_rtt) {
    out.cluster->net().SetSymmetricLink(out.cluster->net().FindHost("client")->id(),
                                        out.cluster->net().FindHost(host)->id(),
                                        LatencyModel::Fixed(rtt / 2));
  }
  return out;
}

// Times `n` sequential one-shot reads (or writes) through `client`,
// returning the latency distribution in simulated time.
inline LatencyHistogram TimeReads(Cluster& cluster, SuiteClient* client, int n) {
  LatencyHistogram hist;
  for (int i = 0; i < n; ++i) {
    const TimePoint t0 = cluster.sim().Now();
    Result<std::string> r = cluster.RunTask(client->ReadOnce());
    WVOTE_CHECK_MSG(r.ok(), "bench read failed");
    hist.Record(cluster.sim().Now() - t0);
  }
  return hist;
}

inline LatencyHistogram TimeWrites(Cluster& cluster, SuiteClient* client, int n,
                                   const std::string& payload = "benchmark payload") {
  LatencyHistogram hist;
  for (int i = 0; i < n; ++i) {
    const TimePoint t0 = cluster.sim().Now();
    Status st = cluster.RunTask(client->WriteOnce(payload + std::to_string(i)));
    WVOTE_CHECK_MSG(st.ok(), "bench write failed");
    hist.Record(cluster.sim().Now() - t0);
  }
  return hist;
}

// Regression guards: a bench run with --baseline=FILE compares what it
// measured against a committed BENCH_*.json.
inline std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  WVOTE_CHECK_MSG(f != nullptr, "cannot open --baseline file");
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

// The number after the first occurrence of `key` (quotes and colon
// included) in a committed baseline; a string search, not a JSON parser.
inline double CommittedValue(const std::string& json, const char* key) {
  const size_t at = json.find(key);
  WVOTE_CHECK_MSG(at != std::string::npos, "baseline file is missing a guard key");
  return std::strtod(json.c_str() + at + std::strlen(key), nullptr);
}

inline void PrintRule(int width = 110) {
  for (int i = 0; i < width; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
}

}  // namespace wvote

#endif  // WVOTE_BENCH_BENCH_UTIL_H_
