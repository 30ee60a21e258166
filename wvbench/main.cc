// wvbench: the repository's benchmark for weighted voting.
//
//   wvbench --workload <read_mostly|write_contended|churn_open> --seed N
//           --seconds S --trace <0|1> [--scale F] [--spans-out FILE]
//           [--corrupt-history]
//
// --trace 0 measures the end-to-end metrics: the workload runs repeatedly
// with the same seed until S seconds have passed (at least three times);
// host time and set-up time are medians over samples spread across those
// runs, sim-time metrics come from the first, and every repetition must
// reproduce it exactly.
// --trace 1 measures the per-layer metrics: one untraced and one traced run
// (which must agree exactly), the layer drivers, and a check that another
// seed changes the history. Either mode runs the correctness gate
// (CheckHistory plus replica convergence); any violation exits 1 without
// printing metrics. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// See README.md for the workloads and metric definitions.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "drivers.h"
#include "host_spans.h"
#include "src/analysis/gifford_examples.h"
#include "src/analysis/model.h"
#include "workload.h"

namespace wvbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  double scale = 1.0;
  std::string spans_out;
  bool corrupt_history = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "wvbench: %s\nusage: wvbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--scale F] [--spans-out FILE] [--corrupt-history]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-history") {
      a.corrupt_history = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--scale") {
      a.scale = std::strtod(value, &end);
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("malformed value for " + flag).c_str());
    }
  }
  if (a.workload.empty() || !have_seed) {
    Usage("--workload and --seed are required");
  }
  if (a.trace != 0 && a.trace != 1) {
    Usage("--trace must be 0 or 1");
  }
  if (!(a.seconds > 0) || !(a.scale > 0) || a.scale > 1) {
    Usage("--seconds must be positive and --scale in (0, 1]");
  }
  return a;
}

// Caps the repetitions of a workload whose runs are short.
constexpr int kMaxRuns = 30;

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Linear-interpolated quantile of µs samples, in ms; 0 without samples.
double QuantileMs(std::vector<int64_t> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (static_cast<double>(v[lo]) * (1 - frac) + static_cast<double>(v[hi]) * frac) / 1000.0;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

class MetricSink {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "wvbench: metric %s is not finite\n", name.c_str());
      std::exit(1);
    }
    rows_.push_back(Row{name, value, unit});
  }

  // Human-readable table, then the one-line JSON result.
  void Print(uint64_t attempted, uint64_t failed) const {
    for (const Row& r : rows_) {
      std::printf("  %-40s %16s %s\n", r.name.c_str(), Number(r.value).c_str(), r.unit);
    }
    std::string json = "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < rows_.size(); ++i) {
      json += (i == 0 ? "\"" : ", \"") + rows_[i].name + "\": {\"value\": " +
              Number(rows_[i].value) + ", \"unit\": \"" + rows_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
  };

  // Shortest text that reads back as the same double: every digit kept.
  static std::string Number(double v) {
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
  }

  std::vector<Row> rows_;
};

// Host cost of one op: the median over the run's timing slices.
double HostUsPerOp(const RunResult& r) { return Median(r.slice_us_per_op); }

void AddEndToEnd(MetricSink* m, const RunResult& r, double setup_s, double host_us_per_op) {
  m->Add("setup_s", setup_s, "s");
  m->Add("host_us_per_op", host_us_per_op, "us");
  m->Add("allocs_per_op", Ratio(r.allocs, r.ops), "allocs/op");
  m->Add("peak_rss_mb", PeakRssMb(), "MiB");
  m->Add("read_p50_ms", QuantileMs(r.read_latency_us, 0.50), "ms");
  m->Add("read_p99_ms", QuantileMs(r.read_latency_us, 0.99), "ms");
  m->Add("write_p50_ms", QuantileMs(r.write_latency_us, 0.50), "ms");
  m->Add("write_p99_ms", QuantileMs(r.write_latency_us, 0.99), "ms");
  m->Add("goodput_ops_s", Ratio(r.acked, r.window_s), "ops/s");
  m->Add("failed_frac", Ratio(r.failed_attempts, r.attempts), "frac");
  m->Add("slo_miss_frac", Ratio(r.slo_misses, r.ops), "frac");
}

void AddPerLayer(MetricSink* m, const RunResult& r, const RunResult& traced,
                 const LayerCosts& c) {
  const wvote::MetricsSnapshot& d = r.delta;
  auto sum = [&d](const char* name) { return static_cast<double>(d.SumCounters(name)); };
  const double ops = static_cast<double>(r.ops);
  const double host_ns_per_op = HostUsPerOp(r) * 1000.0;

  const double events_per_op = sum("sim.events_processed") / ops;
  m->Add("sim.events_per_op", events_per_op, "events/op");
  m->Add("sim.coalesced_frac",
         Ratio(sum("sim.events_coalesced"),
               sum("sim.events_scheduled") + sum("sim.events_coalesced")),
         "frac");
  m->Add("sim.ns_per_event", c.sim_ns_per_event, "ns");
  m->Add("sim.allocs_per_event", c.sim_allocs_per_event, "allocs");

  const double msgs_per_op = sum("net.network.messages_sent") / ops;
  m->Add("net.msgs_per_op", msgs_per_op, "msgs/op");
  m->Add("net.bytes_per_op", sum("net.network.bytes_sent") / ops, "B/op");
  m->Add("net.ns_per_msg", c.net_ns_per_msg, "ns");
  m->Add("net.allocs_per_msg", c.net_allocs_per_msg, "allocs");

  const double calls_per_op = sum("rpc.endpoint.calls_started") / ops;
  m->Add("rpc.calls_per_op", calls_per_op, "calls/op");
  m->Add("rpc.ns_per_call", c.rpc_ns_per_call, "ns");
  m->Add("rpc.allocs_per_call", c.rpc_allocs_per_call, "allocs");
  m->Add("rpc.timeouts_per_op", sum("rpc.endpoint.calls_timeout") / ops, "timeouts/op");

  const double disk_writes_per_op = sum("storage.stable_store.writes_started") / ops;
  m->Add("storage.flushes_per_write", Ratio(sum("storage.group_commit_batches"), r.write_ops),
         "flushes/write");
  m->Add("storage.coalesced_frac",
         Ratio(sum("storage.group_commit_writes_coalesced"),
               sum("storage.stable_store.writes_started")),
         "frac");
  m->Add("storage.ns_per_write", c.storage_ns_per_write, "ns");

  const double grants =
      sum("txn.lock_manager.grants_immediate") + sum("txn.lock_manager.grants_after_wait");
  const double lock_requests = grants + sum("txn.lock_manager.dies");
  m->Add("txn.lock.wait_frac", Ratio(sum("txn.lock_manager.grants_after_wait"), lock_requests),
         "frac");
  m->Add("txn.lock.dies_per_op", sum("txn.lock_manager.dies") / ops, "dies/op");
  m->Add("txn.lock.ns_per_acquire", c.lock_ns_per_acquire, "ns");
  m->Add("txn.coordinator.abort_frac",
         Ratio(sum("txn.coordinator.aborted"), sum("txn.coordinator.begun")), "frac");
  m->Add("txn.participant.refused_frac",
         Ratio(sum("txn.participant.prepares_refused"),
               sum("txn.participant.prepares_ok") + sum("txn.participant.prepares_refused")),
         "frac");
  m->Add("txn.participant.indoubt_per_write",
         Ratio(sum("txn.participant.recovered_in_doubt") +
                   sum("txn.participant.indoubt_timer_fired"),
               r.write_ops),
         "txns/write");

  m->Add("core.client.fastpath_hit_frac",
         Ratio(sum("core.suite_client.fastpath_hits"),
               sum("core.suite_client.fastpath_hits") + sum("core.suite_client.fastpath_misses")),
         "frac");
  m->Add("core.client.probes_per_op", sum("core.suite_client.probes_sent") / ops, "probes/op");
  m->Add("core.client.rounds_per_gather",
         Ratio(sum("core.suite_client.gather_rounds"), r.attempts), "rounds");
  m->Add("core.client.unavailable_per_op", sum("core.suite_client.unavailable") / ops,
         "gathers/op");
  m->Add("core.client.retries_per_op", Ratio(r.attempts - r.ops, ops), "retries/op");
  m->Add("core.client.conflicts_per_op", sum("core.suite_client.conflicts") / ops,
         "conflicts/op");
  m->Add("core.client.plan_builds", sum("core.suite_client.plan_builds"), "count");
  double rep_work_total = 0;
  double rep_work_max = 0;
  for (const char* host : {"server-a", "server-b", "server-c"}) {
    const std::string label = std::string("{host=") + host + "}";
    const double work =
        static_cast<double>(d.counter("core.representative.version_polls" + label) +
                            d.counter("core.representative.data_reads" + label));
    rep_work_total += work;
    rep_work_max = std::max(rep_work_max, work);
  }
  m->Add("core.rep.max_share", Ratio(rep_work_max, rep_work_total), "frac");
  m->Add("core.health.breaker_opens", sum("core.health.breaker_opens"), "count");
  // A maximum over one run swings with the worst fault of the seed, so it
  // is reported here, without a regression bound.
  m->Add("max_outage_ms", r.max_outage_us / 1000.0, "ms");

  for (const char* phase : {"gather", "fetch", "prepare", "commit_ack", "lock_wait", "disk"}) {
    auto it = traced.phases.find(phase);
    const std::vector<int64_t> none;
    const std::vector<int64_t>& v = it == traced.phases.end() ? none : it->second;
    m->Add(std::string("phase.") + phase + "_p50_ms", QuantileMs(v, 0.50), "ms");
    m->Add(std::string("phase.") + phase + "_p99_ms", QuantileMs(v, 0.99), "ms");
  }
  // Whole-window totals: the traced run is sliced more finely for harvesting.
  m->Add("trace.overhead_frac",
         (traced.measured_wall_s / static_cast<double>(traced.ops)) /
                 (r.measured_wall_s / ops) - 1.0,
         "frac");

  const double sim_share = events_per_op * c.sim_ns_per_event / host_ns_per_op;
  const double net_share = msgs_per_op * c.net_ns_per_msg / host_ns_per_op;
  const double rpc_share = calls_per_op * c.rpc_ns_per_call / host_ns_per_op;
  const double storage_share = disk_writes_per_op * c.storage_ns_per_write / host_ns_per_op;
  const double lock_share = lock_requests / ops * c.lock_ns_per_acquire / host_ns_per_op;
  m->Add("share.sim", sim_share, "frac");
  m->Add("share.net", net_share, "frac");
  m->Add("share.rpc", rpc_share, "frac");
  m->Add("share.storage", storage_share, "frac");
  m->Add("share.txn.lock", lock_share, "frac");
  m->Add("share.rest", 1.0 - sim_share - net_share - rpc_share - storage_share - lock_share,
         "frac");

  // Gifford's analytic model of Example 2, with each representative's
  // measured up-fraction as its availability (1 without churn).
  wvote::SuiteModel model = wvote::MakeGiffordExamples()[1].model;
  for (wvote::RepModel& rep : model.reps) {
    auto it = r.up_fraction.find(rep.name);
    rep.availability = it == r.up_fraction.end() ? 1.0 : it->second;
  }
  const wvote::VotingAnalysis analysis(model);
  m->Add("analysis.read_latency_residual_ms",
         QuantileMs(r.read_latency_us, 0.50) - analysis.ReadLatencyAllUp(false).ToMillis(),
         "ms");
  const double read_avail =
      1.0 - Ratio(r.first_read_unavailable, r.first_read_attempts);
  const double write_avail =
      1.0 - Ratio(r.first_write_unavailable, r.first_write_attempts);
  m->Add("analysis.read_avail_residual", read_avail - analysis.ReadAvailability(), "frac");
  m->Add("analysis.write_avail_residual", write_avail - analysis.WriteAvailability(), "frac");
}

[[noreturn]] void FailGate(const std::string& what, const std::vector<std::string>& details) {
  std::fprintf(stderr, "wvbench: CORRECTNESS GATE FAILED: %s\n", what.c_str());
  for (size_t i = 0; i < details.size() && i < 5; ++i) {
    std::fprintf(stderr, "  %s\n", details[i].c_str());
  }
  if (details.size() > 5) {
    std::fprintf(stderr, "  ... %zu more\n", details.size() - 5);
  }
  std::exit(1);
}

void Gate(const RunResult& r) {
  if (!r.violations.empty()) {
    FailGate(std::to_string(r.violations.size()) + " violation(s)", r.violations);
  }
  if (r.ops == 0) {
    FailGate("no op fell in the measured window", {});
  }
}

void Describe(const char* label, const RunResult& r) {
  std::printf("%s: %llu ops (%llu reads, %llu writes), %llu attempts, %zu history ops, "
              "setup %.4fs, measured %.3fs, check %.3fs, total %.3fs\n",
              label, static_cast<unsigned long long>(r.ops),
              static_cast<unsigned long long>(r.read_ops),
              static_cast<unsigned long long>(r.write_ops),
              static_cast<unsigned long long>(r.attempts), r.history_ops, r.setup_s,
              r.measured_wall_s, r.check_wall_s, r.total_wall_s);
}

void WriteSpans(const std::string& path, const std::string& events) {
  if (path.empty()) {
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "wvbench: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\"traceEvents\":[\n%s\n]}\n", events.c_str());
  std::fclose(f);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::optional<WorkloadSpec> spec = MakeSpec(args.workload, args.scale);
  if (!spec.has_value()) {
    Usage(("unknown workload " + args.workload).c_str());
  }
  const double started = Now();
  HostSpans spans;
  const int root = spans.Begin("wvbench." + spec->name);
  std::string chrome_events;
  MetricSink metrics;
  RunResult first;

  RunOptions options;
  options.seed = args.seed;
  options.corrupt_history = args.corrupt_history;

  if (args.trace == 0) {
    // The same seed runs until the time is used, at least three times: host
    // time steadies as the median over all runs' timing slices, and every run
    // must reproduce the first exactly. Before each run, two set-up-only
    // runs: the first absorbs the previous teardown, the second is a set-up
    // time sample, so samples share one heap state and span the whole run.
    RunOptions setup_only = options;
    setup_only.setup_only = true;
    std::vector<double> setup_samples;
    std::vector<double> host_samples;
    int runs = 0;
    while (runs < 3 || (Now() - started < args.seconds && runs < kMaxRuns)) {
      int span = spans.Begin("setup", root);
      RunWorkload(*spec, setup_only);
      setup_samples.push_back(RunWorkload(*spec, setup_only).setup_s);
      spans.End(span);
      span = spans.Begin(runs == 0 ? "run.checked" : "run.repeat", root);
      RunResult run = RunWorkload(*spec, options);
      spans.End(span);
      host_samples.insert(host_samples.end(), run.slice_us_per_op.begin(),
                          run.slice_us_per_op.end());
      if (runs++ == 0) {
        Gate(run);
        Describe("run 1", run);
        first = std::move(run);
        options.check_history = false;
      } else if (run.fingerprint != first.fingerprint) {
        FailGate("same seed, different run (determinism)", {});
      }
    }
    std::printf("%d runs, %zu timing slices; host us/op median %.3f, set-up median %.5fs\n",
                runs, host_samples.size(), Median(host_samples), Median(setup_samples));
    std::printf("set-up samples (ms):");
    for (double x : setup_samples) {
      std::printf(" %.2f", x * 1000);
    }
    std::printf("\n");
    AddEndToEnd(&metrics, first, Median(setup_samples), Median(host_samples));
  } else {
    int span = spans.Begin("run.untraced", root);
    first = RunWorkload(*spec, options);
    spans.End(span);
    Gate(first);
    Describe("untraced", first);

    options.check_history = false;
    options.traced = true;
    options.chrome_events = &chrome_events;
    span = spans.Begin("run.traced", root);
    const RunResult traced = RunWorkload(*spec, options);
    spans.End(span);
    Describe("traced", traced);
    if (traced.fingerprint != first.fingerprint) {
      FailGate("tracing changed the schedule (traced and untraced runs differ)", {});
    }

    span = spans.Begin("drivers", root);
    const LayerCosts costs = MeasureLayerCosts(spec->file_bytes, &spans, span);
    spans.End(span);

    // A different seed must reach the workload: small runs, two seeds.
    options = RunOptions();
    options.check_history = false;
    const std::optional<WorkloadSpec> small = MakeSpec(args.workload, args.scale * 0.05);
    span = spans.Begin("run.seed_check", root);
    options.seed = args.seed;
    const uint64_t h1 = RunWorkload(*small, options).history_hash;
    options.seed = args.seed + 1;
    const uint64_t h2 = RunWorkload(*small, options).history_hash;
    spans.End(span);
    if (h1 == h2) {
      FailGate("a different seed produced the same history", {});
    }
    AddPerLayer(&metrics, first, traced, costs);
  }
  spans.End(root);
  spans.AppendChromeEvents(&chrome_events);
  WriteSpans(args.spans_out, chrome_events);

  std::printf("%s seed=%llu trace=%d: correctness gate passed\n", spec->name.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace);
  const uint64_t failed = first.ops - first.acked;
  metrics.Print(first.ops, failed);
  return 0;
}

}  // namespace
}  // namespace wvbench

int main(int argc, char** argv) { return wvbench::Main(argc, argv); }
