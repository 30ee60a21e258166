// scenario_cli — run an ad-hoc weighted-voting scenario from the command
// line and print workload statistics.
//
// Usage:
//   scenario_cli [--reps N] [--votes v1,v2,...] [--r R] [--w W]
//                [--latency-ms l1,l2,...] [--read-fraction F]
//                [--clients C] [--seconds S] [--value-bytes B]
//                [--availability P] [--seed X]
//                [--strategy lowest|fewest|broadcast|load-optimal]
//                [--probe-timeout-ms N] [--data-timeout-ms N] [--gray-tolerance]
//                [--gray-host NAME] [--gray-mult M] [--gray-from S] [--gray-until S]
//
// Examples:
//   scenario_cli --reps 5 --r 1 --w 5 --read-fraction 0.99
//   scenario_cli --votes 2,1,1 --r 2 --w 3 --latency-ms 75,100,750
//   scenario_cli --reps 3 --r 2 --w 2 --availability 0.9 --seconds 300
//   # one host goes 10x gray mid-run; the tolerance stack routes around it
//   # (watch core.health.srtt_ms / suspicion rise and recover in the series):
//   scenario_cli --reps 5 --r 2 --w 4 --gray-host rep-0 --gray-mult 10
//                --gray-tolerance --timeseries=/tmp/gray.json

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "src/chaos/nemesis.h"
#include "src/core/cluster.h"
#include "src/obs/metrics.h"
#include "src/workload/generator.h"

using namespace wvote;  // NOLINT: example brevity

namespace {

std::vector<int> ParseIntList(const std::string& csv) {
  std::vector<int> out;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) {
      comma = csv.size();
    }
    out.push_back(std::atoi(csv.substr(pos, comma - pos).c_str()));
    pos = comma + 1;
  }
  return out;
}

struct Args {
  int reps = 3;
  std::vector<int> votes;        // default: 1 each
  int r = 2;
  int w = 2;
  std::vector<int> latency_ms;   // default: 10ms each
  double read_fraction = 0.9;
  int clients = 2;
  int seconds = 60;
  size_t value_bytes = 1024;
  double availability = 1.0;     // in (0, 1]; < 1.0 enables crash injection
  uint64_t seed = 42;
  QuorumStrategy strategy = QuorumStrategy::kLowestLatency;
  int probe_timeout_ms = 500;
  int data_timeout_ms = 5000;
  bool gray_tolerance = false;     // hedged probes + demotion
  std::string gray_host;           // inject a gray fault on this host mid-run
  double gray_mult = 10.0;
  double gray_from_s = -1.0;       // default: seconds/4
  double gray_until_s = -1.0;      // default: 3*seconds/4
  bool metrics = false;
  bool metrics_json = false;
  std::string trace_path;           // --trace=FILE: Chrome-trace JSON export
  std::string timeseries_path;      // --timeseries=FILE: sim-time series export
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--reps") {
      args->reps = std::atoi(next());
    } else if (flag == "--votes") {
      args->votes = ParseIntList(next());
    } else if (flag == "--r") {
      args->r = std::atoi(next());
    } else if (flag == "--w") {
      args->w = std::atoi(next());
    } else if (flag == "--latency-ms") {
      args->latency_ms = ParseIntList(next());
    } else if (flag == "--read-fraction") {
      args->read_fraction = std::atof(next());
    } else if (flag == "--clients") {
      args->clients = std::atoi(next());
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(next());
    } else if (flag == "--value-bytes") {
      args->value_bytes = static_cast<size_t>(std::atoll(next()));
    } else if (flag == "--availability") {
      const char* text = next();
      char* end = nullptr;
      args->availability = std::strtod(text, &end);
      if (end == text || *end != '\0' ||
          !(args->availability > 0.0 && args->availability <= 1.0)) {
        std::fprintf(stderr, "--availability must be a number in (0, 1], got %s\n", text);
        return false;
      }
    } else if (flag == "--seed") {
      args->seed = static_cast<uint64_t>(std::atoll(next()));
    } else if (flag == "--strategy") {
      const std::string s = next();
      if (s == "lowest") {
        args->strategy = QuorumStrategy::kLowestLatency;
      } else if (s == "fewest") {
        args->strategy = QuorumStrategy::kFewestMessages;
      } else if (s == "broadcast") {
        args->strategy = QuorumStrategy::kBroadcast;
      } else if (s == "load-optimal") {
        args->strategy = QuorumStrategy::kLoadOptimal;
      } else {
        std::fprintf(stderr, "unknown strategy %s\n", s.c_str());
        return false;
      }
    } else if (flag == "--probe-timeout-ms") {
      args->probe_timeout_ms = std::atoi(next());
    } else if (flag == "--data-timeout-ms") {
      args->data_timeout_ms = std::atoi(next());
    } else if (flag == "--gray-tolerance") {
      args->gray_tolerance = true;
    } else if (flag == "--gray-host") {
      args->gray_host = next();
    } else if (flag == "--gray-mult") {
      args->gray_mult = std::atof(next());
    } else if (flag == "--gray-from") {
      args->gray_from_s = std::atof(next());
    } else if (flag == "--gray-until") {
      args->gray_until_s = std::atof(next());
    } else if (std::strncmp(flag.c_str(), "--trace=", 8) == 0) {
      args->trace_path = flag.substr(8);
    } else if (std::strncmp(flag.c_str(), "--timeseries=", 13) == 0) {
      args->timeseries_path = flag.substr(13);
    } else if (flag == "--metrics" || flag == "--metrics=text") {
      args->metrics = true;
    } else if (flag == "--metrics=json") {
      args->metrics = true;
      args->metrics_json = true;
    } else if (flag == "--help" || flag == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (!args->votes.empty()) {
    args->reps = static_cast<int>(args->votes.size());
  }
  return true;
}

// Degrade one host's links by `mult` for [from, until) of simulated time —
// slow, not dead, so quorums still complete and only the tolerance stack
// (hedges / demotion) changes the experienced latency.
Task<void> RunGrayWindow(Simulator* sim, Network* net, HostId victim, double mult,
                         Duration from, Duration until) {
  co_await sim->Sleep(from);
  net->SetHostGrayInbound(victim, mult);
  net->SetHostGrayOutbound(victim, mult);
  if (until > from) {
    co_await sim->Sleep(until - from);
    net->SetHostGrayInbound(victim, 1.0);
    net->SetHostGrayOutbound(victim, 1.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s [--reps N] [--votes v1,v2,..] [--r R] [--w W]\n"
                 "          [--latency-ms l1,l2,..] [--read-fraction F] [--clients C]\n"
                 "          [--seconds S] [--value-bytes B] [--availability P]\n"
                 "          [--seed X] [--strategy lowest|fewest|broadcast|load-optimal]\n"
                 "          [--probe-timeout-ms N] [--data-timeout-ms N] [--gray-tolerance]\n"
                 "          [--gray-host NAME] [--gray-mult M] [--gray-from S] [--gray-until S]\n"
                 "          [--metrics[=json]] [--trace=FILE] [--timeseries=FILE]\n",
                 argv[0]);
    return 2;
  }

  ClusterOptions copts;
  copts.seed = args.seed;
  if (!args.timeseries_path.empty()) {
    // Size the ring to hold the whole run (plus drain slack past the
    // horizon) so the export and sparklines cover the traffic, not just the
    // idle tail.
    copts.scrape_window_capacity = static_cast<size_t>(args.seconds) * 100 + 4096;
  }
  Cluster cluster(copts);
  if (!args.trace_path.empty()) {
    cluster.tracer().Enable(true);
  }
  if (!args.timeseries_path.empty()) {
    cluster.EnableScraping(Duration::Millis(10));
  }

  SuiteConfig config;
  config.suite_name = "cli";
  std::vector<std::string> rep_hosts;
  for (int i = 0; i < args.reps; ++i) {
    rep_hosts.push_back("rep-" + std::to_string(i));
    cluster.AddRepresentative(rep_hosts.back());
    const int votes = i < static_cast<int>(args.votes.size()) ? args.votes[static_cast<size_t>(i)] : 1;
    config.AddRepresentative(rep_hosts.back(), votes);
  }
  config.read_quorum = args.r;
  config.write_quorum = args.w;
  Status valid = config.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "invalid configuration: %s\n", valid.ToString().c_str());
    return 2;
  }
  WVOTE_CHECK(cluster.CreateSuite(config, std::string(args.value_bytes, 'i')).ok());

  SuiteClientOptions client_opts;
  client_opts.strategy = args.strategy;
  client_opts.probe_timeout = Duration::Millis(args.probe_timeout_ms);
  client_opts.data_timeout = Duration::Millis(args.data_timeout_ms);
  client_opts.gray_tolerance = args.gray_tolerance;

  std::printf("scenario: %s\n", config.ToString().c_str());
  std::printf("workload: %d clients, read fraction %.2f, %ds, %zuB values, availability %.2f\n",
              args.clients, args.read_fraction, args.seconds, args.value_bytes,
              args.availability);
  // Echo the effective timeout / tolerance knobs so a pasted run header is
  // enough to reproduce the configuration.
  std::printf("timeouts: probe %.0fms, data %.0fms; gray tolerance %s; strategy %s\n",
              client_opts.probe_timeout.ToMillis(), client_opts.data_timeout.ToMillis(),
              client_opts.gray_tolerance ? "on" : "off", QuorumStrategyName(client_opts.strategy));

  const Duration run = Duration::Seconds(args.seconds);
  std::vector<WorkloadStats> stats(static_cast<size_t>(args.clients));
  std::vector<std::unique_ptr<SuiteStoreAdapter>> stores;
  for (int c = 0; c < args.clients; ++c) {
    SuiteClient* client =
        cluster.AddClient("client-" + std::to_string(c), config, client_opts);
    const HostId me = cluster.net().FindHost("client-" + std::to_string(c))->id();
    for (int i = 0; i < args.reps; ++i) {
      const Duration rtt = Duration::Millis(
          i < static_cast<int>(args.latency_ms.size()) ? args.latency_ms[static_cast<size_t>(i)] : 10);
      cluster.net().SetSymmetricLink(
          me, cluster.net().FindHost("rep-" + std::to_string(i))->id(),
          LatencyModel::Fixed(rtt / 2));
    }
    stores.push_back(std::make_unique<SuiteStoreAdapter>(client));
    stats[static_cast<size_t>(c)].RegisterWith(
        &cluster.metrics(), {{"client", "client-" + std::to_string(c)}});
    WorkloadOptions wopts;
    wopts.read_fraction = args.read_fraction;
    wopts.mean_think_time = Duration::Millis(100);
    wopts.run_length = run;
    wopts.value_size = args.value_bytes;
    Spawn(RunClosedLoopClient(&cluster.sim(), stores.back().get(), wopts,
                              args.seed + static_cast<uint64_t>(c) + 1,
                              &stats[static_cast<size_t>(c)]));
  }

  Nemesis nemesis(&cluster,
                  args.availability < 1.0
                      ? CrashRestartSchedule(
                            rep_hosts,
                            ProfileForAvailability(args.availability, Duration::Seconds(5)),
                            run, args.seed * 7)
                      : FaultSchedule{});
  nemesis.Deploy();

  if (!args.gray_host.empty()) {
    Host* victim = cluster.net().FindHost(args.gray_host);
    if (victim == nullptr) {
      std::fprintf(stderr, "unknown --gray-host %s\n", args.gray_host.c_str());
      return 2;
    }
    const Duration from = args.gray_from_s >= 0.0
                              ? Duration::Micros(static_cast<int64_t>(args.gray_from_s * 1e6))
                              : run / 4;
    const Duration until = args.gray_until_s >= 0.0
                               ? Duration::Micros(static_cast<int64_t>(args.gray_until_s * 1e6))
                               : (run / 4) * 3;
    std::printf("gray fault: %s at %.1fx from %.1fs to %.1fs\n", args.gray_host.c_str(),
                args.gray_mult, from.ToSeconds(), until.ToSeconds());
    Spawn(RunGrayWindow(&cluster.sim(), &cluster.net(), victim->id(), args.gray_mult, from,
                        until));
  }

  cluster.sim().RunUntil(cluster.sim().Now() + run + Duration::Seconds(60));

  WorkloadStats total;
  for (const WorkloadStats& s : stats) {
    total.MergeFrom(s);
  }
  std::printf("\nresults over %ds simulated:\n  %s\n", args.seconds, total.Summary().c_str());
  std::printf("  throughput: %.1f ops/s\n", total.throughput_per_sec(run));
  const NetworkStats& net = cluster.net().stats();
  std::printf("  network: %llu messages, %.2f MB\n",
              static_cast<unsigned long long>(net.messages_sent),
              static_cast<double>(net.bytes_sent) / 1e6);
  if (args.metrics) {
    if (args.metrics_json) {
      std::printf("%s\n", cluster.metrics().ExportJson().c_str());
    } else {
      std::printf("\n=== metrics ===\n%s=== end metrics ===\n",
                  cluster.metrics().ExportText().c_str());
    }
  }
  if (!args.trace_path.empty()) {
    std::FILE* f = std::fopen(args.trace_path.c_str(), "w");
    WVOTE_CHECK_MSG(f != nullptr, "cannot open --trace output file");
    std::fprintf(f, "%s\n", cluster.tracer().ExportChromeTrace().c_str());
    std::fclose(f);
    std::fprintf(stderr, "wrote Chrome trace to %s\n", args.trace_path.c_str());
  }
  if (!args.timeseries_path.empty() && cluster.scraper() != nullptr) {
    const TimeSeriesStore& store = cluster.scraper()->store();
    std::FILE* f = std::fopen(args.timeseries_path.c_str(), "w");
    WVOTE_CHECK_MSG(f != nullptr, "cannot open --timeseries output file");
    std::fprintf(f, "{\"timeseries\":%s,\"slo_events\":%s}\n",
                 store.ExportJson(store.capacity()).c_str(),
                 cluster.slo() != nullptr ? cluster.slo()->EventsJson().c_str() : "[]");
    std::fclose(f);
    std::fprintf(stderr, "wrote %llu windows of time-series to %s\n",
                 static_cast<unsigned long long>(store.windows_sealed()),
                 args.timeseries_path.c_str());
    // Terminal sparkline summary for the headline series. The sim drains
    // in-flight work past the workload horizon, so the newest windows are
    // idle; trim the all-zero tail before picking the last 64. Only the
    // traffic counters define the active window — the health gauges keep
    // reporting through the idle drain and would stretch it — but the
    // gauges are displayed over the same window so a host going gray (and
    // recovering) lines up with the traffic it perturbed.
    const char* kActivity[] = {"core.suite_client.reads", "core.suite_client.writes",
                               "core.suite_client.unavailable",
                               "net.network.messages_sent"};
    const char* kHealth[] = {"core.health.srtt_ms", "core.health.suspicion",
                             "core.health.breaker"};
    std::vector<const char*> headline(std::begin(kActivity), std::end(kActivity));
    headline.insert(headline.end(), std::begin(kHealth), std::end(kHealth));
    std::map<std::string, std::vector<double>> tails;
    size_t last_active = 0;
    for (const char* name : headline) {
      std::vector<double> all = store.SumTail(name, store.capacity());
      const bool activity = std::find_if(std::begin(kActivity), std::end(kActivity),
                                         [name](const char* a) {
                                           return std::strcmp(a, name) == 0;
                                         }) != std::end(kActivity);
      if (activity) {
        for (size_t i = 0; i < all.size(); ++i) {
          if (all[i] != 0.0) last_active = std::max(last_active, i + 1);
        }
      }
      tails[name] = std::move(all);
    }
    // One glyph per chunk of windows, whole active run left to right.
    const size_t active = std::max<size_t>(last_active, 1);
    const size_t chunk = (active + 63) / 64;
    std::printf("\nsim-time series (%zu active windows @ %llu us, %zu per glyph):\n", active,
                static_cast<unsigned long long>(store.resolution_us()), chunk);
    for (const char* name : headline) {
      std::vector<double>& tail = tails[name];
      if (tail.empty()) continue;
      tail.resize(active);
      std::vector<double> cols;
      for (size_t i = 0; i < tail.size(); i += chunk) {
        double sum = 0;
        for (size_t j = i; j < std::min(tail.size(), i + chunk); ++j) sum += tail[j];
        cols.push_back(sum);
      }
      std::printf("  %-34s %s\n", name, Sparkline(cols).c_str());
    }
    if (cluster.slo() != nullptr) {
      std::printf("%s", cluster.slo()->Summary().c_str());
    }
  }
  return 0;
}
