// Experiment E14 — load-optimal quorum probing strategies.
//
// Gifford's cheapest-representatives-first rule aims every reader at the
// same cheap prefix: on the 4-rep read-path topology (votes 2,1,1,1, r=2)
// srv-0 absorbs ~85% of all probes and its service rate caps aggregate
// read throughput while three representatives idle. This bench measures
// what a probabilistic probing strategy (Whittaker et al., built by
// src/core/strategy_solver.h) buys back:
//
//   cheapest      — kLowestLatency, the deterministic baseline;
//   load-optimal  — kLoadOptimal, minimax per-host load.
//
// Three scenarios:
//   steady — uniform 10ms client RTTs, single client, 10:1 read:write mix.
//            The acceptance scenario: load-optimal max probe share must be
//            <= 0.35 (vs ~0.85 baseline) with p99 read latency within 15%
//            of cheapest (equal RTTs make sampling latency-neutral).
//   skewed — the read-path RTT matrix (10/30/60/120ms). Shows the
//            latency/load trade: spreading probes now costs tail latency,
//            which is why the policy is a knob and not the default.
//   zipf   — four clients, the op issuer drawn Zipf(1.0) per op over
//            default links. Client-skewed traffic, same rep-side story.
//
// Rows report per-host probe shares (from representative-side version-poll
// counters), max share, Gini imbalance, the implied relative read-throughput
// ceiling (1 / max per-op load on the busiest host), and read p50/p99.
// The final JSON line is committed as BENCH_quorum_strategies.json;
// --baseline=FILE re-checks the steady/load-optimal max share against the
// committed value (fails above 1.25x — the bench-smoke regression guard;
// shares are simulated-deterministic, so the guard is noise-free).

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/histogram.h"
#include "src/workload/generator.h"

using namespace wvote;  // NOLINT: bench brevity

namespace {

int g_reads = 400;  // per run; 10:1 read:write mix

constexpr const char* kHosts[] = {"srv-0", "srv-1", "srv-2", "srv-3"};
constexpr int kNumHosts = 4;

GiffordExample MakeSuite(bool skewed_rtt) {
  GiffordExample ex;
  ex.config.suite_name = "strategies";
  const int votes[] = {2, 1, 1, 1};
  const Duration skew[] = {Duration::Millis(10), Duration::Millis(30), Duration::Millis(60),
                           Duration::Millis(120)};
  for (int i = 0; i < kNumHosts; ++i) {
    ex.config.AddRepresentative(kHosts[i], votes[i]);
    ex.client_rtt.push_back({kHosts[i], skewed_rtt ? skew[i] : Duration::Millis(10)});
  }
  ex.config.read_quorum = 2;
  ex.config.write_quorum = 4;  // V=5, r+w>5, 2w>5
  return ex;
}

struct PolicyResult {
  LatencyHistogram reads;
  uint64_t polls[kNumHosts] = {0, 0, 0, 0};
  uint64_t total_polls = 0;
  uint64_t ops = 0;
  double max_share = 0;
  double gini = 0;
  double max_load = 0;     // polls on the busiest host per op
  double ceiling_x = 0;    // 1 / max_load: relative throughput ceiling
  double expected_max_share = 0;  // solver's prediction for the policy
};

void FinishResult(Cluster& cluster, SuiteClient* client, PolicyResult* out) {
  for (int h = 0; h < kNumHosts; ++h) {
    out->polls[h] = cluster.representative(kHosts[h])->stats().version_polls;
    out->total_polls += out->polls[h];
  }
  uint64_t max_polls = 0;
  double abs_diffs = 0;
  for (int a = 0; a < kNumHosts; ++a) {
    max_polls = std::max(max_polls, out->polls[a]);
    for (int b = 0; b < kNumHosts; ++b) {
      abs_diffs += std::abs(static_cast<double>(out->polls[a]) -
                            static_cast<double>(out->polls[b]));
    }
  }
  out->max_share =
      out->total_polls == 0
          ? 0.0
          : static_cast<double>(max_polls) / static_cast<double>(out->total_polls);
  out->gini = out->total_polls == 0
                  ? 0.0
                  : abs_diffs / (2.0 * kNumHosts * static_cast<double>(out->total_polls));
  out->max_load =
      out->ops == 0 ? 0.0 : static_cast<double>(max_polls) / static_cast<double>(out->ops);
  out->ceiling_x = out->max_load > 0 ? 1.0 / out->max_load : 0.0;
  out->expected_max_share = client->ExpectedMaxShare();
}

// Single-client closed loop, 10:1 read:write (writes keep versions moving so
// the fast-path hint machinery is realistic). Probe attribution comes from
// the representative-side version-poll counters, reset after seeding.
PolicyResult RunSingleClient(bool skewed_rtt, QuorumStrategy policy, const char* tag) {
  SuiteClientOptions copts;
  copts.strategy = policy;
  copts.probe_timeout = Duration::Millis(300);
  GiffordExample ex = MakeSuite(skewed_rtt);
  ExampleDeployment dep = DeployExample(ex, copts, /*seed=*/42);
  Cluster& cluster = *dep.cluster;

  WVOTE_CHECK(cluster.RunTask(dep.client->WriteOnce("contents-0")).ok());
  cluster.net().ResetStats();
  dep.client->ResetStats();
  for (int h = 0; h < kNumHosts; ++h) {
    cluster.representative(kHosts[h])->ResetStats();
  }

  PolicyResult out;
  int writes = 0;
  for (int i = 0; i < g_reads; ++i) {
    if (i % 10 == 9) {
      WVOTE_CHECK(cluster
                      .RunTask(dep.client->WriteOnce("contents-" +
                                                     std::to_string(++writes)))
                      .ok());
      ++out.ops;
    }
    const TimePoint t0 = cluster.sim().Now();
    Result<std::string> r = cluster.RunTask(dep.client->ReadOnce());
    WVOTE_CHECK_MSG(r.ok(), "bench read failed");
    out.reads.Record(cluster.sim().Now() - t0);
    ++out.ops;
  }
  FinishResult(cluster, dep.client, &out);
  DumpMetrics(cluster.metrics(), g_bench_metrics, tag);
  CollectChromeTrace(cluster, tag);
  CollectTimeseries(cluster, tag);
  return out;
}

// Four clients behind default links; each op's issuer is drawn Zipf(1.0), so
// one hot client dominates — the fleet-side skew the strategies must absorb.
PolicyResult RunZipfClients(QuorumStrategy policy, const char* tag) {
  ClusterOptions opts;
  opts.seed = 42;
  Cluster cluster(opts);
  MaybeEnableTracing(cluster);
  MaybeEnableScraping(cluster);
  GiffordExample ex = MakeSuite(/*skewed_rtt=*/false);
  for (int h = 0; h < kNumHosts; ++h) {
    cluster.AddRepresentative(kHosts[h]);
  }
  WVOTE_CHECK(cluster.CreateSuite(ex.config, "initial contents").ok());

  SuiteClientOptions copts;
  copts.strategy = policy;
  copts.probe_timeout = Duration::Millis(300);
  std::vector<SuiteClient*> clients;
  for (int c = 0; c < 4; ++c) {
    clients.push_back(
        cluster.AddClient("client-" + std::to_string(c), ex.config, copts));
  }

  WVOTE_CHECK(cluster.RunTask(clients[0]->WriteOnce("contents-0")).ok());
  cluster.net().ResetStats();
  for (int h = 0; h < kNumHosts; ++h) {
    cluster.representative(kHosts[h])->ResetStats();
  }

  PolicyResult out;
  ZipfianSampler zipf(clients.size(), 1.0);
  Rng pick(/*seed=*/2024);
  int writes = 0;
  for (int i = 0; i < g_reads; ++i) {
    SuiteClient* client = clients[zipf.Sample(&pick)];
    if (i % 10 == 9) {
      WVOTE_CHECK(
          cluster.RunTask(client->WriteOnce("contents-" + std::to_string(++writes))).ok());
      ++out.ops;
    }
    const TimePoint t0 = cluster.sim().Now();
    Result<std::string> r = cluster.RunTask(client->ReadOnce());
    WVOTE_CHECK_MSG(r.ok(), "bench read failed");
    out.reads.Record(cluster.sim().Now() - t0);
    ++out.ops;
  }
  FinishResult(cluster, clients[0], &out);
  DumpMetrics(cluster.metrics(), g_bench_metrics, tag);
  CollectChromeTrace(cluster, tag);
  CollectTimeseries(cluster, tag);
  return out;
}

struct PolicyRow {
  const char* name;
  QuorumStrategy policy;
};

constexpr PolicyRow kPolicies[] = {
    {"cheapest", QuorumStrategy::kLowestLatency},
    {"load-optimal", QuorumStrategy::kLoadOptimal},
};

void PrintRow(const char* scenario, const char* policy, const PolicyResult& r) {
  std::printf("%-7s %-12s |", scenario, policy);
  for (int h = 0; h < kNumHosts; ++h) {
    const double share = r.total_polls == 0
                             ? 0.0
                             : static_cast<double>(r.polls[h]) /
                                   static_cast<double>(r.total_polls);
    std::printf(" %5.1f%%", 100.0 * share);
  }
  std::printf(" | %5.2f %5.2f | %6.2fx | %8.2fms %8.2fms\n", r.max_share, r.gini,
              r.ceiling_x, r.reads.Percentile(50).ToMillis(),
              r.reads.Percentile(99).ToMillis());
}

void AppendPolicyJson(std::string* json, const char* policy, const PolicyResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "\"%s\":{\"shares\":[%.3f,%.3f,%.3f,%.3f],\"max_share\":%.3f,"
                "\"gini\":%.3f,\"max_load\":%.3f,\"ceiling_x\":%.2f,"
                "\"expected_max_share\":%.3f,\"p50_ms\":%.2f,\"p99_ms\":%.2f}",
                policy,
                r.total_polls ? static_cast<double>(r.polls[0]) / r.total_polls : 0.0,
                r.total_polls ? static_cast<double>(r.polls[1]) / r.total_polls : 0.0,
                r.total_polls ? static_cast<double>(r.polls[2]) / r.total_polls : 0.0,
                r.total_polls ? static_cast<double>(r.polls[3]) / r.total_polls : 0.0,
                r.max_share, r.gini, r.max_load, r.ceiling_x, r.expected_max_share,
                r.reads.Percentile(50).ToMillis(), r.reads.Percentile(99).ToMillis());
  *json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchFlags(argc, argv);
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline_path = argv[i] + 11;
    }
  }
  // Simulated time makes 200 ops cheap even in smoke, and the guard wants a
  // sample large enough that shares are stable (they are deterministic for
  // a fixed seed, but keep smoke and full runs comparable).
  g_reads = SmokeIters(g_reads, /*tiny=*/200);

  std::printf("E14: quorum probing strategies — probe-load vs latency, by policy\n");
  std::printf("(4 reps, votes 2,1,1,1, r=2, w=4; %d reads per run, 10:1 read:write;\n",
              g_reads);
  std::printf(" shares from representative-side version-poll counters)\n\n");
  std::printf("%-20s | %6s %6s %6s %6s | %5s %5s | %7s | %10s %10s\n", "scenario/policy",
              "srv-0", "srv-1", "srv-2", "srv-3", "max", "gini", "ceiling", "read p50",
              "read p99");
  PrintRule(108);

  std::map<std::string, std::map<std::string, PolicyResult>> results;
  for (const PolicyRow& p : kPolicies) {
    results["steady"][p.name] = RunSingleClient(
        /*skewed_rtt=*/false, p.policy, (std::string("steady-") + p.name).c_str());
    PrintRow("steady", p.name, results["steady"][p.name]);
  }
  PrintRule(108);
  for (const PolicyRow& p : kPolicies) {
    results["skewed"][p.name] = RunSingleClient(
        /*skewed_rtt=*/true, p.policy, (std::string("skewed-") + p.name).c_str());
    PrintRow("skewed", p.name, results["skewed"][p.name]);
  }
  PrintRule(108);
  for (const PolicyRow& p : kPolicies) {
    results["zipf"][p.name] =
        RunZipfClients(p.policy, (std::string("zipf-") + p.name).c_str());
    PrintRow("zipf", p.name, results["zipf"][p.name]);
  }
  PrintRule(108);

  const PolicyResult& opt = results["steady"]["load-optimal"];
  std::printf(
      "\nshape check: steady/cheapest aims ~85%% of probes at srv-0 (ceiling ~1x);\n"
      "steady/load-optimal holds every share at/below 0.35 and lifts the read-\n"
      "throughput ceiling >2x at equal p99 (uniform RTTs make sampling latency-\n"
      "neutral). skewed shows the trade: spreading probes pays tail latency on the\n"
      "slow representatives — that is why the policy is per-client tunable.\n\n");

  // Machine-readable summary; the full-run line is committed as
  // BENCH_quorum_strategies.json (guard_max_share = steady/load-optimal).
  std::string json = "{\"bench\":\"quorum_strategies\",\"smoke\":";
  json += g_bench_smoke ? "true" : "false";
  char guard_buf[64];
  std::snprintf(guard_buf, sizeof(guard_buf), ",\"guard_max_share\":%.3f", opt.max_share);
  json += guard_buf;
  for (const char* scenario : {"steady", "skewed", "zipf"}) {
    json += std::string(",\"") + scenario + "\":{";
    bool first = true;
    for (const PolicyRow& p : kPolicies) {
      if (!first) {
        json += ",";
      }
      first = false;
      AppendPolicyJson(&json, p.name, results[scenario][p.name]);
    }
    json += "}";
  }
  json += "}";
  std::printf("%s\n", json.c_str());

  WriteChromeTrace();

  WriteTimeseries();

  if (!baseline_path.empty()) {
    const double committed = CommittedValue(ReadWholeFile(baseline_path), "\"guard_max_share\":");
    const double limit = committed * 1.25;
    std::printf("regression guard: measured max share %.3f vs committed %.3f (limit %.3f)\n",
                opt.max_share, committed, limit);
    if (opt.max_share > limit) {
      std::fprintf(stderr,
                   "FAIL: steady/load-optimal max probe share regressed more than 25%% "
                   "above the committed BENCH_quorum_strategies.json baseline\n");
      return 1;
    }
    // The acceptance bound itself, so a drifting baseline cannot mask it.
    if (opt.max_share > 0.35) {
      std::fprintf(stderr,
                   "FAIL: steady/load-optimal max probe share %.3f exceeds the 0.35 "
                   "acceptance bound\n",
                   opt.max_share);
      return 1;
    }
  }
  return 0;
}
