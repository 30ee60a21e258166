// Experiment E8 — quorum-selection strategy ablation.
//
// Two parts:
//   1. A table comparing the gather latency and message cost of the three
//      probing strategies (lowest-latency, fewest-messages, broadcast) on a
//      heterogeneous 7-representative suite — the design choice behind
//      Gifford's "collect votes from the cheapest representatives".
//   2. google-benchmark microbenchmarks of QuorumPlanner::Plan itself
//      (pure CPU cost of planning, no simulation).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/quorum.h"

using namespace wvote;  // NOLINT: bench brevity

namespace {


GiffordExample MakeHeterogeneousSuite(QuorumStrategy strategy) {
  GiffordExample ex;
  ex.config.suite_name = "hetero";
  const int votes[] = {3, 2, 2, 1, 1, 1, 1};
  const Duration rtt[] = {Duration::Millis(240), Duration::Millis(30), Duration::Millis(60),
                          Duration::Millis(10),  Duration::Millis(20), Duration::Millis(90),
                          Duration::Millis(120)};
  for (int i = 0; i < 7; ++i) {
    const std::string host = "srv-" + std::to_string(i);
    ex.config.AddRepresentative(host, votes[i]);
    ex.model.reps.push_back(RepModel(host, votes[i], rtt[i], 0.99));
    ex.client_rtt.push_back({host, rtt[i]});
  }
  ex.config.read_quorum = ex.model.read_quorum = 5;
  ex.config.write_quorum = ex.model.write_quorum = 7;  // V=11, r+w>11, 2w>11
  return ex;
}

void PrintStrategyTable(int ops) {
  std::printf("E8: probing-strategy ablation (7 reps, votes 3,2,2,1,1,1,1, r=5, w=7)\n\n");
  std::printf("%-18s | %11s %11s | %14s %12s\n", "strategy", "read mean", "write mean",
              "messages/op", "probes sent");
  PrintRule(80);
  for (QuorumStrategy strategy :
       {QuorumStrategy::kLowestLatency, QuorumStrategy::kFewestMessages,
        QuorumStrategy::kBroadcast}) {
    SuiteClientOptions copt;
    copt.strategy = strategy;
    // Probe-strategy costs on the literal two-phase read; the fast path
    // (E10) would mask the strategies' fetch-phase differences.
    copt.fastpath_reads = false;
    GiffordExample ex = MakeHeterogeneousSuite(strategy);
    ExampleDeployment dep = DeployExample(ex, copt);
    dep.cluster->net().ResetStats();
    LatencyHistogram reads = TimeReads(*dep.cluster, dep.client, ops);
    LatencyHistogram writes = TimeWrites(*dep.cluster, dep.client, ops);
    const NetworkStats& net = dep.cluster->net().stats();
    std::printf("%-18s | %9.1fms %9.1fms | %14.1f %12llu\n", QuorumStrategyName(strategy),
                reads.Mean().ToMillis(), writes.Mean().ToMillis(),
                static_cast<double>(net.messages_sent) / (2.0 * ops),
                static_cast<unsigned long long>(dep.client->stats().probes_sent));
    DumpMetrics(dep.cluster->metrics(), g_bench_metrics, QuorumStrategyName(strategy));
    CollectChromeTrace(*dep.cluster, QuorumStrategyName(strategy));
    CollectTimeseries(*dep.cluster, QuorumStrategyName(strategy));
  }
  std::printf("\nshape check: lowest-latency wins time, fewest-messages wins probe count,\n"
              "broadcast pays the most messages for the most failure tolerance.\n\n");
}

SuiteConfig MakePlannerConfig(int n) {
  SuiteConfig config;
  config.suite_name = "planner";
  for (int i = 0; i < n; ++i) {
    config.AddRepresentative("srv-" + std::to_string(i), 1 + i % 3);
  }
  const int v = config.TotalVotes();
  config.read_quorum = v / 2 + 1;
  config.write_quorum = v / 2 + 1;
  return config;
}

void BM_PlanLowestLatency(benchmark::State& state) {
  const SuiteConfig config = MakePlannerConfig(static_cast<int>(state.range(0)));
  QuorumPlanner planner(config, [](const std::string& name) {
    return HostLink{kInvalidHost, Duration::Micros(1000 + static_cast<int64_t>(name.size()) * 37)};
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        planner.Plan(config.read_quorum, QuorumStrategy::kLowestLatency));
  }
}
BENCHMARK(BM_PlanLowestLatency)->Arg(3)->Arg(7)->Arg(15)->Arg(31);

void BM_PlanFewestMessages(benchmark::State& state) {
  const SuiteConfig config = MakePlannerConfig(static_cast<int>(state.range(0)));
  QuorumPlanner planner(config, [](const std::string& name) {
    return HostLink{kInvalidHost, Duration::Micros(1000 + static_cast<int64_t>(name.size()) * 37)};
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        planner.Plan(config.read_quorum, QuorumStrategy::kFewestMessages));
  }
}
BENCHMARK(BM_PlanFewestMessages)->Arg(3)->Arg(7)->Arg(15)->Arg(31);

}  // namespace

int main(int argc, char** argv) {
  ParseBenchFlags(argc, argv);
  PrintStrategyTable(SmokeIters(40));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  WriteChromeTrace();
  WriteTimeseries();
  return 0;
}
