// Experiment E3 — blocking probability vs representative reliability.
//
// For a five-representative suite under three vote configurations
// (read-one/write-all, majority, and a weighted 2-1-1-1-1 assignment),
// sweeps the per-representative availability and prints the analytic read
// and write availability, validated against a crash-injected simulation
// (fraction of operations that found a quorum).
//
// A full-size run exits 1 if any row's simulated read availability falls
// more than kReadGuardTolerance below the model's: a gather polls until
// every candidate was asked, so its reads should reach the model. A --smoke
// run is too short to estimate availability and skips the check.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/analysis/model.h"
#include "src/chaos/nemesis.h"
#include "src/workload/generator.h"

using namespace wvote;  // NOLINT: bench brevity

namespace {

constexpr double kReadGuardTolerance = 0.03;

struct VoteScheme {
  const char* name;
  std::vector<int> votes;
  int r;
  int w;
};

// Simulated availability: run a read-heavy workload while every
// representative crash/restarts around the target availability; report the
// fraction of reads and writes that succeeded.
struct SimPoint {
  double read_ok_fraction;
  double write_ok_fraction;
};

SimPoint SimulateAvailability(const VoteScheme& scheme, double availability) {
  ClusterOptions copts;
  copts.seed = 7;
  Cluster cluster(copts);
  MaybeEnableTracing(cluster);
  MaybeEnableScraping(cluster);
  SuiteConfig config;
  config.suite_name = "avail";
  std::vector<std::string> hosts;
  for (size_t i = 0; i < scheme.votes.size(); ++i) {
    hosts.push_back("srv-" + std::to_string(i));
    cluster.AddRepresentative(hosts.back());
    config.AddRepresentative(hosts.back(), scheme.votes[i]);
  }
  config.read_quorum = scheme.r;
  config.write_quorum = scheme.w;
  WVOTE_CHECK(cluster.CreateSuite(config, "x").ok());

  SuiteClientOptions client_opts;
  client_opts.probe_timeout = Duration::Millis(250);
  SuiteClient* client = cluster.AddClient("client", config, client_opts);

  const Duration run = SmokeRun(Duration::Seconds(600), Duration::Seconds(20));
  const TimePoint end = cluster.sim().Now() + run;
  Nemesis nemesis(&cluster, CrashRestartSchedule(hosts,
                                                 ProfileForAvailability(availability,
                                                                        Duration::Seconds(5)),
                                                 run, /*seed=*/1000));
  nemesis.Deploy();

  // One-shot attempts (no retry) so each op samples quorum availability.
  WorkloadOptions wopts;
  wopts.read_fraction = 0.5;
  wopts.mean_think_time = Duration::Millis(500);
  wopts.run_length = run;
  wopts.value_size = 128;
  WorkloadStats stats;
  stats.RegisterWith(&cluster.metrics(), {{"client", "client"}});
  SuiteStoreAdapter store(client, /*retries=*/1);
  Spawn(RunClosedLoopClient(&cluster.sim(), &store, wopts, /*seed=*/99, &stats));
  cluster.sim().RunUntil(end + Duration::Seconds(30));

  char tag[96];
  std::snprintf(tag, sizeof(tag), "%s p=%.2f", scheme.name, availability);
  DumpMetrics(cluster.metrics(), g_bench_metrics, tag);
  CollectChromeTrace(cluster, tag);
  CollectTimeseries(cluster, tag);

  SimPoint point{0.0, 0.0};
  if (stats.reads_ok + stats.read_failures > 0) {
    point.read_ok_fraction = static_cast<double>(stats.reads_ok) /
                             static_cast<double>(stats.reads_ok + stats.read_failures);
  }
  if (stats.writes_ok + stats.write_failures > 0) {
    point.write_ok_fraction = static_cast<double>(stats.writes_ok) /
                              static_cast<double>(stats.writes_ok + stats.write_failures);
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchFlags(argc, argv);
  int guard_failures = 0;
  const std::vector<VoteScheme> schemes = {
      {"read-one/write-all", {1, 1, 1, 1, 1}, 1, 5},
      {"majority", {1, 1, 1, 1, 1}, 3, 3},
      {"weighted 2-1-1-1-1", {2, 1, 1, 1, 1}, 2, 5},
  };

  std::printf("E3: read/write availability vs per-representative availability\n\n");
  std::printf("%-20s %6s | %11s %11s | %11s %11s\n", "scheme", "p(rep)", "read(model)",
              "read(sim)", "write(model)", "write(sim)");
  PrintRule(92);

  for (const VoteScheme& scheme : schemes) {
    for (double p : {0.5, 0.8, 0.9, 0.95, 0.99}) {
      SuiteModel model;
      for (int v : scheme.votes) {
        model.reps.push_back(
            RepModel("r" + std::to_string(model.reps.size()), v, Duration::Millis(10), p));
      }
      model.read_quorum = scheme.r;
      model.write_quorum = scheme.w;
      VotingAnalysis analysis(model);
      const SimPoint sim = SimulateAvailability(scheme, p);
      std::printf("%-20s %6.2f | %11.4f %11.4f | %11.4f %11.4f\n", scheme.name, p,
                  analysis.ReadAvailability(), sim.read_ok_fraction,
                  analysis.WriteAvailability(), sim.write_ok_fraction);
      if (!g_bench_smoke &&
          sim.read_ok_fraction < analysis.ReadAvailability() - kReadGuardTolerance) {
        std::printf("GUARD FAILED: %s p=%.2f read(sim) %.4f is more than %.2f below the model\n",
                    scheme.name, p, sim.read_ok_fraction, kReadGuardTolerance);
        ++guard_failures;
      }
    }
    PrintRule(92);
  }
  std::printf("shape check: ROWA reads stay available longest; ROWA writes collapse first;\n"
              "majority balances the two; extra votes on one representative skew both.\n");
  WriteChromeTrace();
  WriteTimeseries();
  return guard_failures == 0 ? 0 : 1;
}
