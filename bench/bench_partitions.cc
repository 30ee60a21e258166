// Experiment E6 — behavior under network partitions.
//
// Five equal-vote representatives, clients on both sides of a series of
// partitions. Measures, per (r, w) configuration:
//   * operations completed by the majority-side and minority-side clients
//     during partitions (mutual exclusion: at most one side may write);
//   * a safety check that at no point did both sides complete writes during
//     the same partition epoch;
//   * convergence: after healing, all representatives reach the same
//     version.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

using namespace wvote;  // NOLINT: bench brevity

namespace {

struct PartitionResult {
  uint64_t majority_writes = 0;
  uint64_t minority_writes = 0;
  uint64_t majority_reads = 0;
  uint64_t minority_reads = 0;
  bool mutual_exclusion_held = true;
  bool converged = true;
};

int g_epochs = 8;

PartitionResult RunOne(int r, int w) {
  ClusterOptions copts;
  copts.seed = 31;
  Cluster cluster(copts);
  MaybeEnableTracing(cluster);
  MaybeEnableScraping(cluster);
  std::vector<std::string> servers;
  for (int i = 0; i < 5; ++i) {
    servers.push_back("srv-" + std::to_string(i));
    cluster.AddRepresentative(servers.back());
  }
  SuiteConfig config = SuiteConfig::MakeUniform("part", servers, r, w);
  WVOTE_CHECK(cluster.CreateSuite(config, "v0").ok());

  SuiteClientOptions copt;
  copt.probe_timeout = Duration::Millis(250);
  SuiteClient* major = cluster.AddClient("client-major", config, copt);
  SuiteClient* minor = cluster.AddClient("client-minor", config, copt);

  auto host = [&](const std::string& name) { return cluster.net().FindHost(name)->id(); };

  PartitionResult out;
  for (int epoch = 0; epoch < g_epochs; ++epoch) {
    cluster.net().Partition(
        {{host("srv-0"), host("srv-1"), host("srv-2"), host("client-major")},
         {host("srv-3"), host("srv-4"), host("client-minor")}});

    uint64_t major_writes_this_epoch = 0;
    uint64_t minor_writes_this_epoch = 0;
    for (int op = 0; op < 3; ++op) {
      if (cluster.RunTask(major->WriteOnce("major-e" + std::to_string(epoch), 1)).ok()) {
        ++out.majority_writes;
        ++major_writes_this_epoch;
      }
      if (cluster.RunTask(minor->WriteOnce("minor-e" + std::to_string(epoch), 1)).ok()) {
        ++out.minority_writes;
        ++minor_writes_this_epoch;
      }
      if (cluster.RunTask(major->ReadOnce(1)).ok()) {
        ++out.majority_reads;
      }
      if (cluster.RunTask(minor->ReadOnce(1)).ok()) {
        ++out.minority_reads;
      }
    }
    if (major_writes_this_epoch > 0 && minor_writes_this_epoch > 0) {
      out.mutual_exclusion_held = false;
    }
    cluster.net().HealPartition();
    // One broadcast reader to converge stale copies after each epoch.
    SuiteClientOptions bc;
    bc.strategy = QuorumStrategy::kBroadcast;
    SuiteClient* sweeper =
        cluster.AddClient("sweeper-" + std::to_string(epoch), config, bc);
    (void)cluster.RunTask(sweeper->ReadOnce());
    cluster.sim().RunFor(Duration::Seconds(2));
  }

  Version expected = 0;
  for (const std::string& s : servers) {
    Result<VersionedValue> v = cluster.representative(s)->CurrentValue("part");
    if (!v.ok()) {
      out.converged = false;
      continue;
    }
    if (expected == 0) {
      expected = v.value().version;
    } else if (v.value().version != expected) {
      out.converged = false;
    }
  }
  char tag[64];
  std::snprintf(tag, sizeof(tag), "r=%d w=%d", r, w);
  DumpMetrics(cluster.metrics(), g_bench_metrics, tag);
  CollectChromeTrace(cluster, tag);
  CollectTimeseries(cluster, tag);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchFlags(argc, argv);
  g_epochs = SmokeIters(8, 2);
  std::printf("E6: partitions — mutual exclusion and partial operability\n");
  std::printf("5 servers; partition {0,1,2} vs {3,4}; %d epochs x 3 ops per side\n\n",
              g_epochs);
  std::printf("%3s %3s | %14s %14s | %13s %13s | %10s %10s\n", "r", "w", "major writes",
              "minor writes", "major reads", "minor reads", "mutex held", "converged");
  PrintRule(105);

  struct Config {
    int r;
    int w;
  };
  for (const Config& c : {Config{1, 5}, Config{2, 4}, Config{3, 3}, Config{2, 5}}) {
    PartitionResult res = RunOne(c.r, c.w);
    std::printf("%3d %3d | %14llu %14llu | %13llu %13llu | %10s %10s\n", c.r, c.w,
                static_cast<unsigned long long>(res.majority_writes),
                static_cast<unsigned long long>(res.minority_writes),
                static_cast<unsigned long long>(res.majority_reads),
                static_cast<unsigned long long>(res.minority_reads),
                res.mutual_exclusion_held ? "yes" : "NO (BUG)",
                res.converged ? "yes" : "NO (BUG)");
  }
  std::printf("\nshape check: writes only ever complete on the side holding a write quorum;\n"
              "r=1 lets the minority keep reading; r=3 blocks minority reads too.\n");
  WriteChromeTrace();
  WriteTimeseries();
  return 0;
}
