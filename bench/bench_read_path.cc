// Experiment E10 — single-round-trip fast-path reads.
//
// Measures what piggybacking contents on version probes buys on a read-heavy
// workload: baseline (fastpath off: every read pays version poll + explicit
// data fetch) vs fast path (the cheapest likely-current probe carries the
// data; the quorum's currency proof covers the piggybacked copy).
//
// Two scenarios, each run both ways:
//   steady — healthy heterogeneous suite, 10:1 read:write mix;
//   faulty — same suite with the cheapest representative crash/restarting
//            throughout, exercising the fallback path.
//
// Rows report read latency (mean/p50/p99), messages and bytes per read, and
// the fast-path hit rate. `--metrics[=json]` dumps the full registry per
// scenario; BENCH_read_path.json commits the JSON trajectories (format
// documented in EXPERIMENTS.md). `--smoke` shrinks iteration counts so CI
// can run the binary end-to-end in seconds.

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/chaos/nemesis.h"
#include "src/obs/histogram.h"

using namespace wvote;  // NOLINT: bench brevity

namespace {

int g_reads = 400;  // per scenario; 10:1 read:write mix

GiffordExample MakeReadPathSuite() {
  GiffordExample ex;
  ex.config.suite_name = "readpath";
  const int votes[] = {2, 1, 1, 1};
  const Duration rtt[] = {Duration::Millis(10), Duration::Millis(30), Duration::Millis(60),
                          Duration::Millis(120)};
  for (int i = 0; i < 4; ++i) {
    const std::string host = "srv-" + std::to_string(i);
    ex.config.AddRepresentative(host, votes[i]);
    ex.client_rtt.push_back({host, rtt[i]});
  }
  ex.config.read_quorum = 2;
  ex.config.write_quorum = 4;  // V=5, r+w>5, 2w>5
  return ex;
}

struct RunResult {
  LatencyHistogram reads;
  double messages_per_read = 0;
  double bytes_per_read = 0;
  double hit_rate = 0;
  uint64_t plan_builds = 0;
  // Per-host read work, attributed from representative-side counters:
  // version polls answered plus explicit data reads served. max_share is the
  // busiest host's fraction of that total — the probe-load hotspot measure
  // E14 optimizes (cheapest-first pins it near the top representative).
  uint64_t polls[4] = {0, 0, 0, 0};
  uint64_t data_reads[4] = {0, 0, 0, 0};
  double max_share = 0;
};

// Read-heavy closed loop: every 10th operation is a write (so versions move
// and stale-hint fallbacks actually occur); read latencies are recorded.
RunResult RunWorkload(bool fastpath, bool faulty, const char* tag) {
  SuiteClientOptions copts;
  copts.fastpath_reads = fastpath;
  copts.probe_timeout = Duration::Millis(300);
  GiffordExample ex = MakeReadPathSuite();
  ExampleDeployment dep = DeployExample(ex, copts, /*seed=*/42);
  Cluster& cluster = *dep.cluster;

  // Faulty: the cheapest representative — the fast path's preferred target —
  // flaps for the whole run.
  Nemesis nemesis(&cluster, faulty ? CrashRestartSchedule({"srv-0"},
                                                          {/*mttf=*/Duration::Seconds(2),
                                                           /*mttr=*/Duration::Seconds(1)},
                                                          Duration::Seconds(3600), /*seed=*/7)
                                   : FaultSchedule{});
  nemesis.Deploy();

  Status seeded = InternalError("unattempted");
  for (int tries = 0; tries < 200 && !seeded.ok(); ++tries) {
    seeded = cluster.RunTask(dep.client->WriteOnce("contents-0"));
    if (!seeded.ok()) {
      cluster.sim().RunFor(Duration::Millis(200));
    }
  }
  WVOTE_CHECK(seeded.ok());
  cluster.net().ResetStats();
  dep.client->ResetStats();
  for (int h = 0; h < 4; ++h) {
    cluster.representative("srv-" + std::to_string(h))->ResetStats();
  }

  RunResult out;
  const uint64_t messages_before = cluster.net().stats().messages_sent;
  const uint64_t bytes_before = cluster.net().stats().bytes_sent;
  int writes = 0;
  for (int i = 0; i < g_reads; ++i) {
    if (i % 10 == 9) {
      // The heavy representative's 2 votes are necessary for w=4, so writes
      // are *unavailable* while it is down (the paper's trade-off for
      // weighted assignments). Park the closed loop until it recovers.
      Status st = InternalError("unattempted");
      for (int tries = 0; tries < 200 && !st.ok(); ++tries) {
        st = cluster.RunTask(
            dep.client->WriteOnce("contents-" + std::to_string(writes + 1), /*retries=*/5));
        if (!st.ok()) {
          cluster.sim().RunFor(Duration::Millis(200));
        }
      }
      WVOTE_CHECK_MSG(st.ok(), "bench write failed");
      ++writes;
    }
    // Same parking for reads: a mid-read crash of srv-0 can leave a gather
    // whose only current member is gone (kUnavailable, not retried inside
    // ReadOnce). Record the latency of the attempt that succeeded.
    Result<std::string> r = TimeoutError("unattempted");
    TimePoint t0 = cluster.sim().Now();
    for (int tries = 0; tries < 200 && !r.ok(); ++tries) {
      t0 = cluster.sim().Now();
      r = cluster.RunTask(dep.client->ReadOnce(/*retries=*/5));
      if (!r.ok()) {
        cluster.sim().RunFor(Duration::Millis(200));
      }
    }
    WVOTE_CHECK_MSG(r.ok(), "bench read failed");
    out.reads.Record(cluster.sim().Now() - t0);
  }

  const SuiteClientStats& stats = dep.client->stats();
  out.messages_per_read =
      static_cast<double>(cluster.net().stats().messages_sent - messages_before) / g_reads;
  out.bytes_per_read =
      static_cast<double>(cluster.net().stats().bytes_sent - bytes_before) / g_reads;
  const uint64_t decided = stats.fastpath_hits + stats.fastpath_misses;
  out.hit_rate = decided == 0 ? 0.0 : static_cast<double>(stats.fastpath_hits) / decided;
  out.plan_builds = stats.plan_builds;
  uint64_t total_read_work = 0;
  for (int h = 0; h < 4; ++h) {
    const RepresentativeStats& rs =
        cluster.representative("srv-" + std::to_string(h))->stats();
    out.polls[h] = rs.version_polls;
    out.data_reads[h] = rs.data_reads;
    total_read_work += rs.version_polls + rs.data_reads;
  }
  for (int h = 0; h < 4 && total_read_work > 0; ++h) {
    const double share =
        static_cast<double>(out.polls[h] + out.data_reads[h]) / total_read_work;
    out.max_share = std::max(out.max_share, share);
  }
  DumpMetrics(cluster.metrics(), g_bench_metrics, tag);
  CollectChromeTrace(cluster, tag);
  CollectTimeseries(cluster, tag);
  return out;
}

// One attribution line per run: where read work (version polls + explicit
// data reads) actually landed, host by host. This is the raw view of the
// probe-share gauges E14's strategies optimize.
void PrintAttribution(const char* name, const char* mode, const RunResult& r) {
  std::printf("%-8s %-8s |", name, mode);
  uint64_t total = 0;
  for (int h = 0; h < 4; ++h) {
    total += r.polls[h] + r.data_reads[h];
  }
  for (int h = 0; h < 4; ++h) {
    const uint64_t work = r.polls[h] + r.data_reads[h];
    const double share = total == 0 ? 0.0 : static_cast<double>(work) / total;
    std::printf("  srv-%d %5.1f%% (%llu+%llu)", h, 100.0 * share,
                static_cast<unsigned long long>(r.polls[h]),
                static_cast<unsigned long long>(r.data_reads[h]));
  }
  std::printf("\n");
}

void PrintScenario(const char* name, bool faulty) {
  RunResult base = RunWorkload(/*fastpath=*/false, faulty,
                               (std::string("baseline-") + name).c_str());
  RunResult fast = RunWorkload(/*fastpath=*/true, faulty,
                               (std::string("fastpath-") + name).c_str());
  std::printf("%-8s baseline | %8.2fms %8.2fms %8.2fms | %7.1f %9.0f | %7s | %5.2f | %llu\n",
              name, base.reads.Mean().ToMillis(), base.reads.Percentile(50).ToMillis(),
              base.reads.Percentile(99).ToMillis(), base.messages_per_read,
              base.bytes_per_read, "-", base.max_share,
              static_cast<unsigned long long>(base.plan_builds));
  std::printf("%-8s fastpath | %8.2fms %8.2fms %8.2fms | %7.1f %9.0f | %6.1f%% | %5.2f | %llu\n",
              name, fast.reads.Mean().ToMillis(), fast.reads.Percentile(50).ToMillis(),
              fast.reads.Percentile(99).ToMillis(), fast.messages_per_read,
              fast.bytes_per_read, 100.0 * fast.hit_rate, fast.max_share,
              static_cast<unsigned long long>(fast.plan_builds));
  PrintAttribution(name, "baseline", base);
  PrintAttribution(name, "fastpath", fast);
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchFlags(argc, argv);
  g_reads = SmokeIters(g_reads, /*tiny=*/20);
  std::printf("E10: fast-path reads — piggybacked data on version probes\n");
  std::printf("(4 reps, votes 2,1,1,1, r=2, w=4; %d reads per run, 10:1 read:write)\n\n",
              g_reads);
  std::printf("%-17s | %10s %10s %10s | %11s %9s | %7s | %5s | plan builds\n", "scenario",
              "read mean", "p50", "p99", "msgs/read", "bytes/read", "hits", "max");
  PrintRule(108);
  PrintScenario("steady", /*faulty=*/false);
  PrintScenario("faulty", /*faulty=*/true);
  std::printf(
      "\nshape check: fastpath-steady reads take one round trip to the cheapest\n"
      "representative (half the baseline's two), hit rate well above 90%%; the faulty\n"
      "run keeps every read current, paying the explicit fetch only when the\n"
      "piggyback target is down or stale. plan builds count post-warmup rebuilds:\n"
      "0 means the quorum plan cached at the seeding write served every operation.\n"
      "max is the busiest host's share of read work (per-host lines show polls+data\n"
      "reads): cheapest-first concentrates it on srv-0 — E14 shows what sampled\n"
      "strategies buy back.\n");
  WriteChromeTrace();
  WriteTimeseries();
  return 0;
}
