// Experiment E11 — two-round-trip writes via asynchronous phase-2 commit.
//
// The literal protocol acks a write after three round trips paced by the
// slowest write-quorum member: lock/version gather, prepare, commit. Once
// the coordinator's commit decision is durable the outcome cannot change,
// so the commit fan-out can leave the client's critical path — a committed
// write costs two round trips, and phase-2 delivery is guaranteed by the
// background retriers, participant recovery, and the in-doubt watchdog.
//
// Three scenarios:
//   steady — drained writes, sync vs async, against the analytic model's
//            3-RTT and 2-RTT closed forms; plus back-to-back async writes
//            (the next write's probes queue behind the previous commit's
//            in-flight lock release — the committing-holder wait policy);
//   crash  — a write-quorum member crash/restarts throughout an async run;
//            every acked write must survive and the suite must converge to
//            the last acked value once phase 2 drains;
//   mixed  — 1:1 read/write closed loop, sync vs async, showing the write
//            savings compose with fast-path reads.
//
// `--metrics[=json]` dumps the registry per scenario; BENCH_write_path.json
// commits the JSON trajectories (format in EXPERIMENTS.md). `--smoke`
// shrinks iteration counts for CI.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/analysis/model.h"
#include "src/chaos/nemesis.h"
#include "src/obs/histogram.h"

using namespace wvote;  // NOLINT: bench brevity

namespace {

int g_steady_writes = 200;
int g_crash_writes = 60;
int g_mixed_pairs = 100;

GiffordExample MakeWritePathSuite() {
  GiffordExample ex;
  ex.config.suite_name = "writepath";
  const int votes[] = {2, 1, 1, 1};
  const Duration rtt[] = {Duration::Millis(10), Duration::Millis(30), Duration::Millis(60),
                          Duration::Millis(120)};
  for (int i = 0; i < 4; ++i) {
    const std::string host = "srv-" + std::to_string(i);
    ex.config.AddRepresentative(host, votes[i]);
    ex.model.reps.push_back(RepModel(host, votes[i], rtt[i], 0.99));
    ex.client_rtt.push_back({host, rtt[i]});
  }
  ex.config.read_quorum = ex.model.read_quorum = 2;
  ex.config.write_quorum = ex.model.write_quorum = 4;  // V=5, r+w>5, 2w>5
  return ex;
}

// Writes that park until the suite is writable again (a crashed quorum
// member can make writes momentarily unavailable); returns the latency of
// the acked attempt.
Duration ParkedWrite(Cluster& cluster, SuiteClient* client, const std::string& value) {
  Status st = InternalError("unattempted");
  TimePoint t0 = cluster.sim().Now();
  for (int tries = 0; tries < 200 && !st.ok(); ++tries) {
    t0 = cluster.sim().Now();
    st = cluster.RunTask(client->WriteOnce(value, /*retries=*/5));
    if (!st.ok()) {
      cluster.sim().RunFor(Duration::Millis(200));
    }
  }
  WVOTE_CHECK_MSG(st.ok(), "bench write failed");
  return cluster.sim().Now() - t0;
}

// --- steady ----------------------------------------------------------------

LatencyHistogram SteadyWrites(bool sync_phase2, bool drain, const char* tag) {
  GiffordExample ex = MakeWritePathSuite();
  ExampleDeployment dep = DeployExample(ex, SuiteClientOptions{}, /*seed=*/42);
  Cluster& cluster = *dep.cluster;
  cluster.coordinator_of("client")->set_sync_phase2(sync_phase2);

  LatencyHistogram hist;
  for (int i = 0; i < g_steady_writes; ++i) {
    const TimePoint t0 = cluster.sim().Now();
    Status st = cluster.RunTask(dep.client->WriteOnce("steady-" + std::to_string(i)));
    WVOTE_CHECK_MSG(st.ok(), "steady write failed");
    hist.Record(cluster.sim().Now() - t0);
    if (drain) {
      // Let the background fan-out land so the next write measures the
      // uncontended 2-RTT path.
      cluster.sim().RunFor(Duration::Millis(500));
    }
  }
  DumpMetrics(cluster.metrics(), g_bench_metrics, tag);
  CollectChromeTrace(cluster, tag);
  CollectTimeseries(cluster, tag);
  return hist;
}

// --- crash during phase 2 --------------------------------------------------

void CrashScenario() {
  GiffordExample ex = MakeWritePathSuite();
  SuiteClientOptions copts;
  copts.probe_timeout = Duration::Millis(300);
  ExampleDeployment dep = DeployExample(ex, copts, /*seed=*/42);
  Cluster& cluster = *dep.cluster;

  // srv-1 (one write-critical vote) flaps for the whole run: commits land
  // while it is down, phase-2 deliveries are lost mid-flight, and the
  // retrier / recovery / watchdog machinery must reconverge every time.
  Host* victim = cluster.net().FindHost("srv-1");
  Nemesis nemesis(&cluster, CrashRestartSchedule({"srv-1"},
                                                 {/*mttf=*/Duration::Seconds(2),
                                                  /*mttr=*/Duration::Seconds(1)},
                                                 Duration::Seconds(3600), /*seed=*/7));
  nemesis.Deploy();

  std::string last_acked;
  for (int i = 0; i < g_crash_writes; ++i) {
    const std::string value = "crash-run-" + std::to_string(i);
    (void)ParkedWrite(cluster, dep.client, value);
    last_acked = value;
    cluster.sim().RunFor(Duration::Millis(300));  // let faults interleave
  }

  // Stop the churn and drain every outstanding phase 2, retrier, and
  // watchdog; then the whole suite must agree on the last acked write.
  if (!victim->up()) {
    victim->Restart();
  }
  cluster.sim().RunFor(Duration::Seconds(60));

  Result<std::string> read = cluster.RunTask(dep.client->ReadOnce(/*retries=*/10));
  WVOTE_CHECK_MSG(read.ok(), "post-crash read failed");
  const bool converged = read.value() == last_acked;
  WVOTE_CHECK_MSG(converged, "acked write lost after crash churn");

  MetricsSnapshot snap = cluster.metrics().Snapshot();
  std::printf(
      "  %d writes acked under srv-1 crash churn (MTTF 2s, MTTR 1s); after the\n"
      "  faults drain, a quorum read returns the last ack: %s\n",
      g_crash_writes, converged ? "yes" : "NO — BUG");
  std::printf(
      "  convergence machinery: %llu async fan-outs spawned, %llu completed in the\n"
      "  foreground task; %llu in-doubt watchdog resolutions; %llu participant\n"
      "  recoveries\n",
      static_cast<unsigned long long>(snap.SumCounters("txn.coordinator.async_phase2_spawned")),
      static_cast<unsigned long long>(
          snap.SumCounters("txn.coordinator.async_phase2_completed")),
      static_cast<unsigned long long>(snap.SumCounters("txn.participant.indoubt_timer_fired")),
      static_cast<unsigned long long>(snap.SumCounters("txn.participant.recoveries")));
  std::printf(
      "  group commit at the representatives: %llu flushes served %llu page writes\n"
      "  (%llu coalesced into an already-open window)\n",
      static_cast<unsigned long long>(snap.SumCounters("storage.group_commit_batches")),
      static_cast<unsigned long long>(
          snap.SumCounters("storage.stable_store.writes_completed")),
      static_cast<unsigned long long>(
          snap.SumCounters("storage.group_commit_writes_coalesced")));
  DumpMetrics(cluster.metrics(), g_bench_metrics, "crash-phase2");
  CollectChromeTrace(cluster, "crash-phase2");
  CollectTimeseries(cluster, "crash-phase2");
}

// --- group commit burst ----------------------------------------------------

Task<void> OneBurstWrite(SuiteClient* client, std::string value, std::shared_ptr<int> done) {
  Status st = co_await client->WriteOnce(std::move(value));
  WVOTE_CHECK_MSG(st.ok(), "burst write failed");
  ++*done;
}

// Four independent suites hosted on the same four representatives, four
// clients committing at the same instant: the phase-2 applies land inside
// one simulated-disk window at each representative, so the stable store's
// group commit coalesces them into a single flush.
void GroupCommitBurst() {
  ClusterOptions opts;
  opts.seed = 42;
  opts.rep_options.disk_write_latency = LatencyModel::Fixed(Duration::Micros(500));
  opts.rep_options.disk_read_latency = LatencyModel::Fixed(Duration::Micros(200));
  Cluster cluster(opts);
  MaybeEnableTracing(cluster);
  MaybeEnableScraping(cluster);
  const int votes[] = {2, 1, 1, 1};
  const Duration rtt[] = {Duration::Millis(10), Duration::Millis(30), Duration::Millis(60),
                          Duration::Millis(120)};
  for (int i = 0; i < 4; ++i) {
    cluster.AddRepresentative("srv-" + std::to_string(i));
  }
  constexpr int kClients = 4;
  std::vector<SuiteClient*> clients;
  for (int j = 0; j < kClients; ++j) {
    SuiteConfig cfg;
    cfg.suite_name = "gc-" + std::to_string(j);
    for (int i = 0; i < 4; ++i) {
      cfg.AddRepresentative("srv-" + std::to_string(i), votes[i]);
    }
    cfg.read_quorum = 2;
    cfg.write_quorum = 4;
    WVOTE_CHECK(cluster.CreateSuite(cfg, "initial contents").ok());
    const std::string client_host = "client-" + std::to_string(j);
    clients.push_back(cluster.AddClient(client_host, cfg));
    for (int i = 0; i < 4; ++i) {
      cluster.net().SetSymmetricLink(cluster.net().FindHost(client_host)->id(),
                                     cluster.net().FindHost("srv-" + std::to_string(i))->id(),
                                     LatencyModel::Fixed(rtt[i] / 2));
    }
  }
  const MetricsSnapshot before = cluster.metrics().Snapshot();
  std::shared_ptr<int> done = std::make_shared<int>(0);
  for (int j = 0; j < kClients; ++j) {
    Spawn(OneBurstWrite(clients[j], "burst-" + std::to_string(j), done));
  }
  cluster.sim().RunFor(Duration::Seconds(5));
  WVOTE_CHECK_MSG(*done == kClients, "burst writes did not all complete");

  const MetricsSnapshot delta = cluster.metrics().Delta(before);
  std::printf(
      "  %d clients commit to %d co-hosted suites at the same instant:\n"
      "  %llu stable-store flushes served %llu page writes, %llu of them\n"
      "  coalesced into an already-open window (sequential lower bound would\n"
      "  pay one flush per write)\n",
      kClients, kClients,
      static_cast<unsigned long long>(delta.SumCounters("storage.group_commit_batches")),
      static_cast<unsigned long long>(
          delta.SumCounters("storage.stable_store.writes_completed")),
      static_cast<unsigned long long>(
          delta.SumCounters("storage.group_commit_writes_coalesced")));
  DumpMetrics(cluster.metrics(), g_bench_metrics, "group-commit-burst");
  CollectChromeTrace(cluster, "group-commit-burst");
  CollectTimeseries(cluster, "group-commit-burst");
}

// --- mixed -----------------------------------------------------------------

struct MixedResult {
  LatencyHistogram reads;
  LatencyHistogram writes;
  Duration elapsed;
};

MixedResult MixedWorkload(bool sync_phase2, const char* tag) {
  GiffordExample ex = MakeWritePathSuite();
  ExampleDeployment dep = DeployExample(ex, SuiteClientOptions{}, /*seed=*/42);
  Cluster& cluster = *dep.cluster;
  cluster.coordinator_of("client")->set_sync_phase2(sync_phase2);

  MixedResult out;
  const TimePoint start = cluster.sim().Now();
  for (int i = 0; i < g_mixed_pairs; ++i) {
    TimePoint t0 = cluster.sim().Now();
    Status st = cluster.RunTask(dep.client->WriteOnce("mixed-" + std::to_string(i)));
    WVOTE_CHECK_MSG(st.ok(), "mixed write failed");
    out.writes.Record(cluster.sim().Now() - t0);

    t0 = cluster.sim().Now();
    Result<std::string> r = cluster.RunTask(dep.client->ReadOnce());
    WVOTE_CHECK_MSG(r.ok(), "mixed read failed");
    out.reads.Record(cluster.sim().Now() - t0);
  }
  out.elapsed = cluster.sim().Now() - start;
  DumpMetrics(cluster.metrics(), g_bench_metrics, tag);
  CollectChromeTrace(cluster, tag);
  CollectTimeseries(cluster, tag);
  return out;
}

void PrintWriteRow(const char* label, const LatencyHistogram& hist, double model_ms) {
  std::printf("%-22s | %9.2fms %9.2fms %9.2fms |  %7.1fms\n", label, hist.Mean().ToMillis(),
              hist.Percentile(50).ToMillis(), hist.Percentile(99).ToMillis(), model_ms);
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchFlags(argc, argv);
  g_steady_writes = SmokeIters(g_steady_writes, /*tiny=*/10);
  g_crash_writes = SmokeIters(g_crash_writes, /*tiny=*/8);
  g_mixed_pairs = SmokeIters(g_mixed_pairs, /*tiny=*/10);

  GiffordExample shape = MakeWritePathSuite();
  VotingAnalysis analysis(shape.model);
  const double sync_ms = analysis.WriteLatencyAllUp(/*sync_phase2=*/true).ToMillis();
  const double async_ms = analysis.WriteLatencyAllUp(/*sync_phase2=*/false).ToMillis();

  std::printf("E11: two-round-trip writes — asynchronous phase-2 commit\n");
  std::printf("(4 reps, votes 2,1,1,1, r=2, w=4, client RTTs {10,30,60,120}ms;\n");
  std::printf(" write-quorum gather %0.0fms -> model: sync %0.0fms, async %0.0fms)\n\n",
              analysis.AllUpQuorumLatency(shape.model.write_quorum).ToMillis(), sync_ms,
              async_ms);

  std::printf("steady state, %d writes per mode:\n", g_steady_writes);
  std::printf("%-22s | %11s %11s %11s | %9s\n", "mode", "write mean", "p50", "p99", "model");
  PrintRule(80);
  PrintWriteRow("sync (3 RTT)", SteadyWrites(/*sync=*/true, /*drain=*/true, "steady-sync"),
                sync_ms);
  PrintWriteRow("async (2 RTT)", SteadyWrites(/*sync=*/false, /*drain=*/true, "steady-async"),
                async_ms);
  PrintWriteRow("async back-to-back",
                SteadyWrites(/*sync=*/false, /*drain=*/false, "steady-async-pipelined"),
                async_ms);

  std::printf("\ncrash during phase 2 (async commits, flapping quorum member):\n");
  CrashScenario();

  std::printf("\ngroup commit under concurrent commits:\n");
  GroupCommitBurst();

  std::printf("\nmixed 1:1 read/write closed loop, %d pairs per mode:\n", g_mixed_pairs);
  std::printf("%-10s | %11s | %11s | %12s\n", "mode", "read mean", "write mean", "elapsed");
  PrintRule(60);
  MixedResult sync_mix = MixedWorkload(/*sync=*/true, "mixed-sync");
  MixedResult async_mix = MixedWorkload(/*sync=*/false, "mixed-async");
  std::printf("%-10s | %9.2fms | %9.2fms | %10.1fs\n", "sync",
              sync_mix.reads.Mean().ToMillis(), sync_mix.writes.Mean().ToMillis(),
              sync_mix.elapsed.ToMillis() / 1000.0);
  std::printf("%-10s | %9.2fms | %9.2fms | %10.1fs\n", "async",
              async_mix.reads.Mean().ToMillis(), async_mix.writes.Mean().ToMillis(),
              async_mix.elapsed.ToMillis() / 1000.0);

  std::printf(
      "\nshape check: drained async writes ack one gather round trip (~%0.0fms)\n"
      "earlier than sync — the commit fan-out left the critical path; back-to-back\n"
      "async writes stay near 2 RTT because the next write's probes wait on the\n"
      "previous commit's in-flight release (committing-holder wait policy) instead\n"
      "of dying. The crash scenario certifies the correctness bar: every acked\n"
      "write survives arbitrary crash points between the durable decision and\n"
      "phase-2 delivery.\n",
      sync_ms - async_ms);
  WriteChromeTrace();
  WriteTimeseries();
  return 0;
}
