// Experiment E16 — gray-failure detection and response.
//
// A crashed representative is easy: it stops answering and the quorum
// machinery routes around it within one timeout. A GRAY representative is
// the expensive failure mode — it stays up, holds its votes, and answers
// every probe 10× too late. Under Gifford's deterministic cheapest-first
// rule the gray host keeps its preferred slot in every plan, so every read
// pays its inflated round trip twice (version probe + data fetch).
//
// This bench slows one host mid-run (network service-time multiplier on
// both directions, the kGrayHost chaos fault) and measures the read latency
// distribution with the gray-tolerance stack off (baseline) and on
// (hedged probes + demotion, fed by the always-on HealthTracker):
//
//   * 10× gray — the classic degraded host: still well inside the probe
//     timeout, so timeouts never fire and only latency-aware steering can
//     help. Hedges mask the very first post-onset probes (the backup
//     answers while the primary crawls), and latency demotion moves the
//     victim to the back of the plan once its observed SRTT passes 4× its
//     link cost. No breaker opens: nothing fails. The acceptance scenario:
//     tolerant read p99 must be >= 3x better than baseline with hedges
//     fired on <= 10% of probes.
//   * 100× gray — past the probe timeout: the baseline now eats a full
//     timeout + widening round per read; the tolerant stack behaves exactly
//     as at 10× (hedges don't care how slow the primary is), and here the
//     timed-out probes also open the breaker.
//   * 10× gray under kLoadOptimal — sampled plans: demotion moves the
//     victim to the back of each sampled order, renormalizing its probe
//     share over the live hosts.
//
// Every scenario ends with a heal + recovery window: the victim's stale
// SRTT is forgiven (and an open breaker half-opens after its cooldown), the
// next probe succeeds at the healthy latency, and the victim wins its rank
// (and share) back.
//
// The final JSON line is committed as BENCH_gray_failures.json;
// --baseline=FILE re-checks the 10× improvement ratio against the committed
// value (fails below 0.7×) plus the absolute acceptance bounds
// (improvement >= 3×, hedge rate <= 0.10, breaker opened, hedge won,
// victim probed again after heal).

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/histogram.h"

using namespace wvote;  // NOLINT: bench brevity

namespace {

int g_reads = 400;     // measured gray-window ops; 10:1 read:write mix
int g_warmup = 30;     // healthy ops to converge SRTT before the fault
int g_recovery = 120;  // post-heal ops for the recovery story

constexpr const char* kHosts[] = {"srv-0", "srv-1", "srv-2", "srv-3", "srv-4"};
constexpr int kNumHosts = 5;
constexpr const char* kVictim = "srv-0";  // cheapest link -> every plan's first pick

GiffordExample MakeSuite() {
  GiffordExample ex;
  ex.config.suite_name = "gray";
  // Uniform votes, r=2/w=4 (V=5): reads touch two representatives, so one
  // gray host can at most drag half of every probe set — exactly the case
  // steering must win. srv-0 gets the cheapest link so the deterministic
  // plan pins it first.
  const Duration rtt[] = {Duration::Millis(4), Duration::Millis(6), Duration::Millis(7),
                          Duration::Millis(8), Duration::Millis(9)};
  for (int i = 0; i < kNumHosts; ++i) {
    ex.config.AddRepresentative(kHosts[i], 1);
    ex.client_rtt.push_back({kHosts[i], rtt[i]});
  }
  ex.config.read_quorum = 2;
  ex.config.write_quorum = 4;
  return ex;
}

struct GrayResult {
  LatencyHistogram reads;           // gray window only
  LatencyHistogram recovered;       // post-heal window
  uint64_t probes = 0;              // client probes in the gray window
  uint64_t hedges_armed = 0;        // hedged probe launches (backup reserved)
  uint64_t hedges_sent = 0;         // backup probes that actually hit the wire
  uint64_t hedge_wins = 0;          // races the backup's reply resolved
  uint64_t breaker_opens = 0;
  uint64_t breaker_closes = 0;
  uint64_t demotions = 0;
  uint64_t victim_polls = 0;        // gray window
  uint64_t total_polls = 0;
  uint64_t victim_recovery_polls = 0;  // post-heal: did the victim win rank back?
  double victim_share = 0;
  double hedge_rate = 0;
};

uint64_t TotalPolls(Cluster& cluster) {
  uint64_t total = 0;
  for (const char* h : kHosts) {
    total += cluster.representative(h)->stats().version_polls;
  }
  return total;
}

void SetGray(Cluster& cluster, double multiplier) {
  const HostId victim = cluster.net().FindHost(kVictim)->id();
  cluster.net().SetHostGrayInbound(victim, multiplier);
  cluster.net().SetHostGrayOutbound(victim, multiplier);
}

// One closed-loop client, 10:1 read:write. Warm up healthy (trains SRTT),
// slow the victim for the measured window, heal, measure recovery.
GrayResult RunScenario(double multiplier, bool tolerant, QuorumStrategy policy,
                       const char* tag) {
  SuiteClientOptions copts;
  copts.strategy = policy;
  copts.probe_timeout = Duration::Millis(300);
  copts.data_timeout = Duration::Millis(1000);
  copts.gray_tolerance = tolerant;
  ExampleDeployment dep = DeployExample(MakeSuite(), copts, /*seed=*/42);
  Cluster& cluster = *dep.cluster;
  HealthTracker* health = cluster.health_of("client");

  WVOTE_CHECK(cluster.RunTask(dep.client->WriteOnce("contents-0")).ok());
  for (int i = 0; i < g_warmup; ++i) {
    WVOTE_CHECK(cluster.RunTask(dep.client->ReadOnce()).ok());
  }

  cluster.net().ResetStats();
  dep.client->ResetStats();
  dep.client->rpc()->ResetStats();
  for (const char* h : kHosts) {
    cluster.representative(h)->ResetStats();
  }
  const uint64_t opens_before = health->breaker_opens();
  const uint64_t closes_before = health->breaker_closes();

  SetGray(cluster, multiplier);

  GrayResult out;
  int writes = 0;
  for (int i = 0; i < g_reads; ++i) {
    if (i % 10 == 9) {
      WVOTE_CHECK(
          cluster.RunTask(dep.client->WriteOnce("contents-" + std::to_string(++writes)))
              .ok());
    }
    const TimePoint t0 = cluster.sim().Now();
    Result<std::string> r = cluster.RunTask(dep.client->ReadOnce());
    WVOTE_CHECK_MSG(r.ok(), "gray-window read failed");
    out.reads.Record(cluster.sim().Now() - t0);
  }

  out.probes = dep.client->stats().probes_sent;
  out.hedges_armed = dep.client->stats().hedged_probes;
  out.demotions = dep.client->stats().breaker_demotions;
  out.hedges_sent = dep.client->rpc()->stats().hedges_sent;
  out.hedge_wins = dep.client->rpc()->stats().hedge_wins;
  out.breaker_opens = health->breaker_opens() - opens_before;
  out.victim_polls = cluster.representative(kVictim)->stats().version_polls;
  out.total_polls = TotalPolls(cluster);
  out.victim_share = out.total_polls == 0
                         ? 0.0
                         : static_cast<double>(out.victim_polls) /
                               static_cast<double>(out.total_polls);
  out.hedge_rate = out.probes == 0 ? 0.0
                                   : static_cast<double>(out.hedges_sent) /
                                         static_cast<double>(out.probes);

  // Heal and watch the victim earn its rank back. The idle gap lets the
  // victim's last gray-era observation go stale: forgiveness restores its
  // provisioned rank, the next probe re-seeds the estimator at the healthy
  // latency (TCP-style restart after idle), and it keeps the slot.
  SetGray(cluster, 1.0);
  cluster.sim().RunFor(HealthTracker::kSampleStaleness + Duration::Seconds(1));
  const uint64_t victim_polls_at_heal = cluster.representative(kVictim)->stats().version_polls;
  for (int i = 0; i < g_recovery; ++i) {
    const TimePoint t0 = cluster.sim().Now();
    WVOTE_CHECK(cluster.RunTask(dep.client->ReadOnce()).ok());
    out.recovered.Record(cluster.sim().Now() - t0);
  }
  out.victim_recovery_polls =
      cluster.representative(kVictim)->stats().version_polls - victim_polls_at_heal;
  out.breaker_closes = health->breaker_closes() - closes_before;

  DumpMetrics(cluster.metrics(), g_bench_metrics, tag);
  CollectChromeTrace(cluster, tag);
  CollectTimeseries(cluster, tag);
  return out;
}

struct ScenarioRow {
  const char* name;
  double multiplier;
  bool tolerant;
  QuorumStrategy policy;
};

constexpr ScenarioRow kScenarios[] = {
    {"gray10_baseline", 10.0, false, QuorumStrategy::kLowestLatency},
    {"gray10_tolerant", 10.0, true, QuorumStrategy::kLowestLatency},
    {"gray100_baseline", 100.0, false, QuorumStrategy::kLowestLatency},
    {"gray100_tolerant", 100.0, true, QuorumStrategy::kLowestLatency},
    {"gray10_loadopt", 10.0, true, QuorumStrategy::kLoadOptimal},
};

void PrintRow(const char* name, const GrayResult& r) {
  std::printf("%-17s | %8.2fms %8.2fms | %9.2fms | %5llu %4llu %5.1f%% | %4llu %5llu | %6.1f%% %5llu\n",
              name, r.reads.Percentile(50).ToMillis(), r.reads.Percentile(99).ToMillis(),
              r.recovered.Percentile(99).ToMillis(),
              static_cast<unsigned long long>(r.hedges_sent),
              static_cast<unsigned long long>(r.hedge_wins), 100.0 * r.hedge_rate,
              static_cast<unsigned long long>(r.breaker_opens),
              static_cast<unsigned long long>(r.demotions), 100.0 * r.victim_share,
              static_cast<unsigned long long>(r.victim_recovery_polls));
}

void AppendScenarioJson(std::string* json, const char* name, const GrayResult& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "\"%s\":{\"p50_ms\":%.2f,\"p99_ms\":%.2f,\"p99_recovered_ms\":%.2f,"
      "\"probes\":%llu,\"hedges_armed\":%llu,\"hedges_sent\":%llu,\"hedge_wins\":%llu,"
      "\"hedge_rate\":%.4f,\"breaker_opens\":%llu,\"breaker_closes\":%llu,"
      "\"demotions\":%llu,\"victim_share\":%.3f,\"victim_recovery_polls\":%llu}",
      name, r.reads.Percentile(50).ToMillis(), r.reads.Percentile(99).ToMillis(),
      r.recovered.Percentile(99).ToMillis(), static_cast<unsigned long long>(r.probes),
      static_cast<unsigned long long>(r.hedges_armed),
      static_cast<unsigned long long>(r.hedges_sent),
      static_cast<unsigned long long>(r.hedge_wins), r.hedge_rate,
      static_cast<unsigned long long>(r.breaker_opens),
      static_cast<unsigned long long>(r.breaker_closes),
      static_cast<unsigned long long>(r.demotions), r.victim_share,
      static_cast<unsigned long long>(r.victim_recovery_polls));
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
  g_reads = SmokeIters(g_reads, /*tiny=*/60);
  g_warmup = SmokeIters(g_warmup, /*tiny=*/10);
  g_recovery = SmokeIters(g_recovery, /*tiny=*/40);

  std::printf("E16: gray-failure tolerance — one slow host vs the response stack\n");
  std::printf(
      "(5 reps, uniform votes, r=2, w=4; %s at 4ms RTT is every plan's first pick and\n"
      " goes gray mid-run; %d measured ops per scenario, 10:1 read:write, then heal +\n"
      " %d-op recovery window. tolerant = hedged probes + demotion)\n\n",
      kVictim, g_reads, g_recovery);
  std::printf("%-17s | %10s %10s | %11s | %17s | %10s | %13s\n", "scenario", "read p50",
              "read p99", "heal p99", "hedges wins rate", "brk demo", "srv0 shr recov");
  PrintRule(104);

  std::map<std::string, GrayResult> results;
  for (const ScenarioRow& s : kScenarios) {
    results[s.name] = RunScenario(s.multiplier, s.tolerant, s.policy, s.name);
    PrintRow(s.name, results[s.name]);
  }
  PrintRule(104);

  const GrayResult& base10 = results["gray10_baseline"];
  const GrayResult& tol10 = results["gray10_tolerant"];
  const double tol_p99 = tol10.reads.Percentile(99).ToMillis();
  const double improvement =
      tol_p99 > 0.0 ? base10.reads.Percentile(99).ToMillis() / tol_p99 : 0.0;

  std::printf(
      "\nshape check: at 10x the victim stays inside every timeout, so only the health\n"
      "stack helps — hedges mask the first post-onset probes, latency demotion moves the\n"
      "victim to the back of the plan (no breaker opens: nothing fails), and read p99\n"
      "drops %.1fx. At 100x the baseline adds a full probe timeout + widening round per\n"
      "read; the tolerant stack is indifferent to how slow the victim is, and its timed-out\n"
      "probes open the breaker. After heal, the stale SRTT is forgiven (at 100x the\n"
      "breaker's trial probe closes it) and the victim is probed again (recov column > 0).\n\n",
      improvement);

  std::string json = "{\"bench\":\"gray_failures\",\"smoke\":";
  json += g_bench_smoke ? "true" : "false";
  char guard_buf[96];
  std::snprintf(guard_buf, sizeof(guard_buf),
                ",\"guard_improvement_x\":%.2f,\"guard_hedge_rate\":%.4f", improvement,
                tol10.hedge_rate);
  json += guard_buf;
  json += ",\"scenarios\":{";
  bool first = true;
  for (const ScenarioRow& s : kScenarios) {
    if (!first) {
      json += ",";
    }
    first = false;
    AppendScenarioJson(&json, s.name, results[s.name]);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());

  WriteChromeTrace();
  WriteTimeseries();

  if (!baseline_path.empty()) {
    const std::string committed = ReadWholeFile(baseline_path);
    const double committed_improvement =
        CommittedValue(committed, "\"guard_improvement_x\":");
    const double floor = committed_improvement * 0.7;
    std::printf(
        "regression guard: measured improvement %.2fx vs committed %.2fx (floor %.2fx), "
        "hedge rate %.4f\n",
        improvement, committed_improvement, floor, tol10.hedge_rate);
    if (improvement < floor) {
      std::fprintf(stderr,
                   "FAIL: 10x gray p99 improvement regressed below 0.7x of the committed "
                   "BENCH_gray_failures.json baseline\n");
      return 1;
    }
    // The acceptance bounds themselves, so a drifting baseline cannot mask them.
    if (improvement < 3.0) {
      std::fprintf(stderr, "FAIL: 10x gray p99 improvement %.2fx below the 3x bound\n",
                   improvement);
      return 1;
    }
    if (tol10.hedge_rate > 0.10) {
      std::fprintf(stderr, "FAIL: hedge rate %.4f exceeds the 0.10 bound\n",
                   tol10.hedge_rate);
      return 1;
    }
    // Engagement checks: hedges must win at 10x (they mask the onset); the
    // breaker needs actual FAILURES to open, which only the past-the-timeout
    // 100x scenario produces; and every tolerant run must re-probe the
    // victim after heal (demotion is reordering, not exile).
    const GrayResult& tol100 = results["gray100_tolerant"];
    if (tol100.breaker_opens == 0 || tol10.hedge_wins == 0) {
      std::fprintf(stderr, "FAIL: the tolerant runs never opened the breaker (100x) or "
                           "won a hedge (10x) — the response stack is not engaging\n");
      return 1;
    }
    if (tol10.victim_recovery_polls == 0 || tol100.victim_recovery_polls == 0) {
      std::fprintf(stderr, "FAIL: the victim was never probed again after heal\n");
      return 1;
    }
  }
  return 0;
}
