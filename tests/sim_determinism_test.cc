// Determinism pins across simulator-core rebuilds.
//
// The simulator's scheduling contract — events fire in (timestamp, seq)
// order, same seed means same schedule — is load-bearing for the chaos
// harness's replayable artifacts and for every committed BENCH trajectory.
// These tests pin the contract to golden files generated *before* the timer
// wheel / pooled-event rebuild, so a rebuild that silently reorders
// same-timestamp events or perturbs an rng stream fails here instead of
// surfacing as an unreproducible chaos artifact months later.
//
// Regenerating the goldens (only when a pin is *intentionally* obsolete):
//   WVOTE_REGEN_PIN=1 ./sim_determinism_test
// writes the files the test compares against. Never regenerate to make a
// red build green: a diff here means the event schedule changed.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/chaos/runner.h"
#include "src/core/cluster.h"

namespace wvote {
namespace {

// Golden files live next to the test sources so they are committed and
// reviewed like code. WVOTE_TEST_DATA_DIR is baked in by tests/CMakeLists.
std::string DataPath(const std::string& name) {
#ifdef WVOTE_TEST_DATA_DIR
  return std::string(WVOTE_TEST_DATA_DIR) + "/" + name;
#else
  return "tests/data/" + name;
#endif
}

bool RegenRequested() { return std::getenv("WVOTE_REGEN_PIN") != nullptr; }

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path
                         << " (generate with WVOTE_REGEN_PIN=1)";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFileOrDie(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write golden file " << path;
  out << contents;
}

// Serializes a TraceLog snapshot byte-stably: one event per line, exactly
// the fields that define the protocol-level schedule.
std::string SerializeTrace(const TraceLog& log) {
  std::ostringstream out;
  for (const TraceEvent& ev : log.Snapshot()) {
    out << ev.at.ToMicros() << "|" << ev.host << "|" << TraceKindName(ev.kind) << "|"
        << ev.detail << "\n";
  }
  return out.str();
}

// One seeded cluster's worth of adversarial traffic: three weighted reps,
// two clients, lossy/duplicating/spiking links, and a crash-restart in the
// middle of a mixed read/write stream. Every drop, retry, prepare, commit,
// and recovery lands in the TraceLog in schedule order.
std::string RunTracedScenario(uint64_t seed) {
  ClusterOptions opts;
  opts.seed = seed;
  opts.default_link = LatencyModel::Uniform(Duration::Millis(2), Duration::Millis(9));
  Cluster cluster(opts);
  for (const char* name : {"pin-a", "pin-b", "pin-c"}) {
    cluster.AddRepresentative(name);
  }
  SuiteConfig config;
  config.suite_name = "pin";
  config.representatives = {
      RepresentativeInfo{"pin-a", 2},
      RepresentativeInfo{"pin-b", 1},
      RepresentativeInfo{"pin-c", 1},
  };
  config.read_quorum = 2;
  config.write_quorum = 3;
  EXPECT_TRUE(cluster.CreateSuite(config, "genesis").ok());
  SuiteClient* c1 = cluster.AddClient("pin-client-1", config);
  SuiteClient* c2 = cluster.AddClient("pin-client-2", config);

  LinkKnobs rough;
  rough.loss_probability = 0.08;
  rough.dup_probability = 0.08;
  rough.delay_spike_probability = 0.10;
  rough.delay_spike = Duration::Millis(25);
  cluster.net().SetAllLinkKnobs(rough);

  cluster.sim().Schedule(Duration::Millis(140),
                         [&cluster] { cluster.net().FindHost("pin-b")->Crash(); });
  cluster.sim().Schedule(Duration::Millis(520),
                         [&cluster] { cluster.net().FindHost("pin-b")->Restart(); });

  for (int i = 0; i < 24; ++i) {
    SuiteClient* client = (i % 2 == 0) ? c1 : c2;
    if (i % 3 == 2) {
      cluster.RunTaskFor(client->WriteOnce("pin-v" + std::to_string(i)),
                         Duration::Seconds(4));
    } else {
      cluster.RunTaskFor(client->ReadOnce(), Duration::Seconds(4));
    }
  }
  cluster.sim().RunFor(Duration::Seconds(5));  // drain retriers / phase 2
  return SerializeTrace(cluster.trace());
}

// The schedule of a seeded multi-cluster run — two independent clusters,
// different seeds, adversarial links — must be byte-identical before and
// after any simulator-core change.
TEST(SimDeterminismPin, MultiClusterTraceLogMatchesGolden) {
  std::string got = "=== cluster seed 9001 ===\n" + RunTracedScenario(9001) +
                    "=== cluster seed 417 ===\n" + RunTracedScenario(417);
  // The scenario must actually exercise the interesting machinery, or the
  // pin pins nothing.
  EXPECT_NE(got.find("message-dropped"), std::string::npos);
  EXPECT_NE(got.find("host-crashed"), std::string::npos);
  EXPECT_NE(got.find("txn-committed"), std::string::npos);

  const std::string path = DataPath("trace_pin.golden");
  if (RegenRequested()) {
    WriteFileOrDie(path, got);
    GTEST_SKIP() << "regenerated " << path;
  }
  const std::string want = ReadFileOrDie(path);
  ASSERT_EQ(want.size(), got.size()) << "trace schedule diverged from pre-rebuild golden";
  EXPECT_EQ(want, got) << "trace schedule diverged from pre-rebuild golden";
}

// Sum of every counter in a metrics JSON snapshot whose metric name (the
// part before any '{' label block) is `name`.
uint64_t SumCountersInJson(const std::string& json, const std::string& name) {
  const size_t counters_end = json.find("},\"gauges\"");
  uint64_t total = 0;
  for (size_t at = json.find('"' + name); at < counters_end;
       at = json.find('"' + name, at + 1)) {
    const char next = json[at + 1 + name.size()];
    if (next != '{' && next != '"') {
      continue;  // a longer metric name sharing this prefix
    }
    const size_t colon = json.find("\":", at + 1);
    total += std::strtoull(json.c_str() + colon + 2, nullptr, 10);
  }
  return total;
}

// Fixed-seed chaos runs — schedule expansion, fault application, client
// histories with sim timestamps — replayed bit-for-bit. These are the pins
// the chaos harness's replayable artifacts depend on: if one breaks, every
// artifact recorded before the change stops reproducing.
struct ChaosPin {
  const char* golden;
  ChaosRunSpec spec;
  // Gray-failure response counters this pin also records and requires to
  // be nonzero, so it provably drives the machinery they count.
  std::vector<const char*> gray_counters;
};

std::vector<ChaosPin> ChaosPins() {
  std::vector<ChaosPin> pins;

  ChaosPin churn;
  churn.golden = "chaos_pin.golden";
  churn.spec.seed = 7;
  churn.spec.schedule_template = "crash_churn";
  churn.spec.suite = DefaultSuiteSpecs().front();
  churn.spec.clients = 3;
  churn.spec.ops_per_client = 18;
  pins.push_back(churn);

  // One gray host under rotating strategies with the whole gray-failure
  // stack armed: hedged probes, sampled probe orders, and demotion. A slow
  // host still answers within the probe timeout, so no breaker opens here.
  ChaosPin gray;
  gray.golden = "chaos_gray_pin.golden";
  gray.spec.seed = 8;
  gray.spec.schedule_template = "gray_host";
  gray.spec.suite = DefaultSuiteSpecs().front();
  gray.spec.clients = 3;
  gray.spec.ops_per_client = 18;
  gray.spec.rotate_strategies = true;
  gray.spec.gray_tolerance = true;
  gray.gray_counters = {"rpc.endpoint.hedges_sent", "rpc.endpoint.hedge_wins",
                        "core.suite_client.breaker_demotions"};
  pins.push_back(gray);

  // The same stack under partitions: calls that cannot be answered fail,
  // which is what opens breakers.
  ChaosPin partitions = gray;
  partitions.golden = "chaos_partitions_pin.golden";
  partitions.spec.schedule_template = "partitions";
  partitions.gray_counters = {"core.health.breaker_opens"};
  pins.push_back(partitions);

  return pins;
}

TEST(SimDeterminismPin, ChaosHistoryMatchesGolden) {
  for (const ChaosPin& pin_spec : ChaosPins()) {
    SCOPED_TRACE(pin_spec.golden);
    ChaosRunOutcome outcome = RunChaos(pin_spec.spec);
    EXPECT_TRUE(outcome.check.ok()) << outcome.check.Report(outcome.schedule);

    std::ostringstream pin;
    pin << "schedule:\n" << outcome.schedule.Serialize();
    pin << "final_read_ok: " << (outcome.final_read_ok ? 1 : 0) << "\n";
    for (const char* counter : pin_spec.gray_counters) {
      const uint64_t value = SumCountersInJson(outcome.metrics_json, counter);
      EXPECT_GT(value, 0u) << counter;
      pin << counter << ": " << value << "\n";
    }
    pin << "history:\n";
    for (const ChaosOp& op : outcome.history) {
      pin << op.ToString() << "\n";
    }
    const std::string got = pin.str();

    const std::string path = DataPath(pin_spec.golden);
    if (RegenRequested()) {
      WriteFileOrDie(path, got);
      continue;
    }
    const std::string want = ReadFileOrDie(path);
    ASSERT_EQ(want.size(), got.size()) << "chaos run diverged from golden";
    EXPECT_EQ(want, got) << "chaos run diverged from golden";
  }
  if (RegenRequested()) {
    GTEST_SKIP() << "regenerated chaos pins";
  }
}

// A pre-rebuild chaos failure artifact (the negative-control counterexample,
// dumped by the old priority-queue core) must still parse and replay to the
// exact same checker verdict on the current core.
TEST(SimDeterminismPin, PreRebuildArtifactReplaysBitForBit) {
  const std::string path = DataPath("chaos_artifact_pin.txt");
  if (RegenRequested()) {
    // Find a failing negative-control run, minimize it, and dump the full
    // artifact — the same flow bench_chaos and the CI sweep use.
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      ChaosRunSpec spec;
      spec.seed = seed;
      spec.schedule_template = "partitions";
      spec.suite = NegativeControlSuite();
      ChaosRunOutcome outcome = RunChaos(spec);
      if (outcome.check.ok()) {
        continue;
      }
      FaultSchedule minimized = MinimizeSchedule(spec, outcome.schedule);
      ChaosRunOutcome final_outcome = RunChaosWithSchedule(spec, minimized);
      ASSERT_FALSE(final_outcome.check.ok());
      WriteFileOrDie(path, DumpArtifact(spec, minimized, final_outcome));
      GTEST_SKIP() << "regenerated " << path;
    }
    FAIL() << "no failing negative-control seed found while regenerating";
  }

  const std::string artifact = ReadFileOrDie(path);
  Result<ChaosReplayFile> replay = ParseArtifact(artifact);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ChaosRunOutcome replayed =
      RunChaosWithSchedule(replay.value().spec, replay.value().schedule);
  // The artifact records the counterexample the old core found; the new
  // core must reproduce the identical violation, histories and all.
  EXPECT_FALSE(replayed.check.ok());
  const std::string report = replayed.check.Report(replay.value().schedule);
  EXPECT_NE(artifact.find(report), std::string::npos)
      << "replayed checker report is not the one recorded in the artifact:\n"
      << report;
  std::ostringstream history;
  for (const ChaosOp& op : replayed.history) {
    history << op.ToString() << "\n";
  }
  EXPECT_NE(artifact.find(history.str()), std::string::npos)
      << "replayed history diverged from the recorded artifact";
}

}  // namespace
}  // namespace wvote
