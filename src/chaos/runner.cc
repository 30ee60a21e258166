#include "src/chaos/runner.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <utility>

#include "src/chaos/nemesis.h"
#include "src/common/check.h"
#include "src/core/cluster.h"
#include "src/sim/random.h"

namespace wvote {
namespace {

constexpr const char* kSuiteName = "chaos";
constexpr const char* kInitialContents = "initial-contents";

std::string JoinVotes(const std::vector<int>& votes) {
  std::string out;
  for (size_t i = 0; i < votes.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(votes[i]);
  }
  return out;
}

std::vector<int> SplitVotes(const std::string& text) {
  std::vector<int> votes;
  std::string cur;
  for (char c : text) {
    if (c == ',') {
      votes.push_back(std::atoi(cur.c_str()));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) {
    votes.push_back(std::atoi(cur.c_str()));
  }
  return votes;
}

// One read transaction logged as a history op of `client_id` (-1 for the
// convergence observer): the version and contents it saw, or its failure.
Task<Status> RecordedRead(SuiteClient* client, HistoryRecorder* recorder, int client_id) {
  const uint64_t id = recorder->Invoke(client_id, kSuiteName, ChaosOpType::kRead);
  SuiteTransaction txn = client->Begin();
  Result<VersionedValue> vv = co_await txn.ReadVersioned();
  Status st = vv.status();
  if (st.ok()) {
    st = co_await txn.Commit();
  } else {
    co_await txn.Abort();
  }
  if (st.ok()) {
    recorder->Complete(id, st, vv.value().version, std::move(vv.value().contents));
  } else {
    recorder->Complete(id, st, 0);
  }
  co_return st;
}

// One client's workload: ops_per_client operations, each retried up to 3
// times with every attempt logged as its own history op under a globally
// unique payload — retry ambiguity is the checker's to reason about, not
// ours to hide.
Task<void> RunWorkloadClient(Simulator* sim, SuiteClient* client, HistoryRecorder* recorder,
                             int client_id, int num_ops, double write_fraction,
                             uint64_t seed) {
  Rng rng(seed);
  for (int op = 0; op < num_ops; ++op) {
    co_await sim->Sleep(Duration::Millis(1 + static_cast<int64_t>(rng.NextBelow(60))));
    const bool is_write = rng.NextBernoulli(write_fraction);
    for (int attempt = 0; attempt < 3; ++attempt) {
      Status final_status = Status::Ok();
      if (is_write) {
        std::string payload = "c" + std::to_string(client_id) + ".op" + std::to_string(op) +
                              ".a" + std::to_string(attempt);
        const uint64_t id =
            recorder->Invoke(client_id, kSuiteName, ChaosOpType::kWrite, payload);
        SuiteTransaction txn = client->Begin();
        Status st = txn.Write(std::move(payload));
        if (st.ok()) {
          st = co_await txn.Commit();
        } else {
          co_await txn.Abort();
        }
        recorder->Complete(id, st, txn.committed_version());
        final_status = st;
      } else {
        final_status = co_await RecordedRead(client, recorder, client_id);
      }
      if (final_status.ok()) {
        break;
      }
      co_await sim->Sleep(Duration::Millis(20 + static_cast<int64_t>(rng.NextBelow(80))));
    }
  }
}

// Rotates every workload client's probing policy on a fixed cadence for the
// duration of the fault schedule. Each switch selects another cached
// strategy slot (built on its first use) while operations are in flight;
// in-flight gathers keep their snapshotted strategy (shared_ptr), new
// operations pick up the next policy. `*rotations` counts applied switches.
Task<void> RotateStrategies(Simulator* sim, std::vector<SuiteClient*> clients,
                            Duration horizon, uint64_t* rotations) {
  static constexpr QuorumStrategy kCycle[] = {
      QuorumStrategy::kLowestLatency,
      QuorumStrategy::kLoadOptimal,
      QuorumStrategy::kFewestMessages,
  };
  const TimePoint end = sim->Now() + horizon;
  const Duration step = Duration::Micros(horizon.ToMicros() / 8);
  size_t next = 0;
  while (sim->Now() + step < end) {
    co_await sim->Sleep(step);
    const QuorumStrategy policy = kCycle[next++ % (sizeof(kCycle) / sizeof(kCycle[0]))];
    for (SuiteClient* client : clients) {
      client->SetStrategy(policy);
    }
    ++*rotations;
  }
}

SuiteConfig BuildConfig(const ChaosSuiteSpec& suite) {
  SuiteConfig config;
  config.suite_name = kSuiteName;
  for (size_t i = 0; i < suite.votes.size(); ++i) {
    config.AddRepresentative("rep-" + std::to_string(i), suite.votes[i]);
  }
  config.read_quorum = suite.read_quorum;
  config.write_quorum = suite.write_quorum;
  config.allow_unsafe_quorums = suite.unsafe;
  return config;
}

}  // namespace

std::vector<ChaosSuiteSpec> DefaultSuiteSpecs() {
  return {
      ChaosSuiteSpec{"r1w3x3", {1, 1, 1}, 1, 3, false},
      ChaosSuiteSpec{"r2w2x3", {1, 1, 1}, 2, 2, false},
      ChaosSuiteSpec{"r2w4x5", {1, 1, 1, 1, 1}, 2, 4, false},
      ChaosSuiteSpec{"weighted-r2w4", {2, 2, 1}, 2, 4, false},
  };
}

ChaosSuiteSpec NegativeControlSuite() {
  // V = 5, r + w = 5 <= V: a read quorum can miss the latest write quorum
  // entirely, so a partition that splits readers from the last writers
  // yields stale reads the checker must flag. 2w > V still holds — writes
  // stay totally ordered; the broken axiom is read/write intersection.
  return ChaosSuiteSpec{"broken-r2w3x5", {1, 1, 1, 1, 1}, 2, 3, true};
}

ChaosRunOutcome RunChaos(const ChaosRunSpec& spec) {
  ScheduleTemplateParams params;
  for (size_t i = 0; i < spec.suite.votes.size(); ++i) {
    params.rep_hosts.push_back("rep-" + std::to_string(i));
  }
  for (int c = 0; c < spec.clients; ++c) {
    params.client_hosts.push_back("client-" + std::to_string(c));
  }
  params.horizon = spec.horizon;
  FaultSchedule schedule =
      MakeScheduleFromTemplate(spec.schedule_template, spec.seed, params);
  return RunChaosWithSchedule(spec, schedule);
}

ChaosRunOutcome RunChaosWithSchedule(const ChaosRunSpec& spec,
                                     const FaultSchedule& schedule) {
  ClusterOptions opts;
  opts.seed = spec.seed;
  // Fast disks and a tight in-doubt watchdog keep one run's simulated
  // horizon (workload + fault clearance + convergence) in the tens of
  // seconds, so hundreds of seeds sweep in sensible wall time.
  opts.rep_options.disk_write_latency = LatencyModel::Fixed(Duration::Millis(2));
  opts.rep_options.disk_read_latency = LatencyModel::Fixed(Duration::Millis(1));
  opts.rep_options.participant.inquiry_interval = Duration::Millis(500);
  opts.rep_options.participant.indoubt_resolution_timeout = Duration::Seconds(3);
  // Orphan locks (client died / abort reply lost mid-fault) must sweep well
  // before the convergence read, or wait-die kills it as the youngest txn.
  // Still orders of magnitude above this workload's sub-second transactions.
  opts.rep_options.participant.lock_lease = Duration::Seconds(5);
  if (spec.scrape_resolution > Duration::Zero()) {
    opts.scrape_resolution = spec.scrape_resolution;
  }
  Cluster cluster(opts);
  if (spec.collect_trace) {
    cluster.tracer().Enable(true);
  }

  SuiteConfig config = BuildConfig(spec.suite);
  for (const RepresentativeInfo& rep : config.representatives) {
    cluster.AddRepresentative(rep.host_name);
  }
  WVOTE_CHECK_MSG(cluster.CreateSuite(config, kInitialContents).ok(),
                  "chaos suite bootstrap failed");

  SuiteClientOptions client_options;
  client_options.probe_timeout = Duration::Millis(300);
  client_options.data_timeout = Duration::Seconds(1);
  client_options.gray_tolerance = spec.gray_tolerance;
  std::vector<SuiteClient*> clients;
  for (int c = 0; c < spec.clients; ++c) {
    clients.push_back(
        cluster.AddClient("client-" + std::to_string(c), config, client_options));
  }
  // The convergence observer probes everyone: after heal it must find a
  // read quorum whatever the faults did to individual representatives.
  SuiteClientOptions observer_options = client_options;
  observer_options.strategy = QuorumStrategy::kBroadcast;
  SuiteClient* observer = cluster.AddClient("observer", config, observer_options);

  HistoryRecorder recorder(&cluster.sim());
  Nemesis nemesis(&cluster, schedule);
  nemesis.Deploy();

  for (int c = 0; c < spec.clients; ++c) {
    Spawn(RunWorkloadClient(&cluster.sim(), clients[static_cast<size_t>(c)], &recorder, c,
                            spec.ops_per_client, spec.write_fraction,
                            spec.seed * 1000003u + static_cast<uint64_t>(c)));
  }
  uint64_t strategy_rotations = 0;
  if (spec.rotate_strategies) {
    // Workload clients only: the convergence observer stays on broadcast.
    Spawn(RotateStrategies(&cluster.sim(), clients, spec.horizon, &strategy_rotations));
  }

  // Drain the workload, the schedule, and every background convergence
  // mechanism (retriers, in-doubt watchdogs). Bounded, so a retrier parked
  // against a host the (possibly minimized) schedule never restarts cannot
  // hang the sweep.
  cluster.sim().RunFor(spec.horizon + Duration::Seconds(30));

  // The post-heal convergence read: every fault has cleared, so a broadcast
  // read must succeed and must observe every acknowledged write — this is the
  // op that turns "lost ack" into a concrete durability violation.
  std::optional<Status> final_read = cluster.RunTaskFor(
      RecordedRead(observer, &recorder, /*client_id=*/-1), Duration::Seconds(30));

  ChaosRunOutcome outcome;
  outcome.schedule = schedule;
  outcome.history = recorder.ops();
  outcome.initial_contents = kInitialContents;
  outcome.nemesis_events_applied = nemesis.events_applied();
  outcome.nemesis_crashes = nemesis.stats().crashes;
  outcome.nemesis_phase_crashes = nemesis.stats().phase_crashes;
  outcome.strategy_rotations = strategy_rotations;
  outcome.check = CheckHistory(outcome.history, outcome.initial_contents);
  outcome.final_read_ok = final_read.has_value() && final_read->ok();
  if (!outcome.final_read_ok) {
    const bool have_ops = !outcome.history.empty();
    outcome.check.violations.push_back(ChaosViolation{
        "convergence",
        "post-heal broadcast read did not succeed: " +
            (have_ops ? outcome.history.back().ToString() : std::string("no ops")),
        have_ops ? std::vector<uint64_t>{outcome.history.back().id}
                 : std::vector<uint64_t>{}});
  }
  outcome.metrics_json = cluster.metrics().ExportJson();
  if (spec.collect_trace) {
    bool first = true;
    cluster.tracer().AppendChromeEvents(&outcome.chrome_trace, &first, 0, "chaos");
  }
  if (cluster.scraper() != nullptr) {
    outcome.timeseries_json =
        cluster.scraper()->store().ExportJson(cluster.scraper()->store().capacity());
    outcome.flight_record = cluster.DumpFlightRecord();
    if (cluster.slo() != nullptr) {
      outcome.slo_breaches = cluster.slo()->total_breaches();
    }
  }
  return outcome;
}

FaultSchedule MinimizeSchedule(const ChaosRunSpec& spec, const FaultSchedule& failing) {
  FaultSchedule current = failing;
  // Shortest failing prefix first: one pass, biggest cuts.
  for (size_t n = 0; n < current.events.size(); ++n) {
    FaultSchedule candidate = current.Truncated(n);
    if (!RunChaosWithSchedule(spec, candidate).check.ok()) {
      current = candidate;
      break;
    }
  }
  // Greedy single-event removal to a fixpoint. Determinism makes each
  // replay an exact oracle: the failure either reproduces or it does not.
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < current.events.size(); ++i) {
      FaultSchedule candidate = current.Without(i);
      if (!RunChaosWithSchedule(spec, candidate).check.ok()) {
        current = candidate;
        progress = true;
        break;
      }
    }
  }
  current.name = "minimized(" + failing.name + ")";
  return current;
}

std::string DumpArtifact(const ChaosRunSpec& spec, const FaultSchedule& schedule,
                         const ChaosRunOutcome& outcome) {
  char header[512];
  std::snprintf(header, sizeof(header),
                "spec seed=%" PRIu64
                " template=%s suite=%s votes=%s r=%d w=%d unsafe=%d clients=%d ops=%d "
                "write_fraction=%.9g horizon_us=%" PRId64 " rotate=%d gray=%d\n",
                spec.seed, spec.schedule_template.c_str(), spec.suite.name.c_str(),
                JoinVotes(spec.suite.votes).c_str(), spec.suite.read_quorum,
                spec.suite.write_quorum, spec.suite.unsafe ? 1 : 0, spec.clients,
                spec.ops_per_client, spec.write_fraction, spec.horizon.ToMicros(),
                spec.rotate_strategies ? 1 : 0, spec.gray_tolerance ? 1 : 0);
  std::string out = header;
  out += schedule.Serialize();
  out += "--- report (everything below is ignored on replay)\n";
  out += outcome.check.Report(schedule);
  out += "--- history\n";
  for (const ChaosOp& op : outcome.history) {
    out += op.ToString();
    out += '\n';
  }
  out += "--- metrics\n";
  out += outcome.metrics_json;
  out += '\n';
  if (!outcome.chrome_trace.empty()) {
    out += "--- trace\n{\"traceEvents\":[\n" + outcome.chrome_trace + "\n]}\n";
  }
  if (!outcome.flight_record.empty()) {
    // Like every section after "--- report", replay-invisible: the parser
    // stops at the first "---" line.
    out += "--- flight-recorder\n";
    out += outcome.flight_record;
    out += '\n';
  }
  return out;
}

Result<ChaosReplayFile> ParseArtifact(const std::string& text) {
  ChaosReplayFile file;
  bool saw_spec = false;
  std::string schedule_text;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.rfind("---", 0) == 0) {
      break;  // report sections; not needed for replay
    }
    if (line.rfind("spec ", 0) == 0) {
      std::map<std::string, std::string> kv = TokenizeLine(line);
      for (const char* required :
           {"seed", "template", "suite", "votes", "r", "w", "unsafe", "clients", "ops",
            "write_fraction", "horizon_us"}) {
        if (kv.find(required) == kv.end()) {
          return InvalidArgumentError("artifact spec line missing '" +
                                      std::string(required) + "'");
        }
      }
      file.spec.seed = std::strtoull(kv["seed"].c_str(), nullptr, 10);
      file.spec.schedule_template = kv["template"];
      file.spec.suite.name = kv["suite"];
      file.spec.suite.votes = SplitVotes(kv["votes"]);
      file.spec.suite.read_quorum = std::atoi(kv["r"].c_str());
      file.spec.suite.write_quorum = std::atoi(kv["w"].c_str());
      file.spec.suite.unsafe = kv["unsafe"] == "1";
      file.spec.clients = std::atoi(kv["clients"].c_str());
      file.spec.ops_per_client = std::atoi(kv["ops"].c_str());
      file.spec.write_fraction = std::strtod(kv["write_fraction"].c_str(), nullptr);
      file.spec.horizon = Duration::Micros(std::strtoll(kv["horizon_us"].c_str(), nullptr, 10));
      // Optional (absent in artifacts dumped before strategy rotation
      // existed; those replay with rotation off, matching their run).
      file.spec.rotate_strategies = kv.count("rotate") != 0 && kv["rotate"] == "1";
      // Optional likewise (absent before gray-failure tolerance existed;
      // those artifacts replay with the response knobs off, matching their
      // original run).
      file.spec.gray_tolerance = kv.count("gray") != 0 && kv["gray"] == "1";
      saw_spec = true;
    } else if (!line.empty()) {
      schedule_text += line;
      schedule_text += '\n';
    }
  }
  if (!saw_spec) {
    return InvalidArgumentError("artifact missing 'spec ...' line");
  }
  Result<FaultSchedule> schedule = FaultSchedule::Parse(schedule_text);
  WVOTE_RETURN_IF_ERROR(schedule.status());
  file.schedule = std::move(schedule.value());
  return file;
}

}  // namespace wvote
