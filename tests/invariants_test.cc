// Randomized safety invariants under concurrency, crashes, and partitions.
//
// Several clients issue transactional reads and writes against one suite
// while representatives crash/restart (and, in the partition variant, the
// network splits) on a random schedule. The history is then checked against
// the guarantees weighted voting must provide regardless of quorum tuning:
//
//   I1  real-time read monotonicity: if read A completes before read B
//       starts, B observes a version >= A's;
//   I2  no fabrication: every read observes the initial contents or the
//       payload of some attempted write;
//   I3  version uniqueness: no version number is ever observed with two
//       different payloads (this is exactly the write-write quorum
//       intersection guarantee — a split-brain would violate it);
//   I4  write durability visible to later reads: a read that starts after a
//       write was acknowledged observes a version high enough to include it;
//   I5  convergence: after all failures heal and activity quiesces, a final
//       read succeeds and returns an acknowledged payload (or the initial
//       contents when no write ever succeeded).

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "src/chaos/nemesis.h"
#include "src/core/cluster.h"

namespace wvote {
namespace {

struct ReadRecord {
  TimePoint start;
  TimePoint end;
  Version version = 0;
  std::string payload;
};
struct WriteRecord {
  TimePoint start;
  TimePoint end;
  bool acknowledged = false;
  std::string payload;
};

struct History {
  std::vector<ReadRecord> reads;
  std::vector<WriteRecord> writes;
  std::string initial;
};

Task<void> RunHistoryClient(Simulator* sim, SuiteClient* client, History* history,
                            int client_id, int ops, uint64_t seed, double write_fraction) {
  Rng rng(seed);
  for (int op = 0; op < ops; ++op) {
    co_await sim->Sleep(Duration::Micros(rng.NextInRange(1000, 80000)));
    if (rng.NextBernoulli(write_fraction)) {
      WriteRecord rec;
      rec.payload = "w-" + std::to_string(client_id) + "-" + std::to_string(op);
      rec.start = sim->Now();
      Status st = co_await client->WriteOnce(rec.payload, /*retries=*/1);
      rec.end = sim->Now();
      rec.acknowledged = st.ok();
      history->writes.push_back(rec);
    } else {
      ReadRecord rec;
      rec.start = sim->Now();
      SuiteTransaction txn = client->Begin();
      Result<VersionedValue> vv = co_await txn.ReadVersioned();
      Status committed = co_await txn.Commit();
      rec.end = sim->Now();
      if (vv.ok() && committed.ok()) {
        rec.version = vv.value().version;
        rec.payload = std::move(vv.value().contents);
        history->reads.push_back(rec);
      }
    }
  }
}

void CheckInvariants(const History& history) {
  // I1: real-time monotonicity over non-overlapping reads.
  for (size_t i = 0; i < history.reads.size(); ++i) {
    for (size_t j = 0; j < history.reads.size(); ++j) {
      if (history.reads[i].end < history.reads[j].start) {
        EXPECT_LE(history.reads[i].version, history.reads[j].version)
            << "I1 violated: read finishing at " << history.reads[i].end.ToMicros()
            << "us saw v" << history.reads[i].version << " but later read saw v"
            << history.reads[j].version;
      }
    }
  }

  // I2: every observed payload is the initial contents or an attempted write.
  std::set<std::string> attempted;
  for (const WriteRecord& w : history.writes) {
    attempted.insert(w.payload);
  }
  for (const ReadRecord& r : history.reads) {
    if (r.version == 0) {
      continue;
    }
    EXPECT_TRUE(r.payload == history.initial || attempted.count(r.payload) != 0)
        << "I2 violated: fabricated payload \"" << r.payload << "\"";
  }

  // I3: a version maps to exactly one payload.
  std::map<Version, std::string> version_to_payload;
  for (const ReadRecord& r : history.reads) {
    auto [it, inserted] = version_to_payload.emplace(r.version, r.payload);
    if (!inserted) {
      EXPECT_EQ(it->second, r.payload)
          << "I3 violated: version " << r.version << " observed with two payloads";
    }
  }

  // I4: reads starting after an acknowledged write see an advanced version.
  // Find the version each acknowledged write produced where observable.
  std::map<std::string, Version> payload_version;
  for (const auto& [version, payload] : version_to_payload) {
    payload_version[payload] = version;
  }
  for (const WriteRecord& w : history.writes) {
    if (!w.acknowledged) {
      continue;
    }
    auto it = payload_version.find(w.payload);
    if (it == payload_version.end()) {
      continue;  // overwritten before anyone read it
    }
    for (const ReadRecord& r : history.reads) {
      if (w.end < r.start) {
        EXPECT_GE(r.version, it->second)
            << "I4 violated: write \"" << w.payload << "\" (v" << it->second
            << ") acknowledged before read that saw v" << r.version;
      }
    }
  }
}

struct Scenario {
  int num_reps;
  int r;
  int w;
  bool weighted;  // give rep-0 two votes
};

class InvariantTest
    : public ::testing::TestWithParam<std::tuple<Scenario, uint64_t>> {};

TEST_P(InvariantTest, RandomizedHistoryIsSafe) {
  const Scenario scenario = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());

  ClusterOptions copts;
  copts.seed = seed;
  Cluster cluster(copts);
  SuiteConfig config;
  config.suite_name = "inv";
  std::vector<std::string> hosts;
  for (int i = 0; i < scenario.num_reps; ++i) {
    hosts.push_back("rep-" + std::to_string(i));
    cluster.AddRepresentative(hosts.back());
    config.AddRepresentative(hosts.back(), (scenario.weighted && i == 0) ? 2 : 1);
  }
  config.read_quorum = scenario.r;
  config.write_quorum = scenario.w;
  ASSERT_TRUE(config.Validate().ok());
  ASSERT_TRUE(cluster.CreateSuite(config, "initial-contents").ok());

  History history;
  history.initial = "initial-contents";

  SuiteClientOptions client_opts;
  client_opts.probe_timeout = Duration::Millis(300);

  constexpr int kClients = 3;
  constexpr int kOpsPerClient = 70;
  for (int c = 0; c < kClients; ++c) {
    SuiteClient* client =
        cluster.AddClient("client-" + std::to_string(c), config, client_opts);
    Spawn(RunHistoryClient(&cluster.sim(), client, &history, c, kOpsPerClient,
                           seed * 100 + static_cast<uint64_t>(c), /*write_fraction=*/0.35));
  }

  // Crash/restart churn on every representative for the first stretch.
  Nemesis nemesis(&cluster, CrashRestartSchedule(hosts,
                                                 {/*mttf=*/Duration::Millis(1500),
                                                  /*mttr=*/Duration::Millis(300)},
                                                 Duration::Seconds(4), seed * 999));
  nemesis.Deploy();

  cluster.sim().Run();

  // The history must be substantial or the invariants check nothing.
  EXPECT_GE(history.reads.size(), 20u);
  uint64_t acknowledged_writes = 0;
  for (const WriteRecord& w : history.writes) {
    acknowledged_writes += w.acknowledged ? 1 : 0;
  }
  EXPECT_GE(acknowledged_writes, 3u);

  CheckInvariants(history);

  // I5: convergence after the dust settles.
  SuiteClientOptions final_opts = client_opts;
  final_opts.strategy = QuorumStrategy::kBroadcast;
  SuiteClient* finalist = cluster.AddClient("finalist", config, final_opts);
  SuiteTransaction txn = finalist->Begin();
  Result<VersionedValue> final_value = cluster.RunTask(txn.ReadVersioned());
  ASSERT_TRUE(final_value.ok()) << final_value.status().ToString();
  (void)cluster.RunTaskFor(txn.Commit(), Duration::Seconds(30));

  std::set<std::string> acknowledged;
  acknowledged.insert("initial-contents");
  for (const WriteRecord& w : history.writes) {
    if (w.acknowledged) {
      acknowledged.insert(w.payload);
    }
  }
  EXPECT_TRUE(acknowledged.count(final_value.value().contents) != 0)
      << "I5 violated: final contents \"" << final_value.value().contents
      << "\" were never acknowledged";
  // The final version is at least as new as anything any read observed.
  Version max_seen = 0;
  for (const ReadRecord& r : history.reads) {
    max_seen = std::max(max_seen, r.version);
  }
  EXPECT_GE(final_value.value().version, max_seen);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, InvariantTest,
    ::testing::Combine(::testing::Values(Scenario{3, 2, 2, false},
                                         Scenario{5, 3, 3, false},
                                         Scenario{5, 1, 5, false},
                                         Scenario{5, 2, 4, false},
                                         Scenario{4, 2, 4, true}),
                       ::testing::Values(11u, 22u, 33u)));

class PartitionInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionInvariantTest, SplitBrainNeverHappens) {
  const uint64_t seed = GetParam();
  ClusterOptions copts;
  copts.seed = seed;
  Cluster cluster(copts);
  std::vector<std::string> hosts;
  for (int i = 0; i < 5; ++i) {
    hosts.push_back("rep-" + std::to_string(i));
    cluster.AddRepresentative(hosts.back());
  }
  SuiteConfig config = SuiteConfig::MakeUniform("inv", hosts, 3, 3);
  ASSERT_TRUE(cluster.CreateSuite(config, "initial-contents").ok());

  History history;
  history.initial = "initial-contents";

  SuiteClientOptions client_opts;
  client_opts.probe_timeout = Duration::Millis(300);

  // Clients on both sides of the partitions.
  for (int c = 0; c < 4; ++c) {
    SuiteClient* client =
        cluster.AddClient("client-" + std::to_string(c), config, client_opts);
    Spawn(RunHistoryClient(&cluster.sim(), client, &history, c, 30,
                           seed * 100 + static_cast<uint64_t>(c), /*write_fraction=*/0.5));
  }

  // Random partition schedule: every 800ms, re-partition or heal. Clients
  // 0,1 ride with the first group; 2,3 with the second.
  auto reshuffle = [](Simulator* sim, Network* net, uint64_t seed) -> Task<void> {
    Rng rng(seed);
    for (int epoch = 0; epoch < 6; ++epoch) {
      co_await sim->Sleep(Duration::Millis(800));
      if (rng.NextBernoulli(0.3)) {
        net->HealPartition();
        continue;
      }
      // Random split of the 5 representatives.
      std::vector<HostId> side_a = {net->FindHost("client-0")->id(),
                                    net->FindHost("client-1")->id()};
      std::vector<HostId> side_b = {net->FindHost("client-2")->id(),
                                    net->FindHost("client-3")->id()};
      for (int i = 0; i < 5; ++i) {
        HostId rep = net->FindHost("rep-" + std::to_string(i))->id();
        (rng.NextBernoulli(0.5) ? side_a : side_b).push_back(rep);
      }
      net->Partition({side_a, side_b});
    }
    net->HealPartition();
  };
  std::function<Task<void>(Simulator*, Network*, uint64_t)> reshuffle_fn = reshuffle;
  Spawn(reshuffle_fn(&cluster.sim(), &cluster.net(), seed + 5));

  cluster.sim().Run();
  EXPECT_GE(history.reads.size(), 10u);
  CheckInvariants(history);  // I3 here is the split-brain check
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionInvariantTest,
                         ::testing::Values(101u, 202u, 303u, 404u));

}  // namespace
}  // namespace wvote
