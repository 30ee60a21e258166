// SuiteClient: the weighted-voting read/write protocol end to end —
// quorum gathering, version currency, caches, failures, conflicts,
// transaction semantics.

#include "src/core/suite_client.h"

#include <gtest/gtest.h>

#include "src/chaos/nemesis.h"
#include "src/core/cluster.h"

namespace wvote {
namespace {

class SuiteClientTest : public ::testing::Test {
 protected:
  void Deploy(int num_reps, int r, int w, SuiteClientOptions copts = {}) {
    cluster_ = std::make_unique<Cluster>();
    std::vector<std::string> hosts;
    for (int i = 0; i < num_reps; ++i) {
      hosts.push_back("rep-" + std::to_string(i));
      cluster_->AddRepresentative(hosts.back());
    }
    config_ = SuiteConfig::MakeUniform("f", hosts, r, w);
    ASSERT_TRUE(cluster_->CreateSuite(config_, "v1-contents").ok());
    client_ = cluster_->AddClient("client", config_, copts);
  }

  Host* Rep(int i) { return cluster_->net().FindHost("rep-" + std::to_string(i)); }

  std::unique_ptr<Cluster> cluster_;
  SuiteConfig config_;
  SuiteClient* client_ = nullptr;
};

TEST_F(SuiteClientTest, ReadReturnsCurrentContents) {
  Deploy(3, 2, 2);
  Result<std::string> r = cluster_->RunTask(client_->ReadOnce());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "v1-contents");
}

TEST_F(SuiteClientTest, ReadYourOwnBufferedWrite) {
  Deploy(3, 2, 2);
  SuiteTransaction txn = client_->Begin();
  ASSERT_TRUE(txn.Write("buffered").ok());
  Result<std::string> r = cluster_->RunTask(txn.Read());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "buffered");
  ASSERT_TRUE(cluster_->RunTask(txn.Commit()).ok());
}

TEST_F(SuiteClientTest, RepeatedReadsAreStableWithinTransaction) {
  Deploy(3, 2, 2);
  SuiteTransaction txn = client_->Begin();
  Result<std::string> first = cluster_->RunTask(txn.Read());
  Result<std::string> second = cluster_->RunTask(txn.Read());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value());
  ASSERT_TRUE(cluster_->RunTask(txn.Commit()).ok());
}

TEST_F(SuiteClientTest, WriteBumpsVersionByOne) {
  Deploy(3, 2, 2);
  ASSERT_TRUE(cluster_->RunTask(client_->WriteOnce("v2")).ok());
  SuiteTransaction txn = client_->Begin();
  Result<VersionedValue> vv = cluster_->RunTask(txn.ReadVersioned());
  ASSERT_TRUE(vv.ok());
  EXPECT_EQ(vv.value().version, 2u);
  EXPECT_EQ(vv.value().contents, "v2");
  ASSERT_TRUE(cluster_->RunTask(txn.Commit()).ok());
}

TEST_F(SuiteClientTest, OperationsAfterFinishFail) {
  Deploy(3, 2, 2);
  SuiteTransaction txn = client_->Begin();
  ASSERT_TRUE(cluster_->RunTask(txn.Commit()).ok());
  EXPECT_TRUE(txn.finished());
  Result<std::string> r = cluster_->RunTask(txn.Read());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(txn.Write("late").code(), StatusCode::kFailedPrecondition);
  Status st = cluster_->RunTask(txn.Commit());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST_F(SuiteClientTest, AbortDiscardsBufferedWrite) {
  Deploy(3, 2, 2);
  {
    SuiteTransaction txn = client_->Begin();
    ASSERT_TRUE(txn.Write("discarded").ok());
    Spawn(txn.Abort());
    cluster_->sim().Run();
    EXPECT_TRUE(txn.finished());
  }
  Result<std::string> r = cluster_->RunTask(client_->ReadOnce());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "v1-contents");
}

TEST_F(SuiteClientTest, AbandonedTransactionReleasesLocksViaDestructor) {
  Deploy(3, 2, 2);
  {
    SuiteTransaction txn = client_->Begin();
    Result<std::string> r = cluster_->RunTask(txn.Read());
    ASSERT_TRUE(r.ok());
    // Dropped without Commit/Abort.
  }
  cluster_->sim().RunFor(Duration::Seconds(2));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster_->representative("rep-" + std::to_string(i))
                  ->participant()
                  .locks()
                  .num_locked_keys(),
              0u)
        << "rep-" << i;
  }
}

// A straggler probe whose lock is granted after its transaction ended is
// released by the gather's leftover handler. The client keeps running new
// transactions meanwhile; the straggler pins its own state, so they run on
// other recycled states and never on the one the straggler reports to.
TEST_F(SuiteClientTest, StragglerReleasesItsLockWhileStatesAreRecycled) {
  SuiteClientOptions copts;
  copts.strategy = QuorumStrategy::kBroadcast;  // probe every representative
  Deploy(3, 2, 2, copts);
  const HostId client_host = cluster_->net().FindHost("client")->id();
  LockManager& slow_locks = cluster_->representative("rep-2")->participant().locks();

  // rep-2's probe and reply travel slow links. The request link is fast
  // again before the read commits, so the commit's release overtakes the
  // probe: the probe is granted after its transaction ended, and only the
  // late reply tells the client to release it.
  cluster_->net().SetLink(client_host, Rep(2)->id(), LatencyModel::Fixed(Duration::Millis(300)));
  cluster_->net().SetLink(Rep(2)->id(), client_host, LatencyModel::Fixed(Duration::Millis(300)));
  SuiteTransaction straggler = client_->Begin();
  ASSERT_TRUE(cluster_->RunTask(straggler.Read()).ok());
  cluster_->net().SetLink(client_host, Rep(2)->id(), LatencyModel::Fixed(Duration::Millis(5)));
  ASSERT_TRUE(cluster_->RunTask(straggler.Commit()).ok());
  const TimePoint committed = cluster_->sim().Now();
  EXPECT_EQ(slow_locks.num_locked_keys(), 0u);  // the probe is still on its way

  // New transactions while the straggler is out, kept off rep-2 so any lock
  // there is the straggler's.
  client_->SetStrategy(QuorumStrategy::kLowestLatency);
  bool straggler_lock_seen = false;
  while (cluster_->sim().Now() < committed + Duration::Millis(800)) {
    Result<std::string> r = cluster_->RunTask(client_->ReadOnce());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    straggler_lock_seen = straggler_lock_seen || slow_locks.num_locked_keys() != 0;
  }
  EXPECT_TRUE(straggler_lock_seen);
  EXPECT_EQ(slow_locks.num_locked_keys(), 0u);

  // A write's X lock at rep-2 would die against a leaked S lock of the older
  // straggler.
  client_->SetStrategy(QuorumStrategy::kBroadcast);
  ASSERT_TRUE(cluster_->RunTask(client_->WriteOnce("after-the-straggler", 1)).ok());
  cluster_->sim().RunFor(Duration::Seconds(1));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster_->representative("rep-" + std::to_string(i))
                  ->participant()
                  .locks()
                  .num_locked_keys(),
              0u)
        << "rep-" << i;
  }
}

TEST_F(SuiteClientTest, GatherWidensPastCrashedRepresentatives) {
  SuiteClientOptions copts;
  copts.probe_timeout = Duration::Millis(200);
  Deploy(5, 2, 4, copts);
  Rep(0)->Crash();
  Rep(1)->Crash();
  Result<std::string> r = cluster_->RunTask(client_->ReadOnce());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), "v1-contents");
}

// Gifford's poll has no round limit: with r=1 and the five representatives
// the plan ranks first crashed (uniform links keep plan order rep-0..rep-5),
// the gather widens one round per timeout until the sixth answers.
TEST_F(SuiteClientTest, GatherWidensUntilCandidatesRunOut) {
  SuiteClientOptions copts;
  copts.probe_timeout = Duration::Millis(200);
  Deploy(6, 1, 6, copts);
  for (int i = 0; i < 5; ++i) {
    Rep(i)->Crash();
  }
  Result<std::string> r = cluster_->RunTask(client_->ReadOnce(/*retries=*/1));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), "v1-contents");
  EXPECT_EQ(client_->stats().gather_rounds, 6u);
  EXPECT_EQ(client_->stats().unavailable, 0u);
}

TEST_F(SuiteClientTest, InsufficientVotesIsUnavailable) {
  SuiteClientOptions copts;
  copts.probe_timeout = Duration::Millis(200);
  Deploy(3, 2, 2, copts);
  Rep(0)->Crash();
  Rep(1)->Crash();
  Result<std::string> r = cluster_->RunTask(client_->ReadOnce(/*retries=*/1));
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(client_->stats().unavailable, 1u);
}

TEST_F(SuiteClientTest, WriteUnavailableWithoutWriteQuorum) {
  SuiteClientOptions copts;
  copts.probe_timeout = Duration::Millis(200);
  Deploy(3, 1, 3, copts);
  Rep(2)->Crash();
  Status st = cluster_->RunTask(client_->WriteOnce("no", /*retries=*/1));
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  // Reads (r=1) still fine.
  EXPECT_TRUE(cluster_->RunTask(client_->ReadOnce()).ok());
}

TEST_F(SuiteClientTest, ReadObservesLatestCommittedWriteFromOtherClient) {
  Deploy(3, 2, 2);
  SuiteClient* other = cluster_->AddClient("other-client", config_);
  ASSERT_TRUE(cluster_->RunTask(other->WriteOnce("from-other")).ok());
  Result<std::string> r = cluster_->RunTask(client_->ReadOnce());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "from-other");
}

TEST_F(SuiteClientTest, ConflictingWritersSerialize) {
  Deploy(3, 2, 2);
  SuiteClient* other = cluster_->AddClient("other-client", config_);
  auto st1 = std::make_shared<std::optional<Status>>();
  auto st2 = std::make_shared<std::optional<Status>>();
  auto writer = [](SuiteClient* c, std::string v,
                   std::shared_ptr<std::optional<Status>> out) -> Task<void> {
    *out = co_await c->WriteOnce(std::move(v), /*retries=*/20);
  };
  Spawn(writer(client_, "from-A", st1));
  Spawn(writer(other, "from-B", st2));
  cluster_->sim().Run();
  ASSERT_TRUE(st1->has_value());
  ASSERT_TRUE(st2->has_value());
  EXPECT_TRUE((*st1)->ok()) << (*st1)->ToString();
  EXPECT_TRUE((*st2)->ok()) << (*st2)->ToString();

  // Both committed: version advanced twice, contents are one of the two.
  SuiteTransaction txn = client_->Begin();
  Result<VersionedValue> vv = cluster_->RunTask(txn.ReadVersioned());
  ASSERT_TRUE(vv.ok());
  EXPECT_EQ(vv.value().version, 3u);
  EXPECT_TRUE(vv.value().contents == "from-A" || vv.value().contents == "from-B");
  ASSERT_TRUE(cluster_->RunTask(txn.Commit()).ok());
}

TEST_F(SuiteClientTest, WeightedVotesLetHeavyRepAloneFormReadQuorum) {
  cluster_ = std::make_unique<Cluster>();
  cluster_->AddRepresentative("heavy");
  cluster_->AddRepresentative("light-1");
  cluster_->AddRepresentative("light-2");
  SuiteConfig cfg;
  cfg.suite_name = "f";
  cfg.AddRepresentative("heavy", 2);
  cfg.AddRepresentative("light-1", 1);
  cfg.AddRepresentative("light-2", 1);
  cfg.read_quorum = 2;
  cfg.write_quorum = 3;
  ASSERT_TRUE(cluster_->CreateSuite(cfg, "x").ok());
  client_ = cluster_->AddClient("client", cfg);

  cluster_->net().ResetStats();
  ASSERT_TRUE(cluster_->RunTask(client_->ReadOnce()).ok());
  // One probe (heavy, 2 votes) + one data fetch + async lock release.
  EXPECT_EQ(client_->stats().probes_sent, 1u);
}

TEST_F(SuiteClientTest, CacheServesRepeatedReads) {
  cluster_ = std::make_unique<Cluster>();
  cluster_->AddRepresentative("rep-0");
  SuiteConfig cfg;
  cfg.suite_name = "f";
  cfg.AddRepresentative("rep-0", 1);
  cfg.AddWeakRepresentative("client");
  cfg.read_quorum = 1;
  cfg.write_quorum = 1;
  ASSERT_TRUE(cluster_->CreateSuite(cfg, "cached-contents").ok());
  client_ = cluster_->AddClient("client", cfg, SuiteClientOptions{}, /*with_cache=*/true);

  ASSERT_TRUE(cluster_->RunTask(client_->ReadOnce()).ok());  // fills cache
  ASSERT_TRUE(cluster_->RunTask(client_->ReadOnce()).ok());  // hit
  ASSERT_TRUE(cluster_->RunTask(client_->ReadOnce()).ok());  // hit
  EXPECT_EQ(client_->stats().cache_hits, 2u);
  EXPECT_EQ(cluster_->cache_of("client")->stats().hits, 2u);
}

TEST_F(SuiteClientTest, CacheInvalidatedByRemoteWrite) {
  cluster_ = std::make_unique<Cluster>();
  cluster_->AddRepresentative("rep-0");
  SuiteConfig cfg;
  cfg.suite_name = "f";
  cfg.AddRepresentative("rep-0", 1);
  cfg.AddWeakRepresentative("client");
  cfg.read_quorum = 1;
  cfg.write_quorum = 1;
  ASSERT_TRUE(cluster_->CreateSuite(cfg, "old").ok());
  client_ = cluster_->AddClient("client", cfg, SuiteClientOptions{}, /*with_cache=*/true);
  SuiteClient* writer = cluster_->AddClient("writer", cfg);

  ASSERT_TRUE(cluster_->RunTask(client_->ReadOnce()).ok());
  ASSERT_TRUE(cluster_->RunTask(writer->WriteOnce("new")).ok());
  Result<std::string> r = cluster_->RunTask(client_->ReadOnce());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "new");  // version check caught the stale cache
}

TEST_F(SuiteClientTest, BackgroundRefreshHealsStaleReplica) {
  SuiteClientOptions copts;
  copts.probe_timeout = Duration::Millis(200);
  copts.strategy = QuorumStrategy::kBroadcast;
  Deploy(3, 2, 2, copts);
  Rep(2)->Crash();
  ASSERT_TRUE(cluster_->RunTask(client_->WriteOnce("while-down")).ok());
  Rep(2)->Restart();
  ASSERT_TRUE(cluster_->RunTask(client_->ReadOnce()).ok());
  cluster_->sim().RunFor(Duration::Seconds(5));
  Result<VersionedValue> at2 = cluster_->representative("rep-2")->CurrentValue("f");
  ASSERT_TRUE(at2.ok());
  EXPECT_EQ(at2.value().contents, "while-down");
}

TEST_F(SuiteClientTest, StatsAccumulate) {
  Deploy(3, 2, 2);
  ASSERT_TRUE(cluster_->RunTask(client_->ReadOnce()).ok());
  ASSERT_TRUE(cluster_->RunTask(client_->WriteOnce("w")).ok());
  EXPECT_EQ(client_->stats().reads, 1u);
  EXPECT_EQ(client_->stats().writes, 1u);
  EXPECT_EQ(client_->stats().commits, 2u);
  EXPECT_GE(client_->stats().probes_sent, 4u);
}

// ---------------------------------------------------------------------------
// Fast-path reads: piggybacked contents on version probes.
// ---------------------------------------------------------------------------

TEST_F(SuiteClientTest, FastPathServesReadInOneRoundTrip) {
  Deploy(3, 2, 2);
  for (int i = 0; i < 5; ++i) {
    Result<std::string> r = cluster_->RunTask(client_->ReadOnce());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), "v1-contents");
  }
  // Every read was served from the piggybacked probe reply: no representative
  // ever saw an explicit data fetch.
  EXPECT_EQ(client_->stats().fastpath_hits, 5u);
  EXPECT_EQ(client_->stats().fastpath_misses, 0u);
  EXPECT_GT(client_->stats().fastpath_bytes_saved, 0u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster_->representative("rep-" + std::to_string(i))->stats().data_reads, 0u)
        << "rep-" << i;
  }
  // Exactly one probe per round carried data.
  uint64_t piggybacks = 0;
  for (int i = 0; i < 3; ++i) {
    piggybacks += cluster_->representative("rep-" + std::to_string(i))->stats().piggyback_serves;
  }
  EXPECT_EQ(piggybacks, 5u);
}

TEST_F(SuiteClientTest, FastPathDisabledAlwaysFetches) {
  SuiteClientOptions copts;
  copts.fastpath_reads = false;
  Deploy(3, 2, 2, copts);
  ASSERT_TRUE(cluster_->RunTask(client_->ReadOnce()).ok());
  EXPECT_EQ(client_->stats().fastpath_hits, 0u);
  EXPECT_EQ(client_->stats().fastpath_misses, 0u);
  uint64_t data_reads = 0;
  for (int i = 0; i < 3; ++i) {
    data_reads += cluster_->representative("rep-" + std::to_string(i))->stats().data_reads;
  }
  EXPECT_EQ(data_reads, 1u);
}

TEST_F(SuiteClientTest, FastPathFallsBackWhenCheapestRepIsStale) {
  SuiteClientOptions copts;
  copts.probe_timeout = Duration::Millis(200);
  copts.background_refresh = false;  // keep rep-0 stale for the assertion
  Deploy(3, 2, 2, copts);
  // Make rep-0 by far the cheapest so every plan prefers it.
  cluster_->net().SetSymmetricLink(cluster_->net().FindHost("client")->id(),
                                   cluster_->net().FindHost("rep-0")->id(),
                                   LatencyModel::Fixed(Duration::Millis(1)));
  // Write v2 while rep-0 is down: it stays at v1.
  Rep(0)->Crash();
  ASSERT_TRUE(cluster_->RunTask(client_->WriteOnce("new")).ok());
  Rep(0)->Restart();

  // A fresh client (no version hints) bets on the cheapest rep — which is
  // stale. The quorum proves v2 current, so the piggybacked v1 copy must be
  // rejected and the read must fall back to a proven-current member.
  SuiteClient* fresh = cluster_->AddClient("fresh-client", config_, copts);
  Result<std::string> r = cluster_->RunTask(fresh->ReadOnce());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "new");
  EXPECT_EQ(fresh->stats().fastpath_hits, 0u);
  EXPECT_GE(fresh->stats().fastpath_misses, 1u);
}

TEST_F(SuiteClientTest, FastPathFallsBackWhenCheapestRepCrashed) {
  SuiteClientOptions copts;
  copts.probe_timeout = Duration::Millis(200);
  Deploy(3, 2, 2, copts);
  cluster_->net().SetSymmetricLink(cluster_->net().FindHost("client")->id(),
                                   cluster_->net().FindHost("rep-0")->id(),
                                   LatencyModel::Fixed(Duration::Millis(1)));
  Rep(0)->Crash();
  // The piggyback target never answers; the widened quorum still proves the
  // current version and the read is served via the explicit fetch.
  Result<std::string> r = cluster_->RunTask(client_->ReadOnce());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "v1-contents");
  EXPECT_EQ(client_->stats().fastpath_hits, 0u);
  EXPECT_GE(client_->stats().fastpath_misses, 1u);
}

TEST_F(SuiteClientTest, FastPathReadsStayCurrentUnderCrashRestartCycles) {
  SuiteClientOptions copts;
  copts.probe_timeout = Duration::Millis(150);
  Deploy(3, 2, 2, copts);
  // rep-0 flaps for the whole test: probes aimed at it time out mid-read,
  // and its copy goes stale across every write it misses.
  Nemesis nemesis(cluster_.get(), CrashRestartSchedule({"rep-0"},
                                                       {/*mttf=*/Duration::Millis(400),
                                                        /*mttr=*/Duration::Millis(400)},
                                                       Duration::Seconds(60), /*seed=*/7));
  nemesis.Deploy();
  for (int i = 0; i < 10; ++i) {
    const std::string v = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_->RunTask(client_->WriteOnce(v, /*retries=*/20)).ok()) << v;
    Result<std::string> r = cluster_->RunTask(client_->ReadOnce(/*retries=*/20));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Strict-quorum rule: never a stale value, fast path or not.
    EXPECT_EQ(r.value(), v);
  }
}

TEST_F(SuiteClientTest, FastPathHitRateHighOnStableReadHeavyWorkload) {
  Deploy(5, 2, 4);
  ASSERT_TRUE(cluster_->RunTask(client_->WriteOnce("steady")).ok());
  const int kReads = 100;
  for (int i = 0; i < kReads; ++i) {
    Result<std::string> r = cluster_->RunTask(client_->ReadOnce());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), "steady");
  }
  const SuiteClientStats& stats = client_->stats();
  EXPECT_GT(stats.fastpath_hits * 10, static_cast<uint64_t>(kReads) * 9)
      << "hit rate <= 90%: " << stats.fastpath_hits << "/" << kReads;
  // The counters are exported through the cluster-wide registry.
  MetricsSnapshot snap = cluster_->metrics().Snapshot();
  EXPECT_EQ(snap.SumCounters("core.suite_client.fastpath_hits"), stats.fastpath_hits);
  EXPECT_EQ(snap.SumCounters("core.suite_client.fastpath_misses"), stats.fastpath_misses);
}

TEST_F(SuiteClientTest, FetchDataPicksCheapestCurrentRepresentative) {
  // Regression for the stable min-scan in FetchData: with the fast path off,
  // the explicit fetch must go to the cheapest current member, not merely
  // the first or last reply.
  SuiteClientOptions copts;
  copts.fastpath_reads = false;
  copts.strategy = QuorumStrategy::kBroadcast;  // probe everyone
  Deploy(3, 2, 2, copts);
  const HostId client_host = cluster_->net().FindHost("client")->id();
  cluster_->net().SetSymmetricLink(client_host, cluster_->net().FindHost("rep-0")->id(),
                                   LatencyModel::Fixed(Duration::Millis(9)));
  cluster_->net().SetSymmetricLink(client_host, cluster_->net().FindHost("rep-1")->id(),
                                   LatencyModel::Fixed(Duration::Millis(2)));
  cluster_->net().SetSymmetricLink(client_host, cluster_->net().FindHost("rep-2")->id(),
                                   LatencyModel::Fixed(Duration::Millis(6)));
  ASSERT_TRUE(cluster_->RunTask(client_->ReadOnce()).ok());
  EXPECT_EQ(cluster_->representative("rep-0")->stats().data_reads, 0u);
  EXPECT_EQ(cluster_->representative("rep-1")->stats().data_reads, 1u);
  EXPECT_EQ(cluster_->representative("rep-2")->stats().data_reads, 0u);
}

TEST_F(SuiteClientTest, CommitSerializesPayloadOncePerCommit) {
  // The commit fan-out sends the versioned value to every write-quorum
  // member (4 hosts here), but the client serializes it exactly once and
  // shares the payload across the per-host intents.
  Deploy(5, 2, 4);
  const std::string contents = "shared payload contents";
  ASSERT_TRUE(cluster_->RunTask(client_->WriteOnce(contents)).ok());
  const uint64_t one_serialization = VersionedValue{2, contents}.Serialize().size();
  EXPECT_EQ(client_->stats().commit_bytes_serialized, one_serialization)
      << "payload serialized more than once for a 4-member write quorum";

  // A second commit adds exactly one more serialization.
  ASSERT_TRUE(cluster_->RunTask(client_->WriteOnce(contents)).ok());
  const uint64_t second_serialization = VersionedValue{3, contents}.Serialize().size();
  EXPECT_EQ(client_->stats().commit_bytes_serialized,
            one_serialization + second_serialization);

  // And the counter is exported through the cluster-wide registry.
  MetricsSnapshot snap = cluster_->metrics().Snapshot();
  EXPECT_EQ(snap.SumCounters("core.suite_client.commit_bytes_serialized"),
            client_->stats().commit_bytes_serialized);
}

TEST_F(SuiteClientTest, ConflictRetriesAreCountedAndBackedOff) {
  Deploy(3, 2, 2);
  SuiteClient* other = cluster_->AddClient("other-client", config_);
  auto st1 = std::make_shared<std::optional<Status>>();
  auto st2 = std::make_shared<std::optional<Status>>();
  auto writer = [](SuiteClient* c, std::string v,
                   std::shared_ptr<std::optional<Status>> out) -> Task<void> {
    *out = co_await c->WriteOnce(std::move(v), /*retries=*/20);
  };
  Spawn(writer(client_, "from-A", st1));
  Spawn(writer(other, "from-B", st2));
  cluster_->sim().Run();
  ASSERT_TRUE(st1->has_value() && st2->has_value());
  EXPECT_TRUE((*st1)->ok());
  EXPECT_TRUE((*st2)->ok());
  // The writers race for the same exclusive locks: wait-die kills the
  // younger one at least once, and the retry goes through the jittered
  // backoff (counted per attempt).
  const uint64_t total_retries = client_->stats().retries + other->stats().retries;
  EXPECT_GE(total_retries, 1u);
  MetricsSnapshot snap = cluster_->metrics().Snapshot();
  EXPECT_EQ(snap.SumCounters("core.suite_client.retries"), total_retries);
}

TEST_F(SuiteClientTest, PlanCacheBuildsOncePerConfiguration) {
  Deploy(3, 2, 2);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster_->RunTask(client_->ReadOnce()).ok());
  }
  // One strategy, one config version: the preference order was computed once.
  EXPECT_EQ(client_->stats().plan_builds, 1u);

  // Reconfiguration bumps the config version and invalidates the cache.
  SuiteConfig next = config_;
  next.representatives[0].votes = 2;
  next.read_quorum = 2;
  next.write_quorum = 4;
  ASSERT_TRUE(cluster_->RunTask(client_->Reconfigure(next)).ok());
  const uint64_t builds_after_reconfigure = client_->stats().plan_builds;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster_->RunTask(client_->ReadOnce()).ok());
  }
  // Exactly one rebuild under the new configuration, reused by all reads.
  EXPECT_EQ(client_->stats().plan_builds, builds_after_reconfigure + 1);
}

TEST_F(SuiteClientTest, GrayToleranceArmsHedgesAndDemotion) {
  for (const bool tolerant : {false, true}) {
    SCOPED_TRACE(tolerant ? "gray_tolerance" : "default");
    SuiteClientOptions copts;
    copts.gray_tolerance = tolerant;
    Deploy(3, 2, 2, copts);
    // Three consecutive failures open rep-0's breaker.
    HealthTracker* health = cluster_->health_of("client");
    for (int i = 0; i < 3; ++i) {
      health->OnRpcOutcome(Rep(0)->id(), Duration::Millis(500), /*ok=*/false);
    }
    ASSERT_EQ(health->breaker(Rep(0)->id()), BreakerState::kOpen);

    ASSERT_TRUE(cluster_->RunTask(client_->ReadOnce()).ok());
    EXPECT_EQ(client_->stats().hedged_probes > 0, tolerant);
    EXPECT_EQ(client_->stats().breaker_demotions > 0, tolerant);
  }
}

// A write whose X locks queue behind a younger reader's S locks waits the
// reader out under wait-die. Gray tolerance must not turn that wait into a
// timeout: its tracker is trained on probe round trips, which say nothing
// about how long a lock is held.
TEST_F(SuiteClientTest, GrayTolerantWriteWaitsOutALockHolder) {
  SuiteClientOptions copts;
  copts.gray_tolerance = true;
  Deploy(3, 2, 3, copts);
  SuiteClient* reader = cluster_->AddClient("reader", config_);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cluster_->RunTask(client_->ReadOnce()).ok());
  }

  SuiteTransaction write = client_->Begin();
  ASSERT_TRUE(write.Write("after-the-reader").ok());
  cluster_->sim().RunFor(Duration::Millis(1));  // the reader begins younger

  auto hold = [](Simulator* sim, SuiteClient* c,
                 std::shared_ptr<std::optional<Status>> out) -> Task<void> {
    SuiteTransaction txn = c->Begin();
    Result<std::string> got = co_await txn.Read();
    if (!got.ok()) {
      *out = got.status();
      co_return;
    }
    co_await sim->Sleep(Duration::Millis(200));  // S locks held throughout
    *out = co_await txn.Commit();
  };
  auto held = std::make_shared<std::optional<Status>>();
  Spawn(hold(&cluster_->sim(), reader, held));
  cluster_->sim().RunFor(Duration::Millis(50));  // the reader holds its locks
  ASSERT_FALSE(held->has_value());

  Status committed = cluster_->RunTask(write.Commit());
  EXPECT_TRUE(committed.ok()) << committed.ToString();
  ASSERT_TRUE(held->has_value());
  EXPECT_TRUE((*held)->ok()) << (*held)->ToString();

  Result<std::string> r = cluster_->RunTask(client_->ReadOnce());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "after-the-reader");
}

}  // namespace
}  // namespace wvote
