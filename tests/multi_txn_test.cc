// Cross-suite transactions: one transaction reading and writing several
// independently configured file suites, committed atomically.

#include "src/core/multi_txn.h"

#include <gtest/gtest.h>

#include "src/core/cluster.h"

namespace wvote {
namespace {

class MultiTxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>();
    for (int i = 0; i < 4; ++i) {
      cluster_->AddRepresentative("rep-" + std::to_string(i));
    }
    // Two suites with different membership and quorums.
    accounts_ = SuiteConfig::MakeUniform("accounts", {"rep-0", "rep-1", "rep-2"}, 2, 2);
    audit_ = SuiteConfig::MakeUniform("audit", {"rep-1", "rep-2", "rep-3"}, 1, 3);
    ASSERT_TRUE(cluster_->CreateSuite(accounts_, "balance=100").ok());
    ASSERT_TRUE(cluster_->CreateSuite(audit_, "log:").ok());
    accounts_client_ = cluster_->AddClient("bank", accounts_);
    audit_client_ = cluster_->AddClient("bank", audit_);
  }

  Coordinator* coordinator() { return cluster_->coordinator_of("bank"); }

  std::unique_ptr<Cluster> cluster_;
  SuiteConfig accounts_;
  SuiteConfig audit_;
  SuiteClient* accounts_client_ = nullptr;
  SuiteClient* audit_client_ = nullptr;
};

TEST_F(MultiTxnTest, AtomicWriteAcrossTwoSuites) {
  MultiSuiteTransaction txn(coordinator());
  Result<std::string> balance = cluster_->RunTask(txn.Read(accounts_client_));
  ASSERT_TRUE(balance.ok());
  Result<std::string> log = cluster_->RunTask(txn.Read(audit_client_));
  ASSERT_TRUE(log.ok());

  ASSERT_TRUE(txn.Write(accounts_client_, "balance=50").ok());
  ASSERT_TRUE(txn.Write(audit_client_, log.value() + " withdraw 50;").ok());
  Status st = cluster_->RunTask(txn.Commit());
  ASSERT_TRUE(st.ok()) << st.ToString();

  EXPECT_EQ(cluster_->RunTask(accounts_client_->ReadOnce()).value(), "balance=50");
  EXPECT_EQ(cluster_->RunTask(audit_client_->ReadOnce()).value(), "log: withdraw 50;");
}

TEST_F(MultiTxnTest, ReadYourWritesPerSuite) {
  MultiSuiteTransaction txn(coordinator());
  ASSERT_TRUE(txn.Write(accounts_client_, "balance=0").ok());
  Result<std::string> r = cluster_->RunTask(txn.Read(accounts_client_));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "balance=0");
  // Other suite is unaffected by the buffered write.
  Result<std::string> log = cluster_->RunTask(txn.Read(audit_client_));
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log.value(), "log:");
  ASSERT_TRUE(cluster_->RunTask(txn.Commit()).ok());
}

TEST_F(MultiTxnTest, AbortLeavesBothSuitesUntouched) {
  MultiSuiteTransaction txn(coordinator());
  ASSERT_TRUE(txn.Write(accounts_client_, "balance=999999").ok());
  ASSERT_TRUE(txn.Write(audit_client_, "log: fraudulent entry").ok());
  Spawn(txn.Abort());
  cluster_->sim().Run();
  EXPECT_TRUE(txn.finished());

  EXPECT_EQ(cluster_->RunTask(accounts_client_->ReadOnce()).value(), "balance=100");
  EXPECT_EQ(cluster_->RunTask(audit_client_->ReadOnce()).value(), "log:");
}

TEST_F(MultiTxnTest, AbandonedTransactionReleasesLocksViaDestructor) {
  {
    MultiSuiteTransaction txn(coordinator());
    ASSERT_TRUE(cluster_->RunTask(txn.Read(accounts_client_)).ok());
    ASSERT_TRUE(cluster_->RunTask(txn.Read(audit_client_)).ok());
    // Dropped without Commit/Abort.
  }
  cluster_->sim().RunFor(Duration::Seconds(2));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster_->representative("rep-" + std::to_string(i))
                  ->participant()
                  .locks()
                  .num_locked_keys(),
              0u)
        << "rep-" << i;
  }
  EXPECT_EQ(accounts_client_->stats().aborts, 1u);
  EXPECT_EQ(audit_client_->stats().aborts, 1u);
}

TEST_F(MultiTxnTest, FailedSuiteQuorumAbortsWholeTransaction) {
  // audit (w=3) loses a member: the cross-suite commit must fail and leave
  // accounts untouched too.
  SuiteClientOptions fast;
  fast.probe_timeout = Duration::Millis(200);
  SuiteClient* accounts_fast = cluster_->AddClient("bank", accounts_, fast);
  SuiteClient* audit_fast = cluster_->AddClient("bank", audit_, fast);
  cluster_->net().FindHost("rep-3")->Crash();

  MultiSuiteTransaction txn(coordinator());
  ASSERT_TRUE(txn.Write(accounts_fast, "balance=1").ok());
  ASSERT_TRUE(txn.Write(audit_fast, "log: should not appear").ok());
  Status st = cluster_->RunTask(txn.Commit());
  EXPECT_FALSE(st.ok());

  cluster_->net().FindHost("rep-3")->Restart();
  EXPECT_EQ(cluster_->RunTask(accounts_client_->ReadOnce()).value(), "balance=100");
  EXPECT_EQ(cluster_->RunTask(audit_client_->ReadOnce()).value(), "log:");
}

TEST_F(MultiTxnTest, SharedHostGetsIntentsForBothSuites) {
  // rep-1 and rep-2 belong to both suites: a commit writing both suites
  // sends a shared host a single prepare with both intents appended.
  MultiSuiteTransaction txn(coordinator());
  ASSERT_TRUE(txn.Write(accounts_client_, "balance=7").ok());
  ASSERT_TRUE(txn.Write(audit_client_, "log: seven").ok());
  ASSERT_TRUE(cluster_->RunTask(txn.Commit()).ok());
  // Drain the asynchronous phase-2 fan-out before inspecting replica state.
  cluster_->sim().RunFor(Duration::Seconds(1));

  // audit's w=3 writes both shared hosts; accounts' w=2 of three writes at
  // least one of them, which must then hold both new values.
  int hold_both = 0;
  for (const char* host : {"rep-1", "rep-2"}) {
    Result<VersionedValue> aud = cluster_->representative(host)->CurrentValue("audit");
    ASSERT_TRUE(aud.ok()) << host;
    EXPECT_EQ(aud.value().contents, "log: seven") << host;
    Result<VersionedValue> acc = cluster_->representative(host)->CurrentValue("accounts");
    if (acc.ok() && acc.value().version == 2) {
      EXPECT_EQ(acc.value().contents, "balance=7") << host;
      ++hold_both;
    }
  }
  EXPECT_GE(hold_both, 1);
}

TEST_F(MultiTxnTest, StaleClientFollowsNewConfigAtCommit) {
  // Another host moves accounts to four members with w=3; the bank's
  // accounts client still holds config v1. Its write-only commit meets the
  // newer prefix, adopts it and commits under it, like a single-suite write.
  SuiteClient* admin = cluster_->AddClient("admin", accounts_);
  SuiteConfig next =
      SuiteConfig::MakeUniform("accounts", {"rep-0", "rep-1", "rep-2", "rep-3"}, 2, 3);
  ASSERT_TRUE(cluster_->RunTask(admin->Reconfigure(next)).ok());
  ASSERT_EQ(accounts_client_->config().config_version, 1u);

  MultiSuiteTransaction txn(coordinator());
  ASSERT_TRUE(txn.Write(accounts_client_, "balance=60").ok());
  ASSERT_TRUE(txn.Write(audit_client_, "log: moved").ok());
  Status st = cluster_->RunTask(txn.Commit());
  ASSERT_TRUE(st.ok()) << st.ToString();

  EXPECT_EQ(accounts_client_->config().config_version, 2u);
  EXPECT_EQ(accounts_client_->config().write_quorum, 3);
  EXPECT_EQ(cluster_->RunTask(admin->ReadOnce()).value(), "balance=60");
  EXPECT_EQ(cluster_->RunTask(audit_client_->ReadOnce()).value(), "log: moved");
}

TEST_F(MultiTxnTest, CommitCountsOnEveryWrittenSuite) {
  MultiSuiteTransaction txn(coordinator());
  ASSERT_TRUE(txn.Write(accounts_client_, "balance=5").ok());
  ASSERT_TRUE(txn.Write(audit_client_, "log: five").ok());
  ASSERT_TRUE(cluster_->RunTask(txn.Commit()).ok());

  for (SuiteClient* client : {accounts_client_, audit_client_}) {
    EXPECT_EQ(client->stats().writes, 1u) << client->config().suite_name;
    EXPECT_EQ(client->stats().commits, 1u) << client->config().suite_name;
    EXPECT_EQ(client->stats().aborts, 0u) << client->config().suite_name;
    EXPECT_GT(client->stats().commit_bytes_serialized, 0u) << client->config().suite_name;
  }
  const MetricsSnapshot snap = cluster_->metrics().Snapshot();
  EXPECT_EQ(snap.counter("core.suite_client.commits{host=bank,suite=accounts}"), 1u);
  EXPECT_EQ(snap.counter("core.suite_client.commits{host=bank,suite=audit}"), 1u);
}

TEST_F(MultiTxnTest, OperationsAfterCommitFail) {
  MultiSuiteTransaction txn(coordinator());
  ASSERT_TRUE(cluster_->RunTask(txn.Commit()).ok());
  EXPECT_EQ(txn.Write(accounts_client_, "x").code(), StatusCode::kFailedPrecondition);
  Result<std::string> r = cluster_->RunTask(txn.Read(accounts_client_));
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(MultiTxnTest, ConcurrentMultiTxnsSerialize) {
  SuiteClient* accounts2 = cluster_->AddClient("bank2", accounts_);
  SuiteClient* audit2 = cluster_->AddClient("bank2", audit_);
  Coordinator* coord2 = cluster_->coordinator_of("bank2");

  auto transfer = [](Simulator* sim, Coordinator* coord, SuiteClient* accounts,
                     SuiteClient* audit, std::string tag,
                     std::shared_ptr<int> commits) -> Task<void> {
    for (int attempt = 0; attempt < 20; ++attempt) {
      MultiSuiteTransaction txn(coord);
      Result<std::string> log = co_await txn.Read(audit);
      if (log.ok() && txn.Write(accounts, "balance by " + tag).ok() &&
          txn.Write(audit, log.value() + " " + tag + ";").ok()) {
        Status st = co_await txn.Commit();
        if (st.ok()) {
          ++*commits;
          co_return;
        }
      } else {
        co_await txn.Abort();
      }
      co_await sim->Sleep(Duration::Millis(sim->rng().NextInRange(5, 50)));
    }
  };
  auto commits = std::make_shared<int>(0);
  std::function<Task<void>(Simulator*, Coordinator*, SuiteClient*, SuiteClient*, std::string,
                           std::shared_ptr<int>)>
      transfer_fn = transfer;
  Spawn(transfer_fn(&cluster_->sim(), coordinator(), accounts_client_, audit_client_, "A",
                    commits));
  Spawn(transfer_fn(&cluster_->sim(), coord2, accounts2, audit2, "B", commits));
  cluster_->sim().Run();
  EXPECT_EQ(*commits, 2);

  // The audit log reflects both committed transfers, in some serial order.
  Result<std::string> log = cluster_->RunTask(audit_client_->ReadOnce());
  ASSERT_TRUE(log.ok());
  EXPECT_NE(log.value().find("A;"), std::string::npos);
  EXPECT_NE(log.value().find("B;"), std::string::npos);
}

}  // namespace
}  // namespace wvote
