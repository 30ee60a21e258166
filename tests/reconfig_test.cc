// Dynamic reconfiguration: the prefix as replicated data.

#include <gtest/gtest.h>

#include "src/core/cluster.h"

namespace wvote {
namespace {

class ReconfigTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>();
    for (int i = 0; i < 5; ++i) {
      cluster_->AddRepresentative("rep-" + std::to_string(i));
    }
    config_ = SuiteConfig::MakeUniform("f", {"rep-0", "rep-1", "rep-2"}, 2, 2);
    ASSERT_TRUE(cluster_->CreateSuite(config_, "original").ok());
    admin_ = cluster_->AddClient("admin", config_);
  }

  std::unique_ptr<Cluster> cluster_;
  SuiteConfig config_;
  SuiteClient* admin_ = nullptr;
};

TEST_F(ReconfigTest, QuorumChangeTakesEffect) {
  SuiteConfig next = SuiteConfig::MakeUniform("f", {"rep-0", "rep-1", "rep-2"}, 1, 3);
  ASSERT_TRUE(cluster_->RunTask(admin_->Reconfigure(next)).ok());
  EXPECT_EQ(admin_->config().read_quorum, 1);
  EXPECT_EQ(admin_->config().write_quorum, 3);
  EXPECT_EQ(admin_->config().config_version, 2u);
  // Still operable under the new rules.
  EXPECT_TRUE(cluster_->RunTask(admin_->WriteOnce("post-reconfig")).ok());
  EXPECT_EQ(cluster_->RunTask(admin_->ReadOnce()).value(), "post-reconfig");
}

TEST_F(ReconfigTest, InvalidNewConfigRejectedLocally) {
  SuiteConfig bad = SuiteConfig::MakeUniform("f", {"rep-0", "rep-1", "rep-2"}, 1, 1);
  Status st = cluster_->RunTask(admin_->Reconfigure(bad));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(admin_->config().config_version, 1u);
}

TEST_F(ReconfigTest, NameChangeRejected) {
  SuiteConfig bad = SuiteConfig::MakeUniform("other", {"rep-0", "rep-1", "rep-2"}, 2, 2);
  EXPECT_EQ(cluster_->RunTask(admin_->Reconfigure(bad)).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ReconfigTest, ExpansionCopiesDataToNewMembers) {
  ASSERT_TRUE(cluster_->RunTask(admin_->WriteOnce("precious")).ok());
  SuiteConfig next = SuiteConfig::MakeUniform(
      "f", {"rep-0", "rep-1", "rep-2", "rep-3", "rep-4"}, 3, 3);
  ASSERT_TRUE(cluster_->RunTask(admin_->Reconfigure(next)).ok());
  // Phase 2 of the reconfiguration commit is asynchronous; drain it so the
  // new members have installed their copies before inspection.
  cluster_->sim().RunFor(Duration::Seconds(1));

  for (int i = 3; i < 5; ++i) {
    Result<VersionedValue> v =
        cluster_->representative("rep-" + std::to_string(i))->CurrentValue("f");
    ASSERT_TRUE(v.ok()) << "rep-" << i;
    EXPECT_EQ(v.value().contents, "precious");
    Result<SuiteConfig> p =
        cluster_->representative("rep-" + std::to_string(i))->CurrentPrefix("f");
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p.value().config_version, 2u);
  }
}

TEST_F(ReconfigTest, NewMembersCarryTheSuiteAfterOldOnesDie) {
  SuiteConfig next = SuiteConfig::MakeUniform(
      "f", {"rep-0", "rep-1", "rep-2", "rep-3", "rep-4"}, 3, 3);
  ASSERT_TRUE(cluster_->RunTask(admin_->Reconfigure(next)).ok());
  cluster_->net().FindHost("rep-0")->Crash();
  cluster_->net().FindHost("rep-1")->Crash();
  SuiteClientOptions fast;
  fast.probe_timeout = Duration::Millis(200);
  SuiteClient* reader = cluster_->AddClient("reader", admin_->config(), fast);
  Result<std::string> r = cluster_->RunTask(reader->ReadOnce());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), "original");
}

TEST_F(ReconfigTest, StaleClientAdoptsNewPrefixOnNextOperation) {
  SuiteClient* user = cluster_->AddClient("user", config_);  // old prefix
  SuiteConfig next = SuiteConfig::MakeUniform("f", {"rep-0", "rep-1", "rep-2"}, 3, 3);
  ASSERT_TRUE(cluster_->RunTask(admin_->Reconfigure(next)).ok());

  Result<std::string> r = cluster_->RunTask(user->ReadOnce());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(user->config().config_version, 2u);
  EXPECT_EQ(user->config().read_quorum, 3);
  EXPECT_GE(user->stats().config_refreshes, 1u);
}

TEST_F(ReconfigTest, VoteReweightingChangesQuorumBehavior) {
  SuiteConfig next;
  next.suite_name = "f";
  next.AddRepresentative("rep-0", 3);
  next.AddRepresentative("rep-1", 1);
  next.AddRepresentative("rep-2", 1);
  next.read_quorum = 3;
  next.write_quorum = 3;
  ASSERT_TRUE(cluster_->RunTask(admin_->Reconfigure(next)).ok());

  // rep-0 alone now forms both quorums: the suite survives rep-1 and rep-2
  // being down (impossible under the old 1-1-1, r=w=2 assignment).
  cluster_->net().FindHost("rep-1")->Crash();
  cluster_->net().FindHost("rep-2")->Crash();
  SuiteClientOptions fast;
  fast.probe_timeout = Duration::Millis(200);
  SuiteClient* writer = cluster_->AddClient("writer", admin_->config(), fast);
  EXPECT_TRUE(cluster_->RunTask(writer->WriteOnce("solo quorum")).ok());
}

TEST_F(ReconfigTest, ShrinkingRemovesMembersFromService) {
  SuiteConfig next = SuiteConfig::MakeUniform("f", {"rep-0", "rep-1"}, 1, 2);
  ASSERT_TRUE(cluster_->RunTask(admin_->Reconfigure(next)).ok());
  EXPECT_EQ(admin_->config().representatives.size(), 2u);

  // Per the paper's rule, the new prefix only has to reach a write quorum of
  // the OLD configuration; a removed member outside that quorum may keep its
  // old prefix. Correctness holds regardless: any old-rules gather
  // intersects the old write quorum, sees the newer config_version, and the
  // client refreshes — as this stale-prefix client demonstrates.
  SuiteClient* old_prefix_client = cluster_->AddClient("late-user", config_);
  ASSERT_TRUE(cluster_->RunTask(old_prefix_client->WriteOnce("post-shrink")).ok());
  EXPECT_EQ(old_prefix_client->config().config_version, 2u);
  EXPECT_EQ(old_prefix_client->config().representatives.size(), 2u);

  // The shrunken suite no longer depends on rep-2 at all.
  cluster_->net().FindHost("rep-2")->Crash();
  EXPECT_EQ(cluster_->RunTask(admin_->ReadOnce()).value(), "post-shrink");
}

TEST_F(ReconfigTest, SequentialReconfigurationsIncrementVersion) {
  for (int i = 0; i < 4; ++i) {
    SuiteConfig next = SuiteConfig::MakeUniform("f", {"rep-0", "rep-1", "rep-2"},
                                                (i % 2) ? 1 : 2, (i % 2) ? 3 : 2);
    ASSERT_TRUE(cluster_->RunTask(admin_->Reconfigure(next)).ok()) << "step " << i;
  }
  EXPECT_EQ(admin_->config().config_version, 5u);
}

TEST_F(ReconfigTest, ReconfigureUnderConcurrentLoadSucceeds) {
  SuiteClient* worker = cluster_->AddClient("worker", config_);
  auto done = std::make_shared<bool>(false);
  auto load = [](Simulator* sim, SuiteClient* client, std::shared_ptr<bool> done) -> Task<void> {
    for (int i = 0; i < 30 && !*done; ++i) {
      (void)co_await client->WriteOnce("load-" + std::to_string(i), /*retries=*/30);
      co_await sim->Sleep(Duration::Millis(20));
    }
  };
  Spawn(load(&cluster_->sim(), worker, done));
  cluster_->sim().RunFor(Duration::Millis(100));

  SuiteConfig next = SuiteConfig::MakeUniform("f", {"rep-0", "rep-1", "rep-2"}, 3, 3);
  Status st = cluster_->RunTask(admin_->Reconfigure(next));
  *done = true;
  EXPECT_TRUE(st.ok()) << st.ToString();
  cluster_->sim().Run();
  EXPECT_EQ(admin_->config().config_version, 2u);
}

}  // namespace
}  // namespace wvote
