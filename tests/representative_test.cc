// RepresentativeServer: bootstrap, version polls under locks, data reads,
// conditional refresh installs, prefix reads, stale reads.

#include "src/core/representative.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

namespace wvote {
namespace {

class RepresentativeTest : public ::testing::Test {
 protected:
  RepresentativeTest() : sim_(1), net_(&sim_) {
    net_.SetDefaultLink(LatencyModel::Fixed(Duration::Millis(5)));
    server_ = std::make_unique<RepresentativeServer>(&net_, net_.AddHost("rep"));
    client_host_ = net_.AddHost("client");
    client_ = std::make_unique<RpcEndpoint>(&net_, client_host_);

    config_ = SuiteConfig::MakeUniform("file", {"rep"}, 1, 1);
    auto boot = [](RepresentativeServer* s, SuiteConfig cfg) -> Task<void> {
      EXPECT_TRUE((co_await s->BootstrapSuite(cfg, VersionedValue{1, "genesis"})).ok());
    };
    Spawn(boot(server_.get(), config_));
    sim_.Run();
  }

  TxnId MakeTxn(int64_t ts) {
    TxnId txn;
    txn.timestamp_us = ts;
    txn.serial = static_cast<uint64_t>(ts);
    txn.coordinator = client_host_->id();
    return txn;
  }

  template <typename Req, typename Resp>
  Result<Resp> Call(Req req) {
    auto out = std::make_shared<std::optional<Result<Resp>>>();
    auto runner = [](RpcEndpoint* rpc, HostId to, Req req,
                     std::shared_ptr<std::optional<Result<Resp>>> out) -> Task<void> {
      out->emplace(co_await rpc->Call<Req, Resp>(to, std::move(req), Duration::Seconds(5)));
    };
    Spawn(runner(client_.get(), server_->host()->id(), std::move(req), out));
    sim_.RunFor(Duration::Seconds(10));
    return out->has_value() ? **out : Result<Resp>(InternalError("pending"));
  }

  Simulator sim_;
  Network net_;
  std::unique_ptr<RepresentativeServer> server_;
  Host* client_host_;
  std::unique_ptr<RpcEndpoint> client_;
  SuiteConfig config_;
};

TEST_F(RepresentativeTest, BootstrapInstallsPrefixAndValue) {
  Result<VersionedValue> value = server_->CurrentValue("file");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value().version, 1u);
  EXPECT_EQ(value.value().contents, "genesis");

  Result<SuiteConfig> prefix = server_->CurrentPrefix("file");
  ASSERT_TRUE(prefix.ok());
  EXPECT_EQ(prefix.value().suite_name, "file");
}

TEST_F(RepresentativeTest, BootstrapRejectsInvalidConfig) {
  SuiteConfig bad = config_;
  bad.write_quorum = 0;
  auto boot = [](RepresentativeServer* s, SuiteConfig cfg) -> Task<void> {
    EXPECT_EQ((co_await s->BootstrapSuite(cfg, VersionedValue{1, "x"})).code(),
              StatusCode::kInvalidArgument);
  };
  Spawn(boot(server_.get(), bad));
  sim_.Run();
}

TEST_F(RepresentativeTest, SharedVersionPollTakesSharedLock) {
  TxnId txn = MakeTxn(100);
  Result<VersionResp> resp =
      Call<TxnVersionReq, VersionResp>(TxnVersionReq(txn, "file", LockMode::kShared));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().version, 1u);
  EXPECT_EQ(resp.value().config_version, 1u);
  EXPECT_EQ(resp.value().votes, 1);
  EXPECT_TRUE(server_->participant().locks().Holds(
      txn, Participant::DataKey(SuiteValueKey("file")), LockMode::kShared));
}

TEST_F(RepresentativeTest, ExclusiveVersionPollTakesExclusiveLock) {
  TxnId txn = MakeTxn(100);
  Result<VersionResp> resp =
      Call<TxnVersionReq, VersionResp>(TxnVersionReq(txn, "file", LockMode::kExclusive));
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(server_->participant().locks().Holds(
      txn, Participant::DataKey(SuiteValueKey("file")), LockMode::kExclusive));
}

TEST_F(RepresentativeTest, OnlySharedVersionPollPiggybacksData) {
  const TxnId writer = MakeTxn(100);
  Result<VersionResp> exclusive = Call<TxnVersionReq, VersionResp>(
      TxnVersionReq(writer, "file", LockMode::kExclusive, /*w=*/true));
  ASSERT_TRUE(exclusive.ok());
  EXPECT_FALSE(exclusive.value().has_data);
  ASSERT_TRUE((Call<AbortReq, Ack>(AbortReq(writer))).ok());

  Result<VersionResp> shared = Call<TxnVersionReq, VersionResp>(
      TxnVersionReq(MakeTxn(200), "file", LockMode::kShared, /*w=*/true));
  ASSERT_TRUE(shared.ok());
  EXPECT_TRUE(shared.value().has_data);
  EXPECT_EQ(shared.value().contents, "genesis");
  EXPECT_EQ(server_->stats().piggyback_serves, 1u);
}

TEST_F(RepresentativeTest, UnknownSuitePollsAsVersionZero) {
  Result<VersionResp> resp =
      Call<VersionInquiryReq, VersionResp>(VersionInquiryReq("no-such-suite"));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().version, 0u);
  EXPECT_EQ(resp.value().votes, 0);
}

TEST_F(RepresentativeTest, TxnReadReturnsVersionedContents) {
  TxnId txn = MakeTxn(100);
  Result<SuiteReadResp> resp = Call<TxnReadSuiteReq, SuiteReadResp>(TxnReadSuiteReq(txn, "file"));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().version, 1u);
  EXPECT_EQ(resp.value().contents, "genesis");
}

TEST_F(RepresentativeTest, StaleReadNeedsNoLock) {
  Result<SuiteReadResp> resp = Call<StaleReadReq, SuiteReadResp>(StaleReadReq("file"));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().contents, "genesis");
  EXPECT_EQ(server_->participant().locks().num_locked_keys(), 0u);
}

TEST_F(RepresentativeTest, PrefixReadReturnsSerializedConfig) {
  Result<PrefixReadResp> resp = Call<PrefixReadReq, PrefixReadResp>(PrefixReadReq("file"));
  ASSERT_TRUE(resp.ok());
  Result<SuiteConfig> parsed = SuiteConfig::Parse(resp.value().config_bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().suite_name, "file");
}

TEST_F(RepresentativeTest, RefreshInstallsNewerVersion) {
  Result<RefreshResp> resp =
      Call<RefreshReq, RefreshResp>(RefreshReq("file", 5, "newer contents"));
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp.value().installed);
  EXPECT_EQ(server_->CurrentValue("file").value().version, 5u);
  EXPECT_EQ(server_->CurrentValue("file").value().contents, "newer contents");
  EXPECT_EQ(server_->stats().refreshes_installed, 1u);
}

TEST_F(RepresentativeTest, RefreshSkipsOlderOrEqualVersion) {
  Result<RefreshResp> equal = Call<RefreshReq, RefreshResp>(RefreshReq("file", 1, "same"));
  ASSERT_TRUE(equal.ok());
  EXPECT_FALSE(equal.value().installed);
  EXPECT_EQ(server_->CurrentValue("file").value().contents, "genesis");

  (void)Call<RefreshReq, RefreshResp>(RefreshReq("file", 9, "nine"));
  Result<RefreshResp> older = Call<RefreshReq, RefreshResp>(RefreshReq("file", 3, "three"));
  ASSERT_TRUE(older.ok());
  EXPECT_FALSE(older.value().installed);
  EXPECT_EQ(server_->CurrentValue("file").value().version, 9u);
}

TEST_F(RepresentativeTest, RefreshWaitsOutTransientLockThenInstalls) {
  // A client transaction holds an S lock; the refresh (oldest timestamp)
  // queues behind it and installs after release.
  TxnId txn = MakeTxn(100);
  ASSERT_TRUE(
      (Call<TxnVersionReq, VersionResp>(TxnVersionReq(txn, "file", LockMode::kShared))).ok());

  auto resp = std::make_shared<std::optional<Result<RefreshResp>>>();
  auto runner = [](RpcEndpoint* rpc, HostId to,
                   std::shared_ptr<std::optional<Result<RefreshResp>>> out) -> Task<void> {
    out->emplace(co_await rpc->Call<RefreshReq, RefreshResp>(
        to, RefreshReq("file", 4, "after wait"), Duration::Seconds(30)));
  };
  Spawn(runner(client_.get(), server_->host()->id(), resp));
  sim_.RunFor(Duration::Millis(100));
  EXPECT_FALSE(resp->has_value());  // refresh is waiting on the S lock

  server_->participant().locks().ReleaseAll(txn);
  sim_.RunFor(Duration::Seconds(1));
  ASSERT_TRUE(resp->has_value());
  EXPECT_TRUE((*resp)->value().installed);
  EXPECT_EQ(server_->CurrentValue("file").value().version, 4u);
}

TEST_F(RepresentativeTest, MultipleSuitesCoexist) {
  SuiteConfig other = SuiteConfig::MakeUniform("other", {"rep"}, 1, 1);
  auto boot = [](RepresentativeServer* s, SuiteConfig cfg) -> Task<void> {
    EXPECT_TRUE((co_await s->BootstrapSuite(cfg, VersionedValue{3, "other data"})).ok());
  };
  Spawn(boot(server_.get(), other));
  sim_.Run();
  EXPECT_EQ(server_->CurrentValue("file").value().contents, "genesis");
  EXPECT_EQ(server_->CurrentValue("other").value().contents, "other data");
  EXPECT_EQ(server_->CurrentValue("other").value().version, 3u);
}

}  // namespace
}  // namespace wvote
