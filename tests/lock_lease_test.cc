// Orphan-lock leases: locks abandoned by a vanished client expire lazily
// when the next acquire runs into them; prepared transactions are exempt.

#include <gtest/gtest.h>

#include <optional>

#include "src/txn/participant.h"

namespace wvote {
namespace {

class LockLeaseTest : public ::testing::Test {
 protected:
  LockLeaseTest() : sim_(1), net_(&sim_) {
    host_ = net_.AddHost("server");
    rpc_ = std::make_unique<RpcEndpoint>(&net_, host_);
    store_ = std::make_unique<StableStore>(&sim_, host_,
                                           LatencyModel::Fixed(Duration::Millis(1)),
                                           LatencyModel::Fixed(Duration::Millis(1)));
    ParticipantOptions opts;
    opts.lock_lease = Duration::Seconds(30);
    // These tests fabricate transactions whose coordinator host does not
    // exist; the in-doubt watchdog would otherwise inquire at it.
    opts.indoubt_resolution_timeout = Duration::Zero();
    participant_ = std::make_unique<Participant>(rpc_.get(), store_.get(), opts);
  }

  TxnId MakeTxn(int64_t ts) {
    TxnId txn;
    txn.timestamp_us = ts;
    txn.serial = static_cast<uint64_t>(ts);
    txn.coordinator = 99;
    return txn;
  }

  Status AcquireNow(TxnId txn, const std::string& key, LockMode mode) {
    auto out = std::make_shared<std::optional<Status>>();
    auto runner = [](Participant* p, TxnId txn, std::string key, LockMode mode,
                     std::shared_ptr<std::optional<Status>> out) -> Task<void> {
      *out = co_await p->Lock(txn, std::move(key), mode);
    };
    Spawn(runner(participant_.get(), txn, key, mode, out));
    sim_.RunFor(Duration::Millis(50));
    return out->has_value() ? **out : InternalError("pending");
  }

  Simulator sim_;
  Network net_;
  Host* host_;
  std::unique_ptr<RpcEndpoint> rpc_;
  std::unique_ptr<StableStore> store_;
  std::unique_ptr<Participant> participant_;
};

TEST_F(LockLeaseTest, OrphanedLockExpiresOnNextAcquire) {
  // An old transaction grabs X and vanishes.
  ASSERT_TRUE(AcquireNow(MakeTxn(100), "k", LockMode::kExclusive).ok());

  // Within the lease: a younger contender still dies on the conflict.
  sim_.RunFor(Duration::Seconds(10));
  EXPECT_EQ(AcquireNow(MakeTxn(200), "k", LockMode::kExclusive).code(),
            StatusCode::kConflict);

  // Past the lease: the orphan is swept and the new acquire succeeds.
  sim_.RunFor(Duration::Seconds(25));
  EXPECT_TRUE(AcquireNow(MakeTxn(300), "k", LockMode::kExclusive).ok());
  EXPECT_EQ(participant_->locks().stats().leases_expired, 1u);
  EXPECT_FALSE(
      participant_->locks().Holds(MakeTxn(100), Participant::DataKey("k"), LockMode::kShared));
}

TEST_F(LockLeaseTest, ActiveRecentLockIsNotExpired) {
  ASSERT_TRUE(AcquireNow(MakeTxn(100), "k", LockMode::kExclusive).ok());
  sim_.RunFor(Duration::Seconds(5));
  EXPECT_EQ(AcquireNow(MakeTxn(200), "k", LockMode::kExclusive).code(),
            StatusCode::kConflict);
  EXPECT_EQ(participant_->locks().stats().leases_expired, 0u);
}

TEST_F(LockLeaseTest, PreparedTransactionLocksAreExempt) {
  TxnId txn = MakeTxn(100);
  ASSERT_TRUE(AcquireNow(txn, "k", LockMode::kExclusive).ok());
  auto preparer = [](Participant* p, TxnId txn) -> Task<void> {
    WriteIntents writes;
    writes.push_back(WriteIntent("k", "prepared value"));
    EXPECT_TRUE((co_await p->Prepare(txn, std::move(writes))).ok());
  };
  Spawn(preparer(participant_.get(), txn));
  sim_.RunFor(Duration::Seconds(1));

  // Far beyond the lease, the prepared transaction's lock still holds: the
  // contender conflicts instead of sweeping it.
  sim_.RunFor(Duration::Seconds(120));
  EXPECT_EQ(AcquireNow(MakeTxn(99999999), "k", LockMode::kExclusive).code(),
            StatusCode::kConflict);
  EXPECT_EQ(participant_->locks().stats().leases_expired, 0u);
}

TEST_F(LockLeaseTest, ExemptionEndsWithCommit) {
  TxnId txn = MakeTxn(100);
  ASSERT_TRUE(AcquireNow(txn, "k", LockMode::kExclusive).ok());
  auto prepare_and_commit = [](Participant* p, TxnId txn) -> Task<void> {
    WriteIntents writes;
    writes.push_back(WriteIntent("k", "v"));
    EXPECT_TRUE((co_await p->Prepare(txn, std::move(writes))).ok());
    EXPECT_TRUE((co_await p->Commit(txn)).ok());
  };
  Spawn(prepare_and_commit(participant_.get(), txn));
  sim_.RunFor(Duration::Seconds(1));
  // Commit released everything; a new acquire succeeds immediately.
  EXPECT_TRUE(AcquireNow(MakeTxn(5000000), "k", LockMode::kExclusive).ok());
}

TEST_F(LockLeaseTest, ZeroLeaseDisablesExpiry) {
  ParticipantOptions opts;
  opts.lock_lease = Duration::Zero();
  Host* host2 = net_.AddHost("server-2");
  RpcEndpoint rpc2(&net_, host2);
  StableStore store2(&sim_, host2, LatencyModel::Fixed(Duration::Millis(1)),
                     LatencyModel::Fixed(Duration::Millis(1)));
  Participant p2(&rpc2, &store2, opts);

  auto lock = [](Participant* p, TxnId txn, std::shared_ptr<std::optional<Status>> out)
      -> Task<void> { *out = co_await p->Lock(txn, "k", LockMode::kExclusive); };
  auto first = std::make_shared<std::optional<Status>>();
  Spawn(lock(&p2, MakeTxn(100), first));
  sim_.RunFor(Duration::Millis(50));
  ASSERT_TRUE(first->has_value() && (*first)->ok());

  sim_.RunFor(Duration::Seconds(600));
  auto second = std::make_shared<std::optional<Status>>();
  Spawn(lock(&p2, MakeTxn(99999999999), second));
  sim_.RunFor(Duration::Millis(50));
  ASSERT_TRUE(second->has_value());
  EXPECT_EQ((*second)->code(), StatusCode::kConflict);  // never swept
}

}  // namespace
}  // namespace wvote
