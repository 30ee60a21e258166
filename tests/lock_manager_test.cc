// Lock manager: strict 2PL modes, wait-die, upgrades, timeouts, crash clear.

#include "src/txn/lock_manager.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

namespace wvote {
namespace {

TxnId MakeTxn(int64_t ts, uint64_t serial = 0) {
  TxnId txn;
  txn.timestamp_us = ts;
  txn.serial = serial;
  txn.coordinator = 0;
  return txn;
}

class LockManagerTest : public ::testing::Test {
 protected:
  LockManagerTest() : sim_(1), locks_(&sim_) {}

  // Starts an acquire; returns a holder for its eventual status (empty while
  // the acquire is still waiting).
  std::shared_ptr<std::optional<Status>> Acquire(TxnId txn, const std::string& key,
                                                 LockMode mode,
                                                 Duration timeout = Duration::Seconds(10)) {
    auto out = std::make_shared<std::optional<Status>>();
    auto runner = [](LockManager* locks, TxnId txn, std::string key, LockMode mode,
                     Duration timeout,
                     std::shared_ptr<std::optional<Status>> out) -> Task<void> {
      *out = co_await locks->Acquire(txn, std::move(key), mode, timeout);
    };
    Spawn(runner(&locks_, txn, key, mode, timeout, out));
    return out;
  }

  static bool Pending(const std::shared_ptr<std::optional<Status>>& r) {
    return !r->has_value();
  }
  static bool Granted(const std::shared_ptr<std::optional<Status>>& r) {
    return r->has_value() && (*r)->ok();
  }

  Simulator sim_;
  LockManager locks_;
};

TEST_F(LockManagerTest, ExclusiveGrantsImmediately) {
  auto r = Acquire(MakeTxn(1), "k", LockMode::kExclusive);
  sim_.Run();
  EXPECT_TRUE(Granted(r));
  EXPECT_TRUE(locks_.Holds(MakeTxn(1), "k", LockMode::kExclusive));
}

TEST_F(LockManagerTest, SharedLocksCoexist) {
  auto r1 = Acquire(MakeTxn(1), "k", LockMode::kShared);
  auto r2 = Acquire(MakeTxn(2), "k", LockMode::kShared);
  auto r3 = Acquire(MakeTxn(3), "k", LockMode::kShared);
  sim_.Run();
  EXPECT_TRUE(Granted(r1));
  EXPECT_TRUE(Granted(r2));
  EXPECT_TRUE(Granted(r3));
}

TEST_F(LockManagerTest, ReentrantAcquireIsNoOp) {
  auto r1 = Acquire(MakeTxn(1), "k", LockMode::kShared);
  auto r2 = Acquire(MakeTxn(1), "k", LockMode::kShared);
  sim_.Run();
  EXPECT_TRUE(Granted(r1));
  EXPECT_TRUE(Granted(r2));
  EXPECT_EQ(locks_.stats().grants_immediate, 1u);  // second was reentry
}

TEST_F(LockManagerTest, OlderWaitsForYoungerHolder) {
  auto young = Acquire(MakeTxn(200), "k", LockMode::kExclusive);
  sim_.RunFor(Duration::Millis(100));
  ASSERT_TRUE(Granted(young));

  auto old = Acquire(MakeTxn(100), "k", LockMode::kExclusive);
  sim_.RunFor(Duration::Millis(100));
  EXPECT_TRUE(Pending(old));  // waiting, not refused

  locks_.ReleaseAll(MakeTxn(200));
  sim_.RunFor(Duration::Millis(100));
  EXPECT_TRUE(Granted(old));
  EXPECT_EQ(locks_.stats().grants_after_wait, 1u);
}

TEST_F(LockManagerTest, YoungerDiesOnConflict) {
  auto old = Acquire(MakeTxn(100), "k", LockMode::kExclusive);
  sim_.Run();
  ASSERT_TRUE(Granted(old));

  auto young = Acquire(MakeTxn(200), "k", LockMode::kExclusive);
  sim_.Run();
  ASSERT_TRUE(young->has_value());
  EXPECT_EQ((*young)->code(), StatusCode::kConflict);
  EXPECT_EQ(locks_.stats().dies, 1u);
}

// The die texts are written straight into Status's inline buffer. They
// must read exactly like the string concatenations they replaced (chaos
// artifacts pin them), including the truncation at Status::kMaxMessage.
TEST_F(LockManagerTest, DieTextMatchesConcatenationByteForByte) {
  const std::string long_key(120, 'k');
  for (const std::string& key : {std::string("k"), long_key}) {
    auto old = Acquire(MakeTxn(100), key, LockMode::kExclusive);
    auto young = Acquire(MakeTxn(200, 7), key, LockMode::kExclusive);
    sim_.Run();
    ASSERT_TRUE(Granted(old));
    ASSERT_TRUE(young->has_value());
    const Status concatenated = ConflictError("wait-die: " + MakeTxn(200, 7).ToString() +
                                              " younger than a conflicting holder on " + key);
    EXPECT_EQ((*young)->code(), StatusCode::kConflict);
    EXPECT_EQ((*young)->message(), concatenated.message());
    if (key == long_key) {
      EXPECT_EQ((*young)->message().size(), Status::kMaxMessage);
    }
  }

  // On regrant: two older waiters queue behind a holder; the release grants
  // the oldest, and the other is now younger than it and dies.
  auto holder = Acquire(MakeTxn(100), "r", LockMode::kExclusive);
  auto oldest = Acquire(MakeTxn(50), "r", LockMode::kExclusive);
  auto older = Acquire(MakeTxn(70), "r", LockMode::kExclusive);
  sim_.RunFor(Duration::Millis(100));
  ASSERT_TRUE(Granted(holder));
  locks_.ReleaseAll(MakeTxn(100));
  sim_.RunFor(Duration::Millis(100));
  EXPECT_TRUE(Granted(oldest));
  ASSERT_TRUE(older->has_value());
  EXPECT_EQ((*older)->code(), StatusCode::kConflict);
  EXPECT_EQ((*older)->message(),
            ConflictError("wait-die on regrant: " + MakeTxn(70).ToString()).message());
}

TEST_F(LockManagerTest, RequestersWaitOnCourtesyHolderInsteadOfDying) {
  // A courtesy transaction (background refresh) carries the sentinel
  // timestamp: every client is younger, but since a courtesy holder locks a
  // single key and acquires nothing further, waiting on it cannot deadlock —
  // so the wait-die refusal becomes a wait.
  TxnId courtesy = MakeTxn(TxnId::kCourtesyTimestamp, /*serial=*/7);
  ASSERT_TRUE(courtesy.courtesy());
  auto held = Acquire(courtesy, "k", LockMode::kExclusive);
  sim_.RunFor(Duration::Millis(100));
  ASSERT_TRUE(Granted(held));

  auto client = Acquire(MakeTxn(5), "k", LockMode::kExclusive);
  sim_.RunFor(Duration::Millis(100));
  EXPECT_TRUE(Pending(client));  // parked, not killed
  EXPECT_EQ(locks_.stats().dies, 0u);
  EXPECT_EQ(locks_.stats().waits_on_courtesy, 1u);

  locks_.ReleaseAll(courtesy);
  sim_.RunFor(Duration::Millis(100));
  EXPECT_TRUE(Granted(client));
}

TEST_F(LockManagerTest, CourtesyRequesterWaitsBehindClientHolder) {
  // The asymmetry matters: the courtesy txn is the *oldest* under wait-die,
  // so when it is the requester it waits for the client holder (typically
  // the reader that spawned the refresh) rather than preempting it.
  auto client = Acquire(MakeTxn(5), "k", LockMode::kExclusive);
  sim_.RunFor(Duration::Millis(100));
  ASSERT_TRUE(Granted(client));

  auto refresh = Acquire(MakeTxn(TxnId::kCourtesyTimestamp), "k", LockMode::kExclusive);
  sim_.RunFor(Duration::Millis(100));
  EXPECT_TRUE(Pending(refresh));
  EXPECT_EQ(locks_.stats().dies, 0u);

  locks_.ReleaseAll(MakeTxn(5));
  sim_.RunFor(Duration::Millis(100));
  EXPECT_TRUE(Granted(refresh));
}

TEST_F(LockManagerTest, SharedVersusExclusiveConflicts) {
  auto s = Acquire(MakeTxn(100), "k", LockMode::kShared);
  sim_.Run();
  ASSERT_TRUE(Granted(s));
  auto x_young = Acquire(MakeTxn(200), "k", LockMode::kExclusive);
  sim_.Run();
  EXPECT_EQ((*x_young)->code(), StatusCode::kConflict);
}

TEST_F(LockManagerTest, UpgradeWhenSoleHolder) {
  auto s = Acquire(MakeTxn(1), "k", LockMode::kShared);
  sim_.Run();
  ASSERT_TRUE(Granted(s));
  auto x = Acquire(MakeTxn(1), "k", LockMode::kExclusive);
  sim_.Run();
  EXPECT_TRUE(Granted(x));
  EXPECT_TRUE(locks_.Holds(MakeTxn(1), "k", LockMode::kExclusive));
  EXPECT_EQ(locks_.stats().upgrades, 1u);
}

TEST_F(LockManagerTest, UpgradeWaitsForOtherReadersToDrain) {
  auto s_old = Acquire(MakeTxn(100), "k", LockMode::kShared);
  auto s_young = Acquire(MakeTxn(200), "k", LockMode::kShared);
  sim_.RunFor(Duration::Millis(100));
  ASSERT_TRUE(Granted(s_old));
  ASSERT_TRUE(Granted(s_young));

  // The older transaction upgrades; it must wait for the younger reader.
  auto upgrade = Acquire(MakeTxn(100), "k", LockMode::kExclusive);
  sim_.RunFor(Duration::Millis(100));
  EXPECT_TRUE(Pending(upgrade));

  locks_.ReleaseAll(MakeTxn(200));
  sim_.RunFor(Duration::Millis(100));
  EXPECT_TRUE(Granted(upgrade));
  EXPECT_TRUE(locks_.Holds(MakeTxn(100), "k", LockMode::kExclusive));
}

TEST_F(LockManagerTest, WaitTimesOut) {
  auto young = Acquire(MakeTxn(200), "k", LockMode::kExclusive);
  sim_.Run();
  ASSERT_TRUE(Granted(young));
  auto old = Acquire(MakeTxn(100), "k", LockMode::kExclusive, Duration::Millis(50));
  sim_.Run();
  ASSERT_TRUE(old->has_value());
  EXPECT_EQ((*old)->code(), StatusCode::kTimeout);
  EXPECT_EQ(locks_.stats().timeouts, 1u);
}

TEST_F(LockManagerTest, ReleaseWakesFifo) {
  auto holder = Acquire(MakeTxn(300), "k", LockMode::kExclusive);
  sim_.RunFor(Duration::Millis(100));
  auto w1 = Acquire(MakeTxn(100), "k", LockMode::kExclusive);
  auto w2 = Acquire(MakeTxn(200), "k", LockMode::kExclusive);
  sim_.RunFor(Duration::Millis(100));
  EXPECT_TRUE(Pending(w1));
  // w2 (ts=200) is younger than holder (ts=300)? No: 200 < 300, so it waits.
  EXPECT_TRUE(Pending(w2));

  locks_.ReleaseAll(MakeTxn(300));
  sim_.RunFor(Duration::Millis(100));
  EXPECT_TRUE(Granted(w1));  // FIFO: first waiter gets X
  // w2 (ts=200) is now younger than the new holder (ts=100): the regrant
  // wait-die check kills it rather than let it wait on an older holder.
  ASSERT_TRUE(w2->has_value());
  EXPECT_EQ((*w2)->code(), StatusCode::kConflict);
}

TEST_F(LockManagerTest, ReleaseGrantsSharedBatch) {
  auto holder = Acquire(MakeTxn(300), "k", LockMode::kExclusive);
  sim_.RunFor(Duration::Millis(100));
  auto s1 = Acquire(MakeTxn(100), "k", LockMode::kShared);
  auto s2 = Acquire(MakeTxn(200), "k", LockMode::kShared);
  sim_.RunFor(Duration::Millis(100));
  locks_.ReleaseAll(MakeTxn(300));
  sim_.RunFor(Duration::Millis(100));
  EXPECT_TRUE(Granted(s1));
  EXPECT_TRUE(Granted(s2));  // both shared waiters granted together
}

TEST_F(LockManagerTest, ReleaseAllCoversMultipleKeys) {
  auto a = Acquire(MakeTxn(1), "a", LockMode::kExclusive);
  auto b = Acquire(MakeTxn(1), "b", LockMode::kExclusive);
  sim_.Run();
  EXPECT_EQ(locks_.num_locked_keys(), 2u);
  locks_.ReleaseAll(MakeTxn(1));
  EXPECT_EQ(locks_.num_locked_keys(), 0u);
}

TEST_F(LockManagerTest, ReleasingWaiterAbortsItsWait) {
  auto holder = Acquire(MakeTxn(300), "k", LockMode::kExclusive);
  sim_.RunFor(Duration::Millis(100));
  auto waiter = Acquire(MakeTxn(100), "k", LockMode::kExclusive);
  sim_.RunFor(Duration::Millis(100));
  EXPECT_TRUE(Pending(waiter));
  locks_.ReleaseAll(MakeTxn(100));  // the waiting txn itself aborts
  sim_.RunFor(Duration::Millis(100));
  ASSERT_TRUE(waiter->has_value());
  EXPECT_EQ((*waiter)->code(), StatusCode::kAborted);
}

TEST_F(LockManagerTest, ClearAbortsEverything) {
  auto holder = Acquire(MakeTxn(300), "k", LockMode::kExclusive);
  sim_.RunFor(Duration::Millis(100));
  auto waiter = Acquire(MakeTxn(100), "k", LockMode::kExclusive);
  sim_.RunFor(Duration::Millis(100));
  locks_.Clear();
  sim_.RunFor(Duration::Millis(100));
  EXPECT_EQ((*waiter)->code(), StatusCode::kAborted);
  EXPECT_EQ(locks_.num_locked_keys(), 0u);
  EXPECT_FALSE(locks_.Holds(MakeTxn(300), "k", LockMode::kShared));
}

TEST_F(LockManagerTest, HoldsDistinguishesModes) {
  auto s = Acquire(MakeTxn(1), "k", LockMode::kShared);
  sim_.Run();
  EXPECT_TRUE(locks_.Holds(MakeTxn(1), "k", LockMode::kShared));
  EXPECT_FALSE(locks_.Holds(MakeTxn(1), "k", LockMode::kExclusive));
  EXPECT_FALSE(locks_.Holds(MakeTxn(2), "k", LockMode::kShared));
}

TEST_F(LockManagerTest, TieBreaksBySerialAndCoordinator) {
  TxnId a = MakeTxn(100, 1);
  TxnId b = MakeTxn(100, 2);  // same timestamp, higher serial -> younger
  auto ra = Acquire(a, "k", LockMode::kExclusive);
  sim_.Run();
  auto rb = Acquire(b, "k", LockMode::kExclusive);
  sim_.Run();
  EXPECT_EQ((*rb)->code(), StatusCode::kConflict);  // b is younger: dies
}

TEST_F(LockManagerTest, DistinctKeysDoNotConflict) {
  auto a = Acquire(MakeTxn(1), "a", LockMode::kExclusive);
  auto b = Acquire(MakeTxn(2), "b", LockMode::kExclusive);
  sim_.Run();
  EXPECT_TRUE(Granted(a));
  EXPECT_TRUE(Granted(b));
}

// A freed entry is reused for the next newly locked key. It must carry
// nothing over from its last key: FIFO waiters, wait-die on regrant and
// upgrades behave exactly as on a fresh entry.
TEST_F(LockManagerTest, RecycledEntryBehavesLikeAFreshOne) {
  // Leave one freed entry whose last key saw a holder and a queued waiter.
  auto old_holder = Acquire(MakeTxn(300), "old", LockMode::kShared);
  sim_.RunFor(Duration::Millis(100));
  auto old_waiter = Acquire(MakeTxn(100), "old", LockMode::kExclusive);
  sim_.RunFor(Duration::Millis(100));
  ASSERT_TRUE(Pending(old_waiter));
  locks_.ReleaseAll(MakeTxn(300));
  sim_.RunFor(Duration::Millis(100));
  ASSERT_TRUE(Granted(old_waiter));
  locks_.ReleaseAll(MakeTxn(100));
  ASSERT_EQ(locks_.num_locked_keys(), 0u);
  ASSERT_EQ(locks_.num_free_entries(), 1u);

  // FIFO wake-up and the regrant wait-die check on the recycled entry.
  auto holder = Acquire(MakeTxn(300), "k", LockMode::kExclusive);
  sim_.RunFor(Duration::Millis(100));
  ASSERT_TRUE(Granted(holder));
  EXPECT_EQ(locks_.num_free_entries(), 0u);  // "k" took the freed entry
  EXPECT_FALSE(locks_.Holds(MakeTxn(100), "k", LockMode::kShared));
  auto w1 = Acquire(MakeTxn(100), "k", LockMode::kExclusive);
  auto w2 = Acquire(MakeTxn(200), "k", LockMode::kExclusive);
  sim_.RunFor(Duration::Millis(100));
  EXPECT_TRUE(Pending(w1));
  EXPECT_TRUE(Pending(w2));
  locks_.ReleaseAll(MakeTxn(300));
  sim_.RunFor(Duration::Millis(100));
  EXPECT_TRUE(Granted(w1));
  ASSERT_TRUE(w2->has_value());
  EXPECT_EQ((*w2)->code(), StatusCode::kConflict);
  locks_.ReleaseAll(MakeTxn(100));
  EXPECT_EQ(locks_.num_locked_keys(), 0u);

  // An upgrade on the recycled entry.
  auto s = Acquire(MakeTxn(1), "j", LockMode::kShared);
  sim_.RunFor(Duration::Millis(100));
  ASSERT_TRUE(Granted(s));
  EXPECT_FALSE(locks_.Holds(MakeTxn(1), "j", LockMode::kExclusive));
  const uint64_t upgrades = locks_.stats().upgrades;
  auto x = Acquire(MakeTxn(1), "j", LockMode::kExclusive);
  sim_.RunFor(Duration::Millis(100));
  EXPECT_TRUE(Granted(x));
  EXPECT_TRUE(locks_.Holds(MakeTxn(1), "j", LockMode::kExclusive));
  EXPECT_EQ(locks_.stats().upgrades, upgrades + 1);
}

// The table holds only locked keys and the free list never grows past its
// cap, however many distinct keys come and go.
TEST_F(LockManagerTest, FreeListStaysBoundedOverAThousandKeys) {
  constexpr int kKeys = 1000;
  for (int i = 0; i < kKeys; ++i) {
    (void)Acquire(MakeTxn(i + 1), "key-" + std::to_string(i), LockMode::kExclusive);
  }
  sim_.RunFor(Duration::Millis(100));
  EXPECT_EQ(locks_.num_locked_keys(), static_cast<size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    locks_.ReleaseAll(MakeTxn(i + 1));
  }
  EXPECT_EQ(locks_.num_locked_keys(), 0u);
  EXPECT_EQ(locks_.num_free_entries(), LockManager::kMaxFreeEntries);

  // One acquire/release cycle per key: each reuses the last freed entry.
  for (int i = 0; i < kKeys; ++i) {
    auto r = Acquire(MakeTxn(i + 1), "cycle-" + std::to_string(i), LockMode::kShared);
    sim_.RunFor(Duration::Millis(1));
    ASSERT_TRUE(Granted(r));
    locks_.ReleaseAll(MakeTxn(i + 1));
  }
  EXPECT_EQ(locks_.num_locked_keys(), 0u);
  EXPECT_EQ(locks_.num_free_entries(), LockManager::kMaxFreeEntries);
}

}  // namespace
}  // namespace wvote
