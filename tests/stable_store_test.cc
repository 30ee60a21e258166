// Stable storage: crash-atomicity of the two-slot careful-write scheme.

#include "src/storage/stable_store.h"

#include <gtest/gtest.h>

#include "src/net/network.h"

namespace wvote {
namespace {

class StableStoreTest : public ::testing::Test {
 protected:
  StableStoreTest()
      : sim_(1),
        net_(&sim_),
        host_(net_.AddHost("disk-host")),
        store_(&sim_, host_, LatencyModel::Fixed(Duration::Millis(10)),
               LatencyModel::Fixed(Duration::Millis(5))) {}

  Status RunWrite(const std::string& key, const std::string& value) {
    auto holder = std::make_shared<Status>(InternalError("pending"));
    Spawn(CaptureWrite(&store_, key, value, holder));
    sim_.Run();
    return *holder;
  }

  Result<std::string> RunRead(const std::string& key) {
    auto holder = std::make_shared<Result<std::string>>(InternalError("pending"));
    Spawn(CaptureRead(&store_, key, holder));
    sim_.Run();
    return *holder;
  }

  static Task<void> CaptureWrite(StableStore* store, std::string key, std::string value,
                                 std::shared_ptr<Status> out) {
    *out = co_await store->Write(std::move(key), std::move(value));
  }
  static Task<void> CaptureRead(StableStore* store, std::string key,
                                std::shared_ptr<Result<std::string>> out) {
    *out = co_await store->Read(std::move(key));
  }
  static Task<void> CaptureWriteBatch(StableStore* store, std::vector<PageWrite> pages,
                                      std::shared_ptr<Status> out) {
    *out = co_await store->WriteBatch(pages);
  }

  Simulator sim_;
  Network net_;
  Host* host_;
  StableStore store_;
};

TEST_F(StableStoreTest, WriteThenReadRoundTrip) {
  EXPECT_TRUE(RunWrite("k", "value-1").ok());
  Result<std::string> r = RunRead("k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "value-1");
}

TEST_F(StableStoreTest, OverwriteKeepsLatest) {
  ASSERT_TRUE(RunWrite("k", "v1").ok());
  ASSERT_TRUE(RunWrite("k", "v2").ok());
  ASSERT_TRUE(RunWrite("k", "v3").ok());
  EXPECT_EQ(RunRead("k").value(), "v3");
}

TEST_F(StableStoreTest, MissingKeyIsNotFound) {
  EXPECT_EQ(RunRead("ghost").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store_.ReadCommitted("ghost").status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(store_.Contains("ghost"));
}

TEST_F(StableStoreTest, CrashDuringWritePreservesOldValue) {
  ASSERT_TRUE(RunWrite("k", "stable").ok());

  auto status = std::make_shared<Status>(InternalError("pending"));
  Spawn(CaptureWrite(&store_, "k", "torn", status));
  sim_.Schedule(Duration::Millis(5), [this] { host_->Crash(); });  // mid-write
  sim_.Run();
  EXPECT_EQ(status->code(), StatusCode::kAborted);
  EXPECT_EQ(store_.stats().writes_torn, 1u);

  host_->Restart();
  EXPECT_EQ(store_.ReadCommitted("k").value(), "stable");
  // The rewrite reuses the torn slot and the next write goes back to the
  // first one; each read returns the newest complete value.
  ASSERT_TRUE(RunWrite("k", "second").ok());
  EXPECT_EQ(RunRead("k").value(), "second");
  ASSERT_TRUE(RunWrite("k", "third").ok());
  EXPECT_EQ(RunRead("k").value(), "third");
}

TEST_F(StableStoreTest, CrashDuringFirstEverWriteLeavesNothing) {
  auto status = std::make_shared<Status>(InternalError("pending"));
  Spawn(CaptureWrite(&store_, "fresh", "partial", status));
  sim_.Schedule(Duration::Millis(5), [this] { host_->Crash(); });
  sim_.Run();
  host_->Restart();
  EXPECT_FALSE(store_.Contains("fresh"));
}

TEST_F(StableStoreTest, WriteAfterCrashRecoveryWorks) {
  ASSERT_TRUE(RunWrite("k", "v1").ok());
  host_->Crash();
  host_->Restart();
  ASSERT_TRUE(RunWrite("k", "v2").ok());
  EXPECT_EQ(RunRead("k").value(), "v2");
}

TEST_F(StableStoreTest, WriteWhileDownAborts) {
  host_->Crash();
  EXPECT_EQ(RunWrite("k", "x").code(), StatusCode::kAborted);
  host_->Restart();
}

TEST_F(StableStoreTest, ReadWhileDownAborts) {
  ASSERT_TRUE(RunWrite("k", "x").ok());
  host_->Crash();
  EXPECT_EQ(RunRead("k").status().code(), StatusCode::kAborted);
  host_->Restart();
}

TEST_F(StableStoreTest, DeleteRemovesDurably) {
  ASSERT_TRUE(RunWrite("k", "x").ok());
  auto status = std::make_shared<Status>(InternalError("pending"));
  auto deleter = [](StableStore* store, std::shared_ptr<Status> out) -> Task<void> {
    *out = co_await store->Delete("k");
  };
  Spawn(deleter(&store_, status));
  sim_.Run();
  EXPECT_TRUE(status->ok());
  EXPECT_FALSE(store_.Contains("k"));
}

TEST_F(StableStoreTest, KeysListsOnlyCommitted) {
  ASSERT_TRUE(RunWrite("a/1", "x").ok());
  ASSERT_TRUE(RunWrite("a/2", "y").ok());
  ASSERT_TRUE(RunWrite("b/1", "z").ok());
  EXPECT_EQ(store_.Keys().size(), 3u);
  EXPECT_EQ(store_.KeysWithPrefix("a/").size(), 2u);
  EXPECT_EQ(store_.KeysWithPrefix("b/").size(), 1u);
  EXPECT_EQ(store_.KeysWithPrefix("c/").size(), 0u);
}

TEST_F(StableStoreTest, WriteLatencyIsSimulated) {
  auto status = std::make_shared<Status>(InternalError("pending"));
  Spawn(CaptureWrite(&store_, "k", "v", status));
  sim_.Run();
  EXPECT_EQ(sim_.Now(), TimePoint() + Duration::Millis(10));
}

TEST_F(StableStoreTest, ManyKeysSurviveManyCrashes) {
  for (int round = 0; round < 5; ++round) {
    for (int k = 0; k < 10; ++k) {
      ASSERT_TRUE(
          RunWrite("key-" + std::to_string(k), "round-" + std::to_string(round)).ok());
    }
    host_->Crash();
    host_->Restart();
  }
  for (int k = 0; k < 10; ++k) {
    EXPECT_EQ(store_.ReadCommitted("key-" + std::to_string(k)).value(), "round-4");
  }
}

TEST_F(StableStoreTest, StatsTrackActivity) {
  ASSERT_TRUE(RunWrite("k", "v").ok());
  (void)RunRead("k");
  EXPECT_EQ(store_.stats().writes_started, 1u);
  EXPECT_EQ(store_.stats().writes_completed, 1u);
  EXPECT_EQ(store_.stats().reads, 1u);
}

// --- Group commit -----------------------------------------------------------

TEST_F(StableStoreTest, ConcurrentWritesCoalesceIntoOneFlush) {
  auto s0 = std::make_shared<Status>(InternalError("pending"));
  auto s1 = std::make_shared<Status>(InternalError("pending"));
  auto s2 = std::make_shared<Status>(InternalError("pending"));
  auto s3 = std::make_shared<Status>(InternalError("pending"));
  Spawn(CaptureWrite(&store_, "a", "va", s0));
  Spawn(CaptureWrite(&store_, "b", "vb", s1));
  Spawn(CaptureWrite(&store_, "c", "vc", s2));
  Spawn(CaptureWrite(&store_, "d", "vd", s3));
  sim_.Run();

  // All four writes succeed but the disk was charged exactly once.
  for (const auto& s : {s0, s1, s2, s3}) {
    EXPECT_TRUE(s->ok()) << s->ToString();
  }
  EXPECT_EQ(sim_.Now(), TimePoint() + Duration::Millis(10));
  EXPECT_EQ(store_.stats().group_commit_batches, 1u);
  EXPECT_EQ(store_.stats().group_commit_coalesced, 3u);
  EXPECT_EQ(store_.stats().writes_completed, 4u);
  EXPECT_EQ(store_.ReadCommitted("a").value(), "va");
  EXPECT_EQ(store_.ReadCommitted("d").value(), "vd");
}

TEST_F(StableStoreTest, SequentialWritesDoNotCoalesce) {
  ASSERT_TRUE(RunWrite("a", "v1").ok());
  ASSERT_TRUE(RunWrite("b", "v2").ok());
  EXPECT_EQ(store_.stats().group_commit_batches, 2u);
  EXPECT_EQ(store_.stats().group_commit_coalesced, 0u);
}

TEST_F(StableStoreTest, SameKeyCoalescingKeepsLastStagedValue) {
  auto s0 = std::make_shared<Status>(InternalError("pending"));
  auto s1 = std::make_shared<Status>(InternalError("pending"));
  Spawn(CaptureWrite(&store_, "k", "first", s0));
  Spawn(CaptureWrite(&store_, "k", "second", s1));
  sim_.Run();
  EXPECT_TRUE(s0->ok());
  EXPECT_TRUE(s1->ok());
  // The racers are adjacent in the serial order; only the final window
  // state becomes durable.
  EXPECT_EQ(store_.ReadCommitted("k").value(), "second");
  EXPECT_EQ(store_.stats().writes_started, 2u);
  EXPECT_EQ(store_.stats().writes_completed, 1u);
}

TEST_F(StableStoreTest, JoinerFinishesWithTheLeaderWindow) {
  auto leader = std::make_shared<Status>(InternalError("pending"));
  auto joiner = std::make_shared<Status>(InternalError("pending"));
  Spawn(CaptureWrite(&store_, "a", "va", leader));
  // Arrive 4ms into the leader's 10ms window: the joiner completes when the
  // window does (t=10ms), not a full latency later.
  sim_.Schedule(Duration::Millis(4), [this, joiner] {
    Spawn(CaptureWrite(&store_, "b", "vb", joiner));
  });
  sim_.Run();
  EXPECT_TRUE(leader->ok());
  EXPECT_TRUE(joiner->ok());
  EXPECT_EQ(sim_.Now(), TimePoint() + Duration::Millis(10));
  EXPECT_EQ(store_.stats().group_commit_batches, 1u);
  EXPECT_EQ(store_.stats().group_commit_coalesced, 1u);
}

TEST_F(StableStoreTest, CrashTearsTheWholeBatch) {
  ASSERT_TRUE(RunWrite("k", "stable").ok());

  auto s0 = std::make_shared<Status>(InternalError("pending"));
  auto s1 = std::make_shared<Status>(InternalError("pending"));
  auto s2 = std::make_shared<Status>(InternalError("pending"));
  Spawn(CaptureWrite(&store_, "k", "torn", s0));
  Spawn(CaptureWrite(&store_, "fresh-1", "x", s1));
  Spawn(CaptureWrite(&store_, "fresh-2", "y", s2));
  sim_.Schedule(Duration::Millis(5), [this] { host_->Crash(); });  // mid-window
  sim_.Run();

  // Nothing in the batch was acknowledged, so losing all of it is
  // crash-atomic: every waiter aborts, every staged page stays torn.
  for (const auto& s : {s0, s1, s2}) {
    EXPECT_EQ(s->code(), StatusCode::kAborted);
  }
  EXPECT_EQ(store_.stats().writes_torn, 3u);

  host_->Restart();
  EXPECT_EQ(store_.ReadCommitted("k").value(), "stable");
  EXPECT_FALSE(store_.Contains("fresh-1"));
  EXPECT_FALSE(store_.Contains("fresh-2"));
}

TEST_F(StableStoreTest, WriteBatchInstallsAllEntriesWithOneCharge) {
  std::vector<PageWrite> entries = {{"x", "1"}, {"y", "2"}, {"z", "3"}};
  auto status = std::make_shared<Status>(InternalError("pending"));
  Spawn(CaptureWriteBatch(&store_, std::move(entries), status));
  sim_.Run();
  EXPECT_TRUE(status->ok());
  EXPECT_EQ(sim_.Now(), TimePoint() + Duration::Millis(10));
  EXPECT_EQ(store_.stats().group_commit_batches, 1u);
  EXPECT_EQ(store_.stats().writes_completed, 3u);
  EXPECT_EQ(store_.ReadCommitted("x").value(), "1");
  EXPECT_EQ(store_.ReadCommitted("y").value(), "2");
  EXPECT_EQ(store_.ReadCommitted("z").value(), "3");
}

TEST_F(StableStoreTest, CrashDuringWriteBatchLosesAllOrNothing) {
  ASSERT_TRUE(RunWrite("x", "old").ok());
  std::vector<PageWrite> entries = {{"x", "new"}, {"w", "fresh"}};
  auto status = std::make_shared<Status>(InternalError("pending"));
  Spawn(CaptureWriteBatch(&store_, std::move(entries), status));
  sim_.Schedule(Duration::Millis(5), [this] { host_->Crash(); });
  sim_.Run();
  EXPECT_EQ(status->code(), StatusCode::kAborted);
  host_->Restart();
  EXPECT_EQ(store_.ReadCommitted("x").value(), "old");
  EXPECT_FALSE(store_.Contains("w"));
}

TEST_F(StableStoreTest, InjectedWriteFailureIsCleanAndCounted) {
  ASSERT_TRUE(RunWrite("k", "old").ok());
  StoreFaults faults;
  faults.write_fail_probability = 1.0;
  store_.SetFaults(faults);
  Status st = RunWrite("k", "new");
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(store_.stats().injected_write_failures, 1u);
  // Clean refusal: the failure happened before the careful-write window, so
  // the committed slot is untouched — no restart needed to read it.
  EXPECT_EQ(store_.ReadCommitted("k").value(), "old");
  store_.SetFaults(StoreFaults{});
  ASSERT_TRUE(RunWrite("k", "new").ok());
  EXPECT_EQ(store_.ReadCommitted("k").value(), "new");
}

TEST_F(StableStoreTest, InjectedTornFlushSurfacesOldValueNeverTornMix) {
  ASSERT_TRUE(RunWrite("k", "old").ok());
  StoreFaults faults;
  faults.tear_next_flush = true;
  store_.SetFaults(faults);
  Status st = RunWrite("k", "new");
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(store_.stats().injected_torn_flushes, 1u);
  EXPECT_EQ(store_.stats().writes_torn, 1u);
  // Two-slot careful write: the torn flush never reached the committed
  // slot, so recovery sees the complete old value — not a torn mix.
  EXPECT_EQ(store_.ReadCommitted("k").value(), "old");
  EXPECT_FALSE(store_.faults().tear_next_flush);  // one-shot, consumed
  // The next flush is healthy again and installs the complete new value.
  ASSERT_TRUE(RunWrite("k", "new").ok());
  EXPECT_EQ(store_.ReadCommitted("k").value(), "new");
}

TEST_F(StableStoreTest, InjectedTearHitsTheWholeGroupCommitWindow) {
  ASSERT_TRUE(RunWrite("k", "stable").ok());
  StoreFaults faults;
  faults.tear_next_flush = true;
  store_.SetFaults(faults);
  auto s0 = std::make_shared<Status>(InternalError("pending"));
  auto s1 = std::make_shared<Status>(InternalError("pending"));
  Spawn(CaptureWrite(&store_, "k", "torn", s0));
  Spawn(CaptureWrite(&store_, "fresh", "x", s1));  // joins the open batch
  sim_.Run();
  // The one-shot tear is crash-atomic across the batch: every joiner fails
  // with the leader, nothing was acknowledged, nothing installed.
  EXPECT_EQ(s0->code(), StatusCode::kUnavailable);
  EXPECT_EQ(s1->code(), StatusCode::kUnavailable);
  EXPECT_EQ(store_.stats().writes_torn, 2u);
  EXPECT_EQ(store_.ReadCommitted("k").value(), "stable");
  EXPECT_FALSE(store_.Contains("fresh"));
  // One-shot: a rewrite of the same batch content now succeeds completely.
  ASSERT_TRUE(RunWrite("k", "after").ok());
  ASSERT_TRUE(RunWrite("fresh", "x").ok());
  EXPECT_EQ(store_.ReadCommitted("k").value(), "after");
  EXPECT_EQ(store_.ReadCommitted("fresh").value(), "x");
}

}  // namespace
}  // namespace wvote
