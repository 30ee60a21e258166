// Two-phase commit across participants: happy path, vote-no, crash
// recovery, decision inquiry, presumed abort.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "src/txn/coordinator.h"
#include "src/txn/participant.h"

namespace wvote {
namespace {

// The coordinator's writer list for per-host intents, in ascending host
// order.
std::vector<WriterIntents> Writers(std::map<HostId, WriteIntents> writes) {
  std::vector<WriterIntents> writers;
  for (auto& [host, intents] : writes) {
    writers.push_back(WriterIntents{host, std::move(intents)});
  }
  return writers;
}

struct Node {
  Host* host = nullptr;
  std::unique_ptr<RpcEndpoint> rpc;
  std::unique_ptr<StableStore> store;
  std::unique_ptr<Participant> participant;
};

class TwoPhaseCommitTest : public ::testing::Test {
 protected:
  TwoPhaseCommitTest() : sim_(1), net_(&sim_) {
    net_.SetDefaultLink(LatencyModel::Fixed(Duration::Millis(5)));
    for (int i = 0; i < 3; ++i) {
      AddNode("p" + std::to_string(i), Duration::Millis(2));
    }
    client_host_ = net_.AddHost("client");
    client_rpc_ = std::make_unique<RpcEndpoint>(&net_, client_host_);
    client_store_ = std::make_unique<StableStore>(&sim_, client_host_,
                                                  LatencyModel::Fixed(Duration::Millis(2)),
                                                  LatencyModel::Fixed(Duration::Millis(1)));
    // These tests exercise the literal synchronous protocol (commit
    // returns only after phase 2); async-phase-2 behavior is covered in
    // async_commit_test.cc.
    CoordinatorOptions copts;
    copts.sync_phase2 = true;
    coordinator_ =
        std::make_unique<Coordinator>(client_rpc_.get(), client_store_.get(), copts);
  }

  // Adds a participant whose disk writes take `disk_write`; returns its
  // index.
  int AddNode(const std::string& name, Duration disk_write) {
    auto node = std::make_unique<Node>();
    node->host = net_.AddHost(name);
    node->rpc = std::make_unique<RpcEndpoint>(&net_, node->host);
    node->store = std::make_unique<StableStore>(&sim_, node->host,
                                                LatencyModel::Fixed(disk_write),
                                                LatencyModel::Fixed(Duration::Millis(1)));
    node->participant = std::make_unique<Participant>(node->rpc.get(), node->store.get());
    nodes_.push_back(std::move(node));
    return static_cast<int>(nodes_.size()) - 1;
  }

  // Locks `key` exclusively at participant `i` on behalf of txn.
  Status LockAt(int i, TxnId txn, const std::string& key) {
    auto out = std::make_shared<std::optional<Status>>();
    auto runner = [](RpcEndpoint* rpc, HostId to, TxnId txn, std::string key,
                     std::shared_ptr<std::optional<Status>> out) -> Task<void> {
      Result<Ack> r = co_await rpc->Call<LockReq, Ack>(
          to, LockReq(txn, std::move(key), LockMode::kExclusive), Duration::Seconds(30));
      *out = r.ok() ? Status::Ok() : r.status();
    };
    Spawn(runner(client_rpc_.get(), nodes_[static_cast<size_t>(i)]->host->id(), txn, key,
                 out));
    sim_.RunFor(Duration::Seconds(1));
    return out->has_value() ? **out : InternalError("lock still pending");
  }

  // Spawns a commit without running the simulator; its outcome lands in
  // the returned slot.
  std::shared_ptr<std::optional<Status>> SpawnCommit(
      TxnId txn, std::map<HostId, WriteIntents> writes,
      std::vector<HostId> read_only = {}) {
    auto out = std::make_shared<std::optional<Status>>();
    auto runner = [](Coordinator* coord, TxnId txn,
                     std::map<HostId, WriteIntents> writes,
                     std::vector<HostId> ro,
                     std::shared_ptr<std::optional<Status>> out) -> Task<void> {
      std::vector<WriterIntents> writers = Writers(std::move(writes));
      *out = co_await coord->CommitTransaction(txn, writers, ro);
    };
    Spawn(runner(coordinator_.get(), txn, std::move(writes), std::move(read_only), out));
    return out;
  }

  Status Commit2PC(TxnId txn, std::map<HostId, WriteIntents> writes,
                   std::vector<HostId> read_only = {}) {
    auto out = SpawnCommit(txn, std::move(writes), std::move(read_only));
    sim_.RunFor(Duration::Seconds(60));
    return out->has_value() ? **out : InternalError("commit still pending");
  }

  HostId Hid(int i) { return nodes_[static_cast<size_t>(i)]->host->id(); }
  Participant& P(int i) { return *nodes_[static_cast<size_t>(i)]->participant; }

  std::string CommittedAt(int i, const std::string& key) {
    Result<std::string> r = P(i).PeekCommitted(key);
    return r.ok() ? r.value() : "<" + std::string(StatusCodeName(r.status().code())) + ">";
  }

  Simulator sim_;
  Network net_;
  std::vector<std::unique_ptr<Node>> nodes_;
  Host* client_host_ = nullptr;
  std::unique_ptr<RpcEndpoint> client_rpc_;
  std::unique_ptr<StableStore> client_store_;
  std::unique_ptr<Coordinator> coordinator_;
};

TEST_F(TwoPhaseCommitTest, CommitInstallsAtEveryWriter) {
  TxnId txn = coordinator_->Begin();
  ASSERT_TRUE(LockAt(0, txn, "x").ok());
  ASSERT_TRUE(LockAt(1, txn, "x").ok());

  std::map<HostId, WriteIntents> writes;
  writes[Hid(0)] = {WriteIntent("x", "committed-value")};
  writes[Hid(1)] = {WriteIntent("x", "committed-value")};
  ASSERT_TRUE(Commit2PC(txn, std::move(writes)).ok());

  EXPECT_EQ(CommittedAt(0, "x"), "committed-value");
  EXPECT_EQ(CommittedAt(1, "x"), "committed-value");
  EXPECT_EQ(CommittedAt(2, "x"), "<NOT_FOUND>");  // not a writer
  EXPECT_EQ(coordinator_->stats().committed, 1u);
}

TEST_F(TwoPhaseCommitTest, CommitReleasesLocks) {
  TxnId txn = coordinator_->Begin();
  ASSERT_TRUE(LockAt(0, txn, "x").ok());
  std::map<HostId, WriteIntents> writes;
  writes[Hid(0)] = {WriteIntent("x", "v")};
  ASSERT_TRUE(Commit2PC(txn, std::move(writes)).ok());
  EXPECT_EQ(P(0).locks().num_locked_keys(), 0u);
}

TEST_F(TwoPhaseCommitTest, PrepareWithoutLockVotesNo) {
  TxnId txn = coordinator_->Begin();
  // No lock acquired at participant 0: its Prepare must refuse.
  std::map<HostId, WriteIntents> writes;
  writes[Hid(0)] = {WriteIntent("x", "v")};
  Status st = Commit2PC(txn, std::move(writes));
  EXPECT_EQ(st.code(), StatusCode::kAborted);
  EXPECT_EQ(CommittedAt(0, "x"), "<NOT_FOUND>");
  EXPECT_EQ(P(0).stats().prepares_refused, 1u);
}

TEST_F(TwoPhaseCommitTest, OneNoVoteAbortsEverywhere) {
  TxnId txn = coordinator_->Begin();
  ASSERT_TRUE(LockAt(0, txn, "x").ok());  // participant 1 not locked
  std::map<HostId, WriteIntents> writes;
  writes[Hid(0)] = {WriteIntent("x", "v")};
  writes[Hid(1)] = {WriteIntent("x", "v")};
  Status st = Commit2PC(txn, std::move(writes));
  EXPECT_EQ(st.code(), StatusCode::kAborted);
  // Neither participant installs, including the one that voted yes.
  EXPECT_EQ(CommittedAt(0, "x"), "<NOT_FOUND>");
  EXPECT_EQ(CommittedAt(1, "x"), "<NOT_FOUND>");
  // And its prepared record is gone (aborted).
  EXPECT_TRUE(P(0).locks().num_locked_keys() == 0u);
}

TEST_F(TwoPhaseCommitTest, ReadOnlyParticipantsJustReleaseLocks) {
  TxnId txn = coordinator_->Begin();
  ASSERT_TRUE(LockAt(2, txn, "x").ok());
  Status st = Commit2PC(txn, {}, {Hid(2)});
  EXPECT_TRUE(st.ok());
  sim_.RunFor(Duration::Seconds(1));  // async release lands
  EXPECT_EQ(P(2).locks().num_locked_keys(), 0u);
}

TEST_F(TwoPhaseCommitTest, DownParticipantAbortsCommit) {
  TxnId txn = coordinator_->Begin();
  ASSERT_TRUE(LockAt(0, txn, "x").ok());
  nodes_[0]->host->Crash();
  std::map<HostId, WriteIntents> writes;
  writes[Hid(0)] = {WriteIntent("x", "v")};
  Status st = Commit2PC(txn, std::move(writes));
  EXPECT_EQ(st.code(), StatusCode::kAborted);
}

TEST_F(TwoPhaseCommitTest, ParticipantCrashAfterPrepareRecoversToCommit) {
  // Participant 0 prepares, then crashes before receiving the commit. On
  // restart, recovery finds the in-doubt record and asks the coordinator,
  // whose durable decision log says COMMIT.
  TxnId txn = coordinator_->Begin();
  ASSERT_TRUE(LockAt(0, txn, "x").ok());

  // Crash participant 0 just after its prepare completes (prepare takes one
  // 5ms hop + 2ms log write; 9ms is after the vote is durable, before the
  // 5ms-away commit message arrives).
  sim_.Schedule(Duration::Millis(9), [this] { nodes_[0]->host->Crash(); });

  std::map<HostId, WriteIntents> writes;
  writes[Hid(0)] = {WriteIntent("x", "recovered")};
  auto out = std::make_shared<std::optional<Status>>();
  auto runner = [](Coordinator* coord, TxnId txn,
                   std::map<HostId, WriteIntents> writes,
                   std::shared_ptr<std::optional<Status>> out) -> Task<void> {
    std::vector<WriterIntents> writers = Writers(std::move(writes));
    *out = co_await coord->CommitTransaction(txn, writers, {});
  };
  Spawn(runner(coordinator_.get(), txn, std::move(writes), out));
  sim_.RunFor(Duration::Seconds(2));

  // Restart: recovery should resolve the in-doubt record to COMMIT.
  nodes_[0]->host->Restart();
  sim_.RunFor(Duration::Seconds(30));
  EXPECT_EQ(CommittedAt(0, "x"), "recovered");
  EXPECT_GE(P(0).stats().recovered_in_doubt, 1u);
}

TEST_F(TwoPhaseCommitTest, PresumedAbortWhenCoordinatorNeverDecided) {
  // Participant 0 holds a prepared record, but the coordinator's stable
  // store has no decision (it "crashed" before logging). Recovery must
  // abort the branch.
  TxnId txn = coordinator_->Begin();
  ASSERT_TRUE(LockAt(0, txn, "x").ok());

  auto preparer = [](Participant* p, TxnId txn) -> Task<void> {
    WriteIntents writes;
    writes.push_back(WriteIntent("x", "should-not-survive"));
    EXPECT_TRUE((co_await p->Prepare(txn, std::move(writes))).ok());
  };
  Spawn(preparer(&P(0), txn));
  sim_.RunFor(Duration::Seconds(1));

  nodes_[0]->host->Crash();
  nodes_[0]->host->Restart();
  sim_.RunFor(Duration::Seconds(30));

  EXPECT_EQ(CommittedAt(0, "x"), "<NOT_FOUND>");
  EXPECT_EQ(P(0).stats().aborts, 1u);
  EXPECT_EQ(P(0).locks().num_locked_keys(), 0u);
}

TEST_F(TwoPhaseCommitTest, CommitIsIdempotent) {
  TxnId txn = coordinator_->Begin();
  ASSERT_TRUE(LockAt(0, txn, "x").ok());
  std::map<HostId, WriteIntents> writes;
  writes[Hid(0)] = {WriteIntent("x", "once")};
  ASSERT_TRUE(Commit2PC(txn, std::move(writes)).ok());

  // A duplicate CommitReq (late retransmission) must be harmless.
  auto dup = [](RpcEndpoint* rpc, HostId to, TxnId txn) -> Task<void> {
    Result<Ack> r = co_await rpc->Call<CommitReq, Ack>(to, CommitReq(txn), Duration::Seconds(5));
    EXPECT_TRUE(r.ok());
  };
  Spawn(dup(client_rpc_.get(), Hid(0), txn));
  sim_.RunFor(Duration::Seconds(1));
  EXPECT_EQ(CommittedAt(0, "x"), "once");
}

TEST_F(TwoPhaseCommitTest, ConcurrentDuplicateCommitAppliesOnlyOnce) {
  // A retried CommitReq that arrives while the FIRST commit is still
  // flushing must not start a second apply: the first commit releases the
  // transaction's locks when it finishes, so a straggling duplicate apply
  // would run unserialized against later transactions and could re-install
  // this transaction's pages over their committed writes.
  TxnId txn = coordinator_->Begin();
  ASSERT_TRUE(LockAt(0, txn, "x").ok());

  auto send = [](RpcEndpoint* rpc, HostId to, TxnId txn,
                 WriteIntents writes) -> Task<void> {
    if (!writes.empty()) {
      Result<Ack> p = co_await rpc->Call<PrepareReq, Ack>(
          to, PrepareReq(txn, std::move(writes)), Duration::Seconds(5));
      EXPECT_TRUE(p.ok());
      co_return;
    }
    Result<Ack> c = co_await rpc->Call<CommitReq, Ack>(to, CommitReq(txn), Duration::Seconds(5));
    EXPECT_TRUE(c.ok());
  };
  Spawn(send(client_rpc_.get(), Hid(0), txn, {WriteIntent("x", "once")}));
  sim_.RunFor(Duration::Seconds(1));
  ASSERT_EQ(P(0).stats().prepares_ok, 1u);

  // Two commits 1ms apart: the second lands while the first's commit-record
  // flush (2ms disk) is still in flight.
  Spawn(send(client_rpc_.get(), Hid(0), txn, {}));
  sim_.RunFor(Duration::Millis(1));
  Spawn(send(client_rpc_.get(), Hid(0), txn, {}));
  sim_.RunFor(Duration::Seconds(1));

  EXPECT_EQ(P(0).stats().commits, 1u);
  EXPECT_EQ(CommittedAt(0, "x"), "once");
  EXPECT_EQ(P(0).locks().num_locked_keys(), 0u);
}

TEST_F(TwoPhaseCommitTest, CrashDuringApplyReappliesOnRecovery) {
  // Crash the participant while it is applying the committed intents; the
  // committed record survives and recovery finishes the apply.
  TxnId txn = coordinator_->Begin();
  ASSERT_TRUE(LockAt(0, txn, "big").ok());
  std::map<HostId, WriteIntents> writes;
  writes[Hid(0)] = {WriteIntent("big", std::string(1000, 'z'))};

  // Timeline: lock done by ~10ms (RunFor in LockAt). Prepare: 5ms hop + 2ms
  // log; commit req: 5ms back + 5ms there + 2ms commit-record + apply 2ms...
  // Crash in the middle of the apply window.
  auto out = std::make_shared<std::optional<Status>>();
  auto runner = [](Coordinator* coord, TxnId txn,
                   std::map<HostId, WriteIntents> writes,
                   std::shared_ptr<std::optional<Status>> out) -> Task<void> {
    std::vector<WriterIntents> writers = Writers(std::move(writes));
    *out = co_await coord->CommitTransaction(txn, writers, {});
  };
  Spawn(runner(coordinator_.get(), txn, std::move(writes), out));
  sim_.Schedule(Duration::Millis(20), [this] { nodes_[0]->host->Crash(); });
  sim_.RunFor(Duration::Seconds(2));

  nodes_[0]->host->Restart();
  sim_.RunFor(Duration::Seconds(30));
  EXPECT_EQ(CommittedAt(0, "big"), std::string(1000, 'z'));
}

TEST_F(TwoPhaseCommitTest, DecisionInquiryAnswersFromDurableLog) {
  TxnId txn = coordinator_->Begin();
  ASSERT_TRUE(LockAt(0, txn, "x").ok());
  std::map<HostId, WriteIntents> writes;
  writes[Hid(0)] = {WriteIntent("x", "v")};
  ASSERT_TRUE(Commit2PC(txn, std::move(writes)).ok());

  auto ask = [](RpcEndpoint* rpc, HostId coord, TxnId txn,
                std::shared_ptr<std::optional<TxnDecision>> out) -> Task<void> {
    Result<DecisionResp> r = co_await rpc->Call<DecisionInquiryReq, DecisionResp>(
        coord, DecisionInquiryReq(txn), Duration::Seconds(5));
    EXPECT_TRUE(r.ok());  // ASSERT would `return` — illegal in a coroutine
    if (r.ok()) {
      *out = r.value().decision;
    }
  };
  auto committed = std::make_shared<std::optional<TxnDecision>>();
  Spawn(ask(nodes_[0]->rpc.get(), client_host_->id(), txn, committed));

  TxnId unknown = coordinator_->Begin();
  auto aborted = std::make_shared<std::optional<TxnDecision>>();
  Spawn(ask(nodes_[0]->rpc.get(), client_host_->id(), unknown, aborted));

  sim_.RunFor(Duration::Seconds(2));
  EXPECT_EQ(*committed, TxnDecision::kCommitted);
  EXPECT_EQ(*aborted, TxnDecision::kAborted);  // presumed abort
}

TEST_F(TwoPhaseCommitTest, CoordinatorCrashBeforeDecisionAbortsViaPresumption) {
  // The participant prepares; the coordinator crashes before logging its
  // decision. After both sides recover, the inquiry finds no decision
  // record -> presumed abort, locks released, no data installed.
  TxnId txn = coordinator_->Begin();
  ASSERT_TRUE(LockAt(0, txn, "x").ok());

  std::map<HostId, WriteIntents> writes;
  writes[Hid(0)] = {WriteIntent("x", "never")};
  auto out = std::make_shared<std::optional<Status>>();
  auto runner = [](Coordinator* coord, TxnId txn,
                   std::map<HostId, WriteIntents> writes,
                   std::shared_ptr<std::optional<Status>> out) -> Task<void> {
    std::vector<WriterIntents> writers = Writers(std::move(writes));
    *out = co_await coord->CommitTransaction(txn, writers, {});
  };
  Spawn(runner(coordinator_.get(), txn, std::move(writes), out));
  // Prepare lands at ~12ms (5ms hop + 2ms log + 5ms back). Crash the
  // coordinator before the decision write completes (decision logging
  // starts at ~12ms, takes 2ms).
  sim_.Schedule(Duration::Millis(13), [this] { client_host_->Crash(); });
  // And crash the participant so it must recover through the inquiry path.
  sim_.Schedule(Duration::Millis(30), [this] { nodes_[0]->host->Crash(); });
  sim_.RunFor(Duration::Seconds(2));

  client_host_->Restart();
  nodes_[0]->host->Restart();
  sim_.RunFor(Duration::Seconds(30));

  EXPECT_EQ(CommittedAt(0, "x"), "<NOT_FOUND>");
  EXPECT_EQ(P(0).locks().num_locked_keys(), 0u);
}

TEST_F(TwoPhaseCommitTest, CoordinatorCrashAfterDecisionCommitsViaInquiry) {
  // The decision record is durable on the coordinator's host; even though
  // the coordinator process never finishes phase 2 (its host crashes), the
  // prepared participant learns COMMIT from the restarted host's log.
  TxnId txn = coordinator_->Begin();
  ASSERT_TRUE(LockAt(0, txn, "x").ok());

  std::map<HostId, WriteIntents> writes;
  writes[Hid(0)] = {WriteIntent("x", "decided")};
  auto out = std::make_shared<std::optional<Status>>();
  auto runner = [](Coordinator* coord, TxnId txn,
                   std::map<HostId, WriteIntents> writes,
                   std::shared_ptr<std::optional<Status>> out) -> Task<void> {
    std::vector<WriterIntents> writers = Writers(std::move(writes));
    *out = co_await coord->CommitTransaction(txn, writers, {});
  };
  Spawn(runner(coordinator_.get(), txn, std::move(writes), out));
  // Decision write finishes ~14ms; the commit message to the participant is
  // in flight when both hosts crash at 15ms (the message is lost).
  sim_.Schedule(Duration::Millis(15), [this] {
    client_host_->Crash();
    nodes_[0]->host->Crash();
  });
  sim_.RunFor(Duration::Seconds(2));

  client_host_->Restart();
  nodes_[0]->host->Restart();
  sim_.RunFor(Duration::Seconds(30));

  EXPECT_EQ(CommittedAt(0, "x"), "decided");
  EXPECT_EQ(P(0).locks().num_locked_keys(), 0u);
}

TEST_F(TwoPhaseCommitTest, InDoubtParticipantBlocksConflictingAccessUntilResolved) {
  // While a prepared transaction is unresolved (coordinator down), its keys
  // stay exclusively locked at the recovered participant.
  TxnId txn = coordinator_->Begin();
  ASSERT_TRUE(LockAt(0, txn, "x").ok());
  auto preparer = [](Participant* p, TxnId txn) -> Task<void> {
    WriteIntents writes;
    writes.push_back(WriteIntent("x", "in doubt"));
    EXPECT_TRUE((co_await p->Prepare(txn, std::move(writes))).ok());
  };
  Spawn(preparer(&P(0), txn));
  sim_.RunFor(Duration::Seconds(1));

  client_host_->Crash();  // coordinator unreachable: txn stays in doubt
  nodes_[0]->host->Crash();
  nodes_[0]->host->Restart();
  sim_.RunFor(Duration::Seconds(3));

  // The recovered participant holds the in-doubt lock; a newer conflicting
  // transaction cannot take it.
  EXPECT_TRUE(P(0).locks().Holds(txn, Participant::DataKey("x"), LockMode::kExclusive));

  // The coordinator's host returns; presumed abort resolves the branch.
  client_host_->Restart();
  sim_.RunFor(Duration::Seconds(30));
  EXPECT_EQ(P(0).locks().num_locked_keys(), 0u);
  EXPECT_EQ(CommittedAt(0, "x"), "<NOT_FOUND>");
}

TEST_F(TwoPhaseCommitTest, MultiKeyAtomicity) {
  TxnId txn = coordinator_->Begin();
  ASSERT_TRUE(LockAt(0, txn, "a").ok());
  ASSERT_TRUE(LockAt(0, txn, "b").ok());
  std::map<HostId, WriteIntents> writes;
  writes[Hid(0)] = {WriteIntent("a", "1"), WriteIntent("b", "2")};
  ASSERT_TRUE(Commit2PC(txn, std::move(writes)).ok());
  EXPECT_EQ(CommittedAt(0, "a"), "1");
  EXPECT_EQ(CommittedAt(0, "b"), "2");
}

// The coordinator recycles its fan-out scratch, so concurrent fan-outs must
// never share one: A and C prepare at a participant with a slow disk at the
// same time, while B's prepare fails and its abort fan-out runs. Each gets
// exactly its own votes and outcome, and every scratch returns to the free
// list once its fan-out ends.
TEST_F(TwoPhaseCommitTest, ConcurrentFanOutsKeepTheirOwnVotes) {
  const int slow = AddNode("slow", Duration::Millis(200));
  const TxnId a = coordinator_->Begin();
  const TxnId b = coordinator_->Begin();
  const TxnId c = coordinator_->Begin();
  ASSERT_TRUE(LockAt(0, a, "x").ok());
  ASSERT_TRUE(LockAt(slow, a, "x").ok());
  ASSERT_TRUE(LockAt(1, b, "y").ok());  // none at p2: its prepare there votes no
  ASSERT_TRUE(LockAt(1, c, "z").ok());
  ASSERT_TRUE(LockAt(slow, c, "z").ok());
  EXPECT_EQ(coordinator_->idle_fanouts(), 0u);

  std::map<HostId, WriteIntents> writes_a;
  writes_a[Hid(0)] = {WriteIntent("x", "from-a")};
  writes_a[Hid(slow)] = {WriteIntent("x", "from-a")};
  std::map<HostId, WriteIntents> writes_b;
  writes_b[Hid(1)] = {WriteIntent("y", "from-b")};
  writes_b[Hid(2)] = {WriteIntent("y", "from-b")};
  std::map<HostId, WriteIntents> writes_c;
  writes_c[Hid(1)] = {WriteIntent("z", "from-c")};
  writes_c[Hid(slow)] = {WriteIntent("z", "from-c")};
  auto out_a = SpawnCommit(a, std::move(writes_a));
  auto out_b = SpawnCommit(b, std::move(writes_b));
  auto out_c = SpawnCommit(c, std::move(writes_c));

  // B's no-vote and abort fan-out finish while A and C still wait on the
  // slow disk; B handed back its prepare and its abort scratch.
  sim_.RunFor(Duration::Millis(100));
  ASSERT_TRUE(out_b->has_value());
  EXPECT_EQ((*out_b)->code(), StatusCode::kAborted);
  EXPECT_NE((*out_b)->ToString().find("prepare without exclusive lock on y"),
            std::string::npos)
      << (*out_b)->ToString();
  EXPECT_FALSE(out_a->has_value());
  EXPECT_FALSE(out_c->has_value());
  EXPECT_EQ(coordinator_->idle_fanouts(), 2u);

  sim_.RunFor(Duration::Seconds(60));
  ASSERT_TRUE(out_a->has_value());
  ASSERT_TRUE(out_c->has_value());
  EXPECT_TRUE((*out_a)->ok()) << (*out_a)->ToString();
  EXPECT_TRUE((*out_c)->ok()) << (*out_c)->ToString();
  EXPECT_EQ(CommittedAt(0, "x"), "from-a");
  EXPECT_EQ(CommittedAt(slow, "x"), "from-a");
  EXPECT_EQ(CommittedAt(1, "z"), "from-c");
  EXPECT_EQ(CommittedAt(slow, "z"), "from-c");
  EXPECT_EQ(CommittedAt(1, "y"), "<NOT_FOUND>");
  EXPECT_EQ(CommittedAt(2, "y"), "<NOT_FOUND>");
  for (int i : {0, 1, 2, slow}) {
    EXPECT_EQ(P(i).locks().num_locked_keys(), 0u) << "participant " << i;
  }
  EXPECT_EQ(coordinator_->stats().committed, 2u);
  EXPECT_EQ(coordinator_->stats().aborted, 1u);
  // Four scratches served five fan-outs, and all are back.
  EXPECT_EQ(coordinator_->idle_fanouts(), 4u);
}

// A commit frame destroyed mid-fan-out frees its scratch instead of handing
// it back: the join's stragglers may still hold it.
TEST_F(TwoPhaseCommitTest, DestroyedCommitFrameDoesNotRecycleItsScratch) {
  const int slow = AddNode("slow", Duration::Millis(200));
  const TxnId first = coordinator_->Begin();
  ASSERT_TRUE(LockAt(0, first, "x").ok());
  std::map<HostId, WriteIntents> writes;
  writes[Hid(0)] = {WriteIntent("x", "1")};
  ASSERT_TRUE(Commit2PC(first, std::move(writes)).ok());
  EXPECT_EQ(coordinator_->idle_fanouts(), 1u);

  const TxnId txn = coordinator_->Begin();
  ASSERT_TRUE(LockAt(slow, txn, "x").ok());
  std::vector<WriterIntents> writers;
  writers.push_back(WriterIntents{Hid(slow), {WriteIntent("x", "2")}});
  Task<Status> commit = coordinator_->CommitTransaction(txn, writers, {});
  auto start = [](Task<Status>* commit) -> Task<void> { (void)co_await std::move(*commit); };
  Spawn(start(&commit));
  sim_.RunFor(Duration::Millis(50));  // the prepare waits on the slow disk
  EXPECT_EQ(coordinator_->idle_fanouts(), 0u);
  commit = Task<Status>();  // destroys the frame mid-fan-out
  EXPECT_EQ(coordinator_->idle_fanouts(), 0u);
  // The prepare's straggler still points into the freed scratch, so the
  // simulator does not run again; teardown destroys its parked events.
}

}  // namespace
}  // namespace wvote
