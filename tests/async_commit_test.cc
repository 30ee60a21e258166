// Asynchronous phase-2 commit: the client's success ack precedes the
// commit fan-out, so a committed write costs two round trips instead of
// three — and every crash between the durable decision and phase-2
// delivery must still converge all participants to the committed value.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/chaos/nemesis.h"
#include "src/txn/coordinator.h"
#include "src/txn/participant.h"
#include "src/trace/trace.h"

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

class AsyncCommitTest : public ::testing::Test {
 protected:
  AsyncCommitTest() : sim_(1), net_(&sim_), trace_log_(&sim_, 256) {
    net_.SetDefaultLink(LatencyModel::Fixed(Duration::Millis(5)));
    // Background phase-2 work records kPhase2Completed breadcrumbs here;
    // the causality tests below assert on them by owning txn id.
    net_.SetTraceLog(&trace_log_);
    for (int i = 0; i < 3; ++i) {
      auto node = std::make_unique<Node>();
      node->host = net_.AddHost("p" + std::to_string(i));
      node->rpc = std::make_unique<RpcEndpoint>(&net_, node->host);
      node->store = std::make_unique<StableStore>(&sim_, node->host,
                                                  LatencyModel::Fixed(Duration::Millis(2)),
                                                  LatencyModel::Fixed(Duration::Millis(1)));
      ParticipantOptions popts;
      popts.indoubt_resolution_timeout = Duration::Seconds(15);
      node->participant =
          std::make_unique<Participant>(node->rpc.get(), node->store.get(), popts);
      nodes_.push_back(std::move(node));
    }
    client_host_ = net_.AddHost("client");
    client_rpc_ = std::make_unique<RpcEndpoint>(&net_, client_host_);
    client_store_ = std::make_unique<StableStore>(&sim_, client_host_,
                                                  LatencyModel::Fixed(Duration::Millis(2)),
                                                  LatencyModel::Fixed(Duration::Millis(1)));
    coordinator_ = std::make_unique<Coordinator>(client_rpc_.get(), client_store_.get());
  }

  // Timeline with these latencies (5ms hop, 2ms disk write): prepare lands
  // at ~7ms, its ack at ~12ms, the decision is durable at ~14ms. The
  // asynchronous commit acks the client there; the CommitReq reaches a
  // participant at ~19ms and the apply finishes at ~23ms.

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

  // Spawns CommitTransaction without running the simulator, so tests can
  // observe the exact moment the client ack arrives.
  std::shared_ptr<std::optional<Status>> SpawnCommit(
      TxnId txn, std::map<HostId, WriteIntents> writes) {
    auto out = std::make_shared<std::optional<Status>>();
    auto runner = [](Coordinator* coord, TxnId txn,
                     std::map<HostId, WriteIntents> writes,
                     std::shared_ptr<std::optional<Status>> out) -> Task<void> {
      std::vector<WriterIntents> writers = Writers(std::move(writes));
      *out = co_await coord->CommitTransaction(txn, writers, {});
    };
    Spawn(runner(coordinator_.get(), txn, std::move(writes), out));
    return out;
  }

  // Phase-targeted crash on kTxnPrepared that lets the yes vote out first:
  // participant `i` crashes right after its PrepareReq reply is on the wire
  // (the crash is queued behind the send instead of running inside the
  // trace record) and restarts `downtime` later, so its recovery asks the
  // coordinator about a transaction the coordinator may still be deciding.
  void CrashAfterYesVote(int i, Duration downtime) {
    Host* host = nodes_[static_cast<size_t>(i)]->host;
    auto fired = std::make_shared<bool>(false);
    trace_log_.AddObserver([this, host, downtime, fired](const TraceEvent& ev) {
      if (*fired || ev.kind != TraceKind::kTxnPrepared || ev.host != host->id()) {
        return;
      }
      *fired = true;
      sim_.Schedule(Duration::Zero(), [host] { host->Crash(); });
      sim_.Schedule(downtime, [host] { host->Restart(); });
    });
  }

  HostId Hid(int i) { return nodes_[static_cast<size_t>(i)]->host->id(); }
  Participant& P(int i) { return *nodes_[static_cast<size_t>(i)]->participant; }

  std::string CommittedAt(int i, const std::string& key) {
    Result<std::string> r = P(i).PeekCommitted(key);
    return r.ok() ? r.value() : "<" + std::string(StatusCodeName(r.status().code())) + ">";
  }

  Simulator sim_;
  Network net_;
  TraceLog trace_log_;
  std::vector<std::unique_ptr<Node>> nodes_;
  Host* client_host_ = nullptr;
  std::unique_ptr<RpcEndpoint> client_rpc_;
  std::unique_ptr<StableStore> client_store_;
  std::unique_ptr<Coordinator> coordinator_;
};

TEST_F(AsyncCommitTest, ClientAckPrecedesPhase2Delivery) {
  TxnId txn = coordinator_->Begin();
  ASSERT_TRUE(LockAt(0, txn, "x").ok());

  std::map<HostId, WriteIntents> writes;
  writes[Hid(0)] = {WriteIntent("x", "v")};
  auto out = SpawnCommit(txn, std::move(writes));

  // 15ms covers prepare + decision log (ack at ~14ms) but not the commit
  // message (arrives ~19ms): the client holds success while the participant
  // has not yet installed.
  sim_.RunFor(Duration::Millis(15));
  ASSERT_TRUE(out->has_value());
  EXPECT_TRUE((*out)->ok()) << (*out)->ToString();
  EXPECT_EQ(CommittedAt(0, "x"), "<NOT_FOUND>");
  EXPECT_EQ(coordinator_->stats().async_phase2_spawned, 1u);
  EXPECT_EQ(coordinator_->stats().async_phase2_completed, 0u);
  // Causality, not just counters: at ack time the background fan-out has
  // recorded no completion event yet.
  EXPECT_EQ(trace_log_.CountOf(TraceKind::kPhase2Completed), 0u);

  // Draining the background fan-out installs the value everywhere.
  sim_.RunFor(Duration::Seconds(2));
  EXPECT_EQ(CommittedAt(0, "x"), "v");
  EXPECT_EQ(coordinator_->stats().async_phase2_completed, 1u);
  EXPECT_EQ(P(0).locks().num_locked_keys(), 0u);
  // ... and afterwards exactly one completion event names the owning
  // transaction, attributed to the coordinator host.
  std::vector<TraceEvent> done = trace_log_.OfKind(TraceKind::kPhase2Completed);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NE(done[0].detail.find(txn.ToString()), std::string::npos) << done[0].detail;
  EXPECT_NE(done[0].detail.find("fanout"), std::string::npos);
  EXPECT_EQ(done[0].host, client_host_->id());
}

TEST_F(AsyncCommitTest, SyncModePaysTheThirdRoundTrip) {
  coordinator_->set_sync_phase2(true);
  TxnId txn = coordinator_->Begin();
  ASSERT_TRUE(LockAt(0, txn, "x").ok());

  std::map<HostId, WriteIntents> writes;
  writes[Hid(0)] = {WriteIntent("x", "v")};
  auto out = SpawnCommit(txn, std::move(writes));

  // At 15ms the decision is durable but the synchronous commit is still
  // waiting for participant acknowledgements.
  sim_.RunFor(Duration::Millis(15));
  EXPECT_FALSE(out->has_value());

  sim_.RunFor(Duration::Seconds(2));
  ASSERT_TRUE(out->has_value());
  EXPECT_TRUE((*out)->ok());
  // By the time the client hears success the value is already installed.
  EXPECT_EQ(CommittedAt(0, "x"), "v");
  EXPECT_EQ(coordinator_->stats().async_phase2_spawned, 0u);
}

TEST_F(AsyncCommitTest, CoordinatorCrashAfterAckConvergesViaWatchdog) {
  // The correctness bar: the client holds a success ack but phase 2 never
  // reaches the participant. Instead of guessing the window with wall-clock
  // offsets, arm a phase-targeted one-shot crash on the kDecisionLogged
  // breadcrumb: the coordinator host dies at the exact instant the decision
  // is durable and before any CommitReq is sent, so no retrier survives.
  // The participant never restarts, so the only convergence path is its
  // in-doubt watchdog inquiring at the restarted coordinator host, whose
  // durable decision log answers COMMIT.
  TxnId txn = coordinator_->Begin();
  ASSERT_TRUE(LockAt(0, txn, "x").ok());

  FaultInjectorStats fault_stats;
  ArmPhaseCrash(&sim_, &trace_log_, client_host_, TraceKind::kDecisionLogged,
                /*downtime=*/Duration::Millis(100), &fault_stats);

  std::map<HostId, WriteIntents> writes;
  writes[Hid(0)] = {WriteIntent("x", "survives")};
  auto out = SpawnCommit(txn, std::move(writes));
  sim_.RunFor(Duration::Millis(30));
  ASSERT_TRUE(out->has_value());
  EXPECT_TRUE((*out)->ok()) << "decision was durable before the crash: the ack stands";
  EXPECT_EQ(fault_stats.phase_crashes, 1u);
  EXPECT_EQ(CommittedAt(0, "x"), "<NOT_FOUND>") << "no CommitReq ever left the coordinator";

  // The host restarted after its 100ms downtime; the participant never
  // restarts. The watchdog armed at prepare time fires after 15s and
  // resolves through the durable decision log.
  sim_.RunFor(Duration::Seconds(30));

  EXPECT_EQ(CommittedAt(0, "x"), "survives");
  EXPECT_EQ(P(0).locks().num_locked_keys(), 0u);
  EXPECT_GE(P(0).stats().indoubt_timer_fired, 1u);
}

TEST_F(AsyncCommitTest, ParticipantDownDuringPhase2ConvergesOnRestart) {
  // One writer is down when the commit fan-out reaches it; the coordinator's
  // retrier (and the participant's own recovery inquiry) deliver the
  // decision once the host returns.
  TxnId txn = coordinator_->Begin();
  ASSERT_TRUE(LockAt(0, txn, "x").ok());
  ASSERT_TRUE(LockAt(1, txn, "x").ok());

  std::map<HostId, WriteIntents> writes;
  writes[Hid(0)] = {WriteIntent("x", "v")};
  writes[Hid(1)] = {WriteIntent("x", "v")};
  auto out = SpawnCommit(txn, std::move(writes));
  sim_.Schedule(Duration::Millis(15), [this] { nodes_[1]->host->Crash(); });
  sim_.RunFor(Duration::Seconds(2));
  ASSERT_TRUE(out->has_value());
  EXPECT_TRUE((*out)->ok()) << "prepared everywhere: the decision is commit";
  EXPECT_EQ(CommittedAt(0, "x"), "v");

  nodes_[1]->host->Restart();
  sim_.RunFor(Duration::Seconds(60));
  EXPECT_EQ(CommittedAt(1, "x"), "v");
  EXPECT_EQ(P(1).locks().num_locked_keys(), 0u);

  // The 2s outage is shorter than the fan-out's bounded retries, so the
  // fan-out itself converged; its completion breadcrumb names the txn.
  bool fanout_done = false;
  for (const TraceEvent& ev : trace_log_.OfKind(TraceKind::kPhase2Completed)) {
    fanout_done |= ev.detail.find(txn.ToString()) != std::string::npos &&
                   ev.detail.find("fanout") != std::string::npos;
  }
  EXPECT_TRUE(fanout_done);
}

TEST_F(AsyncCommitTest, RetrierRecordsCompletionForTheOwningTxn) {
  // Keep the participant down past the fan-out's bounded retries (3 x 5s
  // rpc timeout), so the coordinator hands it to a background retrier; the
  // retrier's eventual delivery must leave a breadcrumb naming the owning
  // transaction and the participant it converged.
  TxnId txn = coordinator_->Begin();
  ASSERT_TRUE(LockAt(0, txn, "x").ok());
  std::map<HostId, WriteIntents> writes;
  writes[Hid(0)] = {WriteIntent("x", "v")};
  auto out = SpawnCommit(txn, std::move(writes));
  sim_.Schedule(Duration::Millis(15), [this] { nodes_[0]->host->Crash(); });
  sim_.Schedule(Duration::Seconds(20), [this] { nodes_[0]->host->Restart(); });
  sim_.RunFor(Duration::Seconds(60));
  ASSERT_TRUE(out->has_value());
  EXPECT_TRUE((*out)->ok()) << "decision was durable before the crash";
  EXPECT_EQ(CommittedAt(0, "x"), "v");

  bool retrier_done = false;
  for (const TraceEvent& ev : trace_log_.OfKind(TraceKind::kPhase2Completed)) {
    retrier_done |= ev.detail.find(txn.ToString()) != std::string::npos &&
                    ev.detail.find("retrier participant=" +
                                   std::to_string(Hid(0))) != std::string::npos;
  }
  EXPECT_TRUE(retrier_done);
}

TEST_F(AsyncCommitTest, AckedWritesAreNeverLostOrReorderedUnderFaults) {
  // Five acked commits to the same key, with the participant crashed and
  // restarted mid-sequence (including once between an ack and its apply).
  // After every fault drains, the surviving value is the last ack — no
  // acked write is lost, none applies out of order.
  std::string last_acked;
  for (int i = 1; i <= 5; ++i) {
    TxnId txn = coordinator_->Begin();
    ASSERT_TRUE(LockAt(0, txn, "x").ok()) << "write " << i;
    const std::string value = "v" + std::to_string(i);
    std::map<HostId, WriteIntents> writes;
    writes[Hid(0)] = {WriteIntent("x", value)};
    auto out = SpawnCommit(txn, std::move(writes));
    if (i == 3) {
      // Crash after the ack (14ms) but before the apply (23ms), then
      // restart; recovery resolves the in-doubt record to COMMIT.
      sim_.Schedule(Duration::Millis(16), [this] { nodes_[0]->host->Crash(); });
      sim_.Schedule(Duration::Millis(200), [this] { nodes_[0]->host->Restart(); });
    }
    sim_.RunFor(Duration::Seconds(30));
    ASSERT_TRUE(out->has_value()) << "write " << i;
    ASSERT_TRUE((*out)->ok()) << "write " << i << ": " << (*out)->ToString();
    last_acked = value;
    EXPECT_EQ(CommittedAt(0, "x"), last_acked) << "after write " << i;
  }
  EXPECT_EQ(CommittedAt(0, "x"), "v5");
  EXPECT_EQ(P(0).locks().num_locked_keys(), 0u);
}

TEST_F(AsyncCommitTest, InquiryDuringPhaseOneMakesTheAbortBinding) {
  // p0 votes yes, crashes, and is back 1ms later; its recovery inquiry
  // reaches the coordinator (~13ms) while p1, behind a 60ms link, has not
  // voted yet. The coordinator answers abort and p0 drops its prepared
  // write. Committing after p1's vote (~122ms) would lose the write at p0
  // while the client holds an ack, so the coordinator must abort instead.
  net_.SetSymmetricLink(Hid(1), client_host_->id(), LatencyModel::Fixed(Duration::Millis(60)));
  TxnId txn = coordinator_->Begin();
  ASSERT_TRUE(LockAt(0, txn, "x").ok());
  ASSERT_TRUE(LockAt(1, txn, "x").ok());
  CrashAfterYesVote(0, Duration::Millis(1));

  std::map<HostId, WriteIntents> writes;
  writes[Hid(0)] = {WriteIntent("x", "v")};
  writes[Hid(1)] = {WriteIntent("x", "v")};
  auto out = SpawnCommit(txn, std::move(writes));
  sim_.RunFor(Duration::Seconds(30));

  ASSERT_TRUE(out->has_value());
  EXPECT_EQ((*out)->code(), StatusCode::kAborted) << (*out)->ToString();
  EXPECT_EQ(P(0).stats().recovered_in_doubt, 1u);
  EXPECT_EQ(CommittedAt(0, "x"), "<NOT_FOUND>");
  EXPECT_EQ(CommittedAt(1, "x"), "<NOT_FOUND>");
  EXPECT_EQ(P(0).locks().num_locked_keys(), 0u);
  EXPECT_EQ(P(1).locks().num_locked_keys(), 0u);
}

TEST_F(AsyncCommitTest, InquiryDuringDecisionWriteGetsItsOutcome) {
  // A 20x slow coordinator disk: the commit record's write runs ~12-52ms,
  // and p0's recovery inquiry finishes its decision-log read (~33ms) with
  // the record still in flight. The answer must be that write's outcome,
  // commit, not the presumed abort of an absent record.
  StoreFaults slow_disk;
  slow_disk.latency_multiplier = 20.0;
  client_store_->SetFaults(slow_disk);
  TxnId txn = coordinator_->Begin();
  ASSERT_TRUE(LockAt(0, txn, "x").ok());
  CrashAfterYesVote(0, Duration::Millis(1));

  std::map<HostId, WriteIntents> writes;
  writes[Hid(0)] = {WriteIntent("x", "v")};
  auto out = SpawnCommit(txn, std::move(writes));
  sim_.RunFor(Duration::Seconds(30));

  ASSERT_TRUE(out->has_value());
  EXPECT_TRUE((*out)->ok()) << (*out)->ToString();
  EXPECT_EQ(P(0).stats().recovered_in_doubt, 1u);
  EXPECT_EQ(CommittedAt(0, "x"), "v");
  EXPECT_EQ(P(0).locks().num_locked_keys(), 0u);
}

TEST_F(AsyncCommitTest, WatchdogLeavesDecidedTransactionsAlone) {
  // Healthy path: phase 2 lands long before the watchdog's timeout, so the
  // timer observes a decided transaction and stands down.
  TxnId txn = coordinator_->Begin();
  ASSERT_TRUE(LockAt(0, txn, "x").ok());
  std::map<HostId, WriteIntents> writes;
  writes[Hid(0)] = {WriteIntent("x", "v")};
  auto out = SpawnCommit(txn, std::move(writes));
  sim_.RunFor(Duration::Seconds(60));
  ASSERT_TRUE(out->has_value());
  EXPECT_TRUE((*out)->ok());
  EXPECT_EQ(CommittedAt(0, "x"), "v");
  EXPECT_EQ(P(0).stats().indoubt_timer_fired, 0u);
}

}  // namespace
}  // namespace wvote
