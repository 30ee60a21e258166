// Presumed-abort two-phase commit coordinator.
//
// Runs on a client host. The commit decision is logged durably on the
// coordinator's own stable storage *before* any participant learns it;
// recovering participants resolve in-doubt transactions by asking this host
// (DecisionInquiryReq), and a missing decision record safely means "abort"
// because the coordinator never reports success before logging. An abort
// answered while the transaction is still in phase 1 binds the coordinator:
// the participant that asked has already dropped its prepared writes, so
// the transaction aborts instead of logging commit. An inquiry that arrives
// while the commit record is being written waits for that write's outcome.

#ifndef WVOTE_SRC_TXN_COORDINATOR_H_
#define WVOTE_SRC_TXN_COORDINATOR_H_

#include <map>
#include <span>
#include <string_view>
#include <vector>

#include "src/rpc/rpc.h"
#include "src/sim/future.h"
#include "src/storage/stable_store.h"
#include "src/txn/messages.h"
#include "src/txn/txn_id.h"

namespace wvote {

struct CoordinatorOptions {
  // When false (the default), CommitTransaction returns success as soon as
  // the commit decision is durable and phase 2 runs as a background task:
  // the committed write costs the client two round trips (prepare + the
  // gather that granted its locks) instead of three. Safe because the
  // outcome is already decided — the decision record plus the retry /
  // inquiry machinery delivers it to every participant eventually, crash or
  // not. Set true to pin the literal synchronous protocol (the analytic
  // model's 3-RTT closed form); model-validating benches and protocol
  // tests do.
  bool sync_phase2 = false;
};

struct CoordinatorStats {
  uint64_t begun = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t inquiries_served = 0;
  uint64_t async_phase2_spawned = 0;    // phase-2 fan-outs moved off the
                                        // client's critical path
  uint64_t async_phase2_completed = 0;  // of those, fan-outs that delivered
                                        // (or handed off to retriers)

  void Reset() { *this = CoordinatorStats{}; }
  // Registers every field as `txn.coordinator.*{labels}`; this struct must
  // outlive `registry`'s use of it.
  void RegisterWith(MetricsRegistry* registry, const MetricLabels& labels = {});
};

class Coordinator {
 public:
  Coordinator(RpcEndpoint* rpc, StableStore* store, CoordinatorOptions options = {});

  TxnId Begin();

  // Begins a transaction with an explicit timestamp. Retrying an aborted
  // transaction with its ORIGINAL timestamp is what gives wait-die its
  // progress guarantee: the retry ages relative to newer transactions and
  // eventually wins every conflict.
  TxnId BeginAt(int64_t timestamp_us);

  // Drives 2PC: prepare at every writer, durably log the decision, commit.
  // Read-only participants just get their locks released. Returns OK only
  // after the decision is durable and commit messages are on their way —
  // with sync_phase2, only after every participant acknowledged (or was
  // handed to a background retrier). A valid `ctx` records phase.prepare /
  // phase.disk / phase.commit_ack child spans, and the background phase-2
  // fan-out and retriers continue the same trace after the client's ack.
  // `read_only_participants` must outlive the returned task; a read-only
  // commit reads it only before its first suspension.
  Task<Status> CommitTransaction(TxnId txn,
                                 std::map<HostId, std::vector<WriteIntent>> writes,
                                 std::span<const HostId> read_only_participants,
                                 TraceContext ctx = TraceContext());

  // Aborts everywhere; best-effort (participants presume abort anyway).
  // Reads `participants` only before its first suspension.
  Task<void> AbortTransaction(TxnId txn, std::span<const HostId> participants,
                              TraceContext ctx = TraceContext());

  const CoordinatorStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  // Flips between the asynchronous (2-RTT) and literal synchronous (3-RTT)
  // commit; benches toggle this per run on an already-deployed cluster.
  void set_sync_phase2(bool sync) { options_.sync_phase2 = sync; }
  bool sync_phase2() const { return options_.sync_phase2; }

  // Registers this coordinator's counters, labeled by host name.
  void RegisterMetrics(MetricsRegistry* registry);

 private:
  // Page key prefix of the durable commit decisions.
  static constexpr std::string_view kDecisionPrefix = "decision/";
  Task<Status> SendPhase2(TxnId txn, std::vector<HostId> writers,
                          std::vector<HostId> read_only, TraceContext ctx);
  // Spawned wrapper around SendPhase2 for the asynchronous commit path.
  Task<void> RunPhase2InBackground(TxnId txn, std::vector<HostId> writers,
                                   std::vector<HostId> read_only, TraceContext ctx);
  Task<void> RetryCommitForever(TxnId txn, HostId participant, TraceContext ctx);

  // A transaction between the start of phase 1 and its durable decision.
  struct Undecided {
    bool doomed = false;            // an inquiry was answered abort
    bool logging_decision = false;  // the commit record is being written
    std::vector<Promise<bool>> inquiries;  // waiting for that write
  };

  RpcEndpoint* rpc_;
  StableStore* store_;
  CoordinatorOptions options_;
  std::map<TxnId, Undecided> undecided_;
  uint64_t next_serial_ = 1;
  CoordinatorStats stats_;
};

}  // namespace wvote

#endif  // WVOTE_SRC_TXN_COORDINATOR_H_
