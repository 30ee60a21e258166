// Transaction participant: the server-side half of the substrate.
//
// One Participant runs on each representative's host. It owns the volatile
// lock table, the durable intentions log, and the durable data pages, and
// serves the lock / transactional-read / prepare / commit / abort RPCs.
//
// Crash behavior: the lock table clears (Host crash listener); in-flight
// disk operations abort. On restart, recovery re-applies committed records,
// re-locks and resolves prepared (in-doubt) records by asking their
// coordinators, and only then opens for business.

#ifndef WVOTE_SRC_TXN_PARTICIPANT_H_
#define WVOTE_SRC_TXN_PARTICIPANT_H_

#include <algorithm>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/rpc/rpc.h"
#include "src/storage/stable_store.h"
#include "src/txn/intentions_log.h"
#include "src/txn/lock_manager.h"
#include "src/txn/messages.h"

namespace wvote {

struct ParticipantStats {
  uint64_t prepares_ok = 0;
  uint64_t prepares_refused = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t recoveries = 0;
  uint64_t recovered_committed = 0;
  uint64_t recovered_in_doubt = 0;
  uint64_t leases_expired = 0;  // orphaned transactions swept
  uint64_t indoubt_timer_fired = 0;  // prepared txns resolved by the
                                     // in-doubt watchdog, not by phase 2

  void Reset() { *this = ParticipantStats{}; }
  // Registers every field as `txn.participant.*{labels}`; this struct must
  // outlive `registry`'s use of it.
  void RegisterWith(MetricsRegistry* registry, const MetricLabels& labels = {});
};

struct ParticipantOptions {
  // Retransmission interval for in-doubt decision inquiries.
  Duration inquiry_interval = Duration::Seconds(1);
  // Orphan-lock lease: locks whose transaction shows no progress for this
  // long are presumed abandoned (crashed client, lost reply) and released —
  // EXCEPT locks of prepared transactions, which must hold until their 2PC
  // outcome is known. Zero disables the sweeper. Must be much longer than
  // any legitimate transaction.
  Duration lock_lease = Duration::Seconds(60);
  // How long a prepared transaction may sit undecided before this
  // participant asks the coordinator itself. With the coordinator's phase 2
  // running off the client's critical path, the coordinator can crash after
  // the decision is durable but before any CommitReq lands; this timer
  // guarantees convergence without waiting for a participant restart. Must
  // comfortably exceed a healthy phase-2 delivery (one round trip). Zero
  // disables the timer (in-doubt records then resolve only via recovery).
  Duration indoubt_resolution_timeout = Duration::Seconds(15);
};

class Participant {
 public:
  Participant(RpcEndpoint* rpc, StableStore* store, ParticipantOptions options = {});

  LockManager& locks() { return locks_; }
  StableStore& store() { return *store_; }
  const ParticipantStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  // Registers this participant's counters and its lock manager's, labeled
  // by host name.
  void RegisterMetrics(MetricsRegistry* registry);

  // Key of the durable page backing application object `key`.
  static std::string DataKey(const std::string& key) { return std::string(kDataPrefix) + key; }

  // Latency-free committed read; the voting layer uses this for version
  // inquiries that do not take locks.
  Result<std::string> PeekCommitted(const std::string& key) const;

  // Local (same-host) transactional operations, used when a client or a
  // suite component is co-resident with the representative. A valid `ctx`
  // parents the lock-wait and disk child spans this work records.
  Task<Status> Lock(TxnId txn, std::string key, LockMode mode,
                    TraceContext ctx = TraceContext());
  // An S-locked read, and Lock, on a page named by its DataKey, which must
  // stay valid until the returned task completes: callers that keep their
  // page keys (the representative's per-suite keys) skip building them per
  // request.
  Task<Result<std::string>> ReadPage(TxnId txn, const std::string& data_key,
                                     TraceContext ctx = TraceContext());
  Task<Status> LockPage(TxnId txn, const std::string& data_key, LockMode mode,
                        TraceContext ctx = TraceContext());
  Task<Status> Prepare(TxnId txn, WriteIntents writes,
                       TraceContext ctx = TraceContext());
  Task<Status> Commit(TxnId txn, TraceContext ctx = TraceContext());
  Task<Status> Abort(TxnId txn, TraceContext ctx = TraceContext());

 private:
  void RegisterHandlers();
  Task<void> Recover();

  // Applies a committed record's intents to the data pages (one
  // group-committed batch), then GCs the record. `writes` need stay valid
  // only until the call first suspends.
  Task<Status> ApplyCommitted(TxnId txn, std::span<const IntentView> writes,
                              TraceContext ctx = TraceContext());
  // Resolves one in-doubt prepared transaction by querying its coordinator.
  Task<void> ResolveInDoubt(TxnId txn);
  // Watchdog armed at prepare time: if the transaction is still undecided
  // after options_.indoubt_resolution_timeout, resolve it by inquiry. Holds
  // only the id, so a prepared write pins no copy of its intents meanwhile.
  Task<void> ResolveIfStillInDoubt(TxnId txn);

  static constexpr std::string_view kDataPrefix = "data/";

  // A set of transactions as a sorted vector that keeps its capacity, so a
  // steady stream of prepares and commits inserts and erases without heap
  // allocation. It holds the few transactions in flight at one host.
  class TxnSet {
   public:
    bool contains(const TxnId& txn) const {
      return std::binary_search(txns_.begin(), txns_.end(), txn);
    }
    void insert(const TxnId& txn) {
      auto it = std::lower_bound(txns_.begin(), txns_.end(), txn);
      if (it == txns_.end() || *it != txn) {
        txns_.insert(it, txn);
      }
    }
    void erase(const TxnId& txn) {
      auto it = std::lower_bound(txns_.begin(), txns_.end(), txn);
      if (it != txns_.end() && *it == txn) {
        txns_.erase(it);
      }
    }
    void clear() { txns_.clear(); }

   private:
    std::vector<TxnId> txns_;
  };

  RpcEndpoint* rpc_;
  StableStore* store_;
  ParticipantOptions options_;
  LockManager locks_;
  IntentionsLog log_;
  // Transactions currently prepared here (volatile mirror of the durable
  // log); their locks are exempt from lease expiry.
  TxnSet prepared_;
  // Transactions whose commit decision has reached this participant and are
  // in the apply/release tail. Their locks release within a few disk
  // writes, so the lock manager lets younger requesters wait on them
  // instead of dying (see LockManager::SetWaitPolicy).
  TxnSet committing_;
  // Page keys and the page list a prepare or an apply builds: used before
  // the work first suspends (the store copies writes at once), so they
  // serve every transaction and keep their capacity.
  std::vector<std::string> page_keys_;
  std::vector<PageWrite> pages_;
  ParticipantStats stats_;
};

}  // namespace wvote

#endif  // WVOTE_SRC_TXN_PARTICIPANT_H_
