// Per-server lock manager with wait-die deadlock avoidance.
//
// Gifford's representatives serialize access with read (shared) and write
// (exclusive) locks held until transaction end (strict two-phase locking).
// Distributed deadlock is avoided with the classic wait-die rule: a
// requester older than every conflicting holder is allowed to wait; a
// younger requester is refused immediately (kConflict) and its transaction
// aborts and may retry — keeping its original timestamp so it eventually
// becomes the oldest and succeeds.
//
// The lock table is volatile: a crash clears it (callers re-acquire after
// recovery), which is exactly what happens to lock state on a real server.
//
// The table holds only locked keys. A key's entry is freed when its last
// holder and waiter leave; freed entries go, up to kMaxFreeEntries, to a free
// list that keeps their key and holder/waiter storage for the next newly
// locked key, so a steady stream of lock/release cycles allocates nothing.

#ifndef WVOTE_SRC_TXN_LOCK_MANAGER_H_
#define WVOTE_SRC_TXN_LOCK_MANAGER_H_

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/sim/future.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/trace/span.h"
#include "src/txn/txn_id.h"

namespace wvote {

enum class LockMode { kShared, kExclusive };

inline const char* LockModeName(LockMode m) {
  return m == LockMode::kShared ? "S" : "X";
}

struct LockManagerStats {
  uint64_t grants_immediate = 0;
  uint64_t grants_after_wait = 0;
  uint64_t dies = 0;      // wait-die refusals
  uint64_t timeouts = 0;  // waiters that gave up
  uint64_t upgrades = 0;  // S -> X upgrades
  uint64_t leases_expired = 0;  // orphaned holders swept by the lease policy
  uint64_t waits_on_committing = 0;  // wait-die deaths converted to waits by
                                     // the committing-holder wait policy
  uint64_t waits_on_courtesy = 0;    // wait-die deaths converted to waits
                                     // because the holder is a courtesy txn

  void Reset() { *this = LockManagerStats{}; }
  // Registers every field as `txn.lock_manager.*{labels}`; this struct must
  // outlive `registry`'s use of it.
  void RegisterWith(MetricsRegistry* registry, const MetricLabels& labels = {});
};

class LockManager {
 public:
  // Freed table entries kept for reuse.
  static constexpr size_t kMaxFreeEntries = 8;

  explicit LockManager(Simulator* sim) : sim_(sim) { free_entries_.reserve(kMaxFreeEntries); }

  // Acquires `mode` on `key` for `txn`, waiting up to `timeout` if the
  // wait-die rule permits waiting. Re-acquiring a held lock is a no-op;
  // S -> X upgrade succeeds immediately when txn is the sole holder.
  // A valid `ctx` records a "phase.lock_wait" child span — only when the
  // request actually parks (immediate grants and dies produce no span).
  // `key` must stay valid until the returned task completes.
  Task<Status> Acquire(TxnId txn, const std::string& key, LockMode mode, Duration timeout,
                       TraceContext ctx = TraceContext());

  // Lock-wait spans are attributed to `host` (the owning participant).
  void SetTracer(Tracer* tracer, HostId host) {
    tracer_ = tracer;
    host_ = host;
  }

  // Releases every lock held by `txn` and wakes eligible waiters.
  void ReleaseAll(TxnId txn);

  // Installs the orphan-lock lease policy: when an Acquire encounters a
  // holder granted more than `lease` ago that `exempt` does not protect, the
  // holder's transaction is presumed dead and released. Zero disables. This
  // is the orphan-lock backstop: a client that crashed or lost its reply
  // after a probe was granted never sends an explicit release.
  void SetLeasePolicy(Duration lease, std::function<bool(const TxnId&)> exempt);

  // Installs the committing-holder wait policy: a younger requester that
  // wait-die would refuse may instead WAIT (bounded by its timeout) when
  // `committing` reports every conflicting holder as committing. Safe
  // because a committing transaction acquires nothing further — it has no
  // outgoing wait edges, so waiting on it can never close a deadlock cycle.
  // This keeps back-to-back writes from aborting on the short lock tail the
  // asynchronous phase-2 commit leaves behind. Unset = classic wait-die.
  void SetWaitPolicy(std::function<bool(const TxnId&)> committing);

  // Drops the whole table (host crash).
  void Clear();

  bool Holds(TxnId txn, const std::string& key, LockMode mode) const;
  size_t num_locked_keys() const { return table_.size(); }
  size_t num_free_entries() const { return free_entries_.size(); }
  const LockManagerStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  // Registers this table's counters plus a locked-key gauge. The lock
  // manager has no host identity of its own, so the owner supplies labels.
  void RegisterMetrics(MetricsRegistry* registry, const MetricLabels& labels);

 private:
  struct Holder {
    TxnId txn;
    LockMode mode;
    TimePoint granted_at;
  };
  struct Waiter {
    TxnId txn;
    LockMode mode;
    Promise<Status> wakeup;
  };
  struct Entry {
    std::vector<Holder> holders;
    std::deque<Waiter> waiters;
  };
  using Table = std::map<std::string, Entry>;

  // `key`'s entry, created (from the free list when it has one) if the key
  // is not locked yet.
  Entry& EntryFor(const std::string& key);
  // Drops an entry that has no holders and no waiters left.
  void Retire(Table::iterator it);

  // True if `txn` may be granted `mode` given current holders (ignoring any
  // holding entry for txn itself, which is handled as reentry/upgrade).
  static bool Compatible(const Entry& entry, TxnId txn, LockMode mode);

  // Grants queued waiters that have become compatible, FIFO.
  void WakeWaiters(const std::string& key);

  // Applies the lease policy to `key`'s holders before a new acquire.
  void MaybeExpireHolders(const std::string& key);

  // True if wait-die must refuse `txn` requesting `mode` against the
  // current holders of `entry` (applies the committing-holder wait policy).
  bool MustDie(const Entry& entry, TxnId txn, LockMode mode);

  Simulator* sim_;
  Tracer* tracer_ = nullptr;
  HostId host_ = kInvalidHost;
  Table table_;
  std::vector<Table::node_type> free_entries_;
  std::vector<const std::string*> released_keys_;  // ReleaseAll's scratch
  Duration lease_ = Duration::Zero();
  std::function<bool(const TxnId&)> lease_exempt_;
  std::function<bool(const TxnId&)> committing_;
  LockManagerStats stats_;
};

}  // namespace wvote

#endif  // WVOTE_SRC_TXN_LOCK_MANAGER_H_
