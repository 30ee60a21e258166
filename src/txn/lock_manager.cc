#include "src/txn/lock_manager.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace wvote {

void LockManagerStats::RegisterWith(MetricsRegistry* registry, const MetricLabels& labels) {
  registry->RegisterCounter("txn.lock_manager.grants_immediate", labels, &grants_immediate);
  registry->RegisterCounter("txn.lock_manager.grants_after_wait", labels, &grants_after_wait);
  registry->RegisterCounter("txn.lock_manager.dies", labels, &dies);
  registry->RegisterCounter("txn.lock_manager.timeouts", labels, &timeouts);
  registry->RegisterCounter("txn.lock_manager.upgrades", labels, &upgrades);
  registry->RegisterCounter("txn.lock_manager.leases_expired", labels, &leases_expired);
  registry->RegisterCounter("txn.lock_manager.waits_on_committing", labels,
                            &waits_on_committing);
  registry->RegisterCounter("txn.lock_manager.waits_on_courtesy", labels,
                            &waits_on_courtesy);
  registry->AddResetHook([this]() { Reset(); });
}

void LockManager::RegisterMetrics(MetricsRegistry* registry, const MetricLabels& labels) {
  stats_.RegisterWith(registry, labels);
  registry->RegisterGauge("txn.lock_manager.locked_keys", labels,
                          [this]() { return static_cast<double>(table_.size()); });
}

bool LockManager::Compatible(const Entry& entry, TxnId txn, LockMode mode) {
  for (const Holder& h : entry.holders) {
    if (h.txn == txn) {
      continue;  // own holdings never conflict (reentry / upgrade)
    }
    if (mode == LockMode::kExclusive || h.mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

void LockManager::SetLeasePolicy(Duration lease, std::function<bool(const TxnId&)> exempt) {
  lease_ = lease;
  lease_exempt_ = std::move(exempt);
}

void LockManager::SetWaitPolicy(std::function<bool(const TxnId&)> committing) {
  committing_ = std::move(committing);
}

bool LockManager::MustDie(const Entry& entry, TxnId txn, LockMode mode) {
  bool waited_on_committing = false;
  bool waited_on_courtesy = false;
  for (const Holder& h : entry.holders) {
    if (h.txn == txn) {
      continue;
    }
    const bool conflicts = (mode == LockMode::kExclusive || h.mode == LockMode::kExclusive);
    if (!conflicts) {
      continue;
    }
    // A courtesy holder (background refresh) locks exactly one key and never
    // requests another lock while holding it, so it has no outgoing wait
    // edges — waiting on it cannot close a deadlock cycle. Without this rule
    // every client transaction is younger than the courtesy sentinel
    // timestamp and would die on the short refresh install window.
    if (h.txn.courtesy()) {
      waited_on_courtesy = true;
      continue;
    }
    if (txn.OlderThan(h.txn)) {
      continue;  // classic wait-die: older requesters may always wait
    }
    // Younger than a conflicting holder. A committing holder is guaranteed
    // to release soon and acquires nothing more (no outgoing wait edges),
    // so waiting on it cannot deadlock; any other younger-than case dies.
    if (committing_ && committing_(h.txn)) {
      waited_on_committing = true;
      continue;
    }
    return true;
  }
  if (waited_on_committing) {
    ++stats_.waits_on_committing;
  }
  if (waited_on_courtesy) {
    ++stats_.waits_on_courtesy;
  }
  return false;
}

void LockManager::MaybeExpireHolders(const std::string& key) {
  if (lease_ <= Duration::Zero()) {
    return;
  }
  auto it = table_.find(key);
  if (it == table_.end()) {
    return;
  }
  const TimePoint cutoff =
      TimePoint::FromMicros(sim_->Now().ToMicros() - lease_.ToMicros());
  std::vector<TxnId> stale;
  for (const Holder& h : it->second.holders) {
    if (h.granted_at <= cutoff && (!lease_exempt_ || !lease_exempt_(h.txn))) {
      stale.push_back(h.txn);
    }
  }
  for (const TxnId& txn : stale) {
    ++stats_.leases_expired;
    ReleaseAll(txn);  // presumed dead everywhere, not just on this key
  }
}

LockManager::Entry& LockManager::EntryFor(const std::string& key) {
  auto it = table_.lower_bound(key);
  if (it != table_.end() && it->first == key) {
    return it->second;
  }
  if (free_entries_.empty()) {
    return table_.try_emplace(it, key)->second;
  }
  Table::node_type node = std::move(free_entries_.back());
  free_entries_.pop_back();
  node.key() = key;
  return table_.insert(it, std::move(node))->second;
}

void LockManager::Retire(Table::iterator it) {
  if (free_entries_.size() < kMaxFreeEntries) {
    free_entries_.push_back(table_.extract(it));
  } else {
    table_.erase(it);
  }
}

Task<Status> LockManager::Acquire(TxnId txn, const std::string& key, LockMode mode,
                                  Duration timeout, TraceContext ctx) {
  MaybeExpireHolders(key);
  Entry& entry = EntryFor(key);

  // Reentrant acquire / upgrade detection.
  Holder* own = nullptr;
  for (Holder& h : entry.holders) {
    if (h.txn == txn) {
      own = &h;
      break;
    }
  }
  if (own != nullptr) {
    if (own->mode == LockMode::kExclusive || mode == LockMode::kShared) {
      co_return Status::Ok();  // already strong enough
    }
    if (Compatible(entry, txn, LockMode::kExclusive)) {
      own->mode = LockMode::kExclusive;
      ++stats_.upgrades;
      co_return Status::Ok();
    }
    // Upgrade must wait for other S holders to drain; fall through to the
    // wait-die check below.
  }

  const bool can_grant_now =
      own == nullptr && entry.waiters.empty() && Compatible(entry, txn, mode);
  if (can_grant_now) {
    entry.holders.push_back(Holder{txn, mode, sim_->Now()});
    ++stats_.grants_immediate;
    co_return Status::Ok();
  }

  // Wait-die: we may wait only if we are older than every conflicting
  // holder — or the holder is committing (see SetWaitPolicy).
  if (MustDie(entry, txn, mode)) {
    ++stats_.dies;
    co_return Status(StatusCode::kConflict, {"wait-die: ", txn.ToText().view(),
                                             " younger than a conflicting holder on ", key});
  }

  // We are about to park: open the lock-wait span (grants and dies above
  // never reach here, so uncontended acquires record nothing).
  TraceContext wait_span;
  if (tracer_ != nullptr) {
    wait_span = tracer_->StartChild(ctx, host_, "phase.lock_wait");
    if (wait_span.valid()) {
      tracer_->Annotate(wait_span,
                        "key=" + key + " mode=" + LockModeName(mode) + " txn=" + txn.ToString());
    }
  }

  Promise<Status> wakeup(sim_);
  Future<Status> woken = wakeup.GetFuture();
  entry.waiters.push_back(Waiter{txn, mode, wakeup});

  EventHandle timeout_event = sim_->Schedule(timeout, [this, wakeup]() mutable {
    if (wakeup.Set(TimeoutError("lock wait timeout"))) {
      ++stats_.timeouts;
    }
  });

  Status st = co_await std::move(woken);
  timeout_event.Cancel();
  if (tracer_ != nullptr && wait_span.valid()) {
    tracer_->EndWith(wait_span, st.ok() ? "granted" : st.ToString());
  }
  if (st.ok()) {
    ++stats_.grants_after_wait;
  } else {
    // Remove our dead waiter entry so it doesn't block the queue. The entry
    // may already be gone if Clear()/ReleaseAll ran.
    auto it = table_.find(key);
    if (it != table_.end()) {
      auto& waiters = it->second.waiters;
      waiters.erase(std::remove_if(waiters.begin(), waiters.end(),
                                   [&](const Waiter& w) {
                                     return w.txn == txn && w.wakeup.IsSet();
                                   }),
                    waiters.end());
      WakeWaiters(key);
    }
  }
  co_return st;
}

void LockManager::WakeWaiters(const std::string& key) {
  auto it = table_.find(key);
  if (it == table_.end()) {
    return;
  }
  Entry& entry = it->second;
  while (!entry.waiters.empty()) {
    Waiter& front = entry.waiters.front();
    if (front.wakeup.IsSet()) {  // timed out / aborted; sweep
      entry.waiters.pop_front();
      continue;
    }
    // An upgrade waiter holds S already; it becomes grantable when it is the
    // sole holder. A fresh waiter needs plain compatibility.
    Holder* own = nullptr;
    for (Holder& h : entry.holders) {
      if (h.txn == front.txn) {
        own = &h;
        break;
      }
    }
    if (!Compatible(entry, front.txn, front.mode)) {
      // Re-apply the wait-die rule against the CURRENT holders: a waiter
      // that is now younger than a conflicting holder must die, or it could
      // close a deadlock cycle that the admission-time check permitted.
      if (MustDie(entry, front.txn, front.mode)) {
        ++stats_.dies;
        front.wakeup.Set(
            Status(StatusCode::kConflict, {"wait-die on regrant: ", front.txn.ToText().view()}));
        entry.waiters.pop_front();
        continue;
      }
      break;  // FIFO: nothing behind an ungrantable head is granted
    }
    if (own != nullptr) {
      own->mode = front.mode;
      ++stats_.upgrades;
    } else {
      entry.holders.push_back(Holder{front.txn, front.mode, sim_->Now()});
    }
    // Grant and keep sweeping: remaining waiters either batch in (shared),
    // or hit the incompatible branch above, where the regrant wait-die
    // check decides whether they may keep waiting.
    front.wakeup.Set(Status::Ok());
    entry.waiters.pop_front();
  }
  if (entry.holders.empty() && entry.waiters.empty()) {
    Retire(it);
  }
}

void LockManager::ReleaseAll(TxnId txn) {
  // Map nodes stay put until WakeWaiters retires their own entry, so the
  // released keys are kept by address; the vector's capacity is reused.
  std::vector<const std::string*>& touched = released_keys_;
  touched.clear();
  for (auto& [key, entry] : table_) {
    const size_t before = entry.holders.size();
    entry.holders.erase(std::remove_if(entry.holders.begin(), entry.holders.end(),
                                       [&](const Holder& h) { return h.txn == txn; }),
                        entry.holders.end());
    bool waiter_removed = false;
    for (Waiter& w : entry.waiters) {
      if (w.txn == txn && !w.wakeup.IsSet()) {
        w.wakeup.Set(AbortedError("transaction released while waiting"));
        waiter_removed = true;
      }
    }
    if (entry.holders.size() != before || waiter_removed) {
      touched.push_back(&key);
    }
  }
  for (const std::string* key : touched) {
    WakeWaiters(*key);
  }
}

void LockManager::Clear() {
  for (auto& [key, entry] : table_) {
    for (Waiter& w : entry.waiters) {
      w.wakeup.Set(AbortedError("lock manager cleared (crash)"));
    }
  }
  table_.clear();
}

bool LockManager::Holds(TxnId txn, const std::string& key, LockMode mode) const {
  auto it = table_.find(key);
  if (it == table_.end()) {
    return false;
  }
  for (const Holder& h : it->second.holders) {
    if (h.txn == txn) {
      return mode == LockMode::kShared || h.mode == LockMode::kExclusive;
    }
  }
  return false;
}

}  // namespace wvote
