#include "src/txn/participant.h"

#include <utility>

#include "src/common/check.h"

namespace wvote {
namespace {

// How long a lock request queues behind a conflicting holder before the
// caller gives up.
constexpr Duration kLockWaitTimeout = Duration::Seconds(10);

}  // namespace

void ParticipantStats::RegisterWith(MetricsRegistry* registry, const MetricLabels& labels) {
  registry->RegisterCounter("txn.participant.prepares_ok", labels, &prepares_ok);
  registry->RegisterCounter("txn.participant.prepares_refused", labels, &prepares_refused);
  registry->RegisterCounter("txn.participant.commits", labels, &commits);
  registry->RegisterCounter("txn.participant.aborts", labels, &aborts);
  registry->RegisterCounter("txn.participant.recoveries", labels, &recoveries);
  registry->RegisterCounter("txn.participant.recovered_committed", labels,
                            &recovered_committed);
  registry->RegisterCounter("txn.participant.recovered_in_doubt", labels,
                            &recovered_in_doubt);
  registry->RegisterCounter("txn.participant.leases_expired", labels, &leases_expired);
  registry->RegisterCounter("txn.participant.indoubt_timer_fired", labels,
                            &indoubt_timer_fired);
  registry->AddResetHook([this]() { Reset(); });
}

void Participant::RegisterMetrics(MetricsRegistry* registry) {
  const MetricLabels labels{{"host", rpc_->host()->name()}};
  stats_.RegisterWith(registry, labels);
  locks_.RegisterMetrics(registry, labels);
}

Participant::Participant(RpcEndpoint* rpc, StableStore* store, ParticipantOptions options)
    : rpc_(rpc),
      store_(store),
      options_(options),
      locks_(rpc->sim()),
      log_(store) {
  // The network's tracer is wired before hosts are populated (Cluster ctor),
  // so this picks it up; manual fixtures without one get a null no-op.
  locks_.SetTracer(rpc_->network()->tracer(), rpc_->host_id());
  RegisterHandlers();
  rpc_->host()->AddCrashListener([this]() {
    locks_.Clear();
    prepared_.clear();
    committing_.clear();
  });
  rpc_->host()->AddRestartListener([this]() { Spawn(Recover()); });
  // Orphan locks are expired lazily, at the moment a new acquire runs into
  // them; prepared transactions are exempt until their 2PC outcome arrives.
  locks_.SetLeasePolicy(options_.lock_lease,
                        [this](const TxnId& txn) { return prepared_.contains(txn); });
  // Younger lock requesters may wait on a transaction in its commit tail
  // (decision known, apply/release imminent) instead of dying: with phase 2
  // off the client's critical path the previous write's locks are routinely
  // still draining when the next transaction's probes arrive.
  locks_.SetWaitPolicy([this](const TxnId& txn) { return committing_.contains(txn); });
}

void Participant::RegisterHandlers() {
  rpc_->HandleTraced<LockReq, Ack>(
      [this](HostId from, LockReq req, TraceContext ctx) -> Task<Result<Ack>> {
        Status st = co_await Lock(req.txn, std::move(req.key), req.mode, ctx);
        if (!st.ok()) {
          co_return st;
        }
        co_return Ack{};
      });
  rpc_->HandleTraced<PrepareReq, Ack>(
      [this](HostId from, PrepareReq req, TraceContext ctx) -> Task<Result<Ack>> {
        Status st = co_await Prepare(req.txn, std::move(req.writes), ctx);
        if (!st.ok()) {
          co_return st;
        }
        co_return Ack{};
      });
  rpc_->HandleTraced<CommitReq, Ack>(
      [this](HostId from, CommitReq req, TraceContext ctx) -> Task<Result<Ack>> {
        Status st = co_await Commit(req.txn, ctx);
        if (!st.ok()) {
          co_return st;
        }
        co_return Ack{};
      });
  rpc_->HandleTraced<AbortReq, Ack>(
      [this](HostId from, AbortReq req, TraceContext ctx) -> Task<Result<Ack>> {
        Status st = co_await Abort(req.txn, ctx);
        if (!st.ok()) {
          co_return st;
        }
        co_return Ack{};
      });
}

Result<std::string> Participant::PeekCommitted(const std::string& key) const {
  return store_->ReadCommitted(DataKey(key));
}

Task<Status> Participant::Lock(TxnId txn, std::string key, LockMode mode, TraceContext ctx) {
  const std::string data_key = DataKey(key);
  co_return co_await LockPage(txn, data_key, mode, ctx);
}

Task<Status> Participant::LockPage(TxnId txn, const std::string& data_key, LockMode mode,
                                   TraceContext ctx) {
  return locks_.Acquire(txn, data_key, mode, kLockWaitTimeout, ctx);
}

Task<Result<std::string>> Participant::ReadPage(TxnId txn, const std::string& data_key,
                                                TraceContext ctx) {
  Status st = co_await locks_.Acquire(txn, data_key, LockMode::kShared, kLockWaitTimeout, ctx);
  if (!st.ok()) {
    co_return st;
  }
  co_return co_await store_->Read(data_key, ctx);
}

Task<Status> Participant::Prepare(TxnId txn, WriteIntents writes,
                                  TraceContext ctx) {
  // The client must already hold exclusive locks on every key it intends to
  // write; a crash since then cleared them, in which case serializability is
  // no longer guaranteed and we must vote no.
  if (page_keys_.empty()) {
    page_keys_.resize(1);
  }
  std::string& data_key = page_keys_.front();
  for (const WriteIntent& w : writes) {
    data_key.assign(kDataPrefix).append(w.key);
    if (!locks_.Holds(txn, data_key, LockMode::kExclusive)) {
      ++stats_.prepares_refused;
      co_return AbortedError("prepare without exclusive lock on " + w.key);
    }
  }
  TxnRecord record;
  record.txn = txn;
  record.state = TxnRecordState::kPrepared;
  record.writes = std::move(writes);
  Status st = co_await log_.Put(record, ctx);
  if (!st.ok()) {
    ++stats_.prepares_refused;
    co_return st;
  }
  prepared_.insert(txn);
  ++stats_.prepares_ok;
  if (options_.indoubt_resolution_timeout > Duration::Zero()) {
    Spawn(ResolveIfStillInDoubt(txn));
  }
  if (TraceLog* trace = rpc_->network()->trace()) {
    trace->Record(rpc_->host_id(), TraceKind::kTxnPrepared, txn.ToText().view());
  }
  co_return Status::Ok();
}

Task<Status> Participant::Commit(TxnId txn, TraceContext ctx) {
  // A duplicate CommitReq (coordinator phase-2 retry racing a slow disk)
  // must not start a second apply: the first commit releases this
  // transaction's locks when it finishes, so a second apply still in flight
  // at that point would run unserialized and could re-install this
  // transaction's pages over a LATER transaction's committed writes. Wait
  // for the in-flight commit; the lookup below then resolves the duplicate
  // through the idempotent already-applied path.
  while (committing_.contains(txn)) {
    co_await rpc_->sim()->Sleep(Duration::Millis(1));
  }
  if (log_.View(txn) == nullptr) {
    // Record already applied and garbage-collected (duplicate commit), or
    // this was a read-only participant. Commit is idempotent.
    locks_.ReleaseAll(txn);
    co_return Status::Ok();
  }
  // The decision is known from here on: younger lock requesters may queue
  // behind this transaction's short apply/release tail instead of dying.
  committing_.insert(txn);
  Status st = co_await log_.MarkCommitted(txn, ctx);
  if (!st.ok()) {
    committing_.erase(txn);
    co_return st;
  }
  // The committed record was just installed, so it parses.
  st = co_await ApplyCommitted(txn, log_.View(txn)->writes, ctx);
  committing_.erase(txn);
  if (!st.ok()) {
    co_return st;
  }
  ++stats_.commits;
  prepared_.erase(txn);
  locks_.ReleaseAll(txn);
  if (TraceLog* trace = rpc_->network()->trace()) {
    trace->Record(rpc_->host_id(), TraceKind::kTxnCommitted, txn.ToText().view());
  }
  co_return Status::Ok();
}

Task<Status> Participant::Abort(TxnId txn, TraceContext ctx) {
  // Most aborts are read-only releases with no record to remove.
  if (log_.View(txn) != nullptr) {
    Status st = co_await log_.Remove(txn, ctx);
    if (!st.ok()) {
      co_return st;
    }
  }
  ++stats_.aborts;
  prepared_.erase(txn);
  locks_.ReleaseAll(txn);
  if (TraceLog* trace = rpc_->network()->trace()) {
    trace->Record(rpc_->host_id(), TraceKind::kTxnAborted, txn.ToText().view());
  }
  co_return Status::Ok();
}

Task<Status> Participant::ApplyCommitted(TxnId txn, std::span<const IntentView> writes,
                                         TraceContext ctx) {
  // All of the transaction's pages install under one group-committed flush
  // (one latency charge) — and the batch is all-or-nothing across a crash,
  // so recovery re-applies from the intact committed record either way.
  if (page_keys_.size() < writes.size()) {
    page_keys_.resize(writes.size());
  }
  pages_.clear();
  for (size_t i = 0; i < writes.size(); ++i) {
    page_keys_[i].assign(kDataPrefix).append(writes[i].key);
    pages_.push_back(PageWrite{page_keys_[i], writes[i].value});
  }
  Status st = co_await store_->WriteBatch(pages_, ctx);
  if (!st.ok()) {
    co_return st;  // crash mid-apply; recovery will re-apply
  }
  co_return co_await log_.Remove(txn, ctx);
}

Task<void> Participant::Recover() {
  ++stats_.recoveries;
  if (TraceLog* trace = rpc_->network()->trace()) {
    trace->Record(rpc_->host_id(), TraceKind::kRecoveryStarted, "");
  }
  for (TxnRecord& record : log_.RecoverAll()) {
    if (record.state == TxnRecordState::kCommitted) {
      ++stats_.recovered_committed;
      std::vector<IntentView> writes;
      for (const WriteIntent& w : record.writes) {
        writes.push_back(IntentView{w.key, w.value.str()});
      }
      Status st = co_await ApplyCommitted(record.txn, writes);
      (void)st;  // a crash during recovery just means recovering again later
      continue;
    }
    // Prepared and in doubt. Re-lock the written keys so new transactions
    // cannot slip in under the undecided writes, then resolve asynchronously.
    ++stats_.recovered_in_doubt;
    prepared_.insert(record.txn);
    for (const WriteIntent& w : record.writes) {
      // The table is empty right after a crash, so these grants are
      // immediate; timeouts only matter if two in-doubt records overlap.
      const std::string data_key = DataKey(w.key);
      (void)co_await locks_.Acquire(record.txn, data_key, LockMode::kExclusive,
                                    kLockWaitTimeout);
    }
    Spawn(ResolveInDoubt(record.txn));
  }
}

Task<void> Participant::ResolveIfStillInDoubt(TxnId txn) {
  const uint64_t epoch = rpc_->host()->crash_epoch();
  co_await rpc_->sim()->Sleep(options_.indoubt_resolution_timeout);
  if (!rpc_->host()->up() || rpc_->host()->crash_epoch() != epoch) {
    co_return;  // crashed meanwhile; recovery owns in-doubt resolution now
  }
  if (!prepared_.contains(txn) || committing_.contains(txn)) {
    co_return;  // phase 2 arrived (or an abort did): nothing to resolve
  }
  // Still prepared and undecided long after prepare succeeded. The usual
  // cause is a coordinator that crashed after durably logging its decision
  // but before delivering phase 2 (the client may already hold a success
  // for this transaction!) — ask instead of waiting for our own restart.
  ++stats_.indoubt_timer_fired;
  co_await ResolveInDoubt(txn);
}

Task<void> Participant::ResolveInDoubt(TxnId txn) {
  for (;;) {
    if (!rpc_->host()->up()) {
      co_return;  // crashed again; next recovery restarts resolution
    }
    Result<DecisionResp> resp = co_await rpc_->Call<DecisionInquiryReq, DecisionResp>(
        txn.coordinator, DecisionInquiryReq{txn}, options_.inquiry_interval);
    if (resp.ok()) {
      if (TraceLog* trace = rpc_->network()->trace()) {
        trace->Record(rpc_->host_id(), TraceKind::kInDoubtResolved,
                      txn.ToString() + (resp.value().decision == TxnDecision::kCommitted
                                                   ? " -> commit"
                                                   : " -> abort"));
      }
      if (resp.value().decision == TxnDecision::kCommitted) {
        (void)co_await Commit(txn);
      } else {
        (void)co_await Abort(txn);
      }
      co_return;
    }
    if (resp.status().code() == StatusCode::kAborted) {
      co_return;  // our own host crashed
    }
    co_await rpc_->sim()->Sleep(options_.inquiry_interval);
  }
}

}  // namespace wvote
