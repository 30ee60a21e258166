#include "src/txn/coordinator.h"

#include <algorithm>
#include <utility>

#include "src/sim/join.h"

namespace wvote {
namespace {

using HostAck = std::pair<HostId, Result<Ack>>;

// The one per-call timeout (and the background retrier's pause), and the
// retries one phase-2 fan-out spends on a participant before handing it to
// a background retrier.
constexpr Duration kRpcTimeout = Duration::Seconds(5);
constexpr int kCommitRetries = 3;

// One prepare or abort at `host`, its reply tagged with the host so that
// every fan-out joins into the same scratch type.
template <typename Req>
Task<HostAck> CallAt(RpcEndpoint* rpc, HostId host, Req req, TraceContext ctx) {
  Result<Ack> ack = co_await rpc->Call<Req, Ack>(host, std::move(req), kRpcTimeout, ctx);
  co_return HostAck{host, std::move(ack)};
}

// Drives one participant's commit with bounded retries, tagging the result
// with the participant so completion-order joins stay correlated.
Task<HostAck> CallCommitAt(RpcEndpoint* rpc, HostId host, TxnId txn, TraceContext ctx) {
  Result<Ack> ack = co_await rpc->CallWithRetry<CommitReq, Ack>(host, CommitReq{txn},
                                                                kRpcTimeout, kCommitRetries, ctx);
  co_return HostAck{host, std::move(ack)};
}

// Fire-and-forget lock release at a read-only participant.
Task<void> SendAbortTo(RpcEndpoint* rpc, HostId host, TxnId txn, TraceContext ctx) {
  (void)co_await rpc->Call<AbortReq, Ack>(host, AbortReq{txn}, kRpcTimeout, ctx);
}

}  // namespace

void CoordinatorStats::RegisterWith(MetricsRegistry* registry, const MetricLabels& labels) {
  registry->RegisterCounter("txn.coordinator.begun", labels, &begun);
  registry->RegisterCounter("txn.coordinator.committed", labels, &committed);
  registry->RegisterCounter("txn.coordinator.aborted", labels, &aborted);
  registry->RegisterCounter("txn.coordinator.inquiries_served", labels, &inquiries_served);
  registry->RegisterCounter("txn.coordinator.async_phase2_spawned", labels,
                            &async_phase2_spawned);
  registry->RegisterCounter("txn.coordinator.async_phase2_completed", labels,
                            &async_phase2_completed);
  registry->AddResetHook([this]() { Reset(); });
}

void Coordinator::RegisterMetrics(MetricsRegistry* registry) {
  stats_.RegisterWith(registry, {{"host", rpc_->host()->name()}});
}

Coordinator::Coordinator(RpcEndpoint* rpc, StableStore* store, CoordinatorOptions options)
    : rpc_(rpc), store_(store), options_(options) {
  rpc_->HandleTraced<DecisionInquiryReq, DecisionResp>(
      [this](HostId from, DecisionInquiryReq req,
             TraceContext ctx) -> Task<Result<DecisionResp>> {
        ++stats_.inquiries_served;
        const TxnId::PageKey key = req.txn.KeyWith(kDecisionPrefix);
        Result<std::string> rec = co_await store_->Read(key.view(), ctx);
        if (rec.ok() && rec.value() == "C") {
          co_return DecisionResp{TxnDecision::kCommitted};
        }
        if (!rec.ok() && rec.status().code() == StatusCode::kAborted) {
          co_return rec.status();  // we crashed mid-read; caller retries
        }
        if (Undecided* undecided = FindUndecided(req.txn)) {
          if (undecided->logging_decision) {
            // The commit record is being written: its outcome, not the
            // absent record, is the answer.
            Promise<bool> logged(rpc_->sim());
            Future<bool> outcome = logged.GetFuture();
            undecided->inquiries.push_back(std::move(logged));
            const bool committed = co_await std::move(outcome);
            co_return DecisionResp{committed ? TxnDecision::kCommitted
                                             : TxnDecision::kAborted};
          }
          // Still in phase 1. The participant will act on the abort
          // answered below, so it binds: the commit is never logged.
          undecided->doomed = true;
        }
        // No durable commit record: presumed abort.
        co_return DecisionResp{TxnDecision::kAborted};
      });
}

TxnId Coordinator::Begin() { return BeginAt(rpc_->sim()->Now().ToMicros()); }

TxnId Coordinator::BeginAt(int64_t timestamp_us) {
  ++stats_.begun;
  TxnId txn;
  txn.timestamp_us = timestamp_us;
  txn.serial = next_serial_++;
  txn.coordinator = rpc_->host_id();
  return txn;
}

std::unique_ptr<Coordinator::FanOut> Coordinator::BorrowFanOut() {
  if (idle_fanouts_.empty()) {
    return std::make_unique<FanOut>();
  }
  std::unique_ptr<FanOut> fan = std::move(idle_fanouts_.back());
  idle_fanouts_.pop_back();
  return fan;
}

void Coordinator::ReturnFanOut(std::unique_ptr<FanOut> fan) {
  fan->writers.clear();
  fan->read_only.clear();
  fan->acks.clear();
  idle_fanouts_.push_back(std::move(fan));
}

Coordinator::Undecided* Coordinator::FindUndecided(const TxnId& txn) {
  auto it = std::find_if(undecided_.begin(), undecided_.end(),
                         [&](const Undecided& u) { return u.txn == txn; });
  return it == undecided_.end() ? nullptr : &*it;
}

Coordinator::Undecided& Coordinator::UndecidedFor(const TxnId& txn) {
  if (Undecided* undecided = FindUndecided(txn)) {
    return *undecided;
  }
  return undecided_.emplace_back(txn);
}

void Coordinator::EraseUndecided(const TxnId& txn) {
  std::erase_if(undecided_, [&](const Undecided& u) { return u.txn == txn; });
}

Task<Status> Coordinator::CommitTransaction(TxnId txn, std::span<WriterIntents> writes,
                                            std::span<const HostId> read_only_participants,
                                            TraceContext ctx) {
  Tracer* tracer = rpc_->network()->tracer();
  if (writes.empty()) {
    // Read-only transaction: nothing to prepare; release locks without
    // waiting for acknowledgements (the client's result does not depend on
    // them, and waiting would add a round trip to every read).
    for (HostId host : read_only_participants) {
      Spawn(SendAbortTo(rpc_, host, txn, TraceContext()));
    }
    ++stats_.committed;
    co_return Status::Ok();
  }
  std::unique_ptr<FanOut> fan = BorrowFanOut();
  for (const WriterIntents& w : writes) {
    fan->writers.push_back(w.host);
  }
  fan->read_only.assign(read_only_participants.begin(), read_only_participants.end());

  // Phase 1: prepare at every writer in parallel. From here until the
  // decision is durable, inquiries about `txn` consult undecided_.
  UndecidedFor(txn);
  TraceContext prepare_span;
  if (tracer != nullptr) {
    prepare_span = tracer->StartChild(ctx, rpc_->host_id(), "phase.prepare");
    if (prepare_span.valid()) {
      tracer->Annotate(prepare_span, "writers=" + std::to_string(writes.size()));
    }
  }
  for (WriterIntents& w : writes) {
    fan->calls.push_back(
        CallAt(rpc_, w.host, PrepareReq(txn, std::move(w.intents)), prepare_span));
  }
  co_await JoinUntil<HostAck>(rpc_->sim(), fan->calls, fan->acks, NeverEnough());

  Status failure = Status::Ok();
  for (const auto& [host, vote] : fan->acks) {
    if (!vote.ok()) {
      failure = vote.status();
      break;
    }
  }
  if (fan->acks.size() != fan->writers.size() && failure.ok()) {
    failure = InternalError("missing prepare votes");
  }
  if (failure.ok() && UndecidedFor(txn).doomed) {
    failure = AbortedError("an in-doubt inquiry was answered abort");
  }
  if (tracer != nullptr) {
    tracer->EndWith(prepare_span, failure.ok() ? "all voted yes" : "no-vote");
  }
  if (!failure.ok()) {
    std::vector<HostId>& everyone = fan->writers;
    everyone.insert(everyone.end(), fan->read_only.begin(), fan->read_only.end());
    EraseUndecided(txn);
    co_await AbortTransaction(txn, everyone, ctx);
    ReturnFanOut(std::move(fan));
    ++stats_.aborted;
    co_return AbortedError("prepare failed: " + failure.ToString());
  }

  // Decision point: durably log commit before telling anyone. The ctx flows
  // straight through, so the decision log shows up as the transaction's
  // phase.disk span. Inquiries arriving meanwhile wait for this write.
  UndecidedFor(txn).logging_decision = true;
  const TxnId::PageKey decision_key = txn.KeyWith(kDecisionPrefix);
  Status logged = co_await store_->Write(decision_key.view(), "C", ctx);
  for (Promise<bool>& inquiry : UndecidedFor(txn).inquiries) {
    inquiry.Set(logged.ok());
  }
  EraseUndecided(txn);
  if (!logged.ok()) {
    // Crash while logging: no participant will ever see a commit record, so
    // presumed abort resolves every prepared branch consistently.
    ReturnFanOut(std::move(fan));
    ++stats_.aborted;
    co_return AbortedError("coordinator failed to log decision");
  }
  // The commit is now decided and durable but no participant knows yet —
  // the exact window phase-targeted chaos schedules crash into (the ack
  // must stand and convergence must come from inquiries alone).
  if (TraceLog* trace = rpc_->network()->trace()) {
    trace->Record(rpc_->host_id(), TraceKind::kDecisionLogged, txn.ToText().view());
  }

  if (options_.sync_phase2) {
    TraceContext ack_span;
    if (tracer != nullptr) {
      ack_span = tracer->StartChild(ctx, rpc_->host_id(), "phase.commit_ack");
    }
    Status phase2 = co_await SendPhase2(txn, *fan, ack_span);
    ReturnFanOut(std::move(fan));
    if (tracer != nullptr) {
      tracer->EndWith(ack_span, "sync");
    }
    if (!phase2.ok()) {
      co_return phase2;  // only possible if our host crashed
    }
    ++stats_.committed;
    co_return Status::Ok();
  }

  // The outcome is decided and durable; nothing the client learns depends
  // on phase-2 delivery, so fan it out off the critical path. If this host
  // crashes before any CommitReq lands, the decision record still answers
  // participant inquiries (their in-doubt watchdogs fire even without a
  // participant restart), so every prepared branch converges to commit.
  if (tracer != nullptr) {
    // Zero-length marker: the client pays nothing for phase 2 here.
    TraceContext ack_span = tracer->StartChild(ctx, rpc_->host_id(), "phase.commit_ack");
    tracer->EndWith(ack_span, "async: deferred to background fan-out");
  }
  ++stats_.async_phase2_spawned;
  Spawn(RunPhase2InBackground(txn, std::move(fan), ctx));
  ++stats_.committed;
  co_return Status::Ok();
}

Task<void> Coordinator::RunPhase2InBackground(TxnId txn, std::unique_ptr<FanOut> fan,
                                              TraceContext ctx) {
  Tracer* tracer = rpc_->network()->tracer();
  TraceContext span;
  if (tracer != nullptr) {
    span = tracer->StartChild(ctx, rpc_->host_id(), "phase2.background");
    if (span.valid()) {
      tracer->Annotate(span, "txn=" + txn.ToString() +
                                 " writers=" + std::to_string(fan->writers.size()));
    }
  }
  Status st = co_await SendPhase2(txn, *fan, span);
  ReturnFanOut(std::move(fan));
  if (st.ok()) {
    ++stats_.async_phase2_completed;
    // Completion event with the owning txn id: the write's observability
    // does not end at the client ack — tests assert causality on this.
    if (TraceLog* trace = rpc_->network()->trace()) {
      constexpr std::string_view kSuffix = " fanout";
      const TxnId::Text text = txn.ToText();
      char detail[sizeof(text.buf) + kSuffix.size()];
      char* p = std::copy_n(text.buf, text.len, detail);
      p = std::copy(kSuffix.begin(), kSuffix.end(), p);
      trace->Record(rpc_->host_id(), TraceKind::kPhase2Completed,
                    std::string_view(detail, static_cast<size_t>(p - detail)));
    }
  }
  if (tracer != nullptr) {
    tracer->EndWith(span, st.ok() ? "delivered" : "coordinator crashed");
  }
  // !ok means this host crashed mid-fan-out; participants converge through
  // the decision record (recovery inquiry or in-doubt watchdog).
}

Task<Status> Coordinator::SendPhase2(TxnId txn, FanOut& fan, TraceContext ctx) {
  const uint64_t epoch = rpc_->host()->crash_epoch();
  // Read-only participants only hold locks; an abort releases them and is
  // indistinguishable from a commit for them.
  for (HostId host : fan.read_only) {
    Spawn(SendAbortTo(rpc_, host, txn, ctx));
  }

  for (HostId host : fan.writers) {
    fan.calls.push_back(CallCommitAt(rpc_, host, txn, ctx));
  }
  co_await JoinUntil<HostAck>(rpc_->sim(), fan.calls, fan.acks, NeverEnough());

  // Only our own crash ends the drive — check the epoch rather than trusting
  // the status code, because a live participant whose store write failed
  // (e.g. an injected torn flush) also replies Aborted/Unavailable and must
  // be retried, not abandoned with its locks held.
  if (!rpc_->host()->up() || rpc_->host()->crash_epoch() != epoch) {
    co_return AbortedError("coordinator crashed during phase-2 fan-out");
  }
  // Any participant that still hasn't acked gets a background retrier; it
  // will also converge on its own via recovery + decision inquiry.
  for (const auto& [host, ack] : fan.acks) {
    if (!ack.ok()) {
      Spawn(RetryCommitForever(txn, host, ctx));
    }
  }
  co_return Status::Ok();
}

Task<void> Coordinator::RetryCommitForever(TxnId txn, HostId participant, TraceContext ctx) {
  Tracer* tracer = rpc_->network()->tracer();
  TraceContext span;
  if (tracer != nullptr) {
    span = tracer->StartChild(ctx, rpc_->host_id(), "phase2.retrier");
    if (span.valid()) {
      tracer->Annotate(span, "txn=" + txn.ToString() +
                                 " participant=" + std::to_string(participant));
    }
  }
  const uint64_t epoch = rpc_->host()->crash_epoch();
  for (;;) {
    // Our crash epoch, not the ack's status code, decides when to stop: a
    // live participant can reply with an error (store fault injection) and
    // still needs the retrier to keep driving until the commit applies.
    if (!rpc_->host()->up() || rpc_->host()->crash_epoch() != epoch) {
      if (tracer != nullptr) {
        tracer->EndWith(span, "coordinator down");
      }
      co_return;
    }
    Result<Ack> ack = co_await rpc_->Call<CommitReq, Ack>(participant, CommitReq{txn},
                                                          kRpcTimeout, span);
    if (ack.ok()) {
      // Same causality breadcrumb as the fan-out: the retrier finishing IS
      // this transaction's convergence at `participant`.
      if (TraceLog* trace = rpc_->network()->trace()) {
        trace->Record(rpc_->host_id(), TraceKind::kPhase2Completed,
                      txn.ToString() + " retrier participant=" + std::to_string(participant));
      }
      if (tracer != nullptr) {
        tracer->EndWith(span, "delivered");
      }
      co_return;
    }
    co_await rpc_->sim()->Sleep(kRpcTimeout);
  }
}

Task<void> Coordinator::AbortTransaction(TxnId txn, std::span<const HostId> participants,
                                         TraceContext ctx) {
  std::unique_ptr<FanOut> fan = BorrowFanOut();
  for (HostId host : participants) {
    fan->calls.push_back(CallAt(rpc_, host, AbortReq(txn), ctx));
  }
  co_await JoinUntil<HostAck>(rpc_->sim(), fan->calls, fan->acks, NeverEnough());
  ReturnFanOut(std::move(fan));
}

}  // namespace wvote
