#include "src/core/multi_txn.h"

#include <utility>

#include "src/common/check.h"
#include "src/core/txn_state.h"

namespace wvote {

MultiSuiteTransaction::MultiSuiteTransaction(Coordinator* coordinator)
    : coordinator_(coordinator), txn_(coordinator->Begin()) {}

MultiSuiteTransaction::~MultiSuiteTransaction() {
  if (!finished_) {
    // Best-effort cleanup for abandoned transactions, mirroring
    // SuiteTransaction's destructor.
    finished_ = true;
    for (auto& [client, entry] : entries_) {
      if (entry.state && !entry.state->finished) {
        Spawn(entry.client->DoAbort(entry.state));
      }
    }
  }
}

MultiSuiteTransaction::SuiteEntry& MultiSuiteTransaction::EntryFor(SuiteClient* suite) {
  SuiteEntry& entry = entries_[suite];
  if (!entry.state) {
    if (!trace_opened_) {
      trace_opened_ = true;
      tracer_ = suite->net_->tracer();
      if (tracer_ != nullptr) {
        trace_ = tracer_->StartRoot(suite->rpc_->host_id(), "client.multi");
        if (trace_.valid()) {
          tracer_->Annotate(trace_, "txn=" + txn_.ToString());
        }
      }
    }
    entry.client = suite;
    entry.state = std::make_shared<SuiteTransaction::State>();
    entry.state->client = suite;
    entry.state->txn = txn_;  // the SAME transaction everywhere
    entry.state->trace = trace_;  // ... and the same span tree
  }
  return entry;
}

Task<Result<std::string>> MultiSuiteTransaction::Read(SuiteClient* suite) {
  if (finished_) {
    co_return FailedPreconditionError("transaction already finished");
  }
  SuiteEntry& entry = EntryFor(suite);
  co_return co_await suite->DoRead(entry.state);
}

Status MultiSuiteTransaction::Write(SuiteClient* suite, std::string contents) {
  if (finished_) {
    return FailedPreconditionError("transaction already finished");
  }
  EntryFor(suite).state->pending_write = std::move(contents);
  return Status::Ok();
}

Task<Status> MultiSuiteTransaction::Commit() {
  if (finished_) {
    co_return FailedPreconditionError("transaction already finished");
  }

  // Phase 0: gather an exclusive write quorum for every written suite. All
  // gathers share txn_, so wait-die resolves cross-suite lock conflicts.
  std::map<HostId, std::vector<WriteIntent>> writes;
  for (auto& [client, entry] : entries_) {
    if (!entry.state->pending_write) {
      continue;
    }
    Result<SuiteClient::GatherResult> gather =
        co_await client->Gather(entry.state, client->config().write_quorum,
                                /*exclusive=*/true);
    if (!gather.ok()) {
      co_await Abort();
      co_return gather.status();
    }
    const Version next = gather.value().current + 1;
    const SharedPayload bytes(
        VersionedValue{next, *entry.state->pending_write}.Serialize());
    for (const auto& reply : gather.value().replies) {
      writes[reply.candidate.host].push_back(
          WriteIntent(SuiteValueKey(client->config().suite_name), bytes));
    }
  }

  // Everything we locked anywhere but are not writing gets released.
  std::set<HostId> release;
  for (auto& [client, entry] : entries_) {
    const std::set<HostId> per_suite = entry.state->ReleaseSet();
    release.insert(per_suite.begin(), per_suite.end());
    entry.state->finished = true;
  }
  std::vector<HostId> read_only = ReadOnlyHosts(release, writes);

  finished_ = true;
  Status st = co_await coordinator_->CommitTransaction(txn_, std::move(writes),
                                                       std::move(read_only), trace_);
  if (tracer_ != nullptr) {
    tracer_->EndWith(trace_, st.ok() ? "committed" : st.ToString());
  }
  co_return st;
}

Task<void> MultiSuiteTransaction::Abort() {
  if (finished_) {
    co_return;
  }
  finished_ = true;
  std::set<HostId> release;
  for (auto& [client, entry] : entries_) {
    const std::set<HostId> per_suite = entry.state->ReleaseSet();
    release.insert(per_suite.begin(), per_suite.end());
    entry.state->finished = true;
  }
  std::vector<HostId> targets(release.begin(), release.end());
  co_await coordinator_->AbortTransaction(txn_, std::move(targets), trace_);
  if (tracer_ != nullptr) {
    tracer_->EndWith(trace_, "aborted");
  }
}

}  // namespace wvote
