#include "src/core/multi_txn.h"

#include <utility>

#include "src/common/check.h"
#include "src/core/txn_state.h"

namespace wvote {

MultiSuiteTransaction::MultiSuiteTransaction(Coordinator* coordinator)
    : txn_(coordinator->Begin()) {}

MultiSuiteTransaction::~MultiSuiteTransaction() {
  // Best-effort cleanup for abandoned transactions, mirroring
  // SuiteTransaction's destructor.
  if (!finished_ && !states_.empty()) {
    Spawn(SuiteClient::DoAbort(states_));
  }
}

const std::shared_ptr<SuiteTransaction::State>& MultiSuiteTransaction::StateFor(
    SuiteClient* suite) {
  for (const std::shared_ptr<SuiteTransaction::State>& state : states_) {
    if (state->client == suite) {
      return state;
    }
  }
  WVOTE_CHECK_MSG(suite->rpc_->host_id() == txn_.coordinator,
                  "every suite of a transaction must use its coordinator's host");
  if (states_.empty()) {
    if (Tracer* tracer = suite->net_->tracer()) {
      trace_ = tracer->StartRoot(suite->rpc_->host_id(), "client.multi");
      if (trace_.valid()) {
        tracer->Annotate(trace_, "txn=" + txn_.ToString());
      }
    }
  }
  std::shared_ptr<SuiteTransaction::State> state = suite->NewState();
  state->txn = txn_;      // the SAME transaction everywhere
  state->trace = trace_;  // ... and the same span tree
  states_.push_back(std::move(state));
  return states_.back();
}

Task<Result<std::string>> MultiSuiteTransaction::Read(SuiteClient* suite) {
  if (finished_) {
    co_return FailedPreconditionError("transaction already finished");
  }
  co_return co_await suite->DoRead(StateFor(suite));
}

Status MultiSuiteTransaction::Write(SuiteClient* suite, std::string contents) {
  if (finished_) {
    return FailedPreconditionError("transaction already finished");
  }
  StateFor(suite)->pending_write = std::move(contents);
  return Status::Ok();
}

Task<Status> MultiSuiteTransaction::Commit() {
  if (finished_) {
    co_return FailedPreconditionError("transaction already finished");
  }
  finished_ = true;
  if (states_.empty()) {
    co_return Status::Ok();  // touched nothing: nothing to end
  }
  co_return co_await SuiteClient::DoCommit(states_);
}

Task<void> MultiSuiteTransaction::Abort() {
  if (finished_) {
    co_return;
  }
  finished_ = true;
  if (!states_.empty()) {
    co_await SuiteClient::DoAbort(states_);
  }
}

}  // namespace wvote
