// Transactions spanning multiple file suites.
//
// Gifford's file servers ran general transactions — a single transaction
// could read and write several files, each replicated as its own suite with
// its own vote assignment. MultiSuiteTransaction provides that: one
// transaction identifier, per-suite quorum gathers under it, and a single
// two-phase commit across the union of every written suite's quorum, so the
// updates become visible atomically everywhere.
//
// All involved SuiteClients must share one host's stack (same RpcEndpoint
// and Coordinator); they may describe suites with entirely different
// representatives, votes, and quorums.

#ifndef WVOTE_SRC_CORE_MULTI_TXN_H_
#define WVOTE_SRC_CORE_MULTI_TXN_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/suite_client.h"

namespace wvote {

class MultiSuiteTransaction {
 public:
  explicit MultiSuiteTransaction(Coordinator* coordinator);
  ~MultiSuiteTransaction();

  MultiSuiteTransaction(MultiSuiteTransaction&&) = default;

  // Quorum read of `suite` within this transaction (read-your-writes and
  // repeated-read stability per suite, as in SuiteTransaction).
  Task<Result<std::string>> Read(SuiteClient* suite);

  // Buffers new contents for `suite`; installed atomically with every other
  // buffered write at Commit.
  Status Write(SuiteClient* suite, std::string contents);

  // Gathers a write quorum for every written suite, then runs ONE two-phase
  // commit across the union of their members. Either every suite moves to
  // its new version or none does.
  Task<Status> Commit();

  Task<void> Abort();

  bool finished() const { return finished_; }

 private:
  // `suite`'s part of the transaction, made at its first touch.
  const std::shared_ptr<SuiteTransaction::State>& StateFor(SuiteClient* suite);

  TxnId txn_;
  bool finished_ = false;
  // One state per touched suite, in first-touch order.
  std::vector<std::shared_ptr<SuiteTransaction::State>> states_;
  // Root span for the whole cross-suite transaction; every suite's phase
  // spans parent here. Opened at the first suite touch (the constructor has
  // no Network to ask for the tracer).
  TraceContext trace_;
};

}  // namespace wvote

#endif  // WVOTE_SRC_CORE_MULTI_TXN_H_
