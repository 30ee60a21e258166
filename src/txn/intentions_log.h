// Durable intentions log for two-phase commit participants.
//
// One log record per in-flight transaction, stored as a stable-storage page
// under "txnlog/<txn>". Lifecycle:
//
//   Prepare  -> record {kPrepared, writes} written durably (the yes-vote)
//   Commit   -> record rewritten as {kCommitted, writes}, then the writes
//               are applied to the data pages, then the record is deleted
//   Abort    -> record deleted
//
// Recovery scans the prefix: kCommitted records are re-applied (apply is
// idempotent full-page writes); kPrepared records are in doubt and resolved
// by asking the coordinator.

#ifndef WVOTE_SRC_TXN_INTENTIONS_LOG_H_
#define WVOTE_SRC_TXN_INTENTIONS_LOG_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/sim/task.h"
#include "src/storage/stable_store.h"
#include "src/txn/messages.h"
#include "src/txn/txn_id.h"

namespace wvote {

enum class TxnRecordState : uint8_t { kPrepared = 1, kCommitted = 2 };

struct TxnRecord {
  TxnId txn;
  TxnRecordState state = TxnRecordState::kPrepared;
  std::vector<WriteIntent> writes;

  std::string Serialize() const;
  static Result<TxnRecord> Parse(const std::string& bytes);
};

class IntentionsLog {
 public:
  explicit IntentionsLog(StableStore* store) : store_(store) {}

  // `ctx` flows into the underlying stable-store write ("phase.disk" span).
  Task<Status> Put(const TxnRecord& record, TraceContext ctx = TraceContext());
  Task<Status> Remove(const TxnId& txn, TraceContext ctx = TraceContext());

  // Latency-free committed-state scan for crash recovery.
  std::vector<TxnRecord> RecoverAll() const;
  Result<TxnRecord> Lookup(const TxnId& txn) const;
  // Whether `txn` has a committed record; cheaper than a failing Lookup,
  // which builds a NotFound message.
  bool Contains(const TxnId& txn) const;

  static std::string KeyFor(const TxnId& txn);

 private:
  // KeyFor into `out`, reusing its capacity.
  static void WriteKey(const TxnId& txn, std::string* out);

  StableStore* store_;
  mutable std::string key_scratch_;  // Contains' and Lookup's key buffer
};

}  // namespace wvote

#endif  // WVOTE_SRC_TXN_INTENTIONS_LOG_H_
