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
#include <string_view>
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
  // Serialize into `*out`, replacing its contents and keeping its capacity.
  void SerializeTo(std::string* out) const;
  static Result<TxnRecord> Parse(const std::string& bytes);
};

// One write intent of a serialized record, viewed in place.
struct IntentView {
  std::string_view key;
  std::string_view value;
};

// A serialized record parsed in place: the header fields, and the intents
// as views into the bytes. Parsing again reuses `writes`' capacity.
struct TxnRecordView {
  TxnId txn;
  TxnRecordState state = TxnRecordState::kPrepared;
  std::vector<IntentView> writes;

  Status Parse(std::string_view bytes);
};

class IntentionsLog {
 public:
  // Every record's page key starts with this.
  static constexpr std::string_view kKeyPrefix = "txnlog/";

  explicit IntentionsLog(StableStore* store) : store_(store) {}

  // `ctx` flows into the underlying stable-store write ("phase.disk" span).
  Task<Status> Put(const TxnRecord& record, TraceContext ctx = TraceContext());
  // Rewrites `txn`'s record as committed: its stored bytes with the state
  // byte flipped, which is what Put of the parsed record would write.
  // NotFound if `txn` has no record.
  Task<Status> MarkCommitted(const TxnId& txn, TraceContext ctx = TraceContext());
  Task<Status> Remove(const TxnId& txn, TraceContext ctx = TraceContext());

  // Latency-free committed-state scan for crash recovery.
  std::vector<TxnRecord> RecoverAll() const;
  // `txn`'s committed record parsed in place, or null if it has none or it
  // does not parse. The views hold until the record is next written or
  // removed; the next View call reuses the returned object.
  const TxnRecordView* View(const TxnId& txn);

 private:
  StableStore* store_;
  // Put's and MarkCommitted's serialized record. The store copies a write
  // before it first suspends, so one buffer serves every concurrent put.
  std::string record_buf_;
  TxnRecordView view_;
};

}  // namespace wvote

#endif  // WVOTE_SRC_TXN_INTENTIONS_LOG_H_
