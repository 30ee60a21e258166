// RPC message types for the transaction substrate (locking + presumed-abort
// two-phase commit). These are plain structs carried through the typed RPC
// layer; ApproxBytes() attributes realistic wire sizes to bulk carriers.
//
// NOTE (GCC 12 workaround): every struct that is passed BY VALUE into a
// coroutine declares a constructor. GCC 12 miscompiles braced
// aggregate-initialized prvalues used as coroutine arguments (the frame
// "copy" aliases the caller's temporary -> double free, see
// docs in src/sim/task.h); a user-declared constructor forces a real
// constructor call, which is handled correctly.

#ifndef WVOTE_SRC_TXN_MESSAGES_H_
#define WVOTE_SRC_TXN_MESSAGES_H_

#include <string>
#include <utility>
#include <vector>

#include "src/common/payload.h"
#include "src/txn/lock_manager.h"
#include "src/txn/txn_id.h"

namespace wvote {

// Empty successful reply.
struct Ack {};

// A buffered write that Prepare makes durable and Commit applies. The value
// is a SharedPayload: a commit that fans the same bytes out to a write
// quorum serializes them once and every intent (and every message hop —
// the net layer moves std::any bodies, never copies them) shares the
// buffer. ApproxBytes still charges the full value size per message, so
// wire accounting is unchanged.
struct WriteIntent {
  std::string key;
  SharedPayload value;

  WriteIntent() = default;
  WriteIntent(std::string k, SharedPayload v) : key(std::move(k)), value(std::move(v)) {}
};

// Acquire a lock at the participant on behalf of `txn` (strict 2PL: released
// only at commit/abort).
struct LockReq {
  TxnId txn;
  std::string key;
  LockMode mode = LockMode::kShared;

  LockReq() = default;
  LockReq(TxnId t, std::string k, LockMode m) : txn(t), key(std::move(k)), mode(m) {}
  static constexpr const char* kRpcName = "LockReq";
};

// Phase 1: persist the transaction's write intents. The participant votes
// yes by replying OK; any other outcome is a no-vote.
struct PrepareReq {
  TxnId txn;
  std::vector<WriteIntent> writes;

  PrepareReq() = default;
  PrepareReq(TxnId t, std::vector<WriteIntent> w) : txn(t), writes(std::move(w)) {}
  static constexpr const char* kRpcName = "PrepareReq";
  size_t ApproxBytes() const {
    size_t n = 64;
    for (const WriteIntent& w : writes) {
      n += w.key.size() + w.value.size() + 16;  // full value size: sharing
    }                                           // saves copies, not bytes
    return n;
  }
};

// Phase 2 decisions.
struct CommitReq {
  TxnId txn;

  CommitReq() = default;
  explicit CommitReq(TxnId t) : txn(t) {}
  static constexpr const char* kRpcName = "CommitReq";
};
struct AbortReq {
  TxnId txn;

  AbortReq() = default;
  explicit AbortReq(TxnId t) : txn(t) {}
  static constexpr const char* kRpcName = "AbortReq";
};

// Recovery: a participant with an in-doubt prepared record asks the
// coordinator's host what was decided.
struct DecisionInquiryReq {
  TxnId txn;

  DecisionInquiryReq() = default;
  explicit DecisionInquiryReq(TxnId t) : txn(t) {}
  static constexpr const char* kRpcName = "DecisionInquiryReq";
};
enum class TxnDecision : uint8_t { kCommitted = 1, kAborted = 2 };
struct DecisionResp {
  TxnDecision decision = TxnDecision::kAborted;

  DecisionResp() = default;
  explicit DecisionResp(TxnDecision d) : decision(d) {}
};

}  // namespace wvote

#endif  // WVOTE_SRC_TXN_MESSAGES_H_
