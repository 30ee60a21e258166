// Internal: shared per-transaction state for suite transactions.
//
// Lives in its own header so that both SuiteClient (single-suite
// transactions) and MultiSuiteTransaction (cross-suite transactions) can
// drive the same gather/read/commit machinery. Not part of the public API.

#ifndef WVOTE_SRC_CORE_TXN_STATE_H_
#define WVOTE_SRC_CORE_TXN_STATE_H_

#include <optional>
#include <set>
#include <string>

#include "src/core/suite_client.h"

namespace wvote {

// Per-transaction shared state. Held by the transaction handle, by in-flight
// probe coroutines, and by straggler cleanup closures.
struct SuiteTransaction::State {
  SuiteClient* client = nullptr;
  TxnId txn;
  bool finished = false;
  // Every representative we ever sent a lock-taking request to. A probe that
  // times out client-side may still be granted server-side (it queued on the
  // lock and won later); releasing every probed host at transaction end is
  // what prevents those grants from leaking forever.
  std::set<HostId> probed;
  std::optional<VersionedValue> read_result;
  std::optional<std::string> pending_write;
  // The write quorum a commit gathered for `pending_write`; the new version
  // is its `current` + 1.
  SuiteClient::GatherResult write_quorum;
  // Version installed by a successful write commit (0 until then). Chaos
  // histories pair each acked write with the version it committed at.
  Version committed_version = 0;
  // This attempt's "client.txn" span. Every phase recorded on behalf of the
  // transaction (gather, fetch, prepare, disk, commit-ack) parents here, so
  // the phases tile the attempt span exactly — sim time only advances at
  // awaits, and the phases are the awaits.
  TraceContext trace;
};

}  // namespace wvote

#endif  // WVOTE_SRC_CORE_TXN_STATE_H_
