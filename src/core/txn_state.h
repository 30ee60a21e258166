// Internal: shared per-transaction state for suite transactions.
//
// Lives in its own header so that both SuiteClient (single-suite
// transactions) and MultiSuiteTransaction (cross-suite transactions) can
// drive the same gather/read/commit machinery. Not part of the public API.

#ifndef WVOTE_SRC_CORE_TXN_STATE_H_
#define WVOTE_SRC_CORE_TXN_STATE_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/core/suite_client.h"

namespace wvote {

// Per-transaction shared state. Held by the transaction handle, by in-flight
// probe coroutines, and by straggler cleanup closures.
struct SuiteTransaction::State {
  SuiteClient* client = nullptr;
  TxnId txn;
  bool finished = false;
  std::set<HostId> participants;  // every representative holding our locks
  // Every representative we ever sent a lock-taking request to. A probe that
  // times out client-side may still be granted server-side (it queued on the
  // lock and won later); aborting at every probed host at transaction end is
  // what prevents those grants from leaking forever.
  std::set<HostId> probed;
  std::optional<VersionedValue> read_result;
  std::optional<std::string> pending_write;
  // Version installed by a successful write commit (0 until then). Chaos
  // histories pair each acked write with the version it committed at.
  Version committed_version = 0;
  // This attempt's "client.txn" span. Every phase recorded on behalf of the
  // transaction (gather, fetch, prepare, disk, commit-ack) parents here, so
  // the phases tile the attempt span exactly — sim time only advances at
  // awaits, and the phases are the awaits.
  TraceContext trace;

  // Union of participants and probed: everything that must see the
  // transaction end.
  std::set<HostId> ReleaseSet() const {
    std::set<HostId> release = participants;
    release.insert(probed.begin(), probed.end());
    return release;
  }
};

// The read-only participants of a commit: the hosts of `release` that
// `writes` installs nothing at. They only need their locks released.
inline std::vector<HostId> ReadOnlyHosts(
    const std::set<HostId>& release, const std::map<HostId, std::vector<WriteIntent>>& writes) {
  std::vector<HostId> read_only;
  for (HostId host : release) {
    if (writes.find(host) == writes.end()) {
      read_only.push_back(host);
    }
  }
  return read_only;
}

}  // namespace wvote

#endif  // WVOTE_SRC_CORE_TXN_STATE_H_
