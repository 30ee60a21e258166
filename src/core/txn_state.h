// Internal: shared per-transaction state for suite transactions.
//
// Lives in its own header so that both SuiteClient (single-suite
// transactions) and MultiSuiteTransaction (cross-suite transactions) can
// drive the same gather/read/commit machinery. Not part of the public API.

#ifndef WVOTE_SRC_CORE_TXN_STATE_H_
#define WVOTE_SRC_CORE_TXN_STATE_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/dense_bitset.h"
#include "src/core/suite_client.h"

namespace wvote {

// Per-transaction shared state. Held by the transaction handle, by in-flight
// probe coroutines, and by straggler cleanup closures. The client recycles a
// State once nothing but its pool holds it (SuiteClient::NewState): Reset()
// clears the transaction's fields, and the working buffers below keep their
// capacity, so a steady stream of transactions gathers, commits and releases
// without heap allocation. A transaction runs one operation at a time, so
// the buffers are never shared between two gathers.
struct SuiteTransaction::State {
  SuiteClient* client = nullptr;
  TxnId txn;
  bool finished = false;
  // Every representative we ever sent a lock-taking request to. A probe that
  // times out client-side may still be granted server-side (it queued on the
  // lock and won later); releasing every probed host at transaction end is
  // what prevents those grants from leaking forever. Ascending, like the
  // std::set it replaced, so releases go out in host order.
  DenseBitset<HostId> probed;
  // The first read's result, which repeated reads return: its version and
  // a copy of its contents in a buffer that keeps its capacity while the
  // State is pooled, so the read's own contents move through to the caller.
  bool has_read = false;
  Version read_version = 0;
  std::string read_contents;
  std::optional<std::string> pending_write;
  // The last gather's quorum: the read's, or the write quorum a commit
  // gathered for `pending_write` (the new version is its `current` + 1).
  SuiteClient::GatherResult gather;
  // Version installed by a successful write commit (0 until then). Chaos
  // histories pair each acked write with the version it committed at.
  Version committed_version = 0;
  // This attempt's "client.txn" span. Every phase recorded on behalf of the
  // transaction (gather, fetch, prepare, disk, commit-ack) parents here, so
  // the phases tile the attempt span exactly — sim time only advances at
  // awaits, and the phases are the awaits.
  TraceContext trace;

  // Gather's working buffers: the health view of the plan, the gather's
  // policy (probe order, rounds, credited votes), and one round's probes and
  // their replies, each naming the host that answered.
  std::vector<ProbeHealth> health;
  GatherMachine machine;
  std::vector<Task<HedgedReply<VersionResp>>> probes;
  std::vector<HedgedReply<VersionResp>> outcomes;
  // The hosts a commit or abort releases.
  std::vector<HostId> release;

  // Records a read's result for repeated reads.
  void KeepRead(Version version, std::string_view contents) {
    has_read = true;
    read_version = version;
    read_contents.assign(contents);
  }

  // Readies a pooled State for a new transaction, keeping the buffers.
  void Reset() {
    txn = TxnId();
    finished = false;
    probed.Clear();
    has_read = false;
    read_version = 0;
    read_contents.clear();
    pending_write.reset();
    gather.Clear();
    committed_version = 0;
    trace = TraceContext();
  }
};

}  // namespace wvote

#endif  // WVOTE_SRC_CORE_TXN_STATE_H_
