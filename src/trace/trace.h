// Structured protocol tracing.
//
// A TraceLog is a bounded ring of timestamped protocol events — message
// drops, crashes and recoveries, prepares/commits/aborts, quorum failures —
// attached to a Network and shared by every component on it. It answers the
// debugging questions a distributed trace answers in production ("what was
// happening on rep-2 when the commit stalled?") and gives tests a way to
// assert on protocol-level behavior rather than only on end state.
//
// Recording copies the detail into the ring slot's own buffer, which the
// slot keeps, so once the ring has wrapped a record allocates only when its
// detail is longer than any the slot held before; disabled (null) logs cost
// one branch.

#ifndef WVOTE_SRC_TRACE_TRACE_H_
#define WVOTE_SRC_TRACE_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/time.h"
#include "src/net/message.h"
#include "src/sim/simulator.h"

namespace wvote {

enum class TraceKind : uint8_t {
  kMessageDropped,   // network drop (reason in detail)
  kHostCrashed,
  kHostRestarted,
  kTxnPrepared,      // participant voted yes
  kTxnCommitted,     // participant applied a commit
  kTxnAborted,       // participant aborted / released
  kRecoveryStarted,  // participant replaying its log
  kInDoubtResolved,  // decision inquiry answered
  kQuorumFailed,     // client could not gather enough votes
  kRefreshInstalled, // stale representative brought current
  kReconfigured,     // new prefix installed
  kPhase2Completed,  // background phase-2 fanout / retrier converged (txn in detail)
  kDecisionLogged,   // coordinator durably logged commit, phase 2 not yet sent
  kSlowOp,           // root span exceeded the slow-op threshold (tree in detail)
  kSloBreach,        // an SLO rule entered breach (rule + value in detail)
  kSloRecovered,     // an SLO rule recovered after its hysteresis window
  kCustom,
  kNumKinds,  // sentinel — keep last, never record
};

inline constexpr size_t kNumTraceKinds = static_cast<size_t>(TraceKind::kNumKinds);

const char* TraceKindName(TraceKind kind);

struct TraceEvent {
  TimePoint at;
  HostId host = kInvalidHost;
  TraceKind kind = TraceKind::kCustom;
  std::string detail;
};

class TraceLog {
 public:
  explicit TraceLog(Simulator* sim, size_t capacity = 4096);

  void Record(HostId host, TraceKind kind, std::string_view detail);

  // Events in chronological order (oldest retained first).
  std::vector<TraceEvent> Snapshot() const;
  std::vector<TraceEvent> ForHost(HostId host) const;
  std::vector<TraceEvent> OfKind(TraceKind kind) const;
  uint64_t CountOf(TraceKind kind) const;

  uint64_t total_recorded() const { return total_recorded_; }
  size_t capacity() const { return ring_.size(); }

  // Human-readable dump of the most recent `max_lines` events.
  std::string Dump(size_t max_lines = 50) const;

  void Clear();

  // Observers run synchronously inside Record(), after the event is in the
  // ring. The chaos nemesis uses this for phase-targeted fault injection
  // (crash a host the instant it records a protocol breadcrumb). Observers
  // may themselves cause recording (e.g. Crash -> kHostCrashed) — they are
  // re-entered for those events and must guard against recursion. Observers
  // cannot be removed; register once per run.
  void AddObserver(std::function<void(const TraceEvent&)> observer);

 private:
  Simulator* sim_;
  std::vector<TraceEvent> ring_;
  size_t next_ = 0;
  uint64_t total_recorded_ = 0;
  std::vector<std::function<void(const TraceEvent&)>> observers_;
  uint64_t counts_[kNumTraceKinds] = {};
  static_assert(kNumTraceKinds <= 64,
                "TraceKind grew suspiciously large — audit counts_ sizing");
};

}  // namespace wvote

#endif  // WVOTE_SRC_TRACE_TRACE_H_
