#include "src/trace/trace.h"

#include <algorithm>
#include <cstdio>

namespace wvote {

const char* TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kMessageDropped:
      return "message-dropped";
    case TraceKind::kHostCrashed:
      return "host-crashed";
    case TraceKind::kHostRestarted:
      return "host-restarted";
    case TraceKind::kTxnPrepared:
      return "txn-prepared";
    case TraceKind::kTxnCommitted:
      return "txn-committed";
    case TraceKind::kTxnAborted:
      return "txn-aborted";
    case TraceKind::kRecoveryStarted:
      return "recovery-started";
    case TraceKind::kInDoubtResolved:
      return "in-doubt-resolved";
    case TraceKind::kQuorumFailed:
      return "quorum-failed";
    case TraceKind::kRefreshInstalled:
      return "refresh-installed";
    case TraceKind::kReconfigured:
      return "reconfigured";
    case TraceKind::kPhase2Completed:
      return "phase2-completed";
    case TraceKind::kDecisionLogged:
      return "decision-logged";
    case TraceKind::kSlowOp:
      return "slow-op";
    case TraceKind::kSloBreach:
      return "slo-breach";
    case TraceKind::kSloRecovered:
      return "slo-recovered";
    case TraceKind::kCustom:
      return "custom";
    case TraceKind::kNumKinds:
      break;
  }
  return "?";
}

TraceLog::TraceLog(Simulator* sim, size_t capacity) : sim_(sim), ring_(capacity) {}

void TraceLog::Record(HostId host, TraceKind kind, std::string_view detail) {
  static_assert(sizeof(counts_) / sizeof(counts_[0]) == kNumTraceKinds,
                "counts_ must have one slot per TraceKind enumerator");
  TraceEvent& slot = ring_[next_];
  slot.at = sim_->Now();
  slot.host = host;
  slot.kind = kind;
  slot.detail.assign(detail);
  next_ = (next_ + 1) % ring_.size();
  ++total_recorded_;
  ++counts_[static_cast<size_t>(kind)];
  if (!observers_.empty()) {
    // Notify from a copy: a re-entrant Record from an observer (Crash ->
    // kHostCrashed) may advance the ring into this slot.
    const TraceEvent copy = slot;
    for (const auto& observer : observers_) {
      observer(copy);
    }
  }
}

void TraceLog::AddObserver(std::function<void(const TraceEvent&)> observer) {
  observers_.push_back(std::move(observer));
}

std::vector<TraceEvent> TraceLog::Snapshot() const {
  std::vector<TraceEvent> out;
  const uint64_t kept = std::min<uint64_t>(total_recorded_, ring_.size());
  out.reserve(kept);
  // Oldest retained entry sits at next_ once the ring has wrapped.
  const size_t start = (total_recorded_ >= ring_.size()) ? next_ : 0;
  for (uint64_t i = 0; i < kept; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::vector<TraceEvent> TraceLog::ForHost(HostId host) const {
  std::vector<TraceEvent> out;
  for (TraceEvent& ev : Snapshot()) {
    if (ev.host == host) {
      out.push_back(std::move(ev));
    }
  }
  return out;
}

std::vector<TraceEvent> TraceLog::OfKind(TraceKind kind) const {
  std::vector<TraceEvent> out;
  for (TraceEvent& ev : Snapshot()) {
    if (ev.kind == kind) {
      out.push_back(std::move(ev));
    }
  }
  return out;
}

uint64_t TraceLog::CountOf(TraceKind kind) const {
  return counts_[static_cast<size_t>(kind)];
}

std::string TraceLog::Dump(size_t max_lines) const {
  std::vector<TraceEvent> events = Snapshot();
  const size_t begin = events.size() > max_lines ? events.size() - max_lines : 0;
  std::string out;
  for (size_t i = begin; i < events.size(); ++i) {
    char line[256];
    std::snprintf(line, sizeof(line), "%10.3fms host=%-3d %-18s %s\n",
                  static_cast<double>(events[i].at.ToMicros()) / 1000.0, events[i].host,
                  TraceKindName(events[i].kind), events[i].detail.c_str());
    out += line;
  }
  return out;
}

void TraceLog::Clear() {
  for (TraceEvent& ev : ring_) {
    ev = TraceEvent{};
  }
  next_ = 0;
  total_recorded_ = 0;
  std::fill(std::begin(counts_), std::end(counts_), 0);
}

}  // namespace wvote
