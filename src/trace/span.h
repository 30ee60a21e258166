// Causal request tracing: span trees across client, RPC, txn, and storage.
//
// A Tracer complements the flat TraceLog event ring with *causal* structure:
// every client Read/Write opens a root span carrying a unique trace id, and
// that id rides the RPC envelope so the coordinator, participants, lock
// waits, stable-store flushes, and background phase-2 work all record child
// spans. A span has begin/end timestamps (simulated time) plus a free-form
// annotation ("votes=2/2 rounds=1", "batch=7 leader", ...), so a single
// trace answers "why did this write take 121 ms" with per-phase attribution
// instead of aggregate counters.
//
// Cost model: the tracer ships disabled. Every Start* checks `enabled_`
// first and the arguments are views/integers, so a disabled tracer — like a
// null TraceLog — costs one predictable branch per call site and never
// allocates. Enabled spans cost one map insert at start and one ring write
// at end; completed spans recycle a bounded ring (default 64Ki spans) that
// grows on demand, so a tracer that records nothing costs no ring memory.
//
// Well-known span names (phase.* feed same-named trace.phase.* histograms
// in the MetricsRegistry; client.read/client.write feed trace.op.*):
//   client.read / client.write    root, one per client op (incl. retries)
//   client.txn                    one attempt: Begin..Commit/Abort
//   phase.gather                  version probes until quorum (votes/rounds)
//   phase.fetch                   read-path data fetch from the best rep
//   phase.prepare                 phase 1: PrepareReq fan-out
//   phase.disk                    stable-store write (group-commit batch id)
//   phase.commit_ack              phase 2 as seen by the client-facing path
//   phase.lock_wait               parked in the lock manager (key, mode)
//   phase2.background             async phase-2 fan-out after the ack
//   phase2.retrier                per-participant commit retry loop
//   rpc.<Req> / handle.<Req>      client / server side of one RPC
//
// Export: ExportChromeTrace() emits Chrome-trace-event JSON ("X" complete
// events; pid = host, tid = trace id) loadable in chrome://tracing or
// Perfetto. SetSlowOpLog() dumps the full tree of any root span exceeding a
// threshold into the TraceLog as a kSlowOp event.

#ifndef WVOTE_SRC_TRACE_SPAN_H_
#define WVOTE_SRC_TRACE_SPAN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/time.h"
#include "src/net/message.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"
#include "src/trace/trace.h"

namespace wvote {

// The piece of a trace that travels with a request: which trace this work
// belongs to and which span is the causal parent. Invalid (trace_id == 0)
// contexts — from a disabled tracer or an untraced entry point — make every
// downstream tracing call a no-op, so call sites never test for tracing.
//
// User-declared constructors on purpose: TraceContext is passed by value
// into coroutines, and braced aggregate prvalues crossing a coroutine
// boundary miscompile under GCC 12 (rule 1 in src/sim/task.h).
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;

  TraceContext() {}
  TraceContext(uint64_t trace, uint64_t span) : trace_id(trace), span_id(span) {}

  bool valid() const { return trace_id != 0; }
};

struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 for roots
  HostId host = kInvalidHost;
  std::string name;
  TimePoint begin;
  TimePoint end;
  bool open = false;  // still running when snapshotted
  std::string annotation;

  Duration duration() const { return end - begin; }
};

class Tracer {
 public:
  explicit Tracer(Simulator* sim, size_t capacity = 65536);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Starts a root span (invalid context when disabled) / a child span
  // (no-op when the parent is invalid). Names should be string literals or
  // otherwise outlive the call; they are copied only on the enabled path.
  TraceContext StartRoot(HostId host, std::string_view name);
  TraceContext StartChild(const TraceContext& parent, HostId host, std::string_view name);

  // Appends `note` to the open span's annotation ("; "-separated).
  void Annotate(const TraceContext& ctx, std::string_view note);

  void End(const TraceContext& ctx);
  void EndWith(const TraceContext& ctx, std::string_view note);

  // Registers the trace.phase.* / trace.op.* histograms this tracer owns
  // (with a reset hook) and the trace.tracer.* counters in `metrics`;
  // subsequent span ends feed the histograms by span name.
  void RegisterMetrics(MetricsRegistry* metrics);

  // Any root span whose duration reaches `threshold` dumps its full tree
  // into `log` as a kSlowOp event.
  void SetSlowOpLog(TraceLog* log, Duration threshold);

  // Used by exports to print "rep-a" instead of a bare host id.
  void SetHostNamer(std::function<std::string(HostId)> namer);

  // Completed spans (ring order) followed by still-open spans (marked
  // open, end = now), both filtered/whole-trace variants.
  std::vector<Span> Snapshot() const;
  std::vector<Span> SpansOf(uint64_t trace_id) const;

  uint64_t spans_started() const { return spans_started_; }
  uint64_t spans_completed() const { return spans_completed_; }

  // Indented tree of one trace, for slow-op logs and debugging.
  std::string DumpTree(uint64_t trace_id) const;

  // Chrome-trace-event JSON: {"traceEvents":[...]} with one "X" event per
  // span and process_name metadata per host. Loadable in chrome://tracing.
  std::string ExportChromeTrace(int pid_base = 0) const;

  // Appends this tracer's events (comma-separated, honoring *first) to an
  // in-progress traceEvents array; `tag` prefixes process names so several
  // clusters/scenarios can share one file. Returns the largest pid used.
  int AppendChromeEvents(std::string* out, bool* first, int pid_base,
                         std::string_view tag) const;

  void Clear();

 private:
  void Complete(Span span);
  // Puts a completed span in the ring: appended while the ring is below
  // capacity, else over the oldest.
  void Store(Span span);
  std::string HostName(HostId host) const;
  void AppendChromeEvent(const Span& span, int pid_base, std::string_view tag,
                         std::string* out, bool* first) const;

  Simulator* sim_;
  bool enabled_ = false;
  uint64_t next_id_ = 1;

  const size_t capacity_;
  std::vector<Span> ring_;  // grows to capacity_, then wraps at next_slot_
  size_t next_slot_ = 0;
  uint64_t spans_started_ = 0;
  uint64_t spans_completed_ = 0;
  uint64_t slow_ops_ = 0;
  std::unordered_map<uint64_t, Span> open_;

  // Span name -> duration histogram; filled by RegisterMetrics. Node-based,
  // so the addresses registered with the registry stay valid.
  std::unordered_map<std::string, LatencyHistogram> span_histograms_;

  TraceLog* slow_log_ = nullptr;
  Duration slow_threshold_ = Duration::Micros(0);

  std::function<std::string(HostId)> host_namer_;
};

}  // namespace wvote

#endif  // WVOTE_SRC_TRACE_SPAN_H_
