// Crash-atomic stable storage, after Lampson & Sturgis.
//
// Gifford's representatives sit on file servers that provide stable storage:
// a write either happens completely or not at all, even across a crash in
// the middle of the write. We reproduce the classic two-slot ("careful
// write") scheme:
//
//   * Each page has two slots. A slot holds {sequence, checksum, data}; the
//     checksum covers the sequence, the data length and every data byte.
//   * A write targets the slot holding the OLDER sequence. While the disk
//     write is in flight the target slot is torn (checksum invalid); the
//     other slot still holds the previous committed value.
//   * Read returns the valid slot with the highest sequence. A crash can
//     therefore lose an in-flight write but can never expose a torn value
//     or lose a completed one.
//
// Disk latency is simulated; a host crash during the latency window leaves
// the slot torn exactly as a power failure would. Pages survive crashes
// (they are "on disk"); only in-flight operations abort.
//
// Group commit: concurrent Write/WriteBatch calls that land while one disk
// latency window is already in flight coalesce into that flush — the leader
// (first writer) samples one latency charge, joiners stage their pages into
// the open batch and share the leader's wake-up. This is classic log group
// commit (DeWitt et al. '84): durability cost is paid per flush, not per
// write, and a crash during the window tears every staged write together
// (none was reported durable, so losing all of them is crash-atomic). A
// solitary write behaves exactly as before: one tear, one latency sample,
// one install.

#ifndef WVOTE_SRC_STORAGE_STABLE_STORE_H_
#define WVOTE_SRC_STORAGE_STABLE_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/net/host.h"
#include "src/obs/metrics.h"
#include "src/sim/future.h"
#include "src/sim/latency.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/trace/span.h"

namespace wvote {

struct StableStoreStats {
  uint64_t writes_started = 0;
  uint64_t writes_completed = 0;  // pages installed by a successful flush
  uint64_t writes_torn = 0;  // in-flight writes lost to a crash
  uint64_t reads = 0;
  uint64_t group_commit_batches = 0;    // flushes (one latency charge each)
  uint64_t group_commit_coalesced = 0;  // writes that joined an open flush
                                        // (latency charges saved)
  uint64_t injected_write_failures = 0;  // chaos: clean write errors injected
  uint64_t injected_torn_flushes = 0;    // chaos: flushes torn by injection
  uint64_t injected_slow_ops = 0;        // chaos: ops stretched by a gray disk

  void Reset() { *this = StableStoreStats{}; }
  // Registers every field as `storage.stable_store.*{labels}`; this struct
  // must outlive `registry`'s use of it.
  void RegisterWith(MetricsRegistry* registry, const MetricLabels& labels = {});
};

// Chaos fault hooks. `write_fail_probability` makes Write/WriteBatch return
// kUnavailable before touching any slot (a disk that refuses the request:
// the old value is untouched and readable). `tear_next_flush` is a one-shot
// power-failure: the next flush that reaches its install point tears every
// staged page instead — the two-slot scheme must surface the old value of
// each page, never a mix. Both are deterministic under the host's forked
// rng stream. `latency_multiplier` models a gray disk: every read and write
// latency sample is stretched by the factor (the disk still answers — just
// slowly). Scaling happens after the sample, so a multiplier of 1.0 is
// schedule-identical to no fault at all.
struct StoreFaults {
  double write_fail_probability = 0.0;
  bool tear_next_flush = false;
  double latency_multiplier = 1.0;
};

// One page of a batched write.
struct PageWrite {
  std::string_view key;
  std::string_view value;
};

// Keys and values are passed as views. Write and WriteBatch copy them into
// the flush batch before they first suspend, so other coroutines may reuse
// the viewed buffers while the write waits on the disk; Read and Delete use
// their key until they complete. Flush batches and their staged copies
// keep their buffers for later writes.
class StableStore {
 public:
  StableStore(Simulator* sim, Host* host, LatencyModel write_latency,
              LatencyModel read_latency);

  // Durable, crash-atomic write of a whole page. Returns kAborted if the
  // host crashed while the write was in flight (the old value survives).
  // Concurrent writes group-commit: see the header comment. A valid `ctx`
  // records a "phase.disk" child span annotated with the group-commit batch
  // id and this writer's role (leader / coalesced joiner).
  Task<Status> Write(std::string_view key, std::string_view value,
                     TraceContext ctx = TraceContext());

  // Durable write of several pages under ONE latency charge (and, like
  // Write, joining an already-open flush instead of paying at all). All
  // pages install together or — on a crash during the window — none do.
  Task<Status> WriteBatch(std::span<const PageWrite> pages, TraceContext ctx = TraceContext());

  // Durable read with simulated disk latency. kNotFound if the page was
  // never completely written; kAborted on crash mid-read. `key` must stay
  // valid until the returned task completes.
  Task<Result<std::string>> Read(std::string_view key, TraceContext ctx = TraceContext());

  // Durably removes a page (log garbage collection). A crash mid-delete may
  // leave the page present; deletes must therefore be idempotent upstream.
  // `key` must stay valid until the returned task completes.
  Task<Status> Delete(std::string_view key, TraceContext ctx = TraceContext());

  // Disk spans are attributed to this store's host; null disables (default).
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }

  // Instant, latency-free read of the committed value; used during recovery
  // and by tests/invariant checks. Never observes torn state as a value.
  Result<std::string> ReadCommitted(std::string_view key) const;
  // ReadCommitted without the copy: the committed bytes in place, or null
  // when the page has no committed slot. The pointer is valid until the
  // page is next written or deleted. Counts torn-slot recoveries exactly
  // like ReadCommitted.
  const std::string* PeekCommitted(std::string_view key) const;

  bool Contains(std::string_view key) const;
  std::vector<std::string> Keys() const;
  std::vector<std::string> KeysWithPrefix(const std::string& prefix) const;

  // Installs (or clears, with a default-constructed value) the chaos fault
  // hooks; see StoreFaults.
  void SetFaults(StoreFaults faults) { faults_ = faults; }
  const StoreFaults& faults() const { return faults_; }

  const StableStoreStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  // Registers this store's counters, labeled by host name.
  void RegisterMetrics(MetricsRegistry* registry);

 private:
  struct Slot {
    uint64_t seq = 0;
    uint64_t checksum = 0;
    std::string data;
    bool valid = false;
  };
  struct Page {
    Slot slots[2];
  };

  // Pages by key; the transparent comparator finds them by view.
  using PageMap = std::map<std::string, Page, std::less<>>;

  // One page staged into a flush: the last value staged for its key.
  struct StagedPage {
    std::string key;
    std::string value;
  };

  // One flush: pages staged while the leader's latency window is open, plus
  // a wake-up promise per joiner. The store owns its batches and reuses one
  // once its leader has woken; `staged` and `waiters` keep their capacity.
  struct FlushBatch {
    uint64_t epoch = 0;     // crash epoch the batch was opened in
    uint64_t batch_id = 0;  // stable id for trace annotations
    bool open = false;      // leader asleep, accepting joiners
    std::vector<StagedPage> staged;  // [0, pages) are this flush's pages
    size_t pages = 0;
    std::vector<Promise<Status>> waiters;  // one per joiner

    // Copies `page` in; a key staged earlier in the window keeps its slot
    // and takes the newer value.
    void Stage(const PageWrite& page);
  };

  // Whether `slot` is valid and its checksum (over seq, length and data)
  // holds.
  static bool Verified(const Slot& slot);
  // Index of the verified slot with the highest sequence, or -1.
  static int CommittedSlot(const Page& page);
  // The committed slot's bytes (null if none).
  static const std::string* CommittedData(const Page& page);

  // One sampled disk latency, stretched by the gray-disk multiplier.
  Duration SampleLatency(const LatencyModel& model);

  // `key`'s page, created if absent.
  Page& PageFor(std::string_view key);
  // Invalidates `key`'s target slot for the duration of a write window.
  void TearTarget(std::string_view key);
  // Installs `value` into `key`'s torn slot with the next sequence number,
  // copying it into the slot's own buffer: a slot keeps its capacity, and a
  // small page never takes over a large staging buffer.
  void Install(std::string_view key, std::string_view value);

  Simulator* sim_;
  Host* host_;
  LatencyModel write_latency_;
  LatencyModel read_latency_;
  PageMap pages_;
  std::vector<std::unique_ptr<FlushBatch>> batches_;
  FlushBatch* current_batch_ = nullptr;  // the open batch writers join
  uint64_t next_batch_id_ = 1;
  StoreFaults faults_;
  Tracer* tracer_ = nullptr;
  StableStoreStats stats_;
};

}  // namespace wvote

#endif  // WVOTE_SRC_STORAGE_STABLE_STORE_H_
