// Deterministic discrete-event simulator.
//
// The Simulator owns simulated time: events fire in (timestamp, insertion
// sequence) order against a monotone clock. All activity in wvote — network
// message delivery, RPC timeouts, disk latencies, client think times — is an
// event here. Two runs with the same seed and the same schedule of API calls
// produce byte-identical behavior.
//
// The event queue is a hierarchical timer wheel, not a binary heap: 11
// levels of 64 slots, each level covering 64x the span of the one below it
// (level 0 slots are single microsecond ticks). Insert and pop are O(1)
// with an occupancy bitmap per level; events parked in a coarse slot are
// re-dealt ("cascaded") into finer levels only when the clock reaches that
// slot, which amortizes to O(1) per event. Event nodes come from a freelist
// over chunked pools and callbacks are constructed in place inside the node
// (one heap allocation only for captures over kInlineCallbackBytes), so the
// steady-state hot loop allocates nothing. Cancellation is a generation
// counter on the pooled node: an EventHandle remembers the generation it was
// issued under and goes inert the moment the node is recycled, replacing the
// shared_ptr<bool> flag the heap-based queue used. See DESIGN.md §13.
//
// Coroutines integrate through Simulator::Sleep (an awaitable that resumes
// the coroutine after a simulated delay) and through Promise/Future
// (src/sim/future.h), whose completions are delivered as events.

#ifndef WVOTE_SRC_SIM_SIMULATOR_H_
#define WVOTE_SRC_SIM_SIMULATOR_H_

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/time.h"
#include "src/sim/random.h"

namespace wvote {

class MetricsRegistry;
class Simulator;

namespace sim_internal {

// Callbacks whose captures fit in this many bytes are constructed in place
// inside the pooled event node; larger ones pay one heap allocation. 48
// bytes covers the hot paths (delivery batches, RPC timeouts, coroutine
// resumptions) with room to spare.
inline constexpr size_t kInlineCallbackBytes = 48;

// One scheduled event. Nodes are pool-allocated and never move, so the
// callback lives directly in `storage` and needs no move support. `gen` is
// bumped every time the node returns to the freelist; an EventHandle issued
// under an older generation is inert.
struct EventNode {
  uint64_t when_us = 0;
  uint64_t seq = 0;
  uint64_t gen = 0;
  EventNode* next = nullptr;
  // Runs the callback and destroys it (the hot path pays one indirect call).
  void (*run)(EventNode*) = nullptr;
  // Destroys the callback without running it (cancellation, teardown);
  // nullptr when the callable is trivially destructible.
  void (*destroy)(EventNode*) = nullptr;
  bool cancelled = false;
  alignas(std::max_align_t) unsigned char storage[kInlineCallbackBytes];
};

template <typename F>
void RunInline(EventNode* n) {
  F* f = std::launder(reinterpret_cast<F*>(n->storage));
  (*f)();
  f->~F();
}

template <typename F>
void DestroyInline(EventNode* n) {
  std::launder(reinterpret_cast<F*>(n->storage))->~F();
}

template <typename F>
void RunBoxed(EventNode* n) {
  F* f = *std::launder(reinterpret_cast<F**>(n->storage));
  (*f)();
  delete f;
}

template <typename F>
void DestroyBoxed(EventNode* n) {
  delete *std::launder(reinterpret_cast<F**>(n->storage));
}

template <typename F>
void InstallCallback(EventNode* n, F&& fn) {
  using Fn = std::decay_t<F>;
  if constexpr (sizeof(Fn) <= kInlineCallbackBytes &&
                alignof(Fn) <= alignof(std::max_align_t)) {
    ::new (static_cast<void*>(n->storage)) Fn(std::forward<F>(fn));
    n->run = &RunInline<Fn>;
    n->destroy = std::is_trivially_destructible_v<Fn> ? nullptr : &DestroyInline<Fn>;
  } else {
    ::new (static_cast<void*>(n->storage)) Fn*(new Fn(std::forward<F>(fn)));
    n->run = &RunBoxed<Fn>;
    n->destroy = &DestroyBoxed<Fn>;
  }
}

}  // namespace sim_internal

// Handle to a scheduled event; allows cancellation (e.g. an RPC reply
// cancelling its timeout). Copies share the same underlying event.
// Cancellation is lazy — the event node is skipped and recycled when the
// wheel reaches its timestamp — and a handle whose event already fired (or
// whose node was recycled) is inert. Handles must not outlive the Simulator
// that issued them.
class EventHandle {
 public:
  EventHandle() = default;

  // Prevents the event's callback from running if it has not run yet.
  void Cancel();  // defined after Simulator

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, sim_internal::EventNode* node, uint64_t gen)
      : sim_(sim), node_(node), gen_(gen) {}
  Simulator* sim_ = nullptr;
  sim_internal::EventNode* node_ = nullptr;
  uint64_t gen_ = 0;
};

// Event-loop counters, registered as `sim.events_*` by RegisterMetrics.
// Deliberately not wired into MetricsRegistry::Reset: events_processed backs
// Simulator::events_processed(), which callers treat as monotone for the
// simulator's lifetime.
struct SimStats {
  uint64_t events_scheduled = 0;
  uint64_t events_processed = 0;
  uint64_t events_cancelled = 0;
  uint64_t events_coalesced = 0;  // deliveries folded into an existing event
};

class Simulator {
 public:
  explicit Simulator(uint64_t seed);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint Now() const { return now_; }
  Rng& rng() { return rng_; }

  // Runs `fn` after `delay` of simulated time (same timestamp ties run in
  // scheduling order). Accepts any nullary callable; captures up to
  // kInlineCallbackBytes are stored inline in the pooled event node.
  template <typename F>
  EventHandle Schedule(Duration delay, F&& fn) {
    WVOTE_CHECK_MSG(delay >= Duration::Zero(), "cannot schedule in the past");
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }
  template <typename F>
  EventHandle ScheduleAt(TimePoint when, F&& fn) {
    WVOTE_CHECK_MSG(when >= now_, "cannot schedule in the past");
    WVOTE_CHECK_MSG(!in_metronome_,
                    "metronome hooks are pure observers and must not schedule events");
    sim_internal::EventNode* node = AcquireNode();
    node->when_us = static_cast<uint64_t>(when.ToMicros());
    node->seq = next_seq_++;
    sim_internal::InstallCallback(node, std::forward<F>(fn));
    InsertNode(node);
    ++stats_.events_scheduled;
    ++pending_;
    return EventHandle(this, node, node->gen);
  }

  // Drains the queue completely.
  void Run();

  // Processes exactly one event; false if the queue is empty. Lets callers
  // pump the simulation until an external condition holds (e.g. a spawned
  // task produced its result).
  bool StepOne() { return Step(TimePoint::FromMicros(INT64_MAX)); }

  // Processes events up to and including `limit`, then advances the clock to
  // `limit`. Returns the number of events processed.
  size_t RunUntil(TimePoint limit);
  size_t RunFor(Duration d) { return RunUntil(Now() + d); }

  size_t events_processed() const { return static_cast<size_t>(stats_.events_processed); }
  // Scheduled-but-not-fired events, including cancelled ones the wheel has
  // not reaped yet (cancellation is lazy).
  size_t events_pending() const { return pending_; }

  // Sequence number the next ScheduleAt will consume. The network uses this
  // to detect "nothing was scheduled in between" when deciding whether a
  // delivery may be coalesced into an open batch without reordering events.
  uint64_t next_seq() const { return next_seq_; }

  const SimStats& stats() const { return stats_; }
  // Called by the network when a delivery was folded into an existing event
  // instead of scheduling a new one.
  void NoteCoalesced() { ++stats_.events_coalesced; }

  // Sim-time metronome: runs `hook` every time the clock is about to pass
  // the next multiple of `period` (fired lazily, just before the event that
  // crosses the deadline, or when RunUntil advances the clock to its limit).
  // Unlike Schedule(), the metronome lives outside the timer wheel: it
  // consumes no event nodes and no sequence numbers, so enabling it cannot
  // perturb event ordering, rng streams, or delivery coalescing — golden
  // replays stay bit-exact with a metronome attached. That property is
  // load-bearing for the metrics scraper (DESIGN §15). In exchange the hook
  // must be a pure observer: scheduling events from inside it is a checked
  // error (an event inserted there could predate the event already popped
  // from the wheel). One metronome per simulator; setting a new one
  // re-anchors the next deadline at the first multiple of `period` after
  // Now(). `max_catchup` bounds deadlines fired per clock advance: if the
  // clock jumps further (a long idle gap), older deadlines are skipped and
  // the hook's first call after the gap is late — observers that need dense
  // windows backfill from the gap they see in the fire times.
  void SetMetronome(Duration period, std::function<void(TimePoint)> hook,
                    uint64_t max_catchup = 256);
  void ClearMetronome();

  // Registers the `sim.events_*` counters.
  void RegisterMetrics(MetricsRegistry* registry);

  // Awaitable: suspends the calling coroutine for `d` of simulated time.
  // Sleep(Duration::Zero()) yields: the coroutine resumes after already
  // queued same-timestamp events.
  auto Sleep(Duration d) {
    struct Awaiter {
      Simulator* sim;
      Duration delay;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim->Schedule(delay, [h]() { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

 private:
  friend class EventHandle;

  // 11 levels x 64 slots: level L slots are 64^L microseconds wide, so the
  // top level's window exceeds any representable timestamp and no separate
  // overflow list is needed.
  static constexpr int kLevels = 11;
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 1 << kSlotBits;
  static constexpr size_t kChunkNodes = 512;

  struct Level {
    uint64_t base = 0;      // timestamp where this level's slot 0 begins
    uint64_t occupied = 0;  // bit s set iff slot s has events
    sim_internal::EventNode* head[kSlots] = {};
    sim_internal::EventNode* tail[kSlots] = {};
  };

  sim_internal::EventNode* AcquireNode() {
    if (free_ == nullptr) {
      AllocateChunk();
    }
    sim_internal::EventNode* node = free_;
    free_ = node->next;
    node->cancelled = false;
    return node;
  }
  void AllocateChunk();
  void RecycleNode(sim_internal::EventNode* node) {
    ++node->gen;  // outstanding handles to this node go inert
    node->next = free_;
    free_ = node;
  }
  void InsertNode(sim_internal::EventNode* node);
  // Pops and runs the next event. Returns false if the queue is empty or the
  // next event is after `limit`.
  bool Step(TimePoint limit);
  // Fires metronome deadlines (at most max_catchup of them) up to and
  // including `t_us`, advancing the clock to each deadline as it fires.
  void FireMetronomeUpTo(uint64_t t_us);
  void NoteCancelled() { ++stats_.events_cancelled; }

  TimePoint now_;
  uint64_t next_seq_ = 0;
  size_t pending_ = 0;
  SimStats stats_;
  std::function<void(TimePoint)> metronome_hook_;
  uint64_t metronome_period_us_ = 0;
  uint64_t metronome_next_us_ = 0;
  uint64_t metronome_max_catchup_ = 0;
  bool in_metronome_ = false;
  Level levels_[kLevels];
  std::vector<std::unique_ptr<sim_internal::EventNode[]>> chunks_;
  sim_internal::EventNode* free_ = nullptr;
  Rng rng_;
};

inline void EventHandle::Cancel() {
  if (node_ == nullptr || node_->gen != gen_ || node_->cancelled) {
    return;  // never issued, already fired/recycled, or already cancelled
  }
  node_->cancelled = true;
  sim_->NoteCancelled();
}

}  // namespace wvote

#endif  // WVOTE_SRC_SIM_SIMULATOR_H_
