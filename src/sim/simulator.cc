#include "src/sim/simulator.h"

#include <bit>

#include "src/obs/metrics.h"

namespace wvote {

using sim_internal::EventNode;

Simulator::Simulator(uint64_t seed) : rng_(seed) {}

Simulator::~Simulator() {
  // Destroy callbacks still parked in the wheel; their captures (promises,
  // messages, coroutine frames) may own resources. Pool chunks free with
  // chunks_.
  for (Level& level : levels_) {
    for (EventNode* node : level.head) {
      while (node != nullptr) {
        EventNode* next = node->next;
        if (node->destroy != nullptr) {
          node->destroy(node);
        }
        node = next;
      }
    }
  }
}

void Simulator::AllocateChunk() {
  auto chunk = std::make_unique<EventNode[]>(kChunkNodes);
  for (size_t i = 0; i < kChunkNodes; ++i) {
    chunk[i].next = free_;
    free_ = &chunk[i];
  }
  chunks_.push_back(std::move(chunk));
}

void Simulator::InsertNode(EventNode* node) {
  const uint64_t when = node->when_us;
  // Lowest level whose window [base, base + 64^(l+1)) contains `when`; the
  // top level is a catch-all (its window exceeds any int64 timestamp).
  int lvl = kLevels - 1;
  for (int l = 0; l < kLevels - 1; ++l) {
    const uint64_t window = uint64_t{1} << (kSlotBits * (l + 1));
    if (when >= levels_[l].base && when - levels_[l].base < window) {
      lvl = l;
      break;
    }
  }
  Level& level = levels_[lvl];
  WVOTE_DCHECK(when >= level.base);
  const int s = static_cast<int>((when - level.base) >> (kSlotBits * lvl));
  node->next = nullptr;
  if (level.head[s] == nullptr) {
    level.head[s] = node;
    level.tail[s] = node;
    level.occupied |= uint64_t{1} << s;
  } else {
    // Fresh inserts carry a globally increasing seq, so tail-append keeps
    // every slot chain sorted by seq.
    level.tail[s]->next = node;
    level.tail[s] = node;
  }
}

bool Simulator::Step(TimePoint limit) {
  const uint64_t limit_us = static_cast<uint64_t>(limit.ToMicros());
  for (;;) {
    Level& l0 = levels_[0];
    while (l0.occupied == 0) {
      int lvl = 1;
      while (lvl < kLevels && levels_[lvl].occupied == 0) {
        ++lvl;
      }
      if (lvl == kLevels) {
        // Wheel empty. Reset the origins: reaping trailing cancelled events
        // advances level bases without advancing now_, and a later insert at
        // a timestamp below a stranded base would land in the wrong slot.
        for (Level& level : levels_) {
          level.base = 0;
        }
        return false;
      }
      // The earliest pending event sits in this level's lowest occupied
      // slot. If that whole slot starts after `limit`, stop before touching
      // the wheel so the bases never pass the clock RunUntil will set.
      Level& src = levels_[lvl];
      const int slot = std::countr_zero(src.occupied);
      const uint64_t width = uint64_t{1} << (kSlotBits * lvl);
      const uint64_t slot_start = src.base + static_cast<uint64_t>(slot) * width;
      if (slot_start > limit_us) {
        return false;
      }
      // Cascade: re-anchor every lower level at this slot's start and deal
      // the slot's chain one level down. The chain is seq-sorted and the
      // destination slots are all empty (lower levels were exhausted), so
      // tail-appends preserve per-slot seq order.
      EventNode* chain = src.head[slot];
      src.head[slot] = nullptr;
      src.tail[slot] = nullptr;
      src.occupied &= ~(uint64_t{1} << slot);
      for (int k = 0; k < lvl; ++k) {
        levels_[k].base = slot_start;
      }
      Level& dst = levels_[lvl - 1];
      const int shift = kSlotBits * (lvl - 1);
      while (chain != nullptr) {
        EventNode* next = chain->next;
        const int s = static_cast<int>((chain->when_us - slot_start) >> shift);
        chain->next = nullptr;
        if (dst.head[s] == nullptr) {
          dst.head[s] = chain;
          dst.tail[s] = chain;
          dst.occupied |= uint64_t{1} << s;
        } else {
          dst.tail[s]->next = chain;
          dst.tail[s] = chain;
        }
        chain = next;
      }
    }
    // Level-0 slots are single ticks, so the lowest occupied slot is the
    // earliest timestamp and its chain head carries the lowest seq.
    const int slot = std::countr_zero(l0.occupied);
    const uint64_t tick = l0.base + static_cast<uint64_t>(slot);
    if (tick > limit_us) {
      return false;
    }
    EventNode* node = l0.head[slot];
    l0.head[slot] = node->next;
    if (l0.head[slot] == nullptr) {
      l0.tail[slot] = nullptr;
      l0.occupied &= ~(uint64_t{1} << slot);
    }
    --pending_;
    if (node->cancelled) {
      // Reaping a cancelled event advances neither the clock nor
      // events_processed.
      if (node->destroy != nullptr) {
        node->destroy(node);
      }
      RecycleNode(node);
      continue;
    }
    WVOTE_DCHECK(tick >= static_cast<uint64_t>(now_.ToMicros()));
    if (metronome_hook_ && metronome_next_us_ <= tick) {
      // Close every sample window the clock is about to pass before the
      // event that crosses it runs; a deadline landing exactly on `tick`
      // samples before same-timestamp events execute.
      FireMetronomeUpTo(tick);
    }
    now_ = TimePoint::FromMicros(static_cast<int64_t>(tick));
    ++stats_.events_processed;
    node->run(node);  // runs and destroys the callback
    RecycleNode(node);
    return true;
  }
}

void Simulator::Run() {
  while (Step(TimePoint::FromMicros(INT64_MAX))) {
  }
}

size_t Simulator::RunUntil(TimePoint limit) {
  size_t n = 0;
  while (Step(limit)) {
    ++n;
  }
  if (metronome_hook_) {
    // Deadlines between the last event and the limit still close their
    // windows even though no event crosses them.
    FireMetronomeUpTo(static_cast<uint64_t>(limit.ToMicros()));
  }
  if (limit > now_) {
    now_ = limit;
  }
  return n;
}

void Simulator::SetMetronome(Duration period, std::function<void(TimePoint)> hook,
                             uint64_t max_catchup) {
  WVOTE_CHECK_MSG(period > Duration::Zero(), "metronome period must be positive");
  metronome_hook_ = std::move(hook);
  metronome_period_us_ = static_cast<uint64_t>(period.ToMicros());
  metronome_max_catchup_ = max_catchup == 0 ? 1 : max_catchup;
  // Anchor at the first multiple of the period strictly after Now(), so fire
  // times are period-aligned regardless of when the metronome was attached.
  const uint64_t now_us = static_cast<uint64_t>(now_.ToMicros());
  metronome_next_us_ = (now_us / metronome_period_us_ + 1) * metronome_period_us_;
}

void Simulator::ClearMetronome() {
  metronome_hook_ = nullptr;
  metronome_period_us_ = 0;
  metronome_next_us_ = 0;
}

void Simulator::FireMetronomeUpTo(uint64_t t_us) {
  if (!metronome_hook_ || metronome_next_us_ > t_us) {
    return;
  }
  // Bound the deadlines fired for one clock advance: a jump across a long
  // idle gap skips the stale ones (keeping period alignment) instead of
  // grinding through millions of samples of a provably idle simulation.
  const uint64_t due = (t_us - metronome_next_us_) / metronome_period_us_ + 1;
  if (due > metronome_max_catchup_) {
    metronome_next_us_ +=
        (due - metronome_max_catchup_) * metronome_period_us_;
  }
  in_metronome_ = true;
  while (metronome_next_us_ <= t_us) {
    const TimePoint at = TimePoint::FromMicros(static_cast<int64_t>(metronome_next_us_));
    if (at > now_) {
      now_ = at;
    }
    metronome_next_us_ += metronome_period_us_;
    metronome_hook_(at);
  }
  in_metronome_ = false;
}

void Simulator::RegisterMetrics(MetricsRegistry* registry) {
  registry->RegisterCounter("sim.events_scheduled", {}, &stats_.events_scheduled);
  registry->RegisterCounter("sim.events_processed", {}, &stats_.events_processed);
  registry->RegisterCounter("sim.events_cancelled", {}, &stats_.events_cancelled);
  registry->RegisterCounter("sim.events_coalesced", {}, &stats_.events_coalesced);
}

}  // namespace wvote
