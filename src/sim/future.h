// One-shot Promise/Future pair bridging callbacks and coroutines.
//
// A Promise is the producer side (an RPC reply arriving, a timeout firing);
// the Future is awaited by exactly one coroutine. The first Set() wins —
// later ones are ignored — which makes the reply/timeout race a one-liner.
// Resumption of the waiter is delivered through the simulator's event queue
// at the current timestamp, so completion order is deterministic and the
// setter's stack never runs awaiter code inline.

#ifndef WVOTE_SRC_SIM_FUTURE_H_
#define WVOTE_SRC_SIM_FUTURE_H_

#include <coroutine>
#include <memory>
#include <optional>
#include <utility>

#include "src/common/check.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace wvote {

namespace internal {

template <typename T>
struct FutureState {
  explicit FutureState(Simulator* sim) : sim(sim) {}

  Simulator* sim;
  std::optional<T> value;
  std::coroutine_handle<> waiter;
  bool resume_scheduled = false;

  void MaybeScheduleResume() {
    if (value.has_value() && waiter && !resume_scheduled) {
      resume_scheduled = true;
      std::coroutine_handle<> h = waiter;
      sim->Schedule(Duration::Zero(), [h]() { h.resume(); });
    }
  }
};

}  // namespace internal

template <typename T>
class Future {
 public:
  Future() = default;

  bool valid() const { return state_ != nullptr; }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::shared_ptr<internal::FutureState<T>> state;
      bool await_ready() const noexcept { return state->value.has_value(); }
      void await_suspend(std::coroutine_handle<> h) {
        WVOTE_CHECK_MSG(!state->waiter, "Future awaited twice");
        state->waiter = h;
        state->MaybeScheduleResume();
      }
      T await_resume() { return std::move(*state->value); }
    };
    WVOTE_CHECK_MSG(state_ != nullptr, "co_await on empty Future");
    return Awaiter{state_};
  }

 private:
  template <typename U>
  friend class Promise;
  explicit Future(std::shared_ptr<internal::FutureState<T>> state) : state_(std::move(state)) {}
  std::shared_ptr<internal::FutureState<T>> state_;
};

template <typename T>
class Promise {
 public:
  explicit Promise(Simulator* sim)
      : state_(std::allocate_shared<internal::FutureState<T>>(
            internal::PoolAllocator<internal::FutureState<T>>(), sim)) {}

  Future<T> GetFuture() { return Future<T>(state_); }

  // Completes the future. Returns true if this call provided the value,
  // false if it was already set (e.g. the reply lost the race to the
  // timeout).
  bool Set(T value) {
    if (state_->value.has_value()) {
      return false;
    }
    state_->value.emplace(std::move(value));
    state_->MaybeScheduleResume();
    return true;
  }

  bool IsSet() const { return state_->value.has_value(); }

 private:
  std::shared_ptr<internal::FutureState<T>> state_;
};

}  // namespace wvote

#endif  // WVOTE_SRC_SIM_FUTURE_H_
