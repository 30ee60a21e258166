// Concurrency combinators for Tasks.
//
// JoinAll runs a batch of tasks concurrently and returns every result.
// JoinUntil returns as soon as a predicate over the results-so-far is
// satisfied — the primitive under quorum gathering, where a caller polls all
// representatives but proceeds once enough votes have answered. Tasks still
// in flight keep running detached; their late results are delivered to the
// optional `leftover` callback (weighted voting uses this to refresh stale
// representatives in the background).

#ifndef WVOTE_SRC_SIM_JOIN_H_
#define WVOTE_SRC_SIM_JOIN_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/sim/future.h"
#include "src/sim/task.h"

namespace wvote {

namespace internal {

template <typename T>
struct JoinState {
  explicit JoinState(Simulator* sim) : done(sim) {}
  std::vector<T> results;
  size_t remaining = 0;
  bool satisfied = false;
  std::function<bool(const std::vector<T>&)> enough;
  std::function<void(T)> leftover;
  Promise<bool> done;
};

template <typename T>
Task<void> JoinRunOne(std::shared_ptr<JoinState<T>> state, Task<T> task) {
  T result = co_await std::move(task);
  if (state->satisfied) {
    if (state->leftover) {
      state->leftover(std::move(result));
    }
  } else {
    state->results.push_back(std::move(result));
    if (state->enough && state->enough(state->results)) {
      state->satisfied = true;
      state->done.Set(true);
    }
  }
  if (--state->remaining == 0 && !state->satisfied) {
    state->satisfied = true;
    state->done.Set(true);
  }
}

}  // namespace internal

// Awaits every task; results are in completion order.
template <typename T>
Task<std::vector<T>> JoinAll(Simulator* sim, std::vector<Task<T>> tasks) {
  auto state = std::make_shared<internal::JoinState<T>>(sim);
  state->remaining = tasks.size();
  if (tasks.empty()) {
    co_return std::vector<T>{};
  }
  for (Task<T>& t : tasks) {
    Spawn(internal::JoinRunOne<T>(state, std::move(t)));
  }
  co_await state->done.GetFuture();
  co_return std::move(state->results);
}

// Awaits tasks until `enough(results_so_far)` holds (checked after each
// completion) or all tasks finish. Stragglers run on detached; if `leftover`
// is provided it receives each straggler's result.
template <typename T>
Task<std::vector<T>> JoinUntil(Simulator* sim, std::vector<Task<T>> tasks,
                               std::function<bool(const std::vector<T>&)> enough,
                               std::function<void(T)> leftover = nullptr) {
  auto state = std::make_shared<internal::JoinState<T>>(sim);
  state->remaining = tasks.size();
  state->enough = std::move(enough);
  state->leftover = std::move(leftover);
  if (tasks.empty()) {
    co_return std::vector<T>{};
  }
  for (Task<T>& t : tasks) {
    Spawn(internal::JoinRunOne<T>(state, std::move(t)));
  }
  co_await state->done.GetFuture();
  // `done` is only set together with `satisfied`, after which stragglers
  // hand their results to `leftover` and never touch `results` again.
  co_return std::move(state->results);
}

}  // namespace wvote

#endif  // WVOTE_SRC_SIM_JOIN_H_
