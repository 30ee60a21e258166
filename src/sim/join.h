// The one concurrency combinator for Tasks.
//
// JoinUntil runs a batch of tasks concurrently and returns as soon as a
// predicate over the results-so-far is satisfied — the primitive under
// quorum gathering, where a caller polls all representatives but proceeds
// once enough votes have answered. Tasks still in flight keep running
// detached; their late results are delivered to the optional `leftover`
// callback (weighted voting uses this to release locks that stragglers were
// granted after their transaction ended). With the NeverEnough predicate it
// awaits every task (the 2PC coordinator's prepare, commit and abort
// fan-outs).
//
// JoinUntil works in caller-owned vectors, so a caller that keeps them from
// one join to the next (the suite client's recycled transaction state, the
// coordinator's fan-out free list) runs its steady-state joins without heap
// allocation: the join's own bookkeeping comes from FramePool, and the
// callbacks are stored by type, not behind a std::function.

#ifndef WVOTE_SRC_SIM_JOIN_H_
#define WVOTE_SRC_SIM_JOIN_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/sim/future.h"
#include "src/sim/task.h"

namespace wvote {

namespace internal {

// Shared by the awaiting join and its per-task runners; the runners outlive
// the awaiter when the join returns early. `results` belongs to the awaiter
// and is written only until `satisfied`.
template <typename T, typename Enough, typename Leftover>
struct JoinState {
  JoinState(Simulator* sim, std::vector<T>* results, Enough enough, Leftover leftover)
      : results(results), enough(std::move(enough)), leftover(std::move(leftover)), done(sim) {}
  std::vector<T>* results;
  size_t remaining = 0;
  bool satisfied = false;
  Enough enough;
  Leftover leftover;
  Promise<bool> done;
};

template <typename T, typename State>
Task<void> JoinRunOne(std::shared_ptr<State> state, Task<T> task) {
  T result = co_await std::move(task);
  if (state->satisfied) {
    state->leftover(std::move(result));
  } else {
    state->results->push_back(std::move(result));
    if (state->enough(*state->results)) {
      state->satisfied = true;
      state->done.Set(true);
    }
  }
  if (--state->remaining == 0 && !state->satisfied) {
    state->satisfied = true;
    state->done.Set(true);
  }
}

// JoinUntil's default straggler handler. It carries a user-declared
// constructor per the GCC 12 rule in src/sim/task.h.
struct DropLeftover {
  DropLeftover() {}
  template <typename V>
  void operator()(V&&) const {}
};

}  // namespace internal

// The predicate of a join that awaits every task. Like DropLeftover, it
// carries a user-declared constructor per the GCC 12 rule.
struct NeverEnough {
  NeverEnough() {}
  template <typename V>
  bool operator()(const V&) const {
    return false;
  }
};

// Starts every task in `tasks` (leaving the vector empty, its capacity kept)
// and waits until `enough(results)` holds after a completion, or every task
// has finished. `results` is cleared first and receives the results that
// arrived before the join returned, in completion order. Stragglers run on
// detached and hand their results to `leftover`. Both callbacks are stored
// by value in the join's shared state; pass lambdas as named variables
// (std::move'd), per the GCC 12 rule in src/sim/task.h. `tasks` and
// `results` must outlive the returned task.
template <typename T, typename Enough, typename Leftover = internal::DropLeftover>
Task<void> JoinUntil(Simulator* sim, std::vector<Task<T>>& tasks, std::vector<T>& results,
                     Enough enough, Leftover leftover = Leftover()) {
  results.clear();
  if (tasks.empty()) {
    co_return;
  }
  using State = internal::JoinState<T, Enough, Leftover>;
  auto state = std::allocate_shared<State>(internal::PoolAllocator<State>(), sim, &results,
                                           std::move(enough), std::move(leftover));
  state->remaining = tasks.size();
  for (Task<T>& t : tasks) {
    Spawn(internal::JoinRunOne<T>(state, std::move(t)));
  }
  tasks.clear();
  // `done` is only set together with `satisfied`, after which stragglers
  // hand their results to `leftover` and never touch `results` again.
  co_await state->done.GetFuture();
}

}  // namespace wvote

#endif  // WVOTE_SRC_SIM_JOIN_H_
