// Coroutine machinery tests: Task, Future/Promise, Sleep, Spawn, JoinAll,
// JoinUntil. These pin down the exact semantics the protocol code relies on
// (lazy start, symmetric completion, first-set-wins futures, deterministic
// resumption through the event queue).

#include <gtest/gtest.h>

#include <array>
#include <coroutine>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/sim/future.h"
#include "src/sim/join.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace wvote {
namespace {

Task<int> Return42() { co_return 42; }

Task<int> AddOne(Task<int> inner) {
  const int v = co_await std::move(inner);
  co_return v + 1;
}

Task<void> StoreResult(Task<int> inner, int* out) { *out = co_await std::move(inner); }

TEST(TaskTest, SpawnRunsToCompletionSynchronouslyWhenNoSuspension) {
  int out = 0;
  Spawn(StoreResult(Return42(), &out));
  EXPECT_EQ(out, 42);
}

TEST(TaskTest, NestedAwaits) {
  int out = 0;
  Spawn(StoreResult(AddOne(AddOne(Return42())), &out));
  EXPECT_EQ(out, 44);
}

TEST(TaskTest, LazyUntilAwaited) {
  bool started = false;
  auto body = [](bool* started) -> Task<int> {
    *started = true;
    co_return 1;
  };
  {
    Task<int> t = body(&started);
    EXPECT_FALSE(started);  // not started: destroyed without running
  }
  EXPECT_FALSE(started);
}

TEST(TaskTest, MoveTransfersOwnership) {
  Task<int> a = Return42();
  Task<int> b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  int out = 0;
  Spawn(StoreResult(std::move(b), &out));
  EXPECT_EQ(out, 42);
}

TEST(TaskTest, StringPayloadsSurviveTheChain) {
  auto make = [](std::string s) -> Task<std::string> { co_return s + s; };
  auto outer = [&make](std::string* out) -> Task<void> {
    std::string payload(100, 'p');
    *out = co_await make(std::move(payload));
  };
  std::string out;
  Spawn(outer(&out));
  EXPECT_EQ(out, std::string(200, 'p'));
}

// Reports the awaiting coroutine's frame address without suspending.
struct FrameAddress {
  void* address = nullptr;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) noexcept {
    address = h.address();
    return false;
  }
  void* await_resume() const noexcept { return address; }
};

// A coroutine whose frame keeps `N` bytes of locals alive across a real
// suspension, so different N land in different pool size classes. Appends
// its own frame address to `frames`.
template <size_t N>
Task<int> PaddedFrame(Simulator* sim, std::vector<void*>* frames) {
  std::array<char, N> pad{};
  pad[0] = 1;
  frames->push_back(co_await FrameAddress{});
  co_await sim->Sleep(Duration::Zero());
  pad[N - 1] = pad[0];
  co_return pad[N - 1];
}

// Nested awaits across three size classes.
Task<void> NestedFrames(Simulator* sim, std::vector<void*>* frames, int* sum) {
  frames->push_back(co_await FrameAddress{});
  *sum += co_await PaddedFrame<16>(sim, frames);
  *sum += co_await PaddedFrame<300>(sim, frames);
  *sum += co_await PaddedFrame<1200>(sim, frames);
}

TEST(FramePoolTest, BlocksAreReusedWithinASizeClass) {
  using internal::FramePool;
  void* a = FramePool::Allocate(100);
  FramePool::Deallocate(a, 100);
  // 100 and 120 bytes round up to the same 128-byte class.
  void* b = FramePool::Allocate(120);
  EXPECT_EQ(a, b);
  void* c = FramePool::Allocate(1000);
  EXPECT_NE(c, b);
  FramePool::Deallocate(b, 120);
  FramePool::Deallocate(c, 1000);
  // Frames above the largest class bypass the pool.
  void* big = FramePool::Allocate(FramePool::kMaxPooled + 1);
  FramePool::Deallocate(big, FramePool::kMaxPooled + 1);
}

#ifdef WVOTE_FRAME_POOL_POISON
TEST(FramePoolTest, ParkedBlocksArePoisonedUnderAsan) {
  using internal::FramePool;
  void* a = FramePool::Allocate(200);
  EXPECT_FALSE(__asan_address_is_poisoned(a));
  FramePool::Deallocate(a, 200);
  EXPECT_TRUE(__asan_address_is_poisoned(a));
  void* b = FramePool::Allocate(200);
  ASSERT_EQ(a, b);
  EXPECT_FALSE(__asan_address_is_poisoned(b));
  FramePool::Deallocate(b, 200);
}
#endif

TEST(FramePoolTest, SpawnedAndNestedFramesAreRecycled) {
  // Two identical rounds of spawned coroutines with nested awaits over
  // several size classes. Every frame of the second round must reuse a block
  // freed by the first: the pool hands back the most recently parked block
  // of a class, and the second round never has more frames of a class alive
  // at once than the first did.
  Simulator sim(1);
  auto round = [&sim]() {
    std::vector<void*> frames;
    int sum = 0;
    for (int i = 0; i < 3; ++i) {
      Spawn(NestedFrames(&sim, &frames, &sum));
    }
    sim.Run();
    EXPECT_EQ(sum, 9);
    return frames;
  };
  const std::vector<void*> first = round();
  const std::vector<void*> second = round();
  ASSERT_EQ(first.size(), 12u);
  ASSERT_EQ(second.size(), first.size());
  const std::set<void*> first_set(first.begin(), first.end());
  EXPECT_EQ(first_set.size(), 12u) << "frames alive at once are distinct";
  for (void* frame : second) {
    EXPECT_EQ(first_set.count(frame), 1u) << frame;
  }
}

TEST(SleepTest, ResumesAtTheRightTime) {
  Simulator sim(1);
  TimePoint resumed_at;
  auto sleeper = [](Simulator* sim, TimePoint* out) -> Task<void> {
    co_await sim->Sleep(Duration::Millis(25));
    *out = sim->Now();
  };
  Spawn(sleeper(&sim, &resumed_at));
  sim.Run();
  EXPECT_EQ(resumed_at, TimePoint() + Duration::Millis(25));
}

TEST(SleepTest, ZeroSleepYields) {
  Simulator sim(1);
  std::vector<int> order;
  auto yielder = [](Simulator* sim, std::vector<int>* order) -> Task<void> {
    order->push_back(1);
    co_await sim->Sleep(Duration::Zero());
    order->push_back(3);
  };
  Spawn(yielder(&sim, &order));
  order.push_back(2);  // runs before the yielded continuation
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SleepTest, ConcurrentSleepersInterleave) {
  Simulator sim(1);
  std::vector<std::string> log;
  auto worker = [](Simulator* sim, std::vector<std::string>* log, std::string name,
                   int step_ms) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await sim->Sleep(Duration::Millis(step_ms));
      log->push_back(name + std::to_string(i));
    }
  };
  Spawn(worker(&sim, &log, "a", 10));
  Spawn(worker(&sim, &log, "b", 15));
  sim.Run();
  // a fires at 10,20,30; b at 15,30,45. The t=30 tie goes to b1, whose sleep
  // was scheduled (at t=15) before a2's (at t=20).
  EXPECT_EQ(log, (std::vector<std::string>{"a0", "b0", "a1", "b1", "a2", "b2"}));
}

TEST(FutureTest, SetBeforeAwaitIsImmediatelyReady) {
  Simulator sim(1);
  Promise<int> promise(&sim);
  EXPECT_TRUE(promise.Set(5));
  int out = 0;
  auto waiter = [](Future<int> f, int* out) -> Task<void> { *out = co_await std::move(f); };
  Spawn(waiter(promise.GetFuture(), &out));
  sim.Run();
  EXPECT_EQ(out, 5);
}

TEST(FutureTest, SetAfterAwaitResumes) {
  Simulator sim(1);
  Promise<int> promise(&sim);
  int out = 0;
  auto waiter = [](Future<int> f, int* out) -> Task<void> { *out = co_await std::move(f); };
  Spawn(waiter(promise.GetFuture(), &out));
  EXPECT_EQ(out, 0);
  promise.Set(9);
  EXPECT_EQ(out, 0);  // resumption is delivered through the event queue
  sim.Run();
  EXPECT_EQ(out, 9);
}

TEST(FutureTest, FirstSetWins) {
  Simulator sim(1);
  Promise<int> promise(&sim);
  EXPECT_TRUE(promise.Set(1));
  EXPECT_FALSE(promise.Set(2));
  int out = 0;
  auto waiter = [](Future<int> f, int* out) -> Task<void> { *out = co_await std::move(f); };
  Spawn(waiter(promise.GetFuture(), &out));
  sim.Run();
  EXPECT_EQ(out, 1);
}

TEST(FutureTest, IsSetReflectsState) {
  Simulator sim(1);
  Promise<int> promise(&sim);
  EXPECT_FALSE(promise.IsSet());
  promise.Set(3);
  EXPECT_TRUE(promise.IsSet());
}

TEST(JoinAllTest, CollectsAllResults) {
  Simulator sim(1);
  auto delayed = [](Simulator* sim, int value, int ms) -> Task<int> {
    co_await sim->Sleep(Duration::Millis(ms));
    co_return value;
  };
  std::vector<Task<int>> tasks;
  tasks.push_back(delayed(&sim, 1, 30));
  tasks.push_back(delayed(&sim, 2, 10));
  tasks.push_back(delayed(&sim, 3, 20));
  std::vector<int> out;
  auto runner = [](Simulator* sim, std::vector<Task<int>> tasks,
                   std::vector<int>* out) -> Task<void> {
    *out = co_await JoinAll<int>(sim, std::move(tasks));
  };
  Spawn(runner(&sim, std::move(tasks), &out));
  sim.Run();
  EXPECT_EQ(out, (std::vector<int>{2, 3, 1}));  // completion order
}

TEST(JoinAllTest, EmptyInputCompletesImmediately) {
  Simulator sim(1);
  bool done = false;
  auto runner = [](Simulator* sim, bool* done) -> Task<void> {
    std::vector<int> r = co_await JoinAll<int>(sim, {});
    EXPECT_TRUE(r.empty());
    *done = true;
  };
  Spawn(runner(&sim, &done));
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(JoinUntilTest, ReturnsWhenPredicateSatisfied) {
  Simulator sim(1);
  auto delayed = [](Simulator* sim, int value, int ms) -> Task<int> {
    co_await sim->Sleep(Duration::Millis(ms));
    co_return value;
  };
  std::vector<Task<int>> tasks;
  for (int i = 0; i < 5; ++i) {
    tasks.push_back(delayed(&sim, i, 10 * (i + 1)));
  }
  std::vector<int> got;
  TimePoint finished;
  auto runner = [](Simulator* sim, std::vector<Task<int>> tasks, std::vector<int>* got,
                   TimePoint* finished) -> Task<void> {
    std::function<bool(const std::vector<int>&)> enough =
        [](const std::vector<int>& r) { return r.size() >= 2; };
    co_await JoinUntil<int>(sim, tasks, *got, std::move(enough));
    *finished = sim->Now();
  };
  Spawn(runner(&sim, std::move(tasks), &got, &finished));
  sim.Run();
  EXPECT_EQ(got.size(), 2u);
  EXPECT_EQ(finished, TimePoint() + Duration::Millis(20));
}

TEST(JoinUntilTest, StragglersGoToLeftover) {
  Simulator sim(1);
  auto delayed = [](Simulator* sim, int value, int ms) -> Task<int> {
    co_await sim->Sleep(Duration::Millis(ms));
    co_return value;
  };
  std::vector<Task<int>> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(delayed(&sim, i, 10 * (i + 1)));
  }
  auto leftovers = std::make_shared<std::vector<int>>();
  auto runner = [](Simulator* sim, std::vector<Task<int>> tasks,
                   std::shared_ptr<std::vector<int>> leftovers) -> Task<void> {
    std::function<bool(const std::vector<int>&)> enough =
        [](const std::vector<int>& r) { return r.size() >= 1; };
    std::function<void(int)> leftover = [leftovers](int v) { leftovers->push_back(v); };
    std::vector<int> got;
    co_await JoinUntil<int>(sim, tasks, got, std::move(enough), std::move(leftover));
  };
  Spawn(runner(&sim, std::move(tasks), leftovers));
  sim.Run();
  EXPECT_EQ(*leftovers, (std::vector<int>{1, 2, 3}));
}

TEST(JoinUntilTest, CompletesWhenAllDoneEvenIfNeverSatisfied) {
  Simulator sim(1);
  auto delayed = [](Simulator* sim, int value) -> Task<int> {
    co_await sim->Sleep(Duration::Millis(1));
    co_return value;
  };
  std::vector<Task<int>> tasks;
  tasks.push_back(delayed(&sim, 7));
  bool done = false;
  auto runner = [](Simulator* sim, std::vector<Task<int>> tasks, bool* done) -> Task<void> {
    std::function<bool(const std::vector<int>&)> never =
        [](const std::vector<int>&) { return false; };
    std::vector<int> r;
    co_await JoinUntil<int>(sim, tasks, r, std::move(never));
    EXPECT_EQ(r.size(), 1u);
    *done = true;
  };
  Spawn(runner(&sim, std::move(tasks), &done));
  sim.Run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace wvote
