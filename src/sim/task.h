// Coroutine task type for simulation code.
//
// Task<T> is a lazily-started coroutine. Awaiting it starts the body and
// suspends the awaiter until the body co_returns; completion transfers
// control back via symmetric transfer, so chains of awaits run without stack
// growth or scheduler hops. Protocol code throughout wvote (quorum gathers,
// two-phase commit, client sessions) is written as Tasks awaiting RPC
// futures and simulated-time sleeps.
//
// Ownership: the Task object owns the coroutine frame and destroys it when
// the Task is destroyed. Spawn() runs a Task detached — used for server
// handlers and background work; the frame then frees itself on completion.
//
// Frame memory: every RPC round trip creates and destroys several frames
// (caller, handler, detached wrapper), so frames come from a per-thread
// size-class free list instead of the general heap (FramePool below). The
// shared state of Promise/Future pairs and joins, and RPC envelopes, come
// from the same pool.
//
// ---------------------------------------------------------------------------
// GCC 12 COMPATIBILITY RULE — read before adding coroutine functions.
//
// GCC 12.x miscompiles certain by-value coroutine parameters: when the
// argument is a braced AGGREGATE prvalue (`Foo{a, b}` where Foo has no
// user-declared constructor) or a lambda implicitly converted to
// std::function at the call, the mandatory parameter copy into the coroutine
// frame aliases the caller's temporary, and both are destroyed -> double
// free. (Fixed in GCC 13; see upstream PR 104031.)
//
// Rules used throughout this codebase, verified empirically at -O0 and -O2
// under ASan:
//   1. Every struct passed by value into a coroutine declares a constructor
//      (see src/txn/messages.h), so braced call-site init is a ctor call.
//   2. Lambdas are never passed directly where a coroutine declares a
//      std::function parameter: bind to a named std::function first and
//      std::move it in.
//   3. Named lvalues, std::move()d named objects, and constructor-syntax
//      prvalues (std::string(...), std::make_shared<T>(...)) are all safe.
//   4. Never put co_await in the arms of a conditional operator
//      (`c ? co_await a : co_await b`): GCC 12 copies the selected arm's
//      result bitwise, so a payload owning heap/SSO storage (std::string)
//      ends up aliasing the coroutine frame — later destruction frees a
//      pointer into the (freed) frame. Use if/else with assignment instead.
// ---------------------------------------------------------------------------

#ifndef WVOTE_SRC_SIM_TASK_H_
#define WVOTE_SRC_SIM_TASK_H_

#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <optional>
#include <utility>

#include "src/common/check.h"

#if defined(__SANITIZE_ADDRESS__)
#define WVOTE_FRAME_POOL_POISON 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define WVOTE_FRAME_POOL_POISON 1
#endif
#endif
#ifdef WVOTE_FRAME_POOL_POISON
#include <sanitizer/asan_interface.h>
#endif

namespace wvote {

template <typename T>
class Task;

namespace internal {

// Recycles coroutine frames by size class. Frames up to kMaxPooled bytes are
// rounded up to a kGranule multiple and, once freed, parked on that class's
// free list for the next frame of the class; larger frames use the heap
// directly. The lists are thread_local (the simulator is single-threaded)
// and are never trimmed: they hold at most the peak number of frames live
// at once per class. Under AddressSanitizer a parked block is poisoned, so
// touching a destroyed frame still reports a use-after-free even though its
// memory was not returned to the heap.
class FramePool {
 public:
  static constexpr size_t kGranule = 64;
  static constexpr size_t kMaxPooled = 2048;

  static void* Allocate(size_t size) {
    if (size > kMaxPooled) {
      return ::operator new(size);
    }
    const size_t cls = ClassOf(size);
    FreeBlock*& head = Heads()[cls];
    if (head == nullptr) {
      return ::operator new((cls + 1) * kGranule);
    }
    FreeBlock* block = head;
#ifdef WVOTE_FRAME_POOL_POISON
    ASAN_UNPOISON_MEMORY_REGION(block, (cls + 1) * kGranule);
#endif
    head = block->next;
    return block;
  }

  static void Deallocate(void* p, size_t size) noexcept {
    if (size > kMaxPooled) {
      ::operator delete(p);
      return;
    }
    const size_t cls = ClassOf(size);
    FreeBlock*& head = Heads()[cls];
    FreeBlock* block = static_cast<FreeBlock*>(p);
    block->next = head;
    head = block;
#ifdef WVOTE_FRAME_POOL_POISON
    ASAN_POISON_MEMORY_REGION(block, (cls + 1) * kGranule);
#endif
  }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };
  static constexpr size_t kClasses = kMaxPooled / kGranule;

  static size_t ClassOf(size_t size) { return size == 0 ? 0 : (size - 1) / kGranule; }
  static FreeBlock** Heads() {
    static thread_local FreeBlock* heads[kClasses] = {};
    return heads;
  }
};

// An allocator over FramePool for the small shared blocks that coroutine
// plumbing creates per call (a Promise's state, a join's bookkeeping):
// std::allocate_shared with it puts the control block and the object in one
// pooled block, poisoned while parked exactly like a frame.
template <typename T>
struct PoolAllocator {
  using value_type = T;
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "FramePool blocks carry operator new's default alignment");

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(size_t n) { return static_cast<T*>(FramePool::Allocate(n * sizeof(T))); }
  void deallocate(T* p, size_t n) noexcept { FramePool::Deallocate(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

// Promise types inherit this so their coroutine frames come from FramePool.
struct PooledFrame {
  static void* operator new(size_t size) { return FramePool::Allocate(size); }
  static void operator delete(void* p, size_t size) noexcept {
    FramePool::Deallocate(p, size);
  }
};

class TaskPromiseBase : public PooledFrame {
 public:
  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      std::coroutine_handle<> cont = h.promise().continuation_;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { std::terminate(); }

  void set_continuation(std::coroutine_handle<> cont) noexcept { continuation_ = cont; }

 private:
  std::coroutine_handle<> continuation_;
};

template <typename T>
class TaskPromise : public TaskPromiseBase {
 public:
  Task<T> get_return_object() noexcept;
  void return_value(T value) { value_.emplace(std::move(value)); }
  T TakeValue() {
    WVOTE_CHECK_MSG(value_.has_value(), "Task completed without a value");
    return std::move(*value_);
  }

 private:
  std::optional<T> value_;
};

template <>
class TaskPromise<void> : public TaskPromiseBase {
 public:
  Task<void> get_return_object() noexcept;
  void return_void() noexcept {}
  void TakeValue() noexcept {}
};

}  // namespace internal

template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = internal::TaskPromise<T>;

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> handle) : handle_(handle) {}

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Reset();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { Reset(); }

  bool valid() const { return handle_ != nullptr; }

  // Awaiting a Task starts it (symmetric transfer into the body) and resumes
  // the awaiter with the co_returned value once the body completes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiting) noexcept {
        handle.promise().set_continuation(awaiting);
        return handle;
      }
      T await_resume() { return handle.promise().TakeValue(); }
    };
    WVOTE_CHECK_MSG(handle_ != nullptr, "co_await on empty Task");
    return Awaiter{handle_};
  }

  // Releases ownership of the coroutine frame to the caller (used by Spawn).
  std::coroutine_handle<promise_type> Release() { return std::exchange(handle_, nullptr); }

 private:
  void Reset() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

namespace internal {

template <typename T>
Task<T> TaskPromise<T>::get_return_object() noexcept {
  return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void> TaskPromise<void>::get_return_object() noexcept {
  return Task<void>(std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

// Wrapper coroutine used by Spawn. It starts and runs eagerly and its frame
// frees itself on completion; the wrapped Task lives inside the frame so the
// inner coroutine is destroyed exactly once, after it finishes.
struct DetachedTask {
  struct promise_type : PooledFrame {
    DetachedTask get_return_object() noexcept { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
};

inline DetachedTask RunDetached(Task<void> task) { co_await std::move(task); }

}  // namespace internal

// Runs `task` to completion independently of any awaiter. The task typically
// suspends on simulated-time awaitables; it makes progress as the simulator
// fires those events.
//
// Lifetime note: a detached task that never completes (e.g. a background
// retrier whose peer stays dead when the simulation ends) remains suspended
// and its frame is reclaimed only at process exit — LeakSanitizer reports
// such frames at teardown. This is bounded by the number of spawned roots
// still pending when the run stops and does not grow during a run.
inline void Spawn(Task<void> task) { internal::RunDetached(std::move(task)); }

}  // namespace wvote

#endif  // WVOTE_SRC_SIM_TASK_H_
