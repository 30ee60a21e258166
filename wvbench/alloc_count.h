// Heap-allocation counting for the benchmark binary.
//
// alloc_count.cc replaces the global operator new/delete of this binary
// only; nothing under src/ changes. Counting is off until a measured phase
// turns it on, and the harness pauses it around its own bookkeeping
// (history recording, op records) so that allocs_per_op reflects the
// system under test. The simulator is single-threaded, so plain globals
// suffice.

#ifndef WVBENCH_ALLOC_COUNT_H_
#define WVBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace wvbench {

// Allocations counted so far (monotone; diff two reads to measure a phase).
uint64_t ReadAllocCount();

// Turns counting on or off for the measured phase.
void SetAllocCounting(bool on);

// Pauses counting for the enclosing scope. Must not span a co_await: other
// coroutines run while this one is suspended, and their allocations belong
// to the system under test.
class HarnessScope {
 public:
  HarnessScope();
  ~HarnessScope();
  HarnessScope(const HarnessScope&) = delete;
  HarnessScope& operator=(const HarnessScope&) = delete;
};

// Peak resident set size of this process, in MiB (getrusage).
double PeakRssMb();

}  // namespace wvbench

#endif  // WVBENCH_ALLOC_COUNT_H_
