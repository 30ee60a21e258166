// Per-op cost guard: heap allocations, messages and simulator events for one
// ReadOnce and one WriteOnce on Gifford's Example 2, for a ReadOnce and a
// WriteOnce of values longer than std::string's inline buffer, for a
// ReadOnce with gray tolerance armed (hedged probes), for a ReadOnce over
// links that duplicate every datagram, for a WriteOnce that dies under
// wait-die, and for a transaction that writes two suites at once. Counts do
// not depend on the machine, so they pin the protocol stack's host cost
// where wall-clock timings cannot: the allocation ceilings sit 10% above
// the measured values, and messages and events per op must match exactly
// (the event schedule is part of every determinism golden).
//
// This binary replaces the global operator new to count allocations; the
// replacement lives here only, so no other test or library pays for it.
// The frame pool is per thread, so every case runs on a thread of its own
// and tears its cluster down there: a case reads the same in the full binary
// as alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/gifford_examples.h"
#include "src/core/cluster.h"
#include "src/core/multi_txn.h"

namespace {

bool g_counting = false;
uint64_t g_allocs = 0;

void* CountedAlloc(std::size_t size) {
  if (g_counting) {
    ++g_allocs;
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  if (g_counting) {
    ++g_allocs;
  }
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, ((size == 0 ? 1 : size) + a - 1) / a * a);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace wvote {
namespace {

constexpr int kOps = 100;

// Allocation ceilings per op: the measured 2 per read, 3 per hedged read, 4
// per read over duplicating links, 21.95 per write, 2 per conflicted write
// and 26.39 per two-suite write, plus 10%. RPC envelopes come from the
// frame pool, so a read's two are the page copy the representative reads
// and the trace slot the participant's abort breadcrumb fills the first
// time round the ring; a hedged read adds one more breadcrumb slot. Over
// duplicating links both copies of a datagram share one envelope, and every
// request is handled twice, so a read pays its two twice. The 2PC layer
// allocates nothing of its own: a write pays for the participants'
// intentions-log pages, the never-deleted decision page, its serialized
// value, trace slots, and frame pool growth from in-doubt watchdogs that
// sleep past the drain; a conflicted write pays only the two abort
// breadcrumbs' trace slots. Before recycled 2PC fan-outs, flat participant
// sets and pooled intent lists, a write paid 35.89 and a conflicted write 4.
// Before pooled envelopes and a log and store that reuse their storage, a
// read paid 6 (8 with 64-byte values), a write 102.89 and a conflicted write
// 18; before recycled transaction state and lock-table entries, a read and a
// write paid 27 and 128.05; before frame pooling and one-block RPC
// envelopes, 77 and 253.26. Before the envelope's count alone shared a
// duplicated datagram, a read over duplicating links paid 22: each copy
// carried a shared_ptr to the boxed std::any, too large for the copy's own
// std::any to hold inline.
constexpr double kReadAllocCeiling = 2.2;
constexpr double kHedgedReadAllocCeiling = 3.3;
constexpr double kDuplicatedReadAllocCeiling = 4.4;
constexpr double kWriteAllocCeiling = 24.2;
constexpr double kConflictAllocCeiling = 2.2;
constexpr double kMultiSuiteWriteAllocCeiling = 29.1;
// Messages and simulator events for kOps ops plus the drain; the plain read
// and write counts match every earlier version of the stack exactly.
constexpr uint64_t kReadMessages = 400;
constexpr uint64_t kReadEvents = 810;
constexpr uint64_t kHedgedReadMessages = 600;
constexpr uint64_t kHedgedReadEvents = 1110;
constexpr uint64_t kDuplicatedReadMessages = 600;
constexpr uint64_t kDuplicatedReadEvents = 910;
constexpr uint64_t kWriteMessages = 1200;
constexpr uint64_t kWriteEvents = 3110;
constexpr uint64_t kConflictMessages = 800;
constexpr uint64_t kConflictEvents = 1510;
constexpr uint64_t kMultiSuiteWriteMessages = 1600;
constexpr uint64_t kMultiSuiteWriteEvents = 3854;

struct OpCost {
  uint64_t allocs = 0;
  uint64_t messages = 0;
  uint64_t events = 0;
};

class AllocGuardTest : public ::testing::Test {
 protected:
  // Deploys Example 2 and warms it up with writes of `value_bytes`-byte
  // values. The warm-up ends the way the measured window runs: alternating
  // writes and reads fill the plan cache, version hints and the frame and
  // event pools, then back-to-back reads reach the steady state of a run of
  // reads (a read-only commit's abort fan-out still in flight when the next
  // read starts).
  void Deploy(SuiteClientOptions copts = {}, size_t value_bytes = 0) {
    const GiffordExample ex = MakeGiffordExamples()[1];  // Example 2
    ClusterOptions opts;
    opts.seed = 42;
    opts.rep_options.disk_write_latency = LatencyModel::Fixed(Duration::Micros(500));
    opts.rep_options.disk_read_latency = LatencyModel::Fixed(Duration::Micros(200));
    cluster_ = std::make_unique<Cluster>(opts);
    for (const RepresentativeInfo& rep : ex.config.representatives) {
      cluster_->AddRepresentative(rep.host_name);
    }
    EXPECT_TRUE(cluster_->CreateSuite(ex.config, "initial contents").ok());
    client_ = cluster_->AddClient("client", ex.config, copts);
    const HostId client_host = cluster_->net().FindHost("client")->id();
    for (const auto& [host, rtt] : ex.client_rtt) {
      cluster_->net().SetSymmetricLink(client_host, cluster_->net().FindHost(host)->id(),
                                       LatencyModel::Fixed(rtt / 2));
    }
    for (int i = 0; i < 5; ++i) {
      std::string value = "warm-" + std::to_string(i);
      value.resize(std::max(value.size(), value_bytes), '.');
      EXPECT_TRUE(cluster_->RunTask(client_->WriteOnce(std::move(value))).ok());
      EXPECT_TRUE(cluster_->RunTask(client_->ReadOnce()).ok());
    }
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(cluster_->RunTask(client_->ReadOnce()).ok());
    }
    Drain();
  }

  // Lets background work (phase-2 fan-out, straggler probes) finish, so an
  // op's cost lands inside the window that measured it.
  void Drain() { cluster_->sim().RunFor(Duration::Seconds(5)); }

  template <typename Body>
  OpCost Measure(Body&& body) {
    const uint64_t messages0 = cluster_->net().stats().messages_sent;
    const uint64_t events0 = cluster_->sim().stats().events_processed;
    const uint64_t allocs0 = g_allocs;
    g_counting = true;
    body();
    Drain();
    g_counting = false;
    OpCost cost;
    cost.allocs = g_allocs - allocs0;
    cost.messages = cluster_->net().stats().messages_sent - messages0;
    cost.events = cluster_->sim().stats().events_processed - events0;
    return cost;
  }

  // kOps ReadOnce calls; returns their cost.
  OpCost MeasureReads(const char* label) {
    bool all_ok = true;
    const OpCost cost = Measure([&] {
      for (int i = 0; i < kOps; ++i) {
        all_ok &= cluster_->RunTask(client_->ReadOnce()).ok();
      }
    });
    EXPECT_TRUE(all_ok);
    std::printf("%s: %.2f allocs/op, %llu messages, %llu events over %d ops\n", label,
                static_cast<double>(cost.allocs) / kOps,
                static_cast<unsigned long long>(cost.messages),
                static_cast<unsigned long long>(cost.events), kOps);
    return cost;
  }

  // kOps WriteOnce calls of distinct values padded to `value_bytes`, built
  // before the window and moved in; returns their cost.
  OpCost MeasureWrites(const char* label, size_t value_bytes) {
    std::vector<std::string> payloads;
    for (int i = 0; i < kOps; ++i) {
      payloads.push_back("payload-" + std::to_string(i));
      payloads.back().resize(std::max(payloads.back().size(), value_bytes), '.');
    }
    bool all_ok = true;
    const OpCost cost = Measure([&] {
      for (std::string& payload : payloads) {
        all_ok &= cluster_->RunTask(client_->WriteOnce(std::move(payload))).ok();
      }
    });
    EXPECT_TRUE(all_ok);
    std::printf("%s: %.2f allocs/op, %llu messages, %llu events over %d ops\n", label,
                static_cast<double>(cost.allocs) / kOps,
                static_cast<unsigned long long>(cost.messages),
                static_cast<unsigned long long>(cost.events), kOps);
    return cost;
  }

  // Runs `body` on a new thread and destroys the cluster there, so the body
  // starts from an empty frame pool and no in-doubt watchdog of an earlier
  // body is left to wake inside its window.
  template <typename Body>
  void OnFreshThread(Body&& body) {
    std::thread([&] {
      body();
      cluster_.reset();
    }).join();
  }

  std::unique_ptr<Cluster> cluster_;
  SuiteClient* client_ = nullptr;
};

TEST_F(AllocGuardTest, ReadOnce) {
  OnFreshThread([&] {
    Deploy();
    const OpCost cost = MeasureReads("ReadOnce");
    EXPECT_LE(static_cast<double>(cost.allocs) / kOps, kReadAllocCeiling);
    EXPECT_EQ(cost.messages, kReadMessages);
    EXPECT_EQ(cost.events, kReadEvents);
  });
}

// Values longer than std::string's inline buffer: the piggybacked contents
// move from the page copy the representative reads through to the caller,
// so a 64-byte value costs a read exactly what a 6-byte one does.
TEST_F(AllocGuardTest, ReadOnceLongValue) {
  OnFreshThread([&] {
    Deploy({}, 64);
    const OpCost long_cost = MeasureReads("ReadOnce, 64-byte values");
    const Result<std::string> read = cluster_->RunTask(client_->ReadOnce());
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value().size(), 64u);
    Deploy();
    const OpCost short_cost = MeasureReads("ReadOnce, 6-byte values");
    EXPECT_EQ(long_cost.allocs, short_cost.allocs);
    EXPECT_LE(static_cast<double>(long_cost.allocs) / kOps, kReadAllocCeiling);
    EXPECT_EQ(long_cost.messages, kReadMessages);
    EXPECT_EQ(long_cost.events, kReadEvents);
  });
}

// Gray tolerance with the client's health tracker attached: every probe
// arms a hedge backup, so the hedge path and the consumed-position set get
// a ceiling too.
TEST_F(AllocGuardTest, HedgedReadOnce) {
  OnFreshThread([&] {
    SuiteClientOptions copts;
    copts.gray_tolerance = true;
    Deploy(copts);
    const uint64_t hedged_before = client_->stats().hedged_probes;
    const OpCost cost = MeasureReads("HedgedReadOnce");
    EXPECT_GE(client_->stats().hedged_probes - hedged_before, static_cast<uint64_t>(kOps));
    EXPECT_LE(static_cast<double>(cost.allocs) / kOps, kHedgedReadAllocCeiling);
    EXPECT_EQ(cost.messages, kHedgedReadMessages);
    EXPECT_EQ(cost.events, kHedgedReadEvents);
  });
}

// Every link duplicates every datagram: both copies of a request or reply
// share one envelope through its reference count, so a duplicate allocates
// no box for its payload.
TEST_F(AllocGuardTest, DuplicatedReadOnce) {
  OnFreshThread([&] {
    Deploy();
    LinkKnobs knobs;
    knobs.dup_probability = 1.0;
    cluster_->net().SetAllLinkKnobs(knobs);
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(cluster_->RunTask(client_->ReadOnce()).ok());
    }
    Drain();
    const uint64_t duplicated_before = cluster_->net().stats().duplicated;
    const OpCost cost = MeasureReads("DuplicatedReadOnce");
    EXPECT_EQ(cluster_->net().stats().duplicated - duplicated_before, cost.messages);
    EXPECT_LE(static_cast<double>(cost.allocs) / kOps, kDuplicatedReadAllocCeiling);
    EXPECT_EQ(cost.messages, kDuplicatedReadMessages);
    EXPECT_EQ(cost.events, kDuplicatedReadEvents);
  });
}

TEST_F(AllocGuardTest, WriteOnce) {
  OnFreshThread([&] {
    Deploy();
    const OpCost cost = MeasureWrites("WriteOnce", 0);
    EXPECT_LE(static_cast<double>(cost.allocs) / kOps, kWriteAllocCeiling);
    EXPECT_EQ(cost.messages, kWriteMessages);
    EXPECT_EQ(cost.events, kWriteEvents);
  });
}

// Values longer than std::string's inline buffer: the commit serializes the
// buffered value straight into the one payload every quorum member shares,
// and each attempt borrows the caller's value, so a 1 KiB write costs
// exactly what a short one does. Each measurement runs on a fresh thread,
// so both start from an empty frame pool.
TEST_F(AllocGuardTest, WriteOnceLongValue) {
  const auto measure_fresh = [this](const char* label, size_t value_bytes) {
    OpCost cost;
    OnFreshThread([&] {
      Deploy({}, value_bytes);
      cost = MeasureWrites(label, value_bytes);
      const Result<std::string> read = cluster_->RunTask(client_->ReadOnce());
      EXPECT_TRUE(read.ok());
      EXPECT_EQ(read.value().size(), std::max<size_t>(value_bytes, 10));
    });
    return cost;
  };
  const OpCost long_cost = measure_fresh("WriteOnce, 1 KiB values", 1024);
  const OpCost short_cost = measure_fresh("WriteOnce, short values", 0);
  EXPECT_EQ(long_cost.allocs, short_cost.allocs);
  EXPECT_LE(static_cast<double>(long_cost.allocs) / kOps, kWriteAllocCeiling);
  EXPECT_EQ(long_cost.messages, kWriteMessages);
  EXPECT_EQ(long_cost.events, kWriteEvents);
}

// Wait-die under contention: an older transaction holds the shared locks of
// a read, and every WriteOnce (one attempt each) is younger, so it dies at
// the representative the reader locked. Guards the conflict path: the die
// status the lock manager builds, its reply, and the abort that releases
// the writer's other probe.
TEST_F(AllocGuardTest, ConflictedWriteOnce) {
  OnFreshThread([&] {
    Deploy();
    SuiteTransaction holder = client_->Begin();
    ASSERT_TRUE(cluster_->RunTask(holder.Read()).ok());
    const auto younger_write = [&] {
      return cluster_->RunTask(client_->WriteOnce("younger", /*retries=*/1)).code();
    };
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(younger_write(), StatusCode::kConflict);
    }
    Drain();
    const uint64_t conflicts_before = client_->stats().conflicts;
    bool all_died = true;
    const OpCost cost = Measure([&] {
      for (int i = 0; i < kOps; ++i) {
        all_died &= younger_write() == StatusCode::kConflict;
      }
    });
    EXPECT_TRUE(all_died);
    EXPECT_EQ(client_->stats().conflicts - conflicts_before, static_cast<uint64_t>(kOps));
    const double allocs_per_op = static_cast<double>(cost.allocs) / kOps;
    std::printf("ConflictedWriteOnce: %.2f allocs/op, %llu messages, %llu events over %d ops\n",
                allocs_per_op, static_cast<unsigned long long>(cost.messages),
                static_cast<unsigned long long>(cost.events), kOps);
    EXPECT_LE(allocs_per_op, kConflictAllocCeiling);
    EXPECT_EQ(cost.messages, kConflictMessages);
    EXPECT_EQ(cost.events, kConflictEvents);
    Spawn(holder.Abort());
    Drain();
  });
}

// One MultiSuiteTransaction writes Example 2's suite and a second suite on
// the same representatives: two write-quorum gathers under one TxnId, then
// one two-phase commit in which every writer holds an intent per suite.
// Guards the client's per-host intent lists, which merge the suites.
TEST_F(AllocGuardTest, MultiSuiteWriteOnce) {
  OnFreshThread([&] {
    Deploy();
    SuiteConfig second = MakeGiffordExamples()[1].config;
    second.suite_name = "example2-second";
    ASSERT_TRUE(cluster_->CreateSuite(second, "second contents").ok());
    SuiteClient* second_client = cluster_->AddClient("client", second);
    Coordinator* coordinator = cluster_->coordinator_of("client");
    const auto write_both = [&](const std::string& value) {
      MultiSuiteTransaction txn(coordinator);
      EXPECT_TRUE(txn.Write(client_, value).ok());
      EXPECT_TRUE(txn.Write(second_client, value).ok());
      return cluster_->RunTask(txn.Commit()).ok();
    };
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(write_both("warm-" + std::to_string(i)));
    }
    Drain();
    std::vector<std::string> payloads;
    for (int i = 0; i < kOps; ++i) {
      payloads.push_back("payload-" + std::to_string(i));
    }
    bool all_ok = true;
    const OpCost cost = Measure([&] {
      for (int i = 0; i < kOps; ++i) {
        all_ok &= write_both(payloads[static_cast<size_t>(i)]);
      }
    });
    ASSERT_TRUE(all_ok);
    EXPECT_EQ(cluster_->RunTask(second_client->ReadOnce()).value(), payloads.back());
    const double allocs_per_op = static_cast<double>(cost.allocs) / kOps;
    std::printf("MultiSuiteWriteOnce: %.2f allocs/op, %llu messages, %llu events over %d ops\n",
                allocs_per_op, static_cast<unsigned long long>(cost.messages),
                static_cast<unsigned long long>(cost.events), kOps);
    EXPECT_LE(allocs_per_op, kMultiSuiteWriteAllocCeiling);
    EXPECT_EQ(cost.messages, kMultiSuiteWriteMessages);
    EXPECT_EQ(cost.events, kMultiSuiteWriteEvents);
  });
}

}  // namespace
}  // namespace wvote
