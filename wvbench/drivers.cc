#include "drivers.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "src/net/network.h"
#include "src/rpc/rpc.h"
#include "src/sim/simulator.h"
#include "src/storage/stable_store.h"
#include "src/txn/lock_manager.h"

namespace wvbench {

using wvote::Duration;
using wvote::Status;
using wvote::Task;

namespace {

constexpr int kRepetitions = 5;

// What one measured loop of a driver cost, per unit of its layer, before
// the layers below are subtracted.
struct RawCost {
  double ns = 0;
  double allocs = 0;
  double events = 0;  // simulator events processed
  double msgs = 0;    // network messages sent
};

// Times `body` (which performs `units` units of work) with allocation
// counting on; `sim` and `net` supply the event and message counts.
template <typename Body>
RawCost Measure(int units, const wvote::Simulator& sim, const wvote::Network* net,
                Body&& body) {
  const uint64_t events0 = sim.stats().events_processed;
  const uint64_t msgs0 = net != nullptr ? net->stats().messages_sent : 0;
  const uint64_t a0 = ReadAllocCount();
  SetAllocCounting(true);
  const auto t0 = std::chrono::steady_clock::now();
  body();
  const auto t1 = std::chrono::steady_clock::now();
  SetAllocCounting(false);
  RawCost c;
  c.ns = std::chrono::duration<double, std::nano>(t1 - t0).count() / units;
  c.allocs = static_cast<double>(ReadAllocCount() - a0) / units;
  c.events = static_cast<double>(sim.stats().events_processed - events0) / units;
  if (net != nullptr) {
    c.msgs = static_cast<double>(net->stats().messages_sent - msgs0) / units;
  }
  return c;
}

// Element-wise median over repetitions (counts are identical across them).
RawCost Median(std::vector<RawCost> runs) {
  auto pick = [&runs](double RawCost::*field) {
    std::vector<double> v;
    for (const RawCost& r : runs) {
      v.push_back(r.*field);
    }
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  RawCost m;
  m.ns = pick(&RawCost::ns);
  m.allocs = pick(&RawCost::allocs);
  m.events = pick(&RawCost::events);
  m.msgs = pick(&RawCost::msgs);
  return m;
}

template <typename Once>
RawCost Repeat(HostSpans* spans, int parent, const char* name, Once&& once) {
  const int id = spans->Begin(name, parent);
  once();  // warm-up: pools, freelists, first-touch pages
  std::vector<RawCost> runs;
  for (int i = 0; i < kRepetitions; ++i) {
    runs.push_back(once());
  }
  spans->End(id);
  return Median(std::move(runs));
}

RawCost SimOnce() {
  constexpr int kBatches = 4000;
  constexpr int kPerBatch = 64;
  wvote::Simulator sim(1);
  uint64_t fired = 0;
  auto batch = [&sim, &fired]() {
    const wvote::TimePoint base = sim.Now();
    for (int i = 0; i < kPerBatch; ++i) {
      sim.ScheduleAt(base + Duration::Micros(1 + (i * 37) % kPerBatch), [&fired]() { ++fired; });
    }
    sim.RunUntil(base + Duration::Micros(kPerBatch));
  };
  batch();
  return Measure(kBatches * kPerBatch, sim, nullptr, [&]() {
    for (int b = 0; b < kBatches; ++b) {
      batch();
    }
  });
}

RawCost NetOnce() {
  constexpr int kMessages = 40000;
  wvote::Simulator sim(1);
  wvote::Network net(&sim);
  net.SetDefaultLink(wvote::LatencyModel::Fixed(Duration::Micros(100)));
  wvote::Host* a = net.AddHost("a");
  wvote::Host* b = net.AddHost("b");
  uint64_t delivered = 0;
  b->SetMessageHandler([&delivered](wvote::Message) { ++delivered; });
  return Measure(kMessages, sim, &net, [&]() {
    for (int i = 0; i < kMessages; ++i) {
      net.Send(a->id(), b->id(), std::any(i), 64);
      sim.RunFor(Duration::Micros(100));
    }
  });
}

struct EchoReq {
  uint64_t n = 0;
  EchoReq() = default;
  explicit EchoReq(uint64_t v) : n(v) {}
};
struct EchoResp {
  uint64_t n = 0;
  EchoResp() = default;
  explicit EchoResp(uint64_t v) : n(v) {}
};

Task<wvote::Result<EchoResp>> Echo(wvote::HostId, EchoReq req) { co_return EchoResp(req.n); }

Task<void> CallLoop(wvote::RpcEndpoint* client, wvote::HostId server, int calls) {
  for (int i = 0; i < calls; ++i) {
    wvote::Result<EchoResp> r = co_await client->Call<EchoReq, EchoResp>(
        server, EchoReq(static_cast<uint64_t>(i)), Duration::Seconds(1));
    WVOTE_CHECK_MSG(r.ok(), "echo call failed");
  }
}

RawCost RpcOnce() {
  constexpr int kCalls = 20000;
  wvote::Simulator sim(1);
  wvote::Network net(&sim);
  net.SetDefaultLink(wvote::LatencyModel::Fixed(Duration::Micros(100)));
  wvote::RpcEndpoint client(&net, net.AddHost("client"));
  wvote::RpcEndpoint server(&net, net.AddHost("server"));
  std::function<Task<wvote::Result<EchoResp>>(wvote::HostId, EchoReq)> handler = Echo;
  server.Handle<EchoReq, EchoResp>(std::move(handler));
  return Measure(kCalls, sim, &net, [&]() {
    wvote::Spawn(CallLoop(&client, server.host_id(), kCalls));
    sim.Run();  // also reaps the cancelled timeouts
  });
}

Task<void> WriteLoop(wvote::StableStore* store, int writes, const std::string* value) {
  for (int i = 0; i < writes; ++i) {
    Status st = co_await store->Write("page-" + std::to_string(i % 16), *value);
    WVOTE_CHECK_MSG(st.ok(), "stable store write failed");
  }
}

RawCost StorageOnce(size_t page_bytes) {
  constexpr int kWrites = 20000;
  wvote::Simulator sim(1);
  wvote::Network net(&sim);
  wvote::StableStore store(&sim, net.AddHost("disk"),
                           wvote::LatencyModel::Fixed(Duration::Micros(500)),
                           wvote::LatencyModel::Fixed(Duration::Micros(200)));
  const std::string value(page_bytes, 'v');
  return Measure(kWrites, sim, nullptr, [&]() {
    wvote::Spawn(WriteLoop(&store, kWrites, &value));
    sim.Run();
  });
}

Task<void> LockLoop(wvote::Simulator* sim, wvote::LockManager* locks, int acquires) {
  for (int i = 0; i < acquires; ++i) {
    // Uncontended acquires complete without suspending; yield now and then
    // so unoptimized builds, which do not turn the chained resumptions into
    // tail calls, do not grow the stack without bound.
    if (i % 64 == 63) {
      co_await sim->Sleep(Duration::Zero());
    }
    wvote::TxnId txn;
    txn.timestamp_us = i;
    txn.serial = static_cast<uint64_t>(i);
    txn.coordinator = 0;
    const wvote::LockMode mode =
        (i % 2 == 0) ? wvote::LockMode::kShared : wvote::LockMode::kExclusive;
    Status st = co_await locks->Acquire(txn, std::string("example2/value"), mode,
                                        Duration::Seconds(1));
    WVOTE_CHECK_MSG(st.ok(), "uncontended lock acquire failed");
    locks->ReleaseAll(txn);
  }
}

RawCost LockOnce() {
  constexpr int kAcquires = 50000;
  wvote::Simulator sim(1);
  wvote::LockManager locks(&sim);
  return Measure(kAcquires, sim, nullptr, [&]() {
    wvote::Spawn(LockLoop(&sim, &locks, kAcquires));
    sim.Run();
  });
}

double NonNegative(double v) { return std::max(0.0, v); }

}  // namespace

LayerCosts MeasureLayerCosts(size_t page_bytes, HostSpans* spans, int parent) {
  const RawCost sim = Repeat(spans, parent, "driver.sim", SimOnce);
  const RawCost net = Repeat(spans, parent, "driver.net", NetOnce);
  const RawCost rpc = Repeat(spans, parent, "driver.rpc", RpcOnce);
  const RawCost storage =
      Repeat(spans, parent, "driver.storage", [page_bytes]() { return StorageOnce(page_bytes); });
  const RawCost lock = Repeat(spans, parent, "driver.txn.lock", LockOnce);

  LayerCosts c;
  c.sim_ns_per_event = sim.ns;
  c.sim_allocs_per_event = sim.allocs;
  c.net_ns_per_msg = NonNegative(net.ns - net.events * c.sim_ns_per_event);
  c.net_allocs_per_msg = NonNegative(net.allocs - net.events * c.sim_allocs_per_event);
  c.rpc_ns_per_call = NonNegative(rpc.ns - rpc.msgs * c.net_ns_per_msg -
                                  rpc.events * c.sim_ns_per_event);
  c.rpc_allocs_per_call = NonNegative(rpc.allocs - rpc.msgs * c.net_allocs_per_msg -
                                      rpc.events * c.sim_allocs_per_event);
  c.storage_ns_per_write = NonNegative(storage.ns - storage.events * c.sim_ns_per_event);
  c.lock_ns_per_acquire = NonNegative(lock.ns - lock.events * c.sim_ns_per_event);
  return c;
}

}  // namespace wvbench
