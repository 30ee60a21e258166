// Simulator-core throughput (E13) — the substrate speed every scale
// scenario on the ROADMAP rests on.
//
// Three workloads, coarsest to most end-to-end:
//
//   1. pure-event: K concurrent self-rescheduling timers (the shape of a
//      fleet of RPC timeout/retry timers), measured in wall-clock simulated
//      events/sec. Run twice — once on the real Simulator, once on an
//      embedded copy of the pre-rebuild priority_queue core (LegacyHeapSim
//      below) — so the committed speedup is machine-independent and the CI
//      guard compares like with like on any runner.
//   2. cancel-heavy: schedule-then-cancel pairs racing a delivery, the RPC
//      timeout pattern (almost every timeout is cancelled by its reply).
//   3. rpc-echo and quorum-read rounds: end-to-end ops/sec through the full
//      cluster stack, where event dispatch is one cost among many.
//
// --baseline=FILE reads a committed BENCH_sim_core.json and fails the run
// (exit 1) if the measured pure-event speedup over LegacyHeapSim — the
// median of per-pair ratios over interleaved trials — falls more than 30%
// below the committed one: the bench-smoke regression guard.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/rpc/rpc.h"
#include "src/sim/simulator.h"

using namespace wvote;  // NOLINT: bench brevity

namespace {

// ---------------------------------------------------------------------------
// LegacyHeapSim: the pre-rebuild simulator core, kept verbatim as the
// baseline the committed speedup is measured against. Three heap
// allocations per scheduled event (std::function capture when it outgrows
// SSO, shared_ptr<bool> cancel flag, heap churn in the binary heap) and
// O(log n) push/pop.
class LegacyHeapSim {
 public:
  TimePoint Now() const { return now_; }

  void Schedule(Duration delay, std::function<void()> fn) {
    auto cancelled = std::make_shared<bool>(false);
    queue_.push(Event{now_ + delay, next_seq_++, std::move(fn), cancelled});
  }

  void Run() {
    while (!queue_.empty()) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      if (*ev.cancelled) {
        continue;
      }
      now_ = ev.when;
      ++events_processed_;
      ev.fn();
    }
  }

  size_t events_processed() const { return events_processed_; }

 private:
  struct Event {
    TimePoint when;
    uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<bool> cancelled;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };
  TimePoint now_;
  uint64_t next_seq_ = 0;
  size_t events_processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
};

// ---------------------------------------------------------------------------
// Workload 1: K timers, each rescheduling itself with a small cycling delay
// until the shared budget is spent. Delay spread crosses timer-wheel levels
// (1us..70ms) the way a real mix of RPC timeouts and think times does.
constexpr int64_t kDelaysUs[] = {1, 3, 250, 40, 7, 70000, 900, 12};
constexpr int kNumDelays = sizeof(kDelaysUs) / sizeof(kDelaysUs[0]);

template <typename Sim>
double PureEventEventsPerSec(Sim& sim, int timers, long total_events) {
  long remaining = total_events;
  std::function<void(int)> arm = [&](int slot) {
    if (--remaining < 0) {
      return;
    }
    sim.Schedule(Duration::Micros(kDelaysUs[(slot + static_cast<int>(remaining)) % kNumDelays]),
                 [&arm, slot] { arm(slot); });
  };
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < timers; ++i) {
    arm(i);
  }
  sim.Run();
  const auto t1 = std::chrono::steady_clock::now();
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0).count();
  return static_cast<double>(total_events) / secs;
}

// Workload 2: every event schedules a "timeout" it then cancels, the way an
// RPC reply cancels its timeout. Counts both the fired and cancelled event
// against throughput (both cost a scheduling operation).
double CancelHeavyEventsPerSec(Simulator& sim, long pairs) {
  long remaining = pairs;
  EventHandle pending;
  std::function<void()> fire = [&] {
    pending.Cancel();  // cancel last round's timeout (fire-then-cancel)
    if (--remaining < 0) {
      return;
    }
    pending = sim.Schedule(Duration::Millis(50), [] {});  // the timeout
    sim.Schedule(Duration::Micros(30), [&fire] { fire(); });  // the "reply"
  };
  const auto t0 = std::chrono::steady_clock::now();
  fire();
  sim.Run();
  const auto t1 = std::chrono::steady_clock::now();
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0).count();
  return static_cast<double>(2 * pairs) / secs;
}

// ---------------------------------------------------------------------------
// Workload 3a: RPC echo — one client, one server, sequential echo calls
// through RpcEndpoint over a fixed-latency link.
struct EchoReq {
  uint64_t n = 0;

  EchoReq() = default;
  explicit EchoReq(uint64_t v) : n(v) {}
  static constexpr const char* kRpcName = "EchoReq";
};
struct EchoResp {
  uint64_t n = 0;

  EchoResp() = default;
  explicit EchoResp(uint64_t v) : n(v) {}
};

Task<void> EchoLoop(RpcEndpoint* client, HostId server, int calls, int* ok) {
  for (int i = 0; i < calls; ++i) {
    EchoReq req(static_cast<uint64_t>(i));
    Result<EchoResp> r =
        co_await client->Call<EchoReq, EchoResp>(server, req, Duration::Seconds(1));
    if (r.ok() && r.value().n == static_cast<uint64_t>(i)) {
      ++*ok;
    }
  }
}

struct RpcEchoResult {
  double calls_per_sec = 0;
  double sim_events_per_call = 0;
};

RpcEchoResult RunRpcEcho(int calls) {
  Simulator sim(11);
  Network net(&sim);
  net.SetDefaultLink(LatencyModel::Fixed(Duration::Micros(200)));
  Host* server_host = net.AddHost("echo-server");
  Host* client_host = net.AddHost("echo-client");
  RpcEndpoint server(&net, server_host);
  RpcEndpoint client(&net, client_host);
  std::function<Task<Result<EchoResp>>(HostId, EchoReq)> handler =
      [](HostId, EchoReq req) -> Task<Result<EchoResp>> {
    co_return EchoResp(req.n);
  };
  server.Handle<EchoReq, EchoResp>(std::move(handler));

  int ok = 0;
  const auto t0 = std::chrono::steady_clock::now();
  Spawn(EchoLoop(&client, server_host->id(), calls, &ok));
  sim.Run();
  const auto t1 = std::chrono::steady_clock::now();
  WVOTE_CHECK_MSG(ok == calls, "echo calls failed");
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0).count();
  RpcEchoResult out;
  out.calls_per_sec = calls / secs;
  out.sim_events_per_call = static_cast<double>(sim.events_processed()) / calls;
  return out;
}

// Workload 3b: quorum read rounds — Gifford example 2's five-rep suite,
// sequential ReadOnce ops (version probes + fan-out + fastpath) end to end.
double RunQuorumReadRounds(int reads) {
  GiffordExample ex = MakeGiffordExamples()[1];
  ExampleDeployment deploy = DeployExample(ex, {}, /*seed=*/11);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reads; ++i) {
    Result<std::string> r = deploy.cluster->RunTask(deploy.client->ReadOnce());
    WVOTE_CHECK_MSG(r.ok(), "quorum read failed");
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0).count();
  return reads / secs;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double BestOf(int trials, const std::function<double()>& run) {
  double best = 0;
  for (int i = 0; i < trials; ++i) {
    const double v = run();
    best = v > best ? v : best;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchFlags(argc, argv);
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline_path = argv[i] + 11;
    }
  }

  const int timers = 4096;
  const long pure_events = g_bench_smoke ? 400000 : 4000000;
  const long cancel_pairs = g_bench_smoke ? 100000 : 1000000;
  const int echo_calls = SmokeIters(20000, 2000);
  const int quorum_reads = SmokeIters(2000, 200);
  const int trials = g_bench_smoke ? 3 : 5;
  // The guarded speedup pairs each new-core trial with a legacy trial run
  // right after it and takes the median of the per-pair ratios: load from
  // other processes then slows both sides of a pair alike instead of
  // skewing one side's best-of.
  const int ratio_trials = g_bench_smoke ? 5 : 7;

  // Warm-up pass so first-touch page faults don't bill to either core.
  {
    Simulator warm(1);
    PureEventEventsPerSec(warm, 64, 20000);
    LegacyHeapSim warm_legacy;
    PureEventEventsPerSec(warm_legacy, 64, 20000);
  }

  std::vector<double> now_runs;
  std::vector<double> legacy_runs;
  std::vector<double> ratios;
  for (int i = 0; i < ratio_trials; ++i) {
    Simulator sim(1);
    now_runs.push_back(PureEventEventsPerSec(sim, timers, pure_events));
    LegacyHeapSim legacy;
    legacy_runs.push_back(PureEventEventsPerSec(legacy, timers, pure_events));
    ratios.push_back(now_runs.back() / legacy_runs.back());
  }
  const double now_eps = Median(now_runs);
  const double legacy_eps = Median(legacy_runs);
  const double speedup = Median(ratios);

  const double cancel_eps = BestOf(trials, [&] {
    Simulator sim(1);
    return CancelHeavyEventsPerSec(sim, cancel_pairs);
  });

  const RpcEchoResult echo = RunRpcEcho(echo_calls);
  const double quorum_rps = RunQuorumReadRounds(quorum_reads);

  std::printf("E13 — simulator core throughput (wall clock, %s run)\n",
              g_bench_smoke ? "smoke" : "full");
  PrintRule(78);
  std::printf("%-34s %14s\n", "workload", "rate");
  PrintRule(78);
  std::printf("%-34s %12.2fM events/s\n", "pure-event (timer wheel)", now_eps / 1e6);
  std::printf("%-34s %12.2fM events/s\n", "pure-event (legacy heap)", legacy_eps / 1e6);
  std::printf("%-34s %13.2fx\n", "speedup (median of paired trials)", speedup);
  std::printf("%-34s %12.2fM events/s\n", "cancel-heavy (timeout pattern)", cancel_eps / 1e6);
  std::printf("%-34s %12.2fK calls/s\n", "rpc echo (end-to-end)", echo.calls_per_sec / 1e3);
  std::printf("%-34s %14.1f ev/call\n", "rpc echo sim events per call",
              echo.sim_events_per_call);
  std::printf("%-34s %12.2fK reads/s\n", "quorum read round (5 reps)", quorum_rps / 1e3);
  PrintRule(78);

  std::printf(
      "{\"bench\":\"sim_core\",\"smoke\":%s,"
      "\"pure_event\":{\"timers\":%d,\"events\":%ld,"
      "\"events_per_sec\":%.0f,\"legacy_events_per_sec\":%.0f,\"speedup\":%.2f},"
      "\"cancel_heavy\":{\"events_per_sec\":%.0f},"
      "\"rpc_echo\":{\"calls_per_sec\":%.0f,\"sim_events_per_call\":%.2f},"
      "\"quorum_read\":{\"reads_per_sec\":%.0f}}\n",
      g_bench_smoke ? "true" : "false", timers, pure_events, now_eps, legacy_eps, speedup,
      cancel_eps, echo.calls_per_sec, echo.sim_events_per_call, quorum_rps);

  if (!baseline_path.empty()) {
    const double committed = CommittedValue(ReadWholeFile(baseline_path), "\"speedup\":");
    const double floor = committed * 0.7;
    std::printf("regression guard: measured speedup %.2fx vs committed %.2fx (floor %.2fx)\n",
                speedup, committed, floor);
    if (speedup < floor) {
      std::fprintf(stderr,
                   "FAIL: simulator-core speedup regressed more than 30%% below the "
                   "committed BENCH_sim_core.json baseline\n");
      return 1;
    }
  }
  return 0;
}
