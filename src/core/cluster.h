// Cluster: one-call deployment of a weighted-voting system in simulation.
//
// Owns the simulator and network and wires up representative servers and
// client stacks (RPC endpoint + stable store + 2PC coordinator + suite
// client + optional weak-representative cache). Mirrors the shape of
// Gifford's deployment: file servers holding representatives, client
// machines running the voting algorithm.

#ifndef WVOTE_SRC_CORE_CLUSTER_H_
#define WVOTE_SRC_CORE_CLUSTER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/health.h"
#include "src/core/representative.h"
#include "src/core/suite_client.h"
#include "src/core/weak_rep.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/timeseries.h"
#include "src/sim/simulator.h"
#include "src/trace/span.h"
#include "src/trace/trace.h"

namespace wvote {

struct ClusterOptions {
  uint64_t seed = 42;
  LatencyModel default_link = LatencyModel::Fixed(Duration::Millis(5));
  RepresentativeOptions rep_options;
  // Applied to every client host's 2PC coordinator (e.g. sync_phase2 for
  // runs that must execute the literal 3-RTT commit).
  CoordinatorOptions coordinator_options;
  // Sim-time metrics scraping (the time-series layer). Zero disables; a
  // positive resolution attaches a Scraper to the simulator metronome at
  // construction (EnableScraping does the same after construction).
  // Scraping rides outside the timer wheel, so the event schedule — and any
  // golden replay pinned to it — is identical with or without it. With
  // scraping on, SloEngine::DefaultRules() is evaluated on every sealed
  // window and its kSloBreach / kSloRecovered transitions are recorded into
  // the trace log.
  Duration scrape_resolution = Duration::Zero();
  size_t scrape_window_capacity = 512;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options = {});

  Simulator& sim() { return sim_; }
  Network& net() { return net_; }
  TraceLog& trace() { return trace_; }

  // The cluster-wide causal tracer. Disabled by default (one branch per
  // span site); flip with tracer().Enable(true) before the traffic of
  // interest, then Snapshot()/ExportChromeTrace() afterwards.
  Tracer& tracer() { return tracer_; }

  // The cluster-wide metrics registry. Every component added through this
  // cluster (network, representatives, client stacks) registers its stats
  // here automatically; snapshot/export it for benches and tests.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // Attaches the sim-time scraper (and, per options, the SLO engine) at
  // `resolution`, driven by the simulator metronome. No-op if scraping is
  // already on.
  void EnableScraping(Duration resolution);

  // Null until EnableScraping (or a nonzero options.scrape_resolution).
  Scraper* scraper() { return scraper_.get(); }
  const Scraper* scraper() const { return scraper_.get(); }
  SloEngine* slo() { return slo_.get(); }
  const SloEngine* slo() const { return slo_.get(); }

  // Flight-recorder JSON: the last `windows` time-series windows, every SLO
  // transition, and the trace log tail. Empty string when scraping is off.
  std::string DumpFlightRecord(size_t windows = 64, size_t trace_lines = 40) const;

  // Adds a file-server host running a RepresentativeServer.
  RepresentativeServer* AddRepresentative(const std::string& host_name);

  // Adds a client host with a full client stack for `config`. If
  // `with_cache` is true, a weak representative is attached.
  SuiteClient* AddClient(const std::string& host_name, const SuiteConfig& config,
                         SuiteClientOptions client_options = {}, bool with_cache = false);

  RepresentativeServer* representative(const std::string& host_name);
  WeakRepresentative* cache_of(const std::string& client_host_name);
  Coordinator* coordinator_of(const std::string& client_host_name);
  HealthTracker* health_of(const std::string& client_host_name);

  // Bootstraps `config` (prefix + initial contents, version 1) at every
  // voting representative. Must be called after the representatives exist.
  Status CreateSuite(const SuiteConfig& config, const std::string& initial_contents);

  // Pumps the simulation until `task` completes and returns its result.
  // Aborts if the event queue drains first (the task deadlocked).
  template <typename T>
  T RunTask(Task<T> task) {
    std::optional<T> out;
    Spawn(CaptureInto(std::move(task), &out));
    while (!out.has_value() && sim_.StepOne()) {
    }
    WVOTE_CHECK_MSG(out.has_value(), "task did not complete (simulation went idle)");
    return std::move(*out);
  }

  // Like RunTask but bounded by simulated time; nullopt if the task did not
  // complete before `limit` elapsed (e.g. blocked by a partition).
  template <typename T>
  std::optional<T> RunTaskFor(Task<T> task, Duration limit) {
    // A task that outlives `limit` keeps running detached, so its result
    // slot must outlive this frame: the capture coroutine shares it.
    auto out = std::make_shared<std::optional<T>>();
    Spawn(CaptureInto(std::move(task), out));
    const TimePoint deadline = sim_.Now() + limit;
    while (!out->has_value() && sim_.Now() <= deadline && sim_.StepOne()) {
    }
    return std::move(*out);
  }

 private:
  // `out` is a raw pointer (RunTask) or a shared_ptr (RunTaskFor) to the
  // caller's result slot.
  template <typename T, typename Slot>
  static Task<void> CaptureInto(Task<T> task, Slot out) {
    out->emplace(co_await std::move(task));
  }

  struct ClientStack {
    std::unique_ptr<RpcEndpoint> rpc;
    std::unique_ptr<StableStore> store;
    std::unique_ptr<Coordinator> coordinator;
    // Per-host gray-failure sensing: fed by the RPC endpoint on every call
    // completion, consulted by suite clients that opt into gray_tolerance.
    // Always wired — recording alone schedules nothing, so default runs
    // stay bit-exact.
    std::unique_ptr<HealthTracker> health;
    std::unique_ptr<WeakRepresentative> cache;
    std::vector<std::unique_ptr<SuiteClient>> clients;
  };

  ClusterOptions options_;
  // Declared first so it outlives every component that registers into it
  // (the registry destructor never reads its sources; snapshots can only be
  // taken while the cluster — and thus every source — is alive).
  MetricsRegistry metrics_;
  Simulator sim_;
  TraceLog trace_;
  // Declared before net_: the network (and every component reached through
  // it) holds a raw pointer to the tracer.
  Tracer tracer_;
  Network net_;
  std::unique_ptr<Scraper> scraper_;
  std::unique_ptr<SloEngine> slo_;
  std::map<std::string, std::unique_ptr<RepresentativeServer>> reps_;
  std::map<std::string, ClientStack> clients_;
};

}  // namespace wvote

#endif  // WVOTE_SRC_CORE_CLUSTER_H_
