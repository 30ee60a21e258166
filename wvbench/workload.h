// The benchmark's workloads: Gifford's Example 2 suite under load.
//
// Every workload deploys Example 2 from MakeGiffordExamples() — server-a
// (2 votes, 75 ms round trip), server-b (1 vote, 100 ms), server-c (1 vote,
// 750 ms), r=2, w=3 — with each client link jittered ±10% around the
// paper's round trip, so sim-time latencies are continuous rather than the
// same constant for every seed. Clients are coroutines on the simulator's
// single thread. An op runs from SuiteClient::Begin to its ack; an attempt
// that fails (lock conflict, missing quorum, timeout) is retried as a fresh
// transaction after a jittered backoff, and every attempt is recorded in
// the chaos HistoryRecorder so CheckHistory can judge the run.
//
// One WorkloadRun is one deterministic execution for one seed: the same
// (spec, seed) gives the same history, registry counts and sim-time
// latencies, traced or not. Host time and allocations are measured around
// the measured phase only.

#ifndef WVBENCH_WORKLOAD_H_
#define WVBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/chaos/history.h"
#include "src/common/time.h"
#include "src/obs/metrics.h"

namespace wvbench {

struct WorkloadSpec {
  std::string name;
  bool open_loop = false;
  int clients = 4;            // closed loop: concurrent clients; open: client hosts
  double write_fraction = 0.05;
  size_t file_bytes = 64;     // suite contents and every write payload
  double arrival_rate = 0.0;  // open loop: Poisson arrivals per simulated second
  bool churn = false;         // representatives crash and restart
  wvote::Duration mttf;       // mean time up (exponential)
  wvote::Duration mttr;       // mean time down, restart_floor included
  // No restart is faster than this. With restarts allowed within tens of
  // milliseconds, a participant that crashed right after preparing can ask
  // the coordinator for the outcome before the coordinator has decided: it
  // is told "abort" and drops its prepared write, and then the coordinator
  // commits — a lost acknowledged write that the correctness gate flags
  // (churn_open seeds 11 and 15 without the floor). The floor keeps the
  // benchmark off that known bug until it is fixed.
  wvote::Duration restart_floor;
  wvote::Duration warmup;     // part of set-up: plan caches, health SRTT, hints
  wvote::Duration window;     // the measured phase, in simulated time
};

// The three named workloads; nullopt for an unknown name. `scale` shrinks
// the measured window (the self-test runs tiny versions).
std::optional<WorkloadSpec> MakeSpec(const std::string& name, double scale);

// Sim-time durations of one trace phase (from the traced run's spans).
using PhaseSamples = std::map<std::string, std::vector<int64_t>>;  // name -> µs

struct RunResult {
  // Correctness gate: empty when every check passed.
  std::vector<std::string> violations;

  // Host-side measurements (vary run to run).
  double setup_s = 0.0;
  double measured_wall_s = 0.0;          // the measured window, harvesting excluded
  std::vector<double> slice_us_per_op;  // wall µs per op issued, per timing slice
  double check_wall_s = 0.0;    // history checker
  double total_wall_s = 0.0;    // the whole run, set-up to convergence check
  uint64_t allocs = 0;                  // heap allocations in the measured window

  // Ops whose due time falls in the measured window.
  uint64_t ops = 0;
  uint64_t acked = 0;
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t attempts = 0;
  uint64_t failed_attempts = 0;
  uint64_t first_read_attempts = 0;
  uint64_t first_read_unavailable = 0;  // first attempt failed other than by conflict
  uint64_t first_write_attempts = 0;
  uint64_t first_write_unavailable = 0;
  uint64_t slo_misses = 0;
  std::vector<int64_t> read_latency_us;   // acked reads, from due time
  std::vector<int64_t> write_latency_us;  // acked writes, from due time
  int64_t max_outage_us = 0;
  double window_s = 0.0;
  // Each representative's measured up-fraction over the run (churn only).
  std::map<std::string, double> up_fraction;

  wvote::MetricsSnapshot delta;  // registry over the measured phase
  PhaseSamples phases;           // traced run only

  // Hash of the history, final state and registry counts (trace.* and
  // wall-clock gauges excluded): equal for equal (spec, seed).
  uint64_t fingerprint = 0;
  uint64_t history_hash = 0;
  size_t history_ops = 0;
};

struct RunOptions {
  uint64_t seed = 1;
  bool traced = false;
  // Run the history checker (the gate). Repetitions whose fingerprint
  // matches an already-checked run may skip it.
  bool check_history = true;
  // Self-test hook: corrupt one read in the recorded history before the
  // check, which must then fail.
  bool corrupt_history = false;
  // Stop after set-up (set-up time samples only).
  bool setup_only = false;
  // Traced run: where to append the cluster's Chrome trace events; null to
  // skip.
  std::string* chrome_events = nullptr;
};

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

// History checker over a long history: CheckHistory over overlapping
// windows of `window` ops (each op pair invoked within window/2 ops of each
// other is checked), each window extended by the write attempts whose
// payloads its reads observed so that R-VALUE stays exact. A history no
// longer than `window` is one window.
std::vector<std::string> CheckHistoryWindowed(const std::vector<wvote::ChaosOp>& ops,
                                              const std::string& initial, size_t window);

}  // namespace wvbench

#endif  // WVBENCH_WORKLOAD_H_
