// Chaos runner: one deterministic adversarial run, seed sweeps, and
// schedule minimization.
//
// A ChaosRunSpec fully determines a run: cluster seed, schedule template,
// suite shape, and workload knobs. RunChaos() deploys a fresh cluster,
// expands the template under the seed, lets the Nemesis loose while N
// clients issue uniquely-tagged reads and writes into a HistoryRecorder,
// finishes with a broadcast convergence read after every fault has cleared,
// and hands the history to the checker.
//
// Determinism is the load-bearing property: the same spec replays the same
// run bit-for-bit, and RunChaosWithSchedule() replays a *dumped* schedule
// against the spec's seed the same way. MinimizeSchedule() exploits that to
// shrink a failing schedule exactly — truncate to the shortest failing
// prefix, then greedily drop events while the checker still fails — so the
// artifact attached to a failure is the smallest schedule that reproduces
// it, not the full storm that found it.

#ifndef WVOTE_SRC_CHAOS_RUNNER_H_
#define WVOTE_SRC_CHAOS_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/chaos/checker.h"
#include "src/chaos/history.h"
#include "src/chaos/schedule.h"

namespace wvote {

// Shape of the suite under test. `votes[i]` is representative i's weight
// (hosts are named "rep-0".."rep-N-1"); `unsafe` deploys the configuration
// even if it breaks quorum intersection (negative controls).
struct ChaosSuiteSpec {
  std::string name;
  std::vector<int> votes;
  int read_quorum = 0;
  int write_quorum = 0;
  bool unsafe = false;
};

// The valid configurations the sweep exercises (uniform narrow/wide quorums
// plus a weighted assignment), and the deliberately broken negative control
// (r + w <= V: reads can miss the latest write quorum entirely).
std::vector<ChaosSuiteSpec> DefaultSuiteSpecs();
ChaosSuiteSpec NegativeControlSuite();

struct ChaosRunSpec {
  uint64_t seed = 1;
  std::string schedule_template = "crash_churn";
  ChaosSuiteSpec suite;
  int clients = 3;
  int ops_per_client = 30;
  double write_fraction = 0.4;
  Duration horizon = Duration::Seconds(8);
  bool collect_trace = false;  // also capture the causal span trace
  // Cycle every workload client through the quorum probing policies
  // (cheapest -> load-optimal -> fewest-messages) while the
  // nemesis runs. The consistency spec (R-VALUE, RW-ORDER) must hold across
  // every switch: strategies only change *which* current representatives a
  // quorum is gathered from, never the quorum arithmetic itself.
  bool rotate_strategies = false;
  // Set SuiteClientOptions::gray_tolerance on every client (hedged probes,
  // breaker and latency demotion). Off by default so existing artifacts
  // replay bit-exact; the consistency spec must hold either way — tolerance
  // changes latency and routing, never quorum arithmetic.
  bool gray_tolerance = false;
  // Sim-time metrics scraping during the run (zero = off). Pure
  // observability: scraping rides the simulator metronome outside the timer
  // wheel, so the run's event schedule, history, check result, and metrics
  // snapshot are bit-identical with or without it. Deliberately NOT
  // serialized into artifacts — a replay reproduces the failure with
  // whatever scraping the replayer wants.
  Duration scrape_resolution = Duration::Zero();
};

struct ChaosRunOutcome {
  FaultSchedule schedule;        // the concrete schedule that ran
  std::vector<ChaosOp> history;  // every op attempt, in invocation order
  CheckResult check;             // violations already include convergence
  bool final_read_ok = false;    // post-heal broadcast read succeeded
  std::string initial_contents;
  uint64_t nemesis_events_applied = 0;
  uint64_t nemesis_crashes = 0;        // scheduled + phase-targeted crashes
  uint64_t nemesis_phase_crashes = 0;  // crash-on-trace one-shots that fired
  uint64_t strategy_rotations = 0;     // mid-run policy switches applied
  std::string metrics_json;   // registry snapshot at run end
  std::string chrome_trace;   // traceEvents bodies (collect_trace only)
  // Scraping only (spec.scrape_resolution > 0), empty otherwise:
  std::string timeseries_json;  // full exported time-series tail
  std::string flight_record;    // last-windows + SLO events + trace tail
  uint64_t slo_breaches = 0;    // SLO rules that entered breach during the run
};

// Expands the spec's template under its seed and runs it.
ChaosRunOutcome RunChaos(const ChaosRunSpec& spec);

// Replays an explicit schedule (minimization steps, dumped artifacts).
ChaosRunOutcome RunChaosWithSchedule(const ChaosRunSpec& spec, const FaultSchedule& schedule);

// Greedy exact minimization: shortest failing prefix, then event removal to
// a fixpoint. Returns `failing` unchanged (renamed) if nothing can go.
FaultSchedule MinimizeSchedule(const ChaosRunSpec& spec, const FaultSchedule& failing);

// Failure artifact: replayable spec + schedule header, then the checker
// report, history, metrics, and (if collected) span trace. ParseArtifact()
// recovers exactly the replayable half.
std::string DumpArtifact(const ChaosRunSpec& spec, const FaultSchedule& schedule,
                         const ChaosRunOutcome& outcome);

struct ChaosReplayFile {
  ChaosRunSpec spec;
  FaultSchedule schedule;
};
Result<ChaosReplayFile> ParseArtifact(const std::string& text);

}  // namespace wvote

#endif  // WVOTE_SRC_CHAOS_RUNNER_H_
