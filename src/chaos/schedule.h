// Composable, seed-deterministic fault schedules.
//
// A FaultSchedule is a value object: an ordered list of FaultEvents, each an
// (offset, action, target) triple. Schedules are built once — from a named
// template expanded under a seed, from an exponential crash/restart profile
// (CrashRestartSchedule), or parsed back from a dumped artifact — and then
// *applied* deterministically by the Nemesis; no randomness survives into
// application, so replaying a schedule against the same cluster seed
// reproduces the run bit-for-bit. That determinism is what makes greedy
// schedule minimization (drop an event, replay, keep the drop if the failure
// persists) an exact algorithm rather than a heuristic.
//
// Events cover every fault the simulator can express:
//   * crash/restart cycles on a named host (kCrashRestart);
//   * phase-targeted one-shot crashes keyed off TraceLog breadcrumbs
//     (kCrashOnTrace — crash-on-prepare, crash-after-decision-before-
//     phase-2, ...);
//   * partitions into named groups, with heal (kPartition / kHeal);
//   * network weather: loss, duplication, delay spikes on every link
//     (kLinkKnobs);
//   * stable-storage faults: probabilistic clean write failures
//     (kStoreFaults) and one-shot torn flushes (kStoreTearNextFlush);
//   * gray degradation — the host stays up and keeps voting, it just gets
//     slow: whole-host service-time multipliers (kGrayHost), asymmetric
//     outbound link slowdown (kGrayLink), and degraded-disk latency
//     multipliers (kGrayDisk). p1 carries the multiplier; p1 <= 1 heals.
//
// Schedules serialize to a line-based text form that round-trips exactly,
// so a failing run's schedule can be dumped, attached to a bug report, and
// replayed by chaos_cli.

#ifndef WVOTE_SRC_CHAOS_SCHEDULE_H_
#define WVOTE_SRC_CHAOS_SCHEDULE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/time.h"
#include "src/trace/trace.h"
#include "src/workload/fault_injector.h"

namespace wvote {

enum class FaultAction : uint8_t {
  kCrashRestart,        // crash `host` at `at`, restart after `duration`
  kCrashOnTrace,        // one-shot: crash `host` when it records `trace_kind`
  kPartition,           // split hosts into `groups` (by host name)
  kHeal,                // heal any partition
  kLinkKnobs,           // set loss/dup/spike knobs on every link
  kStoreFaults,         // set `host`'s store write_fail_probability = p1
  kStoreTearNextFlush,  // one-shot: tear `host`'s next stable-store flush
  kGrayHost,            // scale all of `host`'s in+out delivery delays by p1
  kGrayLink,            // scale `host`'s OUTBOUND delivery delays by p1
  kGrayDisk,            // scale `host`'s stable-store latency by p1
};

const char* FaultActionName(FaultAction action);

struct FaultEvent {
  Duration at;          // offset from run start
  FaultAction action = FaultAction::kHeal;
  std::string host;     // target host name (crash/store actions)
  std::vector<std::vector<std::string>> groups;  // kPartition only
  Duration duration;    // kCrashRestart / kCrashOnTrace downtime
  TraceKind trace_kind = TraceKind::kCustom;     // kCrashOnTrace only
  // Probability knobs: kLinkKnobs uses (p1=loss, p2=dup, p3=spike prob) and
  // `spike` as the spike size; kStoreFaults uses p1 = write-fail prob.
  double p1 = 0.0;
  double p2 = 0.0;
  double p3 = 0.0;
  Duration spike;

  std::string ToLine() const;
  static Result<FaultEvent> FromLine(const std::string& line);
  std::string ToString() const;  // human-readable one-liner
};

struct FaultSchedule {
  std::string name;  // template name (or "minimized(<name>)" etc.)
  std::vector<FaultEvent> events;

  // Text form: "schedule <name>" then one "event ..." line per event.
  // Parse(Serialize()) round-trips exactly.
  std::string Serialize() const;
  static Result<FaultSchedule> Parse(const std::string& text);

  // Copy with event `index` removed (minimization step).
  FaultSchedule Without(size_t index) const;
  // Copy truncated to the first `n` events.
  FaultSchedule Truncated(size_t n) const;

  std::string ToString() const;  // human-readable, one event per line
};

// Inputs a template needs to shape a schedule around a deployment.
struct ScheduleTemplateParams {
  std::vector<std::string> rep_hosts;
  std::vector<std::string> client_hosts;  // coordinator hosts
  // Workload horizon. Faults are injected inside [0, ~0.7*horizon] and every
  // template heals/restarts/clears by ~0.8*horizon, so a final convergence
  // read after the horizon exercises acknowledged-write durability with no
  // standing excuse.
  Duration horizon = Duration::Seconds(8);
};

// Splits `line` on single spaces into key=value tokens; a token without '='
// is skipped. The text forms of schedules and chaos artifacts share it.
std::map<std::string, std::string> TokenizeLine(const std::string& line);

// Names of the built-in templates, in sweep order.
std::vector<std::string> ScheduleTemplateNames();

// Expands `template_name` deterministically under `seed`. Aborts on an
// unknown name (ScheduleTemplateNames() is the contract).
FaultSchedule MakeScheduleFromTemplate(const std::string& template_name, uint64_t seed,
                                       const ScheduleTemplateParams& params);

// Gifford's independent-failure model as a schedule. Host i draws from
// Rng(seed + i): up for Exp(profile.mttf), then one kCrashRestart event down
// for Exp(profile.mttr), repeated while the crash falls before `horizon` (a
// crash keeps its whole downtime even past it). Each draw is truncated to
// whole microseconds. Events are in time order, as a template's are.
FaultSchedule CrashRestartSchedule(const std::vector<std::string>& hosts,
                                   const FaultProfile& profile, Duration horizon,
                                   uint64_t seed);

}  // namespace wvote

#endif  // WVOTE_SRC_CHAOS_SCHEDULE_H_
