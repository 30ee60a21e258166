// Nemesis: applies a FaultSchedule to a deployed Cluster. It is the one
// place that injects crashes: the chaos templates, the availability
// experiments' exponential crash/restart cycles (CrashRestartSchedule) and
// the phase-targeted crashes all reach the hosts through it.
//
// Deploy() walks the schedule once and plants every event on the cluster's
// simulator at its offset; application is pure mechanism — all randomness
// was spent when the schedule was built, so the same schedule against the
// same cluster seed replays the same run. Phase-targeted events arm
// ArmPhaseCrash observers on the cluster's TraceLog; timed events crash,
// restart, partition, heal, and turn network/storage fault knobs.
//
// Events naming hosts that do not exist are skipped (counted in
// events_skipped): schedule minimization may strip a partition's heal or a
// crash's context, and the remaining events must still apply cleanly.

#ifndef WVOTE_SRC_CHAOS_NEMESIS_H_
#define WVOTE_SRC_CHAOS_NEMESIS_H_

#include <cstdint>

#include "src/chaos/schedule.h"
#include "src/core/cluster.h"
#include "src/workload/fault_injector.h"

namespace wvote {

// Phase-targeted one-shot crash: arms a TraceLog observer that crashes
// `host` the instant it records an event of `kind` at that host, then
// restarts it after `downtime` (zero leaves it down). Fires at most once.
// This is how chaos schedules hit exact protocol windows — e.g.
// kind=kTxnPrepared crashes a participant between its yes-vote and the
// commit, and kind=kDecisionLogged crashes a coordinator after the decision
// is durable but before any phase-2 fan-out. `stats` (optional) must
// outlive the run.
void ArmPhaseCrash(Simulator* sim, TraceLog* trace, Host* host, TraceKind kind,
                   Duration downtime, FaultInjectorStats* stats = nullptr);

class Nemesis {
 public:
  Nemesis(Cluster* cluster, FaultSchedule schedule)
      : cluster_(cluster), schedule_(std::move(schedule)) {}
  Nemesis(const Nemesis&) = delete;
  Nemesis& operator=(const Nemesis&) = delete;

  // Schedules every event at its offset from now; call once, before pumping
  // the simulation. The planted events point at this Nemesis, so it must
  // outlive every run of the simulator that can reach them.
  void Deploy();

  const FaultSchedule& schedule() const { return schedule_; }
  uint64_t events_applied() const { return events_applied_; }
  uint64_t events_skipped() const { return events_skipped_; }
  const FaultInjectorStats& stats() const { return stats_; }

 private:
  void Apply(const FaultEvent& ev);

  Cluster* cluster_;
  FaultSchedule schedule_;
  uint64_t events_applied_ = 0;
  uint64_t events_skipped_ = 0;
  FaultInjectorStats stats_;
};

}  // namespace wvote

#endif  // WVOTE_SRC_CHAOS_NEMESIS_H_
