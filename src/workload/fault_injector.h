// Crash/restart fault accounting and profiles.
//
// A FaultProfile is an exponential crash/repair cycle: up for Exp(mttf),
// down for Exp(mttr). The steady-state availability of such a host is
// mttf / (mttf + mttr), which is what the analytic model's
// per-representative availability parameter means — so simulation sweeps
// and the closed-form blocking probabilities are directly comparable.
// CrashRestartSchedule (src/chaos/schedule.h) turns a profile into a
// FaultSchedule, and the Nemesis applies it, counting into a
// FaultInjectorStats.

#ifndef WVOTE_SRC_WORKLOAD_FAULT_INJECTOR_H_
#define WVOTE_SRC_WORKLOAD_FAULT_INJECTOR_H_

#include <cstdint>

#include "src/common/time.h"
#include "src/obs/metrics.h"

namespace wvote {

struct FaultInjectorStats {
  uint64_t crashes = 0;
  uint64_t phase_crashes = 0;  // one-shot crashes fired by ArmPhaseCrash
  Duration total_downtime;

  void Reset() { *this = FaultInjectorStats{}; }
  // Registers `workload.fault_injector.*{labels}` (downtime as a gauge in
  // seconds); this struct must outlive `registry`'s use of it. Callers
  // label by the injected host.
  void RegisterWith(MetricsRegistry* registry, const MetricLabels& labels = {});
};

// mttf/mttr pair whose steady-state availability is `availability`, with the
// given repair time.
struct FaultProfile {
  Duration mttf;
  Duration mttr;
};
FaultProfile ProfileForAvailability(double availability, Duration mttr);

}  // namespace wvote

#endif  // WVOTE_SRC_WORKLOAD_FAULT_INJECTOR_H_
