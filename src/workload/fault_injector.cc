#include "src/workload/fault_injector.h"

#include "src/common/check.h"

namespace wvote {

void FaultInjectorStats::RegisterWith(MetricsRegistry* registry, const MetricLabels& labels) {
  registry->RegisterCounter("workload.fault_injector.crashes", labels, &crashes);
  registry->RegisterCounter("workload.fault_injector.phase_crashes", labels, &phase_crashes);
  registry->RegisterGauge("workload.fault_injector.downtime_seconds", labels,
                          [this]() { return total_downtime.ToSeconds(); });
  registry->AddResetHook([this]() { Reset(); });
}

FaultProfile ProfileForAvailability(double availability, Duration mttr) {
  WVOTE_CHECK(availability > 0.0 && availability < 1.0);
  // availability = mttf / (mttf + mttr)  =>  mttf = mttr * a / (1 - a)
  const double mttf_us = static_cast<double>(mttr.ToMicros()) * availability /
                         (1.0 - availability);
  return FaultProfile{Duration::Micros(static_cast<int64_t>(mttf_us)), mttr};
}

}  // namespace wvote
