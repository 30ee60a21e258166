// Latency models for links, disks, and representative access costs.
//
// Gifford's evaluation characterizes each representative by an access
// latency (e.g. 75ms for a remote server over the 1979 internetwork, 65ms
// for a local one). LatencyModel captures that parameter as a distribution:
// fixed for analytic reproduction, or jittered for simulation realism
// sweeps.

#ifndef WVOTE_SRC_SIM_LATENCY_H_
#define WVOTE_SRC_SIM_LATENCY_H_

#include <string>

#include "src/common/time.h"
#include "src/sim/random.h"

namespace wvote {

class LatencyModel {
 public:
  // Default: zero latency.
  LatencyModel() : kind_(Kind::kFixed) {}

  // Always exactly `value`.
  static LatencyModel Fixed(Duration value);

  // Uniform in [lo, hi].
  static LatencyModel Uniform(Duration lo, Duration hi);

  Duration Sample(Rng& rng) const;

  // Expected value of the distribution; used by the analytic model so that
  // analysis and simulation agree in expectation.
  Duration Mean() const;

  std::string ToString() const;

 private:
  enum class Kind { kFixed, kUniform };

  Kind kind_;
  Duration a_;  // kFixed: value; kUniform: lo
  Duration b_;  // kUniform: hi
};

}  // namespace wvote

#endif  // WVOTE_SRC_SIM_LATENCY_H_
