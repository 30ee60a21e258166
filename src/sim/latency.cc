#include "src/sim/latency.h"

#include <cstdio>

#include "src/common/check.h"

namespace wvote {

LatencyModel LatencyModel::Fixed(Duration value) {
  WVOTE_CHECK(value >= Duration::Zero());
  LatencyModel m;
  m.kind_ = Kind::kFixed;
  m.a_ = value;
  return m;
}

LatencyModel LatencyModel::Uniform(Duration lo, Duration hi) {
  WVOTE_CHECK(Duration::Zero() <= lo && lo <= hi);
  LatencyModel m;
  m.kind_ = Kind::kUniform;
  m.a_ = lo;
  m.b_ = hi;
  return m;
}

Duration LatencyModel::Sample(Rng& rng) const {
  switch (kind_) {
    case Kind::kFixed:
      return a_;
    case Kind::kUniform:
      return Duration::Micros(rng.NextInRange(a_.ToMicros(), b_.ToMicros()));
  }
  return Duration::Zero();
}

Duration LatencyModel::Mean() const {
  switch (kind_) {
    case Kind::kFixed:
      return a_;
    case Kind::kUniform:
      return Duration::Micros((a_.ToMicros() + b_.ToMicros()) / 2);
  }
  return Duration::Zero();
}

std::string LatencyModel::ToString() const {
  switch (kind_) {
    case Kind::kFixed:
      return "fixed(" + a_.ToString() + ")";
    case Kind::kUniform:
      return "uniform(" + a_.ToString() + "," + b_.ToString() + ")";
  }
  return "?";
}

}  // namespace wvote
