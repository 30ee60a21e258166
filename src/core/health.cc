#include "src/core/health.h"

#include <algorithm>
#include <utility>

namespace wvote {

namespace {

// Jacobson/Karels smoothing gains.
constexpr double kSrttGain = 0.125;
constexpr double kRttvarGain = 0.25;

// Retransmission-timeout estimate srtt + max(4·rttvar, kRtoMargin): the
// round trip a reply is expected within, which normalizes suspicion. The
// margin plays the role of clock granularity in Jacobson's RTO — on a steady
// link rttvar decays toward zero.
constexpr double kRttvarRtoMult = 4.0;
constexpr Duration kRtoMargin = Duration::Millis(5);

// Hedge delay ≈ p95: srtt + max(3·rttvar, kHedgeMargin), clamped to
// [kHedgeFloor, fallback/2]. The margin keeps the delay strictly above a
// converged SRTT — without it, rttvar decays toward zero on a steady link
// and every on-time reply would race its own hedge timer.
constexpr double kHedgeRttvarMult = 3.0;
constexpr Duration kHedgeMargin = Duration::Millis(2);
constexpr Duration kHedgeFloor = Duration::Millis(1);

// The breaker opens after this many consecutive failures.
constexpr int kBreakerOpenAfter = 3;

// A peer whose fresh SRTT exceeds this multiple of its provisioned link
// cost is latency-demoted: it keeps answering (so the breaker stays closed —
// nothing ever FAILS against a 10×-slow host with generous timeouts) but it
// has no business keeping a preferred plan slot. This is what lets sampled
// (load-optimal) orders renormalize over the live hosts.
constexpr double kDemoteInflation = 4.0;

}  // namespace

HealthTracker::HealthTracker(Simulator* sim, std::string owner)
    : sim_(sim), owner_(std::move(owner)) {}

const HealthTracker::PeerState* HealthTracker::Find(HostId peer) const {
  auto it = peers_.find(peer);
  return it == peers_.end() ? nullptr : &it->second;
}

double HealthTracker::RtoUs(const PeerState& peer) const {
  if (!peer.has_sample) {
    return 0.0;
  }
  return peer.srtt_us + std::max(kRttvarRtoMult * peer.rttvar_us,
                                 static_cast<double>(kRtoMargin.ToMicros()));
}

void HealthTracker::Tick(PeerState& peer) {
  if (peer.state == BreakerState::kOpen &&
      sim_->Now() >= peer.opened_at + kBreakerCooldown) {
    peer.state = BreakerState::kHalfOpen;
    ++breaker_trials_;
  }
}

void HealthTracker::OnRpcOutcome(HostId peer, Duration elapsed, bool ok) {
  PeerState& state = StateFor(peer);
  Tick(state);
  ++outcomes_recorded_;
  const bool stale_gap =
      state.has_sample && sim_->Now() - state.last_update > kSampleStaleness;
  state.last_update = sim_->Now();

  if (ok) {
    const double sample_us = static_cast<double>(elapsed.ToMicros());
    if (!state.has_sample || stale_gap) {
      // TCP-style estimator restart after idle: a peer unobserved for longer
      // than the staleness window re-seeds from this sample, so a healed
      // host sheds its gray-era SRTT in one probe instead of an EWMA crawl.
      state.srtt_us = sample_us;
      state.rttvar_us = sample_us / 2.0;
      state.has_sample = true;
    } else {
      const double err = sample_us - state.srtt_us;
      state.rttvar_us += kRttvarGain * ((err < 0 ? -err : err) - state.rttvar_us);
      state.srtt_us += kSrttGain * err;
    }
    state.consecutive_failures = 0;
    state.last_ok = sim_->Now();
    state.ever_ok = true;
    if (state.state != BreakerState::kClosed) {
      state.state = BreakerState::kClosed;
      ++breaker_closes_;
    }
    return;
  }

  // Karn's rule: a failed attempt contributes no latency sample — `elapsed`
  // is bounded by whatever timeout the caller chose, not by the peer.
  ++failures_recorded_;
  ++state.consecutive_failures;
  if (state.state == BreakerState::kHalfOpen) {
    // Trial failed: back to open for another cooldown.
    state.state = BreakerState::kOpen;
    state.opened_at = sim_->Now();
    ++breaker_opens_;
  } else if (state.state == BreakerState::kClosed &&
             state.consecutive_failures >= kBreakerOpenAfter) {
    state.state = BreakerState::kOpen;
    state.opened_at = sim_->Now();
    ++breaker_opens_;
  }
}

Duration HealthTracker::HedgeDelay(HostId peer, Duration fallback_timeout) {
  PeerState& state = StateFor(peer);
  const Duration half_timeout = fallback_timeout / 2;
  if (!state.has_sample) {
    return half_timeout;
  }
  const double margin_us = std::max(kHedgeRttvarMult * state.rttvar_us,
                                    static_cast<double>(kHedgeMargin.ToMicros()));
  const double delay_us = state.srtt_us + margin_us;
  const double floor_us = static_cast<double>(kHedgeFloor.ToMicros());
  const double cap_us = static_cast<double>(half_timeout.ToMicros());
  return Duration::Micros(
      static_cast<int64_t>(std::max(floor_us, std::min(delay_us, cap_us))));
}

BreakerState HealthTracker::breaker(HostId peer) {
  PeerState& state = StateFor(peer);
  Tick(state);
  return state.state;
}

bool HealthTracker::ShouldDemote(HostId peer) {
  return breaker(peer) == BreakerState::kOpen;
}

bool HealthTracker::LatencyDemoted(HostId peer, Duration provisioned) {
  const PeerState* state = Find(peer);
  if (state == nullptr || !state->has_sample) {
    return false;
  }
  if (sim_->Now() - state->last_update > kSampleStaleness) {
    return false;  // forgiven, same as EffectiveLatency
  }
  // The 1ms floor keeps a colocated (zero provisioned cost) peer from being
  // demoted over sub-millisecond scheduling noise.
  const double threshold_us =
      std::max(kDemoteInflation * static_cast<double>(provisioned.ToMicros()),
               static_cast<double>(Duration::Millis(1).ToMicros()));
  return state->srtt_us > threshold_us;
}

Duration HealthTracker::EffectiveLatency(HostId peer, Duration provisioned) {
  const PeerState* state = Find(peer);
  if (state == nullptr || !state->has_sample) {
    return provisioned;
  }
  if (sim_->Now() - state->last_update > kSampleStaleness) {
    return provisioned;  // forgiven: stale observations stop steering plans
  }
  const Duration observed = Duration::Micros(static_cast<int64_t>(state->srtt_us));
  return std::max(provisioned, observed);
}

double HealthTracker::Suspicion(HostId peer) const {
  const PeerState* state = Find(peer);
  if (state == nullptr || state->consecutive_failures == 0) {
    return 0.0;
  }
  // Accrual begins only once a run of failures is live: a quiet healthy
  // peer stays at zero instead of accruing suspicion just for being idle.
  double phi = static_cast<double>(state->consecutive_failures);
  if (state->ever_ok) {
    const double since_ok_us =
        static_cast<double>((sim_->Now() - state->last_ok).ToMicros());
    const double expected_us =
        std::max(RtoUs(*state), static_cast<double>(Duration::Millis(1).ToMicros()));
    phi += since_ok_us / expected_us;
  }
  return phi;
}

Duration HealthTracker::Srtt(HostId peer) const {
  const PeerState* state = Find(peer);
  if (state == nullptr || !state->has_sample) {
    return Duration::Zero();
  }
  return Duration::Micros(static_cast<int64_t>(state->srtt_us));
}

bool HealthTracker::HasSample(HostId peer) const {
  const PeerState* state = Find(peer);
  return state != nullptr && state->has_sample;
}

int HealthTracker::ConsecutiveFailures(HostId peer) const {
  const PeerState* state = Find(peer);
  return state == nullptr ? 0 : state->consecutive_failures;
}

void HealthTracker::RegisterMetrics(MetricsRegistry* registry) {
  const MetricLabels labels = {{"host", owner_}};
  registry->RegisterCounter("core.health.outcomes_recorded", labels, &outcomes_recorded_);
  registry->RegisterCounter("core.health.failures_recorded", labels, &failures_recorded_);
  registry->RegisterCounter("core.health.breaker_opens", labels, &breaker_opens_);
  registry->RegisterCounter("core.health.breaker_closes", labels, &breaker_closes_);
  registry->RegisterCounter("core.health.breaker_trials", labels, &breaker_trials_);
  registry->AddResetHook([this]() {
    outcomes_recorded_ = 0;
    failures_recorded_ = 0;
    breaker_opens_ = 0;
    breaker_closes_ = 0;
    breaker_trials_ = 0;
  });
}

void HealthTracker::RegisterPeerMetrics(MetricsRegistry* registry, HostId peer,
                                        const std::string& peer_name) {
  if (!peers_with_metrics_.insert(peer).second) {
    return;  // already exported
  }
  const MetricLabels labels = {{"host", owner_}, {"peer", peer_name}};
  // Gauges read raw state without the lazy half-open tick: scrapes must not
  // mutate, and "open until the next probe arrives" is the truthful view.
  registry->RegisterGauge("core.health.srtt_ms", labels, [this, peer]() {
    const PeerState* state = Find(peer);
    return (state == nullptr || !state->has_sample) ? 0.0 : state->srtt_us / 1000.0;
  });
  registry->RegisterGauge("core.health.suspicion", labels,
                          [this, peer]() { return Suspicion(peer); });
  registry->RegisterGauge("core.health.breaker", labels, [this, peer]() {
    const PeerState* state = Find(peer);
    return state == nullptr ? 0.0 : static_cast<double>(state->state);
  });
}

}  // namespace wvote
