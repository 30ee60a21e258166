// Per-host health sensing for gray-failure tolerance.
//
// Crash faults announce themselves: a dead host never replies and the quorum
// machinery routes around it within one timeout. A GRAY host is worse — it
// stays up, holds its votes, and answers every probe 10× too late, dragging
// every quorum whose plan ranks it first. This tracker turns raw RPC
// completions into three per-peer signals the response layer consumes:
//
//   * Smoothed latency (Jacobson/Karels SRTT + RTTVAR, failures excluded per
//     Karn's rule): feeds the p95-ish hedge delay for backup probes and the
//     observed cost that latency demotion and EffectiveLatency rank by.
//     Every call still waits out the one timeout its caller configured.
//   * Phi-accrual-style suspicion: once failures begin, suspicion accrues
//     with time-since-last-success normalized by the expected round trip.
//     Exported as a gauge; a recovering host visibly decays back to zero.
//   * A circuit breaker (closed → open → half-open): opens after N
//     consecutive failures, cools down for a fixed window, then admits trial
//     traffic. The breaker gates probe ORDERING — an open breaker demotes
//     the host to the back of the candidate order — never quorum
//     arithmetic: a demoted host is still probed when its votes are needed,
//     because availability must not hinge on an advisory signal.
//
// Everything here is pure bookkeeping on the simulated clock: no events are
// scheduled, no randomness is drawn. A run that records health but never
// acts on it (the default — SuiteClientOptions::gray_tolerance is opt-in) is
// schedule-identical to one without the tracker, which is what keeps the
// bit-exact determinism goldens valid.

#ifndef WVOTE_SRC_CORE_HEALTH_H_
#define WVOTE_SRC_CORE_HEALTH_H_

#include <map>
#include <set>
#include <string>

#include "src/obs/metrics.h"
#include "src/rpc/rpc.h"
#include "src/sim/simulator.h"

namespace wvote {

enum class BreakerState { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

class HealthTracker : public PeerHealth {
 public:
  // A peer whose breaker opened stays demoted for this long; then the
  // breaker goes half-open and admits trial traffic.
  static constexpr Duration kBreakerCooldown = Duration::Millis(500);
  // An SRTT sample older than this no longer overrides the provisioned
  // latency in EffectiveLatency: an unprobed host is eventually forgiven,
  // which is what lets a healed host win its rank back (and be discovered
  // still-gray if it hasn't).
  static constexpr Duration kSampleStaleness = Duration::Seconds(2);

  HealthTracker(Simulator* sim, std::string owner);

  // PeerHealth: fed by RpcEndpoint on every call completion.
  void OnRpcOutcome(HostId peer, Duration elapsed, bool ok) override;

  // Backup-probe delay for hedged calls against `peer`.
  Duration HedgeDelay(HostId peer, Duration fallback_timeout);

  // Current breaker state, applying the lazy open → half-open transition
  // when the cooldown has expired.
  BreakerState breaker(HostId peer);

  // True while the peer should sort to the BACK of a probe order: breaker
  // open and still cooling down. Half-open peers are not demoted — reaching
  // them is exactly how trial traffic happens.
  bool ShouldDemote(HostId peer);

  // True when a fresh observed SRTT has blown past `provisioned` by the
  // demotion factor (4×) — the gray signature: alive, voting, and far too
  // slow. Like the breaker this only reorders, never excludes; stale
  // observations are forgiven the same way EffectiveLatency forgives them.
  bool LatencyDemoted(HostId peer, Duration provisioned);

  // The latency a probe to `peer` should be assumed to cost: the provisioned
  // link expectation, overridden by a fresher, larger observed SRTT. Stale
  // samples are forgiven (see kSampleStaleness).
  Duration EffectiveLatency(HostId peer, Duration provisioned);

  // Phi-accrual-style suspicion; 0.0 for a peer with no outstanding run of
  // failures, growing with time-since-last-success once failures begin.
  double Suspicion(HostId peer) const;

  Duration Srtt(HostId peer) const;
  bool HasSample(HostId peer) const;
  int ConsecutiveFailures(HostId peer) const;

  uint64_t breaker_opens() const { return breaker_opens_; }
  uint64_t breaker_closes() const { return breaker_closes_; }
  uint64_t outcomes_recorded() const { return outcomes_recorded_; }

  // Tracker-level counters under `core.health.*{host=owner}`.
  void RegisterMetrics(MetricsRegistry* registry);
  // Per-peer gauges (srtt_ms, suspicion, breaker) under
  // `core.health.*{host=owner,peer=peer_name}`. Idempotent per peer.
  void RegisterPeerMetrics(MetricsRegistry* registry, HostId peer,
                           const std::string& peer_name);

 private:
  struct PeerState {
    double srtt_us = 0.0;
    double rttvar_us = 0.0;
    bool has_sample = false;
    TimePoint last_update;        // last outcome of any kind
    TimePoint last_ok;
    bool ever_ok = false;
    int consecutive_failures = 0;
    BreakerState state = BreakerState::kClosed;
    TimePoint opened_at;
  };

  PeerState& StateFor(HostId peer) { return peers_[peer]; }
  const PeerState* Find(HostId peer) const;
  // Applies the lazy open → half-open transition.
  void Tick(PeerState& peer);
  // srtt + max(4·rttvar, 5 ms) in microseconds; 0 without a sample.
  double RtoUs(const PeerState& peer) const;

  Simulator* sim_;
  std::string owner_;
  std::map<HostId, PeerState> peers_;
  std::set<HostId> peers_with_metrics_;

  uint64_t outcomes_recorded_ = 0;
  uint64_t failures_recorded_ = 0;
  uint64_t breaker_opens_ = 0;
  uint64_t breaker_closes_ = 0;
  uint64_t breaker_trials_ = 0;
};

}  // namespace wvote

#endif  // WVOTE_SRC_CORE_HEALTH_H_
