// HealthTracker: SRTT/RTTVAR estimation, hedge delays,
// circuit breakers, latency demotion, and the staleness-forgiveness rules
// that let a healed host win its rank back.

#include "src/core/health.h"

#include <gtest/gtest.h>

#include "src/sim/simulator.h"

namespace wvote {
namespace {

constexpr HostId kPeer = 7;

class HealthTest : public ::testing::Test {
 protected:
  HealthTest() : sim_(1), health_(&sim_, "client") {}

  void Ok(Duration elapsed) { health_.OnRpcOutcome(kPeer, elapsed, true); }
  void Fail(Duration elapsed = Duration::Millis(500)) {
    health_.OnRpcOutcome(kPeer, elapsed, false);
  }

  Simulator sim_;
  HealthTracker health_;
};

TEST_F(HealthTest, NoSampleUsesFallbacks) {
  const Duration fallback = Duration::Millis(300);
  EXPECT_EQ(health_.HedgeDelay(kPeer, fallback), fallback / 2);
  EXPECT_EQ(health_.EffectiveLatency(kPeer, Duration::Millis(10)), Duration::Millis(10));
  EXPECT_EQ(health_.Suspicion(kPeer), 0.0);
  EXPECT_FALSE(health_.HasSample(kPeer));
  EXPECT_FALSE(health_.LatencyDemoted(kPeer, Duration::Millis(10)));
}

TEST_F(HealthTest, FirstSampleSeedsEstimator) {
  Ok(Duration::Millis(10));
  EXPECT_EQ(health_.Srtt(kPeer), Duration::Millis(10));
}

TEST_F(HealthTest, KarnFailuresContributeNoSample) {
  Ok(Duration::Millis(10));
  const Duration before = health_.Srtt(kPeer);
  Fail(Duration::Millis(500));  // elapsed here is the caller's timeout, not the peer
  Fail(Duration::Millis(500));
  EXPECT_EQ(health_.Srtt(kPeer), before);
  EXPECT_EQ(health_.ConsecutiveFailures(kPeer), 2);
}

TEST_F(HealthTest, BreakerLifecycle) {
  Ok(Duration::Millis(10));
  Fail();
  Fail();
  EXPECT_EQ(health_.breaker(kPeer), BreakerState::kClosed);
  Fail();  // third consecutive failure opens it
  EXPECT_EQ(health_.breaker(kPeer), BreakerState::kOpen);
  EXPECT_TRUE(health_.ShouldDemote(kPeer));
  EXPECT_EQ(health_.breaker_opens(), 1u);

  // Cooldown expiry admits trial traffic; half-open peers are NOT demoted —
  // reaching them is exactly how the trial happens.
  sim_.RunFor(HealthTracker::kBreakerCooldown + Duration::Millis(1));
  EXPECT_EQ(health_.breaker(kPeer), BreakerState::kHalfOpen);
  EXPECT_FALSE(health_.ShouldDemote(kPeer));

  // A failed trial reopens for another cooldown.
  Fail();
  EXPECT_EQ(health_.breaker(kPeer), BreakerState::kOpen);
  EXPECT_EQ(health_.breaker_opens(), 2u);

  sim_.RunFor(HealthTracker::kBreakerCooldown + Duration::Millis(1));
  EXPECT_EQ(health_.breaker(kPeer), BreakerState::kHalfOpen);
  Ok(Duration::Millis(10));
  EXPECT_EQ(health_.breaker(kPeer), BreakerState::kClosed);
  EXPECT_EQ(health_.breaker_closes(), 1u);
}

TEST_F(HealthTest, EstimatorReseedsAfterIdleGap) {
  // A host that answered at gray-era 40ms, then went unobserved past the
  // staleness window, re-seeds from the next sample in ONE probe instead of
  // crawling down by EWMA over dozens.
  Ok(Duration::Millis(40));
  EXPECT_EQ(health_.Srtt(kPeer), Duration::Millis(40));
  sim_.RunFor(HealthTracker::kSampleStaleness + Duration::Seconds(1));
  Ok(Duration::Millis(5));
  EXPECT_EQ(health_.Srtt(kPeer), Duration::Millis(5));
}

TEST_F(HealthTest, LatencyDemotionCatchesTheGraySignature) {
  // 40ms observed against a 4ms provisioned link: alive, voting, far too
  // slow — demoted. Against a 20ms link the same srtt is within the 4x
  // inflation allowance.
  Ok(Duration::Millis(40));
  EXPECT_TRUE(health_.LatencyDemoted(kPeer, Duration::Millis(4)));
  EXPECT_FALSE(health_.LatencyDemoted(kPeer, Duration::Millis(20)));
}

TEST_F(HealthTest, LatencyDemotionFloorProtectsColocatedPeers) {
  // A colocated peer (zero provisioned cost) must not be demoted over
  // sub-millisecond scheduling noise.
  Ok(Duration::Micros(500));
  EXPECT_FALSE(health_.LatencyDemoted(kPeer, Duration::Zero()));
  Ok(Duration::Millis(2));
  Ok(Duration::Millis(2));
  // srtt is still below 2ms (EWMA from 0.5ms) — push it past the 1ms floor.
  for (int i = 0; i < 20; ++i) {
    Ok(Duration::Millis(2));
  }
  EXPECT_TRUE(health_.LatencyDemoted(kPeer, Duration::Zero()));
}

TEST_F(HealthTest, StaleObservationsAreForgiven) {
  Ok(Duration::Millis(40));
  EXPECT_EQ(health_.EffectiveLatency(kPeer, Duration::Millis(4)), Duration::Millis(40));
  EXPECT_TRUE(health_.LatencyDemoted(kPeer, Duration::Millis(4)));
  sim_.RunFor(HealthTracker::kSampleStaleness + Duration::Seconds(1));
  // Unprobed long enough: the provisioned cost wins again, so the planner
  // will try the host and discover whether it healed.
  EXPECT_EQ(health_.EffectiveLatency(kPeer, Duration::Millis(4)), Duration::Millis(4));
  EXPECT_FALSE(health_.LatencyDemoted(kPeer, Duration::Millis(4)));
}

TEST_F(HealthTest, EffectiveLatencyNeverUndercutsProvisioned) {
  Ok(Duration::Millis(5));
  // A fast observation cannot promote a host above its provisioned cost —
  // only degradation steers.
  EXPECT_EQ(health_.EffectiveLatency(kPeer, Duration::Millis(10)), Duration::Millis(10));
}

TEST_F(HealthTest, SuspicionAccruesWithTimeSinceLastSuccess) {
  Ok(Duration::Millis(10));
  EXPECT_EQ(health_.Suspicion(kPeer), 0.0);
  Fail();
  const double early = health_.Suspicion(kPeer);
  EXPECT_GT(early, 0.0);
  sim_.RunFor(Duration::Seconds(1));
  EXPECT_GT(health_.Suspicion(kPeer), early);
  Ok(Duration::Millis(10));
  EXPECT_EQ(health_.Suspicion(kPeer), 0.0);
}

TEST_F(HealthTest, HedgeDelaySitsAboveSrttAndBelowHalfTimeout) {
  for (int i = 0; i < 200; ++i) {
    Ok(Duration::Millis(10));
  }
  const Duration fallback = Duration::Millis(300);
  const Duration delay = health_.HedgeDelay(kPeer, fallback);
  // Margin keeps the delay strictly above a converged srtt so an on-time
  // reply never races its own hedge timer.
  EXPECT_GE(delay, health_.Srtt(kPeer) + Duration::Millis(2));
  EXPECT_LE(delay, fallback / 2);
  // And a tiny fallback clamps to half of itself.
  EXPECT_EQ(health_.HedgeDelay(kPeer, Duration::Millis(8)), Duration::Millis(4));
}

}  // namespace
}  // namespace wvote
