// Strategy solver: minimal-quorum enumeration and uniform vs load-optimal
// distributions — checked on the small vote assignments the repo actually
// deploys, including the read-path bench topology whose optimal max probe
// share is known in closed form.

#include "src/core/strategy_solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace wvote {
namespace {

std::set<std::set<int>> AsSets(const std::vector<StrategyQuorum>& quorums) {
  std::set<std::set<int>> out;
  for (const StrategyQuorum& q : quorums) {
    out.insert(std::set<int>(q.members.begin(), q.members.end()));
  }
  return out;
}

TEST(EnumerateMinimalQuorumsTest, MajorityOfThree) {
  auto quorums = EnumerateMinimalQuorums({1, 1, 1}, 2);
  EXPECT_EQ(AsSets(quorums), (std::set<std::set<int>>{{0, 1}, {0, 2}, {1, 2}}));
}

TEST(EnumerateMinimalQuorumsTest, WeightedVotesDropSupersets) {
  // The read-path bench topology: votes (2,1,1,1), read quorum 2. Host 0
  // alone is a quorum, so no minimal quorum contains host 0 plus anyone.
  auto quorums = EnumerateMinimalQuorums({2, 1, 1, 1}, 2);
  EXPECT_EQ(AsSets(quorums), (std::set<std::set<int>>{{0}, {1, 2}, {1, 3}, {2, 3}}));
}

TEST(EnumerateMinimalQuorumsTest, UnreachableTargetIsEmpty) {
  EXPECT_TRUE(EnumerateMinimalQuorums({1, 1}, 5).empty());
  EXPECT_TRUE(EnumerateMinimalQuorums({}, 1).empty());
}

TEST(EnumerateMinimalQuorumsTest, MembersMatchMaskAndAreSorted) {
  for (const StrategyQuorum& q : EnumerateMinimalQuorums({3, 2, 2, 1, 1}, 5)) {
    EXPECT_TRUE(std::is_sorted(q.members.begin(), q.members.end()));
    uint32_t mask = 0;
    for (uint16_t m : q.members) {
      mask |= 1u << m;
    }
    EXPECT_EQ(mask, q.mask);
  }
}

TEST(SolveUniformTest, SymmetricSystemIsBalanced) {
  auto quorums = EnumerateMinimalQuorums({1, 1, 1}, 2);
  StrategySolution s = SolveUniform(quorums, 3);
  // Each host is in 2 of 3 quorums: load 2/3 each, share 1/3 each.
  ASSERT_EQ(s.load.size(), 3u);
  for (double l : s.load) {
    EXPECT_NEAR(l, 2.0 / 3.0, 1e-12);
  }
  for (double sh : s.shares) {
    EXPECT_NEAR(sh, 1.0 / 3.0, 1e-12);
  }
  EXPECT_NEAR(s.max_share, 1.0 / 3.0, 1e-12);
}

TEST(SolveLoadOptimalTest, ReadPathTopologyHitsKnownOptimum) {
  // Votes (2,1,1,1), r=2. The minimax strategy puts pi on {0} and (1-pi)/3
  // on each pair; load(0)=pi, load(others)=2(1-pi)/3, equal at pi=2/5.
  // Probe shares: host 0 sends 1 probe, pairs send 2, so share(0) =
  // pi / (2 - pi) = 1/4 at the optimum.
  auto quorums = EnumerateMinimalQuorums({2, 1, 1, 1}, 2);
  StrategySolution s = SolveLoadOptimal(quorums, 4);
  EXPECT_NEAR(s.max_load, 0.4, 1e-3);
  EXPECT_NEAR(s.max_share, 0.25, 1e-3);
  EXPECT_LE(s.max_share, 0.35);  // the PR's acceptance bound, with margin
  double total = 0;
  for (double p : s.probability) {
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(SolveLoadOptimalTest, NeverWorseThanUniform) {
  const std::vector<std::vector<int>> assignments = {
      {1, 1, 1}, {2, 1, 1, 1}, {3, 2, 2, 1, 1}, {1, 1, 1, 1, 1}};
  const std::vector<int> targets = {2, 2, 5, 3};
  for (size_t i = 0; i < assignments.size(); ++i) {
    auto quorums = EnumerateMinimalQuorums(assignments[i], targets[i]);
    ASSERT_FALSE(quorums.empty());
    StrategySolution uniform = SolveUniform(quorums, assignments[i].size());
    StrategySolution optimal = SolveLoadOptimal(quorums, assignments[i].size());
    EXPECT_LE(optimal.max_load, uniform.max_load + 1e-6) << "assignment " << i;
    EXPECT_GE(optimal.max_share, optimal.share_lower_bound - 1e-9);
  }
}

TEST(SolveLoadOptimalTest, MandatoryHostBoundsAreReported) {
  // Votes (3,1,1), target 4: host 0 is in every quorum, so share floor is
  // 1/(widest quorum) and load(0) is 1 no matter the strategy.
  auto quorums = EnumerateMinimalQuorums({3, 1, 1}, 4);
  StrategySolution s = SolveLoadOptimal(quorums, 3);
  EXPECT_NEAR(s.load[0], 1.0, 1e-9);
  EXPECT_GE(s.max_share, s.share_lower_bound - 1e-9);
  EXPECT_GT(s.share_lower_bound, 1.0 / 3.0 - 1e-9);
}

TEST(SolveLoadOptimalTest, TooManyHostsFallsBackEmpty) {
  std::vector<int> votes(kMaxStrategyHosts + 1, 1);
  EXPECT_TRUE(EnumerateMinimalQuorums(votes, 2).empty());
}

}  // namespace
}  // namespace wvote
