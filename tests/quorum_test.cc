// Quorum planner: strategy orderings plus the optimality property of greedy
// selection for the max-latency objective, checked against brute force over
// randomized configurations.

#include "src/core/quorum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>

#include "src/analysis/gifford_examples.h"
#include "src/chaos/runner.h"
#include "src/sim/random.h"

namespace wvote {
namespace {

SuiteConfig MakeConfig(std::vector<std::pair<std::string, int>> reps, int r, int w) {
  SuiteConfig cfg;
  cfg.suite_name = "q";
  for (auto& [name, votes] : reps) {
    cfg.AddRepresentative(name, votes);
  }
  cfg.read_quorum = r;
  cfg.write_quorum = w;
  return cfg;
}

// Link lookup over a fixed latency table; host ids follow the table's
// (sorted) name order.
HostLinkFn LatencyMap(std::map<std::string, Duration> latencies) {
  std::map<std::string, HostLink> links;
  HostId next = 0;
  for (const auto& [name, latency] : latencies) {
    links[name] = HostLink{next++, latency};
  }
  return [links](const std::string& name) { return links.at(name); };
}

TEST(QuorumPlannerTest, LowestLatencyOrdersByLatency) {
  SuiteConfig cfg = MakeConfig({{"slow", 1}, {"fast", 1}, {"mid", 1}}, 2, 2);
  QuorumPlanner planner(cfg, LatencyMap({{"slow", Duration::Millis(100)},
                                         {"fast", Duration::Millis(1)},
                                         {"mid", Duration::Millis(50)}}));
  auto plan = planner.Plan(2, QuorumStrategy::kLowestLatency);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].host_name, "fast");
  EXPECT_EQ(plan[1].host_name, "mid");
  EXPECT_EQ(plan[2].host_name, "slow");
  // Host ids are resolved when the plan is built.
  EXPECT_EQ(plan[0].host, 0);
  EXPECT_EQ(plan[1].host, 1);
  EXPECT_EQ(plan[2].host, 2);
}

TEST(QuorumPlannerTest, FewestMessagesOrdersByVotes) {
  SuiteConfig cfg = MakeConfig({{"small", 1}, {"big", 3}, {"mid", 2}}, 3, 4);
  QuorumPlanner planner(cfg, LatencyMap({{"small", Duration::Millis(1)},
                                         {"big", Duration::Millis(100)},
                                         {"mid", Duration::Millis(50)}}));
  auto plan = planner.Plan(3, QuorumStrategy::kFewestMessages);
  EXPECT_EQ(plan[0].host_name, "big");
  EXPECT_EQ(plan[1].host_name, "mid");
  EXPECT_EQ(plan[2].host_name, "small");
}

TEST(QuorumPlannerTest, WeakRepresentativesExcluded) {
  SuiteConfig cfg;
  cfg.suite_name = "q";
  cfg.AddRepresentative("voter", 1);
  cfg.AddWeakRepresentative("cache");
  cfg.read_quorum = 1;
  cfg.write_quorum = 1;
  QuorumPlanner planner(cfg, LatencyMap({{"voter", Duration::Millis(10)},
                                         {"cache", Duration::Millis(1)}}));
  auto plan = planner.Plan(1, QuorumStrategy::kBroadcast);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].host_name, "voter");
}

TEST(QuorumPlannerTest, LatencyTiesBrokenByVotes) {
  SuiteConfig cfg = MakeConfig({{"one", 1}, {"three", 3}}, 2, 3);
  QuorumPlanner planner(cfg, LatencyMap({{"one", Duration::Millis(5)},
                                         {"three", Duration::Millis(5)}}));
  auto plan = planner.Plan(2, QuorumStrategy::kLowestLatency);
  EXPECT_EQ(plan[0].host_name, "three");  // more votes per probe first
}

// A gather's first round: the primaries' count and their slowest expected
// latency.
std::pair<size_t, Duration> FirstRound(const std::vector<QuorumCandidate>& plan, int required) {
  GatherMachine machine;
  machine.Start(plan, {}, {}, required, /*broadcast=*/false, /*hedge=*/false);
  EXPECT_TRUE(machine.NextRound());
  Duration slowest = Duration::Zero();
  for (const GatherProbe& probe : machine.round()) {
    slowest = std::max(slowest, machine.At(probe.primary).expected_latency);
  }
  return {machine.round().size(), slowest};
}

TEST(QuorumPlannerTest, FirstRoundIsTheMinimalPrefix) {
  SuiteConfig cfg = MakeConfig({{"a", 2}, {"b", 1}, {"c", 1}}, 3, 3);
  QuorumPlanner planner(cfg, LatencyMap({{"a", Duration::Millis(1)},
                                         {"b", Duration::Millis(2)},
                                         {"c", Duration::Millis(3)}}));
  auto plan = planner.Plan(3, QuorumStrategy::kLowestLatency);
  EXPECT_EQ(FirstRound(plan, 1).first, 1u);
  EXPECT_EQ(FirstRound(plan, 3).first, 2u);
  EXPECT_EQ(FirstRound(plan, 4).first, 3u);
  EXPECT_EQ(FirstRound(plan, 5).first, 3u);  // unreachable: every candidate
  EXPECT_EQ(FirstRound(plan, 3).second, Duration::Millis(2));
}

// Property: for the max-latency objective, the greedy (ascending latency)
// prefix a gather's first round probes is optimal — no subset of
// representatives with enough votes has a smaller maximum latency.
// Brute-forced over random configurations.
class GreedyOptimality : public ::testing::TestWithParam<int> {};

TEST_P(GreedyOptimality, GreedyPrefixMatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 50; ++trial) {
    const int n = static_cast<int>(rng.NextInRange(1, 10));
    SuiteConfig cfg;
    cfg.suite_name = "q";
    std::map<std::string, Duration> latencies;
    int total_votes = 0;
    for (int i = 0; i < n; ++i) {
      const std::string name = "r" + std::to_string(i);
      const int votes = static_cast<int>(rng.NextInRange(1, 4));
      cfg.AddRepresentative(name, votes);
      latencies[name] = Duration::Micros(rng.NextInRange(1, 1000));
      total_votes += votes;
    }
    const int required = static_cast<int>(rng.NextInRange(1, total_votes));
    cfg.read_quorum = 1;  // validation not exercised here
    cfg.write_quorum = total_votes;

    QuorumPlanner planner(cfg, LatencyMap(latencies));
    auto plan = planner.Plan(required, QuorumStrategy::kLowestLatency);
    const Duration greedy = FirstRound(plan, required).second;

    // Brute force: minimum over all subsets with enough votes of the
    // subset's max latency.
    Duration best = Duration::Infinite();
    for (uint32_t mask = 1; mask < (1u << n); ++mask) {
      int votes = 0;
      Duration worst = Duration::Zero();
      for (int i = 0; i < n; ++i) {
        if (mask & (1u << i)) {
          votes += cfg.representatives[static_cast<size_t>(i)].votes;
          worst = std::max(worst,
                           latencies["r" + std::to_string(i)]);
        }
      }
      if (votes >= required) {
        best = std::min(best, worst);
      }
    }
    EXPECT_EQ(greedy, best) << "trial " << trial << " n=" << n << " required=" << required;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyOptimality, ::testing::Range(1, 9));

TEST(QuorumStrategyTest, NamesAreStable) {
  EXPECT_STREQ(QuorumStrategyName(QuorumStrategy::kLowestLatency), "lowest-latency");
  EXPECT_STREQ(QuorumStrategyName(QuorumStrategy::kFewestMessages), "fewest-messages");
  EXPECT_STREQ(QuorumStrategyName(QuorumStrategy::kBroadcast), "broadcast");
}

TEST(PlanCacheTest, ReusesPlanForSameConfigAndStrategy) {
  SuiteConfig cfg = MakeConfig({{"a", 1}, {"b", 1}, {"c", 1}}, 2, 2);
  cfg.config_version = 1;
  uint64_t builds = 0;
  PlanCache cache(LatencyMap({{"a", Duration::Millis(3)},
                              {"b", Duration::Millis(1)},
                              {"c", Duration::Millis(2)}}),
                  &builds);
  auto p1 = cache.Get(cfg, QuorumStrategy::kLowestLatency);
  auto p2 = cache.Get(cfg, QuorumStrategy::kLowestLatency);
  EXPECT_EQ(p1.get(), p2.get());  // same shared plan, not a rebuild
  EXPECT_EQ(builds, 1u);
  ASSERT_EQ(p1->order.size(), 3u);
  EXPECT_EQ(p1->order[0].host_name, "b");
  EXPECT_FALSE(p1->probabilistic());
}

TEST(PlanCacheTest, StrategiesAreCachedIndependently) {
  SuiteConfig cfg = MakeConfig({{"a", 2}, {"b", 1}}, 2, 2);
  cfg.config_version = 1;
  uint64_t builds = 0;
  PlanCache cache(LatencyMap({{"a", Duration::Millis(9)}, {"b", Duration::Millis(1)}}),
                  &builds);
  auto latency = cache.Get(cfg, QuorumStrategy::kLowestLatency);
  auto votes = cache.Get(cfg, QuorumStrategy::kFewestMessages);
  EXPECT_EQ(builds, 2u);
  EXPECT_EQ(latency->order[0].host_name, "b");
  EXPECT_EQ(votes->order[0].host_name, "a");
  cache.Get(cfg, QuorumStrategy::kLowestLatency);
  cache.Get(cfg, QuorumStrategy::kFewestMessages);
  EXPECT_EQ(builds, 2u);  // both still cached
}

TEST(PlanCacheTest, ConfigVersionChangeInvalidates) {
  SuiteConfig cfg = MakeConfig({{"a", 1}, {"b", 1}}, 1, 2);
  cfg.config_version = 1;
  SuiteConfig next = MakeConfig({{"a", 1}, {"b", 1}, {"c", 1}}, 2, 2);
  next.config_version = 2;

  uint64_t builds = 0;
  PlanCache cache(LatencyMap({{"a", Duration::Millis(1)},
                              {"b", Duration::Millis(2)},
                              {"c", Duration::Millis(3)}}),
                  &builds);
  auto old_plan = cache.Get(cfg, QuorumStrategy::kLowestLatency);
  EXPECT_EQ(builds, 1u);
  // A new config version rebuilds...
  auto new_plan = cache.Get(next, QuorumStrategy::kLowestLatency);
  EXPECT_EQ(builds, 2u);
  EXPECT_EQ(new_plan->order.size(), 3u);
  // ...and stays cached under that version.
  cache.Get(next, QuorumStrategy::kLowestLatency);
  EXPECT_EQ(builds, 2u);
  // The old shared plan stays valid for holders that outlive the
  // invalidation (a gather suspended mid-flight).
  EXPECT_EQ(old_plan->order.size(), 2u);
}

TEST(PlanCacheTest, ProbabilisticPoliciesCarryDistributions) {
  SuiteConfig cfg = MakeConfig({{"a", 2}, {"b", 1}, {"c", 1}, {"d", 1}}, 2, 4);
  cfg.config_version = 1;
  PlanCache cache(LatencyMap({{"a", Duration::Millis(1)},
                              {"b", Duration::Millis(2)},
                              {"c", Duration::Millis(3)},
                              {"d", Duration::Millis(4)}}));
  auto strategy = cache.Get(cfg, QuorumStrategy::kLoadOptimal);
  ASSERT_TRUE(strategy->probabilistic());
  const QuorumDistribution* read = strategy->DistributionFor(cfg.read_quorum);
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->target_votes, 2);
  EXPECT_EQ(read->quorums.size(), 4u);  // {a}, {b,c}, {b,d}, {c,d}
  EXPECT_LE(read->max_share, 0.35);     // the load-optimal acceptance bound
  const QuorumDistribution* write = strategy->DistributionFor(cfg.write_quorum);
  ASSERT_NE(write, nullptr);
  EXPECT_EQ(write->target_votes, 4);

  // Deterministic policies share the cache but carry no distribution.
  auto det = cache.Get(cfg, QuorumStrategy::kLowestLatency);
  EXPECT_FALSE(det->probabilistic());
  EXPECT_EQ(det->DistributionFor(cfg.read_quorum), nullptr);
}

TEST(ProbingStrategyTest, SamplingIsSeedDeterministic) {
  SuiteConfig cfg = MakeConfig({{"a", 2}, {"b", 1}, {"c", 1}, {"d", 1}}, 2, 4);
  cfg.config_version = 1;
  PlanCache cache(LatencyMap({{"a", Duration::Millis(1)},
                              {"b", Duration::Millis(2)},
                              {"c", Duration::Millis(3)},
                              {"d", Duration::Millis(4)}}));
  auto strategy = cache.Get(cfg, QuorumStrategy::kLoadOptimal);
  ASSERT_TRUE(strategy->probabilistic());

  Rng rng_a(1234);
  Rng rng_b(1234);
  bool saw_non_prefix = false;
  for (int i = 0; i < 200; ++i) {
    std::vector<uint16_t> sa = strategy->SampleOrder(cfg.read_quorum, &rng_a);
    std::vector<uint16_t> sb = strategy->SampleOrder(cfg.read_quorum, &rng_b);
    // Same seed, same draw index -> identical probe order: chaos replays
    // of probabilistic strategies stay bit-exact.
    EXPECT_EQ(sa, sb);
    // Every sample is a permutation of the full candidate list (widening
    // fallbacks keep availability identical to deterministic probing).
    std::vector<uint16_t> sorted = sa;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<uint16_t>{0, 1, 2, 3}));
    // The sampled prefix really is a quorum.
    int votes = 0;
    for (uint16_t idx : sa) {
      if (votes >= cfg.read_quorum) {
        break;
      }
      votes += strategy->order[idx].votes;
    }
    EXPECT_GE(votes, cfg.read_quorum);
    if (sa[0] != 0) {
      saw_non_prefix = true;
    }
  }
  // The distribution actually spreads probes (pi_{a} ~= 0.4, so ~60% of
  // draws start elsewhere; 200 draws without one is ~1e-80).
  EXPECT_TRUE(saw_non_prefix);

  // Deterministic policies consume no randomness and return no sample.
  auto det = cache.Get(cfg, QuorumStrategy::kLowestLatency);
  Rng rng_c(99);
  const uint64_t before = rng_c.NextUint64();
  Rng rng_d(99);
  (void)rng_d.NextUint64();
  EXPECT_TRUE(det->SampleOrder(cfg.read_quorum, &rng_d).empty());
  Rng rng_e(99);
  (void)rng_e.NextUint64();
  EXPECT_EQ(rng_d.NextUint64(), rng_e.NextUint64());
  (void)before;
}

// ProbeOrder is pure: plan size, sampled order and health view in, probe
// positions out.

std::vector<ProbeHealth> Health(std::vector<std::pair<int, bool>> latency_ms_demoted) {
  std::vector<ProbeHealth> out;
  for (const auto& [ms, demoted] : latency_ms_demoted) {
    out.push_back(ProbeHealth{Duration::Millis(ms), demoted});
  }
  return out;
}

bool IsPermutation(const std::vector<uint16_t>& order, size_t n) {
  std::vector<uint16_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] != i) {
      return false;
    }
  }
  return sorted.size() == n;
}

TEST(ProbeOrderTest, IdentityWithoutSampleOrHealth) {
  EXPECT_EQ(ProbeOrder(4, {}, {}), (std::vector<uint16_t>{0, 1, 2, 3}));
  EXPECT_TRUE(ProbeOrder(0, {}, {}).empty());
}

TEST(ProbeOrderTest, SampledOrderPassesThroughWithoutHealth) {
  EXPECT_EQ(ProbeOrder(4, {2, 0, 3, 1}, {}), (std::vector<uint16_t>{2, 0, 3, 1}));
}

TEST(ProbeOrderTest, DeterministicOrderReranksByEffectiveLatencyStably) {
  // Plan indices 1 and 3 tie at 5 ms and keep their plan order; so do 0
  // and 2 at 20 ms.
  const auto health = Health({{20, false}, {5, false}, {20, false}, {5, false}});
  EXPECT_EQ(ProbeOrder(4, {}, health), (std::vector<uint16_t>{1, 3, 0, 2}));
}

TEST(ProbeOrderTest, SampledOrderIsNotRerankedButDemotedMembersMoveBack) {
  // Latencies would reverse the order if it were re-ranked; only the
  // demoted member (plan index 0) moves, to the back.
  const auto health = Health({{40, true}, {30, false}, {20, false}, {10, false}});
  EXPECT_EQ(ProbeOrder(4, {0, 1, 2, 3}, health), (std::vector<uint16_t>{1, 2, 3, 0}));
  EXPECT_EQ(ProbeOrder(4, {2, 0, 1, 3}, health), (std::vector<uint16_t>{2, 1, 3, 0}));
}

TEST(ProbeOrderTest, DemotionAppliesAfterReranking) {
  // Fastest host demoted: it leaves the front but stays probed last.
  const auto health = Health({{10, false}, {1, true}, {5, false}});
  EXPECT_EQ(ProbeOrder(3, {}, health), (std::vector<uint16_t>{2, 0, 1}));
}

TEST(ProbeOrderTest, AllDemotedKeepsEveryHostInOrder) {
  const auto health = Health({{30, true}, {10, true}, {20, true}});
  EXPECT_EQ(ProbeOrder(3, {}, health), (std::vector<uint16_t>{1, 2, 0}));
  EXPECT_EQ(ProbeOrder(3, {2, 0, 1}, health), (std::vector<uint16_t>{2, 0, 1}));
}

TEST(ProbeOrderTest, AlwaysAPermutation) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng.NextUint64() % 9;
    std::vector<uint16_t> sampled;
    if (rng.NextUint64() % 2 == 0) {
      for (size_t i = 0; i < n; ++i) {
        sampled.push_back(static_cast<uint16_t>(i));
      }
      for (size_t i = n; i > 1; --i) {
        std::swap(sampled[i - 1], sampled[rng.NextUint64() % i]);
      }
    }
    std::vector<ProbeHealth> health;
    if (rng.NextUint64() % 3 != 0) {
      for (size_t i = 0; i < n; ++i) {
        health.push_back(ProbeHealth{Duration::Millis(static_cast<int64_t>(rng.NextUint64() % 4)),
                                     rng.NextUint64() % 3 == 0});
      }
    }
    const std::vector<uint16_t> order = ProbeOrder(n, sampled, health);
    EXPECT_TRUE(IsPermutation(order, n)) << "trial " << trial;
    if (!health.empty()) {
      // Every healthy host precedes every demoted one.
      bool seen_demoted = false;
      for (uint16_t idx : order) {
        seen_demoted = seen_demoted || health[idx].demoted;
        EXPECT_TRUE(!seen_demoted || health[idx].demoted) << "trial " << trial;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// GatherMachine
// ---------------------------------------------------------------------------

// A plan whose host ids are the plan indices and whose latencies ascend.
std::vector<QuorumCandidate> PlanOfVotes(const std::vector<int>& votes) {
  std::vector<QuorumCandidate> plan;
  for (size_t i = 0; i < votes.size(); ++i) {
    plan.push_back(QuorumCandidate("h" + std::to_string(i), static_cast<HostId>(i), votes[i],
                                   Duration::Millis(static_cast<int64_t>(i) + 1)));
  }
  return plan;
}

// What the exhaustive walk knows independently of the machine.
struct GatherReference {
  int required = 0;
  bool broadcast = false;
  bool hedge = false;
  std::vector<int> votes_of;             // by host id
  std::set<HostId> credited;             // hosts whose OK reply counted
  std::set<HostId> primaries;            // hosts probed as a round primary
  std::set<HostId> won_backups;          // hosts whose backup reply won
  bool conflict = false;

  int Votes() const {
    int sum = 0;
    for (HostId h : credited) {
      sum += votes_of[static_cast<size_t>(h)];
    }
    return sum;
  }
};

struct GatherWalk {
  size_t gathers = 0;  // complete gathers explored
  size_t closed = 0;
  size_t conflicted = 0;
  size_t unavailable = 0;
  size_t backup_wins = 0;
};

void ExploreRound(GatherMachine machine, GatherReference ref, GatherWalk* walk);

// Every order in which the round's `pending` probes can answer, each with
// every outcome: the primary's OK reply, the backup's (if it has one), a
// timeout, or a wait-die conflict. The join returns once Closed() holds.
void ExploreReplies(const GatherMachine& machine, const GatherReference& ref,
                    std::vector<size_t> pending, GatherWalk* walk) {
  if (machine.Closed() || pending.empty()) {
    ExploreRound(machine, ref, walk);
    return;
  }
  for (size_t k = 0; k < pending.size(); ++k) {
    const GatherProbe probe = machine.round()[pending[k]];
    std::vector<size_t> rest = pending;
    rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(k));
    for (int kind = 0; kind < 4; ++kind) {
      const bool backup_reply = kind == 1;
      if (backup_reply && probe.backup == GatherMachine::kNoBackup) {
        continue;
      }
      GatherMachine next = machine;
      GatherReference next_ref = ref;
      if (kind <= 1) {
        const QuorumCandidate& who = machine.At(backup_reply ? probe.backup : probe.primary);
        ASSERT_EQ(next_ref.credited.count(who.host), 0u) << "a host answered twice";
        next_ref.credited.insert(who.host);
        if (backup_reply) {
          next_ref.won_backups.insert(who.host);
          ++walk->backup_wins;
        }
        next.Credit(who.host, StatusCode::kOk);
        EXPECT_EQ(next.Responder(who.host).host, who.host);
        // Each host's votes count once, even if its reply were delivered
        // twice or both copies of a hedged probe answered.
        GatherMachine again = next;
        again.Credit(who.host, StatusCode::kOk);
        EXPECT_EQ(again.votes(), next.votes());
        if (probe.backup != GatherMachine::kNoBackup) {
          again.Credit(machine.At(backup_reply ? probe.primary : probe.backup).host,
                       StatusCode::kOk);
          EXPECT_EQ(again.votes(), next.votes());
        }
      } else if (kind == 2) {
        next.Credit(kInvalidHost, StatusCode::kTimeout);
      } else {
        next_ref.conflict = true;
        next.Credit(machine.At(probe.primary).host, StatusCode::kConflict);
      }
      ASSERT_EQ(next.votes(), next_ref.Votes());
      // Closes exactly when the credited votes reach the quorum.
      ASSERT_EQ(next.Closed(), next_ref.Votes() >= next_ref.required);
      ASSERT_EQ(next.conflicted(), next_ref.conflict);
      ExploreReplies(next, next_ref, rest, walk);
    }
  }
}

void ExploreRound(GatherMachine machine, GatherReference ref, GatherWalk* walk) {
  const int before = machine.rounds();
  if (!machine.NextRound()) {
    ++walk->gathers;
    EXPECT_EQ(machine.rounds(), before);
    if (ref.conflict) {
      // A conflict ends the gather.
      EXPECT_TRUE(machine.conflicted());
      ++walk->conflicted;
    } else if (ref.Votes() >= ref.required) {
      EXPECT_TRUE(machine.Closed());
      ++walk->closed;
    } else {
      // Unavailable only once every candidate was probed.
      ++walk->unavailable;
      for (size_t h = 0; h < ref.votes_of.size(); ++h) {
        const auto host = static_cast<HostId>(h);
        EXPECT_TRUE(ref.primaries.count(host) != 0 || ref.won_backups.count(host) != 0)
            << "host " << h << " was never probed";
      }
    }
    return;
  }
  // The machine stops as soon as the quorum closes or a conflict lands.
  ASSERT_FALSE(machine.Closed());
  ASSERT_FALSE(ref.conflict);
  EXPECT_EQ(machine.rounds(), before + 1);

  const std::vector<GatherProbe>& round = machine.round();
  ASSERT_FALSE(round.empty());
  std::set<HostId> in_round;
  int planned = machine.votes();
  for (size_t i = 0; i < round.size(); ++i) {
    const HostId primary = machine.At(round[i].primary).host;
    // Neither an earlier primary nor a winning backup is probed again.
    EXPECT_EQ(ref.primaries.count(primary), 0u);
    EXPECT_EQ(ref.won_backups.count(primary), 0u);
    EXPECT_TRUE(in_round.insert(primary).second);
    // Without broadcast a round stops adding primaries once their votes
    // would close the gap.
    EXPECT_TRUE(ref.broadcast || planned < ref.required);
    planned += machine.At(round[i].primary).votes;
  }
  for (const GatherProbe& probe : round) {
    EXPECT_TRUE(ref.hedge || probe.backup == GatherMachine::kNoBackup);
    if (probe.backup != GatherMachine::kNoBackup) {
      const HostId backup = machine.At(probe.backup).host;
      EXPECT_EQ(ref.won_backups.count(backup), 0u);
      EXPECT_EQ(ref.primaries.count(backup), 0u);
      EXPECT_TRUE(in_round.insert(backup).second) << "backup doubles as another probe";
    }
  }
  for (const GatherProbe& probe : round) {
    ref.primaries.insert(machine.At(probe.primary).host);
  }
  std::vector<size_t> pending(round.size());
  for (size_t i = 0; i < pending.size(); ++i) {
    pending[i] = i;
  }
  ExploreReplies(machine, ref, pending, walk);
}

// Every reply order and every success/timeout/conflict pattern, over
// Gifford's three examples and the four chaos suites, for read and write
// quorums, hedged or not, broadcast or not, in plan order and reversed.
TEST(GatherMachineTest, ExhaustiveOverReplyOrdersAndOutcomes) {
  const auto started = std::chrono::steady_clock::now();
  struct Suite {
    std::string name;
    std::vector<int> votes;
    int r;
    int w;
  };
  std::vector<Suite> suites;
  for (const GiffordExample& ex : MakeGiffordExamples()) {
    Suite suite{ex.name, {}, ex.model.read_quorum, ex.model.write_quorum};
    for (const RepModel& rep : ex.model.reps) {
      suite.votes.push_back(rep.votes);
    }
    suites.push_back(suite);
  }
  for (const ChaosSuiteSpec& spec : DefaultSuiteSpecs()) {
    suites.push_back(Suite{spec.name, spec.votes, spec.read_quorum, spec.write_quorum});
  }
  ASSERT_EQ(suites.size(), 7u);

  GatherWalk walk;
  for (const Suite& suite : suites) {
    const std::vector<QuorumCandidate> plan = PlanOfVotes(suite.votes);
    std::vector<uint16_t> reversed;
    for (size_t i = plan.size(); i > 0; --i) {
      reversed.push_back(static_cast<uint16_t>(i - 1));
    }
    for (int required : {suite.r, suite.w}) {
      for (bool hedge : {false, true}) {
        for (bool broadcast : {false, true}) {
          for (bool reverse : {false, true}) {
            SCOPED_TRACE(suite.name + " q=" + std::to_string(required) +
                         (hedge ? " hedged" : "") + (broadcast ? " broadcast" : "") +
                         (reverse ? " reversed" : ""));
            GatherMachine machine;
            machine.Start(plan, reverse ? reversed : std::vector<uint16_t>{}, {}, required,
                          broadcast, hedge);
            GatherReference ref;
            ref.required = required;
            ref.broadcast = broadcast;
            ref.hedge = hedge;
            ref.votes_of = suite.votes;
            ExploreRound(machine, ref, &walk);
          }
        }
      }
    }
  }
  EXPECT_GT(walk.closed, 0u);
  EXPECT_GT(walk.conflicted, 0u);
  EXPECT_GT(walk.unavailable, 0u);
  EXPECT_GT(walk.backup_wins, 0u);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  std::printf("explored %zu gathers (%zu closed, %zu conflicted, %zu unavailable) in %.2f s\n",
              walk.gathers, walk.closed, walk.conflicted, walk.unavailable, seconds);
}

}  // namespace
}  // namespace wvote
