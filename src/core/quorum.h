// Quorum planning: which representatives to probe, in what order — and,
// for probabilistic policies, drawn from which distribution.
//
// A gather of q votes completes when the slowest probed representative
// answers, so the latency-optimal quorum takes representatives in ascending
// expected-latency order until their votes sum to q (greedy is optimal for
// the max-latency objective: any quorum must contain >= k members where k is
// the greedy prefix length... see quorum_test.cc for the property check).
//
// Deterministic policies (every operation probes the same preferred prefix):
//   kLowestLatency  — ascending latency (Gifford's "cheapest representatives
//                     first"); minimizes gather completion time.
//   kFewestMessages — descending votes (ties by latency); minimizes probe
//                     count, at a possible latency cost.
//   kBroadcast      — probe everyone; maximizes tolerance of unexpected
//                     failures at maximal message cost.
//
// Probabilistic policy (each operation samples a minimal quorum from a
// precomputed distribution — Whittaker et al.'s "strategies", built by
// src/core/strategy_solver.h):
//   kLoadOptimal    — minimax per-host load; maximizes the fleet's
//                     throughput ceiling.
//
// The planner returns the full preference order; callers probe a prefix and
// extend it when members fail to answer. The probabilistic policy reorders
// so the sampled quorum *is* the prefix and every other representative
// remains as a widening fallback — availability is never worse than
// deterministic probing, only the steady-state distribution changes.

#ifndef WVOTE_SRC_CORE_QUORUM_H_
#define WVOTE_SRC_CORE_QUORUM_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/core/suite_config.h"
#include "src/net/message.h"

namespace wvote {

class Network;
class Rng;

enum class QuorumStrategy {
  kLowestLatency,
  kFewestMessages,
  kBroadcast,
  kLoadOptimal,
};

const char* QuorumStrategyName(QuorumStrategy s);

// Carries a user-declared constructor per the GCC 12 rule in src/sim/task.h
// (QuorumCandidate is passed by value into probe coroutines).
struct QuorumCandidate {
  size_t rep_index = 0;  // index into SuiteConfig::representatives
  std::string host_name;
  HostId host = kInvalidHost;  // resolved once, when the plan is built
  int votes = 0;
  Duration expected_latency;

  QuorumCandidate() = default;
  QuorumCandidate(size_t index, std::string name, HostId id, int v, Duration latency)
      : rep_index(index),
        host_name(std::move(name)),
        host(id),
        votes(v),
        expected_latency(latency) {}
};

// A representative host as one client sees it: its dense host id and the
// expected round-trip cost of probing it.
struct HostLink {
  HostId host = kInvalidHost;
  Duration latency;
};

// Maps a representative's host name to its HostLink; what plans are built
// from.
using HostLinkFn = std::function<HostLink(const std::string&)>;

// Shared host-name -> HostLink lookup. Host names never remap in the
// simulated network, so ids and provisioned latencies memoize for the
// cache's lifetime; observed latency is the health tracker's job. One
// instance per client serves plan building, strategy solving, and the few
// lookups outside a plan, instead of each keeping its own map.
class HostLinkCache {
 public:
  HostLinkCache(Network* net, HostId self) : net_(net), self_(self) {}

  HostId Resolve(const std::string& name);
  HostLink Link(const std::string& name);  // latency is the round trip

 private:
  struct Entry {
    HostId id = kInvalidHost;
    bool have_latency = false;
    Duration latency;
  };

  Network* net_;
  HostId self_;
  std::map<std::string, Entry> entries_;
};

class QuorumPlanner {
 public:
  // `link_of` supplies each representative's host id and the client's
  // expected round-trip cost of probing it.
  QuorumPlanner(const SuiteConfig& config, const HostLinkFn& link_of);

  // Full preference order of voting representatives for a gather needing
  // `required_votes`. Weak representatives are never included. The order
  // depends only on the strategy (required_votes names the caller's goal;
  // callers probe a prefix and widen on failure). Probabilistic policies
  // use the kLowestLatency order as their base (sampling happens in
  // ProbingStrategy, not here).
  std::vector<QuorumCandidate> Plan(int required_votes, QuorumStrategy strategy) const;

  // Length of the shortest prefix of `plan` whose votes reach
  // `required_votes`; 0 if the whole plan falls short.
  static size_t PrefixCount(const std::vector<QuorumCandidate>& plan, int required_votes);

  // Expected completion latency of probing the first `count` entries in
  // parallel (their max expected latency).
  static Duration PrefixLatency(const std::vector<QuorumCandidate>& plan, size_t count);

 private:
  std::vector<QuorumCandidate> voting_;
};

// A precomputed distribution over minimal quorums for one vote target.
// `quorums[i]` lists indices into ProbingStrategy::order, ascending (so
// members are already in latency order); `cumulative` is the sampling CDF.
struct QuorumDistribution {
  int target_votes = 0;
  std::vector<std::vector<uint16_t>> quorums;
  std::vector<double> cumulative;
  std::vector<double> shares;  // expected probe share per order index
  double max_share = 1.0;
  double share_lower_bound = 0.0;

  bool valid() const { return !quorums.empty(); }
};

// What PlanCache hands out: the deterministic preference order plus, for
// probabilistic policies, one distribution per quorum target (read and
// write). Immutable once built; shared ownership keeps it alive for gathers
// suspended across a cache invalidation.
struct ProbingStrategy {
  std::vector<QuorumCandidate> order;
  QuorumDistribution read_dist;
  QuorumDistribution write_dist;

  bool probabilistic() const { return read_dist.valid() || write_dist.valid(); }

  // The distribution whose target matches `required_votes`, else nullptr
  // (deterministic policies; reconfiguration under an old write target).
  const QuorumDistribution* DistributionFor(int required_votes) const;

  // Per-operation probe order as indices into `order`: the sampled quorum's
  // members first (ascending latency), then every remaining candidate as
  // widening fallbacks. Empty when no distribution matches — callers then
  // use `order` unchanged, and `rng` is NOT consumed (deterministic-policy
  // replays stay bit-exact with pre-strategy builds).
  std::vector<uint16_t> SampleOrder(int required_votes, Rng* rng) const;
};

// What the client's health tracker says about one plan candidate.
struct ProbeHealth {
  Duration effective_latency;  // HealthTracker::EffectiveLatency
  bool demoted = false;        // breaker open, or observed latency inflated
};

// The one home of probe-order policy: a gather's probe order as indices into
// its plan. The base order is `sampled` (a ProbingStrategy::SampleOrder
// draw), or the plan order itself when `sampled` is empty. `health` is
// either empty (no health view) or holds one entry per plan index; with it,
//  - a deterministic (unsampled) order is re-ranked by effective latency,
//    ties keeping plan order, so a host whose observed latency has blown
//    past its provisioned cost loses its preferred slot. Sampled orders are
//    never re-ranked: their load-spreading distribution is the point.
//  - demoted candidates move to the back, never out, keeping their relative
//    order: a demoted host is still probed when its votes are required. For
//    a sampled order this renormalizes load over the live hosts: healthy
//    members keep the policy's order and widening fallbacks step into the
//    demoted member's quorum slot.
// The result is always a permutation of 0..plan_size-1.
std::vector<uint16_t> ProbeOrder(size_t plan_size, std::vector<uint16_t> sampled,
                                 const std::vector<ProbeHealth>& health);

// Memoizes ProbingStrategy per (config_version, policy) so a client builds
// its preference order — and, for probabilistic policies, solves its quorum
// distribution — once per configuration instead of once per operation.
// Latencies are sampled when a config version's planner is first built;
// call Invalidate() if link costs change out of band (reconfiguration is
// handled automatically via config_version).
class PlanCache {
 public:
  // `link_of` as in QuorumPlanner. If `build_counter` is non-null it is
  // incremented once per strategy actually built (cache misses only).
  PlanCache(HostLinkFn link_of, uint64_t* build_counter = nullptr);

  // Cached strategy for `config` under `policy`; built on first use and
  // whenever config.config_version changes.
  std::shared_ptr<const ProbingStrategy> Get(const SuiteConfig& config, QuorumStrategy policy);

  // The cached strategy for `policy` if one is built, else nullptr. Never
  // builds — safe for metrics gauges read at snapshot time.
  std::shared_ptr<const ProbingStrategy> Peek(QuorumStrategy policy) const;

  // Drops every cached strategy (and the planner's sampled latencies).
  void Invalidate();

 private:
  static constexpr size_t kNumStrategies = 4;

  HostLinkFn link_of_;
  uint64_t* build_counter_;
  bool have_config_version_ = false;
  uint64_t config_version_ = 0;
  std::shared_ptr<const ProbingStrategy> strategies_[kNumStrategies];
};

}  // namespace wvote

#endif  // WVOTE_SRC_CORE_QUORUM_H_
