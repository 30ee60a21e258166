// Quorum planning: which representatives to probe, in what order — and,
// for probabilistic policies, drawn from which distribution.
//
// A gather of q votes completes when the slowest probed representative
// answers, so the latency-optimal quorum takes representatives in ascending
// expected-latency order until their votes sum to q — a GatherMachine's
// first round (greedy is optimal for the max-latency objective; see
// quorum_test.cc for the property check).
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

#include "src/common/dense_bitset.h"
#include "src/common/status.h"
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
// (QuorumCandidate travels by value inside ProbeReply).
struct QuorumCandidate {
  std::string host_name;
  HostId host = kInvalidHost;  // resolved once, when the plan is built
  int votes = 0;
  Duration expected_latency;

  QuorumCandidate() = default;
  QuorumCandidate(std::string name, HostId id, int v, Duration latency)
      : host_name(std::move(name)),
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

// One probe of a gather round, as probe-order positions: the primary, and
// the hedge backup the same request goes to if the primary is slow
// (GatherMachine::kNoBackup when the round is not hedged). `credited` is set
// once a reply from either of them earned the probe's votes.
struct GatherProbe {
  size_t primary = 0;
  size_t backup = 0;
  bool credited = false;
};

// Gifford's poll as a pure state machine: which representatives each round
// probes, which reply earns which votes, and when the gather stops. A driver
// sends each round's probes, hands every reply to Credit() in completion
// order until Closed() holds or the round's probes are all back, and then
// asks NextRound() for more. The gather ends on one rule: the votes reach
// the quorum, a wait-die conflict was credited, or no unprobed candidate is
// left — so a gather reports unavailable only after probing every candidate.
//
// A round's primaries are the next unprobed candidates in probe order whose
// votes close the gap (every remaining candidate when broadcasting). With
// hedging, each primary gets the next unprobed candidate beyond the round as
// its backup. A backup whose reply wins is credited and never probed again;
// one that loses stays a candidate for later rounds. A probe's votes count
// once, whichever of its two copies answers.
class GatherMachine {
 public:
  static constexpr size_t kNoBackup = static_cast<size_t>(-1);

  // Starts a gather over `plan`, which must outlive it. The probe order is
  // ProbeOrder(plan.size(), sampled, health); the machine recycles its own
  // order buffer when `sampled` is empty.
  void Start(const std::vector<QuorumCandidate>& plan, std::vector<uint16_t> sampled,
             const std::vector<ProbeHealth>& health, int required_votes, bool broadcast,
             bool hedge);

  // Plans the next round into round(); false once the gather is over.
  bool NextRound();
  const std::vector<GatherProbe>& round() const { return round_; }
  const QuorumCandidate& At(size_t position) const { return (*plan_)[order_[position]]; }

  // Credits one reply of the current round: `responder` is the host that
  // answered (a primary or its backup), `code` the reply's status. Only OK
  // replies earn votes; timeouts and crashes earn none.
  void Credit(HostId responder, StatusCode code);
  // The candidate of the current round probed at `host`.
  const QuorumCandidate& Responder(HostId host) const {
    size_t probe = 0;
    return At(PositionOf(host, &probe));
  }

  // The round's closing test: the credited votes reach the quorum.
  bool Closed() const { return votes_ >= required_votes_; }
  bool conflicted() const { return conflicted_; }
  int votes() const { return votes_; }
  int rounds() const { return rounds_; }

 private:
  // The position of the round's candidate at `host`; its probe's index
  // goes to `probe`.
  size_t PositionOf(HostId host, size_t* probe) const;

  const std::vector<QuorumCandidate>* plan_ = nullptr;
  std::vector<uint16_t> order_;
  std::vector<GatherProbe> round_;
  DenseBitset<size_t> won_backups_;  // positions credited as a hedge backup
  size_t next_ = 0;                  // first position no round has taken
  int required_votes_ = 0;
  int votes_ = 0;
  int rounds_ = 0;
  bool broadcast_ = false;
  bool hedge_ = false;
  bool conflicted_ = false;
};

// Memoizes ProbingStrategy per (config_version, policy) so a client builds
// its preference order — and, for probabilistic policies, solves its quorum
// distribution — once per configuration instead of once per operation.
// Latencies are sampled when a config version's planner is first built; a
// new config_version (reconfiguration) drops every cached strategy.
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

 private:
  static constexpr size_t kNumStrategies = 4;

  // Drops every cached strategy (and the planner's sampled latencies).
  void Invalidate();

  HostLinkFn link_of_;
  uint64_t* build_counter_;
  bool have_config_version_ = false;
  uint64_t config_version_ = 0;
  std::shared_ptr<const ProbingStrategy> strategies_[kNumStrategies];
};

}  // namespace wvote

#endif  // WVOTE_SRC_CORE_QUORUM_H_
