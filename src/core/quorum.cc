#include "src/core/quorum.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/core/strategy_solver.h"
#include "src/net/network.h"
#include "src/sim/random.h"

namespace wvote {

const char* QuorumStrategyName(QuorumStrategy s) {
  switch (s) {
    case QuorumStrategy::kLowestLatency:
      return "lowest-latency";
    case QuorumStrategy::kFewestMessages:
      return "fewest-messages";
    case QuorumStrategy::kBroadcast:
      return "broadcast";
    case QuorumStrategy::kLoadOptimal:
      return "load-optimal";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// HostLinkCache
// ---------------------------------------------------------------------------

HostId HostLinkCache::Resolve(const std::string& name) {
  Entry& entry = entries_[name];
  if (entry.id == kInvalidHost) {
    Host* host = net_->FindHost(name);
    WVOTE_CHECK_MSG(host != nullptr, "unknown representative host");
    entry.id = host->id();
  }
  return entry.id;
}

HostLink HostLinkCache::Link(const std::string& name) {
  const HostId there = Resolve(name);
  Entry& entry = entries_[name];
  if (!entry.have_latency) {
    entry.latency = net_->ExpectedLatency(self_, there) + net_->ExpectedLatency(there, self_);
    entry.have_latency = true;
  }
  return HostLink{there, entry.latency};
}

// ---------------------------------------------------------------------------
// QuorumPlanner
// ---------------------------------------------------------------------------

QuorumPlanner::QuorumPlanner(const SuiteConfig& config, const HostLinkFn& link_of) {
  for (const RepresentativeInfo& rep : config.representatives) {
    if (rep.weak()) {
      continue;
    }
    const HostLink link = link_of(rep.host_name);
    voting_.push_back(QuorumCandidate(rep.host_name, link.host, rep.votes, link.latency));
  }
}

std::vector<QuorumCandidate> QuorumPlanner::Plan(int required_votes,
                                                 QuorumStrategy strategy) const {
  std::vector<QuorumCandidate> plan = voting_;
  switch (strategy) {
    case QuorumStrategy::kLowestLatency:
    case QuorumStrategy::kBroadcast:
    case QuorumStrategy::kLoadOptimal:
      // The probabilistic policy uses the latency order as its base: a
      // sampled quorum's members probe cheapest-first, and widening after
      // failures follows the same order deterministic probing would.
      std::stable_sort(plan.begin(), plan.end(),
                       [](const QuorumCandidate& a, const QuorumCandidate& b) {
                         if (a.expected_latency != b.expected_latency) {
                           return a.expected_latency < b.expected_latency;
                         }
                         return a.votes > b.votes;  // more votes per probe first
                       });
      break;
    case QuorumStrategy::kFewestMessages:
      std::stable_sort(plan.begin(), plan.end(),
                       [](const QuorumCandidate& a, const QuorumCandidate& b) {
                         if (a.votes != b.votes) {
                           return a.votes > b.votes;
                         }
                         return a.expected_latency < b.expected_latency;
                       });
      break;
  }
  return plan;
}

// ---------------------------------------------------------------------------
// ProbingStrategy
// ---------------------------------------------------------------------------

const QuorumDistribution* ProbingStrategy::DistributionFor(int required_votes) const {
  if (read_dist.valid() && read_dist.target_votes == required_votes) {
    return &read_dist;
  }
  if (write_dist.valid() && write_dist.target_votes == required_votes) {
    return &write_dist;
  }
  return nullptr;
}

std::vector<uint16_t> ProbingStrategy::SampleOrder(int required_votes, Rng* rng) const {
  const QuorumDistribution* dist = DistributionFor(required_votes);
  if (dist == nullptr) {
    return {};
  }
  const double u = rng->NextDouble();
  const auto it = std::lower_bound(dist->cumulative.begin(), dist->cumulative.end(), u);
  const size_t pick = it == dist->cumulative.end()
                          ? dist->cumulative.size() - 1
                          : static_cast<size_t>(it - dist->cumulative.begin());
  const std::vector<uint16_t>& members = dist->quorums[pick];
  std::vector<uint16_t> out;
  out.reserve(order.size());
  out.insert(out.end(), members.begin(), members.end());
  // Remaining candidates, in base (latency) order, as widening fallbacks.
  size_t m = 0;
  for (uint16_t i = 0; i < static_cast<uint16_t>(order.size()); ++i) {
    if (m < members.size() && members[m] == i) {
      ++m;
      continue;
    }
    out.push_back(i);
  }
  return out;
}

std::vector<uint16_t> ProbeOrder(size_t plan_size, std::vector<uint16_t> sampled,
                                 const std::vector<ProbeHealth>& health) {
  std::vector<uint16_t> order = std::move(sampled);
  const bool deterministic = order.empty();
  if (deterministic) {
    order.resize(plan_size);
    for (size_t i = 0; i < plan_size; ++i) {
      order[i] = static_cast<uint16_t>(i);
    }
  }
  if (health.empty()) {
    return order;
  }
  WVOTE_CHECK(health.size() == plan_size);
  if (deterministic) {
    // Stable insertion sort by effective latency: plans hold a handful of
    // hosts, and std::stable_sort would allocate a scratch buffer per gather.
    for (size_t i = 1; i < order.size(); ++i) {
      const uint16_t idx = order[i];
      size_t j = i;
      for (; j > 0 && health[idx].effective_latency < health[order[j - 1]].effective_latency;
           --j) {
        order[j] = order[j - 1];
      }
      order[j] = idx;
    }
  }
  std::stable_partition(order.begin(), order.end(),
                        [&health](uint16_t idx) { return !health[idx].demoted; });
  return order;
}

// ---------------------------------------------------------------------------
// GatherMachine
// ---------------------------------------------------------------------------

void GatherMachine::Start(const std::vector<QuorumCandidate>& plan,
                          std::vector<uint16_t> sampled, const std::vector<ProbeHealth>& health,
                          int required_votes, bool broadcast, bool hedge) {
  if (sampled.empty()) {
    sampled.swap(order_);  // ProbeOrder rebuilds the order in the old buffer
    sampled.clear();
  }
  order_ = ProbeOrder(plan.size(), std::move(sampled), health);
  plan_ = &plan;
  round_.clear();
  won_backups_.Clear();
  next_ = 0;
  required_votes_ = required_votes;
  votes_ = 0;
  rounds_ = 0;
  broadcast_ = broadcast;
  hedge_ = hedge;
  conflicted_ = false;
}

bool GatherMachine::NextRound() {
  round_.clear();
  if (Closed() || conflicted_) {
    return false;
  }
  int planned_votes = votes_;
  while (next_ < order_.size() && (broadcast_ || planned_votes < required_votes_)) {
    const size_t position = next_++;
    if (won_backups_.Contains(position)) {
      continue;  // already credited: a backup that won an earlier race
    }
    round_.push_back(GatherProbe{position, kNoBackup, false});
    planned_votes += At(position).votes;
  }
  if (round_.empty()) {
    return false;  // every candidate was probed
  }
  if (hedge_) {
    size_t scan = next_;
    for (GatherProbe& probe : round_) {
      while (scan < order_.size() && won_backups_.Contains(scan)) {
        ++scan;
      }
      if (scan == order_.size()) {
        break;
      }
      probe.backup = scan++;
    }
  }
  ++rounds_;
  return true;
}

void GatherMachine::Credit(HostId responder, StatusCode code) {
  if (code == StatusCode::kConflict) {
    conflicted_ = true;  // wait-die said die: the transaction must retry
    return;
  }
  if (code != StatusCode::kOk) {
    return;
  }
  size_t probe = 0;
  const size_t position = PositionOf(responder, &probe);
  if (round_[probe].credited) {
    return;
  }
  round_[probe].credited = true;
  if (position == round_[probe].backup) {
    won_backups_.Insert(position);
  }
  votes_ += At(position).votes;
}

size_t GatherMachine::PositionOf(HostId host, size_t* probe) const {
  for (size_t i = 0; i < round_.size(); ++i) {
    for (size_t position : {round_[i].primary, round_[i].backup}) {
      if (position != kNoBackup && At(position).host == host) {
        *probe = i;
        return position;
      }
    }
  }
  WVOTE_CHECK_MSG(false, "reply from a host the round did not probe");
  return 0;
}

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

namespace {

QuorumDistribution BuildDistribution(const std::vector<QuorumCandidate>& order,
                                     int target_votes) {
  QuorumDistribution out;
  out.target_votes = target_votes;
  if (order.empty() || order.size() > kMaxStrategyHosts) {
    return out;  // fall back to deterministic probing
  }
  std::vector<int> votes;
  votes.reserve(order.size());
  for (const QuorumCandidate& c : order) {
    votes.push_back(c.votes);
  }
  std::vector<StrategyQuorum> quorums = EnumerateMinimalQuorums(votes, target_votes);
  if (quorums.empty()) {
    return out;
  }
  StrategySolution solution = SolveLoadOptimal(quorums, order.size());

  out.quorums.reserve(quorums.size());
  out.cumulative.reserve(quorums.size());
  double acc = 0;
  for (size_t q = 0; q < quorums.size(); ++q) {
    out.quorums.push_back(quorums[q].members);
    acc += solution.probability[q];
    out.cumulative.push_back(acc);
  }
  out.cumulative.back() = 1.0;  // absorb rounding
  out.shares = std::move(solution.shares);
  out.max_share = solution.max_share;
  out.share_lower_bound = solution.share_lower_bound;
  return out;
}

}  // namespace

PlanCache::PlanCache(HostLinkFn link_of, uint64_t* build_counter)
    : link_of_(std::move(link_of)), build_counter_(build_counter) {}

std::shared_ptr<const ProbingStrategy> PlanCache::Get(const SuiteConfig& config,
                                                      QuorumStrategy policy) {
  if (!have_config_version_ || config.config_version != config_version_) {
    Invalidate();
    have_config_version_ = true;
    config_version_ = config.config_version;
  }
  const size_t slot = static_cast<size_t>(policy);
  WVOTE_CHECK(slot < kNumStrategies);
  if (strategies_[slot] == nullptr) {
    // The preference order is independent of the vote target (see Plan);
    // the planner itself is rebuilt per config version, since membership
    // can have changed. Whether latencies are re-read is `link_of_`'s call
    // (SuiteClient's HostLinkCache memoizes them).
    QuorumPlanner planner(config, link_of_);
    auto strategy = std::make_shared<ProbingStrategy>();
    strategy->order = planner.Plan(/*required_votes=*/0, policy);
    if (policy == QuorumStrategy::kLoadOptimal) {
      strategy->read_dist = BuildDistribution(strategy->order, config.read_quorum);
      if (config.write_quorum != config.read_quorum) {
        strategy->write_dist = BuildDistribution(strategy->order, config.write_quorum);
      }
    }
    strategies_[slot] = std::move(strategy);
    if (build_counter_ != nullptr) {
      ++*build_counter_;
    }
  }
  return strategies_[slot];
}

std::shared_ptr<const ProbingStrategy> PlanCache::Peek(QuorumStrategy policy) const {
  const size_t slot = static_cast<size_t>(policy);
  WVOTE_CHECK(slot < kNumStrategies);
  return strategies_[slot];
}

void PlanCache::Invalidate() {
  have_config_version_ = false;
  for (size_t i = 0; i < kNumStrategies; ++i) {
    strategies_[i] = nullptr;
  }
}

}  // namespace wvote
