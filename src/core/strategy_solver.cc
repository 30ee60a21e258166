#include "src/core/strategy_solver.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace wvote {

namespace {

// Loads, shares, and bounds for a fixed distribution.
StrategySolution Evaluate(const std::vector<StrategyQuorum>& quorums, size_t num_hosts,
                          std::vector<double> probability) {
  StrategySolution out;
  out.probability = std::move(probability);
  out.load.assign(num_hosts, 0.0);
  out.shares.assign(num_hosts, 0.0);

  double probes_per_op = 0;
  for (size_t q = 0; q < quorums.size(); ++q) {
    for (uint16_t h : quorums[q].members) {
      out.load[h] += out.probability[q];  // P[op touches h]
    }
    probes_per_op +=
        out.probability[q] * static_cast<double>(quorums[q].members.size());
  }
  out.max_load = 0;
  out.max_share = 0;
  for (size_t h = 0; h < num_hosts; ++h) {
    out.shares[h] = probes_per_op > 0 ? out.load[h] / probes_per_op : 0.0;
    out.max_load = std::max(out.max_load, out.load[h]);
    out.max_share = std::max(out.max_share, out.shares[h]);
  }

  // Lower bound on any strategy's max share: probes spread at best evenly
  // over all hosts (1/n); and a host present in every quorum receives at
  // least one of at most max-quorum-size probes per op.
  size_t widest = 1;
  uint32_t mandatory = quorums.empty() ? 0 : ~uint32_t{0};
  for (const StrategyQuorum& q : quorums) {
    widest = std::max(widest, q.members.size());
    mandatory &= q.mask;
  }
  out.share_lower_bound = num_hosts > 0 ? 1.0 / static_cast<double>(num_hosts) : 0.0;
  if (mandatory != 0) {
    out.share_lower_bound =
        std::max(out.share_lower_bound, 1.0 / static_cast<double>(widest));
  }
  return out;
}

}  // namespace

std::vector<StrategyQuorum> EnumerateMinimalQuorums(const std::vector<int>& votes,
                                                    int target) {
  std::vector<StrategyQuorum> out;
  const size_t n = votes.size();
  if (n == 0 || n > kMaxStrategyHosts || target <= 0) {
    return out;
  }
  const uint32_t limit = uint32_t{1} << n;
  for (uint32_t mask = 1; mask < limit; ++mask) {
    int sum = 0;
    for (size_t h = 0; h < n; ++h) {
      if (mask & (uint32_t{1} << h)) {
        sum += votes[h];
      }
    }
    if (sum < target) {
      continue;
    }
    // Minimal <=> every member essential (all votes are positive, so a
    // proper subset reaching the target would have a droppable member).
    bool minimal = true;
    for (size_t h = 0; h < n && minimal; ++h) {
      if ((mask & (uint32_t{1} << h)) && sum - votes[h] >= target) {
        minimal = false;
      }
    }
    if (!minimal) {
      continue;
    }
    StrategyQuorum q;
    q.mask = mask;
    for (size_t h = 0; h < n; ++h) {
      if (mask & (uint32_t{1} << h)) {
        q.members.push_back(static_cast<uint16_t>(h));
      }
    }
    out.push_back(std::move(q));
  }
  return out;
}

StrategySolution SolveUniform(const std::vector<StrategyQuorum>& quorums, size_t num_hosts) {
  WVOTE_CHECK_MSG(!quorums.empty(), "no quorums to distribute over");
  std::vector<double> probability(quorums.size(),
                                  1.0 / static_cast<double>(quorums.size()));
  return Evaluate(quorums, num_hosts, std::move(probability));
}

StrategySolution SolveLoadOptimal(const std::vector<StrategyQuorum>& quorums,
                                  size_t num_hosts, int iterations) {
  WVOTE_CHECK_MSG(!quorums.empty(), "no quorums to distribute over");
  const size_t nq = quorums.size();

  // Minimax load as a zero-sum game: the strategy picks a quorum, an
  // adversary picks a host, and the payoff is the picked host's usage by
  // the picked quorum. Two-sided multiplicative weights (adversary
  // exponentiates toward loaded hosts, strategy away from adversary-weighted
  // quorums) converges to the game's value — the minimax load — in the
  // average iterate. A one-sided update billing each quorum its busiest
  // member's load is NOT enough: when every quorum touches some max-loaded
  // host the costs tie and the update freezes at a non-optimal point.
  std::vector<double> pi(nq, 1.0 / static_cast<double>(nq));
  std::vector<double> w(num_hosts, 1.0 / static_cast<double>(num_hosts));
  std::vector<double> load(num_hosts, 0.0);
  std::vector<double> cost(nq, 0.0);
  std::vector<double> avg(nq, 0.0);
  std::vector<double> best = pi;

  auto max_load_of = [&](const std::vector<double>& p) {
    std::fill(load.begin(), load.end(), 0.0);
    for (size_t q = 0; q < nq; ++q) {
      for (uint16_t h : quorums[q].members) {
        load[h] += p[q];
      }
    }
    double max_load = 0;
    for (double l : load) {
      max_load = std::max(max_load, l);
    }
    return max_load;
  };

  double best_max_load = max_load_of(best);
  const double eta = 0.1;
  for (int it = 0; it < iterations; ++it) {
    const double max_load = max_load_of(pi);  // fills `load` as a side effect
    if (max_load <= 0) {
      break;
    }
    if (max_load < best_max_load) {
      best_max_load = max_load;
      best = pi;
    }
    // Adversary: weight toward the hosts the current strategy loads most.
    double w_total = 0;
    for (size_t h = 0; h < num_hosts; ++h) {
      w[h] *= std::exp(eta * load[h] / max_load);
      w_total += w[h];
    }
    for (double& x : w) {
      x /= w_total;
    }
    // Strategy: drain mass from quorums the adversary currently prices high.
    double max_cost = 0;
    for (size_t q = 0; q < nq; ++q) {
      cost[q] = 0;
      for (uint16_t h : quorums[q].members) {
        cost[q] += w[h];
      }
      max_cost = std::max(max_cost, cost[q]);
    }
    if (max_cost <= 0) {
      break;
    }
    double total = 0;
    for (size_t q = 0; q < nq; ++q) {
      pi[q] *= std::exp(-eta * cost[q] / max_cost);
      total += pi[q];
    }
    for (double& p : pi) {
      p /= total;
    }
    // Average the second half of the trajectory (the early iterates still
    // carry the uniform start; the averaged tail is the Nash approximation).
    if (it >= iterations / 2) {
      for (size_t q = 0; q < nq; ++q) {
        avg[q] += pi[q];
      }
    }
  }

  double avg_total = 0;
  for (double a : avg) {
    avg_total += a;
  }
  if (avg_total > 0) {
    for (double& a : avg) {
      a /= avg_total;
    }
    if (max_load_of(avg) < best_max_load) {
      best = avg;
    }
  }

  return Evaluate(quorums, num_hosts, std::move(best));
}

}  // namespace wvote
