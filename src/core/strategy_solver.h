// Load-optimal probing strategies over weighted-voting quorum systems.
//
// Gifford's cheapest-representatives-first rule is latency-optimal for one
// client but load-pessimal for a fleet: every reader probes the same cheap
// prefix, so one representative absorbs almost all version polls and caps
// aggregate throughput while the rest idle. "Read-Write Quorum Systems Made
// Practical" (Whittaker et al.) computes *strategies* instead — probability
// distributions over quorums — chosen to minimize the busiest
// representative's load. This module is the math half of that idea, kept
// deliberately free of planner/network types: it works on vote vectors and
// returns distributions over minimal quorums; the planner layer
// (src/core/quorum.h) maps representatives in and out.
//
// Definitions (per Whittaker et al., adapted to voting):
//   minimal quorum  — a set of representatives whose votes reach the target
//                     and from which no member can be dropped;
//   strategy        — a probability distribution over minimal quorums, one
//                     quorum sampled per operation;
//   load(h)         — the fraction of operations that touch h: the busiest
//                     host's load is the inverse throughput ceiling of the
//                     whole system;
//   probe share(h)  — the fraction of all probe messages that land on h
//                     (what the srv-0 hotspot shows up as in metrics).
//
// The solver is an iterative load rebalancer (multiplicative weights): each
// round, quorums containing the currently busiest hosts lose probability
// mass to quorums that avoid them, converging to the minimax distribution.
// Exact for the small systems this repo deploys (an LP would be too), and
// indifferent to quorum structure — it never assumes uniform votes.

#ifndef WVOTE_SRC_CORE_STRATEGY_SOLVER_H_
#define WVOTE_SRC_CORE_STRATEGY_SOLVER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wvote {

// One minimal quorum over hosts 0..n-1 (indices into the caller's candidate
// list). `mask` bit i set <=> i is a member; `members` lists the same
// indices ascending.
struct StrategyQuorum {
  uint32_t mask = 0;
  std::vector<uint16_t> members;
};

// Enumeration is exponential in the number of voting representatives; past
// this many the planner falls back to deterministic probing rather than
// stall a reconfiguration solving an LP nobody asked for.
constexpr size_t kMaxStrategyHosts = 18;

// All minimal quorums of the vote assignment: subsets whose votes sum to at
// least `target` and in which every member is essential (votes are
// positive, so single-member essentiality implies no proper subset
// suffices). Empty if the target is unreachable or hosts exceed
// kMaxStrategyHosts.
std::vector<StrategyQuorum> EnumerateMinimalQuorums(const std::vector<int>& votes,
                                                    int target);

struct StrategySolution {
  // Probability per quorum (same order as the input); sums to 1.
  std::vector<double> probability;
  // Per host: fraction of operations touching it. The busiest entry bounds
  // aggregate throughput at 1 / max_load ops per unit of per-host service
  // rate.
  std::vector<double> load;
  double max_load = 1.0;
  // Per host: fraction of all probe messages. What per-host probe-share
  // gauges and BENCH tables report.
  std::vector<double> shares;
  double max_share = 1.0;
  // Analytic floor on max_share for *any* strategy over these quorums
  // (1/n, tightened when some host is in every quorum). "Within 10% of
  // optimal" claims measure against this.
  double share_lower_bound = 0.0;
};

// Uniform over the given quorums: the reference SolveLoadOptimal is checked
// against. It already breaks the fixed-prefix hotspot, but over-weights
// hosts that appear in many quorums.
StrategySolution SolveUniform(const std::vector<StrategyQuorum>& quorums, size_t num_hosts);

// Minimax load via iterative rebalancing. `iterations` bounds the
// rebalancing rounds; the default converges far past double precision for
// systems under kMaxStrategyHosts.
StrategySolution SolveLoadOptimal(const std::vector<StrategyQuorum>& quorums,
                                  size_t num_hosts, int iterations = 4000);

}  // namespace wvote

#endif  // WVOTE_SRC_CORE_STRATEGY_SOLVER_H_
