// Windowed SLO engine: burn-rate rules evaluated over the time-series tail.
//
// Each rule watches an objective over the last `window` scrape windows and
// keeps a breach state machine: entering breach emits one event, and the
// rule must evaluate healthy for `recovery_windows` consecutive scrapes
// before a recovery event fires (hysteresis, so a single good window during
// an outage doesn't flap the state).
//
// Empty-window policy: a rule whose inputs carry no traffic in the
// evaluated tail (zero denominator, no histogram samples, no matching
// gauge windows) is SKIPPED — no state change either way. During a full
// partition the unavailability counters still move (gathers complete with
// UNAVAILABLE after their timeouts), so availability rules see the outage;
// what the skip avoids is judging idle phases, warm-up, and benches that
// never exercise a subsystem.
//
// The engine is a Scraper observer — wire engine->Evaluate into
// Scraper::AddObserver — and is itself observable through listeners, which
// is how breaches become TraceLog breadcrumbs without obs depending on the
// trace library.

#ifndef WVOTE_SRC_OBS_SLO_H_
#define WVOTE_SRC_OBS_SLO_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/obs/timeseries.h"

namespace wvote {

enum class SloKind {
  // error_fraction > burn_limit * (1 - target), where error_fraction is
  // err / (err + ok) with err = sum(numerator) and ok = sum(denominator)
  // over the window (the denominator lists SUCCESS counters; the engine
  // forms the attempt total itself, since this repo's success counters only
  // move on completed operations).
  kAvailabilityBurn,
  // max per-window p99 of `histogram` over the window > p99_limit_us.
  kP99Limit,
  // max per-window value of `gauge` (MaxTail across labels) > gauge_limit.
  kGaugeLimit,
  // sum(numerator) over the window > 0 — an invariant tripwire.
  kCounterZero,
};

struct SloRule {
  std::string name;  // e.g. "read-availability"
  SloKind kind = SloKind::kAvailabilityBurn;

  // Metric names (before '{'); values aggregate across label variants.
  std::vector<std::string> numerator;    // error counters / tripwire counter
  std::vector<std::string> denominator;  // total counters (kAvailabilityBurn)
  std::string histogram;                 // kP99Limit
  std::string gauge;                     // kGaugeLimit

  double target = 0.999;     // availability objective (kAvailabilityBurn)
  double burn_limit = 10.0;  // error-budget burn multiplier
  int64_t p99_limit_us = 0;
  double gauge_limit = 0.0;

  size_t window = 8;            // scrape windows per evaluation
  size_t recovery_windows = 4;  // consecutive healthy evals to clear a breach
};

struct SloEvent {
  std::string rule;
  bool breach = false;  // true = entered breach, false = recovered
  int64_t t_us = 0;     // sim time of the evaluation
  double value = 0.0;   // measured quantity (fraction, p99 us, gauge, count)
  double limit = 0.0;   // threshold it was compared against
};

class SloEngine {
 public:
  explicit SloEngine(std::vector<SloRule> rules);

  // One evaluation of every rule against the store's tail; call once per
  // sealed window (Scraper observer signature).
  void Evaluate(TimePoint now, const TimeSeriesStore& store);

  // Listeners fire on every breach/recovery transition, in order.
  using Listener = std::function<void(const SloEvent&)>;
  void AddListener(Listener listener) { listeners_.push_back(std::move(listener)); }

  const std::vector<SloRule>& rules() const { return rules_; }
  const std::vector<SloEvent>& events() const { return events_; }
  size_t total_breaches() const { return total_breaches_; }
  size_t active_breaches() const;

  // One line per rule: name, state, last measured value.
  std::string Summary() const;
  // [{"rule":"...","breach":true,"t_us":...,"value":...,"limit":...},...]
  std::string EventsJson() const;

  // The rules every Cluster gets by default: read/write quorum availability,
  // fastpath hit rate, committed-write p99, staleness-never, and per-rep
  // probe share. Thresholds are generous — healthy runs never breach; real
  // outages (partitions, crashed quorums) do.
  static std::vector<SloRule> DefaultRules();

 private:
  struct RuleState {
    bool breached = false;
    size_t healthy_streak = 0;
    double last_value = 0.0;
    bool ever_evaluated = false;
  };

  void Transition(size_t rule_idx, bool breach_now, int64_t t_us, double value, double limit);

  std::vector<SloRule> rules_;
  std::vector<RuleState> states_;
  std::vector<SloEvent> events_;
  std::vector<Listener> listeners_;
  size_t total_breaches_ = 0;
};

}  // namespace wvote

#endif  // WVOTE_SRC_OBS_SLO_H_
