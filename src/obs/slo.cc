#include "src/obs/slo.h"

#include <algorithm>
#include <cstdio>

#include "src/common/check.h"

namespace wvote {
namespace {

double SumAll(const TimeSeriesStore& store, const std::vector<std::string>& names,
              size_t window) {
  double total = 0.0;
  for (const std::string& name : names) {
    for (double v : store.SumTail(name, window)) {
      total += v;
    }
  }
  return total;
}

}  // namespace

SloEngine::SloEngine(std::vector<SloRule> rules)
    : rules_(std::move(rules)), states_(rules_.size()) {}

size_t SloEngine::active_breaches() const {
  size_t n = 0;
  for (const RuleState& s : states_) {
    if (s.breached) {
      ++n;
    }
  }
  return n;
}

void SloEngine::Transition(size_t rule_idx, bool breach_now, int64_t t_us, double value,
                           double limit) {
  RuleState& state = states_[rule_idx];
  state.last_value = value;
  state.ever_evaluated = true;
  if (breach_now) {
    state.healthy_streak = 0;
    if (!state.breached) {
      state.breached = true;
      ++total_breaches_;
      SloEvent ev{rules_[rule_idx].name, /*breach=*/true, t_us, value, limit};
      events_.push_back(ev);
      for (const Listener& l : listeners_) {
        l(ev);
      }
    }
    return;
  }
  if (state.breached) {
    ++state.healthy_streak;
    if (state.healthy_streak >= rules_[rule_idx].recovery_windows) {
      state.breached = false;
      state.healthy_streak = 0;
      SloEvent ev{rules_[rule_idx].name, /*breach=*/false, t_us, value, limit};
      events_.push_back(ev);
      for (const Listener& l : listeners_) {
        l(ev);
      }
    }
  }
}

void SloEngine::Evaluate(TimePoint now, const TimeSeriesStore& store) {
  const int64_t t_us = now.ToMicros();
  for (size_t i = 0; i < rules_.size(); ++i) {
    const SloRule& rule = rules_[i];
    switch (rule.kind) {
      case SloKind::kAvailabilityBurn: {
        const double err = SumAll(store, rule.numerator, rule.window);
        const double tot = err + SumAll(store, rule.denominator, rule.window);
        if (tot <= 0.0) {
          break;  // empty window: no traffic to judge
        }
        const double frac = err / tot;
        const double limit = rule.burn_limit * (1.0 - rule.target);
        Transition(i, frac > limit, t_us, frac, limit);
        break;
      }
      case SloKind::kP99Limit: {
        const std::vector<HistPoint> tail = store.SumHistTail(rule.histogram, rule.window);
        int64_t worst = -1;
        for (const HistPoint& p : tail) {
          if (p.count > 0) {
            worst = std::max(worst, p.p99_us);
          }
        }
        if (worst < 0) {
          break;  // no samples in the window
        }
        Transition(i, worst > rule.p99_limit_us, t_us, static_cast<double>(worst),
                   static_cast<double>(rule.p99_limit_us));
        break;
      }
      case SloKind::kGaugeLimit: {
        const std::vector<double> tail = store.MaxTail(rule.gauge, rule.window);
        if (tail.empty()) {
          break;
        }
        const double worst = *std::max_element(tail.begin(), tail.end());
        Transition(i, worst > rule.gauge_limit, t_us, worst, rule.gauge_limit);
        break;
      }
      case SloKind::kCounterZero: {
        if (store.windows_sealed() == 0) {
          break;
        }
        const double count = SumAll(store, rule.numerator, rule.window);
        Transition(i, count > 0.0, t_us, count, 0.0);
        break;
      }
    }
  }
}

std::string SloEngine::Summary() const {
  std::string out;
  char buf[192];
  for (size_t i = 0; i < rules_.size(); ++i) {
    const RuleState& s = states_[i];
    const char* state = !s.ever_evaluated ? "idle" : (s.breached ? "BREACH" : "ok");
    std::snprintf(buf, sizeof(buf), "%-22s %-6s last=%.4g\n", rules_[i].name.c_str(), state,
                  s.last_value);
    out += buf;
  }
  return out;
}

std::string SloEngine::EventsJson() const {
  std::string out = "[";
  char buf[96];
  for (size_t i = 0; i < events_.size(); ++i) {
    const SloEvent& e = events_[i];
    if (i > 0) {
      out += ',';
    }
    out += "{\"rule\":\"" + e.rule + "\",\"breach\":";
    out += e.breach ? "true" : "false";
    std::snprintf(buf, sizeof(buf), ",\"t_us\":%lld,\"value\":%.6g,\"limit\":%.6g}",
                  static_cast<long long>(e.t_us), e.value, e.limit);
    out += buf;
  }
  out += "]";
  return out;
}

std::vector<SloRule> SloEngine::DefaultRules() {
  std::vector<SloRule> rules;

  {
    SloRule r;
    r.name = "read-availability";
    r.kind = SloKind::kAvailabilityBurn;
    r.numerator = {"core.suite_client.read_unavailable"};
    // reads counts successful gathers only, so attempts = reads + errors;
    // the engine adds the numerator into the total itself.
    r.denominator = {"core.suite_client.reads"};
    r.target = 0.999;
    r.burn_limit = 100.0;  // breach when >10% of read gathers fail
    rules.push_back(std::move(r));
  }
  {
    SloRule r;
    r.name = "write-availability";
    r.kind = SloKind::kAvailabilityBurn;
    r.numerator = {"core.suite_client.write_unavailable"};
    r.denominator = {"core.suite_client.writes"};
    r.target = 0.999;
    r.burn_limit = 100.0;
    rules.push_back(std::move(r));
  }
  {
    SloRule r;
    r.name = "fastpath-hit-rate";
    r.kind = SloKind::kAvailabilityBurn;
    r.numerator = {"core.suite_client.fastpath_misses"};
    r.denominator = {"core.suite_client.fastpath_hits"};
    // Objective: at least 5% of fastpath-eligible reads hit; breach only
    // when the fast path is effectively dead (>95% misses).
    r.target = 0.05;
    r.burn_limit = 1.0;
    rules.push_back(std::move(r));
  }
  {
    SloRule r;
    r.name = "write-p99";
    r.kind = SloKind::kP99Limit;
    r.histogram = "workload.client.write_latency";
    // Healthy quorum commits run tens of ms at simulated WAN latencies; a
    // second means writes are riding fault timeouts.
    r.p99_limit_us = 1'000'000;
    rules.push_back(std::move(r));
  }
  {
    SloRule r;
    r.name = "staleness-never";
    r.kind = SloKind::kCounterZero;
    r.numerator = {"core.weak_rep.stale_serves"};
    rules.push_back(std::move(r));
  }
  {
    SloRule r;
    r.name = "probe-balance";
    r.kind = SloKind::kGaugeLimit;
    r.gauge = "core.planner.load_max_share";
    // One representative absorbing >95% of a client's probes is a hotspot
    // regardless of policy (single-member quorums excepted — drop the rule
    // for V=1 suites).
    r.gauge_limit = 0.95;
    rules.push_back(std::move(r));
  }
  return rules;
}

}  // namespace wvote
