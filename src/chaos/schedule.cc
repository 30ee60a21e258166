#include "src/chaos/schedule.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include "src/common/check.h"
#include "src/sim/random.h"

namespace wvote {
namespace {

// Field separator inside a serialized group list; host names never carry
// these characters (they are identifiers like "rep-0").
constexpr char kGroupSep = '|';
constexpr char kMemberSep = ',';

std::string JoinGroups(const std::vector<std::vector<std::string>>& groups) {
  if (groups.empty()) {
    return "-";
  }
  std::string out;
  for (size_t g = 0; g < groups.size(); ++g) {
    if (g > 0) {
      out += kGroupSep;
    }
    for (size_t m = 0; m < groups[g].size(); ++m) {
      if (m > 0) {
        out += kMemberSep;
      }
      out += groups[g][m];
    }
  }
  return out;
}

std::vector<std::vector<std::string>> SplitGroups(const std::string& text) {
  std::vector<std::vector<std::string>> groups;
  if (text == "-") {
    return groups;
  }
  std::vector<std::string> group;
  std::string member;
  for (char c : text) {
    if (c == kMemberSep || c == kGroupSep) {
      if (!member.empty()) {
        group.push_back(std::move(member));
        member.clear();
      }
      if (c == kGroupSep) {
        groups.push_back(std::move(group));
        group.clear();
      }
    } else {
      member += c;
    }
  }
  if (!member.empty()) {
    group.push_back(std::move(member));
  }
  if (!group.empty()) {
    groups.push_back(std::move(group));
  }
  return groups;
}

Result<TraceKind> TraceKindFromName(const std::string& name) {
  for (size_t i = 0; i < kNumTraceKinds; ++i) {
    const TraceKind kind = static_cast<TraceKind>(i);
    if (name == TraceKindName(kind)) {
      return kind;
    }
  }
  return InvalidArgumentError("unknown trace kind '" + name + "'");
}

Result<FaultAction> FaultActionFromName(const std::string& name) {
  static const FaultAction kAll[] = {
      FaultAction::kCrashRestart, FaultAction::kCrashOnTrace,
      FaultAction::kPartition,    FaultAction::kHeal,
      FaultAction::kLinkKnobs,    FaultAction::kStoreFaults,
      FaultAction::kStoreTearNextFlush,
      FaultAction::kGrayHost,     FaultAction::kGrayLink,
      FaultAction::kGrayDisk,
  };
  for (FaultAction a : kAll) {
    if (name == FaultActionName(a)) {
      return a;
    }
  }
  return InvalidArgumentError("unknown fault action '" + name + "'");
}

void SortByTime(FaultSchedule* schedule) {
  std::stable_sort(schedule->events.begin(), schedule->events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
}

// Deterministic per-template stream: same (template, seed) -> same schedule.
uint64_t MixSeed(const std::string& template_name, uint64_t seed) {
  uint64_t h = 1469598103934665603ull ^ seed;
  for (char c : template_name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

Duration Frac(Duration horizon, double f) {
  return Duration::Micros(static_cast<int64_t>(static_cast<double>(horizon.ToMicros()) * f));
}

// Uniform draw in [lo, hi) as a fraction of the horizon.
Duration DrawAt(Rng& rng, Duration horizon, double lo, double hi) {
  return Frac(horizon, lo + rng.NextDouble() * (hi - lo));
}

FaultSchedule CrashChurn(Rng& rng, const ScheduleTemplateParams& p) {
  FaultSchedule s;
  s.name = "crash_churn";
  for (const std::string& rep : p.rep_hosts) {
    const int cycles = 1 + static_cast<int>(rng.NextBelow(2));
    for (int i = 0; i < cycles; ++i) {
      FaultEvent ev;
      ev.at = DrawAt(rng, p.horizon, 0.05, 0.6);
      ev.action = FaultAction::kCrashRestart;
      ev.host = rep;
      ev.duration = Duration::Millis(100 + static_cast<int64_t>(rng.NextBelow(300)));
      s.events.push_back(std::move(ev));
    }
  }
  return s;
}

FaultSchedule Partitions(Rng& rng, const ScheduleTemplateParams& p) {
  FaultSchedule s;
  s.name = "partitions";
  // Two partition epochs with different random splits, each healed; nothing
  // survives past 0.75 * horizon. Splits are majority/minority or near-even
  // depending on the draw; clients are scattered across both sides so some
  // client can always reach the minority.
  const double epoch_starts[] = {0.10, 0.45};
  for (int e = 0; e < 2; ++e) {
    std::vector<std::string> side_a;
    std::vector<std::string> side_b;
    for (size_t i = 0; i < p.rep_hosts.size(); ++i) {
      // Pin the first rep to A and the last to B so both sides are
      // non-empty; everyone else flips a coin.
      bool to_a;
      if (i == 0) {
        to_a = true;
      } else if (i + 1 == p.rep_hosts.size()) {
        to_a = false;
      } else {
        to_a = rng.NextBernoulli(0.5);
      }
      (to_a ? side_a : side_b).push_back(p.rep_hosts[i]);
    }
    for (size_t i = 0; i < p.client_hosts.size(); ++i) {
      (i % 2 == 0 ? side_a : side_b).push_back(p.client_hosts[i]);
    }
    FaultEvent cut;
    cut.at = DrawAt(rng, p.horizon, epoch_starts[e], epoch_starts[e] + 0.08);
    cut.action = FaultAction::kPartition;
    cut.groups = {std::move(side_a), std::move(side_b)};
    FaultEvent heal;
    heal.at = cut.at + Frac(p.horizon, 0.15 + rng.NextDouble() * 0.10);
    heal.action = FaultAction::kHeal;
    s.events.push_back(std::move(cut));
    s.events.push_back(std::move(heal));
  }
  return s;
}

FaultSchedule FlakyLinks(Rng& rng, const ScheduleTemplateParams& p) {
  FaultSchedule s;
  s.name = "flaky_links";
  FaultEvent mild;
  mild.at = Frac(p.horizon, 0.02);
  mild.action = FaultAction::kLinkKnobs;
  mild.p1 = 0.01 + rng.NextDouble() * 0.02;  // loss
  mild.p2 = 0.03 + rng.NextDouble() * 0.04;  // dup
  mild.p3 = 0.03 + rng.NextDouble() * 0.04;  // spike probability
  mild.spike = Duration::Millis(20 + static_cast<int64_t>(rng.NextBelow(30)));
  FaultEvent storm;
  storm.at = DrawAt(rng, p.horizon, 0.3, 0.45);
  storm.action = FaultAction::kLinkKnobs;
  storm.p1 = 0.05 + rng.NextDouble() * 0.05;
  storm.p2 = 0.08 + rng.NextDouble() * 0.06;
  storm.p3 = 0.08 + rng.NextDouble() * 0.08;
  storm.spike = Duration::Millis(40 + static_cast<int64_t>(rng.NextBelow(40)));
  FaultEvent clear;
  clear.at = Frac(p.horizon, 0.72);
  clear.action = FaultAction::kLinkKnobs;  // all-zero knobs = calm weather
  s.events.push_back(std::move(mild));
  s.events.push_back(std::move(storm));
  s.events.push_back(std::move(clear));
  return s;
}

FaultSchedule PhaseCrash(Rng& rng, const ScheduleTemplateParams& p) {
  FaultSchedule s;
  s.name = "phase_crash";
  // Crash a participant between its yes-vote and the commit...
  FaultEvent on_prepare;
  on_prepare.at = DrawAt(rng, p.horizon, 0.05, 0.2);
  on_prepare.action = FaultAction::kCrashOnTrace;
  on_prepare.host = p.rep_hosts[rng.NextBelow(p.rep_hosts.size())];
  on_prepare.trace_kind = TraceKind::kTxnPrepared;
  on_prepare.duration = Duration::Millis(150 + static_cast<int64_t>(rng.NextBelow(200)));
  s.events.push_back(std::move(on_prepare));
  // ...and a coordinator after its decision is durable but before any
  // phase-2 fan-out: the acked write must survive on inquiries alone.
  if (!p.client_hosts.empty()) {
    FaultEvent on_decision;
    on_decision.at = DrawAt(rng, p.horizon, 0.25, 0.4);
    on_decision.action = FaultAction::kCrashOnTrace;
    on_decision.host = p.client_hosts[rng.NextBelow(p.client_hosts.size())];
    on_decision.trace_kind = TraceKind::kDecisionLogged;
    on_decision.duration = Duration::Millis(150 + static_cast<int64_t>(rng.NextBelow(200)));
    s.events.push_back(std::move(on_decision));
  }
  // Plus one plain crash cycle for background churn.
  FaultEvent churn;
  churn.at = DrawAt(rng, p.horizon, 0.45, 0.6);
  churn.action = FaultAction::kCrashRestart;
  churn.host = p.rep_hosts[rng.NextBelow(p.rep_hosts.size())];
  churn.duration = Duration::Millis(100 + static_cast<int64_t>(rng.NextBelow(200)));
  s.events.push_back(std::move(churn));
  return s;
}

FaultSchedule TornDisk(Rng& rng, const ScheduleTemplateParams& p) {
  FaultSchedule s;
  s.name = "torn_disk";
  const size_t victims = std::min<size_t>(2, p.rep_hosts.size());
  for (size_t v = 0; v < victims; ++v) {
    const std::string& rep = p.rep_hosts[rng.NextBelow(p.rep_hosts.size())];
    FaultEvent flaky;
    flaky.at = DrawAt(rng, p.horizon, 0.05 + 0.3 * static_cast<double>(v), 0.15 + 0.3 * static_cast<double>(v));
    flaky.action = FaultAction::kStoreFaults;
    flaky.host = rep;
    flaky.p1 = 0.15 + rng.NextDouble() * 0.15;  // write-fail probability
    FaultEvent calm;
    calm.at = flaky.at + Frac(p.horizon, 0.12);
    calm.action = FaultAction::kStoreFaults;  // p1 = 0 clears the fault
    calm.host = rep;
    s.events.push_back(std::move(flaky));
    s.events.push_back(std::move(calm));

    FaultEvent tear;
    tear.at = DrawAt(rng, p.horizon, 0.2, 0.65);
    tear.action = FaultAction::kStoreTearNextFlush;
    tear.host = p.rep_hosts[rng.NextBelow(p.rep_hosts.size())];
    s.events.push_back(std::move(tear));
  }
  return s;
}

FaultSchedule GrayHost(Rng& rng, const ScheduleTemplateParams& p) {
  FaultSchedule s;
  s.name = "gray_host";
  // One victim turns gray early and heals mid-run (the sparkline story:
  // suspicion rises, the breaker opens, then the host wins its rank back);
  // a second, milder victim degrades later so the run ends with a fresh
  // gray host that the final convergence read must still get past.
  const std::string& first = p.rep_hosts[rng.NextBelow(p.rep_hosts.size())];
  FaultEvent go_gray;
  go_gray.at = DrawAt(rng, p.horizon, 0.05, 0.12);
  go_gray.action = FaultAction::kGrayHost;
  go_gray.host = first;
  go_gray.p1 = 6.0 + rng.NextDouble() * 6.0;  // 6-12x service time
  FaultEvent heal;
  heal.at = DrawAt(rng, p.horizon, 0.40, 0.50);
  heal.action = FaultAction::kGrayHost;
  heal.host = first;
  heal.p1 = 1.0;
  s.events.push_back(std::move(go_gray));
  s.events.push_back(std::move(heal));

  const std::string& second = p.rep_hosts[rng.NextBelow(p.rep_hosts.size())];
  FaultEvent late;
  late.at = DrawAt(rng, p.horizon, 0.52, 0.60);
  late.action = FaultAction::kGrayHost;
  late.host = second;
  late.p1 = 3.0 + rng.NextDouble() * 3.0;  // milder: 3-6x
  FaultEvent late_heal;
  late_heal.at = Frac(p.horizon, 0.72);
  late_heal.action = FaultAction::kGrayHost;
  late_heal.host = second;
  late_heal.p1 = 1.0;
  s.events.push_back(std::move(late));
  s.events.push_back(std::move(late_heal));
  return s;
}

FaultSchedule GrayMixed(Rng& rng, const ScheduleTemplateParams& p) {
  FaultSchedule s;
  s.name = "gray_mixed";
  // All three gray modes at once on (up to) three distinct victims: a slow
  // disk, an asymmetric slow outbound link, and a whole-host slowdown —
  // overlapping windows, everything cleared by 0.72 * horizon.
  const size_t n = p.rep_hosts.size();
  const std::string& disk_victim = p.rep_hosts[rng.NextBelow(n)];
  const std::string& link_victim = p.rep_hosts[rng.NextBelow(n)];
  const std::string& host_victim = p.rep_hosts[rng.NextBelow(n)];

  FaultEvent disk;
  disk.at = DrawAt(rng, p.horizon, 0.05, 0.15);
  disk.action = FaultAction::kGrayDisk;
  disk.host = disk_victim;
  disk.p1 = 6.0 + rng.NextDouble() * 6.0;
  FaultEvent disk_heal;
  disk_heal.at = Frac(p.horizon, 0.70);
  disk_heal.action = FaultAction::kGrayDisk;
  disk_heal.host = disk_victim;
  disk_heal.p1 = 1.0;
  s.events.push_back(std::move(disk));
  s.events.push_back(std::move(disk_heal));

  FaultEvent link;
  link.at = DrawAt(rng, p.horizon, 0.15, 0.30);
  link.action = FaultAction::kGrayLink;
  link.host = link_victim;
  link.p1 = 4.0 + rng.NextDouble() * 6.0;
  FaultEvent link_heal;
  link_heal.at = Frac(p.horizon, 0.71);
  link_heal.action = FaultAction::kGrayLink;
  link_heal.host = link_victim;
  link_heal.p1 = 1.0;
  s.events.push_back(std::move(link));
  s.events.push_back(std::move(link_heal));

  FaultEvent whole;
  whole.at = DrawAt(rng, p.horizon, 0.30, 0.45);
  whole.action = FaultAction::kGrayHost;
  whole.host = host_victim;
  whole.p1 = 5.0 + rng.NextDouble() * 5.0;
  FaultEvent whole_heal;
  whole_heal.at = Frac(p.horizon, 0.72);
  whole_heal.action = FaultAction::kGrayHost;
  whole_heal.host = host_victim;
  whole_heal.p1 = 1.0;
  s.events.push_back(std::move(whole));
  s.events.push_back(std::move(whole_heal));
  return s;
}

}  // namespace

std::map<std::string, std::string> TokenizeLine(const std::string& line) {
  std::map<std::string, std::string> out;
  size_t pos = 0;
  while (pos < line.size()) {
    size_t end = line.find(' ', pos);
    if (end == std::string::npos) {
      end = line.size();
    }
    const std::string token = line.substr(pos, end - pos);
    const size_t eq = token.find('=');
    if (eq != std::string::npos) {
      out[token.substr(0, eq)] = token.substr(eq + 1);
    }
    pos = end + 1;
  }
  return out;
}

const char* FaultActionName(FaultAction action) {
  switch (action) {
    case FaultAction::kCrashRestart:
      return "crash-restart";
    case FaultAction::kCrashOnTrace:
      return "crash-on-trace";
    case FaultAction::kPartition:
      return "partition";
    case FaultAction::kHeal:
      return "heal";
    case FaultAction::kLinkKnobs:
      return "link-knobs";
    case FaultAction::kStoreFaults:
      return "store-faults";
    case FaultAction::kStoreTearNextFlush:
      return "store-tear-next-flush";
    case FaultAction::kGrayHost:
      return "gray-host";
    case FaultAction::kGrayLink:
      return "gray-link";
    case FaultAction::kGrayDisk:
      return "gray-disk";
  }
  return "?";
}

std::string FaultEvent::ToLine() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "event at_us=%" PRId64 " action=%s host=%s dur_us=%" PRId64
                " kind=%s p1=%.9g p2=%.9g p3=%.9g spike_us=%" PRId64 " groups=%s",
                at.ToMicros(), FaultActionName(action), host.empty() ? "-" : host.c_str(),
                duration.ToMicros(), TraceKindName(trace_kind), p1, p2, p3,
                spike.ToMicros(), JoinGroups(groups).c_str());
  return buf;
}

Result<FaultEvent> FaultEvent::FromLine(const std::string& line) {
  std::map<std::string, std::string> kv = TokenizeLine(line);
  for (const char* required : {"at_us", "action", "host", "dur_us", "kind", "groups"}) {
    if (kv.find(required) == kv.end()) {
      return InvalidArgumentError("fault event line missing '" + std::string(required) +
                                  "': " + line);
    }
  }
  FaultEvent ev;
  ev.at = Duration::Micros(std::strtoll(kv["at_us"].c_str(), nullptr, 10));
  Result<FaultAction> action = FaultActionFromName(kv["action"]);
  WVOTE_RETURN_IF_ERROR(action.status());
  ev.action = action.value();
  ev.host = kv["host"] == "-" ? "" : kv["host"];
  ev.duration = Duration::Micros(std::strtoll(kv["dur_us"].c_str(), nullptr, 10));
  Result<TraceKind> kind = TraceKindFromName(kv["kind"]);
  WVOTE_RETURN_IF_ERROR(kind.status());
  ev.trace_kind = kind.value();
  ev.p1 = std::strtod(kv["p1"].c_str(), nullptr);
  ev.p2 = std::strtod(kv["p2"].c_str(), nullptr);
  ev.p3 = std::strtod(kv["p3"].c_str(), nullptr);
  ev.spike = Duration::Micros(std::strtoll(kv["spike_us"].c_str(), nullptr, 10));
  ev.groups = SplitGroups(kv["groups"]);
  return ev;
}

std::string FaultEvent::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%8.1fms %-20s %s", at.ToMicros() / 1000.0,
                FaultActionName(action), host.empty() ? JoinGroups(groups).c_str()
                                                      : host.c_str());
  std::string out = buf;
  if (action == FaultAction::kCrashOnTrace) {
    out += std::string(" on ") + TraceKindName(trace_kind);
  }
  return out;
}

std::string FaultSchedule::Serialize() const {
  std::string out = "schedule " + name + "\n";
  for (const FaultEvent& ev : events) {
    out += ev.ToLine();
    out += '\n';
  }
  return out;
}

Result<FaultSchedule> FaultSchedule::Parse(const std::string& text) {
  FaultSchedule schedule;
  bool saw_header = false;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) {
      continue;
    }
    if (line.rfind("schedule ", 0) == 0) {
      schedule.name = line.substr(9);
      saw_header = true;
    } else if (line.rfind("event ", 0) == 0) {
      Result<FaultEvent> ev = FaultEvent::FromLine(line);
      WVOTE_RETURN_IF_ERROR(ev.status());
      schedule.events.push_back(std::move(ev.value()));
    } else {
      return InvalidArgumentError("unrecognized schedule line: " + line);
    }
  }
  if (!saw_header) {
    return InvalidArgumentError("schedule text missing 'schedule <name>' header");
  }
  return schedule;
}

FaultSchedule FaultSchedule::Without(size_t index) const {
  FaultSchedule out;
  out.name = name;
  for (size_t i = 0; i < events.size(); ++i) {
    if (i != index) {
      out.events.push_back(events[i]);
    }
  }
  return out;
}

FaultSchedule FaultSchedule::Truncated(size_t n) const {
  FaultSchedule out;
  out.name = name;
  out.events.assign(events.begin(),
                    events.begin() + static_cast<ptrdiff_t>(std::min(n, events.size())));
  return out;
}

std::string FaultSchedule::ToString() const {
  std::string out = "schedule '" + name + "' (" + std::to_string(events.size()) + " events)\n";
  for (const FaultEvent& ev : events) {
    out += "  " + ev.ToString() + "\n";
  }
  return out;
}

std::vector<std::string> ScheduleTemplateNames() {
  return {"crash_churn", "partitions", "flaky_links", "phase_crash", "torn_disk",
          "gray_host",   "gray_mixed"};
}

FaultSchedule MakeScheduleFromTemplate(const std::string& template_name, uint64_t seed,
                                       const ScheduleTemplateParams& params) {
  WVOTE_CHECK_MSG(!params.rep_hosts.empty(), "schedule template needs representatives");
  Rng rng(MixSeed(template_name, seed));
  FaultSchedule schedule;
  if (template_name == "crash_churn") {
    schedule = CrashChurn(rng, params);
  } else if (template_name == "partitions") {
    schedule = Partitions(rng, params);
  } else if (template_name == "flaky_links") {
    schedule = FlakyLinks(rng, params);
  } else if (template_name == "phase_crash") {
    schedule = PhaseCrash(rng, params);
  } else if (template_name == "torn_disk") {
    schedule = TornDisk(rng, params);
  } else if (template_name == "gray_host") {
    schedule = GrayHost(rng, params);
  } else if (template_name == "gray_mixed") {
    schedule = GrayMixed(rng, params);
  } else {
    WVOTE_CHECK_MSG(false, "unknown schedule template");
  }
  SortByTime(&schedule);
  return schedule;
}

FaultSchedule CrashRestartSchedule(const std::vector<std::string>& hosts,
                                   const FaultProfile& profile, Duration horizon,
                                   uint64_t seed) {
  FaultSchedule schedule;
  schedule.name = "crash_restart";
  for (size_t i = 0; i < hosts.size(); ++i) {
    Rng rng(seed + i);
    auto draw = [&rng](Duration mean) {
      return Duration::Micros(
          static_cast<int64_t>(rng.NextExponential(static_cast<double>(mean.ToMicros()))));
    };
    for (Duration t = draw(profile.mttf); t < horizon;) {
      FaultEvent ev;
      ev.at = t;
      ev.action = FaultAction::kCrashRestart;
      ev.host = hosts[i];
      ev.duration = draw(profile.mttr);
      t += ev.duration;
      t += draw(profile.mttf);
      schedule.events.push_back(std::move(ev));
    }
  }
  SortByTime(&schedule);
  return schedule;
}

}  // namespace wvote
