// E12 — chaos sweep: N seeds x schedule templates x suite configurations,
// checked against the weighted-voting consistency spec.
//
// Every valid configuration (r + w > V, 2w > V) must pass the history
// checker under every fault schedule; the deliberately broken negative
// control (r + w <= V) must be flagged under partitions. On a valid-config
// failure the schedule is minimized by greedy replay and dumped — history,
// minimized schedule, metrics — as a replayable artifact; the negative
// control's first failure is minimized too and its artifact is replayed
// in-process to prove the dump reproduces the verdict bit-for-bit.
//
//   bench_chaos [--smoke] [--seeds=N] [--artifacts=DIR] [--replay=FILE]
//               [--metrics[=json]] [--trace=FILE]
//
// Exit status: 0 iff all valid configs passed AND the negative control was
// flagged AND its artifact replayed to the identical report.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/chaos/runner.h"

namespace wvote {
namespace {

std::string g_artifacts_dir;

std::string WriteArtifact(const std::string& stem, const ChaosRunSpec& spec,
                          const FaultSchedule& schedule, const ChaosRunOutcome& outcome) {
  const std::string dir = g_artifacts_dir.empty() ? "." : g_artifacts_dir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort; open() reports failure
  const std::string path = dir + "/" + stem + ".chaos.txt";
  std::ofstream f(path);
  f << DumpArtifact(spec, schedule, outcome);
  return path;
}

// Minimizes, dumps, and reports one failing run. Returns the artifact path.
std::string HandleFailure(const char* label, const ChaosRunSpec& spec,
                          const ChaosRunOutcome& outcome) {
  std::printf("%s: seed=%llu template=%s suite=%s FAILED the checker (%zu violations)\n",
              label, static_cast<unsigned long long>(spec.seed),
              spec.schedule_template.c_str(), spec.suite.name.c_str(),
              outcome.check.violations.size());
  FaultSchedule minimized = MinimizeSchedule(spec, outcome.schedule);
  // Re-run the minimized schedule with scraping on so the artifact carries a
  // flight-recorder tail (SLO events + series around the failure). Scraping
  // is replay-invisible: the section sits past the `---` markers ParseArtifact
  // reads, and the run itself is bit-identical either way.
  ChaosRunSpec recorded = spec;
  recorded.scrape_resolution = Duration::Millis(10);
  ChaosRunOutcome replay = RunChaosWithSchedule(recorded, minimized);
  std::printf("%s: schedule minimized %zu -> %zu events\n", label,
              outcome.schedule.events.size(), minimized.events.size());
  std::fputs(replay.check.Report(minimized).c_str(), stdout);
  const std::string stem = std::string(label) + "-seed" + std::to_string(spec.seed) + "-" +
                           spec.schedule_template + "-" + spec.suite.name;
  const std::string path = WriteArtifact(stem, spec, minimized, replay);
  std::printf("%s: artifact %s (replay with: chaos_cli replay %s)\n", label, path.c_str(),
              path.c_str());
  return path;
}

int ReplayArtifactFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << f.rdbuf();
  Result<ChaosReplayFile> replay = ParseArtifact(buf.str());
  if (!replay.ok()) {
    std::fprintf(stderr, "parse error: %s\n", replay.status().ToString().c_str());
    return 2;
  }
  ChaosRunOutcome outcome =
      RunChaosWithSchedule(replay.value().spec, replay.value().schedule);
  std::fputs(outcome.check.Report(replay.value().schedule).c_str(), stdout);
  return outcome.check.ok() ? 0 : 1;
}

int RunSweep(int seeds_per_cell, MetricsMode metrics_mode) {
  const std::vector<std::string> templates = ScheduleTemplateNames();
  std::vector<ChaosSuiteSpec> suites = DefaultSuiteSpecs();
  if (g_bench_smoke) {
    suites.resize(2);  // r1w3x3 + r2w2x3 keep smoke in seconds
  }

  int runs = 0;
  int failures = 0;
  uint64_t ok_ops = 0;
  uint64_t ambiguous_ops = 0;
  uint64_t nemesis_events = 0;
  std::printf("# chaos sweep: %d seeds x %zu templates x %zu suites = %zu runs\n",
              seeds_per_cell, templates.size(), suites.size(),
              static_cast<size_t>(seeds_per_cell) * templates.size() * suites.size());
  std::printf("%-14s %-14s %6s %9s %9s %9s %6s\n", "template", "suite", "runs", "ok_ops",
              "ambig", "nemesis", "fail");
  for (const std::string& tmpl : templates) {
    for (const ChaosSuiteSpec& suite : suites) {
      int cell_failures = 0;
      uint64_t cell_ok = 0;
      uint64_t cell_ambiguous = 0;
      uint64_t cell_nemesis = 0;
      std::string last_metrics;
      for (int seed = 1; seed <= seeds_per_cell; ++seed) {
        ChaosRunSpec spec;
        spec.seed = static_cast<uint64_t>(seed);
        spec.schedule_template = tmpl;
        spec.suite = suite;
        ChaosRunOutcome outcome = RunChaos(spec);
        ++runs;
        cell_ok += outcome.check.ok_reads + outcome.check.ok_writes;
        cell_ambiguous += outcome.check.ambiguous_ops;
        cell_nemesis += outcome.nemesis_events_applied;
        last_metrics = std::move(outcome.metrics_json);
        if (!outcome.check.ok()) {
          ++cell_failures;
          HandleFailure("valid-config", spec, outcome);
        }
      }
      std::printf("%-14s %-14s %6d %9llu %9llu %9llu %6d\n", tmpl.c_str(),
                  suite.name.c_str(), seeds_per_cell,
                  static_cast<unsigned long long>(cell_ok),
                  static_cast<unsigned long long>(cell_ambiguous),
                  static_cast<unsigned long long>(cell_nemesis), cell_failures);
      if (metrics_mode == MetricsMode::kJson && !last_metrics.empty()) {
        std::printf("{\"metrics_tag\":\"chaos/%s/%s\",\"metrics\":%s}\n", tmpl.c_str(),
                    suite.name.c_str(), last_metrics.c_str());
      }
      failures += cell_failures;
      ok_ops += cell_ok;
      ambiguous_ops += cell_ambiguous;
      nemesis_events += cell_nemesis;
    }
  }
  // Strategy-rotation sweep: the same checker, but every workload client is
  // cycled through the probing policies (cheapest -> load-optimal ->
  // fewest-messages) mid-run while the nemesis is active. Rotation only
  // changes which current representatives a quorum is gathered from — the
  // consistency spec (R-VALUE, RW-ORDER, convergence) must hold across every
  // switch, including switches racing crashes and partitions.
  const ChaosSuiteSpec rotation_suite =
      g_bench_smoke ? suites[1] : ChaosSuiteSpec{"weighted-r2w4", {2, 2, 1}, 2, 4, false};
  uint64_t total_rotations = 0;
  for (const std::string& tmpl : templates) {
    int cell_failures = 0;
    uint64_t cell_ok = 0;
    uint64_t cell_ambiguous = 0;
    uint64_t cell_nemesis = 0;
    for (int seed = 1; seed <= seeds_per_cell; ++seed) {
      ChaosRunSpec spec;
      spec.seed = static_cast<uint64_t>(seed);
      spec.schedule_template = tmpl;
      spec.suite = rotation_suite;
      spec.rotate_strategies = true;
      ChaosRunOutcome outcome = RunChaos(spec);
      ++runs;
      cell_ok += outcome.check.ok_reads + outcome.check.ok_writes;
      cell_ambiguous += outcome.check.ambiguous_ops;
      cell_nemesis += outcome.nemesis_events_applied;
      total_rotations += outcome.strategy_rotations;
      if (!outcome.check.ok()) {
        ++cell_failures;
        HandleFailure("rotation", spec, outcome);
      }
    }
    std::printf("%-14s %-14s %6d %9llu %9llu %9llu %6d\n", tmpl.c_str(),
                (rotation_suite.name + "+rot").c_str(), seeds_per_cell,
                static_cast<unsigned long long>(cell_ok),
                static_cast<unsigned long long>(cell_ambiguous),
                static_cast<unsigned long long>(cell_nemesis), cell_failures);
    failures += cell_failures;
    ok_ops += cell_ok;
    ambiguous_ops += cell_ambiguous;
    nemesis_events += cell_nemesis;
  }
  std::printf("# rotation sweep: %llu mid-run policy switches applied\n",
              static_cast<unsigned long long>(total_rotations));
  // Gray-tolerance sweep: the gray templates again, but with the full
  // response stack armed on every workload client (hedged probes, breaker
  // and latency demotion) AND mid-run strategy rotation. Hedges re-route probes to backup representatives, breaker
  // flaps reorder plans while hosts degrade and heal, rotation swaps
  // policies under all of it — none of which may touch quorum arithmetic,
  // so the consistency spec must hold bit for bit. (The plain sweep above
  // already runs the gray templates against DEFAULT clients: gray hosts are
  // slow, not absent, and quorums must still form without any tolerance.)
  for (const std::string& tmpl : {std::string("gray_host"), std::string("gray_mixed")}) {
    for (const ChaosSuiteSpec& suite : suites) {
      int cell_failures = 0;
      uint64_t cell_ok = 0;
      uint64_t cell_ambiguous = 0;
      uint64_t cell_nemesis = 0;
      for (int seed = 1; seed <= seeds_per_cell; ++seed) {
        ChaosRunSpec spec;
        spec.seed = static_cast<uint64_t>(seed);
        spec.schedule_template = tmpl;
        spec.suite = suite;
        spec.gray_tolerance = true;
        spec.rotate_strategies = true;
        ChaosRunOutcome outcome = RunChaos(spec);
        ++runs;
        cell_ok += outcome.check.ok_reads + outcome.check.ok_writes;
        cell_ambiguous += outcome.check.ambiguous_ops;
        cell_nemesis += outcome.nemesis_events_applied;
        if (!outcome.check.ok()) {
          ++cell_failures;
          HandleFailure("gray-tolerance", spec, outcome);
        }
      }
      std::printf("%-14s %-14s %6d %9llu %9llu %9llu %6d\n", tmpl.c_str(),
                  (suite.name + "+gry").c_str(), seeds_per_cell,
                  static_cast<unsigned long long>(cell_ok),
                  static_cast<unsigned long long>(cell_ambiguous),
                  static_cast<unsigned long long>(cell_nemesis), cell_failures);
      failures += cell_failures;
      ok_ops += cell_ok;
      ambiguous_ops += cell_ambiguous;
      nemesis_events += cell_nemesis;
    }
  }
  std::printf("# sweep total: %d runs, %llu ok ops, %llu ambiguous, %llu nemesis events, "
              "%d checker failures\n",
              runs, static_cast<unsigned long long>(ok_ops),
              static_cast<unsigned long long>(ambiguous_ops),
              static_cast<unsigned long long>(nemesis_events), failures);
  return failures;
}

// E15 — flight-recorder showcase: one partition run with sim-time scraping
// on. The mid-run partition must drive the read-availability SLO into
// breach and back to recovery (the dip-and-recover in the exported series,
// as judged by the windowed burn-rate engine), leave an slo-breach
// breadcrumb in the trace tail, and attach a non-empty flight record.
// Scraping is pure observation — scrape_determinism_test pins that the run
// itself is bit-identical with it on or off. The r2w2x3 suite is the right
// victim: the partitions template always leaves a one-rep side, so any
// client scattered there cannot gather a 2-vote read quorum until the heal.
int RunSloShowcase() {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    ChaosRunSpec spec;
    spec.seed = seed;
    spec.schedule_template = "partitions";
    spec.suite = DefaultSuiteSpecs()[1];  // r2w2x3
    spec.ops_per_client = 120;  // keep traffic flowing past the heal so recovery windows fill
    spec.scrape_resolution = Duration::Millis(10);
    ChaosRunOutcome outcome = RunChaos(spec);
    if (!outcome.check.ok()) {
      return 1;  // a valid config must never fail the checker, showcase or not
    }
    const std::string& fr = outcome.flight_record;
    const bool breached =
        fr.find("{\"rule\":\"read-availability\",\"breach\":true") != std::string::npos;
    const bool recovered =
        fr.find("{\"rule\":\"read-availability\",\"breach\":false") != std::string::npos;
    const bool breadcrumb = fr.find("slo-breach") != std::string::npos;
    if (!(breached && recovered && breadcrumb)) {
      continue;  // this seed's splits spared every client; try the next
    }
    std::printf("# slo showcase: seed %llu partitions drove read-availability into breach "
                "and back to recovery (%llu rule breaches, %zu-byte flight record)\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(outcome.slo_breaches), fr.size());
    const size_t ev_begin = fr.find("\"slo_events\":");
    const size_t ev_end = fr.find(",\"trace_tail\"");
    if (ev_begin != std::string::npos && ev_end != std::string::npos && ev_end > ev_begin) {
      std::printf("#   %s\n", fr.substr(ev_begin, ev_end - ev_begin).c_str());
    }
    if (g_timeseries.active()) {
      if (!g_timeseries.first) {
        g_timeseries.objects += ",\n";
      }
      g_timeseries.objects += "{\"tag\":\"chaos/slo-showcase\",\"timeseries\":" +
                              outcome.timeseries_json + ",\"flight_record\":" + fr + "}";
      g_timeseries.first = false;
    }
    return 0;
  }
  std::printf("# ERROR: no partition seed in 1..12 produced a read-availability "
              "breach + recovery — the SLO pipeline is not observing the fault\n");
  return 1;
}

// The negative control must fail, its minimized artifact must replay to the
// identical verdict. Returns 0 on (expected failure found + exact replay).
int RunNegativeControl(int max_seeds) {
  for (int seed = 1; seed <= max_seeds; ++seed) {
    ChaosRunSpec spec;
    spec.seed = static_cast<uint64_t>(seed);
    spec.schedule_template = "partitions";
    spec.suite = NegativeControlSuite();
    ChaosRunOutcome outcome = RunChaos(spec);
    if (outcome.check.ok()) {
      continue;
    }
    std::printf("# negative control (r+w<=V) flagged at seed %d, as required:\n", seed);
    const std::string path = HandleFailure("negative-control", spec, outcome);

    // Replay determinism: parse the artifact we just wrote and re-run it.
    std::ifstream f(path);
    std::stringstream buf;
    buf << f.rdbuf();
    Result<ChaosReplayFile> replay = ParseArtifact(buf.str());
    if (!replay.ok()) {
      std::printf("# ERROR: artifact did not parse: %s\n", replay.status().ToString().c_str());
      return 1;
    }
    ChaosRunOutcome first = RunChaosWithSchedule(spec, replay.value().schedule);
    ChaosRunOutcome second =
        RunChaosWithSchedule(replay.value().spec, replay.value().schedule);
    if (first.check.Report(replay.value().schedule) !=
        second.check.Report(replay.value().schedule)) {
      std::printf("# ERROR: replay from dumped artifact diverged\n");
      return 1;
    }
    std::printf("# negative-control artifact replays deterministically\n");
    return 0;
  }
  std::printf("# ERROR: negative control passed the checker on every seed — the harness "
              "cannot detect broken quorum configs\n");
  return 1;
}

int Main(int argc, char** argv) {
  const MetricsMode metrics_mode = ParseBenchFlags(argc, argv);
  int seeds_per_cell = g_bench_smoke ? 2 : 10;
  std::string replay_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seeds=", 8) == 0) {
      seeds_per_cell = std::atoi(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--artifacts=", 12) == 0) {
      g_artifacts_dir = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--replay=", 9) == 0) {
      replay_path = argv[i] + 9;
    }
  }
  if (!replay_path.empty()) {
    return ReplayArtifactFile(replay_path);
  }

  const int sweep_failures = RunSweep(seeds_per_cell, metrics_mode);
  const int showcase_status = RunSloShowcase();
  const int negative_status = RunNegativeControl(g_bench_smoke ? 8 : 10);

  if (g_chrome_trace.active()) {
    // One traced representative run; the sweep itself runs untraced (the
    // span trees of 200+ runs would dwarf the artifact).
    ChaosRunSpec spec;
    spec.seed = 1;
    spec.schedule_template = "crash_churn";
    spec.suite = DefaultSuiteSpecs()[1];
    spec.collect_trace = true;
    ChaosRunOutcome outcome = RunChaos(spec);
    if (!g_chrome_trace.first) {
      g_chrome_trace.events += ",\n";
    }
    g_chrome_trace.events += outcome.chrome_trace;
    g_chrome_trace.first = false;
    WriteChromeTrace();
  }
  WriteTimeseries();

  if (sweep_failures > 0) {
    std::printf("# RESULT: FAIL (%d valid-config checker failures)\n", sweep_failures);
    return 1;
  }
  if (showcase_status != 0) {
    std::printf("# RESULT: FAIL (slo showcase did not observe the partition)\n");
    return 1;
  }
  if (negative_status != 0) {
    std::printf("# RESULT: FAIL (negative control not handled)\n");
    return 1;
  }
  std::printf("# RESULT: OK\n");
  return 0;
}

}  // namespace
}  // namespace wvote

int main(int argc, char** argv) { return wvote::Main(argc, argv); }
