// Workload generator, fault profiles and the crash/restart schedules built
// from them.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/chaos/schedule.h"
#include "src/core/cluster.h"
#include "src/workload/fault_injector.h"
#include "src/workload/generator.h"

namespace wvote {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>();
    for (int i = 0; i < 3; ++i) {
      cluster_->AddRepresentative("rep-" + std::to_string(i));
    }
    config_ = SuiteConfig::MakeUniform("f", {"rep-0", "rep-1", "rep-2"}, 2, 2);
    ASSERT_TRUE(cluster_->CreateSuite(config_, "init").ok());
    client_ = cluster_->AddClient("client", config_);
  }

  std::unique_ptr<Cluster> cluster_;
  SuiteConfig config_;
  SuiteClient* client_ = nullptr;
};

TEST_F(WorkloadTest, ClosedLoopProducesOps) {
  WorkloadOptions opts;
  opts.read_fraction = 0.5;
  opts.mean_think_time = Duration::Millis(50);
  opts.run_length = Duration::Seconds(20);
  WorkloadStats stats;
  SuiteStoreAdapter store(client_);
  Spawn(RunClosedLoopClient(&cluster_->sim(), &store, opts, 1, &stats));
  cluster_->sim().Run();
  EXPECT_GT(stats.reads_ok, 20u);
  EXPECT_GT(stats.writes_ok, 20u);
  EXPECT_EQ(stats.read_failures + stats.write_failures, 0u);
  EXPECT_EQ(stats.read_latency.count(), stats.reads_ok);
  EXPECT_EQ(stats.write_latency.count(), stats.writes_ok);
}

TEST_F(WorkloadTest, ReadFractionRespected) {
  WorkloadOptions opts;
  opts.read_fraction = 0.9;
  opts.mean_think_time = Duration::Millis(20);
  opts.run_length = Duration::Seconds(60);
  WorkloadStats stats;
  SuiteStoreAdapter store(client_);
  Spawn(RunClosedLoopClient(&cluster_->sim(), &store, opts, 2, &stats));
  cluster_->sim().Run();
  const double read_share = static_cast<double>(stats.reads_ok) /
                            static_cast<double>(stats.reads_ok + stats.writes_ok);
  EXPECT_NEAR(read_share, 0.9, 0.04);
}

TEST_F(WorkloadTest, PureReadWorkloadNeverWrites) {
  WorkloadOptions opts;
  opts.read_fraction = 1.0;
  opts.run_length = Duration::Seconds(5);
  WorkloadStats stats;
  SuiteStoreAdapter store(client_);
  Spawn(RunClosedLoopClient(&cluster_->sim(), &store, opts, 3, &stats));
  cluster_->sim().Run();
  EXPECT_EQ(stats.writes_ok + stats.write_failures, 0u);
  EXPECT_GT(stats.reads_ok, 0u);
}

TEST_F(WorkloadTest, ValueSizePadsWrites) {
  WorkloadOptions opts;
  opts.read_fraction = 0.0;
  opts.run_length = Duration::Seconds(5);
  opts.value_size = 4096;
  WorkloadStats stats;
  SuiteStoreAdapter store(client_);
  Spawn(RunClosedLoopClient(&cluster_->sim(), &store, opts, 4, &stats));
  cluster_->sim().Run();
  ASSERT_GT(stats.writes_ok, 0u);
  Result<std::string> r = cluster_->RunTask(client_->ReadOnce());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 4096u);
}

TEST_F(WorkloadTest, StatsMergeAddsUp) {
  WorkloadStats a;
  WorkloadStats b;
  a.reads_ok = 3;
  a.read_latency.Record(Duration::Millis(10));
  b.reads_ok = 4;
  b.write_failures = 2;
  a.MergeFrom(b);
  EXPECT_EQ(a.reads_ok, 7u);
  EXPECT_EQ(a.write_failures, 2u);
  EXPECT_EQ(a.ops_ok(), 7u);
}

TEST_F(WorkloadTest, ThroughputComputation) {
  WorkloadStats s;
  s.reads_ok = 100;
  s.writes_ok = 20;
  EXPECT_DOUBLE_EQ(s.throughput_per_sec(Duration::Seconds(60)), 2.0);
}

TEST(FaultProfileTest, AvailabilityMath) {
  FaultProfile p = ProfileForAvailability(0.9, Duration::Seconds(10));
  // mttf = 10s * 0.9 / 0.1 = 90s
  EXPECT_NEAR(p.mttf.ToSeconds(), 90.0, 0.01);
  EXPECT_EQ(p.mttr, Duration::Seconds(10));
}

// Total downtime of a schedule's crashes, checking on the way that each
// crash hits `host` while it is up and starts before `horizon`.
Duration CheckedDowntime(const FaultSchedule& s, const std::string& host, Duration horizon) {
  Duration downtime;
  Duration up_since;
  for (const FaultEvent& ev : s.events) {
    EXPECT_EQ(ev.action, FaultAction::kCrashRestart);
    EXPECT_EQ(ev.host, host);
    EXPECT_GE(ev.at, up_since);
    EXPECT_LT(ev.at, horizon);
    up_since = ev.at + ev.duration;
    downtime += ev.duration;
  }
  return downtime;
}

TEST(CrashRestartScheduleTest, HostCyclesWithinHorizon) {
  const Duration horizon = Duration::Seconds(600);
  const FaultSchedule s = CrashRestartSchedule(
      {"flaky"}, {Duration::Seconds(20), Duration::Seconds(5)}, horizon, /*seed=*/7);
  EXPECT_GT(s.events.size(), 10u);
  // Steady-state availability 20/25 = 0.8: downtime should be ~20% of 600s.
  EXPECT_NEAR(CheckedDowntime(s, "flaky", horizon).ToSeconds() / 600.0, 0.2, 0.1);
}

// The exact instants of one host's stream: every draw is whole µs, in the
// order up, down, up, down, ... A change to that order moves every
// crash-injected experiment, so it must show here first.
TEST(CrashRestartScheduleTest, PinsDrawOrder) {
  const FaultSchedule s = CrashRestartSchedule(
      {"h0"}, {Duration::Seconds(20), Duration::Seconds(5)}, Duration::Seconds(120),
      /*seed=*/7);
  const std::vector<std::pair<int64_t, int64_t>> expected = {
      {7117034, 6387177},   {17000150, 95416},      {17279200, 680393},
      {73978672, 11295914}, {103415927, 9425426},
  };
  ASSERT_EQ(s.events.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(s.events[i].at.ToMicros(), expected[i].first) << i;
    EXPECT_EQ(s.events[i].duration.ToMicros(), expected[i].second) << i;
  }
}

// Host i draws from seed + i, so adding a host leaves the others' crashes
// where they were; the merged schedule is in time order.
TEST(CrashRestartScheduleTest, HostIDrawsFromSeedPlusI) {
  const FaultProfile profile{Duration::Seconds(20), Duration::Seconds(5)};
  const Duration horizon = Duration::Seconds(300);
  const FaultSchedule both = CrashRestartSchedule({"a", "b"}, profile, horizon, 7);
  const FaultSchedule a = CrashRestartSchedule({"a"}, profile, horizon, 7);
  const FaultSchedule b = CrashRestartSchedule({"b"}, profile, horizon, 8);
  ASSERT_EQ(both.events.size(), a.events.size() + b.events.size());
  std::vector<FaultEvent> merged = a.events;
  merged.insert(merged.end(), b.events.begin(), b.events.end());
  std::stable_sort(merged.begin(), merged.end(),
                   [](const FaultEvent& x, const FaultEvent& y) { return x.at < y.at; });
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(both.events[i].ToLine(), merged[i].ToLine()) << i;
  }
}

TEST(ZipfianSamplerTest, ZeroExponentIsUniform) {
  ZipfianSampler zipf(4, 0.0);
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(zipf.ProbabilityOf(k), 0.25, 1e-12);
  }
}

TEST(ZipfianSamplerTest, SkewFavorsLowRanksAndMatchesAnalyticMass) {
  ZipfianSampler zipf(8, 1.0);
  EXPECT_GT(zipf.ProbabilityOf(0), zipf.ProbabilityOf(1));
  EXPECT_GT(zipf.ProbabilityOf(1), zipf.ProbabilityOf(7));
  double total = 0;
  for (size_t k = 0; k < 8; ++k) {
    total += zipf.ProbabilityOf(k);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);

  Rng rng(42);
  std::vector<int> hits(8, 0);
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    ++hits[zipf.Sample(&rng)];
  }
  for (size_t k = 0; k < 8; ++k) {
    EXPECT_NEAR(static_cast<double>(hits[k]) / draws, zipf.ProbabilityOf(k), 0.02);
  }
}

TEST(ZipfianSamplerTest, SamplingIsSeedDeterministic) {
  ZipfianSampler zipf(16, 0.99);
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zipf.Sample(&a), zipf.Sample(&b));
  }
}

TEST(CrashRestartScheduleTest, ApproximatesTargetAvailability) {
  const Duration horizon = Duration::Seconds(3000);
  const FaultSchedule s = CrashRestartSchedule(
      {"flaky"}, ProfileForAvailability(0.95, Duration::Seconds(2)), horizon, /*seed=*/9);
  const double downtime_share = CheckedDowntime(s, "flaky", horizon).ToSeconds() / 3000.0;
  EXPECT_NEAR(downtime_share, 0.05, 0.025);
}

}  // namespace
}  // namespace wvote
