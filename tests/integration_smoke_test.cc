// End-to-end smoke tests: a three-representative suite on a simulated
// network, exercised through the full stack (client -> RPC -> locks ->
// intentions log -> 2PC -> stable storage).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/core/cluster.h"

namespace wvote {
namespace {

SuiteConfig ThreeRepConfig() {
  SuiteConfig cfg = SuiteConfig::MakeUniform("alpha", {"rep-a", "rep-b", "rep-c"},
                                             /*r=*/2, /*w=*/2);
  return cfg;
}

class SmokeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>();
    for (const char* name : {"rep-a", "rep-b", "rep-c"}) {
      cluster_->AddRepresentative(name);
    }
    config_ = ThreeRepConfig();
    ASSERT_TRUE(config_.Validate().ok());
    ASSERT_TRUE(cluster_->CreateSuite(config_, "genesis").ok());
    client_ = cluster_->AddClient("client-1", config_);
  }

  std::unique_ptr<Cluster> cluster_;
  SuiteConfig config_;
  SuiteClient* client_ = nullptr;
};

Task<int> SleepThenReturn(Simulator* sim, Duration d, int value) {
  co_await sim->Sleep(d);
  co_return value;
}

// A task that outlives its RunTaskFor limit keeps running detached; when it
// finishes it must not write into the (gone) frame of that call, and must
// not end a later RunTaskFor early with its own result.
TEST_F(SmokeTest, RunTaskForSurvivesATaskThatOutlivesItsLimit) {
  Simulator& sim = cluster_->sim();
  sim.Schedule(Duration::Seconds(2), [] {});  // moves the clock past the limit
  EXPECT_FALSE(cluster_->RunTaskFor(SleepThenReturn(&sim, Duration::Seconds(10), 1),
                                    Duration::Seconds(1))
                   .has_value());
  const TimePoint start = sim.Now();
  std::optional<int> second = cluster_->RunTaskFor(
      SleepThenReturn(&sim, Duration::Seconds(20), 2), Duration::Seconds(30));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, 2);
  EXPECT_EQ(sim.Now().ToMicros(), (start + Duration::Seconds(20)).ToMicros());
}

TEST_F(SmokeTest, ReadInitialContents) {
  Result<std::string> contents = cluster_->RunTask(client_->ReadOnce());
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_EQ(contents.value(), "genesis");
}

TEST_F(SmokeTest, WriteThenRead) {
  Status st = cluster_->RunTask(client_->WriteOnce("v2 contents"));
  ASSERT_TRUE(st.ok()) << st.ToString();
  Result<std::string> contents = cluster_->RunTask(client_->ReadOnce());
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_EQ(contents.value(), "v2 contents");
}

TEST_F(SmokeTest, WriteInstallsAtAWriteQuorum) {
  ASSERT_TRUE(cluster_->RunTask(client_->WriteOnce("payload")).ok());
  // The client ack precedes phase-2 delivery (async commit); drain the
  // simulation so the installs land before inspecting replica state.
  cluster_->sim().RunFor(Duration::Seconds(1));
  int current = 0;
  for (const char* name : {"rep-a", "rep-b", "rep-c"}) {
    Result<VersionedValue> value = cluster_->representative(name)->CurrentValue("alpha");
    ASSERT_TRUE(value.ok());
    if (value.value().version == 2) {
      EXPECT_EQ(value.value().contents, "payload");
      ++current;
    }
  }
  EXPECT_GE(current, 2);  // at least w representatives current
}

TEST_F(SmokeTest, VersionsAdvanceMonotonically) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cluster_->RunTask(client_->WriteOnce("gen " + std::to_string(i))).ok());
  }
  Result<std::string> contents = cluster_->RunTask(client_->ReadOnce());
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value(), "gen 4");
  Version max_version = 0;
  for (const char* name : {"rep-a", "rep-b", "rep-c"}) {
    Result<VersionedValue> value = cluster_->representative(name)->CurrentValue("alpha");
    ASSERT_TRUE(value.ok());
    max_version = std::max(max_version, value.value().version);
  }
  EXPECT_EQ(max_version, 6u);  // bootstrap=1 plus five writes
}

TEST_F(SmokeTest, ReadWriteTransactionIsAtomic) {
  SuiteTransaction txn = client_->Begin();
  Result<std::string> before = cluster_->RunTask(txn.Read());
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(txn.Write(before.value() + "+appended").ok());
  Status st = cluster_->RunTask(txn.Commit());
  ASSERT_TRUE(st.ok()) << st.ToString();

  Result<std::string> after = cluster_->RunTask(client_->ReadOnce());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), "genesis+appended");
}

TEST_F(SmokeTest, SurvivesMinorityCrash) {
  cluster_->net().FindHost("rep-c")->Crash();
  Status st = cluster_->RunTask(client_->WriteOnce("despite crash"));
  EXPECT_TRUE(st.ok()) << st.ToString();
  Result<std::string> contents = cluster_->RunTask(client_->ReadOnce());
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_EQ(contents.value(), "despite crash");
}

TEST_F(SmokeTest, MajorityCrashBlocksWrites) {
  cluster_->net().FindHost("rep-b")->Crash();
  cluster_->net().FindHost("rep-c")->Crash();
  SuiteClientOptions fast;
  fast.probe_timeout = Duration::Millis(200);
  SuiteClient* impatient = cluster_->AddClient("client-2", config_, fast);
  Status st = cluster_->RunTask(impatient->WriteOnce("should fail", /*retries=*/1));
  EXPECT_FALSE(st.ok());
}

TEST_F(SmokeTest, EveryCommittedWriteProducesACompleteSpanTree) {
  cluster_->tracer().Enable(true);
  const int kWrites = 3;
  for (int i = 0; i < kWrites; ++i) {
    ASSERT_TRUE(cluster_->RunTask(client_->WriteOnce("w" + std::to_string(i))).ok());
  }
  cluster_->sim().RunFor(Duration::Seconds(1));  // drain the async phase 2

  std::vector<Span> spans = cluster_->tracer().Snapshot();
  std::map<uint64_t, const Span*> by_id;
  std::map<uint64_t, std::vector<const Span*>> children;
  std::vector<const Span*> roots;
  for (const Span& s : spans) {
    by_id[s.span_id] = &s;
    children[s.parent_id].push_back(&s);
    if (s.parent_id == 0 && s.name == "client.write") {
      roots.push_back(&s);
    }
  }
  ASSERT_EQ(roots.size(), static_cast<size_t>(kWrites));

  for (const Span* root : roots) {
    EXPECT_FALSE(root->open);
    // Healthy cluster: exactly one attempt per write.
    ASSERT_EQ(children[root->span_id].size(), 1u);
    const Span* txn = children[root->span_id][0];
    ASSERT_EQ(txn->name, "client.txn");

    // The attempt decomposes into the protocol phases, each exactly once.
    std::map<std::string, int> phases;
    int64_t phase_micros = 0;
    for (const Span* c : children[txn->span_id]) {
      if (c->name.rfind("phase.", 0) == 0) {
        ++phases[c->name];
        phase_micros += c->duration().ToMicros();
      }
    }
    EXPECT_EQ(phases["phase.gather"], 1);
    EXPECT_EQ(phases["phase.prepare"], 1);
    EXPECT_EQ(phases["phase.disk"], 1);
    EXPECT_EQ(phases["phase.commit_ack"], 1);

    // Per-phase latency attribution must account for the whole operation:
    // simulated time only advances at awaits, and the phases ARE the
    // attempt's awaits, so their durations tile the attempt span. Allow 5%
    // for any bookkeeping gaps.
    const int64_t txn_micros = txn->duration().ToMicros();
    ASSERT_GT(txn_micros, 0);
    EXPECT_LE(std::abs(phase_micros - txn_micros), txn_micros / 20)
        << "phases sum to " << phase_micros << "us, attempt took " << txn_micros
        << "us:\n"
        << cluster_->tracer().DumpTree(root->trace_id);

    // Every RPC issued on behalf of the write shows up in the tree: walk the
    // whole trace, count client-side rpc.* spans, and require each to have
    // its server-side handle.* child.
    int rpcs = 0;
    for (const Span& s : spans) {
      if (s.trace_id != root->trace_id || s.name.rfind("rpc.", 0) != 0) {
        continue;
      }
      ++rpcs;
      bool handled = false;
      for (const Span* c : children[s.span_id]) {
        handled |= c->name.rfind("handle.", 0) == 0;
      }
      EXPECT_TRUE(handled) << s.name << " has no server-side handle span";
    }
    // At least: two version probes (w=2), two prepares, two commits.
    EXPECT_GE(rpcs, 6) << cluster_->tracer().DumpTree(root->trace_id);

    // The background fan-out is causally attached to the attempt, not to a
    // fresh root.
    bool has_background = false;
    for (const Span* c : children[txn->span_id]) {
      has_background |= c->name == "phase2.background";
    }
    EXPECT_TRUE(has_background);
  }
}

}  // namespace
}  // namespace wvote
