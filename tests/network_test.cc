#include "src/net/network.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace wvote {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : sim_(1), net_(&sim_) {
    a_ = net_.AddHost("a");
    b_ = net_.AddHost("b");
    c_ = net_.AddHost("c");
  }

  std::vector<std::string> DeliveredAt(Host* host) {
    auto log = std::make_shared<std::vector<std::string>>();
    host->SetMessageHandler([log](Message msg) {
      log->push_back(std::any_cast<std::string>(msg.payload));
    });
    logs_.push_back(log);
    return {};
  }

  Simulator sim_;
  Network net_;
  Host* a_;
  Host* b_;
  Host* c_;
  std::vector<std::shared_ptr<std::vector<std::string>>> logs_;
};

TEST_F(NetworkTest, DeliversWithLinkLatency) {
  net_.SetDefaultLink(LatencyModel::Fixed(Duration::Millis(7)));
  std::string got;
  TimePoint when;
  b_->SetMessageHandler([&](Message msg) {
    got = std::any_cast<std::string>(msg.payload);
    when = sim_.Now();
  });
  net_.Send(a_->id(), b_->id(), std::string("ping"));
  sim_.Run();
  EXPECT_EQ(got, "ping");
  EXPECT_EQ(when, TimePoint() + Duration::Millis(7));
}

TEST_F(NetworkTest, LinkOverridesBeatDefault) {
  net_.SetDefaultLink(LatencyModel::Fixed(Duration::Millis(100)));
  net_.SetLink(a_->id(), b_->id(), LatencyModel::Fixed(Duration::Millis(3)));
  TimePoint when;
  b_->SetMessageHandler([&](Message msg) { when = sim_.Now(); });
  net_.Send(a_->id(), b_->id(), std::string("x"));
  sim_.Run();
  EXPECT_EQ(when, TimePoint() + Duration::Millis(3));
}

TEST_F(NetworkTest, SymmetricLinkSetsBothDirections) {
  net_.SetSymmetricLink(a_->id(), b_->id(), LatencyModel::Fixed(Duration::Millis(4)));
  EXPECT_EQ(net_.ExpectedLatency(a_->id(), b_->id()), Duration::Millis(4));
  EXPECT_EQ(net_.ExpectedLatency(b_->id(), a_->id()), Duration::Millis(4));
}

TEST_F(NetworkTest, SelfLatencyIsZero) {
  EXPECT_EQ(net_.ExpectedLatency(a_->id(), a_->id()), Duration::Zero());
}

TEST_F(NetworkTest, DownSourceDropsSilently) {
  bool delivered = false;
  b_->SetMessageHandler([&](Message) { delivered = true; });
  a_->Crash();
  net_.Send(a_->id(), b_->id(), std::string("x"));
  sim_.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net_.stats().dropped_source_down, 1u);
}

TEST_F(NetworkTest, CrashMidFlightLosesMessage) {
  net_.SetDefaultLink(LatencyModel::Fixed(Duration::Millis(10)));
  bool delivered = false;
  b_->SetMessageHandler([&](Message) { delivered = true; });
  net_.Send(a_->id(), b_->id(), std::string("x"));
  sim_.Schedule(Duration::Millis(5), [&] { b_->Crash(); });
  sim_.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net_.stats().dropped_dest_down, 1u);
}

TEST_F(NetworkTest, RestartedHostReceivesNewMessages) {
  bool delivered = false;
  b_->SetMessageHandler([&](Message) { delivered = true; });
  b_->Crash();
  b_->Restart();
  net_.Send(a_->id(), b_->id(), std::string("x"));
  sim_.Run();
  EXPECT_TRUE(delivered);
}

TEST_F(NetworkTest, PartitionBlocksCrossGroupTraffic) {
  bool delivered = false;
  b_->SetMessageHandler([&](Message) { delivered = true; });
  net_.Partition({{a_->id()}, {b_->id(), c_->id()}});
  EXPECT_FALSE(net_.Reachable(a_->id(), b_->id()));
  EXPECT_TRUE(net_.Reachable(b_->id(), c_->id()));
  net_.Send(a_->id(), b_->id(), std::string("x"));
  sim_.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net_.stats().dropped_partition, 1u);
}

TEST_F(NetworkTest, UnlistedHostsShareImplicitGroup) {
  net_.Partition({{a_->id()}});
  EXPECT_TRUE(net_.Reachable(b_->id(), c_->id()));
  EXPECT_FALSE(net_.Reachable(a_->id(), b_->id()));
}

TEST_F(NetworkTest, HealRestoresConnectivity) {
  bool delivered = false;
  b_->SetMessageHandler([&](Message) { delivered = true; });
  net_.Partition({{a_->id()}, {b_->id()}});
  net_.HealPartition();
  net_.Send(a_->id(), b_->id(), std::string("x"));
  sim_.Run();
  EXPECT_TRUE(delivered);
}

TEST_F(NetworkTest, SelfSendAlwaysReachable) {
  net_.Partition({{a_->id()}, {b_->id()}});
  EXPECT_TRUE(net_.Reachable(a_->id(), a_->id()));
}

TEST_F(NetworkTest, LossyLinkDropsApproximatelyAtRate) {
  net_.SetDefaultLink(LatencyModel::Fixed(Duration::Millis(1)), /*loss=*/0.25);
  int delivered = 0;
  b_->SetMessageHandler([&](Message) { ++delivered; });
  for (int i = 0; i < 4000; ++i) {
    net_.Send(a_->id(), b_->id(), std::string("x"));
  }
  sim_.Run();
  EXPECT_NEAR(delivered, 3000, 120);
  EXPECT_EQ(net_.stats().dropped_loss + static_cast<uint64_t>(delivered), 4000u);
}

TEST_F(NetworkTest, DuplicatingLinkDeliversTwiceAndCounts) {
  LinkKnobs knobs;
  knobs.dup_probability = 1.0;
  net_.SetDefaultLink(LatencyModel::Fixed(Duration::Millis(1)), knobs);
  int delivered = 0;
  std::map<std::string, int> copies;
  b_->SetMessageHandler([&](Message msg) {
    ++delivered;
    ++copies[std::any_cast<std::string>(msg.payload)];
  });
  // Longer than std::string's inline buffer, so each copy owns its bytes.
  const std::string prefix(40, 'p');
  for (int i = 0; i < 100; ++i) {
    net_.Send(a_->id(), b_->id(), prefix + std::to_string(i));
  }
  sim_.Run();
  EXPECT_EQ(delivered, 200);
  // A raw payload is copied when the link duplicates it: both deliveries
  // arrive intact.
  ASSERT_EQ(copies.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(copies[prefix + std::to_string(i)], 2) << i;
  }
  EXPECT_EQ(net_.stats().duplicated, 100u);
  // Duplicates are extra deliveries, not extra sends.
  EXPECT_EQ(net_.stats().messages_sent, 100u);
  EXPECT_EQ(net_.stats().messages_delivered, 200u);
}

TEST_F(NetworkTest, DelaySpikesStretchLatencyAndCount) {
  LinkKnobs knobs;
  knobs.delay_spike_probability = 1.0;
  knobs.delay_spike = Duration::Millis(50);
  net_.SetDefaultLink(LatencyModel::Fixed(Duration::Millis(1)), knobs);
  TimePoint when;
  b_->SetMessageHandler([&](Message) { when = sim_.Now(); });
  net_.Send(a_->id(), b_->id(), std::string("x"));
  sim_.Run();
  EXPECT_EQ(when.ToMicros(), Duration::Millis(51).ToMicros());
  EXPECT_EQ(net_.stats().delay_spikes, 1u);
}

TEST_F(NetworkTest, SetAllLinkKnobsAppliesToOverridesAndClears) {
  net_.SetLink(a_->id(), b_->id(), LatencyModel::Fixed(Duration::Millis(9)));
  LinkKnobs storm;
  storm.dup_probability = 1.0;
  net_.SetAllLinkKnobs(storm);
  int delivered = 0;
  TimePoint when;
  b_->SetMessageHandler([&](Message) { ++delivered; when = sim_.Now(); });
  net_.Send(a_->id(), b_->id(), std::string("x"));
  sim_.Run();
  // The override's latency survived the knob swap; the message duplicated.
  EXPECT_EQ(when.ToMicros(), Duration::Millis(9).ToMicros());
  EXPECT_EQ(delivered, 2);
  net_.SetAllLinkKnobs(LinkKnobs{});  // all-clear heals the weather
  net_.Send(a_->id(), b_->id(), std::string("x"));
  sim_.Run();
  EXPECT_EQ(delivered, 3);
}

TEST_F(NetworkTest, StatsCountBytes) {
  b_->SetMessageHandler([](Message) {});
  net_.Send(a_->id(), b_->id(), std::string("x"), /*approx_bytes=*/512);
  sim_.Run();
  EXPECT_EQ(net_.stats().bytes_sent, 512u);
  net_.ResetStats();
  EXPECT_EQ(net_.stats().bytes_sent, 0u);
}

TEST_F(NetworkTest, FindHostByName) {
  EXPECT_EQ(net_.FindHost("b"), b_);
  EXPECT_EQ(net_.FindHost("nope"), nullptr);
}

TEST(HostTest, CrashListenersFireOnce) {
  Simulator sim(1);
  Network net(&sim);
  Host* h = net.AddHost("h");
  int crashes = 0;
  int restarts = 0;
  h->AddCrashListener([&] { ++crashes; });
  h->AddRestartListener([&] { ++restarts; });
  h->Crash();
  h->Crash();  // already down: no second event
  EXPECT_EQ(crashes, 1);
  EXPECT_EQ(h->crash_epoch(), 1u);
  h->Restart();
  h->Restart();
  EXPECT_EQ(restarts, 1);
  h->Crash();
  EXPECT_EQ(h->crash_epoch(), 2u);
}

TEST(HostTest, SecondInboxClaimAborts) {
  Simulator sim(1);
  Network net(&sim);
  Host* h = net.AddHost("h");
  h->SetMessageHandler([](Message) {});
  EXPECT_DEATH(h->SetMessageHandler([](Message) {}), "claimed");
}

}  // namespace
}  // namespace wvote
