// RPC layer: request/response, timeouts, retransmission, crash semantics.

#include "src/rpc/rpc.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace wvote {
namespace {

struct EchoReq {
  std::string text;
  EchoReq() = default;
  explicit EchoReq(std::string t) : text(std::move(t)) {}
};
struct EchoResp {
  std::string text;
  EchoResp() = default;
  explicit EchoResp(std::string t) : text(std::move(t)) {}
};
struct SlowReq {
  int delay_ms = 0;
  SlowReq() = default;
  explicit SlowReq(int d) : delay_ms(d) {}
};
struct CountReq {
  CountReq() = default;
};
struct FlakyReq {
  FlakyReq() = default;
};
struct CountResp {
  int count = 0;
  CountResp() = default;
  explicit CountResp(int c) : count(c) {}
};

class RpcTest : public ::testing::Test {
 protected:
  RpcTest() : sim_(1), net_(&sim_) {
    net_.SetDefaultLink(LatencyModel::Fixed(Duration::Millis(5)));
    server_host_ = net_.AddHost("server");
    client_host_ = net_.AddHost("client");
    server_ = std::make_unique<RpcEndpoint>(&net_, server_host_);
    client_ = std::make_unique<RpcEndpoint>(&net_, client_host_);

    server_->Handle<EchoReq, EchoResp>(
        [](HostId from, EchoReq req) -> Task<Result<EchoResp>> {
          co_return EchoResp(req.text + "!");
        });
    server_->Handle<SlowReq, EchoResp>(
        [this](HostId from, SlowReq req) -> Task<Result<EchoResp>> {
          co_await sim_.Sleep(Duration::Millis(req.delay_ms));
          co_return EchoResp("slow done");
        });
    server_->Handle<CountReq, CountResp>(
        [this](HostId from, CountReq) -> Task<Result<CountResp>> {
          co_return CountResp(++count_);
        });
    server_->Handle<FlakyReq, EchoResp>(
        [this](HostId from, FlakyReq) -> Task<Result<EchoResp>> {
          if (++flaky_calls_ <= flaky_fail_first_) {
            co_return UnavailableError("disk refused the request");
          }
          co_return EchoResp("flaky ok");
        });
  }

  template <typename Req, typename Resp>
  Result<Resp> Call(Req req, Duration timeout) {
    auto out = std::make_shared<Result<Resp>>(InternalError("pending"));
    auto runner = [](RpcEndpoint* client, HostId to, Req req, Duration timeout,
                     std::shared_ptr<Result<Resp>> out) -> Task<void> {
      *out = co_await client->Call<Req, Resp>(to, std::move(req), timeout);
    };
    Spawn(runner(client_.get(), server_host_->id(), std::move(req), timeout, out));
    sim_.Run();
    return *out;
  }

  Simulator sim_;
  Network net_;
  Host* server_host_;
  Host* client_host_;
  std::unique_ptr<RpcEndpoint> server_;
  std::unique_ptr<RpcEndpoint> client_;
  int count_ = 0;
  int flaky_calls_ = 0;
  int flaky_fail_first_ = 0;  // FlakyReq returns kUnavailable this many times
};

TEST_F(RpcTest, RoundTrip) {
  Result<EchoResp> r = Call<EchoReq, EchoResp>(EchoReq("hi"), Duration::Seconds(1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().text, "hi!");
  EXPECT_EQ(sim_.Now(), TimePoint() + Duration::Millis(10));  // two 5ms hops
}

TEST_F(RpcTest, SlowHandlerIncludesProcessingTime) {
  Result<EchoResp> r = Call<SlowReq, EchoResp>(SlowReq(100), Duration::Seconds(1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(sim_.Now(), TimePoint() + Duration::Millis(110));
}

TEST_F(RpcTest, TimesOutWhenServerTooSlow) {
  Result<EchoResp> r = Call<SlowReq, EchoResp>(SlowReq(5000), Duration::Millis(50));
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
}

TEST_F(RpcTest, TimesOutWhenServerDown) {
  server_host_->Crash();
  Result<EchoResp> r = Call<EchoReq, EchoResp>(EchoReq("x"), Duration::Millis(50));
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
}

TEST_F(RpcTest, ServerCrashMidHandlerMeansTimeout) {
  sim_.Schedule(Duration::Millis(20), [this] { server_host_->Crash(); });
  Result<EchoResp> r = Call<SlowReq, EchoResp>(SlowReq(100), Duration::Millis(500));
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
}

TEST_F(RpcTest, UnknownRequestTypeTimesOut) {
  struct UnknownReq {};
  Result<EchoResp> r = Call<UnknownReq, EchoResp>(UnknownReq{}, Duration::Millis(50));
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
}

TEST_F(RpcTest, CallerDownAborts) {
  client_host_->Crash();
  Result<EchoResp> r = Call<EchoReq, EchoResp>(EchoReq("x"), Duration::Millis(50));
  EXPECT_EQ(r.status().code(), StatusCode::kAborted);
}

TEST_F(RpcTest, ClientCrashAbortsOutstandingCalls) {
  auto out = std::make_shared<Result<EchoResp>>(InternalError("pending"));
  auto runner = [](RpcEndpoint* client, HostId to,
                   std::shared_ptr<Result<EchoResp>> out) -> Task<void> {
    *out = co_await client->Call<SlowReq, EchoResp>(to, SlowReq(1000), Duration::Seconds(10));
  };
  Spawn(runner(client_.get(), server_host_->id(), out));
  sim_.Schedule(Duration::Millis(20), [this] { client_host_->Crash(); });
  sim_.Run();
  EXPECT_EQ(out->status().code(), StatusCode::kAborted);
}

TEST_F(RpcTest, RetrySucceedsAfterTransientServerOutage) {
  server_host_->Crash();
  sim_.Schedule(Duration::Millis(120), [this] { server_host_->Restart(); });
  auto out = std::make_shared<Result<EchoResp>>(InternalError("pending"));
  auto runner = [](RpcEndpoint* client, HostId to,
                   std::shared_ptr<Result<EchoResp>> out) -> Task<void> {
    *out = co_await client->CallWithRetry<EchoReq, EchoResp>(to, EchoReq("r"),
                                                             Duration::Millis(100),
                                                             /*attempts=*/5);
  };
  Spawn(runner(client_.get(), server_host_->id(), out));
  sim_.Run();
  ASSERT_TRUE(out->ok());
  EXPECT_EQ(out->value().text, "r!");
}

TEST_F(RpcTest, RetryGivesUpAfterAttempts) {
  server_host_->Crash();
  auto out = std::make_shared<Result<EchoResp>>(InternalError("pending"));
  auto runner = [](RpcEndpoint* client, HostId to,
                   std::shared_ptr<Result<EchoResp>> out) -> Task<void> {
    *out = co_await client->CallWithRetry<EchoReq, EchoResp>(to, EchoReq("r"),
                                                             Duration::Millis(50),
                                                             /*attempts=*/3);
  };
  Spawn(runner(client_.get(), server_host_->id(), out));
  sim_.Run();
  EXPECT_EQ(out->status().code(), StatusCode::kTimeout);
  EXPECT_EQ(client_->stats().calls_timeout, 3u);
}

TEST_F(RpcTest, ConcurrentCallsCorrelateCorrectly) {
  auto out1 = std::make_shared<Result<EchoResp>>(InternalError("pending"));
  auto out2 = std::make_shared<Result<EchoResp>>(InternalError("pending"));
  auto runner = [](RpcEndpoint* client, HostId to, std::string text,
                   std::shared_ptr<Result<EchoResp>> out) -> Task<void> {
    *out = co_await client->Call<EchoReq, EchoResp>(to, EchoReq(std::move(text)),
                                                    Duration::Seconds(1));
  };
  Spawn(runner(client_.get(), server_host_->id(), "one", out1));
  Spawn(runner(client_.get(), server_host_->id(), "two", out2));
  sim_.Run();
  EXPECT_EQ(out1->value().text, "one!");
  EXPECT_EQ(out2->value().text, "two!");
}

TEST_F(RpcTest, HandlerRunsOncePerRequest) {
  (void)Call<CountReq, CountResp>(CountReq{}, Duration::Seconds(1));
  Result<CountResp> r = Call<CountReq, CountResp>(CountReq{}, Duration::Seconds(1));
  EXPECT_EQ(r.value().count, 2);
  EXPECT_EQ(server_->stats().requests_handled, 2u);
}

TEST_F(RpcTest, DuplicatingLinkDeliversOneReplyPerCall) {
  // A link that duplicates every packet re-delivers both the request and the
  // reply. The handler legitimately runs once per received request copy (the
  // transport promises at-least-once; idempotency is the application's job),
  // but Call() must consume exactly one reply per call and drop the echoes.
  LinkKnobs knobs;
  knobs.dup_probability = 1.0;
  net_.SetDefaultLink(LatencyModel::Fixed(Duration::Millis(5)), knobs);
  Result<CountResp> first = Call<CountReq, CountResp>(CountReq{}, Duration::Seconds(1));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().count, 1);
  Result<CountResp> second = Call<CountReq, CountResp>(CountReq{}, Duration::Seconds(1));
  ASSERT_TRUE(second.ok());
  // Each call's request arrived twice, so the counter advanced by two per
  // call — and each Call returned exactly once, with its own first reply.
  EXPECT_EQ(second.value().count, 3);
  EXPECT_EQ(server_->stats().requests_handled, 4u);
  EXPECT_EQ(client_->stats().calls_ok, 2u);
  EXPECT_GT(net_.stats().duplicated, 0u);
}

TEST_F(RpcTest, RetryRetriesUnavailableWithBackoff) {
  // Regression: kUnavailable — a live host whose disk refused the request —
  // must be retried like a timeout, with a jittered backoff sleep between
  // attempts.
  flaky_fail_first_ = 2;
  auto out = std::make_shared<Result<EchoResp>>(InternalError("pending"));
  auto runner = [](RpcEndpoint* client, HostId to,
                   std::shared_ptr<Result<EchoResp>> out) -> Task<void> {
    *out = co_await client->CallWithRetry<FlakyReq, EchoResp>(to, FlakyReq{},
                                                              Duration::Seconds(1),
                                                              /*attempts=*/5);
  };
  Spawn(runner(client_.get(), server_host_->id(), out));
  sim_.Run();
  ASSERT_TRUE(out->ok());
  EXPECT_EQ(out->value().text, "flaky ok");
  EXPECT_EQ(server_->stats().requests_handled, 3u);
  // Three 10ms round trips plus two backoff sleeps: strictly more simulated
  // time than the pure wire cost.
  EXPECT_GT(sim_.Now(), TimePoint() + Duration::Millis(30));
}

TEST_F(RpcTest, RetryReturnsUnavailableWhenItNeverHeals) {
  flaky_fail_first_ = 100;
  auto out = std::make_shared<Result<EchoResp>>(InternalError("pending"));
  auto runner = [](RpcEndpoint* client, HostId to,
                   std::shared_ptr<Result<EchoResp>> out) -> Task<void> {
    *out = co_await client->CallWithRetry<FlakyReq, EchoResp>(to, FlakyReq{},
                                                              Duration::Seconds(1),
                                                              /*attempts=*/3);
  };
  Spawn(runner(client_.get(), server_host_->id(), out));
  sim_.Run();
  EXPECT_EQ(out->status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(server_->stats().requests_handled, 3u);
}

TEST_F(RpcTest, HedgedCallBackupWinsAndLateReplyIsDropped) {
  Host* backup_host = net_.AddHost("backup");
  RpcEndpoint backup(&net_, backup_host);
  backup.Handle<SlowReq, EchoResp>([](HostId, SlowReq) -> Task<Result<EchoResp>> {
    co_return EchoResp("backup done");
  });
  auto out = std::make_shared<HedgedReply<EchoResp>>();
  auto runner = [](RpcEndpoint* client, HostId primary, HostId backup_id,
                   std::shared_ptr<HedgedReply<EchoResp>> out) -> Task<void> {
    *out = co_await client->CallHedged<SlowReq, EchoResp>(
        primary, backup_id, SlowReq(200), Duration::Millis(20), Duration::Seconds(1));
  };
  Spawn(runner(client_.get(), server_host_->id(), backup_host->id(), out));
  sim_.Run();  // drains the primary's late reply too
  ASSERT_TRUE(out->reply.ok());
  EXPECT_EQ(out->reply.value().text, "backup done");
  EXPECT_TRUE(out->hedged);
  EXPECT_EQ(out->responder, backup_host->id());
  EXPECT_EQ(client_->stats().hedges_sent, 1u);
  EXPECT_EQ(client_->stats().hedge_wins, 1u);
  // One logical call resolved once; the primary's reply at ~210ms found no
  // outstanding entry and was dropped.
  EXPECT_EQ(client_->stats().calls_ok, 1u);
  EXPECT_EQ(server_->stats().requests_handled, 1u);
}

TEST_F(RpcTest, HedgedCallWithoutBackupIsAPlainCall) {
  // The same request, first through Call and then through CallHedged with no
  // backup host, must schedule the same events: no hedge timer, not even a
  // no-op one. The 1 ms hedge delay is shorter than the 10 ms round trip, so
  // a stray timer would also fire.
  struct Delta {
    uint64_t scheduled;
    uint64_t processed;
    uint64_t cancelled;
    Duration elapsed;
  };
  auto measure = [this](auto run) {
    const SimStats before = sim_.stats();
    const TimePoint start = sim_.Now();
    run();
    sim_.Run();
    const SimStats& after = sim_.stats();
    return Delta{after.events_scheduled - before.events_scheduled,
                 after.events_processed - before.events_processed,
                 after.events_cancelled - before.events_cancelled, sim_.Now() - start};
  };

  auto plain = std::make_shared<Result<EchoResp>>(InternalError("pending"));
  const Delta call = measure([&]() {
    auto runner = [](RpcEndpoint* client, HostId to,
                     std::shared_ptr<Result<EchoResp>> out) -> Task<void> {
      *out = co_await client->Call<EchoReq, EchoResp>(to, EchoReq("hi"), Duration::Seconds(1));
    };
    Spawn(runner(client_.get(), server_host_->id(), plain));
  });
  auto hedged = std::make_shared<HedgedReply<EchoResp>>();
  const Delta unhedged = measure([&]() {
    auto runner = [](RpcEndpoint* client, HostId to,
                     std::shared_ptr<HedgedReply<EchoResp>> out) -> Task<void> {
      *out = co_await client->CallHedged<EchoReq, EchoResp>(
          to, kInvalidHost, EchoReq("hi"), Duration::Millis(1), Duration::Seconds(1));
    };
    Spawn(runner(client_.get(), server_host_->id(), hedged));
  });

  ASSERT_TRUE(plain->ok());
  ASSERT_TRUE(hedged->reply.ok());
  EXPECT_EQ(hedged->reply.value().text, "hi!");
  EXPECT_EQ(hedged->responder, server_host_->id());
  EXPECT_FALSE(hedged->hedged);
  EXPECT_EQ(unhedged.scheduled, call.scheduled);
  EXPECT_EQ(unhedged.processed, call.processed);
  EXPECT_EQ(unhedged.cancelled, call.cancelled);
  EXPECT_EQ(unhedged.elapsed, call.elapsed);
  EXPECT_EQ(client_->stats().hedges_sent, 0u);
}

TEST_F(RpcTest, HedgedCallFastPrimaryNeverFiresBackup) {
  Host* backup_host = net_.AddHost("backup");
  RpcEndpoint backup(&net_, backup_host);
  auto out = std::make_shared<HedgedReply<EchoResp>>();
  auto runner = [](RpcEndpoint* client, HostId primary, HostId backup_id,
                   std::shared_ptr<HedgedReply<EchoResp>> out) -> Task<void> {
    *out = co_await client->CallHedged<EchoReq, EchoResp>(
        primary, backup_id, EchoReq("hi"), Duration::Millis(50), Duration::Seconds(1));
  };
  Spawn(runner(client_.get(), server_host_->id(), backup_host->id(), out));
  sim_.Run();
  ASSERT_TRUE(out->reply.ok());
  EXPECT_EQ(out->reply.value().text, "hi!");
  EXPECT_FALSE(out->hedged);
  EXPECT_EQ(out->responder, server_host_->id());
  EXPECT_EQ(client_->stats().hedges_sent, 0u);
  EXPECT_EQ(client_->stats().hedge_wins, 0u);
  EXPECT_EQ(backup.stats().requests_handled, 0u);
}

TEST_F(RpcTest, DuplicatedHedgeRepliesResolveExactlyOnce) {
  // dup-link x hedged-call idempotency: every packet is duplicated AND the
  // primary's late reply arrives after the hedge already won. Four reply
  // copies reach the client for one logical call; exactly one must resolve
  // it and the counters must agree.
  LinkKnobs knobs;
  knobs.dup_probability = 1.0;
  net_.SetDefaultLink(LatencyModel::Fixed(Duration::Millis(5)), knobs);
  Host* backup_host = net_.AddHost("backup");
  RpcEndpoint backup(&net_, backup_host);
  backup.Handle<SlowReq, EchoResp>([](HostId, SlowReq) -> Task<Result<EchoResp>> {
    co_return EchoResp("backup done");
  });
  auto out = std::make_shared<HedgedReply<EchoResp>>();
  auto runner = [](RpcEndpoint* client, HostId primary, HostId backup_id,
                   std::shared_ptr<HedgedReply<EchoResp>> out) -> Task<void> {
    *out = co_await client->CallHedged<SlowReq, EchoResp>(
        primary, backup_id, SlowReq(200), Duration::Millis(20), Duration::Seconds(1));
  };
  Spawn(runner(client_.get(), server_host_->id(), backup_host->id(), out));
  sim_.Run();
  ASSERT_TRUE(out->reply.ok());
  EXPECT_EQ(out->reply.value().text, "backup done");
  EXPECT_TRUE(out->hedged);
  EXPECT_EQ(out->responder, backup_host->id());
  // Counters agree: one call started, resolved ok exactly once, one hedge
  // sent and won — no double counting from the duplicated replies.
  EXPECT_EQ(client_->stats().calls_started, 1u);
  EXPECT_EQ(client_->stats().calls_ok, 1u);
  EXPECT_EQ(client_->stats().calls_timeout, 0u);
  EXPECT_EQ(client_->stats().hedges_sent, 1u);
  EXPECT_EQ(client_->stats().hedge_wins, 1u);
  // The transport is at-least-once: each duplicated request copy ran the
  // handler on its host.
  EXPECT_EQ(server_->stats().requests_handled, 2u);
  EXPECT_EQ(backup.stats().requests_handled, 2u);
  EXPECT_GT(net_.stats().duplicated, 0u);
}

TEST_F(RpcTest, ClientCrashAbortsEveryOutstandingCallInCallIdOrder) {
  // Four calls go out in order; the second completes (leaving a hole in the
  // middle of the pending list) before the crash aborts the other three.
  // Their resumptions are scheduled in call-id order.
  auto order = std::make_shared<std::vector<int>>();
  auto codes = std::make_shared<std::vector<StatusCode>>(4, StatusCode::kOk);
  auto runner = [](RpcEndpoint* client, HostId to, int index, int delay_ms,
                   std::shared_ptr<std::vector<int>> order,
                   std::shared_ptr<std::vector<StatusCode>> codes) -> Task<void> {
    Result<EchoResp> r =
        co_await client->Call<SlowReq, EchoResp>(to, SlowReq(delay_ms), Duration::Seconds(10));
    (*codes)[static_cast<size_t>(index)] = r.ok() ? StatusCode::kOk : r.status().code();
    order->push_back(index);
  };
  const int delays_ms[] = {1000, 1, 1000, 1000};
  for (int i = 0; i < 4; ++i) {
    Spawn(runner(client_.get(), server_host_->id(), i, delays_ms[i], order, codes));
  }
  sim_.Schedule(Duration::Millis(50), [this] { client_host_->Crash(); });
  sim_.Run();
  EXPECT_EQ(*order, (std::vector<int>{1, 0, 2, 3}));
  EXPECT_EQ((*codes)[1], StatusCode::kOk);
  for (int i : {0, 2, 3}) {
    EXPECT_EQ((*codes)[static_cast<size_t>(i)], StatusCode::kAborted) << "call " << i;
  }
  EXPECT_EQ(client_->stats().calls_aborted, 3u);
}

struct TaggedSlowReq {
  int delay_ms = 0;
  std::string tag;
  TaggedSlowReq() = default;
  TaggedSlowReq(int d, std::string t) : delay_ms(d), tag(std::move(t)) {}
};

TEST_F(RpcTest, LateReplyForAReusedSlotIsDropped) {
  // Call A times out at 20ms; call B, issued at 25ms, takes over the pending
  // entry A vacated. A's reply lands at ~60ms while B is still waiting: it
  // must be dropped, and B must resolve with its own reply.
  server_->Handle<TaggedSlowReq, EchoResp>(
      [this](HostId, TaggedSlowReq req) -> Task<Result<EchoResp>> {
        co_await sim_.Sleep(Duration::Millis(req.delay_ms));
        co_return EchoResp(req.tag);
      });
  auto a = std::make_shared<Result<EchoResp>>(InternalError("pending"));
  auto b = std::make_shared<Result<EchoResp>>(InternalError("pending"));
  auto runner = [](RpcEndpoint* client, HostId to, TaggedSlowReq req, Duration timeout,
                   std::shared_ptr<Result<EchoResp>> out) -> Task<void> {
    *out = co_await client->Call<TaggedSlowReq, EchoResp>(to, std::move(req), timeout);
  };
  const HostId to = server_host_->id();
  Spawn(runner(client_.get(), to, TaggedSlowReq(50, "A"), Duration::Millis(20), a));
  sim_.Schedule(Duration::Millis(25), [this, runner, to, b] {
    Spawn(runner(client_.get(), to, TaggedSlowReq(60, "B"), Duration::Seconds(1), b));
  });
  sim_.Run();
  EXPECT_EQ(a->status().code(), StatusCode::kTimeout);
  ASSERT_TRUE(b->ok()) << b->status().ToString();
  EXPECT_EQ(b->value().text, "B");
  EXPECT_EQ(client_->stats().calls_ok, 1u);
  EXPECT_EQ(client_->stats().calls_timeout, 1u);
  EXPECT_EQ(server_->stats().requests_handled, 2u);
}

TEST_F(RpcTest, HedgedRepliesLandingTogetherResolveOnce) {
  // The backup fires at 10ms and both copies finish at 25ms, so both replies
  // reach the client at 30ms, before the caller has resumed. The second
  // reply finds its call id still registered but the wait already done.
  Host* backup_host = net_.AddHost("backup");
  RpcEndpoint backup(&net_, backup_host);
  backup.Handle<SlowReq, EchoResp>([this](HostId, SlowReq req) -> Task<Result<EchoResp>> {
    co_await sim_.Sleep(Duration::Millis(req.delay_ms - 10));
    co_return EchoResp("backup done");
  });
  auto out = std::make_shared<HedgedReply<EchoResp>>();
  auto resumed = std::make_shared<int>(0);
  auto runner = [](RpcEndpoint* client, HostId primary, HostId backup_id,
                   std::shared_ptr<HedgedReply<EchoResp>> out,
                   std::shared_ptr<int> resumed) -> Task<void> {
    *out = co_await client->CallHedged<SlowReq, EchoResp>(
        primary, backup_id, SlowReq(20), Duration::Millis(10), Duration::Seconds(1));
    ++*resumed;
  };
  Spawn(runner(client_.get(), server_host_->id(), backup_host->id(), out, resumed));
  sim_.Run();
  EXPECT_EQ(*resumed, 1);
  ASSERT_TRUE(out->reply.ok());
  EXPECT_EQ(out->reply.value().text, "slow done") << "the primary's reply was sent first";
  EXPECT_EQ(out->responder, server_host_->id());
  EXPECT_TRUE(out->hedged);
  EXPECT_EQ(sim_.Now(), TimePoint() + Duration::Millis(30));
  EXPECT_EQ(client_->stats().calls_ok, 1u);
  EXPECT_EQ(client_->stats().hedges_sent, 1u);
  EXPECT_EQ(client_->stats().hedge_wins, 0u);
  EXPECT_EQ(backup.stats().requests_handled, 1u);
}

// A request body that counts how often it is copied.
struct CopyCountedReq {
  static inline int copies = 0;
  std::string text;
  CopyCountedReq() = default;
  explicit CopyCountedReq(std::string t) : text(std::move(t)) {}
  CopyCountedReq(const CopyCountedReq& other) : text(other.text) { ++copies; }
  CopyCountedReq(CopyCountedReq&&) = default;
  CopyCountedReq& operator=(const CopyCountedReq& other) {
    text = other.text;
    ++copies;
    return *this;
  }
  CopyCountedReq& operator=(CopyCountedReq&&) = default;
};

TEST_F(RpcTest, DuplicatedRequestReachesHandlerTwiceWithIntactBody) {
  // Both copies of a duplicated request share one envelope; the first
  // delivery must copy the body rather than move it out from under the
  // second, and the second, holding the last reference, takes it by move.
  // The text is longer than any small-string buffer, so a moved-from copy
  // would arrive empty.
  LinkKnobs knobs;
  knobs.dup_probability = 1.0;
  net_.SetDefaultLink(LatencyModel::Fixed(Duration::Millis(5)), knobs);
  const std::string text(64, 'q');
  auto seen = std::make_shared<std::vector<std::string>>();
  server_->Handle<CopyCountedReq, EchoResp>(
      [seen](HostId, CopyCountedReq req) -> Task<Result<EchoResp>> {
        seen->push_back(req.text);
        co_return EchoResp(req.text);
      });
  CopyCountedReq::copies = 0;
  Result<EchoResp> r =
      Call<CopyCountedReq, EchoResp>(CopyCountedReq(text), Duration::Seconds(1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().text, text);
  EXPECT_EQ(*seen, (std::vector<std::string>{text, text}));
  EXPECT_EQ(CopyCountedReq::copies, 1);
}

// One copy of a duplicated request reaches its destination while it is
// down and is dropped there. The drop releases that copy's reference, so
// the surviving copy holds the last one and its handler gets the body by
// move: the duplicate costs no body copy at all.
TEST_F(RpcTest, DuplicateSurvivingACrashedDestinationTakesTheBodyByMove) {
  LinkKnobs knobs;
  knobs.dup_probability = 1.0;
  // The spike lands on the original only, so the duplicate (5 ms) arrives
  // while the server is down and the original (55 ms) after it restarts.
  knobs.delay_spike_probability = 1.0;
  knobs.delay_spike = Duration::Millis(50);
  net_.SetDefaultLink(LatencyModel::Fixed(Duration::Millis(5)), knobs);
  auto seen = std::make_shared<std::vector<std::string>>();
  server_->Handle<CopyCountedReq, EchoResp>(
      [seen](HostId, CopyCountedReq req) -> Task<Result<EchoResp>> {
        seen->push_back(req.text);
        co_return EchoResp(req.text);
      });
  server_host_->Crash();
  sim_.Schedule(Duration::Millis(20), [this] { server_host_->Restart(); });
  const std::string text(64, 'm');
  CopyCountedReq::copies = 0;
  Result<EchoResp> r =
      Call<CopyCountedReq, EchoResp>(CopyCountedReq(text), Duration::Seconds(1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().text, text);
  EXPECT_EQ(net_.stats().dropped_dest_down, 1u);
  EXPECT_EQ(*seen, (std::vector<std::string>{text}));
  EXPECT_EQ(CopyCountedReq::copies, 0);
}

// Envelopes are pooled blocks. On a duplicating link both deliveries share
// one envelope: each sees an intact body, and the block goes back to the
// pool only when the last reference drops. The pool hands out parked blocks
// last-in first-out, so a probe allocation of the envelope's size class
// shows whether the envelope's block is parked.
TEST(RpcEnvelopeTest, DuplicatedEnvelopeReturnsToPoolAfterLastReference) {
  using Envelope = internal::RpcEnvelope<EchoReq>;
  auto parked = [](const void* block) {
    void* probe = internal::FramePool::Allocate(sizeof(Envelope));
    internal::FramePool::Deallocate(probe, sizeof(Envelope));
    return probe == block;
  };
  Simulator sim(1);
  Network net(&sim);
  LinkKnobs knobs;
  knobs.dup_probability = 1.0;
  net.SetDefaultLink(LatencyModel::Fixed(Duration::Millis(5)), knobs);
  Host* from = net.AddHost("from");
  Host* to = net.AddHost("to");
  const std::string text(64, 'q');
  std::vector<const void*> blocks;
  std::vector<std::string> bodies;
  std::vector<bool> parked_during;
  to->SetMessageHandler([&](Message msg) {
    auto* env = std::any_cast<internal::EnvelopeRef>(&msg.payload);
    ASSERT_NE(env, nullptr);
    const void* block = env->operator->();
    blocks.push_back(block);
    parked_during.push_back(parked(block));
    bodies.push_back(env->TakeBody<EchoReq>().text);
  });
  net.Send(from->id(), to->id(),
           internal::MakeEnvelope<EchoReq>(true, 1, TraceContext(), EchoReq(text)));
  sim.Run();
  EXPECT_EQ(net.stats().duplicated, 1u);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0], blocks[1]) << "both deliveries share one envelope";
  EXPECT_EQ(bodies, (std::vector<std::string>{text, text}));
  EXPECT_EQ(parked_during, (std::vector<bool>{false, false}))
      << "the block stays live while either delivery still references it";
  EXPECT_TRUE(parked(blocks[1])) << "the last reference returned the block to the pool";
}

#ifdef WVOTE_FRAME_POOL_POISON
// Negative control for the sanitizer build: pooling must not hide a
// use-after-free from AddressSanitizer. A parked envelope block is
// poisoned, so reading it through a dangling pointer is reported.
TEST(RpcEnvelopeDeathTest, TouchingAParkedEnvelopeIsReported) {
  auto touch_parked = [] {
    const internal::RpcEnvelopeHeader* header = nullptr;
    {
      internal::EnvelopeRef ref =
          internal::MakeEnvelope<EchoReq>(true, 7, TraceContext(), EchoReq("x"));
      header = ref.operator->();
    }
    const volatile uint64_t call_id = header->call_id;
    (void)call_id;
  };
  EXPECT_DEATH(touch_parked(), "use-after-poison");
}
#endif

TEST_F(RpcTest, StatsDistinguishOutcomes) {
  (void)Call<EchoReq, EchoResp>(EchoReq("a"), Duration::Seconds(1));
  (void)Call<SlowReq, EchoResp>(SlowReq(5000), Duration::Millis(10));
  EXPECT_EQ(client_->stats().calls_ok, 1u);
  EXPECT_EQ(client_->stats().calls_timeout, 1u);
}

TEST_F(RpcTest, DuplicateHandlerRegistrationAborts) {
  std::function<Task<Result<EchoResp>>(HostId, EchoReq)> handler =
      [](HostId, EchoReq) -> Task<Result<EchoResp>> { co_return EchoResp(""); };
  auto reregister = [&] { server_->Handle<EchoReq, EchoResp>(handler); };
  EXPECT_DEATH(reregister(), "duplicate");
}

}  // namespace
}  // namespace wvote
