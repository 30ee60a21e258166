// Replicated key-value namespace on a weighted-voting suite.

#include "src/kv/kv_store.h"

#include <gtest/gtest.h>

#include "src/core/cluster.h"

namespace wvote {
namespace {

class KvStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>();
    for (int i = 0; i < 3; ++i) {
      cluster_->AddRepresentative("rep-" + std::to_string(i));
    }
    config_ = SuiteConfig::MakeUniform("kv", {"rep-0", "rep-1", "rep-2"}, 2, 2);
    ASSERT_TRUE(cluster_->CreateSuite(config_, "").ok());
    client_ = cluster_->AddClient("app", config_);
    kv_ = std::make_unique<ReplicatedKvStore>(client_);
  }

  std::optional<std::string> Get(const std::string& key) {
    Result<std::optional<std::string>> r = cluster_->RunTask(kv_->Get(key));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value() : std::nullopt;
  }

  std::unique_ptr<Cluster> cluster_;
  SuiteConfig config_;
  SuiteClient* client_ = nullptr;
  std::unique_ptr<ReplicatedKvStore> kv_;
};

TEST_F(KvStoreTest, GetMissingIsNullopt) { EXPECT_EQ(Get("ghost"), std::nullopt); }

TEST_F(KvStoreTest, PutThenGet) {
  ASSERT_TRUE(cluster_->RunTask(kv_->Put("name", "gifford")).ok());
  EXPECT_EQ(Get("name"), "gifford");
}

TEST_F(KvStoreTest, PutOverwrites) {
  ASSERT_TRUE(cluster_->RunTask(kv_->Put("k", "v1")).ok());
  ASSERT_TRUE(cluster_->RunTask(kv_->Put("k", "v2")).ok());
  EXPECT_EQ(Get("k"), "v2");
}

TEST_F(KvStoreTest, DeleteRemoves) {
  ASSERT_TRUE(cluster_->RunTask(kv_->Put("k", "v")).ok());
  ASSERT_TRUE(cluster_->RunTask(kv_->Delete("k")).ok());
  EXPECT_EQ(Get("k"), std::nullopt);
}

TEST_F(KvStoreTest, DeleteMissingSucceeds) {
  EXPECT_TRUE(cluster_->RunTask(kv_->Delete("ghost")).ok());
}

TEST_F(KvStoreTest, PutManyIsAtomic) {
  std::vector<std::pair<std::string, std::string>> batch = {
      {"a", "1"}, {"b", "2"}, {"c", "3"}};
  ASSERT_TRUE(cluster_->RunTask(kv_->PutMany(batch)).ok());
  EXPECT_EQ(Get("a"), "1");
  EXPECT_EQ(Get("b"), "2");
  EXPECT_EQ(Get("c"), "3");
  // One batch = one suite version bump.
  SuiteTransaction txn = client_->Begin();
  Result<VersionedValue> vv = cluster_->RunTask(txn.ReadVersioned());
  ASSERT_TRUE(vv.ok());
  EXPECT_EQ(vv.value().version, 2u);
  ASSERT_TRUE(cluster_->RunTask(txn.Commit()).ok());
}

TEST_F(KvStoreTest, ListKeysSorted) {
  for (const char* k : {"zebra", "alpha", "mid"}) {
    ASSERT_TRUE(cluster_->RunTask(kv_->Put(k, "x")).ok());
  }
  Result<std::vector<std::string>> keys = cluster_->RunTask(kv_->ListKeys());
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys.value(), (std::vector<std::string>{"alpha", "mid", "zebra"}));
}

TEST_F(KvStoreTest, CheckAndSetMatches) {
  ASSERT_TRUE(cluster_->RunTask(kv_->Put("k", "old")).ok());
  EXPECT_TRUE(cluster_->RunTask(kv_->CheckAndSet("k", std::string("old"), "new")).ok());
  EXPECT_EQ(Get("k"), "new");
}

TEST_F(KvStoreTest, CheckAndSetMismatchFails) {
  ASSERT_TRUE(cluster_->RunTask(kv_->Put("k", "actual")).ok());
  Status st = cluster_->RunTask(kv_->CheckAndSet("k", std::string("guess"), "new"));
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Get("k"), "actual");
  EXPECT_EQ(kv_->stats().cas_failures, 1u);
}

TEST_F(KvStoreTest, CheckAndSetExpectAbsent) {
  EXPECT_TRUE(cluster_->RunTask(kv_->CheckAndSet("fresh", std::nullopt, "created")).ok());
  EXPECT_EQ(Get("fresh"), "created");
  EXPECT_EQ(cluster_->RunTask(kv_->CheckAndSet("fresh", std::nullopt, "again")).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(KvStoreTest, ConcurrentWritersAllLand) {
  ReplicatedKvStore kv2(cluster_->AddClient("app-2", config_));
  auto writer = [](ReplicatedKvStore* kv, std::string prefix, int n,
                   std::shared_ptr<int> oks) -> Task<void> {
    for (int i = 0; i < n; ++i) {
      if ((co_await kv->Put(prefix + std::to_string(i), "v")).ok()) {
        ++*oks;
      }
    }
  };
  auto oks = std::make_shared<int>(0);
  std::function<Task<void>(ReplicatedKvStore*, std::string, int, std::shared_ptr<int>)>
      writer_fn = writer;
  Spawn(writer_fn(kv_.get(), "a-", 10, oks));
  Spawn(writer_fn(&kv2, "b-", 10, oks));
  cluster_->sim().Run();
  EXPECT_EQ(*oks, 20);
  Result<std::vector<std::string>> keys = cluster_->RunTask(kv_->ListKeys());
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys.value().size(), 20u);  // no lost updates
}

TEST_F(KvStoreTest, ConcurrentCasExactlyOneWins) {
  ASSERT_TRUE(cluster_->RunTask(kv_->Put("leader", "none")).ok());
  ReplicatedKvStore kv2(cluster_->AddClient("app-2", config_));
  auto contender = [](ReplicatedKvStore* kv, std::string who,
                      std::shared_ptr<int> wins) -> Task<void> {
    Status st = co_await kv->CheckAndSet("leader", std::string("none"), who);
    if (st.ok()) {
      ++*wins;
    }
  };
  auto wins = std::make_shared<int>(0);
  std::function<Task<void>(ReplicatedKvStore*, std::string, std::shared_ptr<int>)>
      contender_fn = contender;
  Spawn(contender_fn(kv_.get(), "alice", wins));
  Spawn(contender_fn(&kv2, "bob", wins));
  cluster_->sim().Run();
  EXPECT_EQ(*wins, 1);
  std::optional<std::string> leader = Get("leader");
  EXPECT_TRUE(leader == "alice" || leader == "bob");
}

TEST_F(KvStoreTest, SurvivesMinorityCrash) {
  ASSERT_TRUE(cluster_->RunTask(kv_->Put("k", "v")).ok());
  cluster_->net().FindHost("rep-2")->Crash();
  EXPECT_TRUE(cluster_->RunTask(kv_->Put("k2", "v2")).ok());
  EXPECT_EQ(Get("k"), "v");
  EXPECT_EQ(Get("k2"), "v2");
}

TEST_F(KvStoreTest, MapSerializationRoundTrip) {
  std::map<std::string, std::string> map = {{"a", "1"}, {"empty", ""}, {"big", std::string(4096, 'x')}};
  Result<std::map<std::string, std::string>> parsed =
      ReplicatedKvStore::ParseMap(ReplicatedKvStore::SerializeMap(map));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), map);
}

TEST_F(KvStoreTest, EmptyBytesParseAsEmptyMap) {
  Result<std::map<std::string, std::string>> parsed = ReplicatedKvStore::ParseMap("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().empty());
}

TEST_F(KvStoreTest, GarbageBytesRejected) {
  EXPECT_FALSE(ReplicatedKvStore::ParseMap("garbage!").ok());
}

}  // namespace
}  // namespace wvote
