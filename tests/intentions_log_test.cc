#include "src/txn/intentions_log.h"

#include <gtest/gtest.h>

#include "src/net/network.h"

namespace wvote {
namespace {

TxnId MakeTxn(int64_t ts, HostId coord = 3) {
  TxnId txn;
  txn.timestamp_us = ts;
  txn.serial = 1;
  txn.coordinator = coord;
  return txn;
}

TEST(TxnRecordTest, SerializeParseRoundTrip) {
  TxnRecord rec;
  rec.txn = MakeTxn(12345, 7);
  rec.state = TxnRecordState::kCommitted;
  rec.writes.push_back(WriteIntent("key-a", "value-a"));
  rec.writes.push_back(WriteIntent("key-b", std::string(5000, 'b')));

  Result<TxnRecord> parsed = TxnRecord::Parse(rec.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().txn, rec.txn);
  EXPECT_EQ(parsed.value().state, TxnRecordState::kCommitted);
  ASSERT_EQ(parsed.value().writes.size(), 2u);
  EXPECT_EQ(parsed.value().writes[0].key, "key-a");
  EXPECT_EQ(parsed.value().writes[1].value, std::string(5000, 'b'));
}

TEST(TxnRecordTest, EmptyWritesRoundTrip) {
  TxnRecord rec;
  rec.txn = MakeTxn(1);
  rec.state = TxnRecordState::kPrepared;
  Result<TxnRecord> parsed = TxnRecord::Parse(rec.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().writes.empty());
}

TEST(TxnRecordTest, GarbageFailsToParse) {
  EXPECT_FALSE(TxnRecord::Parse("not a record").ok());
  EXPECT_FALSE(TxnRecord::Parse("").ok());
  // Truncated valid record.
  TxnRecord rec;
  rec.txn = MakeTxn(1);
  rec.writes.push_back(WriteIntent("k", "v"));
  std::string bytes = rec.Serialize();
  EXPECT_FALSE(TxnRecord::Parse(bytes.substr(0, bytes.size() - 3)).ok());
}

TEST(TxnRecordTest, BadStateRejected) {
  TxnRecord rec;
  rec.txn = MakeTxn(1);
  std::string bytes = rec.Serialize();
  // State byte sits right after the 20-byte txn id.
  bytes[20] = 99;
  EXPECT_FALSE(TxnRecord::Parse(bytes).ok());
}

class IntentionsLogTest : public ::testing::Test {
 protected:
  IntentionsLogTest()
      : sim_(1),
        net_(&sim_),
        host_(net_.AddHost("h")),
        store_(&sim_, host_, LatencyModel::Fixed(Duration::Millis(1)),
               LatencyModel::Fixed(Duration::Millis(1))),
        log_(&store_) {}

  void Put(const TxnRecord& rec) {
    auto runner = [](IntentionsLog* log, TxnRecord rec) -> Task<void> {
      Status st = co_await log->Put(rec);
      EXPECT_TRUE(st.ok());
    };
    Spawn(runner(&log_, rec));
    sim_.Run();
  }

  Simulator sim_;
  Network net_;
  Host* host_;
  StableStore store_;
  IntentionsLog log_;
};

TEST_F(IntentionsLogTest, PutLookupRemove) {
  TxnRecord rec;
  rec.txn = MakeTxn(5);
  rec.state = TxnRecordState::kPrepared;
  rec.writes.push_back(WriteIntent("k", "v"));
  Put(rec);

  const TxnRecordView* found = log_.View(rec.txn);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->writes[0].key, "k");
  EXPECT_EQ(found->writes[0].value, "v");

  auto remover = [](IntentionsLog* log, TxnId txn) -> Task<void> {
    EXPECT_TRUE((co_await log->Remove(txn)).ok());
  };
  Spawn(remover(&log_, rec.txn));
  sim_.Run();
  EXPECT_EQ(log_.View(rec.txn), nullptr);
}

TEST_F(IntentionsLogTest, PutOverwritesState) {
  TxnRecord rec;
  rec.txn = MakeTxn(5);
  rec.state = TxnRecordState::kPrepared;
  Put(rec);
  rec.state = TxnRecordState::kCommitted;
  Put(rec);
  EXPECT_EQ(log_.View(rec.txn)->state, TxnRecordState::kCommitted);
}

// MarkCommitted rewrites the stored bytes with the state flipped: exactly
// what putting the parsed record back as committed would write.
TEST_F(IntentionsLogTest, MarkCommittedMatchesPutOfCommittedRecord) {
  TxnRecord rec;
  rec.txn = MakeTxn(5);
  rec.state = TxnRecordState::kPrepared;
  rec.writes.push_back(WriteIntent("k", "a value longer than the inline buffer"));
  Put(rec);
  auto marker = [](IntentionsLog* log, TxnId txn) -> Task<void> {
    EXPECT_TRUE((co_await log->MarkCommitted(txn)).ok());
  };
  Spawn(marker(&log_, rec.txn));
  sim_.Run();
  rec.state = TxnRecordState::kCommitted;
  EXPECT_EQ(store_.ReadCommitted("txnlog/5.1.3").value(), rec.Serialize());

  auto missing = [](IntentionsLog* log) -> Task<void> {
    EXPECT_EQ((co_await log->MarkCommitted(MakeTxn(6))).code(), StatusCode::kNotFound);
  };
  Spawn(missing(&log_));
  sim_.Run();
}

TEST_F(IntentionsLogTest, RecoverAllFindsEveryRecord) {
  for (int i = 1; i <= 5; ++i) {
    TxnRecord rec;
    rec.txn = MakeTxn(i);
    rec.state = i % 2 ? TxnRecordState::kPrepared : TxnRecordState::kCommitted;
    Put(rec);
  }
  EXPECT_EQ(log_.RecoverAll().size(), 5u);
}

TEST_F(IntentionsLogTest, RecoverAllIgnoresForeignKeys) {
  auto writer = [](StableStore* store) -> Task<void> {
    EXPECT_TRUE((co_await store->Write("data/something", "bytes")).ok());
  };
  Spawn(writer(&store_));
  sim_.Run();
  EXPECT_TRUE(log_.RecoverAll().empty());
}

TEST_F(IntentionsLogTest, DistinctTxnsGetDistinctKeys) {
  auto key = [](const TxnId& txn) {
    return std::string(txn.KeyWith(IntentionsLog::kKeyPrefix).view());
  };
  EXPECT_EQ(key(MakeTxn(1, 2)), "txnlog/1.1.2");
  EXPECT_NE(key(MakeTxn(1, 2)), key(MakeTxn(1, 3)));
  EXPECT_NE(key(MakeTxn(1)), key(MakeTxn(2)));
}

}  // namespace
}  // namespace wvote
