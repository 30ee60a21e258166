#include "src/txn/intentions_log.h"

#include "src/common/bytes.h"

namespace wvote {
namespace {

// Offset of the state byte in a serialized record: after the timestamp,
// the serial and the coordinator.
constexpr size_t kStateOffset = sizeof(int64_t) + sizeof(uint64_t) + sizeof(uint32_t);

}  // namespace

std::string TxnRecord::Serialize() const {
  std::string out;
  SerializeTo(&out);
  return out;
}

void TxnRecord::SerializeTo(std::string* out) const {
  out->clear();
  BufferWriter w(out);
  w.WriteI64(txn.timestamp_us);
  w.WriteU64(txn.serial);
  w.WriteU32(static_cast<uint32_t>(txn.coordinator));
  w.WriteU8(static_cast<uint8_t>(state));
  w.WriteU32(static_cast<uint32_t>(writes.size()));
  for (const WriteIntent& wi : writes) {
    w.WriteString(wi.key);
    w.WriteString(wi.value.str());
  }
}

Status TxnRecordView::Parse(std::string_view bytes) {
  BufferReader r(bytes);
  txn.timestamp_us = r.ReadI64();
  txn.serial = r.ReadU64();
  txn.coordinator = static_cast<HostId>(r.ReadU32());
  state = static_cast<TxnRecordState>(r.ReadU8());
  const uint32_t n = r.ReadU32();
  writes.clear();
  for (uint32_t i = 0; i < n && !r.failed(); ++i) {
    IntentView wi;
    wi.key = r.ReadStringView();
    wi.value = r.ReadStringView();
    writes.push_back(wi);
  }
  if (r.failed() || !r.AtEnd()) {
    return CorruptionError("bad txn record");
  }
  if (state != TxnRecordState::kPrepared && state != TxnRecordState::kCommitted) {
    return CorruptionError("bad txn record state");
  }
  return Status::Ok();
}

Result<TxnRecord> TxnRecord::Parse(const std::string& bytes) {
  TxnRecordView view;
  Status st = view.Parse(bytes);
  if (!st.ok()) {
    return st;
  }
  TxnRecord rec;
  rec.txn = view.txn;
  rec.state = view.state;
  for (const IntentView& wi : view.writes) {
    rec.writes.push_back(WriteIntent(std::string(wi.key), SharedPayload(std::string(wi.value))));
  }
  return rec;
}

Task<Status> IntentionsLog::Put(const TxnRecord& record, TraceContext ctx) {
  const TxnId::PageKey key = record.txn.KeyWith(kKeyPrefix);
  record.SerializeTo(&record_buf_);
  co_return co_await store_->Write(key.view(), record_buf_, ctx);
}

Task<Status> IntentionsLog::MarkCommitted(const TxnId& txn, TraceContext ctx) {
  const TxnId::PageKey key = txn.KeyWith(kKeyPrefix);
  const std::string* bytes = store_->PeekCommitted(key.view());
  if (bytes == nullptr || bytes->size() <= kStateOffset) {
    co_return Status(StatusCode::kNotFound, {"no txn record ", key.view()});
  }
  record_buf_.assign(*bytes);
  record_buf_[kStateOffset] = static_cast<char>(TxnRecordState::kCommitted);
  co_return co_await store_->Write(key.view(), record_buf_, ctx);
}

Task<Status> IntentionsLog::Remove(const TxnId& txn, TraceContext ctx) {
  const TxnId::PageKey key = txn.KeyWith(kKeyPrefix);
  co_return co_await store_->Delete(key.view(), ctx);
}

std::vector<TxnRecord> IntentionsLog::RecoverAll() const {
  std::vector<TxnRecord> records;
  for (const std::string& key : store_->KeysWithPrefix(std::string(kKeyPrefix))) {
    const std::string* bytes = store_->PeekCommitted(key);
    if (bytes == nullptr) {
      continue;
    }
    Result<TxnRecord> rec = TxnRecord::Parse(*bytes);
    if (rec.ok()) {
      records.push_back(std::move(rec.value()));
    }
  }
  return records;
}

const TxnRecordView* IntentionsLog::View(const TxnId& txn) {
  const TxnId::PageKey key = txn.KeyWith(kKeyPrefix);
  const std::string* bytes = store_->PeekCommitted(key.view());
  if (bytes == nullptr || !view_.Parse(*bytes).ok()) {
    return nullptr;
  }
  return &view_;
}

}  // namespace wvote
