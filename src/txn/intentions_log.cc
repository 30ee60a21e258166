#include "src/txn/intentions_log.h"

#include "src/common/bytes.h"

namespace wvote {

std::string TxnRecord::Serialize() const {
  BufferWriter w;
  w.WriteI64(txn.timestamp_us);
  w.WriteU64(txn.serial);
  w.WriteU32(static_cast<uint32_t>(txn.coordinator));
  w.WriteU8(static_cast<uint8_t>(state));
  w.WriteU32(static_cast<uint32_t>(writes.size()));
  for (const WriteIntent& wi : writes) {
    w.WriteString(wi.key);
    w.WriteString(wi.value.str());
  }
  return w.Take();
}

Result<TxnRecord> TxnRecord::Parse(const std::string& bytes) {
  BufferReader r(bytes);
  TxnRecord rec;
  rec.txn.timestamp_us = r.ReadI64();
  rec.txn.serial = r.ReadU64();
  rec.txn.coordinator = static_cast<HostId>(r.ReadU32());
  rec.state = static_cast<TxnRecordState>(r.ReadU8());
  const uint32_t n = r.ReadU32();
  for (uint32_t i = 0; i < n && !r.failed(); ++i) {
    WriteIntent wi;
    wi.key = r.ReadString();
    wi.value = SharedPayload(r.ReadString());
    rec.writes.push_back(std::move(wi));
  }
  if (r.failed() || !r.AtEnd()) {
    return CorruptionError("bad txn record");
  }
  if (rec.state != TxnRecordState::kPrepared && rec.state != TxnRecordState::kCommitted) {
    return CorruptionError("bad txn record state");
  }
  return rec;
}

std::string IntentionsLog::KeyFor(const TxnId& txn) {
  std::string key;
  WriteKey(txn, &key);
  return key;
}

void IntentionsLog::WriteKey(const TxnId& txn, std::string* out) {
  out->assign("txnlog/");
  out->append(std::to_string(txn.timestamp_us));
  out->push_back('.');
  out->append(std::to_string(txn.serial));
  out->push_back('.');
  out->append(std::to_string(txn.coordinator));
}

Task<Status> IntentionsLog::Put(const TxnRecord& record, TraceContext ctx) {
  return store_->Write(KeyFor(record.txn), record.Serialize(), ctx);
}

Task<Status> IntentionsLog::Remove(const TxnId& txn, TraceContext ctx) {
  return store_->Delete(KeyFor(txn), ctx);
}

std::vector<TxnRecord> IntentionsLog::RecoverAll() const {
  std::vector<TxnRecord> records;
  for (const std::string& key : store_->KeysWithPrefix("txnlog/")) {
    Result<std::string> bytes = store_->ReadCommitted(key);
    if (!bytes.ok()) {
      continue;
    }
    Result<TxnRecord> rec = TxnRecord::Parse(bytes.value());
    if (rec.ok()) {
      records.push_back(std::move(rec.value()));
    }
  }
  return records;
}

bool IntentionsLog::Contains(const TxnId& txn) const {
  WriteKey(txn, &key_scratch_);
  return store_->Contains(key_scratch_);
}

Result<TxnRecord> IntentionsLog::Lookup(const TxnId& txn) const {
  WriteKey(txn, &key_scratch_);
  const std::string* bytes = store_->PeekCommitted(key_scratch_);
  if (bytes == nullptr) {
    // ReadCommitted words the NotFound status (absent page vs no slot).
    return store_->ReadCommitted(key_scratch_).status();
  }
  return TxnRecord::Parse(*bytes);
}

}  // namespace wvote
