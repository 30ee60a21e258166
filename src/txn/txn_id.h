// Transaction identity.
//
// A TxnId is globally unique and totally ordered: (begin timestamp, serial,
// coordinator host). The order doubles as transaction age for the lock
// manager's wait-die deadlock avoidance — smaller means older means higher
// priority. The coordinator host id also tells a recovering participant who
// to ask about an in-doubt prepared transaction.

#ifndef WVOTE_SRC_TXN_TXN_ID_H_
#define WVOTE_SRC_TXN_TXN_ID_H_

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/check.h"
#include "src/net/message.h"

namespace wvote {

struct TxnId {
  // Courtesy transactions (background refreshes) carry this timestamp: it is
  // older than any real Begin() time (simulated time starts at 0), so the
  // courtesy txn itself always waits behind client locks, while requesters
  // that find a courtesy holder are allowed to wait instead of dying — see
  // LockManager::MustDie. Single-lock, never-waits-while-holding work only.
  static constexpr int64_t kCourtesyTimestamp = -1;

  int64_t timestamp_us = 0;  // simulated time at Begin()
  uint64_t serial = 0;       // per-coordinator counter (breaks timestamp ties)
  HostId coordinator = kInvalidHost;

  auto operator<=>(const TxnId&) const = default;

  bool valid() const { return coordinator != kInvalidHost; }
  bool courtesy() const { return timestamp_us < 0; }

  // True if this transaction is older (= higher priority) than `other`.
  bool OlderThan(const TxnId& other) const { return *this < other; }

  // ToString()'s text, "txn(<timestamp>.<serial>@<coordinator>)", in a
  // NUL-terminated stack buffer, for breadcrumbs that only need a view of
  // it. The longest text (every field at its widest) is 58 bytes.
  struct Text {
    char buf[64];
    int len;
    std::string_view view() const { return std::string_view(buf, static_cast<size_t>(len)); }
    const char* c_str() const { return buf; }
  };
  Text ToText() const {
    Text text;
    char* const end = text.buf + sizeof(text.buf);
    char* p = std::copy_n("txn(", 4, text.buf);
    p = std::to_chars(p, end, timestamp_us).ptr;
    *p++ = '.';
    p = std::to_chars(p, end, serial).ptr;
    *p++ = '@';
    p = std::to_chars(p, end, coordinator).ptr;
    *p++ = ')';
    *p = '\0';
    text.len = static_cast<int>(p - text.buf);
    return text;
  }

  std::string ToString() const { return std::string(ToText().view()); }

  // "<prefix><timestamp>.<serial>.<coordinator>" in a stack buffer: the
  // stable-storage page key of a per-transaction record (an intentions-log
  // record, a coordinator's decision). `prefix` is at most 16 bytes.
  struct PageKey {
    char buf[80];
    size_t len;
    std::string_view view() const { return std::string_view(buf, len); }
  };
  PageKey KeyWith(std::string_view prefix) const {
    WVOTE_CHECK(prefix.size() <= 16);
    PageKey key;
    char* const end = key.buf + sizeof(key.buf);
    char* p = std::copy(prefix.begin(), prefix.end(), key.buf);
    p = std::to_chars(p, end, timestamp_us).ptr;
    *p++ = '.';
    p = std::to_chars(p, end, serial).ptr;
    *p++ = '.';
    p = std::to_chars(p, end, coordinator).ptr;
    key.len = static_cast<size_t>(p - key.buf);
    return key;
  }
};

}  // namespace wvote

#endif  // WVOTE_SRC_TXN_TXN_ID_H_
