// RPC messages of the weighted-voting protocol itself.
//
// Four request families:
//   * version polls — gather version numbers to establish the current
//     version of a suite, with an S lock (reads), an X lock (writes), or no
//     lock at all (weak-representative currency checks and refresh probes);
//   * data fetch — read the full contents from one chosen representative;
//   * prefix fetch — read the replicated configuration;
//   * refresh — conditionally install a newer version at a stale
//     representative outside any client transaction.
//
// Every request struct declares a constructor: see the GCC 12 note in
// src/txn/messages.h (braced aggregate prvalues must not be passed into
// coroutines).

#ifndef WVOTE_SRC_CORE_MESSAGES_H_
#define WVOTE_SRC_CORE_MESSAGES_H_

#include <string>
#include <utility>

#include "src/core/types.h"
#include "src/txn/lock_manager.h"
#include "src/txn/txn_id.h"

namespace wvote {

// Lock the suite at this representative in `mode` — S for a read-quorum
// gather, X for a write-quorum gather — and report its version number. With
// `want_data` (shared mode only), the representative also piggybacks its
// committed contents on the reply (read under the S lock it just granted),
// so a read whose chosen representative turns out current needs no second
// round trip.
struct TxnVersionReq {
  TxnId txn;
  std::string suite;
  LockMode mode = LockMode::kShared;
  bool want_data = false;

  TxnVersionReq() = default;
  TxnVersionReq(TxnId t, std::string s, LockMode m, bool w = false)
      : txn(t), suite(std::move(s)), mode(m), want_data(w) {}
  static constexpr const char* kRpcName = "TxnVersionReq";
};

// Lock-free committed version number; used by weak representatives checking
// cache currency and by the background refresher. Not serializable — callers
// must not use it to construct transactional results.
struct VersionInquiryReq {
  std::string suite;

  VersionInquiryReq() = default;
  explicit VersionInquiryReq(std::string s) : suite(std::move(s)) {}
  static constexpr const char* kRpcName = "VersionInquiryReq";
};

struct VersionResp {
  Version version = 0;
  uint64_t config_version = 0;
  int votes = 0;  // this representative's votes under its current prefix

  // Piggybacked contents (TxnVersionReq::want_data only). `has_data`
  // distinguishes "no data requested/available" from an empty value. The
  // contents are only usable once a full read quorum proves `version`
  // current — the client falls back to a data fetch otherwise.
  bool has_data = false;
  std::string contents;

  VersionResp() = default;
  VersionResp(Version v, uint64_t cv, int n) : version(v), config_version(cv), votes(n) {}
  size_t ApproxBytes() const { return 64 + contents.size(); }
};

// Fetch the full committed contents under an already-held lock.
struct TxnReadSuiteReq {
  TxnId txn;
  std::string suite;

  TxnReadSuiteReq() = default;
  TxnReadSuiteReq(TxnId t, std::string s) : txn(t), suite(std::move(s)) {}
  static constexpr const char* kRpcName = "TxnReadSuiteReq";
};
struct SuiteReadResp {
  Version version = 0;
  std::string contents;

  SuiteReadResp() = default;
  SuiteReadResp(Version v, std::string c) : version(v), contents(std::move(c)) {}
  size_t ApproxBytes() const { return 64 + contents.size(); }
};

// Fetch the replicated prefix (configuration).
struct PrefixReadReq {
  std::string suite;

  PrefixReadReq() = default;
  explicit PrefixReadReq(std::string s) : suite(std::move(s)) {}
  static constexpr const char* kRpcName = "PrefixReadReq";
};
struct PrefixReadResp {
  std::string config_bytes;

  PrefixReadResp() = default;
  explicit PrefixReadResp(std::string b) : config_bytes(std::move(b)) {}
  size_t ApproxBytes() const { return 64 + config_bytes.size(); }
};

// Lock-free read of the committed copy at one representative. No currency
// guarantee — the value may be stale. Used by weaker-consistency baselines
// (primary-copy backup reads) and monitoring.
struct StaleReadReq {
  std::string suite;

  StaleReadReq() = default;
  explicit StaleReadReq(std::string s) : suite(std::move(s)) {}
  static constexpr const char* kRpcName = "StaleReadReq";
};

// Install {version, contents} iff it is newer than the stored copy. Used by
// background refresh to bring stale representatives current; safe without a
// client transaction because contents for a given version are immutable.
struct RefreshReq {
  std::string suite;
  Version version = 0;
  std::string contents;

  RefreshReq() = default;
  RefreshReq(std::string s, Version v, std::string c)
      : suite(std::move(s)), version(v), contents(std::move(c)) {}
  static constexpr const char* kRpcName = "RefreshReq";
  size_t ApproxBytes() const { return 64 + contents.size(); }
};
struct RefreshResp {
  bool installed = false;  // false: already at or past this version

  RefreshResp() = default;
  explicit RefreshResp(bool i) : installed(i) {}
};

}  // namespace wvote

#endif  // WVOTE_SRC_CORE_MESSAGES_H_
