// RepresentativeServer: one representative of one or more file suites.
//
// Runs on a simulated host. Owns the host's stable storage and transaction
// participant and serves the weighted-voting RPCs (version polls under S/X
// locks, data fetch, prefix fetch, lock-free inquiries, and best-effort
// refresh installs). A single server can hold representatives of many suites
// — suites are just named durable pages.
//
// Version numbers live in the suite's durable value page; polls answer from
// the committed page state without extra disk latency (a real server keeps
// the version number in its in-memory header), while full-content reads pay
// the simulated disk read.

#ifndef WVOTE_SRC_CORE_REPRESENTATIVE_H_
#define WVOTE_SRC_CORE_REPRESENTATIVE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/core/messages.h"
#include "src/core/suite_config.h"
#include "src/core/types.h"
#include "src/rpc/rpc.h"
#include "src/storage/stable_store.h"
#include "src/txn/participant.h"

namespace wvote {

struct RepresentativeOptions {
  LatencyModel disk_write_latency = LatencyModel::Fixed(Duration::Millis(10));
  LatencyModel disk_read_latency = LatencyModel::Fixed(Duration::Millis(5));
  ParticipantOptions participant;
};

struct RepresentativeStats {
  uint64_t version_polls = 0;
  uint64_t data_reads = 0;
  uint64_t piggyback_serves = 0;  // version polls answered with contents attached
  uint64_t refreshes_installed = 0;
  uint64_t refreshes_skipped = 0;

  void Reset() { *this = RepresentativeStats{}; }
  // Registers every field as `core.representative.*{labels}`; this struct
  // must outlive `registry`'s use of it.
  void RegisterWith(MetricsRegistry* registry, const MetricLabels& labels = {});
};

class RepresentativeServer {
 public:
  RepresentativeServer(Network* net, Host* host, RepresentativeOptions options = {});

  Host* host() { return rpc_.host(); }
  RpcEndpoint& rpc() { return rpc_; }
  Participant& participant() { return participant_; }
  StableStore& store() { return store_; }
  const RepresentativeStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  // Registers this server's whole stack — its own counters plus its RPC
  // endpoint's, stable store's, participant's, and lock manager's — all
  // labeled by host name.
  void RegisterMetrics(MetricsRegistry* registry);

  // Durably installs a suite's prefix and initial value on this server.
  // Used at deployment time and when a reconfiguration adds this server.
  Task<Status> BootstrapSuite(SuiteConfig config, VersionedValue initial);

  // Committed (lock-free) view of this server's copy; for tests and
  // invariant checks.
  Result<VersionedValue> CurrentValue(const std::string& suite) const;
  Result<SuiteConfig> CurrentPrefix(const std::string& suite) const;

 private:
  void RegisterHandlers();

  // Page keys of one suite, built once and passed by reference to the lock
  // table and the store (the map never drops a suite, so they outlive every
  // request), plus the fields a version poll needs from the suite's prefix,
  // parsed from `prefix_bytes` and reused while the committed prefix stays
  // byte-identical.
  struct SuitePages {
    std::string value_key;   // DataKey(SuiteValueKey(suite))
    std::string prefix_key;  // DataKey(SuitePrefixKey(suite))
    bool prefix_parsed = false;
    std::string prefix_bytes;
    uint64_t config_version = 0;
    int votes = 0;
  };
  SuitePages& PagesFor(const std::string& suite);

  // Reads {version, config_version, my votes} from committed pages in
  // place.
  VersionResp MakeVersionResp(const std::string& suite);

  Network* net_;
  RpcEndpoint rpc_;
  StableStore store_;
  Participant participant_;
  RepresentativeStats stats_;
  uint64_t refresh_serial_ = 1;
  std::map<std::string, SuitePages, std::less<>> suites_;
};

}  // namespace wvote

#endif  // WVOTE_SRC_CORE_REPRESENTATIVE_H_
