#include "src/core/representative.h"

#include <utility>

namespace wvote {

RepresentativeServer::RepresentativeServer(Network* net, Host* host,
                                           RepresentativeOptions options)
    : net_(net),
      rpc_(net, host),
      store_(net->sim(), host, options.disk_write_latency, options.disk_read_latency),
      participant_(&rpc_, &store_, options.participant) {
  // Wired before hosts are populated (Cluster ctor); manual fixtures
  // without a tracer get the null no-op.
  store_.SetTracer(net->tracer());
  RegisterHandlers();
}

void RepresentativeStats::RegisterWith(MetricsRegistry* registry, const MetricLabels& labels) {
  registry->RegisterCounter("core.representative.version_polls", labels, &version_polls);
  registry->RegisterCounter("core.representative.data_reads", labels, &data_reads);
  registry->RegisterCounter("core.representative.piggyback_serves", labels,
                            &piggyback_serves);
  registry->RegisterCounter("core.representative.refreshes_installed", labels,
                            &refreshes_installed);
  registry->RegisterCounter("core.representative.refreshes_skipped", labels,
                            &refreshes_skipped);
  registry->AddResetHook([this]() { Reset(); });
}

void RepresentativeServer::RegisterMetrics(MetricsRegistry* registry) {
  stats_.RegisterWith(registry, {{"host", host()->name()}});
  rpc_.RegisterMetrics(registry);
  store_.RegisterMetrics(registry);
  participant_.RegisterMetrics(registry);
}

Task<Status> RepresentativeServer::BootstrapSuite(SuiteConfig config, VersionedValue initial) {
  Status st = config.Validate();
  if (!st.ok()) {
    co_return st;
  }
  st = co_await store_.Write(Participant::DataKey(SuitePrefixKey(config.suite_name)),
                             config.Serialize());
  if (!st.ok()) {
    co_return st;
  }
  co_return co_await store_.Write(Participant::DataKey(SuiteValueKey(config.suite_name)),
                                  initial.Serialize());
}

Result<VersionedValue> RepresentativeServer::CurrentValue(const std::string& suite) const {
  Result<std::string> bytes = participant_.PeekCommitted(SuiteValueKey(suite));
  if (!bytes.ok()) {
    return bytes.status();
  }
  return VersionedValue::Parse(std::move(bytes.value()));
}

Result<SuiteConfig> RepresentativeServer::CurrentPrefix(const std::string& suite) const {
  Result<std::string> bytes = participant_.PeekCommitted(SuitePrefixKey(suite));
  if (!bytes.ok()) {
    return bytes.status();
  }
  return SuiteConfig::Parse(bytes.value());
}

RepresentativeServer::SuitePages& RepresentativeServer::PagesFor(const std::string& suite) {
  auto it = suites_.find(suite);
  if (it == suites_.end()) {
    SuitePages pages;
    pages.value_key = Participant::DataKey(SuiteValueKey(suite));
    pages.prefix_key = Participant::DataKey(SuitePrefixKey(suite));
    it = suites_.emplace(suite, std::move(pages)).first;
  }
  return it->second;
}

VersionResp RepresentativeServer::MakeVersionResp(const std::string& suite) {
  SuitePages& pages = PagesFor(suite);
  VersionResp resp;
  if (const std::string* value = store_.PeekCommitted(pages.value_key)) {
    Result<Version> version = VersionedValue::ParseVersion(*value);
    if (version.ok()) {
      resp.version = version.value();
    }
  }
  const std::string* prefix = store_.PeekCommitted(pages.prefix_key);
  if (prefix == nullptr) {
    return resp;
  }
  if (!pages.prefix_parsed || *prefix != pages.prefix_bytes) {
    // The prefix changed (or was never parsed): reparse and remember the
    // bytes the cached fields came from.
    pages.prefix_parsed = false;
    Result<SuiteConfig> config = SuiteConfig::Parse(*prefix);
    if (!config.ok()) {
      return resp;
    }
    pages.prefix_bytes = *prefix;
    pages.prefix_parsed = true;
    pages.config_version = config.value().config_version;
    pages.votes = 0;
    for (const RepresentativeInfo& rep : config.value().representatives) {
      if (rep.host_name == rpc_.host()->name()) {
        pages.votes = rep.votes;
        break;
      }
    }
  }
  resp.config_version = pages.config_version;
  resp.votes = pages.votes;
  return resp;
}

void RepresentativeServer::RegisterHandlers() {
  rpc_.HandleTraced<TxnVersionReq, VersionResp>(
      [this](HostId from, TxnVersionReq req, TraceContext ctx) -> Task<Result<VersionResp>> {
        ++stats_.version_polls;
        const std::string& value_key = PagesFor(req.suite).value_key;
        Status st = co_await participant_.LockPage(req.txn, value_key, req.mode, ctx);
        if (!st.ok()) {
          co_return st;
        }
        VersionResp resp = MakeVersionResp(req.suite);
        if (req.want_data && req.mode == LockMode::kShared) {
          // Piggybacked fast path: read the contents under the S lock just
          // granted (pays the disk read, saves the client a second round
          // trip). Failure to attach data is not an error — the client
          // falls back to an explicit fetch.
          Result<std::string> bytes = co_await participant_.ReadPage(req.txn, value_key, ctx);
          if (bytes.ok()) {
            Result<VersionedValue> value = VersionedValue::Parse(std::move(bytes.value()));
            if (value.ok()) {
              // Report the version of the very bytes attached, so the
              // client's currency check covers the piggybacked copy.
              resp.version = value.value().version;
              resp.has_data = true;
              resp.contents = std::move(value.value().contents);
              ++stats_.piggyback_serves;
            }
          }
        }
        co_return resp;
      });

  rpc_.Handle<VersionInquiryReq, VersionResp>(
      [this](HostId from, VersionInquiryReq req) -> Task<Result<VersionResp>> {
        ++stats_.version_polls;
        co_return MakeVersionResp(req.suite);
      });

  rpc_.HandleTraced<TxnReadSuiteReq, SuiteReadResp>(
      [this](HostId from, TxnReadSuiteReq req, TraceContext ctx) -> Task<Result<SuiteReadResp>> {
        ++stats_.data_reads;
        const std::string& value_key = PagesFor(req.suite).value_key;
        Result<std::string> bytes = co_await participant_.ReadPage(req.txn, value_key, ctx);
        if (!bytes.ok()) {
          co_return bytes.status();
        }
        Result<VersionedValue> value = VersionedValue::Parse(std::move(bytes.value()));
        if (!value.ok()) {
          co_return value.status();
        }
        co_return SuiteReadResp{value.value().version, std::move(value.value().contents)};
      });

  rpc_.HandleTraced<StaleReadReq, SuiteReadResp>(
      [this](HostId from, StaleReadReq req, TraceContext ctx) -> Task<Result<SuiteReadResp>> {
        ++stats_.data_reads;
        const std::string& value_key = PagesFor(req.suite).value_key;
        Result<std::string> bytes = co_await store_.Read(value_key, ctx);
        if (!bytes.ok()) {
          co_return bytes.status();
        }
        Result<VersionedValue> value = VersionedValue::Parse(std::move(bytes.value()));
        if (!value.ok()) {
          co_return value.status();
        }
        co_return SuiteReadResp{value.value().version, std::move(value.value().contents)};
      });

  rpc_.HandleTraced<PrefixReadReq, PrefixReadResp>(
      [this](HostId from, PrefixReadReq req, TraceContext ctx) -> Task<Result<PrefixReadResp>> {
        const std::string& prefix_key = PagesFor(req.suite).prefix_key;
        Result<std::string> bytes = co_await store_.Read(prefix_key, ctx);
        if (!bytes.ok()) {
          co_return bytes.status();
        }
        co_return PrefixReadResp{std::move(bytes.value())};
      });

  rpc_.HandleTraced<RefreshReq, RefreshResp>(
      [this](HostId from, RefreshReq req, TraceContext ctx) -> Task<Result<RefreshResp>> {
        // Best-effort conditional install under a short-lived local courtesy
        // transaction so refreshes never cut ahead of client locks. The
        // courtesy timestamp is older than any client's: under wait-die the
        // refresh WAITS for the current holder (typically the very reader
        // that spawned it, about to release) instead of dying, and clients
        // that hit the brief install window wait rather than abort (see
        // LockManager::MustDie). It locks a single key and acquires nothing
        // further while holding it, so it can never join a deadlock cycle.
        TxnId txn;
        txn.timestamp_us = TxnId::kCourtesyTimestamp;
        txn.serial = refresh_serial_++;
        txn.coordinator = rpc_.host_id();
        const std::string& value_key = PagesFor(req.suite).value_key;
        Status st = co_await participant_.LockPage(txn, value_key, LockMode::kExclusive, ctx);
        if (!st.ok()) {
          ++stats_.refreshes_skipped;
          co_return RefreshResp{false};  // busy; refresh is opportunistic
        }
        RefreshResp resp;
        Result<VersionedValue> current = CurrentValue(req.suite);
        const Version have = current.ok() ? current.value().version : 0;
        if (req.version > have) {
          VersionedValue next{req.version, std::move(req.contents)};
          Status wrote = co_await store_.Write(value_key, next.Serialize(), ctx);
          resp.installed = wrote.ok();
        }
        if (resp.installed) {
          ++stats_.refreshes_installed;
          if (TraceLog* trace = net_->trace()) {
            trace->Record(rpc_.host_id(), TraceKind::kRefreshInstalled,
                          req.suite + " v" + std::to_string(req.version));
          }
        } else {
          ++stats_.refreshes_skipped;
        }
        participant_.locks().ReleaseAll(txn);
        co_return resp;
      });
}

}  // namespace wvote
