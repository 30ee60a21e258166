#include "src/baselines/majority_consensus.h"

#include <algorithm>
#include <utility>

#include "src/common/bytes.h"
#include "src/sim/join.h"

namespace wvote {
namespace {

std::string DataKey(const std::string& name) { return "tsdata/" + name; }

std::string SerializeTs(uint64_t ts, const std::string& contents) {
  BufferWriter w;
  w.WriteU64(ts);
  w.WriteString(contents);
  return w.Take();
}

bool ParseTs(const std::string& bytes, uint64_t* ts, std::string* contents) {
  BufferReader r(bytes);
  *ts = r.ReadU64();
  *contents = r.ReadString();
  return !r.failed() && r.AtEnd();
}

Task<Result<TsReadResp>> CallRead(RpcEndpoint* rpc, HostId to, std::string name,
                                  Duration timeout) {
  TsReadReq req(std::move(name));
  co_return co_await rpc->Call<TsReadReq, TsReadResp>(to, std::move(req), timeout);
}

Task<Result<TsWriteResp>> CallWrite(RpcEndpoint* rpc, HostId to, std::string name,
                                    uint64_t ts, std::string contents, Duration timeout) {
  TsWriteReq req(std::move(name), ts, std::move(contents));
  co_return co_await rpc->Call<TsWriteReq, TsWriteResp>(to, std::move(req), timeout);
}

}  // namespace

TimestampServer::TimestampServer(Network* net, Host* host, LatencyModel disk_write,
                                 LatencyModel disk_read)
    : rpc_(net, host), store_(net->sim(), host, disk_write, disk_read) {
  rpc_.Handle<TsReadReq, TsReadResp>(
      [this](HostId from, TsReadReq req) -> Task<Result<TsReadResp>> {
        const std::string key = DataKey(req.name);
        Result<std::string> bytes = co_await store_.Read(key);
        if (!bytes.ok()) {
          if (bytes.status().code() == StatusCode::kNotFound) {
            co_return TsReadResp{0, ""};  // never written
          }
          co_return bytes.status();
        }
        uint64_t ts = 0;
        std::string contents;
        if (!ParseTs(bytes.value(), &ts, &contents)) {
          co_return CorruptionError("bad timestamped value");
        }
        co_return TsReadResp{ts, std::move(contents)};
      });

  rpc_.Handle<TsWriteReq, TsWriteResp>(
      [this](HostId from, TsWriteReq req) -> Task<Result<TsWriteResp>> {
        // Apply iff newer (Thomas's timestamp resolution rule).
        uint64_t have = 0;
        Result<std::string> bytes = store_.ReadCommitted(DataKey(req.name));
        if (bytes.ok()) {
          std::string ignored;
          if (!ParseTs(bytes.value(), &have, &ignored)) {
            co_return CorruptionError("bad timestamped value");
          }
        }
        if (req.timestamp <= have) {
          co_return TsWriteResp{false};  // obsolete update; acks the quorum anyway
        }
        Status st =
            co_await store_.Write(DataKey(req.name), SerializeTs(req.timestamp, req.contents));
        if (!st.ok()) {
          co_return st;
        }
        co_return TsWriteResp{true};
      });
}

std::pair<uint64_t, std::string> TimestampServer::Current(const std::string& name) const {
  Result<std::string> bytes = store_.ReadCommitted(DataKey(name));
  if (!bytes.ok()) {
    return {0, ""};
  }
  uint64_t ts = 0;
  std::string contents;
  if (!ParseTs(bytes.value(), &ts, &contents)) {
    return {0, ""};
  }
  return {ts, std::move(contents)};
}

MajorityConsensusStore::MajorityConsensusStore(RpcEndpoint* rpc, std::string name,
                                               std::vector<HostId> replicas,
                                               Duration rpc_timeout)
    : rpc_(rpc), name_(std::move(name)), replicas_(std::move(replicas)),
      rpc_timeout_(rpc_timeout) {}

void MajorityConsensusStats::RegisterWith(MetricsRegistry* registry,
                                          const MetricLabels& labels) {
  registry->RegisterCounter("baseline.majority_consensus.reads", labels, &reads);
  registry->RegisterCounter("baseline.majority_consensus.writes", labels, &writes);
  registry->RegisterCounter("baseline.majority_consensus.read_quorum_failures", labels,
                            &read_quorum_failures);
  registry->RegisterCounter("baseline.majority_consensus.write_quorum_failures", labels,
                            &write_quorum_failures);
  registry->AddResetHook([this]() { Reset(); });
}

void MajorityConsensusStore::RegisterMetrics(MetricsRegistry* registry) {
  stats_.RegisterWith(registry,
                      {{"host", rpc_->host()->name()}, {"object", name_}});
}

uint64_t MajorityConsensusStore::NextTimestamp() {
  // (simulated time, host id) pairs are unique and monotone per client;
  // max() with last_ts_+1 keeps them monotone even within one microsecond.
  const uint64_t now = static_cast<uint64_t>(rpc_->sim()->Now().ToMicros());
  const uint64_t ts =
      std::max(last_ts_ + 1, (now << 12) | static_cast<uint64_t>(rpc_->host_id() & 0xfff));
  last_ts_ = ts;
  return ts;
}

Task<Result<std::string>> MajorityConsensusStore::Read() {
  ++stats_.reads;
  const size_t majority = replicas_.size() / 2 + 1;
  std::vector<Task<Result<TsReadResp>>> calls;
  calls.reserve(replicas_.size());
  for (HostId host : replicas_) {
    calls.push_back(CallRead(rpc_, host, name_, rpc_timeout_));
  }
  std::function<bool(const std::vector<Result<TsReadResp>>&)> enough =
      [majority](const std::vector<Result<TsReadResp>>& got) {
        size_t ok = 0;
        for (const Result<TsReadResp>& r : got) {
          if (r.ok()) {
            ++ok;
          }
        }
        return ok >= majority;
      };
  std::vector<Result<TsReadResp>> replies;
  co_await JoinUntil<Result<TsReadResp>>(rpc_->sim(), calls, replies, std::move(enough));

  size_t ok = 0;
  uint64_t best_ts = 0;
  std::string best;
  for (Result<TsReadResp>& r : replies) {
    if (!r.ok()) {
      continue;
    }
    ++ok;
    if (r.value().timestamp >= best_ts) {
      best_ts = r.value().timestamp;
      best = std::move(r.value().contents);
    }
  }
  if (ok < majority) {
    ++stats_.read_quorum_failures;
    co_return UnavailableError("majority read quorum unavailable");
  }
  co_return best;
}

Task<Status> MajorityConsensusStore::Write(std::string contents) {
  ++stats_.writes;
  const size_t majority = replicas_.size() / 2 + 1;
  const uint64_t ts = NextTimestamp();
  std::vector<Task<Result<TsWriteResp>>> calls;
  calls.reserve(replicas_.size());
  for (HostId host : replicas_) {
    calls.push_back(CallWrite(rpc_, host, name_, ts, contents, rpc_timeout_));
  }
  std::function<bool(const std::vector<Result<TsWriteResp>>&)> enough =
      [majority](const std::vector<Result<TsWriteResp>>& got) {
        size_t ok = 0;
        for (const Result<TsWriteResp>& r : got) {
          if (r.ok()) {
            ++ok;
          }
        }
        return ok >= majority;
      };
  std::vector<Result<TsWriteResp>> replies;
  co_await JoinUntil<Result<TsWriteResp>>(rpc_->sim(), calls, replies, std::move(enough));

  size_t ok = 0;
  for (const Result<TsWriteResp>& r : replies) {
    if (r.ok()) {
      ++ok;
    }
  }
  if (ok < majority) {
    ++stats_.write_quorum_failures;
    co_return UnavailableError("majority write quorum unavailable");
  }
  co_return Status::Ok();
}

}  // namespace wvote
