#include "src/core/suite_config.h"

#include "src/common/bytes.h"

namespace wvote {

int SuiteConfig::TotalVotes() const {
  int total = 0;
  for (const RepresentativeInfo& rep : representatives) {
    total += rep.votes;
  }
  return total;
}

Status SuiteConfig::Validate() const {
  if (suite_name.empty()) {
    return InvalidArgumentError("suite name empty");
  }
  if (representatives.empty()) {
    return InvalidArgumentError("no representatives");
  }
  for (const RepresentativeInfo& rep : representatives) {
    if (rep.votes < 0) {
      return InvalidArgumentError("negative votes for " + rep.host_name);
    }
    if (rep.host_name.empty()) {
      return InvalidArgumentError("representative with empty host name");
    }
  }
  const int v = TotalVotes();
  if (v <= 0) {
    return InvalidArgumentError("suite has no votes");
  }
  if (read_quorum < 1 || read_quorum > v) {
    return InvalidArgumentError("read quorum " + std::to_string(read_quorum) +
                                " out of range [1, " + std::to_string(v) + "]");
  }
  if (write_quorum < 1 || write_quorum > v) {
    return InvalidArgumentError("write quorum " + std::to_string(write_quorum) +
                                " out of range [1, " + std::to_string(v) + "]");
  }
  if (allow_unsafe_quorums) {
    // Chaos negative control: deploy anyway; the checker's job is to notice.
    return Status::Ok();
  }
  if (read_quorum + write_quorum <= v) {
    return InvalidArgumentError("r + w must exceed total votes (r=" +
                                std::to_string(read_quorum) +
                                ", w=" + std::to_string(write_quorum) +
                                ", V=" + std::to_string(v) + ")");
  }
  if (2 * write_quorum <= v) {
    return InvalidArgumentError("2w must exceed total votes (w=" +
                                std::to_string(write_quorum) + ", V=" + std::to_string(v) +
                                ")");
  }
  return Status::Ok();
}

SuiteConfig SuiteConfig::MakeUniform(std::string suite, std::vector<std::string> hosts, int r,
                                     int w) {
  SuiteConfig cfg;
  cfg.suite_name = std::move(suite);
  for (std::string& h : hosts) {
    cfg.AddRepresentative(std::move(h), 1);
  }
  cfg.read_quorum = r;
  cfg.write_quorum = w;
  return cfg;
}

void SuiteConfig::AddRepresentative(std::string host, int votes) {
  representatives.push_back(RepresentativeInfo{std::move(host), votes});
}

std::string SuiteConfig::Serialize() const {
  BufferWriter w;
  w.WriteString(suite_name);
  w.WriteU64(config_version);
  w.WriteU32(static_cast<uint32_t>(read_quorum));
  w.WriteU32(static_cast<uint32_t>(write_quorum));
  w.WriteU32(static_cast<uint32_t>(representatives.size()));
  for (const RepresentativeInfo& rep : representatives) {
    w.WriteString(rep.host_name);
    w.WriteU32(static_cast<uint32_t>(rep.votes));
  }
  return w.Take();
}

Result<SuiteConfig> SuiteConfig::Parse(const std::string& bytes) {
  BufferReader r(bytes);
  SuiteConfig cfg;
  cfg.suite_name = r.ReadString();
  cfg.config_version = r.ReadU64();
  cfg.read_quorum = static_cast<int>(r.ReadU32());
  cfg.write_quorum = static_cast<int>(r.ReadU32());
  const uint32_t n = r.ReadU32();
  for (uint32_t i = 0; i < n && !r.failed(); ++i) {
    RepresentativeInfo rep;
    rep.host_name = r.ReadString();
    rep.votes = static_cast<int>(r.ReadU32());
    cfg.representatives.push_back(std::move(rep));
  }
  if (r.failed() || !r.AtEnd()) {
    return CorruptionError("bad suite config");
  }
  return cfg;
}

std::string SuiteConfig::ToString() const {
  std::string out = suite_name + "@cfg" + std::to_string(config_version) + "{r=" +
                    std::to_string(read_quorum) + ",w=" + std::to_string(write_quorum) + ",[";
  for (size_t i = 0; i < representatives.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += representatives[i].host_name + ":" + std::to_string(representatives[i].votes);
  }
  out += "]}";
  return out;
}

}  // namespace wvote
