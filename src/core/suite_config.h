// Suite configuration: the "prefix" of a file suite.
//
// A SuiteConfig names every representative, assigns each its votes, and
// fixes the read and write quorums. Gifford stores this structure in the
// prefix of every representative, versioned by config_version, so that the
// configuration itself is replicated data and can be changed with the same
// quorum machinery (see SuiteClient::Reconfigure).
//
// Correctness constraints enforced by Validate():
//   r + w > V  — every read quorum intersects every write quorum, so a read
//                always sees at least one current representative;
//   2w > V     — any two write quorums intersect, so version numbers grow
//                monotonically and writes are totally ordered;
//   1 <= r, w <= V, and every vote weight >= 0 (0 = weak representative).

#ifndef WVOTE_SRC_CORE_SUITE_CONFIG_H_
#define WVOTE_SRC_CORE_SUITE_CONFIG_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/time.h"
#include "src/net/message.h"

namespace wvote {

struct RepresentativeInfo {
  std::string host_name;  // resolved to a HostId at deployment
  int votes = 0;          // 0 => weak representative (cache, never in quorums)

  bool weak() const { return votes == 0; }
};

struct SuiteConfig {
  std::string suite_name;
  uint64_t config_version = 1;
  std::vector<RepresentativeInfo> representatives;
  int read_quorum = 0;   // r
  int write_quorum = 0;  // w
  // Chaos negative controls only: Validate() skips the two intersection
  // checks (r + w > V, 2w > V) so a deliberately broken configuration can be
  // deployed and the consistency checker proven able to catch the resulting
  // stale reads. Structural checks still apply. Deliberately NOT serialized:
  // a prefix on the wire can never carry it.
  bool allow_unsafe_quorums = false;

  int TotalVotes() const;

  // Checks the quorum-intersection invariants above.
  Status Validate() const;

  // Convenience constructors for common shapes.
  static SuiteConfig MakeUniform(std::string suite, std::vector<std::string> hosts, int r,
                                 int w);

  void AddRepresentative(std::string host, int votes);
  void AddWeakRepresentative(std::string host) { AddRepresentative(std::move(host), 0); }

  std::string Serialize() const;
  static Result<SuiteConfig> Parse(const std::string& bytes);

  std::string ToString() const;
};

}  // namespace wvote

#endif  // WVOTE_SRC_CORE_SUITE_CONFIG_H_
