#include "src/core/types.h"

#include "src/common/bytes.h"

namespace wvote {

std::string VersionedValue::Serialize() const {
  BufferWriter w;
  w.WriteU64(version);
  w.WriteString(contents);
  return w.Take();
}

Result<VersionedValue> VersionedValue::Parse(const std::string& bytes) {
  BufferReader r(bytes);
  VersionedValue v;
  v.version = r.ReadU64();
  v.contents = r.ReadString();
  if (r.failed() || !r.AtEnd()) {
    return CorruptionError("bad versioned value");
  }
  return v;
}

Result<Version> VersionedValue::ParseVersion(const std::string& bytes) {
  BufferReader r(bytes);
  const Version version = r.ReadU64();
  r.SkipString();
  if (r.failed() || !r.AtEnd()) {
    return CorruptionError("bad versioned value");
  }
  return version;
}

std::string SuiteValueKey(const std::string& suite) { return "suite/" + suite; }

std::string SuitePrefixKey(const std::string& suite) { return "prefix/" + suite; }

}  // namespace wvote
