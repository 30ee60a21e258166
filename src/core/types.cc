#include "src/core/types.h"

#include "src/common/bytes.h"

namespace wvote {

std::string VersionedValue::Serialize(Version version, std::string_view contents) {
  BufferWriter w;
  w.WriteU64(version);
  w.WriteString(contents);
  return w.Take();
}

Result<VersionedValue> VersionedValue::Parse(std::string bytes) {
  BufferReader r(bytes);
  VersionedValue v;
  v.version = r.ReadU64();
  const std::string_view contents = r.ReadStringView();
  if (r.failed() || !r.AtEnd()) {
    return CorruptionError("bad versioned value");
  }
  bytes.erase(0, bytes.size() - contents.size());
  v.contents = std::move(bytes);
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
