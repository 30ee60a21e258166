// Core value types for weighted-voting file suites.

#ifndef WVOTE_SRC_CORE_TYPES_H_
#define WVOTE_SRC_CORE_TYPES_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace wvote {

// Version numbers order committed states of a suite. Version 0 means "never
// written"; the first committed write produces version 1.
using Version = uint64_t;

// The representative's durable copy of a suite: the current version number
// and the full file contents (Gifford's files are read and written whole).
struct VersionedValue {
  Version version = 0;
  std::string contents;

  VersionedValue() = default;
  VersionedValue(Version v, std::string c) : version(v), contents(std::move(c)) {}

  std::string Serialize() const { return Serialize(version, contents); }
  // The bytes of VersionedValue{version, contents}.Serialize(), without
  // first copying `contents` into a VersionedValue.
  static std::string Serialize(Version version, std::string_view contents);
  // Takes the page over: the contents keep `bytes`'s buffer, with the
  // header dropped in place, instead of being copied out of it.
  static Result<VersionedValue> Parse(std::string bytes);
  // Validates `bytes` exactly as Parse does but returns only the version,
  // without copying the contents.
  static Result<Version> ParseVersion(const std::string& bytes);
};

// Durable page keys used by representatives (under Participant::DataKey).
std::string SuiteValueKey(const std::string& suite);
std::string SuitePrefixKey(const std::string& suite);

}  // namespace wvote

#endif  // WVOTE_SRC_CORE_TYPES_H_
