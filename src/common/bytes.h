// Minimal binary serialization: fixed-width little-endian fields and
// length-prefixed strings. Used for everything that is "on disk" in the
// simulated stable storage (file contents, suite prefixes, intention logs),
// so that recovery code genuinely re-parses bytes rather than sharing live
// pointers with the pre-crash state.

#ifndef WVOTE_SRC_COMMON_BYTES_H_
#define WVOTE_SRC_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace wvote {

class BufferWriter {
 public:
  BufferWriter() = default;
  // Appends to `*out` instead of an owned buffer, so a caller that keeps
  // `out` across serializations reuses its capacity.
  explicit BufferWriter(std::string* out) : buf_(out) {}
  BufferWriter(const BufferWriter&) = delete;
  BufferWriter& operator=(const BufferWriter&) = delete;

  void WriteU8(uint8_t v) { buf_->push_back(static_cast<char>(v)); }

  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteDouble(double v) { WriteRaw(&v, sizeof(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  void WriteString(std::string_view s) {
    WriteU32(static_cast<uint32_t>(s.size()));
    buf_->append(s);
  }

  const std::string& str() const { return *buf_; }
  std::string Take() { return std::move(*buf_); }

 private:
  void WriteRaw(const void* p, size_t n) {
    // Host is little-endian on every supported target; a big-endian port
    // would byte-swap here.
    buf_->append(reinterpret_cast<const char*>(p), n);
  }
  std::string own_;
  std::string* buf_ = &own_;
};

// Reader with explicit failure state: any read past the end (or a bad length
// prefix) sets failed() and returns zero values, so parsers can check once
// at the end instead of after every field.
class BufferReader {
 public:
  explicit BufferReader(std::string_view data) : data_(data) {}

  uint8_t ReadU8() {
    uint8_t v = 0;
    ReadRaw(&v, sizeof(v));
    return v;
  }
  uint32_t ReadU32() {
    uint32_t v = 0;
    ReadRaw(&v, sizeof(v));
    return v;
  }
  uint64_t ReadU64() {
    uint64_t v = 0;
    ReadRaw(&v, sizeof(v));
    return v;
  }
  int64_t ReadI64() {
    int64_t v = 0;
    ReadRaw(&v, sizeof(v));
    return v;
  }
  double ReadDouble() {
    double v = 0;
    ReadRaw(&v, sizeof(v));
    return v;
  }
  bool ReadBool() { return ReadU8() != 0; }

  std::string ReadString() { return std::string(ReadStringView()); }

  // One length-prefixed string as a view into the data, without copying.
  std::string_view ReadStringView() {
    const uint32_t n = ReadU32();
    if (failed_ || pos_ + n > data_.size()) {
      failed_ = true;
      return std::string_view();
    }
    const std::string_view s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  // Advances past one length-prefixed string without copying it.
  void SkipString() { (void)ReadStringView(); }

  bool failed() const { return failed_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  void ReadRaw(void* p, size_t n) {
    if (failed_ || pos_ + n > data_.size()) {
      failed_ = true;
      std::memset(p, 0, n);
      return;
    }
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

// Checksum of one stable-storage slot: its sequence number, its data length
// and every data byte. Word at a time: each 8-byte little-endian word, then
// the zero-padded byte tail, goes through one multiply-xorshift step. A step
// is a bijection of the running state for a fixed word, and of the word for
// a fixed state, so two slots that differ only in `seq` or only inside one
// word (every single-bit flip, for one) always get different checksums.
inline uint64_t PageChecksum(uint64_t seq, const std::string& data) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;  // odd: invertible mod 2^64
  auto step = [](uint64_t h, uint64_t word) {
    h = (h ^ word) * kMul;
    return h ^ (h >> 29);
  };
  uint64_t h = step(0x6a09e667f3bcc908ULL ^ data.size(), seq);
  const char* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    h = step(h, word);
  }
  if (n > 0) {
    uint64_t word = 0;
    std::memcpy(&word, p, n);
    h = step(h, word);
  }
  return h;
}

}  // namespace wvote

#endif  // WVOTE_SRC_COMMON_BYTES_H_
