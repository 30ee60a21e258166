#include "src/common/bytes.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace wvote {
namespace {

TEST(BytesTest, ScalarRoundTrip) {
  BufferWriter w;
  w.WriteU8(200);
  w.WriteU32(123456);
  w.WriteU64(0xdeadbeefcafebabeULL);
  w.WriteI64(-42);
  w.WriteDouble(3.25);
  w.WriteBool(true);
  w.WriteBool(false);

  BufferReader r(w.str());
  EXPECT_EQ(r.ReadU8(), 200);
  EXPECT_EQ(r.ReadU32(), 123456u);
  EXPECT_EQ(r.ReadU64(), 0xdeadbeefcafebabeULL);
  EXPECT_EQ(r.ReadI64(), -42);
  EXPECT_DOUBLE_EQ(r.ReadDouble(), 3.25);
  EXPECT_TRUE(r.ReadBool());
  EXPECT_FALSE(r.ReadBool());
  EXPECT_FALSE(r.failed());
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, StringRoundTrip) {
  BufferWriter w;
  w.WriteString("hello");
  w.WriteString("");
  w.WriteString(std::string(10000, 'z'));

  BufferReader r(w.str());
  EXPECT_EQ(r.ReadString(), "hello");
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_EQ(r.ReadString(), std::string(10000, 'z'));
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, StringWithEmbeddedNuls) {
  std::string s = "a";
  s.push_back('\0');
  s += "b";
  BufferWriter w;
  w.WriteString(s);
  BufferReader r(w.str());
  EXPECT_EQ(r.ReadString(), s);
}

TEST(BytesTest, ReadPastEndFails) {
  BufferWriter w;
  w.WriteU32(7);
  BufferReader r(w.str());
  EXPECT_EQ(r.ReadU32(), 7u);
  EXPECT_EQ(r.ReadU64(), 0u);  // past end: zero + failed
  EXPECT_TRUE(r.failed());
}

TEST(BytesTest, BadLengthPrefixFails) {
  BufferWriter w;
  w.WriteU32(1000000);  // claims a huge string, no bytes follow
  BufferReader r(w.str());
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_TRUE(r.failed());
}

TEST(BytesTest, FailureIsSticky) {
  const std::string two_bytes("ab");
  BufferReader r(two_bytes);
  (void)r.ReadU64();
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.ReadU8(), 0);
  EXPECT_TRUE(r.failed());
}

TEST(BytesTest, EmptyBufferAtEnd) {
  // BufferReader holds a reference; the buffer must outlive it.
  const std::string empty;
  BufferReader r(empty);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_FALSE(r.failed());
}

TEST(BytesTest, TakeMovesBuffer) {
  BufferWriter w;
  w.WriteString("payload");
  std::string taken = w.Take();
  EXPECT_FALSE(taken.empty());
}

TEST(PageChecksumTest, EverySingleBitFlipChangesTheChecksum) {
  std::string page(1024, '\0');
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<char>(i * 131 + 7);
  }
  const uint64_t clean = PageChecksum(42, page);
  for (size_t byte = 0; byte < page.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      page[byte] = static_cast<char>(page[byte] ^ (1 << bit));
      EXPECT_NE(PageChecksum(42, page), clean) << "byte " << byte << " bit " << bit;
      page[byte] = static_cast<char>(page[byte] ^ (1 << bit));
    }
  }
  EXPECT_EQ(PageChecksum(42, page), clean);
}

TEST(PageChecksumTest, EveryPrefixLengthHasItsOwnChecksum) {
  // Lengths 0..40 cover empty data, whole words, and every tail size; the
  // zero bytes check that padding the tail does not alias a longer page.
  std::string data = "stable storage, careful write";
  data.append(12, '\0');
  std::set<uint64_t> seen;
  for (size_t len = 0; len <= 40; ++len) {
    EXPECT_TRUE(seen.insert(PageChecksum(7, data.substr(0, len))).second) << "len " << len;
  }
}

TEST(PageChecksumTest, SequenceNumberIsCovered) {
  const std::string page(1036, 'x');
  EXPECT_NE(PageChecksum(1, page), PageChecksum(2, page));
  EXPECT_NE(PageChecksum(0, ""), PageChecksum(1, ""));
  EXPECT_NE(PageChecksum(1ULL << 63, page), PageChecksum(0, page));
}

// Pins the checksum's values, so that any change to the kernel is a
// deliberate one.
TEST(PageChecksumTest, PinnedValues) {
  EXPECT_EQ(PageChecksum(0, ""), 0x298b6baac87700f4ULL);
  EXPECT_EQ(PageChecksum(1, "a"), 0xfcb0627ec99e2bf0ULL);
  EXPECT_EQ(PageChecksum(7, "stable storage"), 0xd768f3fa7d632396ULL);
  EXPECT_EQ(PageChecksum(3, std::string(1036, 'x')), 0x891caf6173d60ed8ULL);
}

}  // namespace
}  // namespace wvote
