// DenseBitset: the ascending host-id and probe-position sets of the suite
// client. Iteration must match std::set exactly, because release and abort
// messages go out in that order.

#include "src/common/dense_bitset.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/net/message.h"
#include "src/sim/random.h"

namespace wvote {
namespace {

template <typename T>
std::vector<T> Members(const DenseBitset<T>& bits) {
  std::vector<T> out;
  bits.ForEach([&out](T v) { out.push_back(v); });
  return out;
}

TEST(DenseBitsetTest, IteratesLikeStdSetAcrossWords) {
  Rng rng(7);
  DenseBitset<HostId> bits;
  std::set<HostId> reference;
  for (int i = 0; i < 200; ++i) {
    const auto host = static_cast<HostId>(rng.NextBelow(300));  // spans five words
    bits.Insert(host);
    reference.insert(host);
  }
  EXPECT_EQ(Members(bits), std::vector<HostId>(reference.begin(), reference.end()));
  for (HostId host = 0; host < 320; ++host) {
    EXPECT_EQ(bits.Contains(host), reference.count(host) != 0) << host;
  }
}

TEST(DenseBitsetTest, WordBoundaries) {
  DenseBitset<size_t> bits;
  EXPECT_TRUE(Members(bits).empty());
  for (size_t v : {size_t{128}, size_t{63}, size_t{64}, size_t{0}, size_t{127}, size_t{64}}) {
    bits.Insert(v);
  }
  EXPECT_EQ(Members(bits), (std::vector<size_t>{0, 63, 64, 127, 128}));
  EXPECT_FALSE(bits.Contains(1));
  EXPECT_FALSE(bits.Contains(1000));  // past the last word
}

TEST(DenseBitsetTest, ClearEmptiesAndAllowsReuse) {
  DenseBitset<HostId> bits;
  bits.Insert(70);
  bits.Insert(3);
  bits.Clear();
  EXPECT_TRUE(Members(bits).empty());
  EXPECT_FALSE(bits.Contains(70));
  bits.Insert(65);
  bits.Insert(2);
  EXPECT_EQ(Members(bits), (std::vector<HostId>{2, 65}));
}

}  // namespace
}  // namespace wvote
