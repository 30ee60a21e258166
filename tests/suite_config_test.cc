#include "src/core/suite_config.h"

#include <gtest/gtest.h>

#include "src/core/types.h"

namespace wvote {
namespace {

SuiteConfig Valid() {
  SuiteConfig cfg = SuiteConfig::MakeUniform("s", {"a", "b", "c"}, 2, 2);
  return cfg;
}

TEST(SuiteConfigTest, ValidConfigPasses) { EXPECT_TRUE(Valid().Validate().ok()); }

TEST(SuiteConfigTest, TotalAndVotingCounts) {
  SuiteConfig cfg;
  cfg.suite_name = "s";
  cfg.AddRepresentative("a", 2);
  cfg.AddRepresentative("b", 1);
  cfg.AddWeakRepresentative("cache");
  EXPECT_EQ(cfg.TotalVotes(), 3);
  EXPECT_TRUE(cfg.representatives[2].weak());
}

TEST(SuiteConfigTest, RejectsEmptyName) {
  SuiteConfig cfg = Valid();
  cfg.suite_name.clear();
  EXPECT_EQ(cfg.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(SuiteConfigTest, RejectsNoRepresentatives) {
  SuiteConfig cfg;
  cfg.suite_name = "s";
  cfg.read_quorum = 1;
  cfg.write_quorum = 1;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(SuiteConfigTest, RejectsAllWeak) {
  SuiteConfig cfg;
  cfg.suite_name = "s";
  cfg.AddWeakRepresentative("a");
  cfg.read_quorum = 1;
  cfg.write_quorum = 1;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(SuiteConfigTest, RejectsNegativeVotes) {
  SuiteConfig cfg = Valid();
  cfg.representatives[0].votes = -1;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(SuiteConfigTest, RejectsEmptyHostName) {
  SuiteConfig cfg = Valid();
  cfg.representatives[0].host_name.clear();
  EXPECT_FALSE(cfg.Validate().ok());
}

// Exhaustive sweep over (r, w) for V=5: exactly the pairs satisfying both
// r + w > V and 2w > V validate.
class QuorumPairSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(QuorumPairSweep, ValidityMatchesInvariants) {
  const int r = std::get<0>(GetParam());
  const int w = std::get<1>(GetParam());
  SuiteConfig cfg = SuiteConfig::MakeUniform("s", {"a", "b", "c", "d", "e"}, r, w);
  const bool expect_valid = r >= 1 && w >= 1 && r <= 5 && w <= 5 && r + w > 5 && 2 * w > 5;
  EXPECT_EQ(cfg.Validate().ok(), expect_valid)
      << "r=" << r << " w=" << w << ": " << cfg.Validate().ToString();
}

INSTANTIATE_TEST_SUITE_P(AllPairs, QuorumPairSweep,
                         ::testing::Combine(::testing::Range(0, 7),
                                            ::testing::Range(0, 7)));

TEST(SuiteConfigTest, SerializeParseRoundTrip) {
  SuiteConfig cfg;
  cfg.suite_name = "catalog";
  cfg.config_version = 42;
  cfg.AddRepresentative("host-one", 3);
  cfg.AddRepresentative("host-two", 1);
  cfg.AddWeakRepresentative("cache-host");
  cfg.read_quorum = 2;
  cfg.write_quorum = 3;

  Result<SuiteConfig> parsed = SuiteConfig::Parse(cfg.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().suite_name, "catalog");
  EXPECT_EQ(parsed.value().config_version, 42u);
  EXPECT_EQ(parsed.value().read_quorum, 2);
  EXPECT_EQ(parsed.value().write_quorum, 3);
  ASSERT_EQ(parsed.value().representatives.size(), 3u);
  EXPECT_EQ(parsed.value().representatives[0].host_name, "host-one");
  EXPECT_EQ(parsed.value().representatives[0].votes, 3);
  EXPECT_TRUE(parsed.value().representatives[2].weak());
}

TEST(SuiteConfigTest, ParseRejectsGarbage) {
  EXPECT_FALSE(SuiteConfig::Parse("junk").ok());
  EXPECT_FALSE(SuiteConfig::Parse("").ok());
}

TEST(SuiteConfigTest, ToStringMentionsEverything) {
  const std::string s = Valid().ToString();
  EXPECT_NE(s.find("r=2"), std::string::npos);
  EXPECT_NE(s.find("w=2"), std::string::npos);
  EXPECT_NE(s.find("a:1"), std::string::npos);
}

TEST(VersionedValueTest, RoundTrip) {
  VersionedValue v{7, std::string(100, 'v')};
  Result<VersionedValue> parsed = VersionedValue::Parse(v.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().version, 7u);
  EXPECT_EQ(parsed.value().contents, std::string(100, 'v'));
}

TEST(VersionedValueTest, ParseRejectsGarbage) {
  EXPECT_FALSE(VersionedValue::Parse("x").ok());
}

TEST(VersionedValueTest, KeysAreNamespaced) {
  EXPECT_EQ(SuiteValueKey("f"), "suite/f");
  EXPECT_EQ(SuitePrefixKey("f"), "prefix/f");
  EXPECT_NE(SuiteValueKey("f"), SuitePrefixKey("f"));
}

}  // namespace
}  // namespace wvote
