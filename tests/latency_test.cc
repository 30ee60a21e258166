#include "src/sim/latency.h"

#include <gtest/gtest.h>

namespace wvote {
namespace {

TEST(LatencyModelTest, FixedAlwaysReturnsValue) {
  Rng rng(1);
  LatencyModel m = LatencyModel::Fixed(Duration::Millis(42));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(m.Sample(rng), Duration::Millis(42));
  }
  EXPECT_EQ(m.Mean(), Duration::Millis(42));
}

TEST(LatencyModelTest, DefaultIsZero) {
  Rng rng(1);
  LatencyModel m;
  EXPECT_EQ(m.Sample(rng), Duration::Zero());
  EXPECT_EQ(m.Mean(), Duration::Zero());
}

TEST(LatencyModelTest, UniformStaysInBounds) {
  Rng rng(2);
  LatencyModel m = LatencyModel::Uniform(Duration::Millis(10), Duration::Millis(20));
  int64_t sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const Duration d = m.Sample(rng);
    EXPECT_GE(d, Duration::Millis(10));
    EXPECT_LE(d, Duration::Millis(20));
    sum += d.ToMicros();
  }
  EXPECT_NEAR(static_cast<double>(sum) / 10000.0, 15000.0, 300.0);
  EXPECT_EQ(m.Mean(), Duration::Millis(15));
}

TEST(LatencyModelTest, ToStringNamesKind) {
  EXPECT_EQ(LatencyModel::Fixed(Duration::Millis(1)).ToString(), "fixed(1ms)");
  EXPECT_NE(LatencyModel::Uniform(Duration::Zero(), Duration::Millis(1))
                .ToString()
                .find("uniform"),
            std::string::npos);
}

}  // namespace
}  // namespace wvote
