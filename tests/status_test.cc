#include "src/common/status.h"

#include <gtest/gtest.h>

#include <type_traits>

namespace wvote {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = TimeoutError("deadline passed");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kTimeout);
  EXPECT_EQ(st.message(), "deadline passed");
  EXPECT_EQ(st.ToString(), "TIMEOUT: deadline passed");
}

TEST(StatusTest, IsTriviallyCopyable) {
  EXPECT_TRUE(std::is_trivially_copyable_v<Status>);
}

TEST(StatusTest, LongMessagesTruncateSafely) {
  const std::string long_message(500, 'x');
  Status st = InternalError(long_message);
  EXPECT_EQ(st.message().size(), Status::kMaxMessage);
  EXPECT_EQ(st.message(), long_message.substr(0, Status::kMaxMessage));
}

TEST(StatusTest, PartsReadLikeTheirConcatenation) {
  const std::string middle(100, 'm');
  Status st(StatusCode::kConflict, {"head ", middle, " tail", " after the limit"});
  const Status concatenated =
      ConflictError("head " + middle + " tail" + " after the limit");
  EXPECT_EQ(st.code(), StatusCode::kConflict);
  EXPECT_EQ(st.message(), concatenated.message());
  EXPECT_EQ(st.message().size(), Status::kMaxMessage);
  EXPECT_EQ(Status(StatusCode::kNotFound, {"no page ", "k"}).message(), "no page k");
}

TEST(StatusTest, EqualityComparesCodeOnly) {
  EXPECT_EQ(TimeoutError("a"), TimeoutError("b"));
  EXPECT_FALSE(TimeoutError("a") == AbortedError("a"));
}

TEST(StatusTest, EveryFactoryProducesItsCode) {
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(TimeoutError("x").code(), StatusCode::kTimeout);
  EXPECT_EQ(AbortedError("x").code(), StatusCode::kAborted);
  EXPECT_EQ(ConflictError("x").code(), StatusCode::kConflict);
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(FailedPreconditionError("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(CorruptionError("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, CodeNamesAreDistinct) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "UNAVAILABLE");
  EXPECT_STREQ(StatusCodeName(StatusCode::kConflict), "CONFLICT");
  EXPECT_STRNE(StatusCodeName(StatusCode::kTimeout), StatusCodeName(StatusCode::kAborted));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFoundError("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValueTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> owned = std::move(r).value();
  EXPECT_EQ(*owned, 7);
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> r = std::string("hello");
  EXPECT_EQ(r->size(), 5u);
}

TEST(ResultTest, StringValueRoundTrip) {
  Result<std::string> r = std::string(1000, 'q');
  ASSERT_TRUE(r.ok());
  Result<std::string> copy = r;
  EXPECT_EQ(copy.value(), r.value());
}

TEST(ReturnIfErrorTest, PropagatesError) {
  auto fails = []() -> Status { return AbortedError("inner"); };
  auto outer = [&]() -> Status {
    WVOTE_RETURN_IF_ERROR(fails());
    return Status::Ok();
  };
  EXPECT_EQ(outer().code(), StatusCode::kAborted);
}

TEST(ReturnIfErrorTest, PassesOk) {
  auto succeeds = []() -> Status { return Status::Ok(); };
  auto outer = [&]() -> Status {
    WVOTE_RETURN_IF_ERROR(succeeds());
    return InternalError("reached end");
  };
  EXPECT_EQ(outer().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace wvote
