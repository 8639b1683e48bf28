// json_parse keeps integer literals exact over [-2^63, 2^64 - 1] and
// treats anything beyond as a plain number, so a reader asking for an
// integer gets an error instead of a clamped value.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "obs/json_parse.h"

namespace sorn {
namespace {

JsonValue parse(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(json_parse(text, &v, &error)) << error;
  return v;
}

TEST(JsonParseTest, IntegersAreExactAcrossTheUint64AndInt64Ranges) {
  std::uint64_t u = 0;
  ASSERT_TRUE(parse("18446744073709551615").get_integer(&u));
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  ASSERT_TRUE(parse("9223372036854775808").get_integer(&u));
  EXPECT_EQ(u, std::uint64_t{1} << 63);

  std::int64_t i = 0;
  ASSERT_TRUE(parse("-9223372036854775808").get_integer(&i));
  EXPECT_EQ(i, std::numeric_limits<std::int64_t>::min());
  ASSERT_TRUE(parse("9223372036854775807").get_integer(&i));
  EXPECT_EQ(i, std::numeric_limits<std::int64_t>::max());
}

TEST(JsonParseTest, LiteralsBeyondTheRangeAreNotIntegers) {
  for (const char* text : {"18446744073709551616", "99999999999999999999",
                           "-9223372036854775809"}) {
    const JsonValue v = parse(text);
    EXPECT_TRUE(v.is_number()) << text;
    EXPECT_FALSE(v.is_integer()) << text;
    std::int64_t i = 0;
    EXPECT_FALSE(v.get_integer(&i)) << text;
  }
  EXPECT_FALSE(parse("1.0").is_integer());
  EXPECT_FALSE(parse("1e3").is_integer());
}

TEST(JsonParseTest, GetIntegerChecksTheTargetRange) {
  std::int32_t i32 = 7;
  EXPECT_FALSE(parse("4294967328").get_integer(&i32));
  EXPECT_FALSE(parse("-2147483649").get_integer(&i32));
  EXPECT_EQ(i32, 7);  // untouched on failure
  ASSERT_TRUE(parse("-2147483648").get_integer(&i32));
  EXPECT_EQ(i32, std::numeric_limits<std::int32_t>::min());

  std::uint32_t u32 = 0;
  EXPECT_FALSE(parse("4294967296").get_integer(&u32));
  EXPECT_FALSE(parse("-1").get_integer(&u32));
  ASSERT_TRUE(parse("4294967295").get_integer(&u32));
  EXPECT_EQ(u32, std::numeric_limits<std::uint32_t>::max());
}

TEST(JsonParseTest, IntegerLiteralsKeepTheirDoubleValue) {
  const JsonValue minus_zero = parse("-0");
  std::int64_t i = 1;
  ASSERT_TRUE(minus_zero.get_integer(&i));
  EXPECT_EQ(i, 0);
  EXPECT_TRUE(std::signbit(minus_zero.as_double()));
  EXPECT_DOUBLE_EQ(parse("18446744073709551615").as_double(), 0x1p64);
}

}  // namespace
}  // namespace sorn
