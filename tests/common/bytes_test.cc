// The byte codec shared by every binary format (common/bytes.h): each
// primitive round-trips, a read past the end latches a failure, and a
// length or count that the bytes cannot hold is refused.

#include "common/bytes.h"

#include <climits>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

namespace hpm {
namespace {

TEST(WireTest, RoundTripsEveryPrimitive) {
  std::string buf;
  bytes::PutU8(&buf, 0xAB);
  bytes::PutU32(&buf, 0xDEADBEEF);
  bytes::PutU64(&buf, 0x0123456789ABCDEFull);
  bytes::PutI64(&buf, -42);
  bytes::PutF64(&buf, 2.5);
  bytes::PutString(&buf, "hello");

  bytes::Cursor cursor(buf);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double f64 = 0;
  std::string s;
  EXPECT_TRUE(cursor.U8(&u8));
  EXPECT_TRUE(cursor.U32(&u32));
  EXPECT_TRUE(cursor.U64(&u64));
  EXPECT_TRUE(cursor.I64(&i64));
  EXPECT_TRUE(cursor.F64(&f64));
  EXPECT_TRUE(cursor.String(&s));
  EXPECT_TRUE(cursor.done());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(f64, 2.5);
  EXPECT_EQ(s, "hello");
}

TEST(WireTest, UnderrunPoisonsTheCursor) {
  std::string buf;
  bytes::PutU32(&buf, 7);
  bytes::Cursor cursor(buf);
  uint64_t v = 0;
  EXPECT_FALSE(cursor.U64(&v));
  EXPECT_FALSE(cursor.ok());
  uint32_t w = 0;
  EXPECT_FALSE(cursor.U32(&w));  // poisoned: even a fitting read fails
}

TEST(WireTest, OversizedStringLengthIsRejected) {
  std::string buf;
  bytes::PutU32(&buf, 1u << 30);  // length prefix far beyond the payload
  buf.append("xx");
  bytes::Cursor cursor(buf);
  std::string s;
  EXPECT_FALSE(cursor.String(&s));
  EXPECT_FALSE(cursor.ok());
}

TEST(BytesTest, WritesLittleEndian) {
  std::string buf;
  bytes::PutU32(&buf, 0x01020304);
  bytes::PutI32(&buf, -2);
  EXPECT_EQ(buf, std::string("\x04\x03\x02\x01\xfe\xff\xff\xff", 8));
}

TEST(BytesTest, IntRefusesAnI64ThatDoesNotFit) {
  std::string buf;
  bytes::PutI64(&buf, INT_MIN);
  bytes::PutI64(&buf, int64_t{1} << 40);
  bytes::Cursor cursor(buf);
  int v = 0;
  EXPECT_TRUE(cursor.Int(&v));
  EXPECT_EQ(v, INT_MIN);
  EXPECT_FALSE(cursor.Int(&v));
  EXPECT_FALSE(cursor.ok());
  EXPECT_EQ(v, INT_MIN);  // a refused read leaves the target alone
}

TEST(BytesTest, FlagIsZeroOrOne) {
  const std::string buf("\x00\x01\x02", 3);
  bytes::Cursor cursor(buf);
  bool flag = true;
  EXPECT_TRUE(cursor.Flag(&flag));
  EXPECT_FALSE(flag);
  EXPECT_TRUE(cursor.Flag(&flag));
  EXPECT_TRUE(flag);
  EXPECT_FALSE(cursor.Flag(&flag));
  EXPECT_FALSE(cursor.ok());
}

TEST(BytesTest, CountIsRefusedWhenItsItemsCannotFit) {
  std::string buf;
  bytes::PutU32(&buf, 3);
  buf.append(24, 'x');
  uint32_t n = 0;
  bytes::Cursor fits(buf);
  EXPECT_TRUE(fits.Count(&n, 8));
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(fits.pos(), 4u);
  EXPECT_EQ(fits.remaining(), 24u);
  bytes::Cursor too_wide(buf);
  EXPECT_FALSE(too_wide.Count(&n, 9));
  EXPECT_FALSE(too_wide.ok());

  std::string lying;
  bytes::PutU32(&lying, UINT32_MAX);
  bytes::Cursor cursor(lying);
  EXPECT_FALSE(cursor.Count(&n, 1));
}

}  // namespace
}  // namespace hpm
