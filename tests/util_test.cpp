// Unit tests: util module (byte order, rng, checksums, hexdump, log).
#include <gtest/gtest.h>

#include "util/byte_order.h"
#include "util/checksum.h"
#include "util/hexdump.h"
#include "util/rng.h"
#include "util/types.h"

namespace pa {
namespace {

TEST(ByteOrder, Bswap) {
  EXPECT_EQ(bswap16(0x1234), 0x3412);
  EXPECT_EQ(bswap32(0x12345678u), 0x78563412u);
  EXPECT_EQ(bswap64(0x0102030405060708ull), 0x0807060504030201ull);
  EXPECT_EQ(bswap_n(0x1234, 2), 0x3412u);
  EXPECT_EQ(bswap_n(0xab, 1), 0xabu);
}

TEST(ByteOrder, BigEndianRoundTrip) {
  std::uint8_t buf[8];
  store_be64(buf, 0x0123456789abcdefull);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[7], 0xef);
  EXPECT_EQ(load_be64(buf), 0x0123456789abcdefull);

  store_be32(buf, 0xdeadbeef);
  EXPECT_EQ(load_be32(buf), 0xdeadbeefu);
  store_be16(buf, 0xcafe);
  EXPECT_EQ(load_be16(buf), 0xcafeu);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool differ = false;
  for (int i = 0; i < 10; ++i) differ |= a.next() != b.next();
  EXPECT_TRUE(differ);
}

TEST(Rng, BelowRespectsBound) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  bool lo = false, hi = false;
  for (int i = 0; i < 5000; ++i) {
    auto v = r.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo |= v == -3;
    hi |= v == 3;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng r(13);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
}

TEST(Checksum, Crc32cKnownVector) {
  // "123456789" -> 0xE3069283 (CRC-32C check value)
  const char* s = "123456789";
  auto span = std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s), 9);
  EXPECT_EQ(crc32c(span), 0xe3069283u);
}

TEST(Checksum, Crc32cEmpty) {
  EXPECT_EQ(crc32c({}), 0u);
}

TEST(Checksum, DetectsBitFlip) {
  std::vector<std::uint8_t> data(64, 0xaa);
  auto before = crc32c(data);
  data[13] ^= 0x10;
  EXPECT_NE(crc32c(data), before);
}

TEST(Hexdump, Format) {
  std::vector<std::uint8_t> d{'H', 'i', 0x00, 0xff};
  std::string out = hexdump(d);
  EXPECT_NE(out.find("48 69 00 ff"), std::string::npos);
  EXPECT_NE(out.find("|Hi..|"), std::string::npos);
}

TEST(Types, Conversions) {
  EXPECT_EQ(vt_us(1), 1000);
  EXPECT_EQ(vt_ms(1), 1'000'000);
  EXPECT_DOUBLE_EQ(vt_to_us(vt_us(170)), 170.0);
  EXPECT_DOUBLE_EQ(vt_to_ms(vt_ms(2)), 2.0);
}

}  // namespace
}  // namespace pa
