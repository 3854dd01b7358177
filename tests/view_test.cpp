// Unit + property tests: byte-order-aware header field access.
#include <gtest/gtest.h>

#include <cstring>
#include <new>

#include "layout/view.h"
#include "util/rng.h"

namespace pa {
namespace {

TEST(HeaderView, AlignedFieldsRoundTrip) {
  LayoutRegistry reg;
  auto h8 = reg.add_field(FieldClass::kProtoSpec, "b", 8);
  auto h16 = reg.add_field(FieldClass::kProtoSpec, "s", 16);
  auto h32 = reg.add_field(FieldClass::kProtoSpec, "w", 32);
  auto h64 = reg.add_field(FieldClass::kProtoSpec, "d", 64);
  auto cl = reg.compile(LayoutMode::kCompact);
  std::vector<std::uint8_t> buf(cl.class_bytes(FieldClass::kProtoSpec), 0);

  HeaderView v(&cl, Endian::kLittle);
  v.set_region(1, buf.data());
  v.set(h8, 0xab);
  v.set(h16, 0x1234);
  v.set(h32, 0xdeadbeef);
  v.set(h64, 0x0123456789abcdefull);
  EXPECT_EQ(v.get(h8), 0xabu);
  EXPECT_EQ(v.get(h16), 0x1234u);
  EXPECT_EQ(v.get(h32), 0xdeadbeefu);
  EXPECT_EQ(v.get(h64), 0x0123456789abcdefull);
}

TEST(HeaderView, WireEndianControlsByteLayout) {
  LayoutRegistry reg;
  auto h = reg.add_field(FieldClass::kProtoSpec, "w", 32, 0);
  auto cl = reg.compile(LayoutMode::kCompact);
  std::uint8_t le_buf[4] = {0}, be_buf[4] = {0};

  HeaderView le(&cl, Endian::kLittle);
  le.set_region(1, le_buf);
  le.set(h, 0x11223344);
  EXPECT_EQ(le_buf[0], 0x44);
  EXPECT_EQ(le_buf[3], 0x11);

  HeaderView be(&cl, Endian::kBig);
  be.set_region(1, be_buf);
  be.set(h, 0x11223344);
  EXPECT_EQ(be_buf[0], 0x11);
  EXPECT_EQ(be_buf[3], 0x44);

  // Cross-read: a big-endian reader of the big-endian bytes agrees.
  EXPECT_EQ(be.get(h), 0x11223344u);
  EXPECT_EQ(le.get(h), 0x11223344u);
}

TEST(HeaderView, SubByteFieldsAreEndianIndependent) {
  LayoutRegistry reg;
  auto f1 = reg.add_field(FieldClass::kProtoSpec, "flag", 1, 0);
  auto f2 = reg.add_field(FieldClass::kProtoSpec, "mode", 3, 1);
  auto cl = reg.compile(LayoutMode::kCompact);
  std::uint8_t buf[1] = {0};

  HeaderView le(&cl, Endian::kLittle);
  le.set_region(1, buf);
  le.set(f1, 1);
  le.set(f2, 0b101);
  // bit 0 = MSB: 1 101 0000
  EXPECT_EQ(buf[0], 0b11010000);

  HeaderView be(&cl, Endian::kBig);
  be.set_region(1, buf);
  EXPECT_EQ(be.get(f1), 1u);
  EXPECT_EQ(be.get(f2), 0b101u);
}

TEST(HeaderView, CrossByteBitField) {
  LayoutRegistry reg;
  auto f = reg.add_field(FieldClass::kProtoSpec, "odd", 13, 5);
  auto cl = reg.compile(LayoutMode::kCompact);
  std::vector<std::uint8_t> buf(cl.class_bytes(FieldClass::kProtoSpec), 0);
  HeaderView v(&cl, Endian::kLittle);
  v.set_region(1, buf.data());
  v.set(f, 0x1abc);
  EXPECT_EQ(v.get(f), 0x1abcu);
}

// The constructor clears only the layout's regions, so a view built over
// dirty storage must still read every one of them as unbound: wide_digest
// (filter/interp.cpp) skips the regions an engine left unbound by that.
TEST(HeaderView, FreshlyBoundViewHasEveryRegionUnbound) {
  LayoutRegistry reg;
  for (LayerId layer = 0; layer < 6; ++layer) {
    reg.set_current_layer(layer);
    reg.add_field(FieldClass::kProtoSpec, "p", 8);
    reg.add_field(FieldClass::kGossip, "g", 16);
    reg.add_field(FieldClass::kMsgSpec, "m", 32);
  }
  for (const LayoutMode mode : {LayoutMode::kCompact, LayoutMode::kClassic}) {
    SCOPED_TRACE(mode == LayoutMode::kCompact ? "compact" : "classic");
    const CompiledLayout cl = reg.compile(mode);
    ASSERT_GT(cl.num_regions(), 1u);
    alignas(HeaderView) unsigned char storage[sizeof(HeaderView)];
    std::memset(storage, 0xa5, sizeof storage);
    const HeaderView* v = new (storage) HeaderView(&cl, Endian::kLittle);
    for (std::size_t r = 0; r < cl.num_regions(); ++r) {
      EXPECT_EQ(v->region(r), nullptr) << "region " << r;
    }
  }
}

TEST(HeaderView, SetDoesNotClobberNeighbors) {
  LayoutRegistry reg;
  auto a = reg.add_field(FieldClass::kProtoSpec, "a", 5, 0);
  auto b = reg.add_field(FieldClass::kProtoSpec, "b", 6, 5);
  auto c = reg.add_field(FieldClass::kProtoSpec, "c", 5, 11);
  auto cl = reg.compile(LayoutMode::kCompact);
  std::vector<std::uint8_t> buf(cl.class_bytes(FieldClass::kProtoSpec), 0);
  HeaderView v(&cl, Endian::kLittle);
  v.set_region(1, buf.data());
  v.set(a, 0b10101);
  v.set(b, 0b110011);
  v.set(c, 0b01110);
  EXPECT_EQ(v.get(a), 0b10101u);
  v.set(b, 0);
  EXPECT_EQ(v.get(a), 0b10101u);
  EXPECT_EQ(v.get(c), 0b01110u);
}

// Property: random layouts, random values, both byte orders — everything
// written reads back exactly, for every field.
class ViewProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ViewProperty, RandomRoundTrips) {
  Rng rng(GetParam());
  LayoutRegistry reg;
  std::vector<FieldHandle> handles;
  const int n = 2 + static_cast<int>(rng.next_below(12));
  for (int i = 0; i < n; ++i) {
    unsigned bits = 1 + static_cast<unsigned>(rng.next_below(64));
    handles.push_back(
        reg.add_field(FieldClass::kProtoSpec, "f", bits));
  }
  auto cl = reg.compile(LayoutMode::kCompact);
  std::vector<std::uint8_t> buf(cl.class_bytes(FieldClass::kProtoSpec), 0);

  for (Endian e : {Endian::kLittle, Endian::kBig}) {
    HeaderView v(&cl, e);
    v.set_region(1, buf.data());
    std::vector<std::uint64_t> expect(handles.size());
    for (std::size_t i = 0; i < handles.size(); ++i) {
      unsigned bits = cl.field(handles[i]).bits;
      std::uint64_t mask =
          bits == 64 ? ~0ull : ((1ull << bits) - 1);
      expect[i] = rng.next() & mask;
      v.set(handles[i], expect[i]);
    }
    for (std::size_t i = 0; i < handles.size(); ++i) {
      EXPECT_EQ(v.get(handles[i]), expect[i]) << "field " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViewProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace pa
