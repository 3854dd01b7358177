// Unit + property tests: the header layout compiler (paper §2.1).
#include <gtest/gtest.h>

#include <set>

#include "horus/stack.h"
#include "layout/layout.h"
#include "pa/packing.h"
#include "util/rng.h"

namespace pa {
namespace {

// Verify no two placed fields overlap, region by region, bit by bit.
void expect_no_overlap(const CompiledLayout& cl) {
  std::map<std::uint16_t, std::set<std::uint32_t>> used;
  for (const PlacedField& f : cl.fields()) {
    for (std::uint32_t b = f.bit_offset; b < f.bit_offset + f.bits; ++b) {
      EXPECT_TRUE(used[f.region].insert(b).second)
          << "overlap in region " << f.region << " at bit " << b;
    }
  }
}

// Every field must fit inside its region.
void expect_fields_fit(const CompiledLayout& cl) {
  for (const PlacedField& f : cl.fields()) {
    EXPECT_LE(f.bit_offset + f.bits, cl.region_bytes(f.region) * 8);
  }
}

TEST(Layout, SingleFieldCompact) {
  LayoutRegistry reg;
  auto h = reg.add_field(FieldClass::kProtoSpec, "seq", 32);
  auto cl = reg.compile(LayoutMode::kCompact);
  EXPECT_EQ(cl.class_bytes(FieldClass::kProtoSpec), 4u);
  EXPECT_EQ(cl.field(h).bit_offset, 0u);
  EXPECT_TRUE(cl.field(h).aligned);
}

TEST(Layout, SubByteFieldsShareAByte) {
  LayoutRegistry reg;
  reg.add_field(FieldClass::kProtoSpec, "a", 1);
  reg.add_field(FieldClass::kProtoSpec, "b", 2);
  reg.add_field(FieldClass::kProtoSpec, "c", 3);
  auto cl = reg.compile(LayoutMode::kCompact);
  EXPECT_EQ(cl.class_bytes(FieldClass::kProtoSpec), 1u);
  expect_no_overlap(cl);
}

TEST(Layout, MixedSizesMinimizePadding) {
  // 32-bit + 1-bit + 16-bit + 7-bit = 56 bits -> 7 bytes achievable.
  LayoutRegistry reg;
  reg.add_field(FieldClass::kProtoSpec, "seq", 32);
  reg.add_field(FieldClass::kProtoSpec, "flag", 1);
  reg.add_field(FieldClass::kProtoSpec, "port", 16);
  reg.add_field(FieldClass::kProtoSpec, "small", 7);
  auto cl = reg.compile(LayoutMode::kCompact);
  EXPECT_LE(cl.class_bytes(FieldClass::kProtoSpec), 7u);
  expect_no_overlap(cl);
  expect_fields_fit(cl);
}

TEST(Layout, FixedOffsetHonored) {
  LayoutRegistry reg;
  auto h = reg.add_field(FieldClass::kMsgSpec, "at16", 8, /*offset=*/16);
  reg.add_field(FieldClass::kMsgSpec, "other", 8);
  auto cl = reg.compile(LayoutMode::kCompact);
  EXPECT_EQ(cl.field(h).bit_offset, 16u);
  expect_no_overlap(cl);
}

TEST(Layout, FixedOffsetOverlapThrows) {
  LayoutRegistry reg;
  reg.add_field(FieldClass::kMsgSpec, "a", 16, 0);
  reg.add_field(FieldClass::kMsgSpec, "b", 16, 8);  // overlaps a
  EXPECT_THROW(reg.compile(LayoutMode::kCompact), std::runtime_error);
}

TEST(Layout, BadFieldArgsThrow) {
  LayoutRegistry reg;
  EXPECT_THROW(reg.add_field(FieldClass::kGossip, "zero", 0),
               std::invalid_argument);
  EXPECT_THROW(reg.add_field(FieldClass::kGossip, "huge", 65),
               std::invalid_argument);
}

TEST(Layout, ClassesAreSeparateRegions) {
  LayoutRegistry reg;
  auto a = reg.add_field(FieldClass::kConnId, "addr", 64);
  auto b = reg.add_field(FieldClass::kProtoSpec, "seq", 32);
  auto c = reg.add_field(FieldClass::kGossip, "ack", 32);
  auto cl = reg.compile(LayoutMode::kCompact);
  EXPECT_NE(cl.field(a).region, cl.field(b).region);
  EXPECT_NE(cl.field(b).region, cl.field(c).region);
  EXPECT_EQ(cl.num_regions(), kNumFieldClasses);
}

TEST(Layout, ClassicGroupsByLayerWithPadding) {
  LayoutRegistry reg;
  reg.set_current_layer(0);
  reg.add_field(FieldClass::kProtoSpec, "flag", 1);  // 1 byte -> pad to 4
  reg.set_current_layer(1);
  reg.add_field(FieldClass::kProtoSpec, "seq", 32);
  reg.add_field(FieldClass::kGossip, "ack", 32);
  auto cl = reg.compile(LayoutMode::kClassic);
  ASSERT_EQ(cl.num_regions(), 2u);
  EXPECT_EQ(cl.region_bytes(0), 4u);  // 1 bit stored as 1 byte, padded to 4
  EXPECT_EQ(cl.region_bytes(1), 8u);
  expect_no_overlap(cl);
}

TEST(Layout, ClassicEngineFieldsGoToTrailingRegion) {
  LayoutRegistry reg;
  reg.set_current_layer(0);
  reg.add_field(FieldClass::kProtoSpec, "seq", 32);
  reg.set_current_layer(kEngineLayer);
  auto pk = reg.add_field(FieldClass::kPacking, "count", 16);
  auto cl = reg.compile(LayoutMode::kClassic);
  ASSERT_EQ(cl.num_regions(), 2u);
  EXPECT_EQ(cl.field(pk).region, 1u);
}

TEST(Layout, ClassicAlignsWithinHeader) {
  // u8 then u32: conventional struct layout puts u32 at offset 4.
  LayoutRegistry reg;
  reg.set_current_layer(0);
  reg.add_field(FieldClass::kProtoSpec, "tiny", 8);
  auto big = reg.add_field(FieldClass::kProtoSpec, "word", 32);
  auto cl = reg.compile(LayoutMode::kClassic);
  EXPECT_EQ(cl.field(big).bit_offset, 32u);
  EXPECT_EQ(cl.region_bytes(0), 8u);
}

// ---------------------------------------------------------------------------
// Paper-facing size claims for the standard 4-layer stack.
// ---------------------------------------------------------------------------

LayoutRegistry standard_stack_registry() {
  Stack s{StackSpec::paper()};
  // Steal the registry state by initializing a full stack.
  register_packing_fields(s.registry());
  s.init();
  LayoutRegistry reg = s.registry();  // copy
  return reg;
}

TEST(Layout, StandardStackConnIdentIs76Bytes) {
  auto reg = standard_stack_registry();
  auto cl = reg.compile(LayoutMode::kCompact);
  // Paper: "the connection identification typically occupies about 76
  // bytes" — ours: 2x32B addresses + 8B group + 4B version + 1B window size.
  EXPECT_GE(cl.class_bytes(FieldClass::kConnId), 76u);
  EXPECT_LE(cl.class_bytes(FieldClass::kConnId), 80u);
}

TEST(Layout, StandardStackCompactHeadersWellUnder40Bytes) {
  auto reg = standard_stack_registry();
  auto cl = reg.compile(LayoutMode::kCompact);
  std::size_t steady =
      cl.class_bytes(FieldClass::kProtoSpec) +
      cl.class_bytes(FieldClass::kMsgSpec) +
      cl.class_bytes(FieldClass::kGossip) +
      cl.class_bytes(FieldClass::kPacking) + 8 /*preamble*/;
  // Paper: "typically leading to headers that are much less than 40 bytes".
  EXPECT_LT(steady, 40u);
}

TEST(Layout, ClassicStackCarriesMorePaddingAndIdent) {
  auto reg = standard_stack_registry();
  auto compact = reg.compile(LayoutMode::kCompact);
  auto classic = reg.compile(LayoutMode::kClassic);

  // Classic wire header = all per-layer regions (identification resent on
  // every message); compact steady-state = the four non-conn-id classes.
  std::size_t classic_total = 0;
  for (std::size_t r = 0; r + 1 < classic.num_regions(); ++r) {
    classic_total += classic.region_bytes(r);  // last region = engine's
  }
  std::size_t compact_steady = compact.total_bytes() -
                               compact.class_bytes(FieldClass::kConnId);
  EXPECT_GT(classic_total, compact_steady * 2);

  // Paper: per-layer alignment cost the original Horus >= 12 bytes padding.
  std::size_t padding_bits = 0;
  for (std::size_t r = 0; r + 1 < classic.num_regions(); ++r) {
    padding_bits += classic.region_padding_bits(r);
  }
  EXPECT_GE(padding_bits, 12u * 8u);
}

TEST(Layout, DescribeMentionsRegions) {
  auto reg = standard_stack_registry();
  auto cl = reg.compile(LayoutMode::kCompact);
  std::string d = cl.describe();
  EXPECT_NE(d.find("conn-ident"), std::string::npos);
  EXPECT_NE(d.find("proto-spec"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Property sweep: random field sets always compile to valid layouts, and
// compact packing never uses more bytes than classic for the same fields.
// ---------------------------------------------------------------------------

class LayoutProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LayoutProperty, RandomFieldsCompileValid) {
  Rng rng(GetParam());
  LayoutRegistry reg;
  const int layers = 1 + static_cast<int>(rng.next_below(6));
  for (int l = 0; l < layers; ++l) {
    reg.set_current_layer(static_cast<LayerId>(l));
    const int fields = 1 + static_cast<int>(rng.next_below(8));
    for (int f = 0; f < fields; ++f) {
      auto cls = static_cast<FieldClass>(rng.next_below(4));
      unsigned bits = 1 + static_cast<unsigned>(rng.next_below(64));
      reg.add_field(cls, "f", bits);
    }
  }
  auto compact = reg.compile(LayoutMode::kCompact);
  auto classic = reg.compile(LayoutMode::kClassic);
  expect_no_overlap(compact);
  expect_fields_fit(compact);
  expect_no_overlap(classic);
  expect_fields_fit(classic);
  EXPECT_LE(compact.total_bytes(), classic.total_bytes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayoutProperty,
                         ::testing::Range<std::uint64_t>(1, 33));

}  // namespace
}  // namespace pa
