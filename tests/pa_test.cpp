// Unit tests: PA components — preamble codec, message packing, the router,
// and PA-engine behaviors observable without a full simulation.
#include <gtest/gtest.h>

#include "horus/world.h"
#include "pa/packing.h"
#include "pa/preamble.h"
#include "pa/router.h"

namespace pa {
namespace {

// ---------------------------------------------------------------------------
// Preamble
// ---------------------------------------------------------------------------

TEST(Preamble, RoundTripAllFlagCombinations) {
  for (bool ci : {false, true}) {
    for (Endian e : {Endian::kBig, Endian::kLittle}) {
      Preamble p{ci, e, 0x23456789abcdef0ull & kCookieMask};
      std::uint8_t buf[8];
      encode_preamble(buf, p);
      auto d = decode_preamble(std::span<const std::uint8_t>(buf, 8));
      ASSERT_TRUE(d.has_value());
      EXPECT_EQ(d->conn_ident_present, ci);
      EXPECT_EQ(d->byte_order, e);
      EXPECT_EQ(d->cookie, p.cookie);
    }
  }
}

TEST(Preamble, CookieIs62Bits) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(random_cookie(rng) & ~kCookieMask, 0u);
  }
}

TEST(Preamble, CookieMaskedOnEncode) {
  Preamble p{false, Endian::kBig, ~0ull};  // over-wide cookie
  std::uint8_t buf[8];
  encode_preamble(buf, p);
  auto d = decode_preamble(std::span<const std::uint8_t>(buf, 8));
  EXPECT_EQ(d->cookie, kCookieMask);
  EXPECT_FALSE(d->conn_ident_present);  // flag bits not polluted
}

TEST(Preamble, ShortBufferRejected) {
  std::uint8_t buf[7] = {};
  EXPECT_FALSE(decode_preamble(std::span<const std::uint8_t>(buf, 7)));
}

TEST(Preamble, EightBytesExactly) {
  // The paper's whole point: steady-state per-message overhead is 8 bytes.
  EXPECT_EQ(kPreambleBytes, 8u);
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

std::vector<Message> make_batch(std::initializer_list<std::size_t> sizes) {
  std::vector<Message> out;
  std::uint8_t fill = 1;
  for (std::size_t s : sizes) {
    std::vector<std::uint8_t> p(s, fill++);
    out.push_back(Message::with_payload(p));
  }
  return out;
}

TEST(Packing, SameSizeRoundTrip) {
  auto batch = make_batch({8, 8, 8});
  Message packed = pack_same_size(batch);
  EXPECT_EQ(packed.payload_len(), 24u);

  std::vector<std::span<const std::uint8_t>> parts;
  ASSERT_TRUE(unpack_payload(packed.payload(), false, 3, 8, parts));
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0][0], 1);
  EXPECT_EQ(parts[1][0], 2);
  EXPECT_EQ(parts[2][0], 3);
}

TEST(Packing, VariableRoundTrip) {
  auto batch = make_batch({3, 10, 0, 7});
  Message packed = pack_variable(batch);
  std::vector<std::span<const std::uint8_t>> parts;
  ASSERT_TRUE(unpack_payload(packed.payload(), true, 4, 0, parts));
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0].size(), 3u);
  EXPECT_EQ(parts[1].size(), 10u);
  EXPECT_EQ(parts[2].size(), 0u);
  EXPECT_EQ(parts[3].size(), 7u);
  EXPECT_EQ(parts[3][0], 4);
}

TEST(Packing, MalformedRejected) {
  std::vector<std::uint8_t> payload(20);
  std::vector<std::span<const std::uint8_t>> parts;
  EXPECT_FALSE(unpack_payload(payload, false, 3, 8, parts));  // 24 != 20
  EXPECT_FALSE(unpack_payload(payload, false, 0, 8, parts));  // count 0
  EXPECT_FALSE(unpack_payload(payload, true, 30, 0, parts));  // sizes > buf
  // Variable with size list pointing past the end:
  std::vector<std::uint8_t> bad(4, 0xff);
  EXPECT_FALSE(unpack_payload(bad, true, 1, 0, parts));
}

TEST(Packing, RegisterFieldsUnderEngineLayer) {
  LayoutRegistry reg;
  auto pf = register_packing_fields(reg);
  EXPECT_EQ(reg.spec(pf.count).layer, kEngineLayer);
  EXPECT_EQ(reg.spec(pf.count).cls, FieldClass::kPacking);
  auto cl = reg.compile(LayoutMode::kCompact);
  // var(1) + count(16) + each(16) packs into 5 bytes.
  EXPECT_LE(cl.class_bytes(FieldClass::kPacking), 5u);
}

// ---------------------------------------------------------------------------
// Router behavior with real engines (driven through a World).
// ---------------------------------------------------------------------------

TEST(Router, LearnsCookieFromFirstMessage) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  auto [src, dst] = w.connect(a, b, ConnOptions{});
  (void)dst;
  src->send(std::vector<std::uint8_t>{1, 2, 3});
  w.run();
  EXPECT_EQ(b.router().stats().routed_by_ident, 1u);  // first frame
  // Everything after (acks on the other router; follow-ups here) by cookie.
  src->send(std::vector<std::uint8_t>{4});
  w.run();
  EXPECT_GE(b.router().stats().routed_by_cookie, 1u);
}

TEST(Router, MalformedFrameCounted) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  auto [src, dst] = w.connect(a, b, ConnOptions{});
  (void)src;
  (void)dst;
  w.network().send(a.id(), b.id(), std::vector<std::uint8_t>{1, 2}, 0);
  w.run();
  EXPECT_EQ(b.router().stats().drops[DropReason::kMalformedPreamble], 1u);
}

TEST(Router, IdentMismatchDropped) {
  // A conn-ident frame from a foreign connection must not match.
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  auto& c = w.add_node("c");
  auto [ab_a, ab_b] = w.connect(a, b, ConnOptions{});
  auto [cb_c, cb_b] = w.connect(c, b, ConnOptions{});
  (void)ab_a;
  (void)cb_b;

  int wrong = 0;
  ab_b->on_deliver([&](std::span<const std::uint8_t>) { ++wrong; });
  // c sends on its own connection: must reach cb_b only.
  int right = 0;
  cb_b->on_deliver([&](std::span<const std::uint8_t>) { ++right; });
  cb_c->send(std::vector<std::uint8_t>{7});
  w.run();
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(right, 1);
}

// ---------------------------------------------------------------------------
// PA engine specifics.
// ---------------------------------------------------------------------------

TEST(PaEngine, CorruptedFrameDroppedByFilter) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  auto [src, dst] = w.connect(a, b, ConnOptions{});

  // Teach the receiver the cookie with one good message.
  src->send(std::vector<std::uint8_t>{1});
  w.run();
  EXPECT_EQ(dst->received(), 1u);

  // Now inject a corrupted copy: flip a payload bit after the checksum was
  // computed. Build from a legitimate second message by intercepting it.
  // Simplest: send garbage with the right cookie but bogus checksum fields.
  std::vector<std::uint8_t> frame(8 + src->pa()->fixed_header_bytes() + 4,
                                  0xab);
  encode_preamble(frame.data(),
                  Preamble{false, host_endian(), src->pa()->out_cookie()});
  w.network().send(a.id(), b.id(), frame, w.now());
  w.run();

  EXPECT_EQ(dst->received(), 1u);  // not delivered
  EXPECT_EQ(dst->engine().stats().drops[DropReason::kChecksumFilter], 1u);
}

TEST(PaEngine, InterpretedFiltersBehaveLikeCompiled) {
  for (bool compiled : {false, true}) {
    World w;
    auto& a = w.add_node("a");
    auto& b = w.add_node("b");
    ConnOptions opt;
    opt.engine.use_compiled_filters = compiled;
    auto [src, dst] = w.connect(a, b, opt);
    int n = 0;
    dst->on_deliver([&](std::span<const std::uint8_t>) { ++n; });
    for (int i = 0; i < 30; ++i) src->send(std::vector<std::uint8_t>{7, 8});
    w.run();
    EXPECT_EQ(n, 30) << "compiled=" << compiled;
  }
}

TEST(PaEngine, VariablePackingCarriesMixedSizes) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  opt.engine.variable_packing = true;
  auto [src, dst] = w.connect(a, b, opt);

  std::vector<std::size_t> sizes;
  dst->on_deliver([&](std::span<const std::uint8_t> p) {
    sizes.push_back(p.size());
  });
  // Burst of mixed sizes: same-size packing couldn't batch these.
  for (std::size_t s : {3u, 60u, 9u, 9u, 120u, 1u}) {
    src->send(std::vector<std::uint8_t>(s, 0x5a));
  }
  w.run();
  EXPECT_EQ(sizes, (std::vector<std::size_t>{3, 60, 9, 9, 120, 1}));
  EXPECT_GT(src->engine().stats().packed_batches, 0u);
}

TEST(PaEngine, PoolSuppressesAllocations) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  opt.engine.use_message_pool = true;
  auto [src, dst] = w.connect(a, b, opt);
  (void)dst;
  for (int round = 0; round < 50; ++round) {
    src->send(std::vector<std::uint8_t>(16, 1));
    w.run();
  }
  const auto& ps = src->pa()->pool().stats();
  EXPECT_GT(ps.acquires, 45u);
  // After warmup, acquisitions must be served from the pool.
  EXPECT_LT(ps.fresh_allocations, 10u);
}

TEST(PaEngine, StatsCoherent) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  auto [src, dst] = w.connect(a, b, ConnOptions{});
  for (int i = 0; i < 25; ++i) src->send(std::vector<std::uint8_t>{1});
  w.run();
  const auto& s = src->engine().stats();
  EXPECT_EQ(s.app_sends, 25u);
  EXPECT_EQ(dst->engine().stats().delivered_to_app, 25u);
  EXPECT_EQ(s.fast_sends + s.slow_sends,
            s.frames_out - s.raw_resends - s.protocol_emits);
}

}  // namespace
}  // namespace pa
