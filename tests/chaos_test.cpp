// Targeted chaos regressions: frame truncation at every prefix length,
// cookie collisions, stale cookie epochs, and the fault injectors'
// determinism — the sharp-edged cases the soak matrix covers only
// statistically.
#include <gtest/gtest.h>

#include "horus/world.h"
#include "pa/preamble.h"
#include "sim/event_queue.h"
#include "sim/network.h"

namespace pa {
namespace {

// --- truncated frames: every proper prefix of a valid frame ----------------
//
// A truncated frame must be classified and dropped at whatever layer first
// notices (preamble, header-length check, checksum filter) — never crash,
// never read past the buffer, never deliver.
class TruncatedPrefix : public ::testing::TestWithParam<bool> {};

TEST_P(TruncatedPrefix, EveryPrefixDroppedCleanly) {
  const bool use_pa = GetParam();
  World w((WorldConfig()));
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  opt.use_pa = use_pa;
  auto [ea, eb] = w.connect(a, b, opt);

  // Capture real wire frames (the first carries the connection
  // identification, later ones are cookie-only: both shapes get truncated).
  std::vector<std::vector<std::uint8_t>> frames;
  w.network().set_tap([&](NodeId from, NodeId, std::span<const std::uint8_t> f,
                          Vt) {
    if (from == a.id()) frames.emplace_back(f.begin(), f.end());
  });
  std::uint64_t delivered = 0;
  eb->on_deliver([&](std::span<const std::uint8_t>) { ++delivered; });
  const std::vector<std::uint8_t> payload(40, 0xab);
  ea->send(payload);
  ea->send(payload);
  w.run();
  ASSERT_GE(frames.size(), 2u);
  ASSERT_EQ(delivered, 2u);

  for (const auto& frame : frames) {
    for (std::size_t len = 1; len < frame.size(); ++len) {
      std::vector<std::uint8_t> prefix(frame.begin(), frame.begin() + len);
      b.router().on_frame(std::move(prefix), w.now());
    }
    w.run();  // drain any deferred post-processing
  }
  // Nothing truncated may have reached the application.
  EXPECT_EQ(delivered, 2u);
  // Every prefix was dropped somewhere accountable: router-level drops plus
  // engine-level drops cover all offered prefixes.
  const auto& rs = b.router().stats();
  const auto& es = eb->engine().stats();
  std::uint64_t offered = 0;
  for (const auto& frame : frames) offered += frame.size() - 1;
  EXPECT_EQ(rs.drops.total() + es.drops.total(), offered);
  EXPECT_GT(es.drops[DropReason::kTruncatedHeader] +
                es.drops[DropReason::kChecksumFilter],
            0u);
  // The classic engine has no receive filter: header-complete but
  // payload-truncated frames fall through to the bottom layer's length /
  // checksum checks, which it counts as the PA's filter does.
  if (!use_pa) {
    const auto* bot = static_cast<const BottomLayer*>(
        eb->engine().stack().find(LayerKind::kBottom));
    ASSERT_NE(bot, nullptr);
    EXPECT_EQ(es.drops[DropReason::kChecksumFilter],
              bot->stats().length_drops + bot->stats().checksum_drops);
  }

  // The full (untruncated) frames still route fine afterwards: replaying
  // one only produces a duplicate, not a delivery failure.
  b.router().on_frame(std::vector<std::uint8_t>(frames[1]), w.now());
  w.run();
  EXPECT_EQ(delivered, 2u);  // duplicate suppressed by the window layer
}

INSTANTIATE_TEST_SUITE_P(Engines, TruncatedPrefix, ::testing::Bool());

// --- corrupt link under the classic engine ---------------------------------
//
// Every frame the classic bottom layer rejects (length or checksum) is an
// engine drop under kChecksumFilter, the reason the PA's receive filter
// gives the same frames; the window layer repairs the loss.
TEST(ClassicCorruptLink, BottomDropsCountAsChecksumFilter) {
  WorldConfig wc;
  wc.link.faults.corrupt_prob = 0.05;
  wc.seed = 11;
  World w(wc);
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  opt.use_pa = false;
  auto [ea, eb] = w.connect(a, b, opt);

  std::uint64_t delivered = 0;
  eb->on_deliver([&](std::span<const std::uint8_t>) { ++delivered; });
  const std::uint64_t kN = 300;
  for (std::uint64_t i = 0; i < kN; ++i) {
    w.queue().at(vt_us(400) * (i + 1), [ea = ea] {
      ea->send(std::vector<std::uint8_t>(32, 0x5a));
    });
  }
  w.run();

  ASSERT_EQ(delivered, kN);
  EXPECT_GT(w.network().stats().frames_corrupted, 0u);
  const auto* bot = static_cast<const BottomLayer*>(
      eb->engine().stack().find(LayerKind::kBottom));
  ASSERT_NE(bot, nullptr);
  const std::uint64_t filtered =
      eb->engine().stats().drops[DropReason::kChecksumFilter];
  EXPECT_GT(filtered, 0u);
  EXPECT_EQ(filtered,
            bot->stats().checksum_drops + bot->stats().length_drops);
}

// --- cookie collision: one cookie claimed by two connections ---------------
TEST(CookieCollision, CollidingCookieRoutesNobody) {
  World w((WorldConfig()));
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  auto [e1a, e1b] = w.connect(a, b, ConnOptions{});
  auto [e2a, e2b] = w.connect(a, b, ConnOptions{});
  (void)e1a;
  (void)e2a;

  // Both connections end up claiming the same 62-bit cookie at b's router.
  const std::uint64_t cookie = 0x1234'5678'9abcull;
  b.router().register_cookie(cookie, &e1b->engine());
  b.router().register_cookie(cookie, &e2b->engine());

  std::vector<std::uint8_t> frame(kPreambleBytes);
  encode_preamble(frame.data(),
                  Preamble{false, Endian::kBig, cookie});

  // The ambiguous cookie must route to *neither* engine — misdelivering
  // one connection's traffic into the other is the failure mode.
  EXPECT_EQ(b.router().route(frame), nullptr);
  EXPECT_EQ(b.router().stats().drops[DropReason::kCookieCollision], 1u);

  // An identification-bearing re-teach resolves the ambiguity.
  b.router().register_cookie(cookie, &e1b->engine());
  EXPECT_EQ(b.router().route(frame), &e1b->engine());
}

// --- stale epoch: a restarted peer's old cookie is classified, not lost ----
TEST(StaleEpoch, OldCookieDroppedAsStaleAfterRelearn) {
  World w((WorldConfig()));
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  auto [ea, eb] = w.connect(a, b, ConnOptions{});
  (void)ea;

  const std::uint64_t old_cookie = 0x1111ull;
  const std::uint64_t new_cookie = 0x2222ull;
  b.router().register_cookie(old_cookie, &eb->engine());
  // The same connection re-identifies under a fresh cookie (epoch bump):
  // the old mapping is superseded, not left dangling.
  b.router().register_cookie(new_cookie, &eb->engine());

  std::vector<std::uint8_t> old_frame(kPreambleBytes);
  encode_preamble(old_frame.data(), Preamble{false, Endian::kBig, old_cookie});
  EXPECT_EQ(b.router().route(old_frame), nullptr);
  EXPECT_EQ(b.router().stats().drops[DropReason::kStaleEpoch], 1u);

  std::vector<std::uint8_t> new_frame(kPreambleBytes);
  encode_preamble(new_frame.data(), Preamble{false, Endian::kBig, new_cookie});
  EXPECT_EQ(b.router().route(new_frame), &eb->engine());
}

// --- router reset: the crash model forgets everything learned --------------
TEST(RouterReset, ForgetsLearnedAndStaleState) {
  World w((WorldConfig()));
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  auto [ea, eb] = w.connect(a, b, ConnOptions{});
  (void)ea;

  b.router().register_cookie(0x1111ull, &eb->engine());
  b.router().reset();

  std::vector<std::uint8_t> frame(kPreambleBytes);
  encode_preamble(frame.data(), Preamble{false, Endian::kBig, 0x1111ull});
  EXPECT_EQ(b.router().route(frame), nullptr);
  EXPECT_EQ(b.router().stats().drops[DropReason::kUnknownCookie], 1u);
}

// --- fault injectors at the network level ----------------------------------
TEST(FaultInjection, PausedLinkBlackholesUntilUnpaused) {
  EventQueue q;
  Rng rng(1);
  SimNetwork net(q, rng);
  std::uint64_t delivered = 0;
  NodeId a = net.add_node("a", nullptr);
  NodeId b = net.add_node(
      "b", [&](NodeId, WireFrame, Vt) { ++delivered; });

  net.set_paused(a, b, true);
  net.send(a, b, std::vector<std::uint8_t>(32, 1), q.now());
  q.run();
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(net.stats().frames_blackholed, 1u);

  net.set_paused(a, b, false);
  net.send(a, b, std::vector<std::uint8_t>(32, 2), q.now());
  q.run();
  EXPECT_EQ(delivered, 1u);
}

TEST(FaultInjection, CorruptionFlipsExactlyOneBit) {
  EventQueue q;
  Rng rng(7);
  SimNetwork net(q, rng);
  LinkParams lp;
  lp.faults.corrupt_prob = 1.0;
  std::vector<std::uint8_t> got;
  NodeId a = net.add_node("a", nullptr);
  NodeId b = net.add_node("b", [&](NodeId, WireFrame f, Vt) {
    got = f.flatten();
  });
  net.set_link(a, b, lp);

  const std::vector<std::uint8_t> sent(64, 0x55);
  net.send(a, b, sent, q.now());
  q.run();
  ASSERT_EQ(got.size(), sent.size());
  int flipped_bits = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    flipped_bits += __builtin_popcount(got[i] ^ sent[i]);
  }
  EXPECT_EQ(flipped_bits, 1);
  EXPECT_EQ(net.stats().frames_corrupted, 1u);
}

TEST(FaultInjection, TruncationYieldsProperNonEmptyPrefix) {
  EventQueue q;
  Rng rng(9);
  SimNetwork net(q, rng);
  LinkParams lp;
  lp.faults.truncate_prob = 1.0;
  std::vector<std::uint8_t> got;
  NodeId a = net.add_node("a", nullptr);
  NodeId b = net.add_node("b", [&](NodeId, WireFrame f, Vt) {
    got = f.flatten();
  });
  net.set_link(a, b, lp);

  std::vector<std::uint8_t> sent(64);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<std::uint8_t>(i);
  }
  net.send(a, b, sent, q.now());
  q.run();
  ASSERT_GE(got.size(), 1u);
  ASSERT_LT(got.size(), sent.size());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), sent.begin()));
  EXPECT_EQ(net.stats().frames_truncated, 1u);
}

TEST(FaultInjection, GilbertElliottLosesInBursts) {
  EventQueue q;
  Rng rng(13);
  SimNetwork net(q, rng);
  LinkParams lp;
  lp.faults.ge_enabled = true;
  std::uint64_t delivered = 0;
  NodeId a = net.add_node("a", nullptr);
  NodeId b = net.add_node(
      "b", [&](NodeId, WireFrame, Vt) { ++delivered; });
  net.set_link(a, b, lp);

  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    net.send(a, b, std::vector<std::uint8_t>(16, 0), q.now());
    q.run();
  }
  const std::uint64_t lost = net.stats().frames_lost;
  EXPECT_GT(lost, 0u);
  EXPECT_LT(lost, static_cast<std::uint64_t>(n) / 2);
  // Steady state of the defaults: bad-state fraction
  // p_g2b/(p_g2b+p_b2g) = 1/6, loss in bad state 0.75 => ~12.5% mean loss.
  EXPECT_NEAR(static_cast<double>(lost) / n, 0.125, 0.05);
}

TEST(FaultInjection, SameSeedSameSchedule) {
  auto run = [](std::uint64_t seed) {
    EventQueue q;
    Rng rng(seed);
    SimNetwork net(q, rng);
    LinkParams lp;
    lp.faults.corrupt_prob = 0.1;
    lp.faults.truncate_prob = 0.1;
    lp.faults.ge_enabled = true;
    NodeId a = net.add_node("a", nullptr);
    NodeId b = net.add_node("b", [](NodeId, WireFrame, Vt) {});
    net.set_link(a, b, lp);
    for (int i = 0; i < 500; ++i) {
      net.send(a, b, std::vector<std::uint8_t>(32, 0), q.now());
      q.run();
    }
    const auto& s = net.stats();
    return std::tuple{s.frames_lost, s.frames_corrupted, s.frames_truncated,
                      s.frames_delivered};
  };
  EXPECT_EQ(run(21), run(21));
  EXPECT_NE(run(21), run(22));
}

}  // namespace
}  // namespace pa
