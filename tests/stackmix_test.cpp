// Composable-stack matrix (ISSUE 10): every valid combination of the
// optional layers must build, init, round-trip traffic in both directions,
// and converge its sync digests; invalid compositions must be rejected at
// construction with an actionable message. Plus unit coverage for the three
// new layers themselves: the LZ codec round-trip, AEAD tamper rejection
// end-to-end, and the RelayForwarder's derived hop peeking.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "group/gossip_layer.h"
#include "horus/relay.h"
#include "horus/stack_spec.h"
#include "horus/world.h"
#include "layers/comp_layer.h"
#include "layers/crypt_layer.h"
#include "layers/relay_layer.h"
#include "pa/accelerator.h"
#include "util/rng.h"

namespace pa {
namespace {

std::vector<std::uint8_t> bytes(std::string_view s) {
  return {s.begin(), s.end()};
}

// Compressible: long runs + periodic structure.
std::vector<std::uint8_t> compressible(std::size_t n, std::uint8_t seed = 7) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + (i / 61) % 5);
  }
  return v;
}

// Incompressible: full-width PRNG output.
std::vector<std::uint8_t> noise(std::size_t n, std::uint64_t seed = 99) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
  return v;
}

// --- the matrix ------------------------------------------------------------

struct Mix {
  bool comp, crypt, relay, frag, seq;
  std::string name() const {
    std::string s;
    if (comp) s += "comp+";
    if (crypt) s += "crypt+";
    if (relay) s += "relay+";
    if (frag) s += "frag+";
    if (seq) s += "seq+";
    s += "window+bottom";
    return s;
  }
};

std::vector<Mix> all_mixes() {
  std::vector<Mix> m;
  for (int bits = 0; bits < 32; ++bits) {
    m.push_back(Mix{(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0,
                    (bits & 8) != 0, (bits & 16) != 0});
  }
  return m;
}

ConnOptions mix_options(const Mix& mix, bool use_pa) {
  ConnOptions o;
  o.use_pa = use_pa;
  StackSpec s;
  if (mix.comp) s.add(LayerSpec::comp_layer());
  // 2048 is exercised by the 4 KiB payload below.
  if (mix.frag) s.add(LayerSpec::frag_layer({/*threshold=*/2048}));
  if (mix.seq) s.add(LayerSpec::seq_layer());
  s.add(LayerSpec::window_layer({}));
  if (mix.crypt) s.add(LayerSpec::crypt_layer());
  if (mix.relay) s.add(LayerSpec::relay_layer());
  s.add(LayerSpec::bottom_layer({}));
  o.engine.stack.spec = std::move(s);
  return o;
}

// Runs the world to quiescence, or to the first event at or past `horizon`
// (stacks whose timers re-arm forever). Under the PA it steps one event at
// a time and checks, after each, that both engines' stored predictions
// equal a rebuild from every layer's state: the send prediction is rebuilt
// lazily, once per post batch, and must never be left stale; the fixed
// layers' part is copied from images made at construction.
void run_checking_predictions(World& w, Endpoint* ea, Endpoint* eb,
                              Vt horizon = std::numeric_limits<Vt>::max()) {
  if (!ea->pa()) {
    while (w.queue().now() < horizon && w.queue().step()) {
    }
    return;
  }
  std::uint64_t events = 0;
  while (w.queue().now() < horizon && w.queue().step()) {
    ++events;
    ASSERT_TRUE(ea->pa()->predictions_fresh()) << "a, event " << events;
    ASSERT_TRUE(eb->pa()->predictions_fresh()) << "b, event " << events;
  }
}

// One body shared by the matrix's PA and classic runs and the other stacks:
// bidirectional traffic mixing sizes (small, compressible, incompressible,
// above-frag-threshold), then full delivery + payload fidelity + digest
// convergence (only for a run to quiescence: at a horizon, frames and
// their acks may still be in flight).
void run_conn(const std::string& name, const ConnOptions& opt,
              Vt horizon = std::numeric_limits<Vt>::max()) {
  SCOPED_TRACE((opt.use_pa ? "pa/" : "classic/") + name);
  World w;
  auto& na = w.add_node("a");
  auto& nb = w.add_node("b");
  auto [ea, eb] = w.connect(na, nb, opt);

  const std::vector<std::vector<std::uint8_t>> sent = {
      bytes("hello stack"),       // tiny (below CompLayer::kMinPayload)
      compressible(1024),         // compresses well
      noise(512),                 // stored pass-through
      compressible(4096, 3),      // compresses AND exceeds frag threshold
  };
  std::vector<std::vector<std::uint8_t>> got_b, got_a;
  eb->on_deliver([&](std::span<const std::uint8_t> p) {
    got_b.emplace_back(p.begin(), p.end());
  });
  ea->on_deliver([&](std::span<const std::uint8_t> p) {
    got_a.emplace_back(p.begin(), p.end());
  });

  // Pace the sends so window/frag interleavings stay deterministic but
  // both directions are concurrently active.
  for (std::size_t i = 0; i < sent.size(); ++i) {
    w.queue().at(vt_ms(1) * (i + 1), [&, i, ea = ea] { ea->send(sent[i]); });
    w.queue().at(vt_ms(1) * (i + 1) + vt_us(250),
                 [&, i, eb = eb] { eb->send(sent[i]); });
  }
  run_checking_predictions(w, ea, eb, horizon);

  ASSERT_EQ(got_b.size(), sent.size());
  ASSERT_EQ(got_a.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got_b[i], sent[i]) << "a->b message " << i;
    EXPECT_EQ(got_a[i], sent[i]) << "b->a message " << i;
  }
  if (horizon == std::numeric_limits<Vt>::max()) {
    EXPECT_EQ(ea->engine().stack().sync_digest(),
              eb->engine().stack().sync_digest());
  }
}

void run_mix(const Mix& mix, bool use_pa) {
  run_conn(mix.name(), mix_options(mix, use_pa));
}

TEST(StackMix, EveryValidCombinationRoundTripsUnderPa) {
  for (const Mix& m : all_mixes()) run_mix(m, /*use_pa=*/true);
}

TEST(StackMix, EveryValidCombinationRoundTripsUnderClassic) {
  for (const Mix& m : all_mixes()) run_mix(m, /*use_pa=*/false);
}

// The after-every-event prediction check over the stacks outside the
// matrix: a NAK protocol, the doubled window, and group gossip (whose
// predicted gossip moves in post phases).
TEST(StackMix, PredictionsStayFreshOnTheOtherStacks) {
  auto with = [](StackSpec spec) {
    ConnOptions o;
    o.engine.stack.spec = std::move(spec);
    return o;
  };
  const LayerSpec frag = LayerSpec::frag_layer({/*threshold=*/2048});
  {
    StackSpec s;
    s.add(frag).add(LayerSpec::seq_layer()).add(LayerSpec::nak_layer());
    s.add(LayerSpec::bottom_layer({}));
    run_conn("nak", with(s));
  }
  {
    StackSpec s;
    s.add(frag).add(LayerSpec::window_layer({}));
    s.add(LayerSpec::window_layer({})).add(LayerSpec::bottom_layer({}));
    run_conn("doubled-window", with(s));
  }
  {
    // The a side stamps a fixed view; the b side echoes each view it hears
    // from its post-deliver phase, which moves its predicted gossip.
    auto out_a = std::make_shared<group::GossipOutbound>(
        group::GossipOutbound{3, 0xabcd, true, 7});
    auto out_b = std::make_shared<group::GossipOutbound>();
    StackSpec s;
    s.add(LayerSpec::custom([out_a, out_b, calls = std::make_shared<int>(0)]()
                                -> std::unique_ptr<Layer> {
      group::GroupGossipConfig cfg;
      cfg.beacon_interval = vt_ms(2);
      if ((*calls)++ == 0) {  // World::connect builds the a side first
        return std::make_unique<group::GroupGossipLayer>(cfg, out_a,
                                                         group::GossipHooks{});
      }
      group::GossipHooks hooks;
      hooks.on_view = [out_b](std::uint16_t epoch, std::uint32_t digest) {
        out_b->epoch = epoch;
        out_b->digest = digest;
      };
      return std::make_unique<group::GroupGossipLayer>(cfg, out_b,
                                                       std::move(hooks));
    }));
    s.add(frag).add(LayerSpec::window_layer({}));
    s.add(LayerSpec::bottom_layer({}));
    run_conn("group-gossip", with(s), vt_ms(100));
    EXPECT_EQ(out_b->digest, 0xabcdu);
  }
}

// The fixed layers' deliver image is kept per peer byte order: between
// peers of opposite byte order the relay's hop ids (16-bit fields, so the
// order shows) must still be predicted. Checked once the run drains: the
// peer's byte order is learnt from each frame and the deliver prediction
// follows it at that frame's post batch, so in between the two differ.
TEST(StackMix, FixedLayersPredictAcrossByteOrders) {
  World w;
  auto& na = w.add_node("a");
  auto& nb = w.add_node("b");
  ConnOptions o;
  o.engine.stack.spec = StackSpec::paper();
  std::vector<LayerSpec>& layers = o.engine.stack.spec.layers;
  layers.insert(layers.end() - 1, LayerSpec::relay_layer());  // above bottom
  o.a_endian = Endian::kBig;
  o.b_endian = Endian::kLittle;
  auto [ea, eb] = w.connect(na, nb, o);

  std::size_t got_a = 0, got_b = 0;
  ea->on_deliver([&](std::span<const std::uint8_t>) { ++got_a; });
  eb->on_deliver([&](std::span<const std::uint8_t>) { ++got_b; });
  for (int i = 0; i < 20; ++i) {
    w.queue().at(vt_ms(2) * (i + 1), [&, ea = ea] { ea->send(bytes("ab")); });
    w.queue().at(vt_ms(2) * (i + 1) + vt_ms(1),
                 [&, eb = eb] { eb->send(bytes("ba")); });
  }
  w.run();

  EXPECT_EQ(got_a, 20u);
  EXPECT_EQ(got_b, 20u);
  EXPECT_TRUE(ea->pa()->predictions_fresh());
  EXPECT_TRUE(eb->pa()->predictions_fresh());
  EXPECT_GT(ea->pa()->stats().fast_delivers, 15u);
  EXPECT_GT(eb->pa()->stats().fast_delivers, 15u);
}

// Steady-state prediction must survive the full optional-layer load: the
// crypt nonce and relay hops are predicted fields, compression never touches
// headers, so fast paths keep hitting.
TEST(StackMix, FullStackKeepsPredictionHot) {
  World w;
  auto& na = w.add_node("a");
  auto& nb = w.add_node("b");
  Mix full{true, true, true, true, true};
  auto [ea, eb] = w.connect(na, nb, mix_options(full, true));

  std::size_t got = 0;
  eb->on_deliver([&](std::span<const std::uint8_t>) { ++got; });
  const auto payload = compressible(256);
  for (int i = 0; i < 100; ++i) {
    w.queue().at(vt_ms(2) * (i + 1), [&, ea = ea] { ea->send(payload); });
  }
  w.run();

  ASSERT_EQ(got, 100u);
  const auto& ss = ea->engine().stats();
  const auto& ds = eb->engine().stats();
  EXPECT_GT(ss.fast_sends, 90u);
  EXPECT_GT(ds.fast_delivers, 90u);
  EXPECT_EQ(ds.predict_misses, 0u);
}

// Lazy send prediction under chaos: burst loss and corruption drive
// retransmissions and out-of-order arrivals, and the predictions must
// still be fresh after every event.
TEST(StackMix, PredictionsStayFreshUnderChaos) {
  WorldConfig wc;
  wc.seed = 11;
  wc.link.faults.ge_enabled = true;
  wc.link.faults.corrupt_prob = 0.03;
  World w(wc);
  auto& na = w.add_node("a");
  auto& nb = w.add_node("b");
  Mix full{true, true, true, true, true};
  auto [ea, eb] = w.connect(na, nb, mix_options(full, true));

  std::size_t got_a = 0, got_b = 0;
  ea->on_deliver([&](std::span<const std::uint8_t>) { ++got_a; });
  eb->on_deliver([&](std::span<const std::uint8_t>) { ++got_b; });
  const auto small = compressible(200);
  const auto large = noise(3000);
  for (int i = 0; i < 80; ++i) {
    const auto& p = i % 5 == 0 ? large : small;
    w.queue().at(vt_us(300) * i, [&, ea = ea] { ea->send(p); });
    w.queue().at(vt_us(300) * i + vt_us(150), [&, eb = eb] { eb->send(p); });
  }
  run_checking_predictions(w, ea, eb);

  EXPECT_EQ(got_a, 80u);
  EXPECT_EQ(got_b, 80u);
  EXPECT_GT(w.network().stats().frames_corrupted, 0u);
  EXPECT_GT(ea->pa()->stats().raw_resends + eb->pa()->stats().raw_resends,
            0u);
}

// --- invalid compositions --------------------------------------------------

void expect_invalid(const StackSpec& spec, std::string_view needle) {
  try {
    Stack s(spec);
    FAIL() << "spec should have been rejected (wanted: " << needle << ")";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(StackMix, EmptySpecRejected) {
  expect_invalid(StackSpec{}, "bottom");
}

TEST(StackMix, MissingBottomRejected) {
  StackSpec s;
  s.add(LayerSpec::seq_layer()).add(LayerSpec::window_layer({}));
  expect_invalid(s, "no bottom layer");
}

TEST(StackMix, NonTerminalBottomRejected) {
  StackSpec s;
  s.add(LayerSpec::bottom_layer({})).add(LayerSpec::window_layer({}));
  expect_invalid(s, "must terminate the stack");
}

TEST(StackMix, MisorderedKindsRejected) {
  {
    // crypt above the reliability layer: retransmits could not replay
    // ciphertext verbatim.
    StackSpec s;
    s.add(LayerSpec::crypt_layer())
        .add(LayerSpec::window_layer({}))
        .add(LayerSpec::bottom_layer({}));
    expect_invalid(s, "misordered");
  }
  {
    // frag above comp: fragments would be compressed independently.
    StackSpec s;
    s.add(LayerSpec::frag_layer({/*threshold=*/1024}))
        .add(LayerSpec::comp_layer())
        .add(LayerSpec::bottom_layer({}));
    expect_invalid(s, "misordered");
  }
  {
    // relay above crypt: the hop fields must stay below encryption.
    StackSpec s;
    s.add(LayerSpec::relay_layer())
        .add(LayerSpec::crypt_layer())
        .add(LayerSpec::bottom_layer({}));
    expect_invalid(s, "misordered");
  }
}

TEST(StackMix, TwoDistinctReliabilityProtocolsRejected) {
  StackSpec s;
  s.add(LayerSpec::window_layer({}))
      .add(LayerSpec::nak_layer())
      .add(LayerSpec::bottom_layer({}));
  expect_invalid(s, "second reliability protocol");
}

TEST(StackMix, RepeatedSameReliabilityAllowed) {
  // The paper's doubled-window study: window over window is legal.
  StackSpec s;
  s.add(LayerSpec::window_layer({}))
      .add(LayerSpec::window_layer({}))
      .add(LayerSpec::bottom_layer({}));
  EXPECT_NO_THROW(Stack{s});
}

// --- LZ codec --------------------------------------------------------------

void lz_round_trip(const std::vector<std::uint8_t>& src) {
  const auto packed = CompLayer::lz_compress(src);
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(CompLayer::lz_decompress(packed, src.size(), out));
  EXPECT_EQ(out, src);
}

TEST(StackMix, LzRoundTripsStructuredData) {
  lz_round_trip(compressible(10000));
  const auto c = compressible(10000);
  EXPECT_LT(CompLayer::lz_compress(c).size(), c.size() / 2);
}

TEST(StackMix, LzRoundTripsRuns) {
  lz_round_trip(std::vector<std::uint8_t>(4096, 0xab));  // pure RLE overlap
}

TEST(StackMix, LzRoundTripsNoise) {
  lz_round_trip(noise(4096));  // expands, but must stay lossless
}

TEST(StackMix, LzRoundTripsShortInputs) {
  for (std::size_t n : {0u, 1u, 4u, 12u, 13u, 20u}) {
    lz_round_trip(compressible(n));
    lz_round_trip(noise(n));
  }
}

TEST(StackMix, LzRejectsTruncatedStream) {
  const auto src = compressible(2048);
  auto packed = CompLayer::lz_compress(src);
  packed.resize(packed.size() / 2);
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(CompLayer::lz_decompress(packed, src.size(), out));
}

// --- AEAD end-to-end -------------------------------------------------------

// Bit-flips on an encrypted stack die at the AEAD tag check (the wide
// bottom checksum runs first; corruption that slips past any checksum model
// is the tag's job), and the window layer repairs the loss.
TEST(StackMix, TamperedFramesDieAtTheTagAndAreRepaired) {
  WorldConfig wc;
  wc.link.faults.corrupt_prob = 0.05;
  wc.seed = 11;
  World w(wc);
  auto& na = w.add_node("a");
  auto& nb = w.add_node("b");
  ConnOptions o;
  std::vector<LayerSpec>& layers = o.engine.stack.spec.layers;
  layers.insert(layers.end() - 1, LayerSpec::crypt_layer());  // above bottom
  auto [ea, eb] = w.connect(na, nb, o);

  std::vector<std::uint32_t> got;
  eb->on_deliver([&](std::span<const std::uint8_t> p) {
    ASSERT_EQ(p.size(), 4u);
    got.push_back(load_be32(p.data()));
  });
  const int kN = 300;
  for (std::uint32_t i = 0; i < kN; ++i) {
    w.queue().at(vt_us(400) * (i + 1), [&, i, ea = ea] {
      std::uint8_t buf[4];
      store_be32(buf, i);
      ea->send(std::span<const std::uint8_t>(buf, 4));
    });
  }
  w.run();

  ASSERT_EQ(got.size(), static_cast<std::size_t>(kN));
  for (std::uint32_t i = 0; i < kN; ++i) EXPECT_EQ(got[i], i);
  EXPECT_GT(w.network().stats().frames_corrupted, 0u);
}

// --- relay forwarder -------------------------------------------------------

TEST(StackMix, RelayForwarderPeeksDerivedHopFields) {
  StackSpec spec;
  spec.add(LayerSpec::seq_layer())
      .add(LayerSpec::window_layer({}))
      .add(LayerSpec::crypt_layer())
      .add(LayerSpec::relay_layer())  // 0/0: World assigns mirrored hops
      .add(LayerSpec::bottom_layer({}));
  RelayForwarder fwd(spec);
  EXPECT_GT(fwd.fixed_header_bytes(), 0u);

  // Run a real connection on the same composition and check the forwarder
  // reads the stamped hops out of live frames.
  World w;
  auto& na = w.add_node("a");
  auto& nb = w.add_node("b");
  ConnOptions o;
  o.engine.stack.spec = spec;
  auto [ea, eb] = w.connect(na, nb, o);

  std::vector<std::vector<std::uint8_t>> frames;
  w.network().set_tap([&](NodeId, NodeId, std::span<const std::uint8_t> f,
                          Vt) {
    frames.emplace_back(f.begin(), f.end());
  });
  std::size_t got = 0;
  eb->on_deliver([&](std::span<const std::uint8_t>) { ++got; });
  ea->send(bytes("peek me"));
  w.run();
  EXPECT_EQ(got, 1u);

  // Frame 0 is a's data frame: its hops must match a's assigned config.
  ASSERT_FALSE(frames.empty());
  const auto* rl = dynamic_cast<const RelayLayer*>(
      ea->engine().stack().find(LayerKind::kRelay));
  ASSERT_NE(rl, nullptr);
  EXPECT_NE(rl->config().local_hop, rl->config().peer_hop);
  auto dst = fwd.peek_dst_hop(frames[0]);
  auto src = fwd.peek_src_hop(frames[0]);
  ASSERT_TRUE(dst.has_value());
  ASSERT_TRUE(src.has_value());
  EXPECT_EQ(*dst, rl->config().peer_hop);
  EXPECT_EQ(*src, rl->config().local_hop);
}

TEST(StackMix, RelayForwarderRejectsRelaylessSpec) {
  StackSpec spec;
  spec.add(LayerSpec::window_layer({})).add(LayerSpec::bottom_layer({}));
  EXPECT_THROW(RelayForwarder{spec}, std::invalid_argument);
}

TEST(StackMix, RelayForwarderIgnoresGarbage) {
  StackSpec spec;
  spec.add(LayerSpec::relay_layer({1, 2})).add(LayerSpec::bottom_layer({}));
  RelayForwarder fwd(spec);
  const auto junk = noise(4);
  EXPECT_FALSE(fwd.peek_dst_hop(junk).has_value());
  EXPECT_FALSE(fwd.peek_dst_hop({}).has_value());
}

// --- misrouted frames ------------------------------------------------------

TEST(StackMix, MismatchedHopsAreDroppedAsMisrouted) {
  for (bool use_pa : {true, false}) {
    SCOPED_TRACE(use_pa ? "pa" : "classic");
    World w;
    auto& na = w.add_node("a");
    auto& nb = w.add_node("b");
    ConnOptions o;
    o.use_pa = use_pa;
    // Force a hop mismatch: a stamps dst=7 but b expects 3.
    std::vector<LayerSpec>& layers = o.engine.stack.spec.layers;
    layers.insert(layers.end() - 1,
                  LayerSpec::relay_layer({/*local_hop=*/3, /*peer_hop=*/7}));
    auto [ea, eb] = w.connect(na, nb, o);

    std::size_t got = 0;
    eb->on_deliver([&](std::span<const std::uint8_t>) { ++got; });
    ea->send(bytes("lost"));
    w.run_for(vt_ms(50));  // bounded: the window will retransmit forever

    EXPECT_EQ(got, 0u);
    EXPECT_GT(eb->engine().stats().drops[DropReason::kMisroutedHop], 0u);
  }
}

}  // namespace
}  // namespace pa
