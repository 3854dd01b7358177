// Golden-frame regression: the zero-copy refactor must leave every wire
// byte unchanged. These captures were produced by the flat-buffer engines at
// the seed commit (tools/golden capture scenarios, both endians); the same
// deterministic scenarios are replayed here and each emitted frame is
// compared hex-for-hex. Any byte drift on the wire is a bug, whatever the
// in-memory representation does.
#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "classic/engine.h"
#include "horus/env.h"
#include "pa/accelerator.h"

namespace pa {
namespace {

/// Captures frames as both the flat bytes (for the hex comparison) and the
/// gather lists (so the test can also check the zero-copy path's shape).
class CapEnv final : public Env {
 public:
  std::vector<std::vector<std::uint8_t>> wire;
  std::vector<std::size_t> slices_per_frame;
  std::deque<std::function<void()>> deferred;

  Vt now() const override { return 0; }
  void charge(VtDur) override {}
  void send_frame(std::vector<std::uint8_t> f) override {
    slices_per_frame.push_back(1);
    wire.push_back(std::move(f));
  }
  void send_frame(WireFrame f) override {
    slices_per_frame.push_back(f.num_slices());
    wire.push_back(f.flatten());
  }
  void deliver(std::span<const std::uint8_t>) override {}
  void defer(std::function<void()> fn) override {
    deferred.push_back(std::move(fn));
  }
  void set_timer(VtDur, std::function<void()>) override {}
  void trace(std::string_view) override {}
  void on_alloc(std::size_t) override {}
  void on_reception() override {}
  void gc_point() override {}

  void drain() {
    while (!deferred.empty()) {
      auto fn = std::move(deferred.front());
      deferred.pop_front();
      fn();
    }
  }
};

StackSpec golden_stack() {
  StackSpec s = StackSpec::paper();
  BottomConfig& b = s.find(LayerSpec::Type::kBottom)->bottom;
  b.local.words = {1, 2, 3, 4};
  b.remote.words = {5, 6, 7, 8};
  b.group = 9;
  return s;
}

// Insert a layer just above the bottom (crypt and relay sit there).
void add_above_bottom(StackSpec& s, LayerSpec l) {
  s.layers.insert(s.layers.end() - 1, std::move(l));
}

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>(seed + 31 * i);
  }
  return p;
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
  std::string s;
  s.reserve(bytes.size() * 2);
  char b[3];
  for (std::uint8_t x : bytes) {
    std::snprintf(b, sizeof b, "%02x", x);
    s += b;
  }
  return s;
}

/// Seed-commit captures: scenario/endian/frame-index -> hex bytes.
const std::map<std::string, std::string>& golden() {
  static const std::map<std::string, std::string> g = {
    {"ident_cookie/be/0",
     "a88af6caef1d3c2300000000000000010000000000000005000000000000000200000000"
     "000000060000000000000003000000000000000700000000000000040000000000000008"
     "00000000000000090000000110000000000000000000000000f9aa803500100000000000"
     "01001000102f4e6d8cabcae90827466584a3c2e1"},
    {"ident_cookie/be/1",
     "288af6caef1d3c23000000010000000100000000c5c09e74001000000000000100100040"
     "5f7e9dbcdbfa1938577695b4d3f211"},
    {"packed/be/0",
     "a88af6caef1d3c2300000000000000010000000000000005000000000000000200000000"
     "000000060000000000000003000000000000000700000000000000040000000000000008"
     "000000000000000900000001100000000000000000000000005df5168f00080000000000"
     "01000800a0bfdefd1c3b5a79"},
    {"packed/be/1",
     "288af6caef1d3c23000000010000000100000000e14fc8a00010000000000002000800b0"
     "cfee0d2c4b6a89c0dffe1d3c5b7a99"},
    {"frag/be/0",
     "a88af6caef1d3c2300000000000000010000000000000005000000000000000200000000"
     "000000060000000000000003000000000000000700000000000000040000000000000008"
     "000000000000000900000001100000000000000000000000204c34a79600100000000000"
     "0100100001203f5e7d9cbbdaf91837567594b3d2"},
    {"frag/be/1",
     "288af6caef1d3c230000000100000001000001200b6bd7780010000000000001001000f1"
     "102f4e6d8cabcae90827466584a3c2"},
    {"frag/be/2",
     "288af6caef1d3c230000000200000002000002306dfe59b00008000000000001000800e1"
     "001f3e5d7c9bba"},
    {"classic/be/0",
     "000000000000000000000000000000000000000000000000000000001000000000000000"
     "000000010000000000000005000000000000000200000000000000060000000000000003"
     "000000000000000700000000000000040000000000000008000000000000000900000001"
     "00100000709a8baa102f4e6d8cabcae90827466584a3c2e1"},
    {"classic/be/1",
     "000000000000000000000001000000000000000100000000000000001000000000000000"
     "000000010000000000000005000000000000000200000000000000060000000000000003"
     "000000000000000700000000000000040000000000000008000000000000000900000001"
     "001000002f01e5b4405f7e9dbcdbfa1938577695b4d3f211"},
    {"ident_cookie/le/0",
     "e88af6caef1d3c2301000000000000000500000000000000020000000000000006000000"
     "000000000300000000000000070000000000000004000000000000000800000000000000"
     "090000000000000001000000100000000000000000000000003eca908710000000000001"
     "00100000102f4e6d8cabcae90827466584a3c2e1"},
    {"ident_cookie/le/1",
     "688af6caef1d3c230100000001000000000000002a44e975100000000000010010000040"
     "5f7e9dbcdbfa1938577695b4d3f211"},
    {"packed/le/0",
     "e88af6caef1d3c2301000000000000000500000000000000020000000000000006000000"
     "000000000300000000000000070000000000000004000000000000000800000000000000"
     "090000000000000001000000100000000000000000000000001874b2b608000000000001"
     "00080000a0bfdefd1c3b5a79"},
    {"packed/le/1",
     "688af6caef1d3c23010000000100000000000000009700fb1000000000000200080000b0"
     "cfee0d2c4b6a89c0dffe1d3c5b7a99"},
    {"frag/le/0",
     "e88af6caef1d3c2301000000000000000500000000000000020000000000000006000000"
     "000000000300000000000000070000000000000004000000000000000800000000000000"
     "090000000000000001000000100000000000000000000000209ded0e3210000000000001"
     "0010000001203f5e7d9cbbdaf91837567594b3d2"},
    {"frag/le/1",
     "688af6caef1d3c23010000000100000000000120260d42bb1000000000000100100000f1"
     "102f4e6d8cabcae90827466584a3c2"},
    {"frag/le/2",
     "688af6caef1d3c23020000000200000000000230d099fdd30800000000000100080000e1"
     "001f3e5d7c9bba"},
    {"classic/le/0",
     "000000000000000000000000000000000000000000000000000000001000000001000000"
     "000000000500000000000000020000000000000006000000000000000300000000000000"
     "070000000000000004000000000000000800000000000000090000000000000001000000"
     "10000000aa8b9a70102f4e6d8cabcae90827466584a3c2e1"},
    {"classic/le/1",
     "000000000000000001000000000000000100000000000000000000001000000001000000"
     "000000000500000000000000020000000000000006000000000000000300000000000000"
     "070000000000000004000000000000000800000000000000090000000000000001000000"
     "10000000d39ad9c7405f7e9dbcdbfa1938577695b4d3f211"},
    // ISSUE 10 layers: AEAD nonce + tag, relay hops, comp in-band framing.
    {"crypt/be/0",
     "a88af6caef1d3c2300000000000000010000000000000005000000000000000200000000"
     "000000060000000000000003000000000000000700000000000000040000000000000008"
     "000000000000000900000001100000000000000000000000000000000025f03721001800"
     "00000000010010007be7efb25f847e36a86256b13c93e0e1badd0b8cfa6c5cc4"},
    {"crypt/be/1",
     "288af6caef1d3c2300000001000000010000000100000000de45b7a90018000000000001"
     "001000f1f076df5dfefa07fb8915bd7c6e7d42ab75487f0cd42899"},
    {"crypt/le/0",
     "e88af6caef1d3c2301000000000000000500000000000000020000000000000006000000"
     "000000000300000000000000070000000000000004000000000000000800000000000000"
     "0900000000000000010000001000000000000000000000000000000000175dba50180000"
     "00000001001000007be7efb25f847e36a86256b13c93e0e1badd0b8cfa6c5cc4"},
    {"crypt/le/1",
     "688af6caef1d3c230100000001000000010000000000000082e5b84b1800000000000100"
     "100000f1f076df5dfefa07fb8915bd7c6e7d42ab75487f0cd42899"},
    {"relay/be/0",
     "a88af6caef1d3c2300000000000000010000000000000005000000000000000200000000"
     "000000060000000000000003000000000000000700000000000000040000000000000008"
     "00000000000000090000000110000000000000000000000007000300002ce8e912001000"
     "0000000001001000102f4e6d8cabcae90827466584a3c2e1"},
    {"relay/le/0",
     "e88af6caef1d3c2301000000000000000500000000000000020000000000000006000000"
     "000000000300000000000000070000000000000004000000000000000800000000000000"
     "090000000000000001000000100000000000000000000007000300000047f138aa100000"
     "0000000100100000102f4e6d8cabcae90827466584a3c2e1"},
    {"comp/be/0",
     "a88af6caef1d3c2300000000000000010000000000000005000000000000000200000000"
     "000000060000000000000003000000000000000700000000000000040000000000000008"
     "000000000000000900000001100000000000000000000000003a4cfce6000e0000000000"
     "01000e000180011f55010067505555555555"},
    {"comp/be/1",
     "288af6caef1d3c23000000010000000100000000baab0a630009000000000001000900"
     "00203f5e7d9cbbdaf9"},
    {"comp/le/0",
     "e88af6caef1d3c2301000000000000000500000000000000020000000000000006000000"
     "000000000300000000000000070000000000000004000000000000000800000000000000"
     "090000000000000001000000100000000000000000000000"
     "00c2ec43130e000000000001000e00000180011f55010067505555555555"},
    {"comp/le/1",
     "688af6caef1d3c230100000001000000000000009251da4909000000000001000900"
     "0000203f5e7d9cbbdaf9"},
    {"mix/be/0",
     "a88af6caef1d3c2300000000000000010000000000000005000000000000000200000000"
     "000000060000000000000003000000000000000700000000000000040000000000000008"
     "0000000000000009000000011000000000000000000000000000000007000300"
     "007e04d3280016000000000001000e00"
     "6a48a0c0862eb4b8f0104581ed657c1bfe538b3e378d"},
    {"mix/le/0",
     "e88af6caef1d3c2301000000000000000500000000000000020000000000000006000000"
     "000000000300000000000000070000000000000004000000000000000800000000000000"
     "0900000000000000010000001000000000000000000000000000000700030000000c4600"
     "4316000000000001000e00006a48a0c0862eb4b8f0104581ed657c1bfe538b3e378d"},
  };
  return g;
}

const char* endian_tag(Endian e) { return e == Endian::kBig ? "be" : "le"; }

void check(const char* scenario, Endian e, const CapEnv& env) {
  std::size_t expected = 0;
  for (const auto& [key, _] : golden()) {
    if (key.rfind(std::string(scenario) + "/" + endian_tag(e) + "/", 0) == 0) {
      ++expected;
    }
  }
  if (env.wire.size() != expected) {
    // Regeneration aid: dump the actual capture for easy pasting.
    for (std::size_t i = 0; i < env.wire.size(); ++i) {
      ADD_FAILURE() << "{\"" << scenario << "/" << endian_tag(e) << "/" << i
                    << "\",\n \"" << to_hex(env.wire[i]) << "\"},";
    }
  }
  ASSERT_EQ(env.wire.size(), expected) << scenario << "/" << endian_tag(e);
  for (std::size_t i = 0; i < env.wire.size(); ++i) {
    const std::string key = std::string(scenario) + "/" + endian_tag(e) +
                            "/" + std::to_string(i);
    auto it = golden().find(key);
    ASSERT_NE(it, golden().end()) << key;
    EXPECT_EQ(to_hex(env.wire[i]), it->second) << key;
  }
}

PaConfig pa_config(Endian e) {
  PaConfig cfg;
  cfg.stack.spec = golden_stack();
  cfg.self_endian = e;
  cfg.cookie_seed = 42;
  return cfg;
}

class WireGolden : public ::testing::TestWithParam<Endian> {};

TEST_P(WireGolden, IdentAndCookieFrames) {
  CapEnv env;
  PaEngine eng(pa_config(GetParam()), env);
  auto p0 = pattern(16, 0x10);
  eng.send(p0);
  env.drain();
  auto p1 = pattern(16, 0x40);
  eng.send(p1);
  env.drain();
  check("ident_cookie", GetParam(), env);
}

TEST_P(WireGolden, PackedTrain) {
  CapEnv env;
  PaEngine eng(pa_config(GetParam()), env);
  auto p0 = pattern(8, 0xa0);
  eng.send(p0);  // goes out; post pending => next sends queue behind it
  auto p1 = pattern(8, 0xb0);
  auto p2 = pattern(8, 0xc0);
  eng.send(p1);
  eng.send(p2);
  env.drain();  // flush_backlog packs p1+p2 into one frame
  check("packed", GetParam(), env);
  // The packed train must leave the engine as a gather list: conn headers
  // plus one slice per packed payload, no coalescing before the wire.
  ASSERT_EQ(env.slices_per_frame.size(), 2u);
  EXPECT_GE(env.slices_per_frame[1], 3u);
}

TEST_P(WireGolden, FragmentedSend) {
  CapEnv env;
  PaConfig cfg = pa_config(GetParam());
  cfg.stack.spec.find(LayerSpec::Type::kFrag)->frag.threshold = 16;
  PaEngine eng(cfg, env);
  auto big = pattern(40, 0x01);
  eng.send(big);
  env.drain();
  check("frag", GetParam(), env);
}

// New-layer captures (ISSUE 10): the crypt nonce + tag, the relay hop
// fields, and the comp in-band framing are wire surface now — pin them.
TEST_P(WireGolden, CryptFrames) {
  CapEnv env;
  PaConfig cfg = pa_config(GetParam());
  add_above_bottom(cfg.stack.spec, LayerSpec::crypt_layer());
  PaEngine eng(cfg, env);
  auto p0 = pattern(16, 0x10);
  eng.send(p0);
  env.drain();  // post_send advances the nonce cursor
  auto p1 = pattern(16, 0x40);
  eng.send(p1);
  env.drain();
  check("crypt", GetParam(), env);
}

TEST_P(WireGolden, RelayFrames) {
  CapEnv env;
  PaConfig cfg = pa_config(GetParam());
  add_above_bottom(cfg.stack.spec,
                   LayerSpec::relay_layer({/*local_hop=*/3, /*peer_hop=*/7}));
  PaEngine eng(cfg, env);
  auto p0 = pattern(16, 0x10);
  eng.send(p0);
  env.drain();
  check("relay", GetParam(), env);
}

TEST_P(WireGolden, CompFrames) {
  CapEnv env;
  PaConfig cfg = pa_config(GetParam());
  cfg.stack.spec.push_top(LayerSpec::comp_layer());
  PaEngine eng(cfg, env);
  // Compressible (ships [0x01][varint len][lz]) then stored pass-through
  // (too small: ships [0x00][raw]).
  std::vector<std::uint8_t> runs(128, 0x55);
  eng.send(runs);
  env.drain();
  auto small = pattern(8, 0x20);
  eng.send(small);
  env.drain();
  check("comp", GetParam(), env);
}

TEST_P(WireGolden, MixedStackFrames) {
  CapEnv env;
  PaConfig cfg = pa_config(GetParam());
  cfg.stack.spec.push_top(LayerSpec::comp_layer());
  add_above_bottom(cfg.stack.spec, LayerSpec::crypt_layer());
  add_above_bottom(cfg.stack.spec,
                   LayerSpec::relay_layer({/*local_hop=*/3, /*peer_hop=*/7}));
  PaEngine eng(cfg, env);
  std::vector<std::uint8_t> runs(128, 0x55);
  eng.send(runs);
  env.drain();
  check("mix", GetParam(), env);
}

TEST_P(WireGolden, ClassicStackFrames) {
  CapEnv env;
  ClassicConfig cfg;
  cfg.stack.spec = golden_stack();
  cfg.self_endian = GetParam();
  cfg.peer_endian = GetParam();
  ClassicEngine eng(cfg, env);
  auto p0 = pattern(16, 0x10);
  eng.send(p0);
  eng.send(pattern(16, 0x40));
  check("classic", GetParam(), env);
}

INSTANTIATE_TEST_SUITE_P(BothEndians, WireGolden,
                         ::testing::Values(Endian::kBig, Endian::kLittle),
                         [](const auto& info) {
                           return info.param == Endian::kBig ? "Big" : "Little";
                         });

}  // namespace
}  // namespace pa
