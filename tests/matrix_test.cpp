// Composition matrix property: every sensible combination of stack
// composition, engine, reliability protocol, PA options and network faults
// must deliver the sent stream exactly, in order. This is the broadest
// correctness sweep in the suite.
#include <gtest/gtest.h>

#include "horus/world.h"
#include "util/rng.h"

namespace pa {
namespace {

struct MatrixCase {
  std::uint64_t seed;
};

class Matrix : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Matrix, ExactInOrderDelivery) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ull + 1);

  // Random composition.
  ConnOptions opt;
  opt.use_pa = rng.chance(0.7);
  const bool frag = rng.chance(0.8);
  const bool seq = rng.chance(0.7);
  const bool meter = rng.chance(0.3);
  const bool nak = rng.chance(0.25);
  std::uint64_t windows = 0;
  WindowConfig win;
  if (!nak) {
    windows = 1 + rng.next_below(2);
    win.selective_ack = rng.chance(0.5);
    win.size = 4 + static_cast<std::uint32_t>(rng.next_below(28));
  }
  const FragConfig frag_cfg{64 + rng.next_below(512)};
  StackSpec s;
  if (meter) s.add(LayerSpec::meter());
  if (frag) s.add(LayerSpec::frag_layer(frag_cfg));
  if (seq) s.add(LayerSpec::seq_layer());
  if (nak) s.add(LayerSpec::nak_layer({}));
  for (std::uint64_t i = 0; i < windows; ++i) {
    s.add(LayerSpec::window_layer(win));
  }
  s.add(LayerSpec::bottom_layer({}));
  opt.engine.stack.spec = std::move(s);
  if (opt.use_pa) {
    opt.engine.use_compiled_filters = rng.chance(0.7);
    opt.engine.enable_packing = rng.chance(0.8);
    opt.engine.variable_packing = rng.chance(0.3);
    opt.engine.use_message_pool = rng.chance(0.7);
    opt.engine.cookie_preagreed = rng.chance(0.2);
  }

  // Random (mild) faults — NAK stacks need loss confined to repairable
  // patterns, so keep loss low and history default (64).
  WorldConfig wc;
  wc.seed = GetParam();
  const bool faulty = rng.chance(0.6);
  if (faulty) {
    wc.link.loss_prob = nak ? 0.02 : 0.05;
    wc.link.dup_prob = 0.02;
    // NAK reliability has a bounded repair horizon by design; keep the
    // reordering within it (jitter of several ms would age losses out of
    // the sender's history — the documented, surfaced stall, not a bug).
    wc.link.reorder_jitter =
        vt_us(rng.next_below(nak ? 60 : 300));
  }
  wc.gc_policy = rng.chance(0.5) ? GcPolicy::kEveryReception
                                 : GcPolicy::kDisabled;

  World w(wc);
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  auto [src, dst] = w.connect(a, b, opt);

  const int n = 20 + static_cast<int>(rng.next_below(60));
  std::vector<std::vector<std::uint8_t>> sent(n);
  for (int i = 0; i < n; ++i) {
    sent[i].resize(4 + rng.next_below(600));  // some will fragment
    for (auto& byte : sent[i]) byte = static_cast<std::uint8_t>(rng.next());
    store_be32(sent[i].data(), static_cast<std::uint32_t>(i));  // label
  }

  std::vector<std::vector<std::uint8_t>> got;
  dst->on_deliver([&](std::span<const std::uint8_t> p) {
    got.emplace_back(p.begin(), p.end());
  });
  // Offered rate must respect the engine's per-message capacity: the
  // classic engine spends ~360 us per layer traversal per direction (and
  // fragmented messages double that), so pushing it at PA rates just
  // saturates both CPUs — which the NAK protocol, having no flow control,
  // answers with a (correct, documented) repair-horizon stall.
  const VtDur pace = opt.use_pa ? vt_us(200) : vt_ms(2);
  for (int i = 0; i < n; ++i) {
    w.queue().at(pace * i + (rng.next_below(2) ? 0 : 1),
                 [&, i, src = src] { src->send(sent[i]); });
  }
  w.run(20'000'000);

  ASSERT_EQ(got.size(), sent.size())
      << "seed=" << GetParam() << " pa=" << opt.use_pa
      << " nak=" << nak << " faulty=" << faulty;
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(got[i], sent[i]) << "message " << i << " seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Matrix,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace pa
