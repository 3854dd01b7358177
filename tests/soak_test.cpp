// Chaos soak matrix: both engines under every fault regime.
//
// Each case runs paced two-way traffic over a faulty link and asserts the
// robustness invariants the chaos subsystem exists to protect:
//   - no crash (the run itself),
//   - no misdelivery: the exact sent stream arrives, in order, both ways
//     (the wide checksum turns corruption into a detected drop, never a
//     misrouted or mutated delivery),
//   - convergence: once faults heal and traffic drains, the two stacks'
//     convergent-state digests (sync_digest) agree,
//   - bounded recovery: after a partition heals, delivery completes within
//     a couple of maximally-backed-off retransmission timeouts,
// plus determinism: a fixed seed reproduces the identical fault schedule
// and statistics.
#include <gtest/gtest.h>

#include "horus/world.h"
#include "util/byte_order.h"

namespace pa {
namespace {

enum class Regime {
  kCorruption,
  kTruncation,
  kBurstLoss,
  kPartition,
  kRestart,  // PA only: cookie-epoch recovery
};

const char* regime_name(Regime r) {
  switch (r) {
    case Regime::kCorruption: return "corruption";
    case Regime::kTruncation: return "truncation";
    case Regime::kBurstLoss: return "burst-loss";
    case Regime::kPartition: return "partition";
    case Regime::kRestart: return "restart";
  }
  return "?";
}

struct SoakCase {
  Regime regime;
  bool use_pa;
  std::uint64_t seed;
};

void PrintTo(const SoakCase& c, std::ostream* os) {
  *os << regime_name(c.regime) << (c.use_pa ? "/pa" : "/classic") << "/seed"
      << c.seed;
}

class Soak : public ::testing::TestWithParam<SoakCase> {};

// Paced symmetric traffic (equal counts and sizes both ways keep the
// per-direction cursors equal, which sync_digest equality relies on).
struct SoakRun {
  std::vector<std::vector<std::uint8_t>> sent;
  std::vector<std::vector<std::uint8_t>> got_ab, got_ba;
  Vt done_ab = 0, done_ba = 0;  // when the last message landed
};

void drive(World& w, Endpoint* ea, Endpoint* eb, SoakRun& run, int n,
           VtDur pace) {
  run.sent.resize(n);
  Rng payload_rng(7);
  for (int i = 0; i < n; ++i) {
    run.sent[i].resize(16 + payload_rng.next_below(48));
    for (auto& byte : run.sent[i]) {
      byte = static_cast<std::uint8_t>(payload_rng.next());
    }
    store_be32(run.sent[i].data(), static_cast<std::uint32_t>(i));
  }
  eb->on_deliver([&run, &w, n](std::span<const std::uint8_t> p) {
    run.got_ab.emplace_back(p.begin(), p.end());
    if (run.got_ab.size() == static_cast<std::size_t>(n)) {
      run.done_ab = w.now();
    }
  });
  ea->on_deliver([&run, &w, n](std::span<const std::uint8_t> p) {
    run.got_ba.emplace_back(p.begin(), p.end());
    if (run.got_ba.size() == static_cast<std::size_t>(n)) {
      run.done_ba = w.now();
    }
  });
  for (int i = 0; i < n; ++i) {
    w.queue().at(pace * i, [&run, ea, i] { ea->send(run.sent[i]); });
    w.queue().at(pace * i + pace / 2, [&run, eb, i] { eb->send(run.sent[i]); });
  }
}

void expect_exact(const SoakRun& run, const char* ctx) {
  ASSERT_EQ(run.got_ab.size(), run.sent.size()) << ctx << " (a->b)";
  ASSERT_EQ(run.got_ba.size(), run.sent.size()) << ctx << " (b->a)";
  for (std::size_t i = 0; i < run.sent.size(); ++i) {
    ASSERT_EQ(run.got_ab[i], run.sent[i]) << ctx << " a->b msg " << i;
    ASSERT_EQ(run.got_ba[i], run.sent[i]) << ctx << " b->a msg " << i;
  }
}

TEST_P(Soak, SurvivesRegime) {
  const SoakCase& c = GetParam();

  WorldConfig wc;
  wc.seed = c.seed;
  switch (c.regime) {
    case Regime::kCorruption:
      wc.link.corrupt_prob = 0.08;
      break;
    case Regime::kTruncation:
      wc.link.truncate_prob = 0.08;
      break;
    case Regime::kBurstLoss:
      wc.link.ge_enabled = true;  // header defaults: mean burst of 4 frames
      break;
    case Regime::kPartition:
    case Regime::kRestart:
      break;  // scheduled mid-run below
  }

  World w(wc);
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  opt.use_pa = c.use_pa;
  auto [ea, eb] = w.connect(a, b, opt);

  const int n = 60;
  const VtDur pace = c.use_pa ? vt_us(400) : vt_ms(2);
  SoakRun run;
  drive(w, ea, eb, run, n, pace);

  Vt heal_at = 0;
  if (c.regime == Regime::kPartition) {
    // Partition mid-stream, heal after 200 ms of blackhole.
    w.queue().at(pace * (n / 2), [&] { w.partition(a, b); });
    heal_at = pace * (n / 2) + vt_ms(200);
    w.queue().at(heal_at, [&] { w.heal(a, b); });
  } else if (c.regime == Regime::kRestart) {
    w.queue().at(pace * (n / 2), [&] { w.restart_node(a); });
  }

  w.run(30'000'000);

  expect_exact(run, regime_name(c.regime));

  // Convergence: after the faults heal and traffic drains, both stacks'
  // convergent state must agree (equal cursors, empty buffers).
  EXPECT_EQ(ea->engine().stack().sync_digest(),
            eb->engine().stack().sync_digest())
      << regime_name(c.regime);

  if (c.regime == Regime::kPartition) {
    // Bounded recovery: the first post-heal retransmission fires within one
    // maximally-backed-off RTO of the heal; allow two plus drain slack.
    const WindowConfig& win =
        opt.engine.stack.spec.find(LayerSpec::Type::kWindow)->window;
    const VtDur max_rto = win.rto << win.max_rto_shift;
    const Vt deadline = heal_at + 2 * max_rto + vt_ms(100);
    EXPECT_LE(run.done_ab, deadline);
    EXPECT_LE(run.done_ba, deadline);
    if (c.use_pa) {
      // Both sides resent into the blackhole: the silence detector must
      // have kicked both into cookie recovery.
      EXPECT_GE(ea->pa()->stats().recovery_entries, 1u);
      EXPECT_GE(eb->pa()->stats().recovery_entries, 1u);
    }
  }

  if (c.regime == Regime::kCorruption || c.regime == Regime::kTruncation) {
    // The faults must actually have fired for the run to prove anything.
    const auto& ns = w.network().stats();
    EXPECT_GT(ns.frames_corrupted + ns.frames_truncated, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, Soak,
    ::testing::Values(
        SoakCase{Regime::kCorruption, true, 1},
        SoakCase{Regime::kCorruption, true, 2},
        SoakCase{Regime::kCorruption, false, 1},
        SoakCase{Regime::kTruncation, true, 3},
        SoakCase{Regime::kTruncation, false, 3},
        SoakCase{Regime::kBurstLoss, true, 4},
        SoakCase{Regime::kBurstLoss, true, 5},
        SoakCase{Regime::kBurstLoss, false, 4},
        SoakCase{Regime::kPartition, true, 6},
        SoakCase{Regime::kPartition, false, 6}));

// --- sender restart: cookie-epoch recovery end to end ----------------------
//
// One-directional traffic isolates the hard case: the pure receiver's acks
// carry no connection identification, so after the sender's router forgets
// the receiver's cookie the acks all drop — only the receiver noticing the
// sender's duplicate retransmissions (dup_notify_threshold) breaks the
// deadlock by entering recovery and shipping the identification.
TEST(SoakRestart, SenderRestartRecoversViaCookieEpoch) {
  WorldConfig wc;
  wc.seed = 99;
  World w(wc);
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  auto [ea, eb] = w.connect(a, b, opt);

  const int n = 40;
  std::vector<std::vector<std::uint8_t>> sent(n);
  for (int i = 0; i < n; ++i) {
    sent[i].assign(32, static_cast<std::uint8_t>(i));
    store_be32(sent[i].data(), static_cast<std::uint32_t>(i));
  }
  std::vector<std::vector<std::uint8_t>> got;
  eb->on_deliver([&](std::span<const std::uint8_t> p) {
    got.emplace_back(p.begin(), p.end());
  });
  const VtDur pace = vt_us(400);
  for (int i = 0; i < n; ++i) {
    w.queue().at(pace * i, [&, i] { ea->send(sent[i]); });
  }
  const std::uint64_t cookie_before = ea->pa()->out_cookie();
  w.queue().at(pace * (n / 2), [&] { w.restart_node(a); });

  w.run(30'000'000);

  ASSERT_EQ(got.size(), sent.size());
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(got[i], sent[i]) << "message " << i;
  }
  EXPECT_EQ(ea->pa()->stats().restarts, 1u);
  EXPECT_EQ(ea->pa()->cookie_epoch(), 1u);
  EXPECT_NE(ea->pa()->out_cookie(), cookie_before);
  // The receiver's acks were dropped at the restarted router until the
  // dup-streak detector pushed the receiver into recovery.
  EXPECT_GT(a.router().stats().drops[DropReason::kUnknownCookie], 0u);
  EXPECT_GE(eb->pa()->stats().recovery_entries, 1u);
  EXPECT_EQ(ea->engine().stack().sync_digest(),
            eb->engine().stack().sync_digest());
}

// --- determinism: the fault schedule is a pure function of the seed -------
TEST(SoakDeterminism, SameSeedSameFaultScheduleAndStats) {
  auto once = [](std::uint64_t seed) {
    WorldConfig wc;
    wc.seed = seed;
    wc.link.corrupt_prob = 0.05;
    wc.link.truncate_prob = 0.05;
    wc.link.ge_enabled = true;
    World w(wc);
    auto& a = w.add_node("a");
    auto& b = w.add_node("b");
    auto [ea, eb] = w.connect(a, b, ConnOptions{});
    SoakRun run;
    drive(w, ea, eb, run, 40, vt_us(400));
    w.run(30'000'000);
    const auto& ns = w.network().stats();
    return std::tuple{ns.frames_sent,      ns.frames_lost,
                      ns.frames_corrupted, ns.frames_truncated,
                      ea->engine().stats().frames_out,
                      eb->engine().stack().sync_digest()};
  };
  EXPECT_EQ(once(11), once(11));
  EXPECT_EQ(once(12), once(12));
  EXPECT_NE(once(11), once(12));  // and the seed actually matters
}

}  // namespace
}  // namespace pa
