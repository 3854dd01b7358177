// Equivalence property (DESIGN.md §5): the PA only *masks* overhead — it
// must never change application-visible semantics. For random workloads and
// fault patterns, both engines must deliver exactly the sent sequence, in
// order, exactly once.
#include <gtest/gtest.h>

#include "horus/world.h"
#include "util/rng.h"

namespace pa {
namespace {

struct Workload {
  // (send time, payload) per direction.
  std::vector<std::pair<Vt, std::vector<std::uint8_t>>> a_to_b;
  std::vector<std::pair<Vt, std::vector<std::uint8_t>>> b_to_a;
};

Workload random_workload(std::uint64_t seed) {
  Rng rng(seed);
  Workload wl;
  const int n = 30 + static_cast<int>(rng.next_below(120));
  Vt ta = 0, tb = 0;
  for (int i = 0; i < n; ++i) {
    std::vector<std::uint8_t> payload(rng.next_below(200));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
    if (rng.chance(0.7)) {
      ta += rng.next_below(vt_us(400));
      wl.a_to_b.emplace_back(ta, std::move(payload));
    } else {
      tb += rng.next_below(vt_us(400));
      wl.b_to_a.emplace_back(tb, std::move(payload));
    }
  }
  return wl;
}

struct RunResult {
  std::vector<std::vector<std::uint8_t>> delivered_at_b;
  std::vector<std::vector<std::uint8_t>> delivered_at_a;
};

RunResult run_engine(const Workload& wl, bool use_pa, std::uint64_t seed,
                     double loss, double dup, VtDur jitter) {
  WorldConfig wc;
  wc.seed = seed;
  wc.link.loss_prob = loss;
  wc.link.dup_prob = dup;
  wc.link.reorder_jitter = jitter;
  World w(wc);
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  opt.use_pa = use_pa;
  // Exercise fragmentation too.
  opt.engine.stack.spec.find(LayerSpec::Type::kFrag)->frag.threshold = 128;
  auto [ea, eb] = w.connect(a, b, opt);

  RunResult rr;
  eb->on_deliver([&](std::span<const std::uint8_t> p) {
    rr.delivered_at_b.emplace_back(p.begin(), p.end());
  });
  ea->on_deliver([&](std::span<const std::uint8_t> p) {
    rr.delivered_at_a.emplace_back(p.begin(), p.end());
  });
  for (const auto& [t, payload] : wl.a_to_b) {
    w.queue().at(t, [&, ea = ea] { ea->send(payload); });
  }
  for (const auto& [t, payload] : wl.b_to_a) {
    w.queue().at(t, [&, eb = eb] { eb->send(payload); });
  }
  w.run();
  return rr;
}

void expect_exact_delivery(const Workload& wl, const RunResult& rr,
                           const char* tag) {
  ASSERT_EQ(rr.delivered_at_b.size(), wl.a_to_b.size()) << tag;
  for (std::size_t i = 0; i < wl.a_to_b.size(); ++i) {
    EXPECT_EQ(rr.delivered_at_b[i], wl.a_to_b[i].second)
        << tag << " a->b message " << i;
  }
  ASSERT_EQ(rr.delivered_at_a.size(), wl.b_to_a.size()) << tag;
  for (std::size_t i = 0; i < wl.b_to_a.size(); ++i) {
    EXPECT_EQ(rr.delivered_at_a[i], wl.b_to_a[i].second)
        << tag << " b->a message " << i;
  }
}

class Equivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Equivalence, CleanNetwork) {
  Workload wl = random_workload(GetParam());
  expect_exact_delivery(wl, run_engine(wl, true, GetParam(), 0, 0, 0), "pa");
  expect_exact_delivery(wl, run_engine(wl, false, GetParam(), 0, 0, 0),
                        "classic");
}

TEST_P(Equivalence, FaultyNetwork) {
  Workload wl = random_workload(GetParam() * 31 + 7);
  const double loss = 0.05;
  const double dup = 0.03;
  const VtDur jitter = vt_us(60);
  expect_exact_delivery(
      wl, run_engine(wl, true, GetParam(), loss, dup, jitter), "pa");
  expect_exact_delivery(
      wl, run_engine(wl, false, GetParam(), loss, dup, jitter), "classic");
}

INSTANTIATE_TEST_SUITE_P(Seeds, Equivalence,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace pa
