// Chaos bench: how much of the PA's fast-path advantage survives a hostile
// link. Sweeps memoryless loss, bursty (Gilbert–Elliott) loss, corruption
// and truncation, and reports the fast-path hit rates and drop taxonomy.
//
// The paper measures the PA on a clean ATM testbed; every loss forces a
// retransmission ("unusual" traffic that takes the slow path and carries
// the full connection identification), so fault pressure erodes — but must
// not collapse — the fast-path hit rate.
#include <cstdlib>
#include <string_view>

#include "common.h"
#include "horus/report.h"

namespace pa::bench {
namespace {

struct ChaosResult {
  double fast_send_rate;     // fast sends / app-level frame starts
  double fast_deliver_rate;  // fast deliveries / frames delivered up
  double drop_rate;          // engine+router drops / frames offered
  std::uint64_t retransmits;
};

ChaosResult run_regime(const LinkParams& link, std::uint64_t seed) {
  WorldConfig wc;
  wc.seed = seed;
  wc.link = link;
  World w(wc);
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  auto [src, dst] = w.connect(a, b, ConnOptions{});
  std::uint64_t delivered = 0;
  dst->on_deliver([&](std::span<const std::uint8_t>) { ++delivered; });

  const int n = 2000;
  const auto payload = payload_of(64);
  for (int i = 0; i < n; ++i) {
    w.queue().at(vt_us(200) * i, [&, src = src] { src->send(payload); });
  }
  w.run(50'000'000);

  const EngineStats& tx = src->engine().stats();
  const EngineStats& rx = dst->engine().stats();
  const Router::Stats& rt = b.router().stats();
  ChaosResult r;
  r.fast_send_rate = tx.frames_out == 0
                         ? 0.0
                         : static_cast<double>(tx.fast_sends) /
                               static_cast<double>(tx.fast_sends +
                                                   tx.slow_sends);
  r.fast_deliver_rate =
      rx.fast_delivers + rx.slow_delivers == 0
          ? 0.0
          : static_cast<double>(rx.fast_delivers) /
                static_cast<double>(rx.fast_delivers + rx.slow_delivers);
  r.drop_rate = rx.frames_in == 0
                    ? 0.0
                    : static_cast<double>(rx.drops.total() +
                                          rt.drops.total()) /
                          static_cast<double>(tx.frames_out);
  r.retransmits = tx.raw_resends;
  return r;
}

}  // namespace
}  // namespace pa::bench

int main(int argc, char** argv) {
  using namespace pa;
  using namespace pa::bench;

  // --seed N offsets every regime's fault schedule: the same seed
  // reproduces the exact same run (the injector is deterministic), a
  // different seed explores a different fault sequence.
  std::uint64_t seed_base = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--seed" && i + 1 < argc) {
      seed_base = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }

  banner("chaos: fast-path hit rate under link faults",
         "robustness extension (paper measures a clean ATM testbed)");
  if (seed_base != 0) std::printf("fault schedule seed base: %llu\n",
                                  static_cast<unsigned long long>(seed_base));
  std::printf("%-26s %10s %12s %10s %12s\n", "regime", "fast-send",
              "fast-deliver", "drop-rate", "retransmits");
  std::printf("%-26s %10s %12s %10s %12s\n", "------", "---------",
              "------------", "---------", "-----------");

  auto report_row = [](const char* name, const ChaosResult& r) {
    std::printf("%-26s %9.1f%% %11.1f%% %9.2f%% %12llu\n", name,
                100.0 * r.fast_send_rate, 100.0 * r.fast_deliver_rate,
                100.0 * r.drop_rate,
                static_cast<unsigned long long>(r.retransmits));
  };

  {
    LinkParams lp;
    report_row("clean", run_regime(lp, seed_base + 1));
  }
  for (double loss : {0.01, 0.05, 0.10, 0.20}) {
    LinkParams lp;
    lp.faults.loss_prob = loss;
    char name[32];
    std::snprintf(name, sizeof name, "loss %.0f%%", 100 * loss);
    report_row(name, run_regime(lp, seed_base + 2));
  }
  {
    LinkParams lp;
    lp.faults.ge_enabled = true;
    report_row("burst loss (GE ~12.5%)", run_regime(lp, seed_base + 3));
  }
  {
    LinkParams lp;
    lp.faults.corrupt_prob = 0.05;
    report_row("corruption 5%", run_regime(lp, seed_base + 4));
  }
  {
    LinkParams lp;
    lp.faults.truncate_prob = 0.05;
    report_row("truncation 5%", run_regime(lp, seed_base + 5));
  }

  std::printf(
      "\nNote: every loss costs a retransmission, which is 'unusual'\n"
      "traffic: slow-path, carrying the full connection identification.\n"
      "The fast-path hit rate should degrade roughly linearly with the\n"
      "fault rate, not collapse.\n");
  return 0;
}
