// The slow-network observation (paper §4, last paragraph):
//
//   "Since ... post-processing and garbage collection actually take longer
//    than the U-Net round-trip time, post-processing and garbage collection
//    are scheduled to occur after message deliveries. On slower networks,
//    such as Ethernet, post-processing and garbage collection could be done
//    between round-trips as well."
//
// On ATM/U-Net (35 µs one-way) the deferred work (80+50 µs posts + ~300 µs
// GC) dominates the wire, so back-to-back round trips are CPU-bound and
// slower than an isolated one. On a 1996 Ethernet profile (~500 µs one-way)
// the same work hides completely inside the wire time: back-to-back round
// trips cost the same as isolated ones.
#include "common.h"

using namespace pa;
using namespace pa::bench;

namespace {

LinkParams atm_link() { return LinkParams{}; }

LinkParams ethernet_link() {
  LinkParams lp;
  lp.propagation = vt_us(500);       // software + wire latency of the era
  lp.ns_per_byte = 800.0;            // 10 Mbit/s
  lp.mtu = 1500;
  return lp;
}

struct Shape {
  double isolated_us;
  double back_to_back_us;
};

Shape measure(const LinkParams& link) {
  WorldConfig wc;
  wc.gc_policy = GcPolicy::kEveryReception;
  wc.link = link;
  World w(wc);
  auto& a = w.add_node("client");
  auto& b = w.add_node("server");
  ConnOptions opt;
  opt.engine.enable_packing = false;
  auto [c, s] = w.connect(a, b, opt);
  s->on_deliver([&, s = s](std::span<const std::uint8_t> p) { s->send(p); });

  int done = 0;
  Vt sent_at = 0;
  double first = 0, total_rest = 0;
  auto msg = payload_of(8);
  constexpr int kN = 500;
  c->on_deliver([&, c = c](std::span<const std::uint8_t>) {
    double lat = vt_to_us(c->now() - sent_at);
    if (done == 0) {
      first = lat;
    } else {
      total_rest += lat;
    }
    if (++done < kN) {
      sent_at = c->now();
      c->send(msg);
    }
  });
  sent_at = c->now();
  c->send(msg);
  w.run();
  return {first, total_rest / (kN - 1)};
}

}  // namespace

int main() {
  banner("bench_ethernet — deferred work hides inside slow networks",
         "paper §4 (on Ethernet, post-processing + GC fit between round "
         "trips; on ATM they bound the rate)");

  Shape atm = measure(atm_link());
  Shape eth = measure(ethernet_link());

  std::printf("%-24s %16s %18s %10s\n", "network", "isolated RT", "back-to-back RT",
              "penalty");
  std::printf("%-24s %13.1f us %15.1f us %9.2fx\n", "ATM/U-Net (35us wire)",
              atm.isolated_us, atm.back_to_back_us,
              atm.back_to_back_us / atm.isolated_us);
  std::printf("%-24s %13.1f us %15.1f us %9.2fx\n", "Ethernet (500us wire)",
              eth.isolated_us, eth.back_to_back_us,
              eth.back_to_back_us / eth.isolated_us);

  std::printf("\n");
  header_row();
  row("ATM back-to-back penalty", ">2x (Fig 4 dashed)",
      fmt(atm.back_to_back_us / atm.isolated_us, "x", 2));
  row("Ethernet back-to-back penalty", "~1x (fully hidden)",
      fmt(eth.back_to_back_us / eth.isolated_us, "x", 2));

  bool ok = atm.back_to_back_us / atm.isolated_us > 1.8 &&
            eth.back_to_back_us / eth.isolated_us < 1.15;
  std::printf("\nRESULT: %s\n", ok ? "shape holds" : "SHAPE VIOLATION");
  return ok ? 0 : 1;
}
