// Quickstart: two endpoints, one PA connection, a handful of messages.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// This walks through the whole public API surface:
//   World        — the simulation harness (event queue + network + nodes)
//   Node         — a machine: one CPU, a router, a GC model
//   ConnOptions  — the engine config (stack + PA knobs), PA or classic,
//                  plus per-side endians and overload governors
//   Endpoint     — what the application talks to: send() / on_deliver()
#include <cstdio>
#include <string>

#include "horus/report.h"
#include "horus/world.h"
#include "obs/export.h"
#include "obs/metrics.h"

using namespace pa;

int main() {
  // A world calibrated like the paper's testbed: U-Net over 140 Mbit/s ATM
  // (35 us one-way for small frames), O'Caml-cost protocol stack, GC after
  // every reception.
  WorldConfig wc;
  wc.gc_policy = GcPolicy::kEveryReception;
  World world(wc);

  Node& alice = world.add_node("alice");
  Node& bob = world.add_node("bob");

  // The default ConnOptions build the paper's evaluation stack: four layers
  // (frag / seq / window(16) / bottom) under the Protocol Accelerator.
  auto [a, b] = world.connect(alice, bob, ConnOptions{});

  b->on_deliver([&, b = b](std::span<const std::uint8_t> payload) {
    std::printf("[%8.1f us] bob received %zu bytes: \"%.*s\"\n",
                vt_to_us(b->now()), payload.size(),
                static_cast<int>(payload.size()),
                reinterpret_cast<const char*>(payload.data()));
    b->send(std::vector<std::uint8_t>{'a', 'c', 'k', '!'});
  });
  a->on_deliver([&, a = a](std::span<const std::uint8_t> payload) {
    std::printf("[%8.1f us] alice received %zu bytes: \"%.*s\"\n",
                vt_to_us(a->now()), payload.size(),
                static_cast<int>(payload.size()),
                reinterpret_cast<const char*>(payload.data()));
  });

  std::string hello = "hello, bob";
  a->send(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(hello.data()), hello.size()));

  world.run();

  const EngineStats& sa = a->engine().stats();
  std::printf(
      "\nalice's engine: %llu fast sends, %llu slow sends, "
      "%llu frames out (%llu carried the 77-byte conn-ident)\n",
      static_cast<unsigned long long>(sa.fast_sends),
      static_cast<unsigned long long>(sa.slow_sends),
      static_cast<unsigned long long>(sa.frames_out),
      static_cast<unsigned long long>(sa.conn_ident_sent));
  std::printf(
      "steady-state wire header: %zu bytes (8-byte preamble + compact "
      "per-class headers)\n",
      8 + a->pa()->fixed_header_bytes());
  std::printf("round trip completed at %.1f us of virtual time\n",
              vt_to_us(world.now()));
  std::printf("\n%s%s", report(a->engine().stats()).c_str(),
              report(bob.router().stats()).c_str());
  // The process-global registry carries the engine phase histograms
  // (pa_send_fast_ns & co.) populated by the exchange above. Everything
  // report() prints and prometheus_text() exports flows through this one
  // metrics pipeline — see docs/OBSERVABILITY.md.
  std::printf("%s", obs::render_report(obs::registry(),
                                       "process metrics").c_str());
  return 0;
}
