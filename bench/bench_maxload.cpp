// Server maximum load (paper §6, "Maximum Load").
//
// "Consider a server that uses a PA for each client... Even with multiple
// clients, a server cannot process more than 6000 requests per second
// total, because the post-processing will consume all the server's
// available CPU cycles."
//
// We run N clients (each on its own node, each with its own connection and
// PA at the server) issuing closed-loop RPCs against one server node and
// report the aggregate RPC rate: it must saturate near the single-client
// maximum regardless of N.
#include <cstdlib>
#include <string_view>

#include "common.h"

using namespace pa;
using namespace pa::bench;

namespace {

std::uint64_t g_seed = 42;

double aggregate_rpcs(int n_clients, VtDur window, std::size_t n_cpus = 1) {
  WorldConfig wc;
  wc.seed = g_seed;
  wc.gc_policy = GcPolicy::kEveryN;  // occasional GC (paper's 6000 regime)
  wc.gc_every_n = 256;
  World w(wc);
  auto& server = w.add_node("server", n_cpus);

  std::uint64_t completed = 0;
  std::vector<Endpoint*> clients;
  for (int i = 0; i < n_clients; ++i) {
    auto& cn = w.add_node("client" + std::to_string(i));
    ConnOptions opt;
    opt.engine.enable_packing = false;  // one RPC per frame
    auto [cli, srv] = w.connect(cn, server, opt);
    srv->on_deliver(
        [&, srv = srv](std::span<const std::uint8_t> p) { srv->send(p); });
    cli->on_deliver([&, cli = cli](std::span<const std::uint8_t> p) {
      ++completed;
      if (w.now() < window) cli->send(p);
    });
    clients.push_back(cli);
  }
  auto msg = payload_of(8);
  for (Endpoint* c : clients) c->send(msg);
  w.run();
  return completed / vt_to_s(window);
}

}  // namespace

int main(int argc, char** argv) {
  // --seed N shifts the world seed (cookie/address draws); the sweep is
  // deterministic for any fixed seed.
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--seed" && i + 1 < argc) {
      g_seed = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }

  banner("bench_maxload — aggregate server RPC rate vs number of clients",
         "paper §6 (server post-processing caps total RPCs near the "
         "single-connection maximum)");

  std::printf("%10s %16s %18s\n", "clients", "total RPC/s",
              "per-client RPC/s");
  double one = 0, many = 0;
  for (int n : {1, 2, 4, 8, 16}) {
    double r = aggregate_rpcs(n, vt_ms(400));
    std::printf("%10d %16.0f %18.0f\n", n, r, r / n);
    if (n == 1) one = r;
    if (n == 16) many = r;
  }

  // Paper §6: "modern servers are likely to be multi-processors. The
  // protocol stacks for different connections may be divided among the
  // processors... This way the maximum number of RPCs per second is
  // multiplied by the number of processors."
  std::printf("\n%10s %16s (16 clients)\n", "server CPUs", "total RPC/s");
  double cpu1 = 0, cpu4 = 0;
  for (std::size_t p : {1u, 2u, 4u}) {
    double r = aggregate_rpcs(16, vt_ms(400), p);
    std::printf("%10zu %16.0f\n", p, r);
    if (p == 1) cpu1 = r;
    if (p == 4) cpu4 = r;
  }

  std::printf("\n");
  header_row();
  row("single-client RPC rate", "<=6000 rt/s", fmt(one, "rt/s", 0));
  row("16-client aggregate", "~6000 rt/s", fmt(many, "rt/s", 0),
      "(server CPU saturated by post-processing)");
  row("scaling factor 1->16 clients", "~1x", fmt(many / one, "x"));
  row("4-CPU server vs 1-CPU", "~4x (SS6)", fmt(cpu4 / cpu1, "x"));

  // The server saturates: aggregate grows sublinearly and approaches the
  // post-processing bound (~1/130us = 7700 theoretical ceiling; paper 6000).
  bool ok = many < one * 3 && many > 3000 && many < 9000 &&
            cpu4 / cpu1 > 3.0;
  std::printf("\nRESULT: %s\n", ok ? "shape holds" : "SHAPE VIOLATION");
  return ok ? 0 : 1;
}
