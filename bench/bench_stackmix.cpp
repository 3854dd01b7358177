// bench_stackmix — prediction masks the overhead of runtime-composed
// stacks (ISSUE 10; paper §5 generalized).
//
// The paper's layer-scaling study doubled the window layer and showed the
// critical path did not care. This bench makes the modern version of that
// claim: compose the connection pipeline at runtime from a StackSpec —
// adding AEAD encryption, LZ-class compression and relay hop addressing in
// every sensible combination — and show that the PA's predicted paths
// still carry steady-state traffic, i.e. the *masked-overhead ratio*
// (classic round trip / PA round trip, identical composition and cost
// model) stays well above 1 while the deliver hit rate stays hot.
//
// Grid: 6 compositions x 64 B – 16 KiB payloads (16 KiB fragments at the
// default 8 KiB threshold). Gates published in BENCH_stackmix.json:
//   - stackmix_aead_comp_deliver_hit >= 0.90 (steady-state crypt+comp)
//   - stackmix_gate_ok == 1
#include "common.h"

using namespace pa;
using namespace pa::bench;

namespace {

struct Mix {
  const char* name;  // short key for JSON
  const char* desc;
  bool comp, crypt, relay;
};

constexpr Mix kMixes[] = {
    {"base", "frag/seq/window/bottom (the 1996 stack)", false, false, false},
    {"crypt", "+ AEAD below the window", false, true, false},
    {"comp", "+ LZ compression above frag", true, false, false},
    {"aead_comp", "+ crypt and comp", true, true, false},
    {"relay", "+ hop addressing above bottom", false, false, true},
    {"full", "comp + crypt + relay", true, true, true},
};

ConnOptions options_for(const Mix& m, bool use_pa) {
  ConnOptions opt;
  opt.use_pa = use_pa;
  StackSpec s;
  if (m.comp) s.add(LayerSpec::comp_layer());
  s.add(LayerSpec::frag_layer(FragConfig{/*threshold=*/8192}))
      .add(LayerSpec::seq_layer())
      .add(LayerSpec::window_layer(WindowConfig{}));
  if (m.crypt) s.add(LayerSpec::crypt_layer());
  if (m.relay) s.add(LayerSpec::relay_layer());  // World assigns the hops
  s.add(LayerSpec::bottom_layer(BottomConfig{}));
  opt.stack.spec = std::move(s);
  return opt;
}

struct Point {
  double rt_us;        // mean steady-state round trip
  double deliver_hit;  // server fast_delivers / (fast + slow), PA only
  double send_hit;     // client fast_sends / (fast + slow), PA only
};

Point run_point(const ConnOptions& opt, std::size_t payload_bytes) {
  constexpr int kWarm = 8, kMeas = 24;
  WorldConfig wc;
  wc.seed = g_world_seed;
  wc.gc_policy = GcPolicy::kDisabled;
  World w(wc);
  auto& a = w.add_node("client");
  auto& b = w.add_node("server");
  auto [c, s] = w.connect(a, b, opt);
  s->on_deliver([&, s = s](std::span<const std::uint8_t> p) { s->send(p); });

  int done = 0;
  Vt sent_at = 0;
  double total_rt = 0;
  std::uint64_t fd0 = 0, sd0 = 0, fs0 = 0, ss0 = 0;
  auto msg = payload_of(payload_bytes);
  c->on_deliver([&, c = c](std::span<const std::uint8_t>) {
    if (done >= kWarm) total_rt += vt_to_us(c->now() - sent_at);
    if (++done < kWarm + kMeas) {
      // Spaced sends: deferred work drains between rounds, so both sides
      // sit on their steady-state predicted paths.
      w.queue().after(vt_ms(5), [&, c] {
        if (done == kWarm) {
          const EngineStats& es = s->engine().stats();
          const EngineStats& ec = c->engine().stats();
          fd0 = es.fast_delivers.load();
          sd0 = es.slow_delivers.load();
          fs0 = ec.fast_sends.load();
          ss0 = ec.slow_sends.load();
        }
        sent_at = c->now();
        c->send(msg);
      });
    }
  });
  sent_at = c->now();
  c->send(msg);
  w.run();

  const EngineStats& es = s->engine().stats();
  const EngineStats& ec = c->engine().stats();
  const double fd = static_cast<double>(es.fast_delivers.load() - fd0);
  const double sd = static_cast<double>(es.slow_delivers.load() - sd0);
  const double fs = static_cast<double>(ec.fast_sends.load() - fs0);
  const double ss = static_cast<double>(ec.slow_sends.load() - ss0);
  Point p;
  p.rt_us = total_rt / kMeas;
  p.deliver_hit = (fd + sd) > 0 ? fd / (fd + sd) : 0;
  p.send_hit = (fs + ss) > 0 ? fs / (fs + ss) : 0;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  // --seed N shifts the world seed (cookie/address draws); the grid is
  // deterministic for any fixed seed.
  parse_seed(argc, argv);

  banner("bench_stackmix — composed stacks, masked overhead per mix",
         "paper §5 layer-scaling study, generalized to runtime-composed "
         "crypt/comp/relay stacks (ISSUE 10)");

  std::vector<std::pair<std::string, double>> metrics;
  constexpr std::size_t kSizes[] = {64, 1024, 4096, 16384};

  std::printf("%-10s %7s %12s %14s %12s %10s %10s\n", "mix", "bytes",
              "PA RT us", "classic RT us", "masked x", "send-hit",
              "dlvr-hit");
  double aead_comp_hit = 1.0;
  double min_ratio_64 = 1e9;
  for (const Mix& m : kMixes) {
    for (std::size_t sz : kSizes) {
      const Point pa_pt = run_point(options_for(m, /*use_pa=*/true), sz);
      const Point cl_pt = run_point(options_for(m, /*use_pa=*/false), sz);
      const double ratio = pa_pt.rt_us > 0 ? cl_pt.rt_us / pa_pt.rt_us : 0;
      std::printf("%-10s %6zuB %12.1f %14.1f %11.2fx %9.0f%% %9.0f%%\n",
                  m.name, sz, pa_pt.rt_us, cl_pt.rt_us, ratio,
                  100 * pa_pt.send_hit, 100 * pa_pt.deliver_hit);
      const std::string k =
          "stackmix_" + std::string(m.name) + "_" + std::to_string(sz) + "B";
      metrics.emplace_back(k + "_pa_rt_us", pa_pt.rt_us);
      metrics.emplace_back(k + "_classic_rt_us", cl_pt.rt_us);
      metrics.emplace_back(k + "_masked_ratio", ratio);
      metrics.emplace_back(k + "_deliver_hit", pa_pt.deliver_hit);
      if (sz == 64) min_ratio_64 = std::min(min_ratio_64, ratio);
      if (std::string_view(m.name) == "aead_comp" && sz == 1024) {
        aead_comp_hit = std::min(pa_pt.deliver_hit, pa_pt.send_hit);
      }
    }
    std::printf("           (%s)\n", m.desc);
  }

  // The two headline claims: the steady-state AEAD+comp stack lives on the
  // predicted paths, and prediction buys a real factor over the classic
  // walk for EVERY composition at the paper's message sizes.
  const bool gate = aead_comp_hit >= 0.90 && min_ratio_64 > 1.2;
  metrics.emplace_back("stackmix_aead_comp_deliver_hit", aead_comp_hit);
  metrics.emplace_back("stackmix_min_masked_ratio_64B", min_ratio_64);
  metrics.emplace_back("stackmix_gate_ok", gate ? 1 : 0);

  std::printf("\n");
  header_row();
  row("AEAD+comp steady deliver hit", ">= 90%",
      fmt(100 * aead_comp_hit, "%"));
  row("min masked ratio @64B", "> 1.2x", fmt(min_ratio_64, "x", 2),
      "(classic walks every layer on the critical path)");

  emit_bench_json("stackmix", metrics);
  std::printf("\nRESULT: %s\n",
              gate ? "prediction masks every composition" : "GATE VIOLATION");
  return gate ? 0 : 1;
}
