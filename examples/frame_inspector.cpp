// Frame inspector: tcpdump for the PA wire format.
//
// Taps the simulated network, decodes every frame against the connection's
// compiled layout, and prints it field by field — the first message with
// its 77-byte connection identification, the 43-byte steady-state frames,
// a retransmission with the rex bit set, and a standalone ack. The clearest
// way to *see* the paper's header compression.
//
// Flags:
//   --metrics           dump the unified metrics (Prometheus text) at exit
//   --trace-out <path>  write the span-event trace as Chrome trace JSON
//                       (load in chrome://tracing or ui.perfetto.dev)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "horus/wire_debug.h"
#include "horus/world.h"
#include "obs/bridge.h"
#include "obs/export.h"

using namespace pa;

int main(int argc, char** argv) {
  bool want_metrics = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) want_metrics = true;
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    }
  }
  WorldConfig wc;
  wc.link.faults.loss_prob = 0.0;
  World world(wc);
  Node& a = world.add_node("alice");
  Node& b = world.add_node("bob");
  auto [src, dst] = world.connect(a, b, ConnOptions{});
  dst->on_deliver([](std::span<const std::uint8_t>) {});

  const LayoutRegistry& reg = src->pa()->stack().registry();
  const CompiledLayout& layout = src->pa()->layout();

  int shown = 0;
  world.network().set_tap([&](NodeId from, NodeId to,
                              std::span<const std::uint8_t> frame,
                              Vt depart) {
    if (shown >= 6) return;
    ++shown;
    std::printf("---- frame %d: %s -> %s at %.1f us, %zu bytes ----\n",
                shown, world.network().node_name(from).c_str(),
                world.network().node_name(to).c_str(), vt_to_us(depart),
                frame.size());
    DecodedFrame d = decode_pa_frame(frame, reg, layout);
    std::printf("%s\n", render_frame(d).c_str());
  });

  // 1: first message (carries conn-ident). 2: steady state. 3: packed.
  src->send(std::vector<std::uint8_t>{'h', 'i'});
  world.run_for(vt_ms(2));
  src->send(std::vector<std::uint8_t>{'y', 'o'});
  world.run_for(vt_ms(2));
  src->send(std::vector<std::uint8_t>{1, 1});
  src->send(std::vector<std::uint8_t>{2, 2});
  src->send(std::vector<std::uint8_t>{3, 3});
  world.run_for(vt_ms(2));
  world.run();

  std::printf("(%d frames shown; see bench_headers for the size "
              "accounting)\n",
              shown);

  if (want_metrics) {
    // One registry: this connection's stats (obs/bridge.h) plus the
    // process-global phase histograms.
    obs::MetricsRegistry reg;
    obs::bind_stats(reg, src->engine().stats());
    obs::bind_stats(reg, b.router().stats());
    obs::bind_stack_stats(reg, src->engine().stack());
    std::printf("\n%s%s", obs::prometheus_text(reg).c_str(),
                obs::prometheus_text(obs::registry()).c_str());
  }
  if (!trace_out.empty()) {
    FILE* f = std::fopen(trace_out.c_str(), "w");
    if (f) {
      const std::vector<obs::SpanEvent> spans = obs::process_ring().snapshot();
      const std::string json = obs::chrome_trace_json(spans);
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("wrote %s (%zu span events)\n", trace_out.c_str(),
                  spans.size());
    }
  }
  return shown >= 4 ? 0 : 1;
}
