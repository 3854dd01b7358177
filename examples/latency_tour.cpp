// A guided tour of where the Protocol Accelerator's speed comes from.
//
// Runs the same ping-pong workload through a ladder of configurations,
// switching the paper's techniques on one at a time, and prints the
// round-trip latency and a Figure-4-style timeline for the fastest and
// slowest configurations. This is the "ablation study" the paper implies
// but never tabulates:
//
//   classic            — per-layer headers, synchronous layered execution
//   PA, interpreted    — compact headers + prediction + deferred posts,
//                        packet filters interpreted (the paper's system)
//   PA, compiled       — plus Exokernel-style compiled filters
//   PA, pre-agreed     — plus out-of-band cookie agreement (first message
//                        needs no connection identification)
//
// Flags:
//   --metrics           dump the unified metrics (Prometheus text) at exit
//   --trace-out <path>  write the span-event trace as Chrome trace JSON
//                       (the binary-ring counterpart of the Figure-4
//                       timelines printed below)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "horus/world.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace_ring.h"

using namespace pa;

namespace {

struct TourStep {
  const char* name;
  ConnOptions opt;
  bool trace;
};

double run_step(const TourStep& step) {
  WorldConfig wc;
  wc.gc_policy = GcPolicy::kEveryReception;
  wc.trace = step.trace;
  World world(wc);
  Node& a = world.add_node("client");
  Node& b = world.add_node("server");
  auto [c, s] = world.connect(a, b, step.opt);
  s->on_deliver([&, s = s](std::span<const std::uint8_t> p) { s->send(p); });
  Vt t1 = -1;
  c->on_deliver([&, c = c](std::span<const std::uint8_t>) {
    if (t1 < 0) t1 = c->now();
  });
  std::vector<std::uint8_t> ping(8, 0x42);
  c->send(ping);
  world.run();
  if (step.trace) {
    std::printf("\n--- %s: round-trip timeline ---\n%s\n", step.name,
                world.tracer().render().c_str());
  }
  return vt_to_us(t1);
}

}  // namespace

int main(int argc, char** argv) {
  bool want_metrics = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) want_metrics = true;
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    }
  }

  std::printf("Where does the order-of-magnitude go? One isolated RPC,\n"
              "8-byte payload, same 4-layer sliding-window stack in every "
              "row.\n\n");

  TourStep steps[] = {
      {"classic layered (original Horus)",
       [] {
         ConnOptions o;
         o.use_pa = false;
         return o;
       }(),
       true},
      {"PA, interpreted filters",
       [] {
         ConnOptions o;
         o.engine.use_compiled_filters = false;
         return o;
       }(),
       false},
      {"PA, compiled filters", ConnOptions{}, true},
      {"PA, compiled + pre-agreed cookie",
       [] {
         ConnOptions o;
         o.engine.cookie_preagreed = true;
         return o;
       }(),
       false},
  };

  std::printf("%-38s %12s\n", "configuration", "RT latency");
  double first = 0, last = 0;
  for (const TourStep& s : steps) {
    double us = run_step(s);
    if (first == 0) first = us;
    last = us;
    std::printf("%-38s %9.1f us\n", s.name, us);
  }
  std::printf("\noverall: %.1fx\n", first / last);

  if (want_metrics) {
    // Process-global metrics: the engine phase histograms populated by the
    // tour's runs (pa_send_fast_ns etc.), in Prometheus text exposition.
    std::printf("\n%s", obs::prometheus_text(obs::registry()).c_str());
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
  return first / last > 5 ? 0 : 1;
}
