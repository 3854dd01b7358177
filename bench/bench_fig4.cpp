// Figure 4: "A breakdown of the round-trip execution."
//
// The paper's timeline: the sender spends ~25 µs before the message reaches
// U-Net; 35 µs wire; ~25 µs to deliver. The receiver replies immediately.
// After a delivery each PA post-processes sending (~80 µs) and delivery
// (~50 µs), then garbage-collects (~150-450 µs, avg ~300) — so a typical
// isolated round trip takes ~170 µs, but the earliest *next* round trip is
// limited by the deferred work (the dashed line: back-to-back round trips
// see ~400 µs, worst case ~550 µs).
#include "common.h"

using namespace pa;
using namespace pa::bench;

int main(int argc, char** argv) {
  // Optional: bench_fig4 [--seed N] <trace.json> writes a
  // Chrome-tracing/Perfetto file.
  parse_seed(argc, argv);
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--seed") {
      ++i;  // skip the value
      continue;
    }
    json_path = argv[i];
  }
  banner("bench_fig4 — breakdown of the round-trip execution",
         "paper Figure 4 (25+35+25 us legs; post 80/50 us; GC ~300 us)");

  WorldConfig wc;
  wc.seed = g_world_seed;
  wc.gc_policy = GcPolicy::kEveryReception;
  World w(wc);
  auto& a = w.add_node("sender");
  auto& b = w.add_node("receiver");
  auto [c, s] = w.connect(a, b, ConnOptions{});
  s->on_deliver([&, s = s](std::span<const std::uint8_t> p) { s->send(p); });
  Vt rt_done = -1;
  c->on_deliver([&, c = c](std::span<const std::uint8_t>) {
    if (rt_done < 0) rt_done = c->now();
  });
  c->send(payload_of(8));
  w.run();

  std::printf("\n--- timeline (one round trip, GC after every reception) ---\n");
  const std::vector<obs::TimelineRow> t = timeline_of(w);
  std::printf("%s\n", obs::render_timeline(t).c_str());
  if (json_path) {
    if (FILE* f = std::fopen(json_path, "w")) {
      std::fputs(obs::chrome_trace_json(obs::process_ring().snapshot(),
                                        w.span_owners())
                     .c_str(),
                 f);
      std::fclose(f);
      std::printf("(chrome trace written to %s)\n", json_path);
    }
  }

  double rt = vt_to_us(rt_done);
  double post_send = phase_us(t, "receiver", "SEND", "POSTSEND DONE");
  double post_deliver =
      phase_us(t, "receiver", "POSTSEND DONE", "POSTDELIVER DONE");
  double gc =
      phase_us(t, "receiver", "POSTDELIVER DONE", "GARBAGE COLLECTED");

  header_row();
  row("round-trip latency", "~170 us", fmt(rt, "us"));
  row("post-send (4-layer stack)", "80 us", fmt(post_send, "us"));
  row("post-deliver (4-layer stack)", "50 us", fmt(post_deliver, "us"));
  row("garbage collection", "150-450 us", fmt(gc, "us"));

  // Dashed line: round trips issued back to back, GC after every reception.
  RtResult pushed = closed_loop_rts(ConnOptions{}, GcPolicy::kEveryReception,
                                    1000);
  row("back-to-back RT latency", "~400 us", fmt(pushed.mean_latency_us, "us"));
  row("max #rt/s at that latency", "~1900 rt/s",
      fmt(pushed.rate_per_s, "rt/s", 0));

  bool ok = rt > 140 && rt < 220 && post_send > 70 && post_send < 95 &&
            post_deliver > 40 && post_deliver < 65 && gc >= 150 && gc <= 450 &&
            pushed.mean_latency_us > 280 && pushed.mean_latency_us < 640;
  std::printf("\nRESULT: %s\n", ok ? "shape holds" : "SHAPE VIOLATION");
  return ok ? 0 : 1;
}
