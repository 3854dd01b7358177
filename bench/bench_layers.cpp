// Layer-scaling study (paper §5).
//
// "To see how each layer adds to the overhead, we also measured the
// performance for a stack where the layer that actually implemented the
// sliding window was stacked twice... the post-processing of the send and
// delivery operations take about 15 µs each. We did not find additional
// overhead for garbage collection."
//
// The key PA property this demonstrates: extra layers grow only the
// *deferred* post-processing — the critical-path round-trip latency stays
// flat, because the fast path never enters the stack.
#include "common.h"

using namespace pa;
using namespace pa::bench;

namespace {

struct Sample {
  double rt_us;          // isolated round-trip latency
  double post_send_us;   // one post-send phase
  double post_del_us;    // one post-deliver phase
  double b2b_rate;       // back-to-back rt/s (no GC)
};

double phase(const TraceRecorder& t, const std::string& node,
             const char* from, const char* to) {
  Vt t0 = -1, t1 = -1;
  for (const auto& e : t.events()) {
    if (e.node != node) continue;
    if (t0 < 0 && e.label == from) t0 = e.t;
    if (t0 >= 0 && t1 < 0 && e.label == to && e.t > t0) t1 = e.t;
  }
  return (t0 >= 0 && t1 >= 0) ? vt_to_us(t1 - t0) : -1;
}

Sample run(std::size_t windows) {
  StackSpec spec;
  spec.add(LayerSpec::frag_layer(FragConfig{/*threshold=*/8192}))
      .add(LayerSpec::seq_layer());
  for (std::size_t i = 0; i < windows; ++i) {
    spec.add(LayerSpec::window_layer(WindowConfig{}));
  }
  spec.add(LayerSpec::bottom_layer(BottomConfig{}));
  ConnOptions opt;
  opt.engine.stack.spec = std::move(spec);

  WorldConfig wc;
  wc.seed = g_world_seed;
  wc.trace = true;
  World w(wc);
  auto& a = w.add_node("client");
  auto& b = w.add_node("server");
  auto [c, s] = w.connect(a, b, opt);
  s->on_deliver([&, s = s](std::span<const std::uint8_t> p) { s->send(p); });
  Vt rt = -1;
  c->on_deliver([&, c = c](std::span<const std::uint8_t>) {
    if (rt < 0) rt = c->now();
  });
  c->send(payload_of(8));
  w.run();

  Sample out;
  out.rt_us = vt_to_us(rt);
  out.post_send_us = phase(w.tracer(), "server", "SEND", "POSTSEND DONE");
  out.post_del_us =
      phase(w.tracer(), "server", "POSTSEND DONE", "POSTDELIVER DONE");
  out.b2b_rate = closed_loop_rts(opt, GcPolicy::kDisabled, 1500).rate_per_s;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  parse_seed(argc, argv);
  banner("bench_layers — cost of stacking the window layer k times",
         "paper §5 (each extra window layer: +15 us post-send, +15 us "
         "post-deliver; RT latency unchanged)");

  std::printf("%8s %10s %12s %12s %14s\n", "windows", "RT us", "post-send",
              "post-dlvr", "b2b rt/s (noGC)");
  std::vector<Sample> samples;
  for (std::size_t k = 1; k <= 6; ++k) {
    Sample s = run(k);
    samples.push_back(s);
    std::printf("%8zu %10.1f %12.1f %12.1f %14.0f\n", k, s.rt_us,
                s.post_send_us, s.post_del_us, s.b2b_rate);
  }

  double d_send = samples[1].post_send_us - samples[0].post_send_us;
  double d_del = samples[1].post_del_us - samples[0].post_del_us;
  double d_rt4 = samples[3].rt_us - samples[0].rt_us;
  double d_rt6 = samples[5].rt_us - samples[0].rt_us;

  std::printf("\n");
  header_row();
  row("extra post-send per window layer", "15 us", fmt(d_send, "us"));
  row("extra post-deliver per window layer", "15 us", fmt(d_del, "us"));
  row("RT latency growth, 1 -> 4 layers", "~0 us", fmt(d_rt4, "us"),
      "(fast path bypasses the stack)");
  row("RT latency growth, 1 -> 6 layers", "-", fmt(d_rt6, "us"),
      "(deferred work outgrows the wire time: masking limit, paper SS6)");

  bool ok = d_send > 12 && d_send < 18 && d_del > 12 && d_del < 18 &&
            d_rt4 < 6.0 && samples[5].b2b_rate < samples[0].b2b_rate;
  std::printf("\nRESULT: %s\n", ok ? "shape holds" : "SHAPE VIOLATION");
  return ok ? 0 : 1;
}
