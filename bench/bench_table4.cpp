// Table 4: "The basic performance of the O'Caml protocol stack using the
// Protocol Accelerator."
//
//   one-way latency            85 µs
//   message throughput     80,000 msgs/sec   (8-byte messages, packing)
//   #roundtrips/sec          6000 rt/sec     (GC only occasionally)
//   bandwidth (1 KB msgs)      15 Mbytes/sec
#include "common.h"

using namespace pa;
using namespace pa::bench;

namespace {

// One-way latency of a steady-state 8-byte message (send()..deliver()).
// The first message carries the 77-byte connection identification; the
// paper's 85 µs is the cookie-compressed steady state, so measure message
// #2, spaced far enough for all post-processing to finish.
double one_way_latency_us() {
  WorldConfig wc;
  wc.gc_policy = GcPolicy::kEveryReception;  // paper's measurement setup
  World w(wc);
  auto& a = w.add_node("sender");
  auto& b = w.add_node("receiver");
  auto [src, dst] = w.connect(a, b, ConnOptions{});
  Vt sent2 = -1, got2 = -1;
  int n = 0;
  dst->on_deliver([&, dst = dst](std::span<const std::uint8_t>) {
    if (++n == 2) got2 = dst->now();
  });
  src->send(payload_of(8));
  w.run_for(vt_ms(5));
  sent2 = w.now();
  src->send(payload_of(8));
  w.run();
  return vt_to_us(got2 - sent2);
}

// Sustained one-way streaming of `msg_bytes`-sized messages, offered faster
// than the stack can absorb so that the backlog/packing machinery engages.
// Returns {msgs/sec, bytes/sec} measured at the receiver.
struct StreamResult {
  double msgs_per_s;
  double mbytes_per_s;
};

StreamResult stream(std::size_t msg_bytes, double offered_per_s,
                    VtDur duration, GcPolicy gc) {
  WorldConfig wc;
  wc.gc_policy = gc;
  World w(wc);
  auto& a = w.add_node("sender");
  auto& b = w.add_node("receiver");
  auto [src, dst] = w.connect(a, b, ConnOptions{});

  std::uint64_t delivered = 0;
  Vt last_delivery = 0;
  dst->on_deliver([&](std::span<const std::uint8_t>) {
    ++delivered;
    last_delivery = w.now();
  });

  auto msg = payload_of(msg_bytes);
  const VtDur gap = static_cast<VtDur>(1e9 / offered_per_s);
  const std::uint64_t n = static_cast<std::uint64_t>(duration / gap);
  // Generator event reschedules itself to avoid preloading a million events.
  std::uint64_t sent = 0;
  std::function<void()> tick = [&] {
    src->send(msg);
    if (++sent < n) w.queue().after(gap, tick);
  };
  w.queue().at(0, tick);
  w.run();

  double secs = vt_to_s(last_delivery);
  return {delivered / secs,
          delivered * static_cast<double>(msg_bytes) / secs / 1e6};
}

}  // namespace

int main() {
  banner("bench_table4 — basic performance of the PA stack",
         "paper Table 4 (one-way 85us; 80k msgs/s; 6000 rt/s; 15 MB/s)");

  double oneway = one_way_latency_us();

  // Throughput: 8-byte messages, offered at 200k/s (beyond capacity) for
  // half a simulated second. Packing must absorb the backlog.
  StreamResult tput =
      stream(8, 200'000, vt_ms(500), GcPolicy::kEveryReception);

  // Round trips: closed loop, GC only occasionally (paper: "By not garbage
  // collecting every time, we can increase ... to about 6000" — with the
  // post-processing fully hidden between the send and the delivery, the
  // occasional ~1 ms hiccups barely dent the average).
  ConnOptions rt_opt;
  rt_opt.engine.enable_packing = false;  // one message per frame (paper's runs)
  obs::LatencyHistogram rt_hist;
  RtResult rt = closed_loop_rts(rt_opt, GcPolicy::kEveryN, 3000,
                                /*gc_every_n=*/1024, &rt_hist);

  // Bandwidth: 1 KB messages.
  StreamResult bw =
      stream(1024, 25'000, vt_ms(500), GcPolicy::kEveryReception);

  header_row();
  row("one-way latency", "85 us", fmt(oneway, "us"));
  row("message throughput (8 B)", "80000 msg/s", fmt(tput.msgs_per_s, "msg/s", 0));
  row("#roundtrips/sec", "6000 rt/s", fmt(rt.rate_per_s, "rt/s", 0));
  row("bandwidth (1 KB msgs)", "15 MB/s", fmt(bw.mbytes_per_s, "MB/s"));

  bool ok = oneway > 70 && oneway < 100 && tput.msgs_per_s > 50'000 &&
            rt.rate_per_s > 4'000 && bw.mbytes_per_s > 12;
  std::printf("\nRESULT: %s\n", ok ? "shape holds" : "SHAPE VIOLATION");

  std::vector<std::pair<std::string, double>> metrics = {
      {"one_way_us", oneway},
      {"msgs_per_s", tput.msgs_per_s},
      {"rts_per_s", rt.rate_per_s},
      {"bandwidth_mb_s", bw.mbytes_per_s},
      {"shape_ok", ok ? 1.0 : 0.0},
  };
  append_percentiles_us(metrics, "rt", rt_hist);
  append_phase_percentiles(metrics);
  emit_bench_json("table4", metrics);
  return ok ? 0 : 1;
}
