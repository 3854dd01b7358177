// Ablation study: switch each PA technique off individually and measure
// what it was buying. The paper presents the PA as a package; this bench
// attributes the order-of-magnitude to its parts (DESIGN.md §6 calls this
// out as one of the design-choice benches).
//
// Rows:
//   full PA                 — everything on (the paper's system)
//   - header prediction     — every message runs the stack's pre phases on
//                             the critical path (§3.2 off)
//   - cookie compression    — full 77-byte conn-ident on every frame (§2.2
//                             off); costs wire bytes, not CPU
//   - packing               — streaming collapses to one message per
//                             processing cycle (§3.4 off)
//   - message pool          — every message is a fresh allocation; the GC
//                             model (alloc-threshold policy) collects far
//                             more often (§6's explicit-allocation
//                             experiment, inverted)
#include "common.h"

using namespace pa;
using namespace pa::bench;

namespace {

struct StreamStats {
  double msgs_per_s;
  double wire_bytes_per_msg;
  std::uint64_t sender_gc;
};

StreamStats stream(const ConnOptions& opt, GcPolicy gc) {
  WorldConfig wc;
  wc.gc_policy = gc;
  World w(wc);
  auto& a = w.add_node("sender");
  auto& b = w.add_node("receiver");
  // The alloc-threshold GC policy is what the §6 experiment is about.
  a.gc().set_alloc_threshold(32 * 1024);
  b.gc().set_alloc_threshold(32 * 1024);
  auto [src, dst] = w.connect(a, b, opt);
  std::uint64_t delivered = 0;
  Vt last = 0;
  dst->on_deliver([&](std::span<const std::uint8_t>) {
    ++delivered;
    last = w.now();
  });
  auto msg = payload_of(8);
  const VtDur gap = vt_us(12);  // ~83k offered
  std::uint64_t sent = 0;
  std::function<void()> tick = [&] {
    src->send(msg);
    if (++sent < 20'000) w.queue().after(gap, tick);
  };
  w.queue().at(0, tick);
  w.run();
  return {delivered / vt_to_s(last),
          static_cast<double>(w.network().stats().bytes_sent) / delivered,
          a.gc().stats().collections};
}

}  // namespace

int main() {
  banner("bench_ablation — what each PA technique buys",
         "paper §2-§3, §6 (attribution of the order of magnitude)");

  ConnOptions full;
  ConnOptions no_predict = full;
  no_predict.engine.disable_prediction = true;
  ConnOptions no_cookie = full;
  no_cookie.engine.always_send_conn_ident = true;
  ConnOptions no_pack = full;
  no_pack.engine.enable_packing = false;
  ConnOptions no_pool = full;
  no_pool.engine.use_message_pool = false;
  ConnOptions no_cookie_no_pack = no_cookie;
  no_cookie_no_pack.engine.enable_packing = false;

  std::printf("\n-- steady-state round-trip latency (8 B) --\n");
  double rt_full = measure_steady_rt_us(full);
  double rt_nopred = measure_steady_rt_us(no_predict);
  double rt_nocookie = measure_steady_rt_us(no_cookie);
  std::printf("  full PA              %8.1f us\n", rt_full);
  std::printf("  no header prediction %8.1f us  (stack pre phases on the "
              "critical path)\n",
              rt_nopred);
  std::printf("  no cookie compr.     %8.1f us  (154 extra wire bytes per "
              "RT)\n",
              rt_nocookie);

  std::printf("\n-- 8-byte streaming at ~83k offered --\n");
  StreamStats s_full = stream(full, GcPolicy::kAllocThreshold);
  StreamStats s_nopack = stream(no_pack, GcPolicy::kAllocThreshold);
  StreamStats s_nopool = stream(no_pool, GcPolicy::kAllocThreshold);
  StreamStats s_nocookie = stream(no_cookie, GcPolicy::kAllocThreshold);
  StreamStats s_nock_nopk = stream(no_cookie_no_pack, GcPolicy::kAllocThreshold);
  std::printf("  %-22s %12s %14s %8s\n", "", "msgs/s", "wire B/msg",
              "GC runs");
  std::printf("  %-22s %12.0f %14.1f %8llu\n", "full PA", s_full.msgs_per_s,
              s_full.wire_bytes_per_msg,
              static_cast<unsigned long long>(s_full.sender_gc));
  std::printf("  %-22s %12.0f %14.1f %8llu\n", "no packing",
              s_nopack.msgs_per_s, s_nopack.wire_bytes_per_msg,
              static_cast<unsigned long long>(s_nopack.sender_gc));
  std::printf("  %-22s %12.0f %14.1f %8llu\n", "no message pool",
              s_nopool.msgs_per_s, s_nopool.wire_bytes_per_msg,
              static_cast<unsigned long long>(s_nopool.sender_gc));
  std::printf("  %-22s %12.0f %14.1f %8llu\n", "no cookie compr.",
              s_nocookie.msgs_per_s, s_nocookie.wire_bytes_per_msg,
              static_cast<unsigned long long>(s_nocookie.sender_gc));
  std::printf("  %-22s %12.0f %14.1f %8llu\n", "no cookies, no pack",
              s_nock_nopk.msgs_per_s, s_nock_nopk.wire_bytes_per_msg,
              static_cast<unsigned long long>(s_nock_nopk.sender_gc));

  std::printf("\n");
  header_row();
  row("prediction saves per RT", "~2x stack pre",
      fmt(rt_nopred - rt_full, "us"));
  row("cookie compr. saves per frame", "~77 B",
      fmt(s_nock_nopk.wire_bytes_per_msg - s_nopack.wire_bytes_per_msg, "B",
          1));
  row("packing throughput factor", ">5x",
      fmt(s_full.msgs_per_s / s_nopack.msgs_per_s, "x"));
  row("pool GC suppression (sender)", "\"dramatic\" (SS6)",
      fmt(static_cast<double>(s_nopool.sender_gc) /
              std::max<std::uint64_t>(1, s_full.sender_gc),
          "x fewer GCs"));

  bool ok = rt_nopred > rt_full + 50 &&
            s_nock_nopk.wire_bytes_per_msg - s_nopack.wire_bytes_per_msg >
                60 &&
            s_full.msgs_per_s / s_nopack.msgs_per_s > 5 &&
            s_nopool.sender_gc > 3 * s_full.sender_gc;
  std::printf("\nRESULT: %s\n", ok ? "shape holds" : "SHAPE VIOLATION");
  return ok ? 0 : 1;
}
