// Message packing ablation (paper §3.4, §5).
//
// "The packing technique used by the PA also improves one-way streaming
// performance. For example, we are able to sustain about 80,000 8 byte
// messages per second." Without packing, every message pays a full
// pre/post-processing cycle and throughput collapses to the round-trip
// post-processing bound (~1/130 µs); with packing a whole backlog shares
// one cycle.
#include <cstdlib>
#include <string_view>

#include "common.h"

using namespace pa;
using namespace pa::bench;

namespace {

std::uint64_t g_seed = 42;

struct StreamResult {
  double msgs_per_s;
  double mean_batch;
  double mbytes_per_s;
};

StreamResult stream(std::size_t msg_bytes, double offered_per_s, bool packing,
                    bool variable, VtDur duration) {
  WorldConfig wc;
  wc.seed = g_seed;
  wc.gc_policy = GcPolicy::kEveryReception;
  World w(wc);
  auto& a = w.add_node("sender");
  auto& b = w.add_node("receiver");
  ConnOptions opt;
  opt.engine.enable_packing = packing;
  opt.engine.variable_packing = variable;
  auto [src, dst] = w.connect(a, b, opt);

  std::uint64_t delivered = 0;
  Vt last = 0;
  dst->on_deliver([&](std::span<const std::uint8_t>) {
    ++delivered;
    last = w.now();
  });
  auto msg = payload_of(msg_bytes);
  const VtDur gap = static_cast<VtDur>(1e9 / offered_per_s);
  const std::uint64_t n = static_cast<std::uint64_t>(duration / gap);
  std::uint64_t sent = 0;
  std::function<void()> tick = [&] {
    src->send(msg);
    if (++sent < n) w.queue().after(gap, tick);
  };
  w.queue().at(0, tick);
  w.run();

  const auto& st = src->engine().stats();
  double batch =
      st.packed_batches
          ? static_cast<double>(st.packed_msgs) / st.packed_batches
          : 1.0;
  double secs = vt_to_s(last);
  return {delivered / secs, batch,
          delivered * static_cast<double>(msg_bytes) / secs / 1e6};
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

  banner("bench_packing — streaming throughput with and without packing",
         "paper §3.4/§5 (packing sustains ~80k 8-byte msgs/s; without it "
         "every message pays a full post-processing cycle)");

  std::printf("%10s %10s | %12s %10s | %12s\n", "offered/s", "mode",
              "delivered/s", "avg batch", "MB/s");
  struct Row {
    double offered;
    bool packing;
    bool variable;
  };
  const Row rows[] = {
      {5'000, false, false},  {5'000, true, false},  {20'000, false, false},
      {20'000, true, false},  {80'000, false, false}, {80'000, true, false},
      {150'000, true, false}, {80'000, true, true},
  };
  double packed_80k = 0, unpacked_80k = 0;
  for (const Row& r : rows) {
    StreamResult s = stream(8, r.offered, r.packing, r.variable, vt_ms(300));
    std::printf("%10.0f %10s | %12.0f %10.1f | %12.3f\n", r.offered,
                r.packing ? (r.variable ? "var-pack" : "pack") : "no-pack",
                s.msgs_per_s, s.mean_batch, s.mbytes_per_s);
    if (r.offered == 80'000 && r.packing && !r.variable) {
      packed_80k = s.msgs_per_s;
    }
    if (r.offered == 80'000 && !r.packing) unpacked_80k = s.msgs_per_s;
  }

  std::printf("\n");
  header_row();
  row("sustained 8-byte stream, packing", "80000 msg/s",
      fmt(packed_80k, "msg/s", 0));
  row("same offered load, packing off", "(collapses)",
      fmt(unpacked_80k, "msg/s", 0));
  row("packing speedup", ">5x", fmt(packed_80k / unpacked_80k, "x"));

  bool ok = packed_80k > 55'000 && unpacked_80k < 15'000 &&
            packed_80k / unpacked_80k > 5;
  std::printf("\nRESULT: %s\n", ok ? "shape holds" : "SHAPE VIOLATION");
  return ok ? 0 : 1;
}
