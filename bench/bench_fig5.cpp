// Figure 5: "The round-trip latency as a function of the number of
// round-trips per second."
//
// Solid line: GC after every round trip — latency flat at ~170 µs until
// ~1650 rt/s, then climbing toward ~400-550 µs as the deferred work and GC
// consume the whole CPU (saturation near ~1900 rt/s).
// Dashed line: GC only occasionally — flat much further out, saturating
// near ~6000 rt/s, at the price of occasional ~1 ms hiccups.
#include "common.h"

#include "obs/bridge.h"

using namespace pa;
using namespace pa::bench;

namespace {

struct Point {
  double offered;
  double mean_us;
  double p50_us;
  double p99_us;
  double p999_us;
  double achieved;
};

// Open-loop paced round trips: a ping is issued every 1/rate seconds
// regardless of completions (like the paper's offered-rate axis); we record
// the RT latency of each completed ping over a fixed window.
Point paced_rts(double rate_per_s, GcPolicy gc, std::uint32_t every_n,
                VtDur window) {
  WorldConfig wc;
  wc.seed = g_world_seed;
  wc.gc_policy = gc;
  wc.gc_every_n = every_n;
  World w(wc);
  auto& a = w.add_node("client");
  auto& b = w.add_node("server");
  ConnOptions opt;
  opt.packing = false;  // the paper's per-message round-trip regime
  auto [c, s] = w.connect(a, b, opt);
  s->on_deliver([&, s = s](std::span<const std::uint8_t> p) { s->send(p); });

  // RT latencies go into the production histogram type, so the figure's
  // percentiles use the same estimator the metrics exporters report.
  obs::LatencyHistogram lat_ns;
  std::deque<Vt> outstanding;
  c->on_deliver([&, c = c](std::span<const std::uint8_t>) {
    lat_ns.record(static_cast<std::uint64_t>(c->now() - outstanding.front()));
    outstanding.pop_front();
  });

  auto msg = payload_of(8);
  const VtDur gap = static_cast<VtDur>(1e9 / rate_per_s);
  const std::uint64_t n = static_cast<std::uint64_t>(window / gap);
  std::uint64_t issued = 0;
  std::function<void()> tick = [&, c = c] {
    outstanding.push_back(c->now());
    c->send(msg);
    if (++issued < n) w.queue().after(gap, tick);
  };
  w.queue().at(0, tick);
  w.run();

  double achieved = static_cast<double>(lat_ns.count()) / vt_to_s(w.now());
  return {rate_per_s,
          lat_ns.mean() / 1e3,
          static_cast<double>(lat_ns.percentile(0.5)) / 1e3,
          static_cast<double>(lat_ns.percentile(0.99)) / 1e3,
          static_cast<double>(lat_ns.percentile(0.999)) / 1e3,
          achieved};
}

}  // namespace

int main(int argc, char** argv) {
  // Optional: bench_fig5 [--seed N] <csv-path> writes a gnuplot-ready data
  // file.
  parse_seed(argc, argv);
  const char* csv_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--seed") {
      ++i;  // skip the value
      continue;
    }
    csv_path = argv[i];
  }
  FILE* csv = csv_path ? std::fopen(csv_path, "w") : nullptr;
  if (csv) std::fprintf(csv, "offered,solid_mean_us,dashed_mean_us\n");
  banner("bench_fig5 — round-trip latency vs offered round-trip rate",
         "paper Figure 5 (flat 170 us, knee ~1650 rt/s w/ per-RT GC; "
         "~6000 rt/s when GC is occasional)");

  const double rates[] = {250,  500,  1000, 1500, 1800,
                          2500, 3500, 4500, 5500, 6500};
  std::printf("%10s | %30s | %30s\n", "", "GC every reception (solid)",
              "GC occasional (dashed)");
  std::printf("%10s | %10s %9s %9s | %10s %9s %9s\n", "offered", "mean us",
              "p99 us", "ach rt/s", "mean us", "p99 us", "ach rt/s");
  double knee_solid = 0, knee_dashed = 0;
  double flat_solid = 0;
  Point low_solid{}, low_dashed{};
  for (double r : rates) {
    Point solid =
        paced_rts(r, GcPolicy::kEveryReception, 1, vt_ms(400));
    Point dashed = paced_rts(r, GcPolicy::kEveryN, 256, vt_ms(400));
    std::printf("%10.0f | %10.1f %9.1f %9.0f | %10.1f %9.1f %9.0f\n", r,
                solid.mean_us, solid.p99_us, solid.achieved, dashed.mean_us,
                dashed.p99_us, dashed.achieved);
    if (csv) {
      std::fprintf(csv, "%.0f,%.1f,%.1f\n", r, solid.mean_us,
                   dashed.mean_us);
    }
    if (r == 250) {
      flat_solid = solid.mean_us;
      low_solid = solid;
      low_dashed = dashed;
    }
    if (knee_solid == 0 && solid.mean_us > 2 * flat_solid) knee_solid = r;
    if (knee_dashed == 0 && dashed.mean_us > 2 * flat_solid) knee_dashed = r;
  }

  std::printf("\n");
  header_row();
  row("low-rate RT latency", "~170 us", fmt(flat_solid, "us"));
  row("knee, GC every reception", "~1650-1900 rt/s",
      knee_solid ? fmt(knee_solid, "rt/s", 0) : "none");
  row("knee, GC occasional", "~6000 rt/s",
      knee_dashed ? fmt(knee_dashed, "rt/s", 0) : ">6500 rt/s");

  std::vector<std::pair<std::string, double>> metrics = {
      {"flat_solid_mean_us", flat_solid},
      {"low_rate_solid_p50_us", low_solid.p50_us},
      {"low_rate_solid_p99_us", low_solid.p99_us},
      {"low_rate_solid_p999_us", low_solid.p999_us},
      {"low_rate_dashed_p50_us", low_dashed.p50_us},
      {"low_rate_dashed_p99_us", low_dashed.p99_us},
      {"low_rate_dashed_p999_us", low_dashed.p999_us},
      {"knee_solid_rts", knee_solid},
      {"knee_dashed_rts", knee_dashed},
  };

  // The figure's load axis assumes the send path does not burn CPU copying
  // payload: publish the zero-copy sweep next to the latency curves.
  obs::bind_stats(obs::registry(), buf_stats());
  const bool zc_ok = zc_sweep(metrics);

  bool ok = flat_solid > 140 && flat_solid < 220 && knee_solid >= 1000 &&
            knee_solid <= 3000 &&
            (knee_dashed == 0 || knee_dashed >= 3500) && zc_ok;
  if (csv) std::fclose(csv);
  std::printf("\nRESULT: %s\n", ok ? "shape holds" : "SHAPE VIOLATION");

  metrics.emplace_back("shape_ok", ok ? 1.0 : 0.0);
  emit_bench_json("fig5", metrics);
  return ok ? 0 : 1;
}
