// Headline result (paper §1 / §7): the Protocol Accelerator takes the
// 4-layer O'Caml sliding-window stack from ~1.5 ms round trips (original C
// Horus, conventional layered execution) down to ~170 µs — an order of
// magnitude — while an SML stack without any of these techniques (the FOX
// comparison) sits in the tens of milliseconds.
#include "common.h"

#include "obs/bridge.h"

using namespace pa;
using namespace pa::bench;

int main() {
  banner("bench_headline — round-trip latency, PA vs classic layering",
         "paper §1, §5, §7 (170 us vs 1.5 ms; FOX SML/TCP 36 ms context)");

  // 1. The PA running the O'Caml stack.
  ConnOptions pa_opt;
  double pa_rt = measure_single_rt_us(pa_opt);

  // 2. The classic engine calibrated to original C Horus.
  ConnOptions classic_opt;
  classic_opt.use_pa = false;
  double classic_rt = measure_single_rt_us(classic_opt);

  // 3. The classic engine in an ML-like language (FOX-style slowdown 9.4x).
  ConnOptions ml_opt;
  ml_opt.use_pa = false;
  ml_opt.costs.classic_lang_multiplier = 9.4;
  double ml_rt = measure_single_rt_us(ml_opt);

  header_row();
  row("PA + O'Caml stack RT", "170 us", fmt(pa_rt, "us"));
  row("classic C Horus RT", "~1500 us", fmt(classic_rt, "us"));
  row("classic ML (9.4x C, FOX-style) RT", "O(10 ms)", fmt(ml_rt / 1000, "ms", 2));
  row("PA speedup over classic C", "~8.8x",
      fmt(classic_rt / pa_rt, "x", 1));
  row("PA speedup over classic ML", ">50x", fmt(ml_rt / pa_rt, "x", 1));

  // 4. Latency *distribution*: a closed-loop run into an obs histogram, so
  // the headline JSON carries p50/p99/p999 instead of a single sample, and
  // every instrumented engine phase reports its own percentiles.
  obs::LatencyHistogram rt_hist;
  closed_loop_rts(pa_opt, GcPolicy::kDisabled, 512, 32, &rt_hist);
  row("PA closed-loop RT p50", "170 us",
      fmt(static_cast<double>(rt_hist.percentile(0.5)) / 1e3, "us"));
  row("PA closed-loop RT p99", "-",
      fmt(static_cast<double>(rt_hist.percentile(0.99)) / 1e3, "us"));

  std::vector<std::pair<std::string, double>> metrics = {
      {"pa_rt_us", pa_rt},
      {"classic_rt_us", classic_rt},
      {"classic_ml_rt_us", ml_rt},
      {"speedup_vs_classic", classic_rt / pa_rt},
      {"speedup_vs_ml", ml_rt / pa_rt},
  };
  append_percentiles_us(metrics, "rt", rt_hist);
  append_phase_percentiles(metrics);

  // 5. The zero-copy invariant, by measurement: steady-state sends across
  // payload sizes must perform no data-plane payload copies on the
  // predicted path (the gather chain goes app -> engine -> wire untouched).
  obs::bind_stats(obs::registry(), buf_stats());
  const bool zc_ok = zc_sweep(metrics);

  std::printf(
      "\nShape check: the PA must beat classic C by roughly an order of\n"
      "magnitude, the un-accelerated ML stack must be far slower still,\n"
      "and the steady-state send path must be copy-free.\n");
  bool ok = pa_rt < 250 && classic_rt / pa_rt > 5 && ml_rt / pa_rt > 30 &&
            zc_ok;
  std::printf("RESULT: %s\n", ok ? "shape holds" : "SHAPE VIOLATION");

  metrics.emplace_back("shape_ok", ok ? 1.0 : 0.0);
  emit_bench_json("headline", metrics);
  return ok ? 0 : 1;
}
