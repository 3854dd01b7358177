// Shared helpers for the paper-reproduction bench binaries.
//
// Every bench prints the paper's reported value next to the measured one;
// we reproduce *shape* (who wins, by what rough factor, where crossovers
// fall), not cycle-exact numbers — the substrate is a calibrated simulator,
// not the authors' SPARC/ATM testbed (see DESIGN.md §2).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "buf/chunk.h"
#include "horus/world.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace_ring.h"

namespace pa::bench {

/// World seed used by every helper below; benches accept `--seed N`
/// (parse_seed) so a run can be replayed or varied without recompiling. A
/// fixed seed reproduces the run exactly.
inline std::uint64_t g_world_seed = 42;

/// Scan argv for `--seed N` (leaves every other argument alone — benches
/// with positional arguments must skip the pair themselves).
inline void parse_seed(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--seed" && i + 1 < argc) {
      g_world_seed = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
}

inline void banner(const char* title, const char* paper_ref) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("============================================================\n");
}

inline void row(const char* metric, const std::string& paper,
                const std::string& measured, const char* note = "") {
  std::printf("%-34s %14s %16s  %s\n", metric, paper.c_str(),
              measured.c_str(), note);
}

inline void header_row() {
  std::printf("%-34s %14s %16s\n", "metric", "paper", "measured");
  std::printf("%-34s %14s %16s\n", "------", "-----", "--------");
}

inline std::string fmt(double v, const char* unit, int prec = 1) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f %s", prec, v, unit);
  return buf;
}

/// Machine-readable bench output: writes BENCH_<name>.json (flat metric
/// map) into the current directory so the perf trajectory can be tracked
/// across PRs by diffing/collecting these files.
inline void emit_bench_json(
    const std::string& bench,
    const std::vector<std::pair<std::string, double>>& metrics) {
  const std::string path = "BENCH_" + bench + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return;
  std::fprintf(f, "{\n  \"bench\": \"%s\"", bench.c_str());
  for (const auto& [k, v] : metrics) {
    std::fprintf(f, ",\n  \"%s\": %.6g", k.c_str(), v);
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

/// The Figure-4 rows of a world that just ran, read from the span ring.
/// Call it before the next world runs: the ring keeps only recent events.
inline std::vector<obs::TimelineRow> timeline_of(const World& w) {
  return obs::timeline_rows(obs::process_ring().snapshot(), w.span_owners());
}

/// µs from `node`'s first `from` row to its next later `to` row, or -1 if
/// either is missing.
inline double phase_us(const std::vector<obs::TimelineRow>& rows,
                       const std::string& node, const char* from,
                       const char* to) {
  Vt t0 = -1, t1 = -1;
  for (const obs::TimelineRow& r : rows) {
    if (r.node != node) continue;
    if (t0 < 0 && std::strcmp(r.label, from) == 0) t0 = r.t;
    if (t0 >= 0 && t1 < 0 && std::strcmp(r.label, to) == 0 && r.t > t0) {
      t1 = r.t;
    }
  }
  return (t0 >= 0 && t1 >= 0) ? vt_to_us(t1 - t0) : -1;
}

inline std::vector<std::uint8_t> payload_of(std::size_t n,
                                            std::uint8_t fill = 0x5a) {
  return std::vector<std::uint8_t>(n, fill);
}

/// Append `<prefix>_p50/_p99/_p999` (µs) + `<prefix>_mean_us` for a
/// histogram of nanosecond samples. No-op when the histogram is empty.
inline void append_percentiles_us(
    std::vector<std::pair<std::string, double>>& metrics,
    const std::string& prefix, const obs::LatencyHistogram& h) {
  if (h.count() == 0) return;
  metrics.emplace_back(prefix + "_p50_us",
                       static_cast<double>(h.percentile(0.5)) / 1e3);
  metrics.emplace_back(prefix + "_p99_us",
                       static_cast<double>(h.percentile(0.99)) / 1e3);
  metrics.emplace_back(prefix + "_p999_us",
                       static_cast<double>(h.percentile(0.999)) / 1e3);
  metrics.emplace_back(prefix + "_mean_us", h.mean() / 1e3);
}

/// Append p50/p99/p999 (ns) for every engine-phase histogram that recorded
/// anything during this bench process (pa_send_fast_ns, pa_deliver_fast_ns,
/// …) — the per-phase latency distributions behind the paper's Figure 4.
inline void append_phase_percentiles(
    std::vector<std::pair<std::string, double>>& metrics) {
  static const char* kPhases[] = {
      "pa_send_fast_ns",    "pa_send_slow_ns",    "pa_deliver_fast_ns",
      "pa_deliver_slow_ns", "pa_post_send_ns",    "pa_post_deliver_ns",
  };
  for (const char* name : kPhases) {
    const obs::LatencyHistogram& h = obs::registry().histogram(name, "");
    if (h.count() == 0) continue;
    metrics.emplace_back(std::string(name) + "_p50",
                         static_cast<double>(h.percentile(0.5)));
    metrics.emplace_back(std::string(name) + "_p99",
                         static_cast<double>(h.percentile(0.99)));
    metrics.emplace_back(std::string(name) + "_p999",
                         static_cast<double>(h.percentile(0.999)));
  }
}

/// One point of the zero-copy payload sweep: steady-state paced sends of
/// `payload_bytes`, reporting the data-plane copy counters per message
/// (BufStats deltas over the measured window, warmup excluded).
///
/// The zero-copy invariant: on the predicted path (payload under the frag
/// threshold) copies_per_send must be 0 — the payload is chained by
/// reference from app ingest to the wire. Sizes that fragment show only the
/// receive-side reassembly coalesce, which is the app-delivery boundary
/// presenting a contiguous view, not a data-plane copy on the send path.
struct ZcSweepPoint {
  std::size_t payload_bytes;
  double copies_per_send;
  double memcpy_bytes_per_send;
  double flatten_bytes_per_send;
};

inline ZcSweepPoint zc_sweep_point(std::size_t payload_bytes, int warmup = 4,
                                   int measured = 32) {
  WorldConfig wc;
  wc.seed = g_world_seed;
  wc.gc_policy = GcPolicy::kDisabled;
  World w(wc);
  auto& a = w.add_node("client");
  auto& b = w.add_node("server");
  ConnOptions opt;
  auto [c, s] = w.connect(a, b, opt);
  s->on_deliver([](std::span<const std::uint8_t>) {});
  auto msg = payload_of(payload_bytes);
  const BufStats& bs = buf_stats();
  std::uint64_t c0 = 0, b0 = 0, f0 = 0;
  for (int i = 0; i < warmup + measured; ++i) {
    // Spaced sends: deferred work drains between messages, so the engine is
    // on its steady-state predicted path (cookie learned, prediction warm).
    w.queue().after(vt_ms(5) * static_cast<VtDur>(i + 1), [&, i, c = c] {
      if (i == warmup) {
        c0 = bs.memcpy_count.load();
        b0 = bs.memcpy_bytes.load();
        f0 = bs.flatten_bytes.load();
      }
      c->send(msg);
    });
  }
  w.run();
  const double n = measured;
  return {payload_bytes,
          static_cast<double>(bs.memcpy_count.load() - c0) / n,
          static_cast<double>(bs.memcpy_bytes.load() - b0) / n,
          static_cast<double>(bs.flatten_bytes.load() - f0) / n};
}

/// Run the standard 64 B – 16 KiB sweep, print the table + one-line summary
/// and append the per-size and headline zc_* JSON keys. Returns true when
/// the predicted path (smallest size) performed zero data-plane copies.
inline bool zc_sweep(std::vector<std::pair<std::string, double>>& metrics) {
  std::printf("\nzero-copy sweep (steady-state sends, per message):\n");
  std::printf("%10s %14s %20s %21s\n", "payload", "copies/send",
              "memcpy bytes/send", "flatten bytes/send");
  double pred_copies = -1, pred_bytes = -1;
  for (std::size_t sz : {std::size_t{64}, std::size_t{256}, std::size_t{1024},
                         std::size_t{4096}, std::size_t{16384}}) {
    ZcSweepPoint p = zc_sweep_point(sz);
    std::printf("%9zuB %14.2f %20.1f %21.1f\n", p.payload_bytes,
                p.copies_per_send, p.memcpy_bytes_per_send,
                p.flatten_bytes_per_send);
    const std::string k = "zc_sweep_" + std::to_string(sz) + "B";
    metrics.emplace_back(k + "_copies_per_send", p.copies_per_send);
    metrics.emplace_back(k + "_memcpy_bytes_per_send", p.memcpy_bytes_per_send);
    if (sz == 64) {
      pred_copies = p.copies_per_send;
      pred_bytes = p.memcpy_bytes_per_send;
    }
  }
  metrics.emplace_back("copies_per_send", pred_copies);
  metrics.emplace_back("memcpy_bytes_per_send", pred_bytes);
  std::printf(
      "zero-copy: %.2f copies/send, %.1f bytes memcpy'd/send on the "
      "predicted path\n",
      pred_copies, pred_bytes);
  return pred_copies == 0.0 && pred_bytes == 0.0;
}

/// Measure the latency of a single isolated round trip (8-byte message).
inline double measure_single_rt_us(const ConnOptions& opt,
                                   GcPolicy gc = GcPolicy::kDisabled) {
  WorldConfig wc;
  wc.seed = g_world_seed;
  wc.gc_policy = gc;
  World w(wc);
  auto& a = w.add_node("client");
  auto& b = w.add_node("server");
  auto [c, s] = w.connect(a, b, opt);
  s->on_deliver([&, s = s](std::span<const std::uint8_t> p) { s->send(p); });
  Vt t1 = -1;
  c->on_deliver([&, c = c](std::span<const std::uint8_t>) {
    if (t1 < 0) t1 = c->now();
  });
  auto msg = payload_of(8);
  c->send(msg);
  w.run();
  return vt_to_us(t1);
}

/// Latency of the k-th round trip, each spaced far enough apart for all
/// deferred work to finish (steady state: cookies learned, predictions
/// warm).
inline double measure_steady_rt_us(const ConnOptions& opt, int k = 5,
                                   GcPolicy gc = GcPolicy::kDisabled) {
  WorldConfig wc;
  wc.seed = g_world_seed;
  wc.gc_policy = gc;
  World w(wc);
  auto& a = w.add_node("client");
  auto& b = w.add_node("server");
  auto [c, s] = w.connect(a, b, opt);
  s->on_deliver([&, s = s](std::span<const std::uint8_t> p) { s->send(p); });
  int done = 0;
  Vt sent_at = 0, last_rt = 0;
  auto msg = payload_of(8);
  c->on_deliver([&, c = c](std::span<const std::uint8_t>) {
    last_rt = c->now() - sent_at;
    if (++done < k) {
      w.queue().after(vt_ms(5), [&, c] {
        sent_at = c->now();
        c->send(msg);
      });
    }
  });
  sent_at = c->now();
  c->send(msg);
  w.run();
  return vt_to_us(last_rt);
}

/// Closed-loop round trips: client fires the next ping when the pong lands.
/// Returns {mean RT latency us, achieved rt/s}.
struct RtResult {
  double mean_latency_us;
  double rate_per_s;
  int completed;
};

inline RtResult closed_loop_rts(const ConnOptions& opt, GcPolicy gc,
                                int count, std::uint32_t gc_every_n = 32,
                                obs::LatencyHistogram* lat_hist = nullptr) {
  WorldConfig wc;
  wc.seed = g_world_seed;
  wc.gc_policy = gc;
  wc.gc_every_n = gc_every_n;
  World w(wc);
  auto& a = w.add_node("client");
  auto& b = w.add_node("server");
  auto [c, s] = w.connect(a, b, opt);
  s->on_deliver([&, s = s](std::span<const std::uint8_t> p) { s->send(p); });

  int done = 0;
  Vt sent_at = 0;
  double total_lat = 0;
  auto msg = payload_of(8);
  c->on_deliver([&, c = c](std::span<const std::uint8_t>) {
    const Vt rt = c->now() - sent_at;
    total_lat += vt_to_us(rt);
    if (lat_hist) lat_hist->record(static_cast<std::uint64_t>(rt));
    if (++done < count) {
      sent_at = c->now();
      c->send(msg);
    }
  });
  sent_at = c->now();
  c->send(msg);
  w.run();
  double elapsed_s = vt_to_s(w.now());
  return {total_lat / done, done / elapsed_s, done};
}

}  // namespace pa::bench
