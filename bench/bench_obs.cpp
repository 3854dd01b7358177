// bench_obs — cost of the always-on observability layer on the predicted
// send path (the hottest path in the system, paper Figure 3).
//
// The trace ring's contract is "always on": every timed predicted send
// records a compact binary span event into the process ring. On this
// bench's wall-clock Env that is the first send and then 1 in 16
// (kPhaseSampleEvery); under the simulator's virtual clock it is every
// send. That is only tenable if the record is near-free. This bench
// measures:
//
//   1. raw TraceRing::record() cost (tight loop, ns/op);
//   2. the full predicted send path (send + inline post-processing drain)
//      with tracing ON vs OFF — the
//      *record vs no-record* delta. Timestamps and histogram records of the
//      timed sends run in both modes (they are the metrics layer, always
//      paid); the delta isolates the ring stores the trace-enabled flag
//      gates.
//
// Shape gate: the record-vs-no-record overhead must stay under 2% of the
// send-path cost, estimated as the median of per-round paired ON/OFF
// deltas (see the constants below for why).
#include "common.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <vector>

#include "obs/trace_ring.h"
#include "pa/accelerator.h"

using namespace pa;
using pa::bench::banner;
using pa::bench::emit_bench_json;
using pa::bench::fmt;
using pa::bench::header_row;
using pa::bench::row;

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Wall-clock environment: charge() is a no-op, frames are counted and
// dropped, timers never fire (no peer).
class BenchEnv final : public Env {
 public:
  Vt now() const override { return static_cast<Vt>(now_ns()); }
  void charge(VtDur) override {}
  void send_frame(std::vector<std::uint8_t> f) override {
    frames_ += 1;
    bytes_ += f.size();
  }
  void deliver(std::span<const std::uint8_t>) override {}
  void defer(std::function<void()> fn) override {
    deferred_.push_back(std::move(fn));
  }
  void set_timer(VtDur, std::function<void()>) override {}
  void on_alloc(std::size_t) override {}
  void on_reception() override {}
  void gc_point() override {}

  void drain_deferred() {
    while (!deferred_.empty()) {
      auto fn = std::move(deferred_.front());
      deferred_.pop_front();
      fn();
    }
  }

 private:
  std::uint64_t frames_ = 0;
  std::uint64_t bytes_ = 0;
  std::deque<std::function<void()>> deferred_;
};

// The true per-send ring cost (a few ns of an ~850 ns path, well under
// 1%) is far below machine noise, so the estimator must be robust on busy
// shared boxes. Whole-run A/B comparisons (tens of ms per mode) fail here:
// one scheduler preemption lands entirely in one mode and swings the
// "overhead" by ±5%. Instead the two modes are interleaved at fine grain —
// ON and OFF alternate in 128-send chunks (~0.1 ms each) within a single
// engine run, pair order flipping every round so linear drift cancels —
// and the gate uses the *median* of the hundreds of adjacent-pair deltas.
// A preemption burst now pollutes a handful of pairs, and the median
// ignores them.
constexpr int kWarmup = 512;
constexpr int kChunk = 128;    // sends per mode chunk (~0.1 ms)
constexpr int kRounds = 384;   // ON/OFF pairs per engine run
constexpr std::size_t kPayloadBytes = 64;

struct Interleaved {
  double on_mean_ns = 0;    // mean predicted-send ns, trace ON chunks
  double off_mean_ns = 0;   // mean predicted-send ns, trace OFF chunks
  double delta_ns = 0;      // median of per-pair (on - off) per-send deltas
};

// One engine; ON/OFF alternate in kChunk-send slices of the same send loop.
Interleaved interleaved_send_path() {
  BenchEnv env;
  PaConfig cfg;
  // Flow control never stalls.
  cfg.stack.spec.find(LayerSpec::Type::kWindow)->window.size = 1u << 20;
  cfg.cookie_seed = 7;
  PaEngine e(cfg, env);
  const auto payload = bench::payload_of(kPayloadBytes);
  for (int i = 0; i < kWarmup; ++i) {
    e.send(payload);
    env.drain_deferred();
  }

  auto chunk_ns = [&](bool trace_on) {
    obs::set_trace_enabled(trace_on);
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kChunk; ++i) {
      e.send(payload);
      env.drain_deferred();
    }
    return static_cast<double>(now_ns() - t0);
  };

  double on_total = 0, off_total = 0;
  std::vector<double> deltas;
  deltas.reserve(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    double on, off;
    if (r % 2 == 0) {
      on = chunk_ns(true);
      off = chunk_ns(false);
    } else {
      off = chunk_ns(false);
      on = chunk_ns(true);
    }
    on_total += on;
    off_total += off;
    deltas.push_back((on - off) / kChunk);
  }
  obs::set_trace_enabled(true);  // restore the always-on default

  const int sends = kWarmup + 2 * kRounds * kChunk;
  // The run must actually exercise the predicted path for the gate to mean
  // anything.
  if (e.stats().fast_sends < sends * 95ull / 100ull) {
    std::printf("WARNING: only %llu/%d sends took the fast path\n",
                static_cast<unsigned long long>(e.stats().fast_sends),
                sends);
  }

  std::sort(deltas.begin(), deltas.end());
  Interleaved out;
  out.on_mean_ns = on_total / (kRounds * kChunk);
  out.off_mean_ns = off_total / (kRounds * kChunk);
  out.delta_ns = deltas[deltas.size() / 2];
  return out;
}

// Raw ring-record cost, ns/op.
double raw_record_ns() {
  obs::TraceRing& ring = obs::process_ring();
  constexpr int kOps = 1 << 20;
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < kOps; ++i) {
    ring.record(obs::SpanKind::kSendFast, static_cast<std::int64_t>(i), 10,
                64, 1);
  }
  const std::uint64_t t1 = now_ns();
  return static_cast<double>(t1 - t0) / kOps;
}

}  // namespace

int main() {
  banner("bench_obs — always-on trace ring overhead on the predicted send "
         "path",
         "observability layer contract: record-vs-no-record < 2% "
         "(metrics/timestamps identical in both modes)");

  const double rec_ns = raw_record_ns();

  // Three independent engine runs; the median of their (already median-
  // based) deltas guards against a repeat that was unlucky end to end.
  std::vector<Interleaved> reps;
  for (int i = 0; i < 3; ++i) reps.push_back(interleaved_send_path());
  std::sort(reps.begin(), reps.end(),
            [](const Interleaved& a, const Interleaved& b) {
              return a.delta_ns < b.delta_ns;
            });
  const Interleaved& mid = reps[reps.size() / 2];
  const double overhead_pct = mid.delta_ns / mid.off_mean_ns * 100.0;

  header_row();
  row("raw TraceRing::record()", "O(ns)", fmt(rec_ns, "ns", 2));
  row("send path, trace ON", "(measured)", fmt(mid.on_mean_ns, "ns", 1));
  row("send path, trace OFF", "(baseline)", fmt(mid.off_mean_ns, "ns", 1));
  row("median paired delta", "few ns", fmt(mid.delta_ns, "ns", 2));
  row("record-vs-no-record overhead", "< 2%", fmt(overhead_pct, "%", 2));

  // Negative deltas are measurement noise (the ring cost is below the
  // timer's resolution at this baseline) — that trivially satisfies the
  // contract.
  const bool ok = overhead_pct < 2.0;
  std::printf("\nShape check: tracing must cost < 2%% of the predicted send "
              "path.\n");
  std::printf("RESULT: %s\n", ok ? "shape holds" : "SHAPE VIOLATION");

  emit_bench_json("obs", {
      {"raw_record_ns", rec_ns},
      {"send_trace_on_ns", mid.on_mean_ns},
      {"send_trace_off_ns", mid.off_mean_ns},
      {"trace_overhead_pct", overhead_pct},
      {"shape_ok", ok ? 1.0 : 0.0},
  });
  return ok ? 0 : 1;
}
