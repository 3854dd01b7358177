// Always-on, bounded trace ring of compact binary span events.
//
// The paper's Figure 4 is a per-phase latency timeline; the repo's original
// recorder (sim/trace.h TraceRecorder) builds it from std::string events —
// fine for an opt-in simulator run, unacceptable as an always-on production
// facility (allocation on the critical path, unbounded growth). This ring
// replaces it on the hot paths:
//
//   - events are 24-byte PODs (timestamp, duration, kind, arg, owner);
//   - the process has one fixed-capacity ring, written and read by the one
//     thread that drives its engines and loops (docs/INTERNALS.md,
//     "Threading contract"): record() is one 24-byte slot store and a head
//     increment;
//   - the ring is bounded and wraps — tracing is *always on* and costs the
//     same whether anyone is looking or not.
//
// Timestamps carry whatever clock the recording site lives on: virtual
// nanoseconds under the simulator (Env::now), wall nanoseconds in the
// real-time loop. A ring never mixes semantics within one process run in
// practice, and the exporters only need monotonicity per producer.
//
// The string-based TraceRecorder survives as the *Figure-4 text exporter*
// for simulator worlds (opt-in via WorldConfig::trace); chrome_trace_json
// (obs/export.h) is the exporter for these binary spans.
#pragma once

#include <cstdint>
#include <vector>

namespace pa::obs {

/// Span taxonomy: every named point/interval the hot paths emit. Catalogued
/// in docs/OBSERVABILITY.md; keep the two in sync.
enum class SpanKind : std::uint8_t {
  kSendFast = 0,    // predicted send: memcpy + filter + preamble -> wire
  kSendSlow,        // unpredicted send: stack pre-send built the headers
  kPostSend,        // deferred post-send batch (arg = messages in batch)
  kDeliverFast,     // predicted delivery: filter + memcmp -> application
  kDeliverSlow,     // unpredicted delivery: stack pre-deliver chain ran
  kPostDeliver,     // deferred post-deliver batch (arg = messages in batch)
  kFilterSend,      // send packet filter executed (arg = return code)
  kFilterRecv,      // receive packet filter executed (arg = return code)
  kTimerFire,       // layer timer callback ran
  kGcPause,         // GC model charged a pause (dur = pause ns)
  kBacklogFlush,    // backlog flushed (arg = messages flushed/packed)
  kNetBatch,        // kernel I/O batch drained/flushed (arg = datagrams)
  kNumKinds,        // sentinel
};

inline constexpr std::size_t kNumSpanKinds =
    static_cast<std::size_t>(SpanKind::kNumKinds);

const char* span_kind_name(SpanKind k);

struct SpanEvent {
  std::int64_t ts = 0;      // event start, ns (clock of the recording site)
  std::uint32_t dur = 0;    // duration in ns; 0 = instant event
  std::uint32_t arg = 0;    // kind-specific payload (bytes, rc, batch size)
  std::uint16_t owner = 0;  // engine/owner id (obs::next_owner_id), 0 = n/a
  std::uint8_t kind = 0;    // SpanKind
  std::uint8_t pad = 0;
};
static_assert(sizeof(SpanEvent) == 24, "keep span events compact");

/// Fixed-capacity ring that keeps the most recent capacity() events.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity_pow2);

  std::size_t capacity() const { return slots_.size(); }

  /// Total events ever recorded (monotonic; the ring holds the last
  /// capacity() of them).
  std::uint64_t recorded() const { return head_; }

  void record(SpanKind kind, std::int64_t ts, std::uint32_t dur = 0,
              std::uint32_t arg = 0, std::uint16_t owner = 0) {
    const std::uint64_t h = head_++;
    slots_[h & mask_] =
        SpanEvent{ts, dur, arg, owner, static_cast<std::uint8_t>(kind), 0};
    // The ring cycles through more memory than stays cached, so the next
    // record's slot is usually a cold line; pull it in now, off the
    // critical path (measured: turns a ~30 ns/record miss into noise).
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&slots_[(h + 3) & mask_], /*rw=*/1, /*locality=*/3);
#endif
  }

  /// Copy of the most recent events, oldest first.
  std::vector<SpanEvent> snapshot() const;

 private:
  std::vector<SpanEvent> slots_;
  std::size_t mask_;
  std::uint64_t head_ = 0;
};

// --- the process ring -------------------------------------------------------

/// Tracing is on by default ("always-on"). Disabling turns span() into a
/// single load-and-branch — bench_obs measures both sides.
bool trace_enabled();
void set_trace_enabled(bool on);

/// The process's ring (8192 events, 192 KiB; created on first use and never
/// destroyed, so spans recorded from static destructors stay valid).
TraceRing& process_ring();

/// Record one span event into the process ring.
inline void span(SpanKind kind, std::int64_t ts, std::uint32_t dur = 0,
                 std::uint32_t arg = 0, std::uint16_t owner = 0) {
  if (!trace_enabled()) return;
  process_ring().record(kind, ts, dur, arg, owner);
}

/// Unique small id for span `owner` tags (engines take one each).
std::uint16_t next_owner_id();

}  // namespace pa::obs
