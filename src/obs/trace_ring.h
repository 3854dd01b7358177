// Always-on, bounded, per-thread trace ring of compact binary span events.
//
// The paper's Figure 4 is a per-phase latency timeline; the repo's original
// recorder (sim/trace.h TraceRecorder) builds it from std::string events —
// fine for an opt-in simulator run, unacceptable as an always-on production
// facility (allocation on the critical path, unbounded growth, one shared
// vector). This ring replaces it on the hot paths:
//
//   - events are 24-byte PODs (timestamp, duration, kind, arg, owner);
//   - each thread writes its own fixed-capacity ring (no sharing, no CAS):
//     record() is a TLS load, three relaxed word stores (24 bytes) and one
//     release store;
//   - rings are bounded and wrap — tracing is *always on* and costs the
//     same whether anyone is looking or not;
//   - any thread may snapshot any ring concurrently: the reader copies and
//     then discards slots the writer may have overwritten mid-copy
//     (seqlock-style validation against the head counter).
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

#include <atomic>
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

/// Fixed-capacity single-producer ring. One per recording thread; readers
/// snapshot concurrently.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity_pow2);

  std::size_t capacity() const { return slots_.size(); }

  /// Total events ever recorded (monotonic; the ring holds the last
  /// capacity() of them).
  std::uint64_t recorded() const {
    return head_.load(std::memory_order_acquire);
  }

  /// Producer-side only (the owning thread). Slots are stored as three
  /// relaxed-atomic words so concurrent snapshot copies are defined
  /// behavior; cross-word tearing is handled by the head validation in
  /// snapshot(), not by these stores.
  void record(SpanKind kind, std::int64_t ts, std::uint32_t dur = 0,
              std::uint32_t arg = 0, std::uint16_t owner = 0) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[h & mask_];
    s.w[0].store(static_cast<std::uint64_t>(ts), std::memory_order_relaxed);
    s.w[1].store(static_cast<std::uint64_t>(dur) |
                     (static_cast<std::uint64_t>(arg) << 32),
                 std::memory_order_relaxed);
    s.w[2].store(static_cast<std::uint64_t>(owner) |
                     (static_cast<std::uint64_t>(
                          static_cast<std::uint8_t>(kind))
                      << 16),
                 std::memory_order_relaxed);
    head_.store(h + 1, std::memory_order_release);
    // The ring cycles through more memory than stays cached, so the next
    // record's slot is usually a cold line; pull it in now, off the
    // critical path (measured: turns a ~30 ns/record miss into noise).
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&slots_[(h + 3) & mask_], /*rw=*/1, /*locality=*/3);
#endif
  }

  /// Copy of the most recent events, oldest first. Safe from any thread:
  /// slots the producer may have overwritten during the copy — including
  /// the slot of a write in flight, which precedes the head publish — are
  /// discarded (the returned window is events (h2 - capacity, h1) for head
  /// values h1 before and h2 after the copy), so no torn event is ever
  /// returned. Once the ring has wrapped, at most capacity - 1 events come
  /// back.
  std::vector<SpanEvent> snapshot() const;

  /// Drop all recorded events (tests / bench phase boundaries). Caller must
  /// ensure the producer is quiescent.
  void clear() { head_.store(0, std::memory_order_release); }

 private:
  // One event, packed into three atomic words (24 bytes, like SpanEvent):
  // w[0] = ts, w[1] = dur | arg<<32, w[2] = owner | kind<<16.
  struct Slot {
    std::atomic<std::uint64_t> w[3] = {};
  };

  std::vector<Slot> slots_;
  std::size_t mask_;
  std::atomic<std::uint64_t> head_{0};
};

/// A snapshot event tagged with the ring (≈ thread) it came from.
struct TaggedSpan {
  std::uint32_t ring_id = 0;
  SpanEvent ev;
};

// --- process-global trace facility -----------------------------------------

/// Tracing is on by default ("always-on"). Disabling turns span() into a
/// single relaxed load-and-branch — bench_obs measures both sides.
bool trace_enabled();
void set_trace_enabled(bool on);

/// Per-thread ring capacity for rings created after this call (existing
/// rings keep theirs). Default 8192 events (192 KiB per thread).
void set_ring_capacity(std::size_t capacity_pow2);

/// This thread's ring (created and registered on first use; never
/// destroyed, so snapshots remain valid after thread exit).
TraceRing& thread_ring();

/// Record one span event into the calling thread's ring.
inline void span(SpanKind kind, std::int64_t ts, std::uint32_t dur = 0,
                 std::uint32_t arg = 0, std::uint16_t owner = 0) {
  if (!trace_enabled()) return;
  thread_ring().record(kind, ts, dur, arg, owner);
}

/// Merged snapshot of every thread ring in the process, sorted by
/// timestamp (stable across rings).
std::vector<TaggedSpan> snapshot_all();

/// Clear every ring (tests / bench boundaries; producers must be quiet).
void clear_all();

/// Unique small id for span `owner` tags (engines take one each).
std::uint16_t next_owner_id();

}  // namespace pa::obs
