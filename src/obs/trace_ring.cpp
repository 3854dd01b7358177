#include "obs/trace_ring.h"

#include <algorithm>
#include <memory>
#include <mutex>

namespace pa::obs {

const char* span_kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kSendFast:     return "send.fast";
    case SpanKind::kSendSlow:     return "send.slow";
    case SpanKind::kPostSend:     return "post.send";
    case SpanKind::kDeliverFast:  return "deliver.fast";
    case SpanKind::kDeliverSlow:  return "deliver.slow";
    case SpanKind::kPostDeliver:  return "post.deliver";
    case SpanKind::kFilterSend:   return "filter.send";
    case SpanKind::kFilterRecv:   return "filter.recv";
    case SpanKind::kTimerFire:    return "timer.fire";
    case SpanKind::kGcPause:      return "gc.pause";
    case SpanKind::kBacklogFlush: return "backlog.flush";
    case SpanKind::kNetBatch:     return "net.batch";
    case SpanKind::kNumKinds:     break;
  }
  return "unknown";
}

namespace {

std::size_t round_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

TraceRing::TraceRing(std::size_t capacity_pow2)
    : slots_(round_pow2(capacity_pow2 == 0 ? 1 : capacity_pow2)),
      mask_(slots_.size() - 1) {}

std::vector<SpanEvent> TraceRing::snapshot() const {
  const std::uint64_t h1 = head_.load(std::memory_order_acquire);
  const std::uint64_t cap = slots_.size();
  const std::uint64_t n = h1 < cap ? h1 : cap;
  const std::uint64_t first = h1 - n;
  std::vector<SpanEvent> out;
  out.reserve(n);
  for (std::uint64_t i = first; i < h1; ++i) {
    const Slot& s = slots_[i & mask_];
    const std::uint64_t w0 = s.w[0].load(std::memory_order_relaxed);
    const std::uint64_t w1 = s.w[1].load(std::memory_order_relaxed);
    const std::uint64_t w2 = s.w[2].load(std::memory_order_relaxed);
    SpanEvent e;
    e.ts = static_cast<std::int64_t>(w0);
    e.dur = static_cast<std::uint32_t>(w1);
    e.arg = static_cast<std::uint32_t>(w1 >> 32);
    e.owner = static_cast<std::uint16_t>(w2);
    e.kind = static_cast<std::uint8_t>(w2 >> 16);
    out.push_back(e);
  }
  // Validate: anything the producer advanced past during our copy may be
  // torn — and the producer may be mid-write at position h2 (it stores the
  // slot before publishing the head), which aliases position h2 - cap.
  // Keep only events strictly inside the live window (h2 - cap, h1).
  const std::uint64_t h2 = head_.load(std::memory_order_acquire);
  const std::uint64_t safe_first = h2 + 1 > cap ? h2 + 1 - cap : 0;
  if (safe_first > first) {
    const std::uint64_t drop =
        std::min<std::uint64_t>(safe_first - first, out.size());
    out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(drop));
  }
  return out;
}

namespace {

struct GlobalTrace {
  std::mutex mu;
  std::vector<std::unique_ptr<TraceRing>> rings;
  std::atomic<bool> enabled{true};
  std::atomic<std::size_t> ring_capacity{8192};
  std::atomic<std::uint16_t> owner_ids{0};
};

GlobalTrace& global() {
  static GlobalTrace* g = new GlobalTrace();  // never destroyed: other
  // threads may still be recording during static teardown.
  return *g;
}

}  // namespace

bool trace_enabled() {
  return global().enabled.load(std::memory_order_relaxed);
}

void set_trace_enabled(bool on) {
  global().enabled.store(on, std::memory_order_relaxed);
}

void set_ring_capacity(std::size_t capacity_pow2) {
  global().ring_capacity.store(capacity_pow2 == 0 ? 1 : capacity_pow2,
                               std::memory_order_relaxed);
}

TraceRing& thread_ring() {
  thread_local TraceRing* ring = nullptr;
  if (ring == nullptr) {
    GlobalTrace& g = global();
    std::lock_guard<std::mutex> lk(g.mu);
    g.rings.push_back(std::make_unique<TraceRing>(
        g.ring_capacity.load(std::memory_order_relaxed)));
    ring = g.rings.back().get();
  }
  return *ring;
}

std::vector<TaggedSpan> snapshot_all() {
  GlobalTrace& g = global();
  std::vector<std::vector<SpanEvent>> per_ring;
  {
    std::lock_guard<std::mutex> lk(g.mu);
    per_ring.reserve(g.rings.size());
    for (const auto& r : g.rings) per_ring.push_back(r->snapshot());
  }
  std::vector<TaggedSpan> out;
  for (std::uint32_t i = 0; i < per_ring.size(); ++i) {
    for (const SpanEvent& e : per_ring[i]) out.push_back(TaggedSpan{i, e});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TaggedSpan& a, const TaggedSpan& b) {
                     return a.ev.ts < b.ev.ts;
                   });
  return out;
}

void clear_all() {
  GlobalTrace& g = global();
  std::lock_guard<std::mutex> lk(g.mu);
  for (auto& r : g.rings) r->clear();
}

std::uint16_t next_owner_id() {
  return static_cast<std::uint16_t>(
      global().owner_ids.fetch_add(1, std::memory_order_relaxed) + 1);
}

}  // namespace pa::obs
