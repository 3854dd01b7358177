#include "obs/trace_ring.h"

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
    case SpanKind::kSendProto:    return "send.proto";
    case SpanKind::kSendRexmit:   return "send.rexmit";
    case SpanKind::kDeliverApp:   return "deliver.app";
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
  const std::uint64_t n = head_ < slots_.size() ? head_ : slots_.size();
  std::vector<SpanEvent> out;
  out.reserve(n);
  for (std::uint64_t i = head_ - n; i < head_; ++i) {
    out.push_back(slots_[i & mask_]);
  }
  return out;
}

namespace {

struct ProcessTrace {
  bool enabled = true;
  TraceRing ring{8192};
  std::uint16_t owner_ids = 0;
};

ProcessTrace& process_trace() {
  static ProcessTrace* t = new ProcessTrace();  // never destroyed, see
  // process_ring() in the header.
  return *t;
}

}  // namespace

bool trace_enabled() { return process_trace().enabled; }

void set_trace_enabled(bool on) { process_trace().enabled = on; }

TraceRing& process_ring() { return process_trace().ring; }

std::uint16_t next_owner_id() { return ++process_trace().owner_ids; }

}  // namespace pa::obs
