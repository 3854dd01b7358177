#include "obs/bridge.h"

#include <cctype>

#include "layers/bottom_layer.h"
#include "layers/comp_layer.h"
#include "layers/crypt_layer.h"
#include "layers/nak_layer.h"
#include "layers/relay_layer.h"
#include "layers/window_layer.h"

namespace pa::obs {
namespace {

// Read-through helpers. Each captures a pointer to a live counter (or a
// copied scalar) and samples it at collect() time.
void rd_counter(MetricsRegistry& reg, const std::string& name,
                const std::string& help, const StatCounter* c) {
  reg.counter_fn(name, help, "",
                 [c] { return static_cast<double>(c->load()); });
}

void rd_counter_u64(MetricsRegistry& reg, const std::string& name,
                    const std::string& help, const std::uint64_t* v,
                    const std::string& unit = "") {
  reg.counter_fn(name, help, unit,
                 [v] { return static_cast<double>(*v); });
}

void rd_drops(MetricsRegistry& reg, const std::string& prefix,
              const DropCounters& d) {
  for (std::size_t i = 0; i < kNumDropReasons; ++i) {
    const auto r = static_cast<DropReason>(i);
    const StatCounter* c = &d.counts[i];
    rd_counter(reg, prefix + "_drop_" + metric_slug(drop_reason_name(r)) +
                        "_total",
               std::string("frames dropped: ") + drop_reason_name(r), c);
  }
}

}  // namespace

std::string metric_slug(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  for (char ch : label) {
    if (std::isalnum(static_cast<unsigned char>(ch))) {
      out.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(ch))));
    } else if (!out.empty() && out.back() != '_') {
      out.push_back('_');
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

void bind_engine_stats(MetricsRegistry& reg, const EngineStats& s,
                       const std::string& p) {
  rd_counter(reg, p + "_app_sends_total", "application send() calls",
             &s.app_sends);
  rd_counter(reg, p + "_fast_sends_total",
             "sends that bypassed the stack (predicted header)",
             &s.fast_sends);
  rd_counter(reg, p + "_slow_sends_total", "sends through the stack pre-send",
             &s.slow_sends);
  rd_counter(reg, p + "_backlogged_total",
             "sends parked behind pending post-processing", &s.backlogged);
  rd_counter(reg, p + "_packed_batches_total",
             "backlog flushes packed into one frame", &s.packed_batches);
  rd_counter(reg, p + "_packed_msgs_total", "messages carried by packing",
             &s.packed_msgs);
  rd_counter(reg, p + "_frames_out_total", "wire frames transmitted",
             &s.frames_out);
  rd_counter(reg, p + "_conn_ident_sent_total",
             "frames carrying the connection identification",
             &s.conn_ident_sent);
  rd_counter(reg, p + "_protocol_emits_total",
             "layer-generated messages (acks, naks)", &s.protocol_emits);
  rd_counter(reg, p + "_raw_resends_total", "verbatim retransmissions",
             &s.raw_resends);
  rd_counter(reg, p + "_frames_in_total", "wire frames received",
             &s.frames_in);
  rd_counter(reg, p + "_fast_delivers_total",
             "deliveries on the predicted path (memcmp hit)",
             &s.fast_delivers);
  rd_counter(reg, p + "_slow_delivers_total",
             "deliveries through the stack pre-deliver", &s.slow_delivers);
  rd_counter(reg, p + "_filter_drops_total",
             "frames rejected by the receive packet filter", &s.filter_drops);
  rd_counter(reg, p + "_predict_misses_total",
             "received headers that missed the prediction",
             &s.predict_misses);
  rd_counter(reg, p + "_delivered_to_app_total",
             "application messages delivered (post-unpack)",
             &s.delivered_to_app);
  rd_counter(reg, p + "_recv_queued_total",
             "frames parked behind post-processing", &s.recv_queued);
  rd_counter(reg, p + "_recv_overflow_drops_total",
             "frames dropped on receive-ring overflow",
             &s.recv_overflow_drops);
  rd_counter(reg, p + "_malformed_drops_total", "malformed frames dropped",
             &s.malformed_drops);
  rd_counter(reg, p + "_restarts_total", "simulated process restarts",
             &s.restarts);
  rd_counter(reg, p + "_recovery_entries_total",
             "cookie-recovery episodes entered", &s.recovery_entries);
  rd_drops(reg, p, s.drops);
}

void bind_router_stats(MetricsRegistry& reg, const Router::Stats& s,
                       const std::string& p) {
  rd_counter(reg, p + "_routed_by_cookie_total",
             "frames routed by connection cookie", &s.routed_by_cookie);
  rd_counter(reg, p + "_routed_by_ident_total",
             "frames routed by full connection identification",
             &s.routed_by_ident);
  rd_counter(reg, p + "_dropped_unknown_cookie_total",
             "frames dropped: cookie unknown, no identification",
             &s.dropped_unknown_cookie);
  rd_counter(reg, p + "_dropped_no_match_total",
             "frames dropped: identification matched no connection",
             &s.dropped_no_match);
  rd_counter(reg, p + "_dropped_malformed_total",
             "frames dropped: undecodable preamble", &s.dropped_malformed);
  rd_counter(reg, p + "_dropped_stale_epoch_total",
             "frames dropped: cookie from a superseded epoch",
             &s.dropped_stale_epoch);
  rd_counter(reg, p + "_dropped_cookie_collision_total",
             "frames dropped: cookie claimed by multiple connections",
             &s.dropped_cookie_collision);
  rd_counter(reg, p + "_group_frames_total",
             "frames fanned out by a registered group cookie",
             &s.group_frames);
  rd_counter(reg, p + "_group_deliveries_total",
             "engine deliveries produced by group-cookie fanout",
             &s.group_deliveries);
  rd_counter(reg, p + "_cookies_reaped_total",
             "idle learned cookies forgotten by the reaper",
             &s.cookies_reaped);
  rd_counter(reg, p + "_churn_events_total",
             "ident-storm events reported to the overload governor",
             &s.churn_events);
  rd_drops(reg, p, s.drops);
}

void bind_gc_stats(MetricsRegistry& reg, const GcModel::Stats& s,
                   const std::string& p) {
  rd_counter_u64(reg, p + "_collections_total", "GC collections",
                 &s.collections);
  reg.counter_fn(p + "_pause_ns_total", "total GC pause time", "ns",
                 [&s] { return static_cast<double>(s.total_pause); });
  reg.gauge_fn(p + "_pause_ns_max", "longest single GC pause", "ns",
               [&s] { return static_cast<double>(s.max_pause); });
  rd_counter_u64(reg, p + "_allocated_bytes_total", "bytes allocated",
                 &s.allocated_bytes, "bytes");
}

void bind_pool_stats(MetricsRegistry& reg, const MessagePool::Stats& s,
                     const std::string& p) {
  rd_counter_u64(reg, p + "_acquires_total", "buffer acquisitions",
                 &s.acquires);
  rd_counter_u64(reg, p + "_fresh_allocations_total",
                 "acquisitions that hit the allocator (pool miss)",
                 &s.fresh_allocations);
  rd_counter_u64(reg, p + "_releases_total", "buffers returned to the pool",
                 &s.releases);
  rd_counter_u64(reg, p + "_bytes_allocated_total",
                 "bytes from fresh allocations", &s.bytes_allocated, "bytes");
  rd_counter_u64(reg, p + "_headroom_regrow_total",
                 "header pushes that outgrew the headroom and reallocated",
                 &s.headroom_regrow);
}

void bind_buf_stats(MetricsRegistry& reg, const BufStats& s,
                    const std::string& p) {
  auto rd_atomic = [&reg](const std::string& name, const std::string& help,
                          const std::atomic<std::uint64_t>* v,
                          const std::string& unit = "") {
    reg.counter_fn(name, help, unit, [v] {
      return static_cast<double>(v->load(std::memory_order_relaxed));
    });
  };
  rd_atomic(p + "_ingest_copies_total",
            "payload copies crossing the application boundary",
            &s.ingest_copies);
  rd_atomic(p + "_ingest_bytes_total",
            "payload bytes copied crossing the application boundary",
            &s.ingest_bytes, "bytes");
  rd_atomic(p + "_memcpy_total",
            "data-plane payload copies after ingest (zero on the "
            "steady-state path)",
            &s.memcpy_count);
  rd_atomic(p + "_memcpy_bytes_total",
            "data-plane payload bytes copied after ingest", &s.memcpy_bytes,
            "bytes");
  rd_atomic(p + "_flattens_total",
            "chained frames flattened for a legacy consumer or tap",
            &s.flattens);
  rd_atomic(p + "_flatten_bytes_total", "bytes copied by flattening",
            &s.flatten_bytes, "bytes");
  rd_atomic(p + "_cow_copies_total",
            "copy-on-write header copies (shared chunk written)",
            &s.cow_copies);
  rd_atomic(p + "_chain_clones_total",
            "message clones that shared the payload chain by refcount bump",
            &s.chain_clones);
  rd_atomic(p + "_chain_clone_bytes_shared_total",
            "payload bytes shared (not copied) by chain clones",
            &s.chain_clone_bytes_shared, "bytes");
  rd_atomic(p + "_headroom_regrows_total",
            "header pushes that outgrew the headroom and reallocated",
            &s.headroom_regrows);
  rd_atomic(p + "_chunks_allocated_total", "chunks allocated",
            &s.chunks_allocated);
  rd_atomic(p + "_chunks_recycled_total",
            "chunks recycled from the pool (reads 0: the pool only accounts)",
            &s.chunks_recycled);
}

void bind_network_stats(MetricsRegistry& reg, const SimNetwork::Stats& s,
                        const std::string& p) {
  rd_counter_u64(reg, p + "_frames_sent_total", "frames entering the network",
                 &s.frames_sent);
  rd_counter_u64(reg, p + "_frames_delivered_total", "frames delivered",
                 &s.frames_delivered);
  rd_counter_u64(reg, p + "_frames_lost_total", "frames dropped by loss",
                 &s.frames_lost);
  rd_counter_u64(reg, p + "_frames_duplicated_total", "frames duplicated",
                 &s.frames_duplicated);
  rd_counter_u64(reg, p + "_frames_oversize_total",
                 "frames exceeding the link MTU", &s.frames_oversize);
  rd_counter_u64(reg, p + "_frames_corrupted_total", "frames bit-flipped",
                 &s.frames_corrupted);
  rd_counter_u64(reg, p + "_frames_truncated_total", "frames cut short",
                 &s.frames_truncated);
  rd_counter_u64(reg, p + "_frames_blackholed_total",
                 "frames swallowed by a paused link", &s.frames_blackholed);
  rd_counter_u64(reg, p + "_bytes_sent_total", "payload bytes sent",
                 &s.bytes_sent, "bytes");
}

void bind_stack_stats(MetricsRegistry& reg, const Stack& s,
                      const std::string& p) {
  std::size_t nth_window = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const Layer& l = s.layer(i);
    switch (l.kind()) {
      case LayerKind::kWindow: {
        const auto& ws = static_cast<const WindowLayer&>(l).stats();
        ++nth_window;
        std::string w = p + "_window";
        if (nth_window > 1) w += std::to_string(nth_window);
        rd_counter_u64(reg, w + "_data_sent_total", "data messages sent",
                       &ws.data_sent);
        rd_counter_u64(reg, w + "_data_delivered_total",
                       "data messages delivered", &ws.data_delivered);
        rd_counter_u64(reg, w + "_acks_sent_total", "acks sent",
                       &ws.acks_sent);
        rd_counter_u64(reg, w + "_acks_received_total", "acks received",
                       &ws.acks_received);
        rd_counter_u64(reg, w + "_retransmits_total", "timer retransmits",
                       &ws.retransmits);
        rd_counter_u64(reg, w + "_fast_retransmits_total",
                       "dup-ack fast retransmits", &ws.fast_retransmits);
        rd_counter_u64(reg, w + "_duplicates_total",
                       "duplicate data messages discarded", &ws.duplicates);
        rd_counter_u64(reg, w + "_stashed_total",
                       "out-of-order messages stashed", &ws.stashed);
        rd_counter_u64(reg, w + "_stalls_total", "times the window filled",
                       &ws.window_stalls);
        break;
      }
      case LayerKind::kBottom: {
        const auto& bs = static_cast<const BottomLayer&>(l).stats();
        rd_counter_u64(reg, p + "_bottom_sent_total", "frames framed",
                       &bs.sent);
        rd_counter_u64(reg, p + "_bottom_delivered_total", "frames accepted",
                       &bs.delivered);
        rd_counter_u64(reg, p + "_bottom_checksum_drops_total",
                       "frames failing the checksum", &bs.checksum_drops);
        rd_counter_u64(reg, p + "_bottom_length_drops_total",
                       "frames failing the length check", &bs.length_drops);
        break;
      }
      case LayerKind::kCrypt: {
        const auto& cl = static_cast<const CryptLayer&>(l);
        const auto& cs = cl.stats();
        rd_counter_u64(reg, p + "_crypt_frames_sealed_total",
                       "frames encrypted and tagged", &cs.frames_sealed);
        rd_counter_u64(reg, p + "_crypt_frames_opened_total",
                       "frames decrypted after tag verification",
                       &cs.frames_opened);
        rd_counter_u64(reg, p + "_crypt_auth_failures_total",
                       "frames dropped on tag mismatch", &cs.auth_failures);
        rd_counter_u64(reg, p + "_crypt_bytes_sealed_total",
                       "plaintext bytes encrypted", &cs.bytes_sealed,
                       "bytes");
        reg.gauge_fn(p + "_crypt_next_nonce",
                     "send-side nonce cursor (next frame's nonce)", "",
                     [&cl] { return static_cast<double>(cl.next_nonce()); });
        reg.gauge_fn(
            p + "_crypt_expected_nonce",
            "deliver-side nonce cursor (predicted next nonce)", "",
            [&cl] { return static_cast<double>(cl.expected_nonce()); });
        break;
      }
      case LayerKind::kComp: {
        const auto& cs = static_cast<const CompLayer&>(l).stats();
        rd_counter_u64(reg, p + "_comp_msgs_compressed_total",
                       "payloads shipped in compressed form",
                       &cs.msgs_compressed);
        rd_counter_u64(reg, p + "_comp_msgs_stored_total",
                       "payloads shipped stored (small or incompressible)",
                       &cs.msgs_stored);
        rd_counter_u64(reg, p + "_comp_msgs_inflated_total",
                       "payloads decompressed on delivery",
                       &cs.msgs_inflated);
        rd_counter_u64(reg, p + "_comp_bytes_in_total",
                       "payload bytes offered to the compressor",
                       &cs.bytes_in, "bytes");
        rd_counter_u64(reg, p + "_comp_bytes_out_total",
                       "payload bytes shipped (tag framing included)",
                       &cs.bytes_out, "bytes");
        rd_counter_u64(reg, p + "_comp_codec_errors_total",
                       "undecodable compressed payloads dropped",
                       &cs.codec_errors);
        break;
      }
      case LayerKind::kRelay: {
        const auto& rs = static_cast<const RelayLayer&>(l).stats();
        rd_counter_u64(reg, p + "_relay_stamped_total",
                       "frames stamped with hop identifiers", &rs.stamped);
        rd_counter_u64(reg, p + "_relay_accepted_total",
                       "frames addressed to this hop", &rs.accepted);
        rd_counter_u64(reg, p + "_relay_misrouted_total",
                       "frames for another hop dropped", &rs.misrouted);
        break;
      }
      case LayerKind::kCustom: {
        if (l.name() != "nak") break;
        const auto& nl = static_cast<const NakLayer&>(l);
        const auto& ns = nl.stats();
        rd_counter_u64(reg, p + "_nak_data_sent_total", "data messages sent",
                       &ns.data_sent);
        rd_counter_u64(reg, p + "_nak_data_delivered_total",
                       "data messages delivered", &ns.data_delivered);
        rd_counter_u64(reg, p + "_nak_naks_sent_total",
                       "negative acks sent", &ns.naks_sent);
        rd_counter_u64(reg, p + "_nak_naks_received_total",
                       "negative acks received", &ns.naks_received);
        rd_counter_u64(reg, p + "_nak_repairs_total",
                       "retransmissions answering a NAK", &ns.repairs);
        rd_counter_u64(reg, p + "_nak_unrepairable_total",
                       "NAKs for sequences older than the history",
                       &ns.unrepairable);
        rd_counter_u64(reg, p + "_nak_duplicates_total",
                       "duplicate data messages discarded", &ns.duplicates);
        rd_counter_u64(reg, p + "_nak_gaps_abandoned_total",
                       "receive gaps given up on", &ns.gaps_abandoned);
        reg.gauge_fn(p + "_nak_stalled",
                     "1 when the NAK protocol is terminally stalled", "",
                     [&nl] { return nl.stalled() ? 1.0 : 0.0; });
        break;
      }
      default:
        break;
    }
  }
}

}  // namespace pa::obs
