// Unified drop-reason taxonomy.
//
// Every place a frame can die — the router, either engine's receive path,
// the network-facing queues — classifies the drop with one of these reasons
// and bumps a DropCounters slot: the taxonomy is the only drop accounting,
// what reports render and what the soak harness asserts on.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace pa {

enum class DropReason : std::uint8_t {
  kMalformedPreamble = 0,  // frame shorter than a preamble / undecodable
  kTruncatedHeader,        // preamble ok, but headers cut short
  kUnknownCookie,          // cookie not in the router's table, no ident
  kStaleEpoch,             // cookie from a superseded epoch (peer restarted)
  kCookieCollision,        // cookie claimed by >1 connection, no ident
  kNoIdentMatch,           // full identification matched no connection
  kChecksumFilter,         // receive packet filter rejected (cksum/length)
  kRecvQueueFull,          // receive ring overflow behind post-processing
  kOversize,               // frame exceeded the link MTU
  kMalformedPacking,       // packing descriptor inconsistent with payload
  // Overload-governor sheds (src/resil/): deliberate, accounted rejections
  // under pressure — never silent loss.
  kShedIngest,             // admission control refused a new app send
  kShedHeartbeat,          // heartbeat emission shed (>= Saturated)
  kShedGossip,             // standalone ack/gossip emission shed (Critical)
  kShedNewConn,            // fresh conn-ident rejected before established
  kIdentQuota,             // cookie exhausted its failed-ident quota (storm)
  // Composable-stack layer drops (src/layers/crypt_layer.*, comp_layer.*,
  // relay_layer.*): per-frame codec and routing failures.
  kAeadAuth,               // AEAD tag mismatch (tampered or wrong key)
  kMisroutedHop,           // relay hop field names a different endpoint
  kCompCodec,              // compression framing undecodable
  kNumReasons,             // sentinel
};

inline constexpr std::size_t kNumDropReasons =
    static_cast<std::size_t>(DropReason::kNumReasons);

const char* drop_reason_name(DropReason r);

/// Per-reason drop counters; embedded in Router::Stats and EngineStats.
struct DropCounters {
  std::array<std::uint64_t, kNumDropReasons> counts{};

  void bump(DropReason r) {
    ++counts[static_cast<std::size_t>(r)];
  }
  std::uint64_t operator[](DropReason r) const {
    return counts[static_cast<std::size_t>(r)];
  }
  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (std::uint64_t c : counts) t += c;
    return t;
  }
};

}  // namespace pa
