// Seeded application payloads and their checks.
//
// Every payload starts with a 16-byte header — connection (u32), length
// (u32), sequence number (u64), host byte order — followed by seeded content:
// a window into a random pool drawn from the run's seed, at an offset
// derived from (connection, sequence). The receiver regenerates the
// expected payload from the seed alone, so any loss, duplication,
// reordering or corruption is caught; the engines see only the bytes.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/rng.h"

namespace wb {

inline constexpr std::size_t kPayloadHeader = 16;
inline constexpr std::size_t kMaxPayload = 16384;

/// Message id shared by every span of one application message (never 0).
inline std::uint64_t msg_id(std::uint32_t conn, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(conn) << 48) | (seq + 1);
}

class Payloads {
 public:
  explicit Payloads(std::uint64_t seed) : pool_(kPool + kMaxPayload) {
    pa::Rng rng(seed ^ 0x7061796c6f616473ull);
    for (std::size_t i = 0; i < pool_.size(); i += 8) {
      const std::uint64_t v = rng.next();
      std::memcpy(pool_.data() + i, &v, 8);
    }
  }

  /// Build message (conn, seq) of `len` bytes (kPayloadHeader <= len <=
  /// kMaxPayload) into `out`.
  void make(std::uint32_t conn, std::uint64_t seq, std::size_t len,
            std::vector<std::uint8_t>& out) const {
    out.resize(len);
    write_header(out.data(), conn, seq, len);
    std::memcpy(out.data() + kPayloadHeader, content(conn, seq),
                len - kPayloadHeader);
  }

  /// True when `p` is exactly message (conn, seq) of `len` bytes.
  bool check(std::span<const std::uint8_t> p, std::uint32_t conn,
             std::uint64_t seq, std::size_t len) const {
    if (p.size() != len || len < kPayloadHeader) return false;
    std::uint8_t hdr[kPayloadHeader];
    write_header(hdr, conn, seq, len);
    return std::memcmp(p.data(), hdr, kPayloadHeader) == 0 &&
           std::memcmp(p.data() + kPayloadHeader, content(conn, seq),
                       len - kPayloadHeader) == 0;
  }

  /// The id a payload claims (0 when too short to carry one).
  static std::uint64_t id_of(std::span<const std::uint8_t> p) {
    if (p.size() < kPayloadHeader) return 0;
    std::uint32_t conn = 0;
    std::uint64_t seq = 0;
    std::memcpy(&conn, p.data(), 4);
    std::memcpy(&seq, p.data() + 8, 8);
    return msg_id(conn, seq);
  }

 private:
  static constexpr std::size_t kPool = 65536;

  static void write_header(std::uint8_t* h, std::uint32_t conn,
                           std::uint64_t seq, std::size_t len) {
    const std::uint32_t l = static_cast<std::uint32_t>(len);
    std::memcpy(h, &conn, 4);
    std::memcpy(h + 4, &l, 4);
    std::memcpy(h + 8, &seq, 8);
  }

  const std::uint8_t* content(std::uint32_t conn, std::uint64_t seq) const {
    std::uint64_t x = (seq + 1) * 0x9e3779b97f4a7c15ull ^
                      (static_cast<std::uint64_t>(conn) << 32);
    x ^= x >> 29;
    return pool_.data() + (x % kPool);
  }

  std::vector<std::uint8_t> pool_;
};

/// The stream workload's seeded payload-size mix: 64 B 50%, 1 KiB 30%,
/// 4 KiB 15%, 16 KiB 5% (16 KiB fragments at the 8 KiB frag threshold).
inline std::size_t draw_stream_size(pa::Rng& rng) {
  const std::uint64_t r = rng.next_below(100);
  if (r < 50) return 64;
  if (r < 80) return 1024;
  if (r < 95) return 4096;
  return 16384;
}

}  // namespace wb
