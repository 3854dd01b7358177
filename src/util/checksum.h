// The message digest behind the packet filters' DIGEST instruction.
//
// The paper's packet filter has a DIGEST op carrying a function pointer
// (Table 2). Every stack's send and receive filter computes one digest,
// CRC-32C, so that is the only function here:
//   - crc32c() dispatches at runtime to the CPU's CRC32 instructions
//     (SSE4.2 on x86, the CRC32 extension on ARMv8) when available; the
//     software table implementation remains both the fallback and the
//     oracle the hardware path is tested against (crc32c_sw()).
//   - DigestStream computes the same CRC incrementally over a sequence of
//     spans (a chained payload), equal to crc32c() over the concatenated
//     bytes however the input is split.
#pragma once

#include <cstdint>
#include <span>

namespace pa {

std::uint32_t crc32c(std::span<const std::uint8_t> data);

/// The pure software-table CRC32C — the oracle the dispatched path must
/// agree with byte-for-byte.
std::uint32_t crc32c_sw(std::span<const std::uint8_t> data);

/// Whether crc32c() is using a hardware CRC instruction on this machine.
bool crc32c_hw_available();

/// Incremental CRC32C over a sequence of byte spans:
///   DigestStream ds; ds.update(a); ds.update(b); ds.finish()
/// equals crc32c(a ++ b) exactly, for any split — this is what lets the
/// packet filters checksum a chained payload without flattening it.
class DigestStream {
 public:
  void update(std::span<const std::uint8_t> data);

  /// The CRC of every byte passed to update() so far.
  std::uint32_t finish() const { return crc_ ^ 0xffffffffu; }

 private:
  std::uint32_t crc_ = 0xffffffffu;  // raw (pre-final-xor) state
};

}  // namespace pa
