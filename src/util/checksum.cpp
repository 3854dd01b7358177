#include "util/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <nmmintrin.h>
#define PA_CRC32C_X86 1
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#include <arm_acle.h>
#define PA_CRC32C_ARM 1
#endif

namespace pa {
namespace {

constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

const std::array<std::uint32_t, 256> kCrc32cTable = make_crc32c_table();

// All update functions take and return the *raw* CRC state (no final xor),
// so streaming and one-shot callers compose them identically.
std::uint32_t crc32c_update_sw(std::uint32_t crc, const std::uint8_t* p,
                               std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ kCrc32cTable[(crc ^ p[i]) & 0xffu];
  }
  return crc;
}

#if defined(PA_CRC32C_X86)
// SSE4.2 CRC32 computes the same reflected Castagnoli CRC as the table.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_update_hw(
    std::uint32_t crc, const std::uint8_t* p, std::size_t n) {
  std::uint64_t c = crc;
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
    p += 8;
    n -= 8;
  }
  std::uint32_t c32 = static_cast<std::uint32_t>(c);
  while (n > 0) {
    c32 = _mm_crc32_u8(c32, *p);
    ++p;
    --n;
  }
  return c32;
}
#elif defined(PA_CRC32C_ARM)
std::uint32_t crc32c_update_hw(std::uint32_t crc, const std::uint8_t* p,
                               std::size_t n) {
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    crc = __crc32cd(crc, word);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = __crc32cb(crc, *p);
    ++p;
    --n;
  }
  return crc;
}
#endif

using CrcUpdateFn = std::uint32_t (*)(std::uint32_t, const std::uint8_t*,
                                      std::size_t);

CrcUpdateFn pick_crc32c_update() {
#if defined(PA_CRC32C_X86)
  if (__builtin_cpu_supports("sse4.2")) return crc32c_update_hw;
#elif defined(PA_CRC32C_ARM)
  // Compiled in only when the target guarantees the CRC32 extension.
  return crc32c_update_hw;
#endif
  return crc32c_update_sw;
}

const CrcUpdateFn kCrc32cUpdate = pick_crc32c_update();

}  // namespace

std::uint32_t crc32c_sw(std::span<const std::uint8_t> data) {
  return crc32c_update_sw(0xffffffffu, data.data(), data.size()) ^ 0xffffffffu;
}

bool crc32c_hw_available() { return kCrc32cUpdate != crc32c_update_sw; }

std::uint32_t crc32c(std::span<const std::uint8_t> data) {
  return kCrc32cUpdate(0xffffffffu, data.data(), data.size()) ^ 0xffffffffu;
}

void DigestStream::update(std::span<const std::uint8_t> data) {
  crc_ = kCrc32cUpdate(crc_, data.data(), data.size());
}

}  // namespace pa
