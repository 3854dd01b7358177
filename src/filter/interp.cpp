#include "filter/interp.h"

#include <array>
#include <cassert>

#include "util/checksum.h"

namespace pa {

std::uint64_t wide_digest(const HeaderView& hdr, const Message& msg) {
  const CompiledLayout* lay = hdr.layout();
  // Covered header bytes are few (tens): mask them through a small stack
  // buffer, then stream the payload chain through the digest without
  // flattening or concatenating anything. DigestStream gives the same
  // result however its input is split.
  DigestStream ds;
  if (lay != nullptr) {
    std::array<std::uint8_t, 64> buf{};
    std::size_t n = 0;
    for (std::size_t r = 0; r < lay->num_regions(); ++r) {
      const auto& mask = lay->digest_mask(r);
      const std::uint8_t* base = hdr.region(r);
      if (mask.empty() || base == nullptr) continue;
      for (std::size_t i = 0; i < mask.size(); ++i) {
        if (n == buf.size()) {
          ds.update(buf);
          n = 0;
        }
        buf[n++] = static_cast<std::uint8_t>(base[i] & mask[i]);
      }
    }
    ds.update(std::span<const std::uint8_t>(buf.data(), n));
  }
  msg.for_each_payload([&](std::span<const std::uint8_t> s) { ds.update(s); });
  return ds.finish();
}

std::int64_t run_filter(const FilterProgram& program, HeaderView& hdr,
                        const Message& msg) {
  assert(program.validated() && "run_filter requires a validated program");
  // The validator computed the exact stack need; a small fixed buffer
  // suffices for any realistic program ("typically just a few entries").
  std::uint64_t stack[64];
  assert(program.max_stack_depth() <= 64);
  std::size_t sp = 0;

  for (const FilterInstr& in : program.code()) {
    switch (in.op) {
      case FilterOp::kPushConst:
        stack[sp++] = static_cast<std::uint64_t>(in.imm);
        break;
      case FilterOp::kPushField:
        stack[sp++] = hdr.get(in.field);
        break;
      case FilterOp::kPushSize:
        stack[sp++] = msg.payload_len();
        break;
      case FilterOp::kDigest:
        stack[sp++] = in.wide ? wide_digest(hdr, msg) : msg.payload_digest();
        break;
      case FilterOp::kPopField:
        hdr.set(in.field, stack[--sp]);
        break;
      case FilterOp::kReturn:
        return in.imm;
      case FilterOp::kAbort:
        if (stack[--sp] != 0) return in.imm;
        break;
      default: {
        std::uint64_t b = stack[--sp];
        std::uint64_t a = stack[--sp];
        std::uint64_t r = 0;
        switch (in.op) {
          case FilterOp::kAdd: r = a + b; break;
          case FilterOp::kSub: r = a - b; break;
          case FilterOp::kMul: r = a * b; break;
          case FilterOp::kDiv:
            if (b == 0) return 0;  // fault: fail safe
            r = a / b;
            break;
          case FilterOp::kMod:
            if (b == 0) return 0;
            r = a % b;
            break;
          case FilterOp::kAnd: r = a & b; break;
          case FilterOp::kOr: r = a | b; break;
          case FilterOp::kXor: r = a ^ b; break;
          case FilterOp::kShl: r = b >= 64 ? 0 : a << b; break;
          case FilterOp::kShr: r = b >= 64 ? 0 : a >> b; break;
          case FilterOp::kEq: r = a == b; break;
          case FilterOp::kNe: r = a != b; break;
          case FilterOp::kLt: r = a < b; break;
          case FilterOp::kLe: r = a <= b; break;
          case FilterOp::kGt: r = a > b; break;
          case FilterOp::kGe: r = a >= b; break;
          default: assert(false && "unreachable");
        }
        stack[sp++] = r;
      }
    }
  }
  // Validator guarantees a terminal RETURN.
  assert(false && "fell off end of validated program");
  return 0;
}

}  // namespace pa
