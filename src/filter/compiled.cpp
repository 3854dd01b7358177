#include "filter/compiled.h"

#include <cassert>
#include <cstring>

#include "filter/interp.h"
#include "util/byte_order.h"

namespace pa {

CompiledFilter::RField CompiledFilter::resolve(FieldHandle h,
                                               const CompiledLayout& layout,
                                               Endian wire_endian) {
  const PlacedField& p = layout.field(h);
  RField f;
  f.region = p.region;
  f.aligned = p.aligned;
  f.bit_off = p.bit_offset;
  f.bits = p.bits;
  if (p.aligned) {
    f.byte_off = p.bit_offset / 8;
    f.bytes = static_cast<std::uint8_t>(p.bits / 8);
    f.swap = wire_endian != host_endian() && f.bytes > 1;
  }
  return f;
}

std::uint64_t CompiledFilter::load(const RField& f, const HeaderView& hdr) {
  const std::uint8_t* base = hdr.region(f.region);
  assert(base != nullptr);
  if (f.aligned) {
    std::uint64_t v = 0;
    std::memcpy(&v, base + f.byte_off, f.bytes);  // host little-endian load
    if constexpr (host_endian() == Endian::kBig) {
      v = bswap64(v) >> (64 - 8 * f.bytes);
    }
    if (f.swap) v = bswap_n(v, f.bytes);
    return v;
  }
  std::uint64_t v = 0;
  for (unsigned i = 0; i < f.bits; ++i) {
    std::uint32_t pos = f.bit_off + i;
    v = (v << 1) | ((base[pos / 8] >> (7 - pos % 8)) & 1u);
  }
  return v;
}

void CompiledFilter::store(const RField& f, const HeaderView& hdr,
                           std::uint64_t v) {
  std::uint8_t* base = hdr.region(f.region);
  assert(base != nullptr);
  if (f.aligned) {
    if (f.swap) v = bswap_n(v, f.bytes);
    if constexpr (host_endian() == Endian::kBig) {
      v = bswap64(v << (64 - 8 * f.bytes));
    }
    std::memcpy(base + f.byte_off, &v, f.bytes);
    return;
  }
  for (unsigned i = 0; i < f.bits; ++i) {
    std::uint32_t pos = f.bit_off + i;
    std::uint8_t bit = (v >> (f.bits - 1 - i)) & 1u;
    std::uint8_t mask = static_cast<std::uint8_t>(1u << (7 - pos % 8));
    if (bit) {
      base[pos / 8] |= mask;
    } else {
      base[pos / 8] &= static_cast<std::uint8_t>(~mask);
    }
  }
}

namespace {

bool is_cmp(FilterOp op) {
  switch (op) {
    case FilterOp::kEq:
    case FilterOp::kNe:
    case FilterOp::kLt:
    case FilterOp::kLe:
    case FilterOp::kGt:
    case FilterOp::kGe:
      return true;
    default:
      return false;
  }
}

bool eval_cmp(FilterOp op, std::uint64_t a, std::uint64_t b) {
  switch (op) {
    case FilterOp::kEq: return a == b;
    case FilterOp::kNe: return a != b;
    case FilterOp::kLt: return a < b;
    case FilterOp::kLe: return a <= b;
    case FilterOp::kGt: return a > b;
    case FilterOp::kGe: return a >= b;
    default: return false;
  }
}

}  // namespace

CompiledFilter CompiledFilter::compile(const FilterProgram& program,
                                       const CompiledLayout& layout,
                                       Endian wire_endian) {
  assert(program.validated() && "compile requires a validated program");
  CompiledFilter out;
  const auto& code = program.code();
  std::size_t i = 0;
  auto at = [&](std::size_t k) -> const FilterInstr& { return code[i + k]; };
  auto remaining = [&] { return code.size() - i; };

  while (i < code.size()) {
    // ---- peephole fusion --------------------------------------------
    // PUSH_SIZE POP_FIELD                    -> StoreSize
    if (remaining() >= 2 && at(0).op == FilterOp::kPushSize &&
        at(1).op == FilterOp::kPopField) {
      CInstr c{COp::kStoreSize};
      c.field = resolve(at(1).field, layout, wire_endian);
      out.code_.push_back(c);
      ++out.fused_;
      i += 2;
      continue;
    }
    // DIGEST POP_FIELD                       -> StoreDigest
    if (remaining() >= 2 && at(0).op == FilterOp::kDigest &&
        at(1).op == FilterOp::kPopField) {
      CInstr c{COp::kStoreDigest};
      c.wide = at(0).wide;
      c.field = resolve(at(1).field, layout, wire_endian);
      out.code_.push_back(c);
      ++out.fused_;
      i += 2;
      continue;
    }
    // PUSH_FIELD DIGEST NE ABORT             -> CheckDigest
    if (remaining() >= 4 && at(0).op == FilterOp::kPushField &&
        at(1).op == FilterOp::kDigest && at(2).op == FilterOp::kNe &&
        at(3).op == FilterOp::kAbort) {
      CInstr c{COp::kCheckDigest};
      c.field = resolve(at(0).field, layout, wire_endian);
      c.wide = at(1).wide;
      c.imm = at(3).imm;
      out.code_.push_back(c);
      ++out.fused_;
      i += 4;
      continue;
    }
    // PUSH_SIZE PUSH_FIELD NE ABORT          -> CheckSizeField
    if (remaining() >= 4 && at(0).op == FilterOp::kPushSize &&
        at(1).op == FilterOp::kPushField && at(2).op == FilterOp::kNe &&
        at(3).op == FilterOp::kAbort) {
      CInstr c{COp::kCheckSizeField};
      c.field = resolve(at(1).field, layout, wire_endian);
      c.imm = at(3).imm;
      out.code_.push_back(c);
      ++out.fused_;
      i += 4;
      continue;
    }
    // PUSH_SIZE PUSH_CONST GT ABORT          -> CheckSizeMax
    if (remaining() >= 4 && at(0).op == FilterOp::kPushSize &&
        at(1).op == FilterOp::kPushConst && at(2).op == FilterOp::kGt &&
        at(3).op == FilterOp::kAbort) {
      CInstr c{COp::kCheckSizeMax};
      c.konst = static_cast<std::uint64_t>(at(1).imm);
      c.imm = at(3).imm;
      out.code_.push_back(c);
      ++out.fused_;
      i += 4;
      continue;
    }
    // PUSH_FIELD PUSH_CONST <cmp> ABORT      -> CheckFieldConst
    if (remaining() >= 4 && at(0).op == FilterOp::kPushField &&
        at(1).op == FilterOp::kPushConst && is_cmp(at(2).op) &&
        at(3).op == FilterOp::kAbort) {
      CInstr c{COp::kCheckFieldConst};
      c.field = resolve(at(0).field, layout, wire_endian);
      c.konst = static_cast<std::uint64_t>(at(1).imm);
      c.cmp = at(2).op;
      c.imm = at(3).imm;
      out.code_.push_back(c);
      ++out.fused_;
      i += 4;
      continue;
    }

    // ---- 1:1 translation with resolved fields ------------------------
    const FilterInstr& in = at(0);
    CInstr c{static_cast<COp>(0)};
    switch (in.op) {
      case FilterOp::kPushConst: c.op = COp::kPushConst; c.imm = in.imm; break;
      case FilterOp::kPushField:
        c.op = COp::kPushField;
        c.field = resolve(in.field, layout, wire_endian);
        break;
      case FilterOp::kPushSize: c.op = COp::kPushSize; break;
      case FilterOp::kDigest:
        c.op = COp::kDigest;
        c.wide = in.wide;
        break;
      case FilterOp::kPopField:
        c.op = COp::kPopField;
        c.field = resolve(in.field, layout, wire_endian);
        break;
      case FilterOp::kAdd: c.op = COp::kAdd; break;
      case FilterOp::kSub: c.op = COp::kSub; break;
      case FilterOp::kMul: c.op = COp::kMul; break;
      case FilterOp::kDiv: c.op = COp::kDiv; break;
      case FilterOp::kMod: c.op = COp::kMod; break;
      case FilterOp::kAnd: c.op = COp::kAnd; break;
      case FilterOp::kOr: c.op = COp::kOr; break;
      case FilterOp::kXor: c.op = COp::kXor; break;
      case FilterOp::kShl: c.op = COp::kShl; break;
      case FilterOp::kShr: c.op = COp::kShr; break;
      case FilterOp::kEq: c.op = COp::kEq; break;
      case FilterOp::kNe: c.op = COp::kNe; break;
      case FilterOp::kLt: c.op = COp::kLt; break;
      case FilterOp::kLe: c.op = COp::kLe; break;
      case FilterOp::kGt: c.op = COp::kGt; break;
      case FilterOp::kGe: c.op = COp::kGe; break;
      case FilterOp::kReturn: c.op = COp::kReturn; c.imm = in.imm; break;
      case FilterOp::kAbort: c.op = COp::kAbort; c.imm = in.imm; break;
    }
    out.code_.push_back(c);
    ++i;
  }
  return out;
}

std::int64_t CompiledFilter::run(const HeaderView& hdr,
                                 const Message& msg) const {
  std::uint64_t stack[64];
  std::size_t sp = 0;

  for (const CInstr& c : code_) {
    switch (c.op) {
      case COp::kStoreSize:
        store(c.field, hdr, msg.payload_len());
        break;
      case COp::kStoreDigest:
        store(c.field, hdr,
              c.wide ? wide_digest(hdr, msg) : msg.payload_digest());
        break;
      case COp::kCheckDigest:
        if (load(c.field, hdr) !=
            (c.wide ? wide_digest(hdr, msg) : msg.payload_digest())) {
          return c.imm;
        }
        break;
      case COp::kCheckSizeField:
        if (msg.payload_len() != load(c.field, hdr)) return c.imm;
        break;
      case COp::kCheckSizeMax:
        if (msg.payload_len() > c.konst) return c.imm;
        break;
      case COp::kCheckFieldConst:
        if (eval_cmp(c.cmp, load(c.field, hdr), c.konst)) return c.imm;
        break;
      case COp::kPushConst:
        stack[sp++] = static_cast<std::uint64_t>(c.imm);
        break;
      case COp::kPushField:
        stack[sp++] = load(c.field, hdr);
        break;
      case COp::kPushSize:
        stack[sp++] = msg.payload_len();
        break;
      case COp::kDigest:
        stack[sp++] = c.wide ? wide_digest(hdr, msg) : msg.payload_digest();
        break;
      case COp::kPopField:
        store(c.field, hdr, stack[--sp]);
        break;
      case COp::kReturn:
        return c.imm;
      case COp::kAbort:
        if (stack[--sp] != 0) return c.imm;
        break;
      default: {
        std::uint64_t b = stack[--sp];
        std::uint64_t a = stack[--sp];
        std::uint64_t r = 0;
        switch (c.op) {
          case COp::kAdd: r = a + b; break;
          case COp::kSub: r = a - b; break;
          case COp::kMul: r = a * b; break;
          case COp::kDiv:
            if (b == 0) return 0;
            r = a / b;
            break;
          case COp::kMod:
            if (b == 0) return 0;
            r = a % b;
            break;
          case COp::kAnd: r = a & b; break;
          case COp::kOr: r = a | b; break;
          case COp::kXor: r = a ^ b; break;
          case COp::kShl: r = b >= 64 ? 0 : a << b; break;
          case COp::kShr: r = b >= 64 ? 0 : a >> b; break;
          case COp::kEq: r = a == b; break;
          case COp::kNe: r = a != b; break;
          case COp::kLt: r = a < b; break;
          case COp::kLe: r = a <= b; break;
          case COp::kGt: r = a > b; break;
          case COp::kGe: r = a >= b; break;
          default: assert(false && "unreachable");
        }
        stack[sp++] = r;
      }
    }
  }
  assert(false && "fell off end of compiled program");
  return 0;
}

}  // namespace pa
