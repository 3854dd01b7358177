// Packet-filter instruction set (paper Table 2).
//
// The filter is a loop-free stack machine that runs over a message's
// headers. It is used in *both* directions (§3.3): the send filter fills in
// message-specific fields (POP_FIELD is a store!) and can reject a message
// (falling back to the full protocol stack); the delivery filter verifies
// message-specific information (checksum, length) and drops garbage.
//
// There are no jumps, so every program terminates and its exact stack needs
// can be computed statically (see FilterProgram::validate()).
#pragma once

#include <cstdint>

#include "layout/field.h"

namespace pa {

enum class FilterOp : std::uint8_t {
  kPushConst,  // push imm
  kPushField,  // push header field
  kPushSize,   // push the message's payload size in bytes
  kDigest,     // push a digest of the message payload
  kPopField,   // pop top of stack into a header field
  // Arithmetic / bitwise on the top two entries: [.., a, b] -> [.., a OP b].
  // All values are unsigned 64-bit with wraparound.
  kAdd,
  kSub,
  kMul,
  kDiv,   // division by zero makes the program fail (returns 0)
  kMod,
  kAnd,
  kOr,
  kXor,
  kShl,
  kShr,
  // Comparisons: [.., a, b] -> [.., a CMP b ? 1 : 0] (unsigned).
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kReturn,  // return imm
  kAbort,   // pop top; if non-zero, return imm
};

struct FilterInstr {
  FilterOp op;
  std::int64_t imm = 0;
  FieldHandle field{};
  // DIGEST only: cover the predictable header regions (everything except
  // conn-ident and msg-spec bits, per CompiledLayout::digest_mask) in
  // addition to the payload. Protects sequence numbers and packing
  // descriptors from corruption the payload-only digest cannot see.
  bool wide = false;
};

const char* filter_op_name(FilterOp op);

/// Stack effect of an op: how many entries it pops and pushes.
struct StackEffect {
  int pops;
  int pushes;
};
StackEffect filter_op_effect(FilterOp op);

}  // namespace pa
