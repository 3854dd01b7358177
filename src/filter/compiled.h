// Compiled packet filters.
//
// The paper notes (§3.3): "in the Exokernel project, a significant
// performance improvement was obtained by compiling packet filter programs
// into machine code. We intend to adopt this approach eventually." This
// backend is that adoption, in portable form: at compile() time the program
// is specialized against a fixed CompiledLayout and wire byte order —
// field handles resolve to direct (region, byte-offset, width) accessors,
// endian swaps are decided once, and common instruction sequences are fused
// into superops (store-size, store-digest, check-digest, check-size,
// bounds-check), eliminating per-instruction dispatch and lookup overhead.
//
// bench_filter measures interpreter vs. compiled throughput.
#pragma once

#include <cstdint>
#include <vector>

#include "buf/message.h"
#include "filter/program.h"
#include "layout/view.h"

namespace pa {

class CompiledFilter {
 public:
  CompiledFilter() = default;

  /// Specialize `program` (must be validated) against a layout and wire
  /// byte order.
  static CompiledFilter compile(const FilterProgram& program,
                                const CompiledLayout& layout,
                                Endian wire_endian);

  /// Execute. `hdr` supplies the region base pointers only; all field
  /// resolution was done at compile time. Must be the same layout.
  std::int64_t run(const HeaderView& hdr, const Message& msg) const;

  bool empty() const { return code_.empty(); }
  std::size_t size() const { return code_.size(); }

  /// Number of fused superops emitted (for tests / diagnostics).
  std::size_t fused_count() const { return fused_; }

 private:
  // Resolved field accessor: no layout lookups at run time.
  struct RField {
    std::uint16_t region = 0;
    std::uint32_t byte_off = 0;   // aligned access
    std::uint8_t bytes = 0;
    bool aligned = false;
    bool swap = false;            // aligned access needs byte swap
    std::uint32_t bit_off = 0;    // generic access
    std::uint16_t bits = 0;
  };

  enum class COp : std::uint8_t {
    kPushConst,
    kPushField,
    kPushSize,
    kDigest,
    kPopField,
    kAdd, kSub, kMul, kDiv, kMod, kAnd, kOr, kXor, kShl, kShr,
    kEq, kNe, kLt, kLe, kGt, kGe,
    kReturn,
    kAbort,
    // Fused superops:
    kStoreSize,        // field := payload size
    kStoreDigest,      // field := digest(payload)
    kCheckDigest,      // if field != digest(payload) return imm
    kCheckSizeField,   // if payload size != field return imm
    kCheckSizeMax,     // if payload size > const return imm
    kCheckFieldConst,  // if field CMP const return imm (CMP in cmp)
  };

  struct CInstr {
    COp op;
    std::int64_t imm = 0;
    std::uint64_t konst = 0;
    RField field{};
    FilterOp cmp = FilterOp::kEq;  // for kCheckFieldConst
    bool wide = false;             // digest covers header regions too
  };

  static RField resolve(FieldHandle h, const CompiledLayout& layout,
                        Endian wire_endian);
  static std::uint64_t load(const RField& f, const HeaderView& hdr);
  static void store(const RField& f, const HeaderView& hdr, std::uint64_t v);

  std::vector<CInstr> code_;
  std::size_t fused_ = 0;
};

}  // namespace pa
