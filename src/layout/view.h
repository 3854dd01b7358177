// Byte-order-aware header field access (paper §2.1: "The PA provides a set
// of functions to read or write a field. The functions take byte-ordering
// into account, so that layers do not have to worry about communicating
// between heterogeneous machines.").
//
// A HeaderView binds a CompiledLayout to the in-memory header regions of one
// message. The engine points each region at its bytes (regions may be
// scattered: the PA's conn-ident region is optional on the wire), then
// layers and filters get()/set() fields through handles.
//
// Semantics: multi-byte byte-aligned fields are stored in the *wire* byte
// order (the sender's native order, advertised by the preamble's byte-order
// bit — the homogeneous fast path pays no swap). Sub-byte and unaligned
// fields use MSB-first bit order within the region's byte stream, which is
// endianness-independent.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>

#include "layout/layout.h"
#include "util/byte_order.h"

namespace pa {

class HeaderView {
 public:
  static constexpr std::size_t kMaxRegions = 40;

  HeaderView() = default;
  /// Every region of the layout starts unbound (null); slots past
  /// layout->num_regions() are left unset and must not be touched.
  HeaderView(const CompiledLayout* layout, Endian wire_endian)
      : layout_(layout), wire_endian_(wire_endian) {
    assert(layout->num_regions() <= kMaxRegions);
    std::fill_n(bases_.begin(), layout->num_regions(), nullptr);
  }

  void set_region(std::size_t region, std::uint8_t* base) {
    assert(layout_ != nullptr && region < layout_->num_regions());
    bases_[region] = base;
  }
  std::uint8_t* region(std::size_t r) const {
    assert(layout_ != nullptr && r < layout_->num_regions());
    return bases_[r];
  }

  const CompiledLayout* layout() const { return layout_; }
  Endian wire_endian() const { return wire_endian_; }

  std::uint64_t get(FieldHandle h) const;
  void set(FieldHandle h, std::uint64_t value);

 private:
  const CompiledLayout* layout_ = nullptr;
  Endian wire_endian_ = host_endian();
  std::array<std::uint8_t*, kMaxRegions> bases_;  // see the constructor
};

}  // namespace pa
