// A wire frame as a gather list.
//
// Engines hand the network a WireFrame — an ordered list of Slices into
// refcounted chunks — instead of a flat byte vector. On the send path the
// frame references the message's header chunk and payload chain directly
// (zero copies); the real UDP transport gathers the slices with sendmsg(2)
// and the simulated network carries them through the event queue and hands
// them to the receiving engine still chained. Legacy consumers (flat-vector
// Envs, taps, golden-frame tests) call flatten().
//
// A WireFrame is cheap to copy (slice vector + refcount bumps), which the
// simulator's duplication fault and std::function captures rely on. The
// bytes it references are frozen while shared (chunk contract, buf/chunk.h);
// the fault injectors that must mutate a frame in flight go through
// mutable_byte() / truncate(), which copy-on-write respectively trim slices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "buf/chunk.h"

namespace pa {

class WireFrame {
 public:
  WireFrame() = default;

  /// Wrap an existing byte vector as a single-chunk frame. Zero-copy: the
  /// vector's buffer becomes the chunk's storage.
  static WireFrame adopt(std::vector<std::uint8_t> bytes);

  /// Build a frame by copying borrowed bytes (counted as an ingest copy).
  static WireFrame copy_of(std::span<const std::uint8_t> bytes);

  void append(Slice s);
  void reserve(std::size_t slices) { slices_.reserve(slices); }

  std::size_t size() const { return total_; }
  bool empty() const { return total_ == 0; }
  std::size_t num_slices() const { return slices_.size(); }
  const std::vector<Slice>& slices() const { return slices_; }

  /// The first slice's bytes — enough for preamble / identification peeks
  /// on every frame our engines emit (the whole header region is one slice).
  std::span<const std::uint8_t> first() const {
    return slices_.empty() ? std::span<const std::uint8_t>{}
                           : slices_.front().span();
  }

  /// A contiguous view of the first min(n, size()) bytes. Returns a direct
  /// span into the first slice when it covers the range; otherwise copies
  /// into `scratch` (defensive — engines never produce such frames).
  std::span<const std::uint8_t> prefix(std::size_t n,
                                       std::vector<std::uint8_t>& scratch)
      const;

  /// One flat copy of the whole frame (counted as a flatten).
  std::vector<std::uint8_t> flatten() const;

  /// A frame with the same bytes in private chunks (counted as a data-plane
  /// copy; used by the simulator's duplication fault so the two deliveries
  /// cannot alias each other's header mutations).
  WireFrame deep_copy() const;

  /// Cut the frame to its first n bytes by trimming the slice list.
  void truncate(std::size_t n);

  /// Mutable access to byte i for in-flight corruption: if the owning chunk
  /// is shared, the slice is first copied into a private chunk (CoW) so no
  /// other holder observes the flip.
  std::uint8_t* mutable_byte(std::size_t i);

  template <typename F>
  void for_each(F&& f) const {
    for (const Slice& s : slices_) f(s.span());
  }

  /// Move the slice list out (Message::from_wire adoption); leaves the
  /// frame empty.
  std::vector<Slice> take_slices() && {
    total_ = 0;
    return std::move(slices_);
  }

 private:
  std::vector<Slice> slices_;
  std::size_t total_ = 0;
};

}  // namespace pa
