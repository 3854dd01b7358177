// Message buffers.
//
// A Message is an skb-style buffer: application payload sits at the tail and
// protocol headers are *pushed* in front of it (and popped off on receive),
// so neither engine ever copies the payload when adding or removing headers.
//
// Since the zero-copy refactor the two regions live in different storage:
//   - the header region is a small contiguous range inside a dedicated
//     refcounted chunk (headers grow downward from the chunk's end, exactly
//     like the old flat buffer's headroom);
//   - the payload is a *chain* of Slices into refcounted chunks;
//     fragmentation and packing slice and concatenate chains without
//     touching payload bytes.
//
// Two ways to copy a message, both sharing the payload chain by refcount:
//   - clone() copies the (tiny) header bytes into a private header chunk —
//     for a copy that will be patched (a retransmission marks itself) or
//     sent on its own (one multicast master per member);
//   - share() also shares the header chunk, frozen. The retransmission
//     stores (window, NAK history) keep a share(): no allocation beyond the
//     slice list, and resend_raw() clones it before patching.
//
// Mutation rules: the header chunk of a freshly built message is uniquely
// owned and writable (push()/filters/HeaderView write headers in place); an
// adopted wire frame's header bytes and a share()'s are frozen — push()
// copies on write. A message's headers are final once to_wire() hands them
// to the network: the frame, and any share(), read the same bytes. Payload
// bytes are frozen the moment a chain is shared (clone, share, to_wire,
// share_payload_range); nothing in the engines mutates payload after
// ingest. See docs/INTERNALS.md.
//
// Packet-filter DIGEST instructions and the packing machinery operate on the
// payload region only; payload_digest() walks the chain without flattening.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "buf/chunk.h"
#include "buf/wire_frame.h"

namespace pa {

/// Per-message scratch state carried alongside the buffer (like the Linux
/// skb control block): engines and layers use it to tag fragments and
/// protocol-generated messages without touching wire bytes.
struct MsgControl {
  bool is_frag = false;     // this message is one fragment of a larger one
  std::uint16_t frag_id = 0;
  std::uint8_t frag_index = 0;
  bool frag_last = false;
  bool protocol = false;    // generated by a layer (ack, ...), not the app
  bool retransmit = false;  // unusual: must carry connection identification
  bool comp_done = false;   // payload already compressed (skip re-transform)
  std::uint8_t wire_endian = 0;  // Endian of the frame this arrived in
};

class MessagePool;

class Message {
 public:
  static constexpr std::size_t kDefaultHeadroom = 160;

  MsgControl cb;

  /// Empty message with the given headroom and no payload.
  Message() : Message(kDefaultHeadroom) {}
  explicit Message(std::size_t headroom);

  /// A message whose payload is a copy of `payload`, with headroom in front
  /// for headers. This is what applications hand to send() — the one copy
  /// crossing the ownership boundary (counted as an ingest copy).
  static Message with_payload(std::span<const std::uint8_t> payload,
                              std::size_t headroom = kDefaultHeadroom);

  /// Zero-copy variant: take ownership of the caller's buffer; its storage
  /// becomes the payload chunk.
  static Message with_payload(std::vector<std::uint8_t>&& payload,
                              std::size_t headroom = kDefaultHeadroom);

  /// A message built from a received wire frame. The whole frame starts out
  /// as header-region-less payload; the receive path calls set_header_len()
  /// once it knows the compiled header size, then pops headers off.
  /// The WireFrame overload adopts the frame's chunks without copying.
  static Message from_wire(std::span<const std::uint8_t> frame);
  static Message from_wire(WireFrame&& frame);

  Message(Message&&) noexcept = default;
  Message& operator=(Message&&) noexcept = default;
  Message(const Message&) = delete;
  Message& operator=(const Message&) = delete;

  /// Copy for retransmission buffers: duplicates the header bytes (so later
  /// patches — the retransmit flag, a refreshed checksum — cannot corrupt
  /// in-flight frames or the stored original) and shares the payload chain
  /// by reference. No payload bytes are copied.
  Message clone() const;

  /// Copy for storage only: shares the header chunk as well as the payload
  /// chain (refcount bumps, no byte copied) and leaves the copy's headers
  /// frozen — a push() on it copies on write, and the bytes it reads are
  /// the ones this message already put on the wire. Callers that patch
  /// headers clone() instead.
  Message share() const;

  /// Prepend `n` header bytes; returns a pointer to the new front. Grows the
  /// header chunk (geometric doubling, copying only header bytes) if the
  /// headroom is exhausted; copies-on-write if the header bytes are shared
  /// with an adopted wire frame.
  std::uint8_t* push(std::size_t n);

  /// Remove `n` bytes from the front. Must not cross into the payload.
  void pop(std::size_t n);

  /// Declare that the first `n` bytes (from the current front) are headers;
  /// the rest is payload. Only valid for wire-frame messages whose header
  /// region is still empty.
  void set_header_len(std::size_t n);

  /// Append bytes to the payload by copying them into a fresh chunk
  /// (counted as an ingest copy; used by the packer's size array and tests).
  void append_payload(std::span<const std::uint8_t> data);

  /// Append a slice by reference (zero-copy).
  void append_slice(Slice s);

  /// Append another message's whole payload chain by reference (zero-copy;
  /// this is how the packer builds trains and reassembly splices fragments).
  void append_shared(const Message& src);

  /// A new message whose payload is [off, off+len) of this one's payload,
  /// shared by reference (zero-copy; fragmentation).
  Message share_payload_range(std::size_t off, std::size_t len,
                              std::size_t headroom = kDefaultHeadroom) const;

  /// Replace the whole payload chain with freshly produced bytes, adopting
  /// the vector's storage (headers untouched). This is the frame-codec
  /// seam: in-place payload mutation is forbidden (shared chains are
  /// frozen), so encryption/compression build new storage and swap it in.
  void replace_payload(std::vector<std::uint8_t>&& data);

  std::size_t size() const { return header_len() + plen_; }
  std::size_t header_len() const { return hend_ - hstart_; }
  std::size_t payload_len() const { return plen_; }
  std::size_t headroom() const { return head_owned_ ? hstart_ : 0; }

  std::uint8_t* front() {
    return head_ ? head_->data() + hstart_ : nullptr;
  }
  const std::uint8_t* front() const {
    return head_ ? head_->data() + hstart_ : nullptr;
  }

  /// Contiguous payload bytes. A single-slice chain (every steady-state
  /// message) is returned directly; a multi-slice chain is coalesced into
  /// one chunk first (counted — this only happens at the app-delivery
  /// boundary for packed trains and reassembled fragments).
  std::span<const std::uint8_t> payload() const;

  /// CRC32C of the payload computed by walking the chain — no flattening.
  std::uint64_t payload_digest() const;

  /// The payload chain (possibly several slices).
  const std::vector<Slice>& payload_slices() const { return chain_; }

  template <typename F>
  void for_each_payload(F&& f) const {
    for (const Slice& s : chain_) f(s.span());
  }

  /// Header bytes currently pushed (front .. payload begin).
  std::span<std::uint8_t> headers() { return {front(), header_len()}; }
  std::span<const std::uint8_t> headers() const {
    return {front(), header_len()};
  }

  /// The message as a wire frame: header slice + payload chain, all by
  /// reference (zero-copy; refcounts pin the bytes while the frame is in
  /// flight).
  WireFrame to_wire() const;

  /// Total bytes of backing storage (for allocation accounting). Matches
  /// the flat buffer's numbers: header-chunk capacity plus payload length,
  /// stable across push/pop.
  std::size_t capacity() const { return hdr_acct_ + plen_; }

  /// Headroom-exhaustion regrowths this message performed (accumulated into
  /// PoolStats::headroom_regrow when the message is released).
  std::uint32_t regrows() const { return regrows_; }

 private:
  friend class MessagePool;

  struct FromPool {};
  Message(FromPool, ChunkRef head);

  void coalesce_payload() const;
  /// Take `src`'s payload chain by reference (clone()/share()).
  void share_chain_of(const Message& src);

  ChunkRef head_;            // header chunk (null until first push/set)
  std::size_t hstart_ = 0;   // first header byte within head_
  std::size_t hend_ = 0;     // one past last header byte within head_
  std::size_t hdr_acct_ = 0;  // header storage charged to capacity()
  bool head_owned_ = true;   // head_ uniquely ours => writable in place
  // Payload chain; mutable so payload() can coalesce lazily. Messages are
  // confined to one engine at a time (engine lock), so this is not a
  // concurrency hazard.
  mutable std::vector<Slice> chain_;
  std::size_t plen_ = 0;     // cached sum of chain lengths
  std::uint32_t regrows_ = 0;
  // Virtual size this message was acquired at (headroom + payload capacity).
  // Payload chunks materialize lazily, so at release time capacity() may be
  // smaller than what the caller reserved; the pool caches the reserved
  // size, matching the flat-buffer pool's reuse behaviour.
  std::size_t pool_vsize_ = 0;
};

}  // namespace pa
