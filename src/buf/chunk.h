// Reference-counted storage chunks — the unit of sharing in the zero-copy
// message path.
//
// A Chunk owns one contiguous byte array. Messages, wire frames and the
// retransmission buffers all hold Slices (chunk + offset + length) into
// shared chunks instead of copying bytes: clone() and share() bump
// refcounts, the packer chains slices from many messages into one frame,
// and the simulated network delivers a frame's slices to the receiver
// untouched.
//
// Storage: ChunkRef::make / make_uninit allocate the control block and the
// bytes together — one heap block, the bytes inline right after the Chunk —
// so a chunk costs one allocation. ChunkRef::adopt_vector keeps the
// caller's vector as the storage (adoption copies nothing). make() zeroes
// its bytes; make_uninit() leaves them as the allocator returned them and is
// only for storage that is written in full before anyone reads it (receive
// slots, ingest copies, coalesced or copied-on-write frames). Builds without
// NDEBUG fill make_uninit() storage with kUninitPoison, so a read of a byte
// nobody wrote shows as a fixed pattern in tests and goldens.
//
// Ownership rules (see docs/INTERNALS.md, "Buffer management"):
//   - refcount 1  => the holder may mutate the chunk's bytes in place.
//   - refcount >1 => the bytes are frozen; a writer must copy first
//     (copy-on-write) and leave the other holders' view intact.
//   - a chunk is freed when its last reference drops. MessagePool holds no
//     chunk references (it only accounts sizes for the GC model); the one
//     physical recycler is the real loop's receive-buffer cache, which
//     reuses a chunk only once its refcount has returned to 1.
//
// Like every other object in the tree, a chain belongs to one thread
// (docs/INTERNALS.md, "Threading contract"): the refcount is a plain
// integer and all chunk state is plain data guarded by the rules above.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "util/stat_fields.h"

namespace pa {

/// Process-global data-plane copy accounting, bumped and read on the one
/// thread. The fields stay atomic for one reason only: wallbench/
/// main.cpp reads five of them with .load(). The split matters:
///   - ingest_*  : bytes copied across the application boundary (send(span)
///     hands us borrowed memory — one copy is the price of admission unless
///     the caller transfers ownership of a vector).
///   - memcpy_*  : bytes copied *inside* the data plane after ingest. The
///     zero-copy invariant is that the steady-state predicted path keeps
///     these at zero; tests assert it.
///   - flatten_* : copies made to present a chained frame contiguously to a
///     legacy consumer (an Env that only accepts flat vectors, a debug tap,
///     a golden-frame test). Kept separate from memcpy_* because they are
///     observation-boundary costs, not data-plane costs.
/// One row per field (util/stat_fields.h).
#define PA_BUF_STATS(X)                                                        \
  X(std::atomic<std::uint64_t>, ingest_copies, "ingest_copies_total", "",      \
    "payload copies crossing the application boundary")                        \
  X(std::atomic<std::uint64_t>, ingest_bytes, "ingest_bytes_total", "bytes",   \
    "payload bytes copied crossing the application boundary")                  \
  X(std::atomic<std::uint64_t>, memcpy_count, "memcpy_total", "",              \
    "data-plane payload copies after ingest (zero on the steady-state path)")  \
  X(std::atomic<std::uint64_t>, memcpy_bytes, "memcpy_bytes_total", "bytes",   \
    "data-plane payload bytes copied after ingest")                            \
  X(std::atomic<std::uint64_t>, flattens, "flattens_total", "",                \
    "chained frames flattened for a legacy consumer or tap")                   \
  X(std::atomic<std::uint64_t>, flatten_bytes, "flatten_bytes_total", "bytes", \
    "bytes copied by flattening")                                              \
  X(std::atomic<std::uint64_t>, cow_copies, "cow_copies_total", "",            \
    "copy-on-write header copies (shared chunk written)")                      \
  X(std::atomic<std::uint64_t>, chain_clones, "chain_clones_total", "",        \
    "message clones and shares that took the payload chain by refcount")       \
  X(std::atomic<std::uint64_t>, chain_clone_bytes_shared,                      \
    "chain_clone_bytes_shared_total", "bytes",                                 \
    "payload bytes shared (not copied) by chain clones")                       \
  X(std::atomic<std::uint64_t>, headroom_regrows, "headroom_regrows_total",    \
    "", "header pushes that outgrew the headroom and reallocated")             \
  X(std::atomic<std::uint64_t>, chunks_allocated, "chunks_allocated_total",    \
    "", "chunks allocated")                                                    \
  X(std::atomic<std::uint64_t>, chunks_recycled, "chunks_recycled_total", "",  \
    "chunks recycled from the pool (reads 0: the pool only accounts)")

struct BufStats {
  static constexpr const char* kMetricPrefix = "buf";
  PA_STAT_FIELDS(PA_BUF_STATS)
};

BufStats& buf_stats();

class Chunk;
void chunk_ref(Chunk* c) noexcept;
void chunk_unref(Chunk* c) noexcept;

/// Byte pattern make_uninit() writes in builds without NDEBUG.
inline constexpr std::uint8_t kUninitPoison = 0xA5;

/// One refcounted byte array. Created with refcount 1 (the creating
/// ChunkRef) by ChunkRef's factories only; destroyed when the last
/// reference drops.
class Chunk {
 public:
  Chunk(const Chunk&) = delete;
  Chunk& operator=(const Chunk&) = delete;

  std::uint8_t* data() noexcept { return bytes_; }
  const std::uint8_t* data() const noexcept { return bytes_; }
  std::size_t size() const noexcept { return size_; }

  std::uint32_t refs() const noexcept { return refs_; }
  bool unique() const noexcept { return refs() == 1; }

 private:
  friend class ChunkRef;
  friend void chunk_ref(Chunk*) noexcept;
  friend void chunk_unref(Chunk*) noexcept;

  Chunk(std::uint8_t* bytes, std::size_t size,
        std::vector<std::uint8_t> adopted) noexcept
      : size_(size), bytes_(bytes), adopted_(std::move(adopted)) {
    ++buf_stats().chunks_allocated;
  }
  ~Chunk() = default;

  /// One block: the Chunk, then `size` inline bytes.
  static Chunk* create(std::size_t size, bool zero) {
    void* mem = ::operator new(sizeof(Chunk) + size);
    auto* bytes = static_cast<std::uint8_t*>(mem) + sizeof(Chunk);
    if (zero) {
      std::memset(bytes, 0, size);
    } else {
#ifndef NDEBUG
      std::memset(bytes, kUninitPoison, size);
#endif
    }
    return ::new (mem) Chunk(bytes, size, {});
  }
  static Chunk* adopt(std::vector<std::uint8_t> v) {
    void* mem = ::operator new(sizeof(Chunk));
    std::uint8_t* bytes = v.data();
    const std::size_t size = v.size();
    return ::new (mem) Chunk(bytes, size, std::move(v));
  }
  static void destroy(Chunk* c) noexcept {
    c->~Chunk();
    ::operator delete(static_cast<void*>(c));
  }

  std::uint32_t refs_ = 1;
  std::size_t size_;
  std::uint8_t* bytes_;  // inline after *this, or adopted_'s buffer
  std::vector<std::uint8_t> adopted_;  // empty unless adopt_vector
};

inline void chunk_ref(Chunk* c) noexcept { ++c->refs_; }

inline void chunk_unref(Chunk* c) noexcept {
  if (--c->refs_ == 0) Chunk::destroy(c);
}

/// Intrusive smart pointer over Chunk.
class ChunkRef {
 public:
  ChunkRef() = default;
  explicit ChunkRef(Chunk* adopt) : c_(adopt) {}  // takes the initial ref
  ChunkRef(const ChunkRef& o) : c_(o.c_) {
    if (c_ != nullptr) chunk_ref(c_);
  }
  ChunkRef(ChunkRef&& o) noexcept : c_(std::exchange(o.c_, nullptr)) {}
  ChunkRef& operator=(const ChunkRef& o) {
    if (this != &o) {
      if (o.c_ != nullptr) chunk_ref(o.c_);
      if (c_ != nullptr) chunk_unref(c_);
      c_ = o.c_;
    }
    return *this;
  }
  ChunkRef& operator=(ChunkRef&& o) noexcept {
    if (this != &o) {
      if (c_ != nullptr) chunk_unref(c_);
      c_ = std::exchange(o.c_, nullptr);
    }
    return *this;
  }
  ~ChunkRef() {
    if (c_ != nullptr) chunk_unref(c_);
  }

  /// `size` zeroed bytes in one allocation.
  static ChunkRef make(std::size_t size) {
    return ChunkRef(Chunk::create(size, /*zero=*/true));
  }
  /// `size` bytes in one allocation, left unwritten (poisoned without
  /// NDEBUG). Only for storage the caller overwrites in full before any
  /// read.
  static ChunkRef make_uninit(std::size_t size) {
    return ChunkRef(Chunk::create(size, /*zero=*/false));
  }
  /// The vector's buffer becomes the chunk's storage; no byte is copied.
  static ChunkRef adopt_vector(std::vector<std::uint8_t> bytes) {
    return ChunkRef(Chunk::adopt(std::move(bytes)));
  }

  Chunk* get() const noexcept { return c_; }
  Chunk* operator->() const noexcept { return c_; }
  Chunk& operator*() const noexcept { return *c_; }
  explicit operator bool() const noexcept { return c_ != nullptr; }
  void reset() {
    if (c_ != nullptr) chunk_unref(c_);
    c_ = nullptr;
  }

 private:
  Chunk* c_ = nullptr;
};

/// A view of `len` bytes starting at `off` inside a shared chunk. Copying a
/// Slice is a refcount bump, never a byte copy.
struct Slice {
  ChunkRef chunk;
  std::size_t off = 0;
  std::size_t len = 0;

  std::span<const std::uint8_t> span() const {
    return {chunk->data() + off, len};
  }
};

}  // namespace pa
