// Reference-counted storage chunks — the unit of sharing in the zero-copy
// message path.
//
// A Chunk owns one contiguous byte array. Messages, wire frames and the
// retransmission buffers all hold Slices (chunk + offset + length) into
// shared chunks instead of copying bytes: clone() bumps a refcount, the
// packer chains slices from many messages into one frame, and the simulated
// network delivers a frame's slices to the receiver untouched.
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
// The refcount is atomic so a chain may be shared across threads: chunk
// chains are the one exception to the single-thread contract
// (docs/INTERNALS.md, "Threading contract"). All other chunk state is plain
// data guarded by the refcount contract above.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/stat_fields.h"

namespace pa {

/// Process-global data-plane copy accounting. Every counter is a relaxed
/// atomic: a chain may be cloned, copied or freed on any thread that holds
/// it, and report()/benchmarks read them without coordination. The split
/// matters:
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
    "message clones that shared the payload chain by refcount bump")           \
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

/// One refcounted byte array. Created with refcount 1 (the creating
/// ChunkRef); heap-allocated and deleted when the last reference drops.
class Chunk {
 public:
  explicit Chunk(std::size_t size) : data(size) {
    buf_stats().chunks_allocated.fetch_add(1, std::memory_order_relaxed);
  }
  explicit Chunk(std::vector<std::uint8_t> bytes) : data(std::move(bytes)) {
    buf_stats().chunks_allocated.fetch_add(1, std::memory_order_relaxed);
  }
  Chunk(const Chunk&) = delete;
  Chunk& operator=(const Chunk&) = delete;

  std::vector<std::uint8_t> data;

  std::uint32_t refs() const noexcept {
    return refs_.load(std::memory_order_acquire);
  }
  bool unique() const noexcept { return refs() == 1; }

 private:
  friend void chunk_ref(Chunk*) noexcept;
  friend void chunk_unref(Chunk*) noexcept;
  std::atomic<std::uint32_t> refs_{1};
};

inline void chunk_ref(Chunk* c) noexcept {
  c->refs_.fetch_add(1, std::memory_order_relaxed);
}

inline void chunk_unref(Chunk* c) noexcept {
  if (c->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) delete c;
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

  static ChunkRef make(std::size_t size) { return ChunkRef(new Chunk(size)); }
  static ChunkRef adopt_vector(std::vector<std::uint8_t> bytes) {
    return ChunkRef(new Chunk(std::move(bytes)));
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
    return {chunk->data.data() + off, len};
  }
};

}  // namespace pa
