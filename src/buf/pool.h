// Explicit message-buffer pooling.
//
// The paper (§6, "Use of a High-Level Language") reports that explicitly
// allocating and deallocating high-bandwidth objects — messages — reduces
// the number of garbage collections dramatically. MessagePool is that
// mechanism: engines acquire buffers from the pool and release them after
// post-processing; only pool *misses* count as fresh allocations, which is
// what the GC model charges for.
//
// Since the zero-copy refactor a released message decomposes into refcounted
// chunks (header chunk + payload chain) that may still be referenced by an
// in-flight frame, a retransmission clone or another engine at release time.
// The pool is therefore an *accounting* view only: `vsizes_` mirrors the
// flat-buffer pool's hit/miss behaviour storage-size for storage-size, so
// fresh_allocations, bytes_allocated and the GC model's timing are unchanged
// by the refactor. The pool holds no chunk references: acquire makes fresh
// chunks, and release drops the message's references so each chunk is freed
// when its last holder lets go, exactly as for unpooled messages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "buf/message.h"
#include "util/stat_fields.h"

namespace pa {

// MessagePool::Stats, one row per field (util/stat_fields.h).
#define PA_POOL_STATS(X)                                                       \
  X(std::uint64_t, acquires, "acquires_total", "", "buffer acquisitions")      \
  X(std::uint64_t, fresh_allocations, "fresh_allocations_total", "",           \
    "acquisitions that hit the allocator (pool miss)")                         \
  X(std::uint64_t, releases, "releases_total", "",                             \
    "buffers returned to the pool")                                            \
  X(std::uint64_t, bytes_allocated, "bytes_allocated_total", "bytes",          \
    "bytes from fresh allocations")                                            \
  X(std::uint64_t, headroom_regrow, "headroom_regrow_total", "",               \
    "header pushes that outgrew the headroom and reallocated")

class MessagePool {
 public:
  struct Stats {
    static constexpr const char* kMetricPrefix = "pa_pool";
    PA_STAT_FIELDS(PA_POOL_STATS)
  };

  explicit MessagePool(std::size_t max_cached = 64) : max_cached_(max_cached) {}

  /// Get a message with the given headroom and at least `payload_capacity`
  /// bytes of room behind it; a hit on a cached storage size is not counted
  /// as a fresh allocation.
  Message acquire(std::size_t headroom = Message::kDefaultHeadroom,
                  std::size_t payload_capacity = 0);

  /// Like Message::with_payload but pooled.
  Message acquire_with_payload(std::span<const std::uint8_t> payload,
                               std::size_t headroom = Message::kDefaultHeadroom);

  /// Account a message's storage as cached for reuse, then drop it.
  void release(Message&& msg);

  const Stats& stats() const { return stats_; }
  std::size_t cached() const { return vsizes_.size(); }

 private:
  // Sizes of the flat storages the pre-refactor pool would be caching right
  // now, in release order (its scan order matters for hit/miss parity).
  // Most of them are received frames, released at their wire size, which
  // never fit a send's headroom + payload request.
  std::vector<std::size_t> vsizes_;
  // Skip hint for the first-fit scan: the first `skip_len_` entries are all
  // below `skip_below_`, so a request at least that large starts past them.
  // It keeps acquire O(1) when the cache is full of frames that never fit.
  std::size_t skip_len_ = 0;
  std::size_t skip_below_ = 0;
  std::size_t max_cached_;
  Stats stats_;
};

}  // namespace pa
