// Garbage-collection model.
//
// The paper's stack runs in O'Caml, whose stop-the-world collector produces
// pauses of 150-450 µs (average ~300 µs) and is triggered after every
// message reception in the experiments. We model the collector as a pause
// source with pluggable policy:
//
//   kEveryReception — paper's default measurement setup ("we triggered
//                     garbage collection after every message reception").
//   kEveryN         — the "only occasionally" variant of Figure 5's dashed
//                     line: higher throughput, occasional ~1 ms hiccups.
//   kAllocThreshold — collect once allocated bytes cross a threshold; with
//                     explicit message pooling (MessagePool) fresh
//                     allocations almost vanish, reproducing §6's "explicit
//                     allocation" experiment.
//   kDisabled       — the C world: no GC at all.
#pragma once

#include <cstdint>

#include "util/rng.h"
#include "util/stat_fields.h"
#include "util/types.h"

namespace pa {

enum class GcPolicy : std::uint8_t {
  kDisabled,
  kEveryReception,
  kEveryN,
  kAllocThreshold,
};

// GcModel::Stats, one row per field (util/stat_fields.h).
#define PA_GC_STATS(X)                                                         \
  X(std::uint64_t, collections, "collections_total", "", "GC collections")     \
  X(VtDur, total_pause, "pause_ns_total", "ns", "total GC pause time")         \
  X(VtDur, max_pause, "pause_ns_max", "ns", "longest single GC pause")         \
  X(std::uint64_t, allocated_bytes, "allocated_bytes_total", "bytes",          \
    "bytes allocated")

class GcModel {
 public:
  struct Stats {
    static constexpr const char* kMetricPrefix = "sim_gc";
    PA_STAT_FIELDS(PA_GC_STATS)
  };

  GcModel() = default;
  GcModel(GcPolicy policy, std::uint64_t seed) : policy_(policy), rng_(seed) {}

  GcPolicy policy() const { return policy_; }
  void set_policy(GcPolicy p) { policy_ = p; }
  void set_every_n(std::uint32_t n) { every_n_ = n; }
  void set_alloc_threshold(std::uint64_t bytes) { alloc_threshold_ = bytes; }
  void set_pause_range(VtDur lo, VtDur hi) {
    pause_min_ = lo;
    pause_max_ = hi;
  }
  /// When collections are batched (kEveryN), each pause grows with the
  /// garbage accumulated; `hiccup_scale` multiplies the base pause.
  void set_hiccup_scale(double s) { hiccup_scale_ = s; }

  void on_alloc(std::uint64_t bytes) {
    stats_.allocated_bytes += bytes;
    pending_alloc_ += bytes;
  }
  void on_reception() { ++pending_receptions_; }

  /// Called by engines at a GC point (after post-processing). Returns the
  /// pause to charge now, or 0.
  VtDur poll();

  const Stats& stats() const { return stats_; }

 private:
  VtDur sample_pause();

  GcPolicy policy_ = GcPolicy::kDisabled;
  Rng rng_{0x6c0de6c0ull};
  std::uint32_t every_n_ = 32;
  std::uint64_t alloc_threshold_ = 64 * 1024;
  VtDur pause_min_ = vt_us(150);
  VtDur pause_max_ = vt_us(450);
  double hiccup_scale_ = 3.0;  // batched collections pause ~1 ms (paper §5)

  std::uint64_t pending_alloc_ = 0;
  std::uint32_t pending_receptions_ = 0;
  Stats stats_;
};

}  // namespace pa
