// FaultSocket: deterministic fault injection between RealLoop and the
// kernel.
//
// PR 1 proved the stack's masking techniques survive faults — but only on
// the simulated network, whose injectors live in sim/network. The real UDP
// path had never seen a dropped, duplicated or reordered packet. This
// wrapper sits on a RealLoop socket's *send* side and applies the same
// fault vocabulary as sim/network's LinkParams — memoryless loss,
// duplication, single-bit corruption, truncation to a proper prefix, hold
// delay (which reorders against later in-order sends), deterministic
// drop-every-N, pause/blackhole, and two-state Gilbert–Elliott burst loss —
// driven by the same seeded Rng, so a fixed seed reproduces the exact same
// fault *decision sequence* for a given sequence of offered datagrams.
//
// The split of responsibilities keeps the wrapper kernel-free and testable:
// judge() draws the fate of one datagram and apply() mutates a byte buffer
// accordingly; RealLoop owns the syscalls and re-injects delayed datagrams
// through its timer heap.
//
// Direction split: the socket carries two fully independent fault lanes,
// tx (applied by RealLoop as a datagram joins its socket's send train) and
// rx (applied at ingest, before the datagram reaches the handler). Each lane has its own config, Rng
// (derived from the one seed with a per-lane salt), Gilbert–Elliott channel
// state, drop-every counter and stats — so the interleaving of sends and
// receives never perturbs either lane's schedule, and an asymmetric link
// (tx dead, rx alive) is one config away. The undirected legacy API
// (set_config/judge/stats) aliases the tx lane and keeps its exact
// pre-split schedule for a given seed.
//
// Thread-safety: none. A FaultSocket belongs to the loop that owns the
// socket and is used only from that loop's thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "util/types.h"

namespace pa::resil {

/// Mirrors sim/network's LinkParams fault vocabulary (transmission-cost
/// fields excluded: the kernel and the wire provide the real timing).
struct FaultConfig {
  double loss_prob = 0.0;
  double dup_prob = 0.0;
  double corrupt_prob = 0.0;   // one random bit flipped
  double truncate_prob = 0.0;  // cut to a random proper non-empty prefix
  VtDur delay_jitter = 0;      // uniform hold in [0, jitter]; 0 = send now
  std::uint32_t drop_every = 0;  // deterministic: drop every N-th (0 = off)
  bool paused = false;           // blackhole until cleared
  bool ge_enabled = false;       // Gilbert–Elliott burst loss
  double ge_p_good_to_bad = 0.05;
  double ge_p_bad_to_good = 0.25;
  double ge_loss_good = 0.0;
  double ge_loss_bad = 0.75;
};

struct FaultStats {
  std::uint64_t offered = 0;
  std::uint64_t dropped = 0;     // loss + drop_every + GE + paused
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t truncated = 0;
  std::uint64_t delayed = 0;
};

class FaultSocket {
 public:
  enum class Dir : std::uint8_t { kTx, kRx };

  /// `cfg` configures the tx lane (the legacy single-direction behaviour);
  /// the rx lane starts fault-free until set_config(kRx, ...).
  explicit FaultSocket(FaultConfig cfg = {}, std::uint64_t seed = 1) {
    tx_.cfg = cfg;
    tx_.rng = Rng(seed);
    rx_.rng = Rng(seed ^ kRxSalt);
  }

  /// Reconfigure one lane mid-stream (e.g. pause, then heal). Rng state and
  /// the GE channel state are preserved: the schedule stays
  /// seed-deterministic, and the other lane is untouched.
  void set_config(Dir d, const FaultConfig& cfg) { lane(d).cfg = cfg; }
  const FaultConfig& config(Dir d) const { return lane(d).cfg; }

  // Undirected legacy API: the tx lane.
  void set_config(const FaultConfig& cfg) { tx_.cfg = cfg; }
  const FaultConfig& config() const { return tx_.cfg; }

  /// Restart both lanes' schedules from a seed (also resets the GE channels
  /// and drop-every counters, so two sockets reseeded alike judge alike).
  void reseed(std::uint64_t seed);

  /// The fate of one outgoing datagram of `len` bytes.
  struct Verdict {
    bool drop = false;
    std::uint32_t copies = 1;       // 2 when duplicated
    VtDur delay = 0;                // > 0: hold before handing to the kernel
    bool corrupt = false;
    std::uint64_t corrupt_bit = 0;  // absolute bit index to flip
    std::size_t truncate_to = 0;    // 0 = intact; else the new length
  };

  /// Draw the fate of the next datagram on one lane. Deterministic: the
  /// n-th judge() call on a lane after a given seed always returns the same
  /// verdict for the same length sequence, regardless of what the other
  /// lane judged in between.
  Verdict judge(Dir d, std::size_t len);
  Verdict judge(std::size_t len) { return judge(Dir::kTx, len); }

  /// Apply a verdict's payload mutations (bit flip, truncation) in place.
  static void apply(const Verdict& v, std::vector<std::uint8_t>& bytes);

  const FaultStats& stats(Dir d) const { return lane(d).stats; }
  const FaultStats& stats() const { return tx_.stats; }

 private:
  struct Lane {
    FaultConfig cfg;
    Rng rng;
    bool ge_bad = false;
    std::uint64_t count = 0;  // offered datagrams (drop_every phase)
    FaultStats stats;
  };

  // Decorrelates the rx lane's draws from tx under the one user seed.
  static constexpr std::uint64_t kRxSalt = 0x72785f6c616e65ull;  // "rx_lane"

  Lane& lane(Dir d) { return d == Dir::kTx ? tx_ : rx_; }
  const Lane& lane(Dir d) const { return d == Dir::kTx ? tx_ : rx_; }

  Lane tx_;
  Lane rx_;
};

}  // namespace pa::resil
