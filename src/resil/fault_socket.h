// The fault model: one vocabulary, one judge and one mutation for the
// simulated network and the real UDP socket.
//
// FaultConfig names the faults: memoryless loss, duplication, single-bit
// corruption, truncation to a proper prefix, delay jitter (which reorders
// against later datagrams), deterministic drop-every-N, pause/blackhole,
// and two-state Gilbert–Elliott burst loss. FaultState::judge() draws the
// fate of one datagram from the caller's seeded Rng and returns a
// FaultVerdict; mutate() applies its bit flip and truncation to a
// WireFrame. sim/network's links (LinkParams::faults, judged against the
// world's shared Rng) and RealLoop's sockets (through FaultSocket) both
// go through these two routines, so a fixed config and seed give the same
// fault sequence on either.
//
// FaultSocket carries a RealLoop socket's two fully independent fault
// lanes: tx (judged as a datagram joins its socket's send train) and rx
// (judged at ingest, before the datagram reaches the handler). Each lane
// has its own config, Rng (derived from the seed with a per-lane salt),
// FaultState and stats, so the interleaving of sends and receives never
// perturbs either lane's schedule, and an asymmetric link (tx dead, rx
// alive) is one config away. The socket stays kernel-free and testable:
// RealLoop owns the syscalls and re-injects delayed datagrams through its
// timer heap.
//
// Thread-safety: none. A FaultSocket belongs to the loop that owns the
// socket and is used only from that loop's thread.
#pragma once

#include <cstddef>
#include <cstdint>

#include "buf/wire_frame.h"
#include "util/rng.h"
#include "util/types.h"

namespace pa::resil {

struct FaultConfig {
  double loss_prob = 0.0;
  double dup_prob = 0.0;
  // Bit corruption: one random bit of the datagram flipped in flight (the
  // receiver's checksum must catch it).
  double corrupt_prob = 0.0;
  // Truncation: cut to a random proper non-empty prefix (an aborted DMA, a
  // short read).
  double truncate_prob = 0.0;
  VtDur delay_jitter = 0;  // uniform extra delay in [0, jitter]
  // Deterministic drop of every N-th datagram (0 = off), for A/B
  // experiments; applied before the probabilistic draws.
  std::uint32_t drop_every = 0;
  bool paused = false;  // blackhole until cleared
  // Bursty loss: a two-state Gilbert–Elliott channel. It flips between a
  // good state (no loss) and a bad state (loss = ge_loss_bad) with the
  // given per-datagram transition probabilities. Mean burst length =
  // 1 / ge_p_bad_to_good datagrams. Independent of, and applied after, the
  // memoryless loss_prob above.
  bool ge_enabled = false;
  double ge_p_good_to_bad = 0.05;
  double ge_p_bad_to_good = 0.25;
  double ge_loss_bad = 0.75;
};

/// The fate of one datagram.
struct FaultVerdict {
  bool drop = false;
  bool corrupt = false;
  std::uint64_t corrupt_bit = 0;  // absolute bit index to flip
  std::size_t truncate_to = 0;    // 0 = intact; else the new length
  VtDur delay = 0;                // extra delay before it arrives
  bool duplicate = false;
  VtDur dup_delay = 0;            // the copy arrives this long after it
};

/// One lane's channel state: all the judge carries from one datagram to the
/// next (a simulated directed link or one direction of a socket).
struct FaultState {
  bool ge_bad = false;      // the Gilbert–Elliott channel is in its bad state
  std::uint64_t count = 0;  // datagrams judged while drop_every was set

  /// Draw the fate of the next datagram of `len` bytes. The draw order is
  /// fixed: pause, drop-every, loss, Gilbert–Elliott, corruption,
  /// truncation, delay, duplication. A paused datagram draws nothing and
  /// does not advance the drop-every count. The duplicate's lag is drawn
  /// from [0, dup_spread] even when the spread is 0, so a socket lane (no
  /// spread) and a simulated link (spread = propagation) stay in step.
  FaultVerdict judge(const FaultConfig& cfg, Rng& rng, std::size_t len,
                     VtDur dup_spread = 0);
};

/// Apply a verdict's bit flip, then its truncation, to a frame in flight.
/// The flip copies a shared chunk first (WireFrame::mutable_byte), so no
/// other holder of the frame observes it; it may fall in the part the
/// truncation cuts off.
void mutate(const FaultVerdict& v, WireFrame& frame);

struct FaultStats {
  std::uint64_t offered = 0;
  std::uint64_t dropped = 0;  // loss + drop_every + GE + paused
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t truncated = 0;
  std::uint64_t delayed = 0;
};

class FaultSocket {
 public:
  enum class Dir : std::uint8_t { kTx, kRx };

  /// Both lanes start fault-free, seeded from `seed`.
  explicit FaultSocket(std::uint64_t seed = 1) {
    reseed(Dir::kTx, seed);
    reseed(Dir::kRx, seed);
  }

  /// Reconfigure one lane mid-stream (e.g. pause, then heal). Its Rng and
  /// channel state are kept, so the schedule stays seed-deterministic; the
  /// other lane is untouched.
  void set_config(Dir d, const FaultConfig& cfg) { lane(d).cfg = cfg; }
  const FaultConfig& config(Dir d) const { return lane(d).cfg; }

  /// Restart one lane's schedule from a seed (its Rng, Gilbert–Elliott
  /// channel and drop-every count), so two lanes reseeded alike judge
  /// alike. The other lane is untouched.
  void reseed(Dir d, std::uint64_t seed);

  /// Draw the fate of the next datagram on one lane. Deterministic: the
  /// n-th judge() call on a lane after a given seed always returns the same
  /// verdict for the same length sequence, regardless of what the other
  /// lane judged in between.
  FaultVerdict judge(Dir d, std::size_t len);

  const FaultStats& stats(Dir d) const { return lane(d).stats; }

 private:
  struct Lane {
    FaultConfig cfg;
    Rng rng;
    FaultState state;
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
