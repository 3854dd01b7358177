#include "resil/fault_socket.h"

namespace pa::resil {

FaultVerdict FaultState::judge(const FaultConfig& cfg, Rng& rng,
                               std::size_t len, VtDur dup_spread) {
  FaultVerdict v;
  if (cfg.paused) {
    v.drop = true;
    return v;
  }
  if (cfg.drop_every != 0 && ++count % cfg.drop_every == 0) {
    v.drop = true;
    return v;
  }
  if (rng.chance(cfg.loss_prob)) {
    v.drop = true;
    return v;
  }
  if (cfg.ge_enabled) {
    // The channel moves once per datagram offered, so burst lengths are
    // measured in datagrams regardless of pacing.
    ge_bad = ge_bad ? !rng.chance(cfg.ge_p_bad_to_good)
                    : rng.chance(cfg.ge_p_good_to_bad);
    if (ge_bad && rng.chance(cfg.ge_loss_bad)) {
      v.drop = true;
      return v;
    }
  }
  if (rng.chance(cfg.corrupt_prob) && len > 0) {
    v.corrupt = true;
    v.corrupt_bit = rng.next_below(static_cast<std::uint64_t>(len) * 8);
  }
  if (rng.chance(cfg.truncate_prob) && len > 1) {
    v.truncate_to = static_cast<std::size_t>(
        1 + rng.next_below(static_cast<std::uint64_t>(len) - 1));
  }
  if (cfg.delay_jitter > 0) v.delay = rng.next_range(0, cfg.delay_jitter);
  if (rng.chance(cfg.dup_prob)) {
    v.duplicate = true;
    v.dup_delay = rng.next_range(0, dup_spread);
  }
  return v;
}

void mutate(const FaultVerdict& v, WireFrame& frame) {
  if (v.corrupt) {
    *frame.mutable_byte(v.corrupt_bit / 8) ^=
        static_cast<std::uint8_t>(1u << (v.corrupt_bit % 8));
  }
  if (v.truncate_to != 0) frame.truncate(v.truncate_to);
}

void FaultSocket::reseed(Dir d, std::uint64_t seed) {
  Lane& ln = lane(d);
  ln.rng = Rng(d == Dir::kTx ? seed : seed ^ kRxSalt);
  ln.state = FaultState{};
}

FaultVerdict FaultSocket::judge(Dir d, std::size_t len) {
  Lane& ln = lane(d);
  const FaultVerdict v = ln.state.judge(ln.cfg, ln.rng, len);
  ++ln.stats.offered;
  ln.stats.dropped += v.drop;
  ln.stats.duplicated += v.duplicate;
  ln.stats.corrupted += v.corrupt;
  ln.stats.truncated += v.truncate_to != 0;
  ln.stats.delayed += v.delay > 0;
  return v;
}

}  // namespace pa::resil
