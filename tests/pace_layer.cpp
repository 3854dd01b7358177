#include "pace_layer.h"

namespace pa {

void PaceLayer::post_send(const Message& msg, const HeaderView&,
                          LayerOps& ops) {
  ++stats_.sent;
  // Packed messages consumed one protocol send; pacing is per protocol
  // message (the thing that costs wire and processing time).
  (void)msg;
  if (tokens_ > 0) --tokens_;
  if (tokens_ == 0 && !throttled_) {
    throttled_ = true;
    ++stats_.throttles;
    ops.disable_send();
  }
  arm_refill(ops);
}

void PaceLayer::arm_refill(LayerOps& ops) {
  if (timer_armed_ || tokens_ >= cfg_.burst) return;
  timer_armed_ = true;
  ops.set_timer(refill_interval(), [this](LayerOps& t) {
    timer_armed_ = false;
    if (tokens_ < cfg_.burst) ++tokens_;
    if (throttled_ && tokens_ > 0) {
      throttled_ = false;
      t.enable_send();
    }
    arm_refill(t);  // keep refilling until the bucket is full
  });
}

std::uint64_t PaceLayer::state_digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = digest_mix(h, tokens_);
  h = digest_mix(h, throttled_ ? 1 : 0);
  h = digest_mix(h, timer_armed_ ? 1 : 0);
  h = digest_mix(h, stats_.sent);
  h = digest_mix(h, stats_.throttles);
  return h;
}

}  // namespace pa
