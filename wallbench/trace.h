// Boundary spans for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code, around its calls into
// the library (app -> Engine::send, loop -> Router::on_frame, engine -> Env,
// deferred closures, timers, decorated layer phases); nothing inside the
// library is instrumented. Each span has a name, a start, an end and a
// parent; spans of one application message share that message's id. Self
// time is a span's duration minus the time its child spans cover, computed
// as each span closes, so the aggregates cover every span even after the
// in-memory record buffer is full.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace wb {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum SpanName : std::uint16_t {
  kPaSend,          // app -> PaEngine::send
  kClassicSend,     // app -> ClassicEngine::send
  kPaOnFrame,       // loop -> Router::on_frame of a PA endpoint
  kClassicOnFrame,  // loop -> Router::on_frame of a classic endpoint
  kSendFrame,       // engine -> Env::send_frame
  kDeliver,         // engine -> Env::deliver (the app callback)
  kDefer,           // engine -> Env::defer
  kDeferred,        // a deferred closure running
  kTimer,           // a timer firing
  kLoopPa,          // one loop run over a PA block
  kLoopClassic,     // one loop run over a classic block
  kLayerBase,       // + layer * kPhases + phase
};

enum Phase : int {
  kPreSend,
  kPreDeliver,
  kPostSend,
  kPostDeliver,
  kPredictSend,
  kPredictDeliver,
  kPhases,
};

inline constexpr int kMaxLayers = 4;
inline constexpr int kNumNames = kLayerBase + kMaxLayers * kPhases;
inline constexpr const char* kPhaseNames[kPhases] = {
    "pre_send",  "pre_deliver",  "post_send",
    "post_deliver", "predict_send", "predict_deliver"};

class Tracer {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  bool on() const { return on_; }

  void start() {
    open_.clear();
    recs_.clear();
    recs_.reserve(kMaxRecs);  // no reallocation pauses inside traced blocks
    totals_ = {};
    for (auto& s : samples_) s.clear();
    on_ = true;
  }
  void stop() { on_ = false; }
  /// Continue after stop() without clearing what was recorded.
  void resume() { on_ = true; }

  /// Open a span. `msg` 0 inherits the enclosing span's message id.
  void begin(std::uint16_t name, std::uint64_t msg) {
    Open o;
    o.name = name;
    o.msg = msg != 0 ? msg : current_msg();
    o.start = now_ns();
    if (recs_.size() < kMaxRecs) {
      o.rec = static_cast<std::uint32_t>(recs_.size());
      recs_.push_back(Rec{o.msg, o.start, 0,
                          open_.empty() ? kNone : open_.back().rec, name});
    }
    open_.push_back(o);
  }

  void end() {
    const Open o = open_.back();
    open_.pop_back();
    const std::int64_t t = now_ns();
    const std::int64_t dur = t - o.start;
    Totals& tot = totals_[o.name];
    ++tot.calls;
    tot.total_ns += dur;
    tot.self_ns += dur - o.child;
    if (o.rec != kNone) {
      recs_[o.rec].end = t;
      recs_[o.rec].msg = o.msg;
    }
    if (!open_.empty()) {
      open_.back().child += dur;
      if (o.name == kDeliver) open_.back().deliver_child += dur;
    }
    switch (o.name) {
      case kPaSend:
      case kClassicSend:
        samples_[o.name].push_back(dur);
        break;
      case kPaOnFrame:
      case kClassicOnFrame:
        samples_[o.name].push_back(dur - o.deliver_child);
        break;
      default:
        break;
    }
  }

  /// A frame's message id is known only once its payload reaches the app:
  /// tag the open spans that carry no id yet (loop spans stay untagged, as
  /// a loop run serves many messages).
  void tag(std::uint64_t msg) {
    for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
      if (it->msg != 0 || it->name == kLoopPa || it->name == kLoopClassic) {
        break;
      }
      it->msg = msg;
    }
  }

  std::uint64_t current_msg() const {
    return open_.empty() ? 0 : open_.back().msg;
  }

  const Totals& totals(int name) const { return totals_[name]; }
  /// Durations of send spans, and of on_frame spans minus their app
  /// callbacks (ns).
  std::vector<std::int64_t>& samples(int name) { return samples_[name]; }
  std::size_t recorded() const { return recs_.size(); }

  /// Write the recorded spans as TSV. Spans recorded without an id inherit
  /// their parent's. Returns false on an I/O error.
  bool write(const std::string& path,
             const std::array<std::string, kNumNames>& names) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "id\tparent\tname\tmsg\tstart_ns\tend_ns\n");
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      Rec& r = recs_[i];
      if (r.msg == 0 && r.parent != kNone) r.msg = recs_[r.parent].msg;
      std::fprintf(f, "%zu\t%lld\t%s\t%llu\t%lld\t%lld\n", i,
                   r.parent == kNone ? -1LL : static_cast<long long>(r.parent),
                   names[r.name].c_str(),
                   static_cast<unsigned long long>(r.msg),
                   static_cast<long long>(r.start),
                   static_cast<long long>(r.end));
    }
    return std::fclose(f) == 0;
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  // 8 MiB of records; the run is long enough that later spans only feed
  // the aggregates.
  static constexpr std::size_t kMaxRecs = std::size_t{1} << 18;

  struct Open {
    std::uint16_t name = 0;
    std::uint32_t rec = kNone;
    std::uint64_t msg = 0;
    std::int64_t start = 0;
    std::int64_t child = 0;          // time covered by child spans
    std::int64_t deliver_child = 0;  // of which Env::deliver children
  };
  struct Rec {
    std::uint64_t msg;
    std::int64_t start;
    std::int64_t end;
    std::uint32_t parent;
    std::uint16_t name;
  };

  bool on_ = false;
  std::vector<Open> open_;
  std::vector<Rec> recs_;
  std::array<Totals, kNumNames> totals_{};
  std::array<std::vector<std::int64_t>, kNumNames> samples_{};
};

inline Tracer tracer;

/// RAII span; a no-op while tracing is off.
class Span {
 public:
  explicit Span(std::uint16_t name, std::uint64_t msg = 0)
      : on_(tracer.on()) {
    if (on_) tracer.begin(name, msg);
  }
  ~Span() {
    if (on_) tracer.end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

}  // namespace wb
