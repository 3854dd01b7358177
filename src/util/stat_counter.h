// A statistics counter safe for concurrent writers and readers.
//
// The engines are single-threaded, but a reader on another thread (a
// metrics exporter, a report renderer) may snapshot EngineStats /
// Router::Stats while the engine runs. These counters are monotonic
// telemetry, not synchronization: relaxed atomics are exactly right — no
// ordering, no torn reads, negligible cost on the engine's paths.
//
// The class is a drop-in for the plain std::uint64_t fields it replaces:
// ++, +=, = and implicit conversion all work at existing call sites.
// Copying snapshots the current value so whole-struct stats snapshots keep
// working.
#pragma once

#include <atomic>
#include <cstdint>
#include <ostream>

namespace pa {

class StatCounter {
 public:
  StatCounter() = default;
  StatCounter(std::uint64_t v) : v_(v) {}
  StatCounter(const StatCounter& o) : v_(o.load()) {}
  StatCounter& operator=(const StatCounter& o) {
    v_.store(o.load(), std::memory_order_relaxed);
    return *this;
  }
  StatCounter& operator=(std::uint64_t v) {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }

  std::uint64_t load() const { return v_.load(std::memory_order_relaxed); }
  operator std::uint64_t() const { return load(); }

  StatCounter& operator++() {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  std::uint64_t operator++(int) {
    return v_.fetch_add(1, std::memory_order_relaxed);
  }
  StatCounter& operator+=(std::uint64_t d) {
    v_.fetch_add(d, std::memory_order_relaxed);
    return *this;
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

inline std::ostream& operator<<(std::ostream& os, const StatCounter& c) {
  return os << c.load();
}

}  // namespace pa
