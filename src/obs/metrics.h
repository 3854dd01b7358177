// Unified metrics: named, typed, near-zero-cost on the hot path.
//
// The repo grew telemetry organically — counter fields scattered over
// EngineStats / Router::Stats / pool / GC / network structs. This registry
// unifies them behind one model: a metric has a *name*, a *help* string, a
// *unit*, and a *type* (counter / gauge / histogram). Hot paths touch plain
// integers through direct handles obtained once at setup; lookups by name
// happen only at registration and collection time. Like every engine it
// serves, the registry belongs to the one thread that drives the process
// (docs/INTERNALS.md, "Threading contract").
//
// Two registration styles:
//   - owned metrics (`counter()` / `gauge()` / `histogram()`): the registry
//     allocates the storage and hands back a stable reference;
//   - read-through metrics (`counter_fn()` / `gauge_fn()`): a callback
//     samples a field of a stat struct (EngineStats, a layer's Stats, …) at
//     collection time. Each struct declares its fields once, with their
//     names and help (util/stat_fields.h); obs::bind_stats (obs/bridge.h)
//     is the one binder that turns that list into read-through metrics.
//
// LatencyHistogram is log-bucketed (power-of-two majors, 16 linear
// sub-buckets each → ≤ 6.25% relative value error), fixed 976 counting
// slots: record() is a bit-scan plus three adds, no allocation ever.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace pa::obs {

class Counter {
 public:
  void inc(std::uint64_t d = 1) { v_ += d; }
  std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

class Gauge {
 public:
  void set(std::int64_t v) { v_ = v; }
  void add(std::int64_t d) { v_ += d; }
  std::int64_t value() const { return v_; }

 private:
  std::int64_t v_ = 0;
};

/// Log-bucketed latency histogram with percentile extraction.
///
/// Bucket layout: values 0..15 are exact; above that, each power-of-two
/// octave [2^k, 2^(k+1)) splits into 16 linear sub-buckets, so any
/// reported quantile is within 1/16 of the true sample value. Covers the
/// full uint64 range (976 buckets). record() costs a bit-scan and three
/// adds (~a few ns).
class LatencyHistogram {
 public:
  static constexpr std::size_t kSubBits = 4;                    // 16 sub-buckets
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits) * kSub + kSub;

  static std::size_t bucket_index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - static_cast<int>(kSubBits);
    return ((static_cast<std::size_t>(msb) - kSubBits + 1) << kSubBits) |
           static_cast<std::size_t>((v >> shift) & (kSub - 1));
  }

  /// Inclusive lower edge of a bucket (the value record() maps there).
  static std::uint64_t bucket_floor(std::size_t idx) {
    if (idx < kSub) return idx;
    const std::size_t major = idx >> kSubBits;   // >= 1
    const std::size_t sub = idx & (kSub - 1);
    return (kSub + sub) << (major - 1);
  }

  /// Representative value reported for a bucket: its midpoint (exact for
  /// the 0..15 unit buckets).
  static std::uint64_t bucket_mid(std::size_t idx) {
    if (idx < kSub) return idx;
    const std::size_t major = idx >> kSubBits;
    const std::uint64_t width = std::uint64_t{1} << (major - 1);
    return bucket_floor(idx) + width / 2;
  }

  void record(std::uint64_t v) {
    ++buckets_[bucket_index(v)];
    ++count_;
    sum_ += v;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }

  /// Smallest bucket-representative value v such that at least p (0..1] of
  /// recorded samples fall in buckets at or below v's. Returns 0 when empty.
  std::uint64_t percentile(double p) const;

  /// Snapshot of per-bucket counts paired with count()/sum().
  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> nonzero;  // floor, n
  };
  Snapshot snapshot() const;

  /// Zero every bucket (tests and bench warmup boundaries).
  void reset();

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// One collected sample: scalar for counters/gauges; histograms expose
/// count/sum/quantiles through `hist`.
struct MetricSample {
  std::string name;
  std::string help;
  std::string unit;
  MetricType type = MetricType::kCounter;
  double value = 0;                          // counter/gauge
  const LatencyHistogram* hist = nullptr;    // histogram
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register (or look up, if already registered under this name) an owned
  /// metric. References remain valid for the registry's lifetime.
  Counter& counter(const std::string& name, const std::string& help,
                   const std::string& unit = "");
  Gauge& gauge(const std::string& name, const std::string& help,
               const std::string& unit = "");
  LatencyHistogram& histogram(const std::string& name, const std::string& help,
                              const std::string& unit = "ns");

  /// Read-through metric: `fn` is sampled at collect() time. The sampled
  /// source must outlive the registry (or the registry must be discarded
  /// first — report() builds throwaway registries around borrowed structs).
  void gauge_fn(const std::string& name, const std::string& help,
                const std::string& unit, std::function<double()> fn);
  void counter_fn(const std::string& name, const std::string& help,
                  const std::string& unit, std::function<double()> fn);

  /// All metrics in registration order, values sampled now.
  std::vector<MetricSample> collect() const;

 private:
  struct Entry {
    std::string name, help, unit;
    MetricType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> hist;
    std::function<double()> fn;  // read-through when set
  };

  Entry* find(const std::string& name);

  std::vector<std::unique_ptr<Entry>> entries_;
};

/// The process-global registry. Subsystems that exist once per process
/// (the trace ring, the real-time loop, the engines' shared
/// phase histograms) register here; per-object stat structs are bound into
/// throwaway registries by obs::bind_stats (obs/bridge.h) instead.
MetricsRegistry& registry();

}  // namespace pa::obs
