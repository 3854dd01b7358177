#include "obs/metrics.h"

namespace pa::obs {

std::uint64_t LatencyHistogram::percentile(double p) const {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  if (p < 0) p = 0;
  if (p > 1) p = 1;
  // Rank of the target sample, 1-based, ceiling — p50 of two samples is the
  // first, p100 the last.
  std::uint64_t rank = static_cast<std::uint64_t>(
      p * static_cast<double>(total) + 0.9999999);
  if (rank == 0) rank = 1;
  if (rank > total) rank = total;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) return bucket_mid(i);
  }
  return 0;
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot s;
  s.count = count();
  s.sum = sum();
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] != 0) {
      s.nonzero.emplace_back(bucket_floor(i), buckets_[i]);
    }
  }
  return s;
}

void LatencyHistogram::reset() {
  *this = LatencyHistogram();
}

MetricsRegistry::Entry* MetricsRegistry::find(const std::string& name) {
  for (auto& e : entries_) {
    if (e->name == name) return e.get();
  }
  return nullptr;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help,
                                  const std::string& unit) {
  if (Entry* e = find(name)) return *e->counter;
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->help = help;
  e->unit = unit;
  e->type = MetricType::kCounter;
  e->counter = std::make_unique<Counter>();
  Counter& ref = *e->counter;
  entries_.push_back(std::move(e));
  return ref;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              const std::string& unit) {
  if (Entry* e = find(name)) return *e->gauge;
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->help = help;
  e->unit = unit;
  e->type = MetricType::kGauge;
  e->gauge = std::make_unique<Gauge>();
  Gauge& ref = *e->gauge;
  entries_.push_back(std::move(e));
  return ref;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name,
                                             const std::string& help,
                                             const std::string& unit) {
  if (Entry* e = find(name)) return *e->hist;
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->help = help;
  e->unit = unit;
  e->type = MetricType::kHistogram;
  e->hist = std::make_unique<LatencyHistogram>();
  LatencyHistogram& ref = *e->hist;
  entries_.push_back(std::move(e));
  return ref;
}

void MetricsRegistry::gauge_fn(const std::string& name, const std::string& help,
                               const std::string& unit,
                               std::function<double()> fn) {
  if (find(name)) return;
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->help = help;
  e->unit = unit;
  e->type = MetricType::kGauge;
  e->fn = std::move(fn);
  entries_.push_back(std::move(e));
}

void MetricsRegistry::counter_fn(const std::string& name,
                                 const std::string& help,
                                 const std::string& unit,
                                 std::function<double()> fn) {
  if (find(name)) return;
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->help = help;
  e->unit = unit;
  e->type = MetricType::kCounter;
  e->fn = std::move(fn);
  entries_.push_back(std::move(e));
}

std::vector<MetricSample> MetricsRegistry::collect() const {
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    MetricSample s;
    s.name = e->name;
    s.help = e->help;
    s.unit = e->unit;
    s.type = e->type;
    if (e->fn) {
      s.value = e->fn();
    } else if (e->counter) {
      s.value = static_cast<double>(e->counter->value());
    } else if (e->gauge) {
      s.value = static_cast<double>(e->gauge->value());
    } else if (e->hist) {
      s.hist = e->hist.get();
    }
    out.push_back(std::move(s));
  }
  return out;
}

MetricsRegistry& registry() {
  static MetricsRegistry* g = new MetricsRegistry();  // never destroyed:
  // static destructors may still record through handles at exit.
  return *g;
}

}  // namespace pa::obs
