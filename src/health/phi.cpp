#include "health/phi.h"

#include <algorithm>
#include <cmath>

namespace pa::health {

PhiDetector::PhiDetector() { ring_.reserve(kWindow); }

void PhiDetector::push(VtDur sample) {
  if (sample < 0) sample = 0;
  if (ring_.size() < kWindow) {
    ring_.push_back(sample);
  } else {
    ring_[head_] = sample;
    head_ = (head_ + 1) % kWindow;
  }
}

void PhiDetector::note_arrival(Vt now) {
  if (anchored_) {
    // Clamp regressions (reordered delivery timestamps) to zero intervals
    // rather than poisoning the window with negatives.
    push(now > last_ ? now - last_ : 0);
    last_ = std::max(last_, now);
  } else {
    anchored_ = true;
    last_ = now;
  }
}

void PhiDetector::prime(VtDur interval, std::size_t count) {
  if (interval <= 0) return;
  for (std::size_t i = ring_.size(); i < std::min(count, kWindow); ++i) {
    ring_.push_back(interval);
  }
}

void PhiDetector::reset() {
  ring_.clear();
  head_ = 0;
  anchored_ = false;
  last_ = 0;
}

VtDur PhiDetector::mean_interval() const {
  if (ring_.empty()) return kInitialInterval;
  double acc = 0;
  for (VtDur s : ring_) acc += static_cast<double>(s);
  return static_cast<VtDur>(acc / static_cast<double>(ring_.size()));
}

void PhiDetector::moments(double& mean, double& stddev) const {
  if (ring_.empty()) {
    mean = static_cast<double>(kInitialInterval);
  } else {
    double acc = 0;
    for (VtDur s : ring_) acc += static_cast<double>(s);
    mean = acc / static_cast<double>(ring_.size());
  }
  double var = 0;
  for (VtDur s : ring_) {
    const double d = static_cast<double>(s) - mean;
    var += d * d;
  }
  if (!ring_.empty()) var /= static_cast<double>(ring_.size());
  stddev = std::sqrt(var);
  stddev = std::max({stddev, mean * kMinStddevFrac,
                     static_cast<double>(kMinStddev)});
}

double PhiDetector::phi(Vt now) const {
  if (!anchored_) return 0.0;
  const double t = static_cast<double>(now > last_ ? now - last_ : 0);
  double mean = 0, stddev = 1;
  moments(mean, stddev);
  // P(interval > t) under N(mean, stddev), via the logistic approximation
  // of the normal CDF (max error ~1.4e-4 — far below any threshold we
  // gate on, and branch-free deterministic across libms, unlike erfc).
  const double y = (t - mean) / stddev;
  const double e = std::exp(-y * (1.5976 + 0.070566 * y * y));
  const double p_later = t > mean ? e / (1.0 + e) : 1.0 - 1.0 / (1.0 + e);
  if (p_later <= 0.0) return 40.0;  // beyond double resolution: certain
  const double phi = -std::log10(p_later);
  return std::min(phi, 40.0);
}

}  // namespace pa::health
