#include "obs/metrics.h"

#include <algorithm>

#include "util/check.h"

namespace mbi::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  MBI_CHECK(!bounds_.empty());
  MBI_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  for (size_t i = 1; i < bounds_.size(); ++i) {
    MBI_CHECK(bounds_[i - 1] < bounds_[i]);
  }
}

void Histogram::Observe(double v) {
  const size_t idx = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

double Histogram::Mean() const {
  const uint64_t n = Count();
  return n == 0 ? 0.0 : Sum() / static_cast<double>(n);
}

double Histogram::Percentile(double p) const {
  p = std::clamp(p, 0.0, 1.0);
  const std::vector<uint64_t> counts = BucketCounts();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;

  // Rank of the target observation (1-based, nearest-rank with
  // interpolation inside the winning bucket).
  const double rank = p * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const uint64_t next = cumulative + counts[i];
    if (static_cast<double>(next) >= rank) {
      if (i == bounds_.size()) return bounds_.back();  // overflow bucket
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = bounds_[i];
      const double within =
          (rank - static_cast<double>(cumulative)) / counts[i];
      return lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
    }
    cumulative = next;
  }
  return bounds_.back();
}

uint64_t Histogram::CumulativeCount(size_t bucket_index) const {
  uint64_t total = 0;
  for (size_t i = 0; i <= bucket_index && i < buckets_.size(); ++i) {
    total += buckets_[i].load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> Histogram::ExponentialBounds(double start, double factor,
                                                 size_t n) {
  MBI_CHECK(start > 0 && factor > 1.0 && n > 0);
  std::vector<double> bounds(n);
  double v = start;
  for (size_t i = 0; i < n; ++i, v *= factor) bounds[i] = v;
  return bounds;
}

std::vector<double> Histogram::LinearBounds(double start, double step,
                                            size_t n) {
  MBI_CHECK(step > 0 && n > 0);
  std::vector<double> bounds(n);
  for (size_t i = 0; i < n; ++i) bounds[i] = start + step * static_cast<double>(i);
  return bounds;
}

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    const std::string& help) {
  MutexLock lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Slot slot;
    slot.help = help;
    slot.kind = Kind::kCounter;
    slot.counter = std::make_unique<Counter>();
    it = metrics_.emplace(name, std::move(slot)).first;
  }
  MBI_CHECK(it->second.kind == Kind::kCounter);
  if (it->second.help.empty()) it->second.help = help;
  return it->second.counter.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name,
                                const std::string& help) {
  MutexLock lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Slot slot;
    slot.help = help;
    slot.kind = Kind::kGauge;
    slot.gauge = std::make_unique<Gauge>();
    it = metrics_.emplace(name, std::move(slot)).first;
  }
  MBI_CHECK(it->second.kind == Kind::kGauge);
  if (it->second.help.empty()) it->second.help = help;
  return it->second.gauge.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        std::vector<double> bounds,
                                        const std::string& help) {
  MutexLock lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Slot slot;
    slot.help = help;
    slot.kind = Kind::kHistogram;
    slot.histogram = std::make_unique<Histogram>(std::move(bounds));
    it = metrics_.emplace(name, std::move(slot)).first;
  }
  MBI_CHECK(it->second.kind == Kind::kHistogram);
  if (it->second.help.empty()) it->second.help = help;
  return it->second.histogram.get();
}

void MetricRegistry::ResetAll() {
  MutexLock lock(mu_);
  for (auto& [name, slot] : metrics_) {
    switch (slot.kind) {
      case Kind::kCounter: slot.counter->Reset(); break;
      case Kind::kGauge: slot.gauge->Reset(); break;
      case Kind::kHistogram: slot.histogram->Reset(); break;
    }
  }
}

MetricRegistry& MetricRegistry::Default() {
  // Intentionally leaked: metrics outlive every static destructor.
  // mbi-lint: allow(naked-new)
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

std::vector<MetricRegistry::Entry> MetricRegistry::Snapshot() const {
  MutexLock lock(mu_);
  std::vector<Entry> out;
  out.reserve(metrics_.size());
  for (const auto& [name, slot] : metrics_) {
    Entry e;
    e.name = name;
    e.help = slot.help;
    e.kind = slot.kind;
    e.counter = slot.counter.get();
    e.gauge = slot.gauge.get();
    e.histogram = slot.histogram.get();
    out.push_back(std::move(e));
  }
  return out;  // std::map iteration is already name-sorted
}

}  // namespace mbi::obs
