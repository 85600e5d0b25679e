// Process-wide metrics for the MBI query/build path.
//
// Three primitives, all safe to hammer from many threads:
//
//   Counter   — monotonically increasing uint64 (relaxed atomic add).
//   Gauge     — last-written double (set/add), e.g. current index bytes.
//   Histogram — fixed upper-bound buckets with atomic counts plus sum and
//               count, supporting mean and interpolated percentiles. Bucket
//               layout is fixed at registration so Observe() is two relaxed
//               atomic adds and a branchless-ish binary search.
//
// Metrics live in a MetricRegistry; the process-wide default registry is
// MetricRegistry::Default(). Registration returns stable pointers, so hot
// paths register once (function-local static) and then touch only atomics:
//
//   static obs::Counter* expanded = obs::MetricRegistry::Default().GetCounter(
//       "mbi_search_nodes_expanded_total", "pool pops during Algorithm 2");
//   expanded->Increment();
//
// Exposition formats (Prometheus text, JSON) live in obs/export.h.

#ifndef MBI_OBS_METRICS_H_
#define MBI_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mbi::obs {

/// Monotonically increasing counter. Increment is one relaxed atomic add.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written value; Add() is atomic (C++20 floating-point fetch_add).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts observations v <= bounds[i];
/// one implicit overflow bucket counts the rest (Prometheus "+Inf").
class Histogram {
 public:
  /// `bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const;

  /// Interpolated percentile estimate for p in [0, 1]: finds the bucket
  /// holding the p-th observation and interpolates linearly inside it (the
  /// overflow bucket reports its lower bound). 0 observations -> 0.
  double Percentile(double p) const;

  const std::vector<double>& bounds() const { return bounds_; }

  /// Cumulative count of buckets [0, i] — the Prometheus `le` convention.
  uint64_t CumulativeCount(size_t bucket_index) const;

  /// Point-in-time copy of per-bucket counts (size bounds()+1; last entry is
  /// the overflow bucket). Concurrent observers may make the copy slightly
  /// inconsistent with Count(); exposition tolerates that.
  std::vector<uint64_t> BucketCounts() const;

  void Reset();

  /// `n` bounds: start, start*factor, start*factor^2, ... (factor > 1).
  static std::vector<double> ExponentialBounds(double start, double factor,
                                               size_t n);
  /// `n` bounds: start, start+step, ... (step > 0).
  static std::vector<double> LinearBounds(double start, double step, size_t n);

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Named collection of metrics. Get* registers on first use and returns a
/// stable pointer thereafter; a name maps to exactly one metric kind
/// (re-registering under a different kind aborts — programmer error). A
/// lookup without help text (a reader going by name) never hides the help
/// its owner registers later.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "");

  /// `bounds` is consulted only on first registration; later calls with the
  /// same name return the existing histogram regardless of bounds.
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds,
                          const std::string& help = "");

  /// Zeroes every registered metric in place. Pointers handed out earlier
  /// stay valid — benches call this between configurations.
  void ResetAll();

  /// The process-wide registry the library instruments itself with.
  static MetricRegistry& Default();

  // --- exposition support (see obs/export.h for the formatters) ---
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    std::string help;
    Kind kind;
    const Counter* counter = nullptr;      // kCounter
    const Gauge* gauge = nullptr;          // kGauge
    const Histogram* histogram = nullptr;  // kHistogram
  };

  /// Sorted-by-name snapshot of registered metrics (values read live).
  std::vector<Entry> Snapshot() const;

 private:
  struct Slot {
    std::string help;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  // Guards the name -> slot map only; the metric objects themselves are
  // lock-free atomics, reached through stable pointers handed out under the
  // lock once at registration.
  mutable Mutex mu_;
  std::map<std::string, Slot> metrics_
      MBI_GUARDED_BY(mu_);  // ordered => stable exposition
};

}  // namespace mbi::obs

#endif  // MBI_OBS_METRICS_H_
