// Named runtime metrics: counters (monotonic events), gauges (last-seen
// values) and histograms (distributions in decade buckets). The runtime,
// arena and planner publish into a StatsRegistry when one is attached
// (sim::RunOptions::stats, planner::PlannerOptions::stats); the CLI's
// --stats flag dumps the process-global registry.
//
// Metric references returned by the registry stay valid for its lifetime
// (node-based storage), so hot paths resolve a name once and bump a
// pointer afterwards. Updates are thread-safe: counters/gauges are
// atomic, histograms take a small lock.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "obs/json.hpp"

namespace pooch::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double x) { v_.store(x, std::memory_order_relaxed); }
  void add(double dx) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + dx,
                                     std::memory_order_relaxed)) {
    }
  }
  void reset() { set(0.0); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Decade histogram over positive magnitudes: bucket i covers
/// [10^(i-12), 10^(i-11)), i.e. 1e-12 s .. 1e13 of whatever unit the
/// metric uses. Non-positive samples land in bucket 0. Count/sum/min/max
/// are exact; the buckets give the shape.
class Histogram {
 public:
  static constexpr int kBuckets = 25;

  void add(double x);

  std::uint64_t count() const;
  double sum() const;
  double min() const;  // +inf when empty
  double max() const;  // -inf when empty
  double mean() const;
  std::array<std::uint64_t, kBuckets> buckets() const;

  static int bucket_of(double x);

 private:
  mutable std::mutex mu_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::array<std::uint64_t, kBuckets> b_{};
};

class StatsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Read-only lookups; zero / empty defaults when the name was never
  /// registered (convenient in tests and report code).
  std::uint64_t counter_value(const std::string& name) const;
  double gauge_value(const std::string& name) const;

  /// Human-readable sorted dump (one metric per line).
  std::string to_string() const;
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}
  json::Value to_json() const;

  /// Drop every metric (names included).
  void clear();

  /// Process-global registry used by the CLI and ad-hoc debugging.
  static StatsRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace pooch::obs
