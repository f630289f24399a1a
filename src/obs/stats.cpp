#include "obs/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace pooch::obs {

void Histogram::add(double x) {
  const int i = bucket_of(x);
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  ++b_[static_cast<std::size_t>(i)];
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ == 0 ? std::numeric_limits<double>::infinity() : min_;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ == 0 ? -std::numeric_limits<double>::infinity() : max_;
}

double Histogram::mean() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

std::array<std::uint64_t, Histogram::kBuckets> Histogram::buckets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return b_;
}

int Histogram::bucket_of(double x) {
  if (!(x > 0.0)) return 0;
  const int decade = static_cast<int>(std::floor(std::log10(x))) + 12;
  return std::clamp(decade, 0, kBuckets - 1);
}

Counter& StatsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_[name];
}

Gauge& StatsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_[name];
}

Histogram& StatsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return histograms_[name];
}

std::uint64_t StatsRegistry::counter_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

double StatsRegistry::gauge_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second.value();
}

std::string StatsRegistry::to_string() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    os << name << " = " << c.value() << "\n";
  }
  char buf[64];
  for (const auto& [name, g] : gauges_) {
    std::snprintf(buf, sizeof(buf), "%.6g", g.value());
    os << name << " = " << buf << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    std::snprintf(buf, sizeof(buf), "count %llu sum %.6g min %.6g max %.6g",
                  static_cast<unsigned long long>(h.count()), h.sum(),
                  h.count() ? h.min() : 0.0, h.count() ? h.max() : 0.0);
    os << name << " = " << buf << "\n";
  }
  return os.str();
}

json::Value StatsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  json::Object counters, gauges, histograms;
  for (const auto& [name, c] : counters_) {
    counters[name] = json::Value(c.value());
  }
  for (const auto& [name, g] : gauges_) {
    gauges[name] = json::Value(g.value());
  }
  for (const auto& [name, h] : histograms_) {
    json::Object o;
    o["count"] = json::Value(h.count());
    o["sum"] = json::Value(h.sum());
    if (h.count() > 0) {
      o["min"] = json::Value(h.min());
      o["max"] = json::Value(h.max());
      o["mean"] = json::Value(h.mean());
    }
    json::Array buckets;
    for (const auto n : h.buckets()) buckets.emplace_back(n);
    o["buckets"] = json::Value(std::move(buckets));
    histograms[name] = json::Value(std::move(o));
  }
  json::Object root;
  root["counters"] = json::Value(std::move(counters));
  root["gauges"] = json::Value(std::move(gauges));
  root["histograms"] = json::Value(std::move(histograms));
  return json::Value(std::move(root));
}

void StatsRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

StatsRegistry& StatsRegistry::global() {
  static StatsRegistry* g = new StatsRegistry();  // leaked: immortal
  return *g;
}

}  // namespace pooch::obs
