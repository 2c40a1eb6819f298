#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <filesystem>

#include "bench.hpp"

namespace pb {

namespace {

/// Nearest rank: the smallest value with at least p of the samples at or
/// below it.  `sorted` is not empty.
double nearest_rank(const std::vector<double>& sorted, double p) {
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

}  // namespace

void Samples::append(const Samples& other) {
  v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  sorted_.clear();
}

double Samples::percentile(double p) const {
  if (v_.empty()) return 0.0;
  if (sorted_.size() != v_.size()) {
    sorted_ = v_;
    std::sort(sorted_.begin(), sorted_.end());
  }
  return nearest_rank(sorted_, p);
}

std::vector<double> Samples::window_percentiles(double p,
                                                std::size_t window) const {
  std::vector<double> out;
  std::size_t first = 0;
  while (first < v_.size()) {
    // A tail shorter than a window joins the window before it.
    const std::size_t last =
        v_.size() - first < 2 * window ? v_.size() : first + window;
    std::vector<double> w(v_.begin() + static_cast<std::ptrdiff_t>(first),
                          v_.begin() + static_cast<std::ptrdiff_t>(last));
    std::sort(w.begin(), w.end());
    out.push_back(nearest_rank(w, p));
    first = last;
  }
  return out;
}

void Result::fail(const std::string& what) {
  failed += 1;
  if (failures.size() < 8) failures.push_back(what);
}

void Result::set(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  e2e[name] = Metric{value, unit, note};
}

void Result::set_report(const std::string& name, double value,
                        const std::string& unit, const std::string& note) {
  report[name] = Metric{value, unit, note};
}

void Result::set_layer(const std::string& name, double value,
                       const std::string& unit, const std::string& note) {
  layer[name] = Metric{value, unit, note};
}

void Result::set_percentiles(const std::string& prefix, const Samples& s,
                             const std::string& unit) {
  const std::string n = "n=" + std::to_string(s.size());
  set_report(prefix + "_p50_" + unit, s.median(), unit, n);
  const std::vector<double> p99s = s.window_percentiles(0.99, kP99Window);
  set_report(prefix + "_p99_" + unit, median(p99s), unit,
             n + ", median of " + std::to_string(p99s.size()) + " windows' p99" +
                 (s.size() < kP99Window ? " (too few samples for a p99)" : ""));
}

double median(std::vector<double> v) {
  Samples s;
  for (double x : v) s.add(x);
  return s.median();
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

std::string fresh_dir(const std::string& base, const std::string& name) {
  namespace fs = std::filesystem;
  const fs::path p = fs::path(base) / name;
  std::error_code ec;
  fs::remove_all(p, ec);
  fs::create_directories(p, ec);
  return p.string();
}

void remove_dir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace pb
