// Shared pieces of the benchmark of record: run options, the result every
// workload fills, latency samples, and the workload entry points.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "gen.hpp"
#include "util/clock.hpp"

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;   ///< measured time of one pass
  bool trace = false;    ///< this pass records spans and per-layer metrics
  double scale = 1.0;
  std::string work_dir;  ///< scratch for WAL directories; emptied after
};

/// Samples per p99 window: a p99 needs at least 10 samples beyond it.
constexpr std::size_t kP99Window = 1000;

/// Latency (or any) samples in arrival order; percentiles by nearest rank.
class Samples {
 public:
  void add(double v) {
    v_.push_back(v);
    sorted_.clear();
  }
  void append(const Samples& other);
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] double percentile(double p) const;  ///< p in [0, 1]
  [[nodiscard]] double median() const { return percentile(0.5); }
  /// The p-th percentile of each run of `window` consecutive samples, in
  /// arrival order; a shorter tail joins the run before it.
  [[nodiscard]] std::vector<double> window_percentiles(double p,
                                                       std::size_t window) const;

 private:
  std::vector<double> v_;
  mutable std::vector<double> sorted_;  ///< v_ sorted, built on demand
};

struct Metric {
  double value = 0;
  std::string unit;
  std::string note;  ///< sample count, sizes: printed beside the value
};

struct Result {
  /// End-to-end metrics with a bound: CPU costs, set-up and memory.
  std::map<std::string, Metric> e2e;
  /// End-to-end figures reported without a bound, because on a shared host
  /// they move with other tenants' load by more than a bound may allow:
  /// wall-clock rates and latencies, and the restart's CPU cost.
  std::map<std::string, Metric> report;
  std::map<std::string, Metric> layer;  ///< per-layer metrics (traced pass)
  std::vector<std::string> info;        ///< sizes, policies, lateness
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;              ///< failed, wrong or degraded ops
  std::vector<std::string> failures;     ///< first few, for the log
  /// Denominators of span-derived per-layer metrics (points, batches…).
  std::map<std::string, double> counts;

  void count(const std::string& name, double n) { counts[name] += n; }
  /// Records one failed/wrong/degraded operation.
  void fail(const std::string& what);
  void set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  void set_report(const std::string& name, double value,
                  const std::string& unit, const std::string& note = "");
  void set_layer(const std::string& name, double value,
                 const std::string& unit, const std::string& note = "");
  /// `<prefix>_p50_<unit>`: the median of `s`.  `<prefix>_p99_<unit>`: the
  /// median over windows of kP99Window consecutive samples of each window's
  /// p99, so that a host stall which spoils one window cannot set it.  Each
  /// carries its sample count.
  void set_percentiles(const std::string& prefix, const Samples& s,
                       const std::string& unit);
};

/// CPU seconds and operations summed over a run; the cost per operation
/// is their ratio, a mean over every round.  How fast this host runs the
/// same work changes in steps, seconds apart, so a median of a few rounds
/// jumps between the steps' levels where a mean moves smoothly.
struct CpuCost {
  double cpu_s = 0;
  double ops = 0;

  void add(double cpu, double n) {
    cpu_s += cpu;
    ops += n;
  }
  [[nodiscard]] double us_per_op() const {
    return ops > 0 ? cpu_s * 1e6 / ops : 0.0;
  }
};

/// Median by nearest rank, like Samples::median.
double median(std::vector<double> v);

/// Seconds since an arbitrary steady origin.
double now_s();

/// CPU seconds used so far by the whole process (every thread, user and
/// kernel) / by the calling thread.  Time spent waiting for a wake-up,
/// a lock or the host's scheduler is not counted.
double process_cpu_s();
double thread_cpu_s();

/// Fresh empty directory under `base`.
std::string fresh_dir(const std::string& base, const std::string& name);
void remove_dir(const std::string& path);

Result run_ingest_wal(const Options& opt);
Result run_dashboard_live(const Options& opt);
Result run_fleet_wire(const Options& opt);

}  // namespace pb
