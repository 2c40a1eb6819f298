// pmbench — the benchmark of record.
//
//   pmbench --workload <ingest_wal|dashboard_live|fleet_wire> --seed N
//           --seconds S --trace 0|1 [--scale F] [--work-dir D]
//           [--out-dir D] [--git-sha X] [--src-digest X]
//   pmbench --list-metrics
//
// Prints each metric by name with its unit, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the bounded
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// A traced run measures the workload twice, untraced then traced.  Its JSON
// carries the untraced figures reported without a bound as report.<metric>
// and the difference of every end-to-end metric and reported figure as
// trace.overhead.<metric>.  Exits non-zero when any answer is wrong.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "trace.hpp"

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif

namespace {

struct Declared {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the two agree).  The bounded
// end-to-end metrics are CPU time and bytes: on a shared host they hold
// still while wake-up latency comes and goes (see README).
constexpr Declared kEndToEnd[] = {
    {"setup_s", "s"},
    {"write_cpu_us_per_point", "us"},
    {"resident_bytes_per_point", "bytes"},
};

/// End-to-end figures without a bound: in every run's log, and in the
/// traced run's JSON as report.<name>.
constexpr Declared kReport[] = {
    {"query_cpu_us_per_query", "us"},
    {"recover_cpu_us_per_point", "us"},
    {"setup_wall_s", "s"},
    {"ingest_points_per_s", "1/s"},
    {"ingest_ack_p50_us", "us"},
    {"ingest_ack_p99_us", "us"},
    {"recover_points_per_s", "1/s"},
    {"query_per_s", "1/s"},
    {"query_p50_ms", "ms"},
    {"query_p99_ms", "ms"},
};

constexpr Declared kPerLayer[] = {
    {"ingest.parse_ns_per_point", "ns"},
    {"ingest.wal_append_us_per_batch", "us"},
    {"ingest.wal_bytes_per_point", "bytes"},
    {"ingest.replay_parse_ms", "ms"},
    {"ingest.replay_write_ms", "ms"},
    {"ingest.blocked_submit_ratio", "ratio"},
    {"ingest.max_queue_depth", "count"},
    {"tsdb.write_batch_ns_per_point", "ns"},
    {"tsdb.run_seals", "count"},
    {"tsdb.run_folds", "count"},
    {"tsdb.packed_ratio", "ratio"},
    {"tsdb.scan_build_ms", "ms"},
    {"tsdb.index_probes_per_query", "count"},
    {"query.parse_us", "us"},
    {"query.plan_us", "us"},
    {"query.cache_hit_ratio", "ratio"},
    {"query.fold_ms", "ms"},
    {"query.rows_per_result_row", "count"},
    {"fleet.encode_ns_per_point", "ns"},
    {"fleet.decode_ns_per_point", "ns"},
    {"fleet.gather_bytes_per_query", "bytes"},
    {"fleet.pushdown_ratio", "ratio"},
    {"fleet.node_imbalance", "ratio"},
};

std::string json_number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const std::map<std::string, pb::Metric>& m,
                         bool with_notes) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit);
    if (with_notes && !metric.note.empty()) {
      out += ", \"note\": " + json_string(metric.note);
    }
    out += "}";
  }
  return out + "}";
}

void print_metrics(const char* title, const std::map<std::string, pb::Metric>& m) {
  std::printf("%s\n", title);
  for (const auto& [name, metric] : m) {
    std::printf("  %-40s %16.6g %-6s %s\n", name.c_str(), metric.value,
                metric.unit.c_str(), metric.note.c_str());
  }
}

/// Keeps exactly the declared metrics; a missing or non-finite one is a
/// failure of the run.
template <std::size_t N>
std::map<std::string, pb::Metric> declared(
    const Declared (&names)[N], const std::map<std::string, pb::Metric>& have,
    pb::Result& r) {
  std::map<std::string, pb::Metric> out;
  for (const Declared& d : names) {
    auto it = have.find(d.name);
    if (it == have.end() || !std::isfinite(it->second.value) ||
        it->second.unit != d.unit) {
      r.fail(std::string("metric ") + d.name + " missing or malformed");
      continue;
    }
    out.emplace(d.name, it->second);
  }
  return out;
}

pb::Result run(const pb::Options& opt) {
  if (opt.workload == "ingest_wal") return pb::run_ingest_wal(opt);
  if (opt.workload == "dashboard_live") return pb::run_dashboard_live(opt);
  return pb::run_fleet_wire(opt);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "pmbench: %s\nusage: pmbench --workload "
               "<ingest_wal|dashboard_live|fleet_wire> --seed N --seconds S "
               "--trace 0|1 [--scale F] [--work-dir D] [--out-dir D] "
               "[--git-sha X] [--src-digest X]\n",
               why);
  return 2;
}

/// Prints the declared metrics as JSON, for run.py to compare with
/// BENCHMARK.json.
int list_metrics() {
  auto entry = [](std::string& out, const std::string& name, const char* unit) {
    if (out.size() > 1) out += ", ";
    out += '[';
    out += json_string(name);
    out += ", ";
    out += json_string(unit);
    out += ']';
  };
  std::string e2e = "[", layer = "[";
  for (const Declared& d : kEndToEnd) entry(e2e, d.name, d.unit);
  for (const Declared& d : kPerLayer) entry(layer, d.name, d.unit);
  for (const Declared& d : kReport) {
    entry(layer, std::string("report.") + d.name, d.unit);
  }
  for (const Declared& d : kEndToEnd) {
    entry(layer, std::string("trace.overhead.") + d.name, d.unit);
  }
  for (const Declared& d : kReport) {
    entry(layer, std::string("trace.overhead.") + d.name, d.unit);
  }
  std::printf("{\"end_to_end\": %s], \"per_layer\": %s]}\n", e2e.c_str(),
              layer.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
    return list_metrics();
  }
  pb::Options opt;
  std::string out_dir = ".", git_sha = "none", src_digest = "none";
  opt.work_dir = "pmbench-work";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = val == "1";
    } else if (arg == "--scale") {
      opt.scale = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--work-dir") {
      opt.work_dir = val;
    } else if (arg == "--out-dir") {
      out_dir = val;
    } else if (arg == "--git-sha") {
      git_sha = val;
    } else if (arg == "--src-digest") {
      src_digest = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload != "ingest_wal" && opt.workload != "dashboard_live" &&
      opt.workload != "fleet_wire") {
    return usage("unknown workload");
  }
  if (!(opt.seconds > 0) || !(opt.scale > 0)) {
    return usage("--seconds and --scale must be positive");
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  std::filesystem::create_directories(out_dir, ec);

  const std::string fingerprint =
      "cores=" + std::to_string(std::thread::hardware_concurrency()) +
      " compiler=gcc-" + __VERSION__ + " build=" + PB_BUILD_TYPE +
      " git=" + git_sha + " src=" + src_digest;
  std::printf("pmbench %s seed=%llu seconds=%g trace=%d scale=%g\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.scale);
  std::printf("host: %s\n", fingerprint.c_str());

  const bool traced = opt.trace;
  pb::Options untraced_opt = opt;
  untraced_opt.trace = false;
  pb::Result result = run(untraced_opt);
  const std::map<std::string, pb::Metric> e2e = result.e2e;
  const std::map<std::string, pb::Metric> report = result.report;
  if (traced) {
    // Same workload again with spans on; the end-to-end difference is the
    // tracing overhead.
    pb::trace::drain();
    pb::trace::enable(true);
    pb::Result t = run(opt);
    pb::trace::enable(false);
    pb::report_spans(out_dir + "/spans-" + opt.workload + "-" +
                         std::to_string(opt.seed) + ".csv",
                     t);
    print_metrics("untraced end-to-end:", result.e2e);
    print_metrics("traced end-to-end:", t.e2e);
    const auto overhead = [&t](const std::map<std::string, pb::Metric>& base,
                               const std::map<std::string, pb::Metric>& with) {
      for (const auto& [name, m] : base) {
        auto it = with.find(name);
        if (it == with.end()) continue;
        t.set_layer("trace.overhead." + name, it->second.value - m.value,
                    m.unit, "traced minus untraced");
      }
    };
    overhead(e2e, t.e2e);
    overhead(report, t.report);
    for (const auto& [name, m] : report) {
      t.set_layer("report." + name, m.value, m.unit, m.note);
    }
    t.attempted += result.attempted;
    t.failed += result.failed;
    t.failures.insert(t.failures.end(), result.failures.begin(),
                      result.failures.end());
    result = std::move(t);
  }
  pb::remove_dir(opt.work_dir);

  std::map<std::string, pb::Metric> out;
  if (traced) {
    out = declared(kPerLayer, result.layer, result);
    for (const auto& [name, m] : result.layer) {
      if (name.rfind("trace.overhead.", 0) == 0 || name.rfind("report.", 0) == 0) {
        out.emplace(name, m);
      }
    }
  } else {
    out = declared(kEndToEnd, e2e, result);
  }
  for (const std::string& line : result.info) std::printf("%s\n", line.c_str());
  print_metrics("reported without a bound (untraced):", report);
  if (!traced) print_metrics("end-to-end:", out);
  if (traced) {
    print_metrics("per-layer:", out);
    std::map<std::string, pb::Metric> extra;
    for (const auto& [name, m] : result.layer) {
      if (out.count(name) == 0) extra.emplace(name, m);
    }
    print_metrics("per-layer, this workload only (report only):", extra);
  }
  for (const std::string& f : result.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  const bool correct = result.failed == 0 && result.attempted > 0;

  // Full record for perfbench/compare.py.
  const std::string record =
      "{\"workload\": " + json_string(opt.workload) +
      ", \"seed\": " + std::to_string(opt.seed) +
      ", \"seconds\": " + json_number(opt.seconds) +
      ", \"trace\": " + (traced ? "1" : "0") +
      ", \"host\": " + json_string(fingerprint) +
      ", \"correct\": " + (correct ? "true" : "false") +
      ", \"metrics\": " + metrics_json(out, true) +
      ", \"report\": " + metrics_json(report, true) +
      ", \"layer_extra\": " + metrics_json(result.layer, true) + "}";
  if (std::FILE* f = std::fopen((out_dir + "/results.jsonl").c_str(), "a")) {
    std::fprintf(f, "%s\n", record.c_str());
    std::fclose(f);
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(1, result.attempted)),
              static_cast<unsigned long long>(result.failed),
              metrics_json(out, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
