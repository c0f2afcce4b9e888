// e2e_bench: the end-to-end benchmark binary (run it through run.py,
// which builds it). One workload per invocation:
//
//   e2e_bench --workload offline-rand100k|serve-cold|serve-hot
//             --seed N --seconds S --trace 0|1 --server PATH [--trace-dir DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that splits the time across the layers.
// The last stdout line is the result JSON; the rest of the report goes
// to stderr. Exit status 0 when a result was printed, 2 on bad usage,
// 1 when the run could not complete.

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"

namespace e2ebench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed by every --trace 0 run.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"schedule_s", "s"},
    {"throughput_rps", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"makespan_over_bound", "ratio"},
    {"peak_rss_mib", "MiB"},
    {"ok_frac", "ratio"},
};

// Printed by every --trace 1 run; a layer that does not run on the
// workload reports 0.
constexpr MetricDef kPerLayer[] = {
    {"workloads.generate_ms", "ms"},
    {"graph.build_ms", "ms"},
    {"graph.levels_ms", "ms"},
    {"graph.classify_ms", "ms"},
    {"fast.list_ms", "ms"},
    {"fast.initial_ms", "ms"},
    {"fast.evaluator_setup_ms", "ms"},
    {"fast.search_ms", "ms"},
    {"fast.materialize_ms", "ms"},
    {"analysis.bounds_ms", "ms"},
    {"serve.parse_us", "us"},
    {"serve.fingerprint_us", "us"},
    {"serve.cache_find_us", "us"},
    {"serve.cache_insert_us", "us"},
    {"serve.serialize_us", "us"},
    {"serve.residual_us", "us"},
    {"workloads.self_ms", "ms"},
    {"graph.self_ms", "ms"},
    {"fast.self_ms", "ms"},
    {"analysis.self_ms", "ms"},
    {"serve.self_ms", "ms"},
    {"common.self_ms", "ms"},
    {"fast.probes", "count"},
    {"fast.accepts", "count"},
    {"fast.accept_ratio", "ratio"},
    {"fast.positions_per_probe", "count"},
    {"fast.early_reject_ratio", "ratio"},
    {"fast.event_probe_share", "ratio"},
    {"serve.hit_rate", "ratio"},
    {"serve.hits", "count"},
    {"serve.inserts", "count"},
    {"serve.evictions", "count"},
    {"common.heap_allocs_per_request", "count"},
    {"common.arena_high_water_bytes", "bytes"},
    {"client.late_p99_ms", "ms"},
    {"client.completion_ratio", "ratio"},
    {"graph.levels_ns_per_edge", "ns/edge"},
    {"graph.classify_ns_per_edge", "ns/edge"},
    {"fast.list_ns_per_edge", "ns/edge"},
    {"fast.initial_ns_per_edge", "ns/edge"},
    {"fast.evaluator_setup_ns_per_edge", "ns/edge"},
    {"fast.search_ns_per_edge", "ns/edge"},
    {"fast.materialize_ns_per_edge", "ns/edge"},
    {"trace.overhead_frac", "ratio"},
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload "
               "offline-rand100k|serve-cold|serve-hot --seed N --seconds S "
               "--trace 0|1 --server PATH [--trace-dir DIR]\n",
               msg);
  return 2;
}

void append_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 1e308);
  out += buf;
}

// Orders `res.metrics` as the table does; a metric outside the table is
// a benchmark bug, and so is a missing end-to-end metric.
bool conform(RunResult& res, bool trace) {
  const MetricDef* begin =
      trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricDef* end = trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  std::vector<Metric> ordered;
  for (const MetricDef* d = begin; d != end; ++d) {
    const auto it =
        std::find_if(res.metrics.begin(), res.metrics.end(),
                     [&](const Metric& m) { return m.name == d->name; });
    if (it == res.metrics.end()) {
      if (!trace) {
        std::fprintf(stderr, "e2e_bench: metric %s missing\n", d->name);
        return false;
      }
      ordered.push_back({d->name, 0.0, d->unit});
    } else {
      ordered.push_back({d->name, it->value, d->unit});
    }
  }
  for (const Metric& m : res.metrics) {
    if (std::none_of(begin, end,
                     [&](const MetricDef& d) { return m.name == d.name; })) {
      std::fprintf(stderr, "e2e_bench: metric %s is not declared\n",
                   m.name.c_str());
      return false;
    }
  }
  res.metrics = std::move(ordered);
  return true;
}

int run(int argc, char** argv) {
  if (argc % 2 == 0) return usage("every option takes a value");
  RunOptions opt;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(val);
    } else if (key == "--trace") {
      opt.trace = std::string_view(val) == "1";
      have_trace = true;
    } else if (key == "--server") {
      opt.server = val;
    } else if (key == "--trace-dir") {
      opt.trace_dir = val;
    } else {
      return usage("unknown option");
    }
  }
  if (opt.server.empty() || !have_trace || !(opt.seconds > 0)) {
    return usage("--server, --trace and a positive --seconds are required");
  }
  RunResult res;
  if (opt.workload == "offline-rand100k") {
    res = run_offline(opt);
  } else if (opt.workload == "serve-cold") {
    res = run_serve_cold(opt);
  } else if (opt.workload == "serve-hot") {
    res = run_serve_hot(opt);
  } else {
    return usage("unknown workload");
  }
  if (!conform(res, opt.trace)) return 1;

  std::string json = "{\"correct\":";
  json += res.correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(res.attempted);
  json += ",\"failed\":" + std::to_string(res.failed);
  json += ",\"metrics\":{";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    std::fprintf(stderr, "  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit);
    json += i > 0 ? ",\"" : "\"";
    json += m.name + "\":{\"value\":";
    append_number(json, m.value);
    json += ",\"unit\":\"";
    json += m.unit;
    json += "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

void RunResult::defect(const std::string& why) {
  std::fprintf(stderr, "e2e_bench: CHECK FAILED: %s\n", why.c_str());
  correct = false;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  return (*std::max_element(v.begin(), mid) + *mid) / 2;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double windowed_percentile(const std::vector<double>& samples, double q,
                           std::size_t window) {
  const std::size_t windows =
      std::clamp<std::size_t>(samples.size() / window, 1, 100);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto at = [&](std::size_t k) {
      return samples.begin() +
             static_cast<std::ptrdiff_t>(k * samples.size() / windows);
    };
    per_window.push_back(percentile(std::vector<double>(at(w), at(w + 1)), q));
  }
  std::fprintf(stderr,
               "  p%g over %zu windows: min %.6g median %.6g max %.6g\n", q,
               windows, percentile(per_window, 0), median(per_window),
               percentile(per_window, 100));
  return median(per_window);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double peak_rss_mib(int pid) {
  std::ifstream in(pid > 0 ? "/proc/" + std::to_string(pid) + "/status"
                           : std::string("/proc/self/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

}  // namespace e2ebench

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);  // a dead daemon surfaces as EPIPE
  try {
    return e2ebench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
