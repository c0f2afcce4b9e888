#pragma once

/// \file bench.hpp
/// Shared declarations of the end-to-end benchmark binary: run options,
/// the result every workload returns, and the statistics helpers.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

struct RunOptions {
  std::string workload;     ///< offline-rand100k | serve-cold | serve-hot
  std::uint64_t seed = 1;   ///< the only source of every generated input
  double seconds = 10;      ///< length of the measured phase
  bool trace = false;       ///< traced run: per-layer metrics instead
  std::string server;       ///< path of the sched_server binary
  std::string trace_dir;    ///< where the traced run writes its spans
};

/// One named metric; its unit comes from the metric tables in main.cpp.
struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
};

/// What a workload run returns. `correct` is false when any output
/// failed its check or a determinism cross-check disagreed.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void set(const std::string& name, double value) {
    metrics.push_back({name, value});
  }
  /// Records a failed check: prints `why` to stderr and clears `correct`.
  void defect(const std::string& why);
};

RunResult run_offline(const RunOptions& opt);
RunResult run_serve_cold(const RunOptions& opt);
RunResult run_serve_hot(const RunOptions& opt);

// ---- time ----------------------------------------------------------------

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- statistics ------------------------------------------------------------

/// Median (mean of the two middle values for even counts); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile `q` in [0, 100] (0 gives the minimum); 0 when
/// empty.
[[nodiscard]] double percentile(std::vector<double> v, double q);
/// Percentile `q` of `samples`, robust to a stall of the shared host: the
/// samples, in the order they were taken, are cut into as many
/// consecutive windows of at least `window` samples as they hold (at most
/// 50), and the median of the windows' percentiles is returned. A stall
/// then moves the windows it falls in, not the result.
[[nodiscard]] double windowed_percentile(const std::vector<double>& samples,
                                         double q, std::size_t window);
/// Geometric mean of positive values; 0 when empty.
[[nodiscard]] double geomean(const std::vector<double>& v);
[[nodiscard]] double mean(const std::vector<double>& v);

/// VmHWM (peak resident set) of process `pid` ("self" when 0), in MiB;
/// 0 when /proc is unreadable.
[[nodiscard]] double peak_rss_mib(int pid = 0);

}  // namespace e2ebench
