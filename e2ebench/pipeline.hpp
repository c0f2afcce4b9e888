#pragma once

/// \file pipeline.hpp
/// The benchmark's phase-by-phase copies of the measured pipelines, with
/// a span around every call into a layer:
///
///  - `fast_phases` makes the calls `fast::run_fast` + `fast::to_schedule`
///    make, one phase at a time;
///  - `ServePipeline` makes the calls `serve::Server` makes for one request
///    line at `--batch 1`: parse, fingerprint, cache find, and on a miss
///    the body of `Server::compute_cold` (graph from spec or inline,
///    FAST, bounds, payload), then emit and cache insert.
///
/// Both are cross-checked against the code they copy (run_fast's
/// assignment and lengths bit for bit; the daemon's makespan and
/// best_bound per response), so the copies cannot drift unnoticed.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.hpp"
#include "fast/fast.hpp"
#include "graph/task_graph.hpp"
#include "sched/schedule.hpp"
#include "serve/result_cache.hpp"
#include "bench.hpp"
#include "trace.hpp"

namespace e2ebench {

using EvalCounters = fastsched::fast::IncrementalEvaluator::Counters;

/// Adds every field of `b` into `a`.
void add_counters(EvalCounters& a, const EvalCounters& b);
[[nodiscard]] bool same_counters(const EvalCounters& a, const EvalCounters& b);

/// Sets the fast.* probe metrics (probes, accepts and the per-probe
/// ratios) from the evaluator counters.
void set_probe_metrics(RunResult& res, const EvalCounters& c);

struct PhaseRun {
  fastsched::fast::FastResult result;
  EvalCounters counters;
  fastsched::sched::Schedule schedule{0, 0};
};

/// run_fast + to_schedule, phase by phase (spans graph.levels,
/// graph.classify, fast.list, fast.initial, fast.evaluator_setup,
/// fast.search, fast.materialize under operation id `op`).
[[nodiscard]] PhaseRun fast_phases(const fastsched::graph::TaskGraph& g,
                                   const fastsched::fast::FastOptions& options,
                                   Tracer& tracer, std::uint64_t op);

/// The span names of fast_phases, in call order.
inline constexpr const char* kPhaseSpans[] = {
    "graph.levels",       "graph.classify", "fast.list",
    "fast.initial",       "fast.evaluator_setup", "fast.search",
    "fast.materialize"};

/// Raw text of a top-level scalar field in a response line
/// (`"key":<text>` up to the next ',' or '}'); empty when absent.
[[nodiscard]] std::string_view json_field(std::string_view line,
                                          std::string_view key);

/// What one request did in the in-process pipeline.
struct RequestInfo {
  bool hit = false;
  bool rand_spec = false;  ///< a rand:N workload spec
  std::size_t edges = 0;
};

class ServePipeline {
 public:
  /// Same cache capacity as sched_server's default.
  explicit ServePipeline(Tracer& tracer, std::size_t cache_entries = 1024);

  /// Handles one request line with id `op`; appends the response line
  /// (newline-terminated) to `out`.
  RequestInfo handle(std::string_view line, std::uint64_t op, std::string& out);

  [[nodiscard]] const fastsched::serve::ResultCache::Stats& cache_stats()
      const noexcept {
    return cache_.stats();
  }
  /// Evaluator counters summed over every cold request.
  [[nodiscard]] const EvalCounters& counters() const noexcept {
    return counters_;
  }

 private:
  Tracer& tracer_;
  fastsched::Arena arena_;
  fastsched::serve::ResultCache cache_;
  std::string payload_;
  EvalCounters counters_;
};

}  // namespace e2ebench
