// offline-rand100k: the batch user. One §5.2 random layered DAG far larger
// than cache (v = 100 000, out-degree 8, CCR 1) is scheduled over and over
// with run_fast + to_schedule on one thread (p = 64, MAXSTEP 64).
// Generating the graph is set-up.
//
// The graph is the repository's pinned `rand:100000` instance (generator
// seed 1996 + v, as workloads/spec.cpp pins every rand:N); --seed picks
// the run's search seeds. Twelve generator seeds gave makespan/bound from
// 3.6 to 11.3 and FAST times from 0.53 to 0.89 s, so an unpinned graph
// would measure the instance, not the program.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/lint.hpp"
#include "bench.hpp"
#include "fast/fast.hpp"
#include "pipeline.hpp"
#include "sched/validation.hpp"
#include "trace.hpp"
#include "workloads/random_layered.hpp"

namespace e2ebench {

namespace {

namespace fs = fastsched;

constexpr std::size_t kNodes = 100000;
constexpr std::size_t kProcs = 64;
constexpr int kSetups = 3;  // traced run: generations timed
// Every run schedules at least the first kCounted search seeds;
// makespan_over_bound and the traced counters cover exactly these, so
// they repeat exactly for a given --seed.
constexpr std::uint64_t kCounted = 4;
// Measuring processes per untraced run; each schedules at least its
// first seed, so kParts >= kCounted covers the counted seeds.
constexpr std::uint64_t kParts = 4;
static_assert(kParts >= kCounted);
constexpr std::size_t kWindow = 5;  // schedules per latency window, at least

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// FAST at p = 64, MAXSTEP 64, with the j-th search seed of this run. Each
// run cycles through its own seeds: one search seed's probe work varies
// by about ±20 %, so a run that repeated one seed would measure the seed.
fs::fast::FastOptions options(std::uint64_t seed, std::uint64_t j) {
  fs::fast::FastOptions fo;
  fo.num_procs = kProcs;
  fo.max_steps = 64;
  fo.seed = seed * 1000003 + j;
  return fo;
}

// The correctness gate: the schedule passes sched::validate, lints clean,
// and bound <= final == makespan <= initial.
bool passes_gate(const fs::graph::TaskGraph& g, const fs::fast::FastResult& r,
                 const fs::sched::Schedule& s, double bound, RunResult& res) {
  if (!fs::sched::validate(g, s).empty()) {
    res.defect("offline: schedule fails sched::validate");
  } else if (!fs::analysis::lint(g, s).clean()) {
    res.defect("offline: schedule is not lint-clean");
  } else if (fs::graph::definitely_less(s.length(), bound) ||
             fs::graph::definitely_less(r.initial_length, r.final_length) ||
             !same_bits(s.length(), r.final_length)) {
    res.defect("offline: violates bound <= final == makespan <= initial");
  } else {
    return true;
  }
  return false;
}

fs::workloads::RandomDagParams graph_params() {
  fs::workloads::RandomDagParams params;
  params.num_nodes = kNodes;
  params.avg_out_degree = 8.0;
  params.ccr = 1.0;
  params.seed = 1996 + kNodes;
  return params;
}

// "<tag> <value>\n" with every digit of `value`.
std::string sample(const char* tag, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s %.17g\n", tag, value);
  return buf;
}

// One measuring process's share of an untraced run: generates the graph
// (timed, as set-up), then schedules search seeds first, first + kParts,
// ... until `seconds` have passed, checking each schedule. Writes one
// "<tag> <value>" line per sample to `fd`.
void measure_part(const RunOptions& opt, std::uint64_t first, double seconds,
                  int fd) {
  std::int64_t t0 = now_ns();
  const fs::graph::TaskGraph g = fs::workloads::random_layered_dag(graph_params());
  std::string out = sample("setup", static_cast<double>(now_ns() - t0) * 1e-9);
  fs::analysis::BoundOptions bo;
  bo.num_procs = kProcs;
  bo.interval_density = false;
  const double bound = fs::analysis::compute_bounds(g, bo).best();
  RunResult res;
  const auto deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::uint64_t j = first; j == first || now_ns() < deadline; j += kParts) {
    const fs::fast::FastOptions fo = options(opt.seed, j);
    t0 = now_ns();
    const fs::fast::FastResult r = fs::fast::run_fast(g, fo);
    const fs::sched::Schedule s = fs::fast::to_schedule(g, r, kProcs);
    out += sample("schedule", static_cast<double>(now_ns() - t0) * 1e-9);
    if (j < kCounted) out += sample("ratio", s.length() / bound);
    ++res.attempted;
    if (!passes_gate(g, r, s, bound, res)) ++res.failed;
  }
  out += sample("attempted", static_cast<double>(res.attempted));
  out += sample("failed", static_cast<double>(res.failed));
  out += sample("rss", peak_rss_mib());
  for (std::size_t done = 0; done < out.size();) {
    const ssize_t n = ::write(fd, out.data() + done, out.size() - done);
    if (n <= 0) _exit(1);
    done += static_cast<std::size_t>(n);
  }
}

// The untraced run, split over kParts child processes run one after the
// other. Back-to-back processes scheduling the same seeds differed by up
// to ±15 % here, with little spread inside a process: the memory a
// process is given decides how fast this memory-bound workload runs. One
// process would measure its memory; the median over several measures the
// program.
RunResult measure_in_parts(const RunOptions& opt) {
  std::vector<double> setup_s;
  std::vector<double> sched_s;
  std::vector<double> ratios;
  RunResult res;
  double rss = 0;
  for (std::uint64_t part = 0; part < kParts; ++part) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      ::close(fds[0]);
      measure_part(opt, part, opt.seconds / kParts, fds[1]);
      _exit(0);
    }
    ::close(fds[1]);
    std::string text;
    char buf[4096];
    for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) != 0;) {
      if (n > 0) text.append(buf, static_cast<std::size_t>(n));
      else if (errno != EINTR) break;
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("offline measuring process failed");
    }
    std::istringstream lines(text);
    std::string tag;
    double value = 0;
    while (lines >> tag >> value) {
      if (tag == "setup") setup_s.push_back(value);
      if (tag == "schedule") sched_s.push_back(value);
      if (tag == "ratio") ratios.push_back(value);
      if (tag == "attempted") res.attempted += static_cast<std::uint64_t>(value);
      if (tag == "failed") res.failed += static_cast<std::uint64_t>(value);
      if (tag == "rss") rss = std::max(rss, value);
    }
  }
  if (res.failed > 0) res.defect("offline: schedules failed the gate");
  const double busy_s = std::accumulate(sched_s.begin(), sched_s.end(), 0.0);
  res.set("setup_s", median(setup_s));
  res.set("schedule_s", median(sched_s));
  res.set("throughput_rps", static_cast<double>(sched_s.size()) / busy_s);
  // Fewer than 100 schedules: a window's p99 is its slowest schedule.
  res.set("latency_p50_ms", median(sched_s) * 1e3);
  res.set("latency_p99_ms", windowed_percentile(sched_s, 99, kWindow) * 1e3);
  res.set("makespan_over_bound", geomean(ratios));
  res.set("peak_rss_mib", rss);
  res.set("ok_frac", 1.0 - static_cast<double>(res.failed) /
                               static_cast<double>(res.attempted));
  std::fprintf(stderr, "offline: %zu schedules in %llu processes\n",
               sched_s.size(), static_cast<unsigned long long>(kParts));
  return res;
}

}  // namespace

RunResult run_offline(const RunOptions& opt) {
  if (!opt.trace) return measure_in_parts(opt);

  // Traced run, in this process: kSetups timed generations (one copy
  // alive at a time), then per search seed an untraced run_fast +
  // to_schedule and the traced phase-by-phase replica, which must
  // reproduce it bit for bit.
  RunResult res;
  Tracer tracer(true, 1024);
  std::optional<fs::graph::TaskGraph> graph;
  for (int i = 0; i < kSetups; ++i) {
    graph.reset();
    const Scope s(tracer, "workloads.generate", i);
    graph.emplace(fs::workloads::random_layered_dag(graph_params()));
  }
  const fs::graph::TaskGraph& g = *graph;

  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  EvalCounters counters;
  const auto deadline = now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  for (std::uint64_t j = 0; now_ns() < deadline || j < kCounted; ++j) {
    const fs::fast::FastOptions fo = options(opt.seed, j);
    std::int64_t t0 = now_ns();
    const fs::fast::FastResult r = fs::fast::run_fast(g, fo);
    const fs::sched::Schedule s = fs::fast::to_schedule(g, r, kProcs);
    untraced_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    t0 = now_ns();
    const PhaseRun run = fast_phases(g, fo, tracer, 100 + j);
    traced_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    ++res.attempted;
    if (!same_bits(s.length(), run.schedule.length()) ||
        r.assignment != run.result.assignment ||
        !same_bits(r.initial_length, run.result.initial_length) ||
        !same_bits(r.final_length, run.result.final_length)) {
      ++res.failed;
      res.defect("offline: the phase replica does not reproduce run_fast");
    }
    if (j < kCounted) add_counters(counters, run.counters);
  }

  const double edges = static_cast<double>(g.num_edges());
  const auto phase_ms = [&](const char* name) {
    return median(tracer.per_op_ms(name));
  };
  res.set("workloads.generate_ms", phase_ms("workloads.generate"));
  for (const char* name : kPhaseSpans) {
    res.set(std::string(name) + "_ms", phase_ms(name));
    res.set(std::string(name) + "_ns_per_edge", phase_ms(name) * 1e6 / edges);
  }
  set_probe_metrics(res, counters);
  // Per-layer self time per repetition (generation per set-up).
  const double reps = static_cast<double>(traced_ms.size());
  for (const char* layer : {"graph", "fast", "analysis", "serve", "common"}) {
    res.set(std::string(layer) + ".self_ms",
            tracer.layer_self_ns(layer) * 1e-6 / reps);
  }
  res.set("workloads.self_ms",
          tracer.layer_self_ns("workloads") * 1e-6 / kSetups);
  res.set("trace.overhead_frac",
          median(traced_ms) / median(untraced_ms) - 1.0);
  if (!opt.trace_dir.empty()) {
    tracer.write_chrome_json(opt.trace_dir + "/offline-rand100k.trace.json");
  }
  return res;
}

}  // namespace e2ebench
