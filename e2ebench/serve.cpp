// serve-cold and serve-hot: sched_server spawned over pipes.
//
// serve-cold is one closed-loop caller sending only unique requests, so
// every request runs the whole cold path (graph, FAST, bounds, payload)
// and the cache only inserts and, past its 1 024 entries, evicts.
// serve-hot is an open loop at a fixed rate over a warmed cache: about
// 98 % of requests repeat one of a few hundred small requests under
// Zipf(1) popularity, about 2 % are fresh small graphs that miss.
//
// The traced run replays the same request stream in process through
// ServePipeline (pipeline.hpp) and checks it against the daemon.

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "daemon.hpp"
#include "pipeline.hpp"
#include "serve/protocol.hpp"
#include "trace.hpp"
#include "workloads/random_layered.hpp"

namespace e2ebench {

namespace {

namespace fs = fastsched;

constexpr int kSetups = 5;                 // setup_s is the median of these
constexpr std::size_t kColdWarmup = 64;    // cold: set-up requests
// cold: the traced stream's length, and the requests makespan_over_bound
// covers (every run sends at least these)
constexpr std::size_t kColdTraced = 1100;
constexpr std::size_t kHotUniverse = 256;  // hot: distinct cached requests
constexpr double kHotMissFrac = 0.02;      // hot: fresh requests
// hot: offered rate, half the capacity measured for this mix (6 700/s)
constexpr double kHotRateRps = 3300;
constexpr std::size_t kHotTraced = 20000;  // hot: traced stream length
constexpr std::uint64_t kWarmIdBase = 1000000000;  // ids of set-up requests
// Latency windows: 1 000 requests give a window's p99 10 samples beyond it.
constexpr std::size_t kWindow = 1000;
constexpr std::size_t kProcChoices[] = {4, 8, 16, 32};

// ---- request generation ----------------------------------------------------

// `{"id":<id>,` — every request line starts with its id.
std::string id_prefix(std::uint64_t id) {
  std::string s = "{\"id\":";
  fs::serve::append_u64(s, id);
  s += ',';
  return s;
}

// The rest of a spec request line after the id.
std::string spec_body(const std::string& spec, std::size_t procs,
                      std::uint64_t seed) {
  std::string s = "\"workload\":\"" + spec + "\",\"procs\":";
  fs::serve::append_u64(s, procs);
  s += ",\"seed\":";
  fs::serve::append_u64(s, seed);
  s += '}';
  return s;
}

// The rest of an inline request line after the id: a fresh random
// layered graph with `nodes` nodes, its edges in edge-id order.
std::string inline_body(std::size_t nodes, std::uint64_t graph_seed,
                        std::size_t procs, std::uint64_t seed) {
  fs::workloads::RandomDagParams p;
  p.num_nodes = nodes;
  p.avg_out_degree = 8.0;
  p.ccr = 1.0;
  p.seed = graph_seed;
  const fs::graph::TaskGraph g = fs::workloads::random_layered_dag(p);
  std::string s = "\"nodes\":[";
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    if (v > 0) s += ',';
    fs::serve::append_f64(s, g.weight(static_cast<fs::graph::NodeId>(v)));
  }
  s += "],\"edges\":[";
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const auto id = static_cast<fs::graph::EdgeId>(e);
    s += e > 0 ? ",[" : "[";
    fs::serve::append_u64(s, g.edge_source(id));
    s += ',';
    fs::serve::append_u64(s, g.edge_target(id));
    s += ',';
    fs::serve::append_f64(s, g.edge_cost(id));
    s += ']';
  }
  s += "],\"procs\":";
  fs::serve::append_u64(s, procs);
  s += ",\"seed\":";
  fs::serve::append_u64(s, seed);
  s += '}';
  return s;
}

std::size_t draw_procs(fs::Rng& rng) {
  return kProcChoices[rng.uniform(std::size(kProcChoices))];
}

// serve-cold's mix, drawn in blocks of 20 that hold exactly its shares:
// 8 rand:N (one N from each eighth of the log range [200, 3000]), 6
// gauss/laplace/fft specs at the paper's Paragon sizes, and 6 inline
// random layered graphs (one v from each sixth of [20, 400]), in shuffled
// order. The seed draws every instance; the blocks keep the mix's
// composition, and so its cost, from varying between seeds. The FAST seed
// field is distinct per request, so no two requests share a cache key.
class ColdMix {
 public:
  explicit ColdMix(std::uint64_t seed) : rng_(seed) {}

  std::string next(std::uint64_t seed_field) {
    static const int kGauss[] = {4, 8, 16, 32};
    static const int kLaplace[] = {4, 8, 16, 32};
    static const int kFft[] = {16, 64, 128, 512};
    if (block_.empty()) {
      for (int slot = 0; slot < kBlock; ++slot) block_.push_back(slot);
      for (std::size_t i = block_.size() - 1; i > 0; --i) {
        std::swap(block_[i], block_[rng_.uniform(i + 1)]);
      }
    }
    const int slot = block_.back();
    block_.pop_back();
    const std::size_t procs = draw_procs(rng_);
    if (slot < kRand) {
      const double lo = std::log(200.0);
      const double hi = std::log(3000.0);
      const double x = lo + (slot + rng_.uniform01()) / kRand * (hi - lo);
      return spec_body("rand:" + std::to_string(static_cast<int>(std::exp(x))),
                       procs, seed_field);
    }
    if (slot < kRand + kSpec) {
      const std::uint64_t k = rng_.uniform(3);
      const std::uint64_t i = rng_.uniform(4);
      const std::string spec =
          k == 0   ? "gauss:" + std::to_string(kGauss[i])
          : k == 1 ? "laplace:" + std::to_string(kLaplace[i])
                   : "fft:" + std::to_string(kFft[i]);
      return spec_body(spec, procs, seed_field);
    }
    const int stratum = slot - kRand - kSpec;
    const auto nodes = static_cast<std::size_t>(
        20 + (stratum + rng_.uniform01()) / (kBlock - kRand - kSpec) * 380);
    return inline_body(nodes, rng_.next(), procs, seed_field);
  }

 private:
  static constexpr int kBlock = 20;
  static constexpr int kRand = 8;
  static constexpr int kSpec = 6;
  fs::Rng rng_;
  std::vector<int> block_;
};

// serve-hot's universe item `k`, which is also its Zipf popularity rank:
// the first half of the ranks are inline graphs, whose size is fixed by
// rank (spread over 20..60 nodes), the second half tiny specs. Inline
// hits then carry about 89 % of the traffic, so the median request sits
// inside one cost mode instead of between the two, and the cost of the
// popular head does not vary between seeds; the seed draws the instances.
std::string universe_body(fs::Rng& rng, std::size_t k) {
  static const char* const kTiny[] = {"gauss:4",   "gauss:6",   "gauss:8",
                                      "laplace:4", "laplace:6", "laplace:8",
                                      "fft:4",     "fft:8",     "fft:16"};
  const std::size_t procs = draw_procs(rng);
  if (k < kHotUniverse / 2) {
    const std::size_t nodes = 20 + k * 17 % 41;
    return inline_body(nodes, rng.next(), procs, kWarmIdBase + k);
  }
  const std::size_t t = k % (std::size(kTiny) + 1);
  const std::string spec =
      t < std::size(kTiny)
          ? std::string(kTiny[t])
          : "rand:" + std::to_string(rng.uniform_range(20, 60));
  return spec_body(spec, procs, kWarmIdBase + k);
}

// A fresh serve-hot request, which misses: an inline graph of 20..60
// nodes.
std::string miss_body(fs::Rng& rng, std::uint64_t seed_field) {
  const std::size_t procs = draw_procs(rng);
  const auto nodes = static_cast<std::size_t>(rng.uniform_range(20, 60));
  return inline_body(nodes, rng.next(), procs, seed_field);
}

// ---- response checks -------------------------------------------------------

double to_double(std::string_view s) {
  double v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  return ec == std::errc() && ptr == s.data() + s.size() ? v : std::nan("");
}

// makespan / best_bound of a well-formed ok response to request `id`,
// or NaN when the response is wrong (bad id, not ok, makespan below
// the bound).
double check_response(const std::string& resp, std::uint64_t id) {
  const std::string head = id_prefix(id) + "\"status\":\"ok\"";
  if (resp.compare(0, head.size(), head) != 0) return std::nan("");
  const double makespan = to_double(json_field(resp, "makespan"));
  const double bound = to_double(json_field(resp, "best_bound"));
  if (!(bound > 0) || fs::graph::definitely_less(makespan, bound)) {
    return std::nan("");
  }
  return makespan / bound;
}

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-6;
}

// Pins process `pid` (0: the calling thread) to the `slot`-th CPU from the
// end of the CPUs this process started with, when there are at least
// three. The daemon and the benchmark's thread then each keep a core of
// their own instead of migrating, which on a shared host steadies the
// latency tail.
void pin(int pid, int slot) {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  if (cpus.size() < 3) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[cpus.size() - 1 - static_cast<std::size_t>(slot)], &one);
  (void)sched_setaffinity(pid, sizeof one, &one);
}

struct Stats {
  double hits = 0;
  double insertions = 0;
  double evictions = 0;
};

Stats server_stats(Daemon& d) {
  d.send("{\"cmd\":\"stats\"}");
  std::string resp;
  d.read_line(resp);
  return {to_double(json_field(resp, "hits")),
          to_double(json_field(resp, "insertions")),
          to_double(json_field(resp, "evictions"))};
}

// Sends request `id` and waits for its reply; returns the round trip in ms.
double round_trip(Daemon& d, std::uint64_t id, const std::string& body,
                  std::string& response) {
  const std::int64_t t0 = now_ns();
  d.send(id_prefix(id), body);
  d.read_line(response);
  return ms_between(t0, now_ns());
}

// Spawns a daemon, sends `warm` closed-loop and returns it; the response
// lines land in `responses` and the elapsed seconds in `setup_s`.
std::unique_ptr<Daemon> set_up(const RunOptions& opt,
                               const std::vector<std::string>& warm,
                               std::vector<std::string>& responses,
                               std::vector<double>& setup_s) {
  const std::int64_t t0 = now_ns();
  auto d = std::make_unique<Daemon>(opt.server);
  pin(d->pid(), 0);
  pin(0, 1);
  responses.resize(warm.size());
  for (std::size_t k = 0; k < warm.size(); ++k) {
    d->send(warm[k]);
    d->read_line(responses[k]);
  }
  setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  return d;
}

// Closes the daemon after a run; returns its diag line.
std::string tear_down(std::unique_ptr<Daemon>& d) {
  std::string diag = d->finish();
  d.reset();
  return diag;
}

// ---- stream definitions ----------------------------------------------------

struct Stream {
  std::vector<std::string> warm;    ///< set-up request lines (cache warm-up)
  /// Request bodies after the id prefix; measured request i (its id) is
  /// id_prefix(i) + bodies[body_of[i]].
  std::vector<std::string> bodies;
  std::vector<std::uint32_t> body_of;
  /// serve-hot: universe item each request repeats, or -1 for a fresh miss.
  std::vector<long> item;

  [[nodiscard]] std::size_t size() const { return body_of.size(); }
  [[nodiscard]] const std::string& body(std::size_t i) const {
    return bodies[body_of[i]];
  }
  void add(std::string body) {
    body_of.push_back(static_cast<std::uint32_t>(bodies.size()));
    bodies.push_back(std::move(body));
  }
};

// serve-cold's stream: set-up requests (small ones, drawn like serve-hot's
// universe) and `count` measured requests of the cold mix.
Stream cold_stream(std::uint64_t seed, std::size_t count) {
  Stream s;
  fs::Rng warm_rng(seed * 2 + 1);
  for (std::size_t k = 0; k < kColdWarmup; ++k) {
    s.warm.push_back(id_prefix(kWarmIdBase + k) + universe_body(warm_rng, k));
  }
  ColdMix mix(seed * 2);
  for (std::size_t i = 0; i < count; ++i) s.add(mix.next(i + 1));
  return s;
}

// serve-hot's stream: the universe as set-up requests and `count`
// measured requests, repeats under Zipf(1) popularity and fresh misses.
Stream hot_stream(std::uint64_t seed, std::size_t count) {
  Stream s;
  fs::Rng universe_rng(seed * 2 + 1);
  for (std::size_t k = 0; k < kHotUniverse; ++k) {
    s.bodies.push_back(universe_body(universe_rng, k));
    s.warm.push_back(id_prefix(kWarmIdBase + k) + s.bodies.back());
  }
  // Zipf(1) popularity over the universe.
  std::vector<double> cdf(kHotUniverse);
  double total = 0;
  for (std::size_t k = 0; k < kHotUniverse; ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf[k] = total;
  }
  fs::Rng rng(seed * 2);
  for (std::size_t i = 0; i < count; ++i) {
    if (rng.uniform01() < kHotMissFrac) {
      s.item.push_back(-1);
      s.add(miss_body(rng, i + 1));
    } else {
      const double u = rng.uniform01() * total;
      const auto k = std::min<std::size_t>(
          kHotUniverse - 1,
          static_cast<std::size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                                   cdf.begin()));
      s.item.push_back(static_cast<long>(k));
      s.body_of.push_back(static_cast<std::uint32_t>(k));
    }
  }
  return s;
}

// ---- open loop -------------------------------------------------------------

struct OpenLoop {
  std::vector<double> latency_ms;  ///< from each request's scheduled send
  std::vector<double> late_ms;     ///< how late each send started
  std::vector<std::string> responses;
  double wall_s = 0;               ///< first scheduled send to last reply
  double offered_s = 0;            ///< length of the send schedule
};

// Sends the requests of `s` at `rate` per second, each when it is due,
// and takes the replies as they arrive, from this one thread. Every
// reply that has arrived is taken before each send, so while a send
// blocks on a full request pipe the daemon can owe only the replies to
// the requests in that pipe, far fewer than fill the reply pipe: the
// daemon never blocks on its replies, and the send always completes.
OpenLoop open_loop(Daemon& d, const Stream& s, double rate) {
  OpenLoop r;
  const std::size_t n = s.size();
  r.latency_ms.resize(n);
  r.late_ms.resize(n);
  r.responses.resize(n);
  const double period_ns = 1e9 / rate;
  const std::int64_t start = now_ns() + 1000000;
  const auto due = [&](std::size_t i) {
    return start +
           static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
  };
  for (std::size_t sent = 0, got = 0; got < n;) {
    while (got < n && d.poll_line(r.responses[got])) {
      r.latency_ms[got] = ms_between(due(got), now_ns());
      ++got;
    }
    if (sent < n && now_ns() >= due(sent)) {
      r.late_ms[sent] = ms_between(due(sent), now_ns());
      d.send(id_prefix(sent), s.body(sent));
      ++sent;
    }
  }
  r.wall_s = ms_between(start, now_ns()) * 1e-3;
  r.offered_s = static_cast<double>(n) / rate;
  return r;
}

// The response a hit on universe item `k` must be, byte for byte: the
// cold response to the set-up request, with request `id`'s id.
std::string expected_hit(const std::vector<std::string>& warm_responses,
                         long k, std::uint64_t id) {
  const std::string& cold = warm_responses[static_cast<std::size_t>(k)];
  return id_prefix(id) + cold.substr(cold.find(',') + 1);
}

// Checks every response and counts the bad ones into `res`. Returns
// makespan/bound of every distinct request the daemon scheduled among
// the set-up requests and the first `counted` measured requests (repeats
// are not distinct), a set fixed by the seed.
std::vector<double> check_all(const Stream& s,
                              const std::vector<std::string>& warm_responses,
                              const std::vector<std::string>& responses,
                              std::size_t counted, RunResult& res) {
  std::vector<double> ratios;
  ratios.reserve(responses.size() + warm_responses.size());
  std::uint64_t bad = 0;
  for (std::size_t k = 0; k < warm_responses.size(); ++k) {
    const double ratio = check_response(warm_responses[k], kWarmIdBase + k);
    if (std::isnan(ratio)) {
      ++bad;
    } else {
      ratios.push_back(ratio);
    }
  }
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const bool repeat = !s.item.empty() && s.item[i] >= 0;
    const double ratio = check_response(responses[i], i);
    if (std::isnan(ratio) ||
        (repeat &&
         responses[i] != expected_hit(warm_responses, s.item[i], i))) {
      ++bad;
    } else if (!repeat && i < counted) {
      ratios.push_back(ratio);
    }
  }
  res.attempted += responses.size();
  res.failed += bad;
  if (bad > 0) {
    res.defect(std::to_string(bad) + " responses failed their check");
  }
  return ratios;
}

// Latencies of failed requests count as infinite.
void fail_latencies(const std::vector<std::string>& responses,
                    std::vector<double>& latency_ms) {
  for (std::size_t i = 0; i < responses.size(); ++i) {
    if (std::isnan(check_response(responses[i], i))) {
      latency_ms[i] = HUGE_VAL;
    }
  }
}

// The e2e metrics shared by both serve workloads.
void serve_metrics(RunResult& res, const std::vector<double>& setup_s,
                   const std::vector<double>& latency_ms,
                   const std::vector<double>& cold_ms, double throughput,
                   const std::vector<double>& ratios, double rss) {
  res.set("setup_s", median(setup_s));
  res.set("schedule_s", median(cold_ms) * 1e-3);
  res.set("throughput_rps", throughput);
  res.set("latency_p50_ms", windowed_percentile(latency_ms, 50, kWindow));
  res.set("latency_p99_ms", windowed_percentile(latency_ms, 99, kWindow));
  res.set("makespan_over_bound", geomean(ratios));
  res.set("peak_rss_mib", rss);
  res.set("ok_frac",
          1.0 - static_cast<double>(res.failed) /
                    static_cast<double>(res.attempted));
}

// Hits the daemon reports must be exactly the repeats the stream sent:
// a repeat that missed the cache counts as a failed request.
void check_hits(const Stream& s, const Stats& st, RunResult& res) {
  const auto repeats = static_cast<double>(std::count_if(
      s.item.begin(), s.item.end(), [](long k) { return k >= 0; }));
  if (st.hits != repeats) {
    res.failed += static_cast<std::uint64_t>(std::fabs(repeats - st.hits));
    res.defect("cache hits " + std::to_string(st.hits) + " != repeats sent " +
               std::to_string(repeats));
  }
}

// ---- traced run -------------------------------------------------------------

// Daemon pass over a fixed stream, then the same stream in process, traced
// and untraced; reports the per-layer metrics.
RunResult traced(const RunOptions& opt, const Stream& s, bool open) {
  RunResult res;
  std::vector<double> setup_s;
  std::vector<std::string> warm_responses;
  auto d = set_up(opt, s.warm, warm_responses, setup_s);

  OpenLoop loop;
  if (open) {
    loop = open_loop(*d, s, kHotRateRps);
  } else {
    loop.latency_ms.resize(s.size());
    loop.responses.resize(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      loop.latency_ms[i] = round_trip(*d, i, s.body(i), loop.responses[i]);
    }
  }
  check_all(s, warm_responses, loop.responses, 0, res);
  const Stats st = server_stats(*d);
  check_hits(s, st, res);
  const std::string diag = tear_down(d);

  // In process: warm-up untraced, then the stream traced; then the whole
  // again untraced, for the overhead and the repeat check.
  Tracer tracer(false, s.size() * 24);
  ServePipeline traced_pipe(tracer);
  Tracer off(false);
  ServePipeline plain_pipe(off);
  std::string out;
  std::string line;
  std::vector<RequestInfo> info(s.size());
  std::int64_t traced_ns = 0;
  std::int64_t plain_ns = 0;
  for (ServePipeline* pipe : {&traced_pipe, &plain_pipe}) {
    for (std::size_t k = 0; k < s.warm.size(); ++k) {
      out.clear();
      (void)pipe->handle(s.warm[k], kWarmIdBase + k, out);
    }
  }
  tracer.set_on(true);
  for (ServePipeline* pipe : {&traced_pipe, &plain_pipe}) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < s.size(); ++i) {
      out.clear();
      line = id_prefix(i);
      line += s.body(i);
      const RequestInfo ri = pipe->handle(line, i, out);
      if (pipe == &traced_pipe) {
        info[i] = ri;
        // Replay cross-check: the copy must give the daemon's answer.
        const std::string& resp = loop.responses[i];
        if (json_field(out, "makespan") != json_field(resp, "makespan") ||
            json_field(out, "best_bound") != json_field(resp, "best_bound")) {
          ++res.failed;
          res.defect("replay of request " + std::to_string(i) +
                     " disagrees with the daemon");
        }
      }
    }
    (pipe == &traced_pipe ? traced_ns : plain_ns) = now_ns() - t0;
  }
  res.attempted += s.size();

  // Deterministic counters must agree: daemon vs copy, traced vs plain.
  const auto& cs = traced_pipe.cache_stats();
  const auto& ps = plain_pipe.cache_stats();
  if (!same_counters(traced_pipe.counters(), plain_pipe.counters()) ||
      cs.hits != ps.hits || cs.insertions != ps.insertions ||
      cs.evictions != ps.evictions) {
    res.defect("counters differ between the traced and untraced replay");
  }
  if (static_cast<double>(cs.hits) != st.hits ||
      static_cast<double>(cs.insertions) != st.insertions ||
      static_cast<double>(cs.evictions) != st.evictions) {
    res.defect("replay cache counters differ from the daemon's");
  }

  const double n = static_cast<double>(s.size());
  const std::map<std::string, SpanTotals> totals = tracer.totals();
  const auto total_ns = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_ns;
  };
  for (const char* name :
       {"workloads.generate", "graph.build", "analysis.bounds"}) {
    res.set(std::string(name) + "_ms", total_ns(name) / n * 1e-6);
  }
  for (const char* name : kPhaseSpans) {
    res.set(std::string(name) + "_ms", total_ns(name) / n * 1e-6);
  }
  for (const char* name :
       {"serve.parse", "serve.fingerprint", "serve.cache_find",
        "serve.cache_insert", "serve.serialize"}) {
    res.set(std::string(name) + "_us", total_ns(name) / n * 1e-3);
  }
  // Residual: mean daemon latency minus the mean time inside layer calls.
  const auto req = totals.find("serve.request");
  const double in_layers_ns =
      req == totals.end() ? 0.0 : req->second.total_ns - req->second.self_ns;
  res.set("serve.residual_us",
          mean(loop.latency_ms) * 1e3 - in_layers_ns / n * 1e-3);
  for (const char* layer :
       {"workloads", "graph", "fast", "analysis", "serve", "common"}) {
    res.set(std::string(layer) + ".self_ms",
            tracer.layer_self_ns(layer) / n * 1e-6);
  }

  // Paper-claim readout: each FAST phase in ns per edge over the rand:N
  // requests the stream computed.
  std::map<std::string, double> rand_ns;
  double rand_edges = 0;
  for (const RequestInfo& ri : info) {
    if (ri.rand_spec && !ri.hit) rand_edges += static_cast<double>(ri.edges);
  }
  for (const Span& sp : tracer.spans()) {
    const RequestInfo& ri = info[sp.op];
    if (ri.rand_spec && !ri.hit) {
      rand_ns[sp.name] += static_cast<double>(sp.end_ns - sp.start_ns);
    }
  }
  for (const char* name : kPhaseSpans) {
    res.set(std::string(name) + "_ns_per_edge",
            rand_edges > 0 ? rand_ns[name] / rand_edges : 0);
  }

  set_probe_metrics(res, traced_pipe.counters());

  res.set("serve.hit_rate", st.hits / n);
  res.set("serve.hits", st.hits);
  res.set("serve.inserts", st.insertions);
  res.set("serve.evictions", st.evictions);
  const double allocs = to_double(json_field(diag, "heap_allocs"));
  const double requests = to_double(json_field(diag, "requests"));
  res.set("common.heap_allocs_per_request", allocs / requests);
  res.set("common.arena_high_water_bytes",
          to_double(json_field(diag, "arena_high_water")));
  if (open) {
    res.set("client.late_p99_ms", percentile(loop.late_ms, 99));
    res.set("client.completion_ratio", loop.offered_s / loop.wall_s);
  } else {
    res.set("client.completion_ratio", 1.0);
  }
  res.set("trace.overhead_frac",
          static_cast<double>(traced_ns) / static_cast<double>(plain_ns) - 1.0);
  if (!opt.trace_dir.empty()) {
    tracer.write_chrome_json(opt.trace_dir + "/" + opt.workload +
                             ".trace.json");
  }
  return res;
}

}  // namespace

RunResult run_serve_cold(const RunOptions& opt) {
  if (opt.trace) return traced(opt, cold_stream(opt.seed, kColdTraced), false);

  // Requests are generated between round trips, outside their timing, so
  // the stream is as long as the time allows (and at least kColdTraced).
  Stream s = cold_stream(opt.seed, 0);
  std::vector<double> setup_s;
  std::vector<std::string> warm_responses;
  std::unique_ptr<Daemon> d;
  for (int i = 0; i < kSetups; ++i) {
    if (d) tear_down(d);
    d = set_up(opt, s.warm, warm_responses, setup_s);
  }

  ColdMix mix(opt.seed * 2);
  std::vector<std::string> responses;
  std::vector<double> latency_ms;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  while (now_ns() < deadline || s.size() < kColdTraced) {
    const std::uint64_t i = s.size();
    s.add(mix.next(i + 1));
    responses.emplace_back();
    latency_ms.push_back(round_trip(*d, i, s.body(i), responses.back()));
  }
  const double busy_s =
      std::accumulate(latency_ms.begin(), latency_ms.end(), 0.0) * 1e-3;
  const double rss = peak_rss_mib(d->pid());
  const Stats st = server_stats(*d);
  tear_down(d);

  RunResult res;
  const std::vector<double> ratios =
      check_all(s, warm_responses, responses, kColdTraced, res);
  check_hits(s, st, res);
  fail_latencies(responses, latency_ms);
  // Closed loop with one caller: throughput is requests per second the
  // caller spent waiting (request generation is not the server's time).
  serve_metrics(res, setup_s, latency_ms, latency_ms,
                static_cast<double>(responses.size()) / busy_s, ratios, rss);
  std::fprintf(stderr, "serve-cold: %zu requests, %.0f evictions\n",
               responses.size(), st.evictions);
  return res;
}

RunResult run_serve_hot(const RunOptions& opt) {
  if (opt.trace) return traced(opt, hot_stream(opt.seed, kHotTraced), true);

  const Stream s = hot_stream(
      opt.seed, std::max(kWindow, static_cast<std::size_t>(
                                      kHotRateRps * opt.seconds)));
  std::vector<double> setup_s;
  std::vector<std::string> warm_responses;
  std::unique_ptr<Daemon> d;
  for (int i = 0; i < kSetups; ++i) {
    if (d) tear_down(d);
    d = set_up(opt, s.warm, warm_responses, setup_s);
  }
  OpenLoop loop = open_loop(*d, s, kHotRateRps);
  const double rss = peak_rss_mib(d->pid());
  const Stats st = server_stats(*d);
  tear_down(d);

  RunResult res;
  const std::vector<double> ratios =
      check_all(s, warm_responses, loop.responses, s.size(), res);
  check_hits(s, st, res);
  fail_latencies(loop.responses, loop.latency_ms);
  std::vector<double> miss_ms;
  for (std::size_t i = 0; i < s.item.size(); ++i) {
    if (s.item[i] < 0) miss_ms.push_back(loop.latency_ms[i]);
  }
  // Open-loop validity: the replies must keep up with the offered rate;
  // a run whose backlog grew is flagged, not averaged in.
  const double keep_up = loop.offered_s / loop.wall_s;
  if (keep_up < 0.97) {
    res.defect("serve-hot: backlog grew (completion/offered = " +
               std::to_string(keep_up) + ")");
  }
  serve_metrics(res, setup_s, loop.latency_ms, miss_ms,
                static_cast<double>(loop.responses.size()) / loop.wall_s,
                ratios, rss);
  std::fprintf(stderr,
               "serve-hot: %zu requests at %.0f/s, %zu misses, "
               "late p99 %.3f ms, "
               "completion/offered %.4f\n",
               loop.responses.size(), kHotRateRps, miss_ms.size(),
               percentile(loop.late_ms, 99), keep_up);
  return res;
}

}  // namespace e2ebench
