#include "pipeline.hpp"

#include <exception>
#include <optional>
#include <utility>

#include "analysis/bounds.hpp"
#include "common/rng.hpp"
#include "fast/incremental_evaluator.hpp"
#include "graph/classification.hpp"
#include "graph/levels.hpp"
#include "serve/protocol.hpp"
#include "workloads/spec.hpp"

namespace e2ebench {

namespace fs = fastsched;

void add_counters(EvalCounters& a, const EvalCounters& b) {
  a.moves += b.moves;
  a.early_rejected += b.early_rejected;
  a.converged += b.converged;
  a.positions_scanned += b.positions_scanned;
  a.commits += b.commits;
  a.rescores += b.rescores;
  a.event_moves += b.event_moves;
  a.event_processed += b.event_processed;
}

bool same_counters(const EvalCounters& a, const EvalCounters& b) {
  return a.moves == b.moves && a.early_rejected == b.early_rejected &&
         a.converged == b.converged &&
         a.positions_scanned == b.positions_scanned &&
         a.commits == b.commits && a.rescores == b.rescores &&
         a.event_moves == b.event_moves &&
         a.event_processed == b.event_processed;
}

void set_probe_metrics(RunResult& res, const EvalCounters& c) {
  const auto probes = static_cast<double>(c.moves);
  const auto per_probe = [&](std::uint64_t n) {
    return probes > 0 ? static_cast<double>(n) / probes : 0.0;
  };
  res.set("fast.probes", probes);
  res.set("fast.accepts", static_cast<double>(c.commits));
  res.set("fast.accept_ratio", per_probe(c.commits));
  res.set("fast.positions_per_probe", per_probe(c.positions_scanned));
  res.set("fast.early_reject_ratio", per_probe(c.early_rejected));
  res.set("fast.event_probe_share", per_probe(c.event_moves));
}

PhaseRun fast_phases(const fs::graph::TaskGraph& g,
                     const fs::fast::FastOptions& options, Tracer& tracer,
                     std::uint64_t op) {
  PhaseRun run;
  fs::fast::FastResult& r = run.result;
  const std::size_t num_procs =
      options.num_procs > 0 ? options.num_procs : g.num_nodes();

  std::optional<fs::graph::LevelInfo> levels;
  {
    const Scope s(tracer, "graph.levels", op);
    levels.emplace(fs::graph::compute_levels(g));
  }
  std::vector<fs::graph::NodeClass> classes;
  {
    const Scope s(tracer, "graph.classify", op);
    classes = fs::graph::classify_nodes(g, *levels);
  }
  {
    const Scope s(tracer, "fast.list", op);
    r.list = fs::fast::build_list(g, *levels, classes, options.list_policy);
    for (const fs::graph::NodeId n : r.list) {
      if (classes[n] != fs::graph::NodeClass::kCpn) {
        r.blocking_list.push_back(n);
      }
    }
  }
  {
    const Scope s(tracer, "fast.initial", op);
    fs::fast::InitialScheduleResult initial =
        fs::fast::initial_schedule(g, r.list, num_procs);
    r.initial_length = initial.length;
    r.assignment = std::move(initial.assignment);
  }
  std::optional<fs::fast::IncrementalEvaluator> evaluator;
  {
    const Scope s(tracer, "fast.evaluator_setup", op);
    evaluator.emplace(g, r.list, num_procs,
                      fs::fast::IncrementalEvaluator::kAutoInterval,
                      options.replay);
    if (options.reject_tails) {
      fs::analysis::RejectionTails tails =
          fs::analysis::make_rejection_tails(g, num_procs);
      evaluator->set_reject_tails(std::move(tails.tail), tails.floor);
    }
  }
  {
    const Scope s(tracer, "fast.search", op);
    fs::graph::Cost length = r.initial_length;
    fs::Rng rng(options.seed);
    fs::fast::LocalSearchOptions search_options;
    search_options.max_steps = options.max_steps;
    search_options.policy = options.neighborhood;
    r.search = fs::fast::local_search(*evaluator, r.blocking_list,
                                      r.assignment, length, search_options,
                                      rng);
    r.final_length = length;
  }
  run.counters = evaluator->counters();
  {
    const Scope s(tracer, "fast.materialize", op);
    run.schedule = fs::fast::to_schedule(g, r, num_procs);
  }
  return run;
}

std::string_view json_field(std::string_view line, std::string_view key) {
  std::string pattern;
  pattern.reserve(key.size() + 3);
  pattern += '"';
  pattern += key;
  pattern += "\":";
  const std::size_t at = line.find(pattern);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + pattern.size();
  const std::size_t end = line.find_first_of(",}", begin);
  return line.substr(begin, end == std::string_view::npos ? end : end - begin);
}

ServePipeline::ServePipeline(Tracer& tracer, std::size_t cache_entries)
    : tracer_(tracer), cache_(cache_entries) {}

RequestInfo ServePipeline::handle(std::string_view line, std::uint64_t op,
                                  std::string& out) {
  RequestInfo info;
  const Scope request_span(tracer_, "serve.request", op);
  {  // the request's arena-backed vectors must die before the reset
    fs::serve::Request req(&arena_);
    {
      const Scope s(tracer_, "serve.parse", op);
      fs::serve::parse_request(line, req);
    }
    std::uint64_t fp = 0;
    {
      const Scope s(tracer_, "serve.fingerprint", op);
      fp = fs::serve::fingerprint_request(req);
    }
    const std::string* hit = nullptr;
    {
      const Scope s(tracer_, "serve.cache_find", op);
      hit = cache_.find(fp);
    }
    info.hit = hit != nullptr;
    if (hit == nullptr) {
      payload_.clear();
      try {
        std::string label;
        const fs::graph::TaskGraph g = [&] {
          if (!req.workload.empty()) {
            const Scope s(tracer_, "workloads.generate", op);
            fs::serve::append_normalized_spec(label, req.workload);
            info.rand_spec = label.rfind("rand:", 0) == 0;
            return fs::workloads::make_workload(label).graph;
          }
          const Scope s(tracer_, "graph.build", op);
          label = "inline";
          fs::graph::TaskGraphBuilder b;
          b.reserve(req.node_weights.size(), req.edges.size());
          for (const double w : req.node_weights) b.add_node(w);
          for (const fs::serve::Edge& e : req.edges) {
            b.add_edge(e.src, e.dst, e.cost);
          }
          return b.build();
        }();
        info.edges = g.num_edges();

        fs::fast::FastOptions fo;
        fo.num_procs = req.procs;
        fo.max_steps = req.max_steps;
        fo.seed = req.seed;
        const PhaseRun run = fast_phases(g, fo, tracer_, op);
        add_counters(counters_, run.counters);
        const std::size_t procs = req.procs > 0 ? req.procs : g.num_nodes();

        std::optional<fs::analysis::BoundSet> bounds;
        {
          const Scope s(tracer_, "analysis.bounds", op);
          fs::analysis::BoundOptions bo;
          bo.num_procs = procs;
          bo.interval_density = false;
          bounds.emplace(fs::analysis::compute_bounds(g, bo));
        }
        const Scope s(tracer_, "serve.serialize", op);
        const fs::analysis::BoundCertificate* binding = bounds->binding();
        const fs::sched::Schedule& schedule = run.schedule;
        payload_ += "{\"status\":\"ok\",\"algorithm\":\"FAST\",\"workload\":\"";
        payload_ += label;
        payload_ += "\",\"nodes\":";
        fs::serve::append_u64(payload_, g.num_nodes());
        payload_ += ",\"edges\":";
        fs::serve::append_u64(payload_, g.num_edges());
        payload_ += ",\"procs\":";
        fs::serve::append_u64(payload_, procs);
        payload_ += ",\"procs_used\":";
        fs::serve::append_u64(payload_, schedule.procs_used());
        payload_ += ",\"makespan\":";
        fs::serve::append_f64(payload_, schedule.length());
        payload_ += ",\"best_bound\":";
        fs::serve::append_f64(payload_, bounds->best());
        payload_ += ",\"bound_id\":\"";
        payload_ += binding != nullptr ? binding->id : "";
        payload_ += "\",\"gap\":";
        fs::serve::append_f64(
            payload_, fs::analysis::optimality_gap(*bounds, schedule.length()));
        payload_ += '}';
      } catch (const std::exception&) {
        payload_ = "{\"status\":\"error\"}";
      }
    }
    const std::string& payload = hit != nullptr ? *hit : payload_;
    {
      const Scope s(tracer_, "serve.emit", op);
      out += "{\"id\":";
      fs::serve::append_u64(out, req.id);
      out += ',';
      out.append(payload.data() + 1, payload.size() - 1);
      out += '\n';
    }
    if (hit == nullptr && payload_.rfind("{\"status\":\"ok\"", 0) == 0) {
      const Scope s(tracer_, "serve.cache_insert", op);
      cache_.insert(fp, std::string(payload_));
    }
  }
  {
    const Scope s(tracer_, "common.arena_reset", op);
    arena_.reset();
  }
  return info;
}

}  // namespace e2ebench
