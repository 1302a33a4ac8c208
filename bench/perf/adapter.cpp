// The one place where the benchmark calls the simulation layers the way
// study::run_sweep_with_routes and study::run_scenario_sweep do at
// threads = 1: same calls, same order, same options.  When the harness
// changes how it drives the layers, this file changes with it; run.py fails
// the run when the traced digest stops matching the harness's.
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/controlled_policy.hpp"
#include "core/controller.hpp"
#include "core/protection.hpp"
#include "erlang/erlang_bound.hpp"
#include "loss/engine.hpp"
#include "loss/policies.hpp"
#include "perf.hpp"
#include "scenario/runner.hpp"
#include "sim/stats.hpp"

namespace altroute::perf {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// Spans stay in memory until the run ends; a span's parent is the span open
// around it when it started.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::vector<Span>& spans) : spans_(spans) {}

  void open(std::string name, std::string policy) {
    const int parent = open_.empty() ? -1 : open_.back();
    open_.push_back(static_cast<int>(spans_.size()));
    spans_.push_back(Span{std::move(name), parent, now_ns(), 0, std::move(policy)});
  }

  void close() {
    spans_[static_cast<std::size_t>(open_.back())].end_ns = now_ns();
    open_.pop_back();
  }

 private:
  std::vector<Span>& spans_;
  std::vector<int> open_;
};

class Scope {
 public:
  Scope(SpanRecorder& recorder, std::string name, std::string policy = {})
      : recorder_(recorder) {
    recorder_.open(std::move(name), std::move(policy));
  }
  ~Scope() { recorder_.close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& recorder_;
};

std::unique_ptr<loss::RoutingPolicy> make_policy(study::PolicyKind kind) {
  switch (kind) {
    case study::PolicyKind::kSinglePath:
      return std::make_unique<loss::SinglePathPolicy>();
    case study::PolicyKind::kUncontrolledAlternate:
      return std::make_unique<loss::UncontrolledAlternatePolicy>();
    case study::PolicyKind::kControlledAlternate:
      return std::make_unique<core::ControlledAlternatePolicy>();
    default:
      throw std::invalid_argument("altroute_perf: policy '" + study::policy_name(kind) +
                                  "' is not used by any workload");
  }
}

double horizon_of(const Workload& w) {
  return w.is_scenario ? w.scenario_sweep.warmup + w.scenario_sweep.measure
                       : w.sweep.warmup + w.sweep.measure;
}

// The load factor whose matrix is closest to nominal.
double nominal_factor(const Workload& w) {
  if (w.is_scenario) return w.scenario_sweep.load_factor;
  double best = w.sweep.load_factors.front();
  for (const double f : w.sweep.load_factors) {
    if (std::abs(f - 1.0) < std::abs(best - 1.0)) best = f;
  }
  return best;
}

sim::CallTrace make_trace(const Workload& w, const net::TrafficMatrix& traffic,
                          std::uint64_t seed) {
  return w.is_scenario ? scenario::make_scenario_trace(traffic, w.scen, horizon_of(w), seed)
                       : sim::generate_trace(traffic, horizon_of(w), seed);
}

// study::run_sweep_with_routes, unrolled.
TracedRun traced_sweep(const Workload& w) {
  const study::SweepOptions& o = w.sweep;
  const double horizon = o.warmup + o.measure;
  const std::size_t policy_count = w.policies.size();
  const std::size_t seed_count = static_cast<std::size_t>(o.seeds);
  TracedRun out;
  SpanRecorder rec(out.spans);
  const std::uint64_t start = now_ns();

  study::SweepResult result;
  result.load_factors = o.load_factors;
  result.curves.resize(policy_count);
  for (std::size_t pi = 0; pi < policy_count; ++pi) {
    result.curves[pi].name = study::policy_name(w.policies[pi]);
  }

  struct LoadPoint {
    net::TrafficMatrix traffic;
    std::vector<int> reservations;
  };
  std::vector<LoadPoint> points;
  std::optional<core::Controller> controller;
  {
    Scope prologue(rec, "study.prologue");
    {
      Scope s(rec, "core.Controller");
      controller.emplace(w.graph, w.nominal, w.routes, core::ControllerConfig{o.max_alt_hops});
    }
    for (const double factor : o.load_factors) {
      LoadPoint point;
      point.traffic = w.nominal.scaled(factor);
      result.offered_erlangs.push_back(point.traffic.total());
      {
        Scope s(rec, "core.Controller::retarget");
        controller->retarget(point.traffic);
      }
      if (o.erlang_bound) {
        Scope s(rec, "erlang.erlang_bound");
        result.erlang_bound.push_back(erlang::erlang_bound(w.graph, point.traffic).bound);
      }
      point.reservations = controller->engine_options(o.warmup).reservations;
      points.push_back(std::move(point));
    }
  }

  const std::size_t task_count = points.size() * seed_count;
  std::vector<double> blocking(task_count * policy_count);
  std::vector<double> alternate(task_count * policy_count);
  for (std::size_t task = 0; task < task_count; ++task) {
    Scope task_span(rec, "study.task");
    const LoadPoint& point = points[task / seed_count];
    const std::uint64_t seed = o.base_seed + static_cast<std::uint64_t>(task % seed_count);
    const sim::CallTrace trace = [&] {
      Scope s(rec, "sim.generate_trace");
      return sim::generate_trace(point.traffic, horizon, seed);
    }();
    out.replays_per_policy += static_cast<long long>(trace.size());
    for (std::size_t pi = 0; pi < policy_count; ++pi) {
      const std::unique_ptr<loss::RoutingPolicy> policy = make_policy(w.policies[pi]);
      loss::EngineOptions engine;
      engine.warmup = o.warmup;
      engine.policy_seed = seed;
      engine.link_stats = false;
      engine.reservations = point.reservations;
      engine.counters = &out.counters;
      const loss::RunResult run = [&] {
        Scope s(rec, "loss.run_trace", result.curves[pi].name);
        return loss::run_trace(w.graph, controller->routes(), *policy, trace, engine);
      }();
      blocking[task * policy_count + pi] = run.blocking();
      alternate[task * policy_count + pi] = run.alternate_fraction();
    }
  }

  {
    Scope epilogue(rec, "study.epilogue");
    for (std::size_t li = 0; li < points.size(); ++li) {
      for (std::size_t pi = 0; pi < policy_count; ++pi) {
        sim::RunningStats b;
        sim::RunningStats a;
        for (std::size_t s = 0; s < seed_count; ++s) {
          b.add(blocking[(li * seed_count + s) * policy_count + pi]);
          a.add(alternate[(li * seed_count + s) * policy_count + pi]);
        }
        result.curves[pi].mean_blocking.push_back(b.mean());
        result.curves[pi].ci95.push_back(b.ci95_halfwidth());
        result.curves[pi].alternate_fraction.push_back(a.mean());
      }
    }
  }
  out.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  out.digest = digest(result);
  return out;
}

// study::run_scenario_sweep, unrolled.
TracedRun traced_scenario(const Workload& w) {
  const study::ScenarioSweepOptions& o = w.scenario_sweep;
  const double horizon = o.warmup + o.measure;
  const std::size_t policy_count = w.policies.size();
  const std::size_t seed_count = static_cast<std::size_t>(o.seeds);
  const std::size_t bins = static_cast<std::size_t>(o.time_bins);
  TracedRun out;
  SpanRecorder rec(out.spans);
  const std::uint64_t start = now_ns();

  net::TrafficMatrix traffic;
  std::vector<int> reservations;
  {
    Scope prologue(rec, "study.prologue");
    traffic = w.nominal.scaled(o.load_factor);
    routing::RouteTable routes;
    {
      Scope s(rec, "routing.build_min_hop_routes");
      routes = routing::build_min_hop_routes(w.graph, o.max_alt_hops);
    }
    std::vector<double> loads;
    {
      Scope s(rec, "routing.primary_link_loads");
      loads = routing::primary_link_loads(w.graph, routes, traffic);
    }
    Scope s(rec, "core.protection_levels_from_lambda");
    reservations = core::protection_levels_from_lambda(w.graph, loads, o.max_alt_hops);
  }

  struct Slot {
    double blocking{0.0};
    long long dropped{0};
    std::vector<long long> bin_offered;
    std::vector<long long> bin_blocked;
  };
  std::vector<Slot> slots(seed_count * policy_count);
  study::ScenarioSweepResult result;
  for (std::size_t s = 0; s < seed_count; ++s) {
    Scope task_span(rec, "study.task");
    const std::uint64_t seed = o.base_seed + static_cast<std::uint64_t>(s);
    const sim::CallTrace trace = [&] {
      Scope span(rec, "scenario.make_scenario_trace");
      return scenario::make_scenario_trace(traffic, w.scen, horizon, seed);
    }();
    out.replays_per_policy += static_cast<long long>(trace.size());
    for (std::size_t pi = 0; pi < policy_count; ++pi) {
      const std::unique_ptr<loss::RoutingPolicy> policy = make_policy(w.policies[pi]);
      scenario::ScenarioEngineOptions engine;
      engine.warmup = o.warmup;
      engine.policy_seed = seed;
      engine.time_bins = o.time_bins;
      engine.max_alt_hops = o.max_alt_hops;
      engine.reservations = reservations;
      engine.auto_resolve_protection = o.auto_resolve_protection;
      if (o.control.enabled()) engine.control = &o.control;
      engine.counters = &out.counters;
      const scenario::ScenarioRunResult r = [&] {
        Scope span(rec, "scenario.run_scenario", study::policy_name(w.policies[pi]));
        return scenario::run_scenario(w.graph, traffic, *policy, trace, w.scen, engine);
      }();
      Slot& slot = slots[s * policy_count + pi];
      slot.blocking = r.run.blocking();
      slot.dropped = r.dropped;
      slot.bin_offered = r.run.bin_offered;
      slot.bin_blocked = r.run.bin_blocked;
      if (s == 0 && pi == 0) result.applied = r.applied;
    }
  }

  {
    Scope epilogue(rec, "study.epilogue");
    const double bin_width = o.measure / o.time_bins;
    for (int b = 0; b < o.time_bins; ++b) result.bin_start.push_back(o.warmup + b * bin_width);
    for (std::size_t pi = 0; pi < policy_count; ++pi) {
      study::ScenarioCurve curve;
      curve.name = study::policy_name(w.policies[pi]);
      curve.bin_offered.assign(bins, 0);
      curve.bin_blocked.assign(bins, 0);
      sim::RunningStats blocking;
      for (std::size_t s = 0; s < seed_count; ++s) {
        const Slot& slot = slots[s * policy_count + pi];
        blocking.add(slot.blocking);
        curve.dropped += slot.dropped;
        for (std::size_t b = 0; b < bins; ++b) {
          curve.bin_offered[b] += slot.bin_offered[b];
          curve.bin_blocked[b] += slot.bin_blocked[b];
        }
      }
      curve.mean_blocking = blocking.mean();
      curve.ci95 = blocking.ci95_halfwidth();
      for (std::size_t b = 0; b < bins; ++b) {
        curve.bin_blocking.push_back(
            curve.bin_offered[b] > 0 ? static_cast<double>(curve.bin_blocked[b]) /
                                           static_cast<double>(curve.bin_offered[b])
                                     : 0.0);
      }
      result.curves.push_back(std::move(curve));
    }
  }
  out.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  out.digest = digest(result);
  return out;
}

}  // namespace

TracedRun run_traced(const Workload& workload) {
  return workload.is_scenario ? traced_scenario(workload) : traced_sweep(workload);
}

long long count_replays(const Workload& w) {
  const std::vector<double> factors =
      w.is_scenario ? std::vector<double>{w.scenario_sweep.load_factor} : w.sweep.load_factors;
  const std::uint64_t base = w.is_scenario ? w.scenario_sweep.base_seed : w.sweep.base_seed;
  const int seeds = w.is_scenario ? w.scenario_sweep.seeds : w.sweep.seeds;
  long long calls = 0;
  for (const double factor : factors) {
    const net::TrafficMatrix traffic = w.nominal.scaled(factor);
    for (int s = 0; s < seeds; ++s) {
      calls += static_cast<long long>(
          make_trace(w, traffic, base + static_cast<std::uint64_t>(s)).size());
    }
  }
  return calls * static_cast<long long>(w.policies.size());
}

LayerCosts measure_layers(const Workload& w) {
  const int hops = w.max_alt_hops();
  const std::uint64_t seed = w.is_scenario ? w.scenario_sweep.base_seed : w.sweep.base_seed;
  const net::TrafficMatrix traffic = w.nominal.scaled(nominal_factor(w));
  LayerCosts c;
  c.calendar_queue_ns_per_op = calendar_queue_ns_per_op(make_trace(w, traffic, seed));

  const routing::RouteTable routes =
      w.is_scenario ? routing::build_min_hop_routes(w.graph, hops) : w.routes;
  c.route_build_ms = route_build_ms(w.graph, hops);
  c.alternates_per_pair = routing::census(routes).mean_alternates;
  c.probe_ns_per_hop = probe_ns_per_hop(
      w.graph, routes, core::protection_levels(w.graph, routes, traffic, hops), seed);

  std::vector<double> lambda;
  std::vector<int> capacity;
  const std::vector<int> link_capacity = core::link_capacities(w.graph);
  const std::vector<double> factors =
      w.is_scenario ? std::vector<double>{w.scenario_sweep.load_factor} : w.sweep.load_factors;
  for (const double factor : factors) {
    const std::vector<double> loads =
        routing::primary_link_loads(w.graph, routes, w.nominal.scaled(factor));
    lambda.insert(lambda.end(), loads.begin(), loads.end());
    capacity.insert(capacity.end(), link_capacity.begin(), link_capacity.end());
  }
  c.eq15_ns_per_solve = eq15_ns_per_solve(lambda, capacity, hops);

  int degraded = 0;
  for (const scenario::ScenarioEvent& e : w.scen.events) {
    if (e.kind != scenario::EventKind::kLinkFail) continue;
    net::Graph graph = w.graph;
    graph.fail_duplex(net::NodeId(e.node_a), net::NodeId(e.node_b));
    c.degraded_route_build_ms += route_build_ms(graph, hops);
    ++degraded;
  }
  if (degraded > 0) c.degraded_route_build_ms /= degraded;
  return c;
}

}  // namespace altroute::perf
