// Shared declarations of the altroute_perf benchmark program.
//
// altroute_perf measures what a user of this reproduction pays for a sweep:
// set-up (topology, traffic fit, scenario parse, route table), the sweep
// call itself through the public study harness, and -- in a separate traced
// pass -- the share of every library layer underneath it.  run.py in this
// directory drives it; see README.md for the metric glossary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netgraph/graph.hpp"
#include "netgraph/traffic_matrix.hpp"
#include "obs/prof/counters.hpp"
#include "routing/route_table.hpp"
#include "scenario/scenario.hpp"
#include "sim/call_trace.hpp"
#include "study/experiment.hpp"

namespace altroute::perf {

/// One benchmark workload, fully set up: everything the harness call
/// consumes.  Exactly one of `sweep` (static workloads) and `scenario_sweep`
/// (scenario workloads) is in use, selected by `is_scenario`.
struct Workload {
  std::string name;
  net::Graph graph;
  net::TrafficMatrix nominal;
  std::vector<study::PolicyKind> policies;
  bool is_scenario{false};
  /// Static workloads: the route program built in set-up and handed to
  /// study::run_sweep_with_routes.
  routing::RouteTable routes;
  study::SweepOptions sweep;
  /// Scenario workloads: the parsed event script and sweep options.
  scenario::Scenario scen;
  study::ScenarioSweepOptions scenario_sweep;

  [[nodiscard]] int max_alt_hops() const {
    return is_scenario ? scenario_sweep.max_alt_hops : sweep.max_alt_hops;
  }
};

/// Builds workload `name` with `seed` as the sweep's base seed.  This is the
/// whole set-up the setup_s metric times.  Throws on an unknown name.
[[nodiscard]] Workload set_up(const std::string& name, std::uint64_t seed);

/// FNV-1a over the hex-float ("%a") rendering of every number in a sweep
/// result, so two results digest equal exactly when they are bit-identical.
[[nodiscard]] std::uint64_t digest(const study::SweepResult& result);
[[nodiscard]] std::uint64_t digest(const study::ScenarioSweepResult& result);

/// Outcome of one untraced harness call.
struct HarnessRun {
  double wall_s{0.0};
  double cpu_s{0.0};  ///< process CPU time spent inside the call
  std::uint64_t digest{0};
  obs::prof::EngineCounters counters;
};

/// Runs the workload through study::run_sweep_with_routes or
/// study::run_scenario_sweep with `threads` workers.
[[nodiscard]] HarnessRun run_harness(const Workload& workload, int threads);

/// Paper Table 1: min_state_protection on every printed Lambda at H = 11
/// reproduces the printed r.  Returns the number of rows that disagree.
[[nodiscard]] int table1_mismatches();

// --- every other call into the simulation layers (adapter.cpp) --------------

/// Call replays the harness performs: trace calls summed over every
/// (load point, seed) task, times the number of policies.
[[nodiscard]] long long count_replays(const Workload& workload);

/// Per-layer costs measured on the workload's own inputs, one layer at a
/// time (see the kernels below).
struct LayerCosts {
  double calendar_queue_ns_per_op{0.0};
  double probe_ns_per_hop{0.0};
  double eq15_ns_per_solve{0.0};
  double route_build_ms{0.0};           ///< the route table in force at t = 0
  double alternates_per_pair{0.0};
  double degraded_route_build_ms{0.0};  ///< mean over link_fail topologies; 0 if none
};

[[nodiscard]] LayerCosts measure_layers(const Workload& workload);

/// One timed call into a library layer.  `parent` indexes the enclosing
/// span (-1 for a root); `policy` names the routing policy of an engine span.
struct Span {
  std::string name;
  int parent{-1};
  std::uint64_t start_ns{0};
  std::uint64_t end_ns{0};
  std::string policy;
};

struct TracedRun {
  std::vector<Span> spans;
  double wall_s{0.0};
  std::uint64_t digest{0};
  obs::prof::EngineCounters counters;
  /// Call replays per policy (trace calls summed over tasks).
  long long replays_per_policy{0};
};

/// Re-executes the workload through the same layer calls, in the same
/// order and with the same options, as the harness makes at threads = 1,
/// recording a span around each call.  Its digest must equal the harness's.
[[nodiscard]] TracedRun run_traced(const Workload& workload);

// --- isolated layer kernels (layers.cpp) ------------------------------------
// Each kernel repeats its work for at least 0.2 s and reports the median
// repetition, so one slow repetition does not move the number.

/// Hold-model replay of `trace` through sim::CalendarQueue: every call
/// schedules its departure, departures due before an arrival pop first.
[[nodiscard]] double calendar_queue_ns_per_op(const sim::CallTrace& trace);

/// NetworkState::first_blocking_link over every alternate of `routes` on a
/// part-full state seeded from `seed`; nanoseconds per link examined.
[[nodiscard]] double probe_ns_per_hop(const net::Graph& graph, const routing::RouteTable& routes,
                                      const std::vector<int>& reservations, std::uint64_t seed);

/// erlang::min_state_protection over every (lambda[k], capacity[k], H).
[[nodiscard]] double eq15_ns_per_solve(const std::vector<double>& lambda,
                                       const std::vector<int>& capacity, int max_alt_hops);

/// Median wall time of routing::build_min_hop_routes(graph, H), in ms.
[[nodiscard]] double route_build_ms(const net::Graph& graph, int max_alt_hops);

/// Wall seconds for `threads` threads to each finish one fixed spin kernel.
[[nodiscard]] double spin_seconds(int threads);

}  // namespace altroute::perf
