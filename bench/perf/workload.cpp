// Workload set-up, the untraced harness call, result digests, and the
// Table 1 check.
#include <time.h>

#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "erlang/state_protection.hpp"
#include "netgraph/topologies.hpp"
#include "perf.hpp"
#include "scenario/parse.hpp"
#include "study/nsfnet_traffic.hpp"

namespace altroute::perf {

namespace {

// Four staggered 10-unit fail/repair cycles on NSFNet facilities, each
// followed by a capacity halve/restore elsewhere, inside the [10, 110)
// measurement window.  With auto_resolve_protection every event re-solves
// Eq. 15 and every fail/repair rebuilds the route table; halving the
// 10<->11 facility (primary load > 150 Erlangs) forces preemptions.
constexpr const char* kFailoverScenario = R"({
  "name": "nsfnet-failover",
  "events": [
    {"time": 20, "type": "link_fail",      "a": 2,  "b": 3},
    {"time": 25, "type": "capacity_scale", "a": 7,  "b": 9,  "factor": 0.5},
    {"time": 30, "type": "link_repair",    "a": 2,  "b": 3},
    {"time": 35, "type": "capacity_scale", "a": 7,  "b": 9,  "factor": 2},
    {"time": 40, "type": "link_fail",      "a": 6,  "b": 7},
    {"time": 45, "type": "capacity_scale", "a": 1,  "b": 2,  "factor": 0.5},
    {"time": 50, "type": "link_repair",    "a": 6,  "b": 7},
    {"time": 55, "type": "capacity_scale", "a": 1,  "b": 2,  "factor": 2},
    {"time": 60, "type": "link_fail",      "a": 0,  "b": 1},
    {"time": 65, "type": "capacity_scale", "a": 10, "b": 11, "factor": 0.5},
    {"time": 70, "type": "link_repair",    "a": 0,  "b": 1},
    {"time": 75, "type": "capacity_scale", "a": 10, "b": 11, "factor": 2},
    {"time": 80, "type": "link_fail",      "a": 4,  "b": 5},
    {"time": 85, "type": "capacity_scale", "a": 3,  "b": 4,  "factor": 0.5},
    {"time": 90, "type": "link_repair",    "a": 4,  "b": 5},
    {"time": 95, "type": "capacity_scale", "a": 3,  "b": 4,  "factor": 2}
  ]
})";

const std::vector<study::PolicyKind> kPolicies{study::PolicyKind::kSinglePath,
                                               study::PolicyKind::kUncontrolledAlternate,
                                               study::PolicyKind::kControlledAlternate};

double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

class Fnv1a {
 public:
  void add(double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a,", v);
    bytes(buf);
  }
  void add(long long v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld,", v);
    bytes(buf);
  }
  void add(const std::vector<double>& v) {
    for (const double x : v) add(x);
    bytes(";");
  }
  void add(const std::vector<long long>& v) {
    for (const long long x : v) add(x);
    bytes(";");
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void bytes(const char* s) {
    for (; *s != '\0'; ++s) {
      h_ ^= static_cast<unsigned char>(*s);
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

}  // namespace

Workload set_up(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.policies = kPolicies;
  if (name == "fig6_nsfnet") {
    // The paper's Figure 6: Load 6..16 in units where 10 is nominal.
    w.graph = net::nsfnet_t3();
    w.nominal = study::nsfnet_nominal_traffic();
    w.sweep.load_factors.clear();
    for (const double load : {6.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 16.0}) {
      w.sweep.load_factors.push_back(load / 10.0);
    }
    w.sweep.max_alt_hops = 11;
  } else if (name == "mesh_overload") {
    w.graph = net::full_mesh(8, 30);
    w.nominal = net::TrafficMatrix::uniform(8, 26.0);
    w.sweep.load_factors = {1.0};
    w.sweep.max_alt_hops = 6;
  } else if (name == "nsfnet_failover") {
    w.is_scenario = true;
    w.graph = net::nsfnet_t3();
    w.nominal = study::nsfnet_nominal_traffic();
    w.scen = scenario::scenario_from_json(kFailoverScenario);
    study::ScenarioSweepOptions& o = w.scenario_sweep;
    o.seeds = 30;
    o.max_alt_hops = 11;
    o.base_seed = seed;
    o.time_bins = 20;
    o.auto_resolve_protection = true;
    o.control.epoch = 1.0;
    o.control.estimator = control::EstimatorKind::kEwma;
    return w;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.sweep.seeds = 10;
  w.sweep.base_seed = seed;
  w.routes = routing::build_min_hop_routes(w.graph, w.sweep.max_alt_hops);
  return w;
}

std::uint64_t digest(const study::SweepResult& result) {
  Fnv1a h;
  h.add(result.load_factors);
  h.add(result.offered_erlangs);
  for (const study::PolicyCurve& c : result.curves) {
    h.add(c.mean_blocking);
    h.add(c.ci95);
    h.add(c.alternate_fraction);
    for (const sim::SampleSummary& s : c.pair_blocking) {
      h.add(static_cast<long long>(s.count));
      h.add(std::vector<double>{s.mean, s.stddev, s.min, s.max, s.median, s.cv, s.skewness});
    }
  }
  h.add(result.erlang_bound);
  return h.value();
}

std::uint64_t digest(const study::ScenarioSweepResult& result) {
  Fnv1a h;
  h.add(result.bin_start);
  for (const study::ScenarioCurve& c : result.curves) {
    h.add(c.mean_blocking);
    h.add(c.ci95);
    h.add(c.dropped);
    h.add(c.bin_offered);
    h.add(c.bin_blocked);
    h.add(c.bin_blocking);
  }
  for (const scenario::AppliedEvent& e : result.applied) {
    h.add(e.time);
    h.add(static_cast<long long>(e.kind));
    h.add(static_cast<long long>(e.links_changed));
    h.add(e.calls_killed);
  }
  return h.value();
}

HarnessRun run_harness(const Workload& workload, int threads) {
  HarnessRun out;
  const auto wall0 = std::chrono::steady_clock::now();
  const double cpu0 = cpu_now_s();
  const auto stop_clocks = [&] {
    out.cpu_s = cpu_now_s() - cpu0;
    out.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
  };
  if (workload.is_scenario) {
    study::ScenarioSweepOptions o = workload.scenario_sweep;
    o.threads = threads;
    o.prof.counters = &out.counters;
    const study::ScenarioSweepResult r = study::run_scenario_sweep(
        workload.graph, workload.nominal, workload.scen, workload.policies, o);
    stop_clocks();
    out.digest = digest(r);
  } else {
    study::SweepOptions o = workload.sweep;
    o.threads = threads;
    o.prof.counters = &out.counters;
    const study::SweepResult r = study::run_sweep_with_routes(
        workload.graph, workload.nominal, workload.routes, workload.policies, o);
    stop_clocks();
    out.digest = digest(r);
  }
  return out;
}

int table1_mismatches() {
  int bad = 0;
  for (const net::NsfnetTable1Row& row : net::nsfnet_table1()) {
    if (erlang::min_state_protection(row.lambda, row.capacity, 11) != row.r_h11) ++bad;
  }
  return bad;
}

}  // namespace altroute::perf
