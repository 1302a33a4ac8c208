// altroute_perf: the benchmark's measuring process.  Each invocation does one
// job and prints one JSON object on stdout, so that run.py can give every
// timed repetition a fresh process (and its own peak RSS).
//
//   altroute_perf run   --workload W --seed S [--threads T]
//       set-up, then the untraced harness call
//   altroute_perf count --workload W --seed S
//       set-up, call replays of the sweep, and the paper Table 1 check
//   altroute_perf trace --workload W --seed S --trace-out FILE
//       set-up, the traced re-execution, and the isolated layer kernels;
//       writes the spans to FILE as Chrome trace-event JSON
//   altroute_perf spin  --threads T
//       the host-calibration spin kernel at 1 and at T threads
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "perf.hpp"

namespace {

using namespace altroute;

struct Args {
  std::string mode;
  std::string workload;
  std::string trace_out;
  std::uint64_t seed{1};
  int threads{1};
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) {
    throw std::invalid_argument("usage: altroute_perf run|count|trace|spin [options]");
  }
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--threads") {
      a.threads = std::stoi(value);
      if (a.threads < 1) throw std::invalid_argument("--threads must be >= 1");
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  return a;
}

// One flat JSON object, numbers printed with every digit.
class JsonObject {
 public:
  void number(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    raw(key, buf);
  }
  void text(const std::string& key, const std::string& v) { raw(key, "\"" + v + "\""); }
  void raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct TimedSetUp {
  perf::Workload workload;
  double seconds;  ///< median over the repeated set-ups
};

// Set-up takes microseconds to milliseconds, so one timing is mostly noise:
// set-up repeats for kSetUpSeconds (at least kMinSetUps times) and setup_s
// is the median.  The last set-up's workload is used.
constexpr double kSetUpSeconds = 0.1;
constexpr std::size_t kMinSetUps = 5;

TimedSetUp timed_set_up(const Args& a) {
  std::vector<double> seconds;
  perf::Workload w;
  const auto begin = std::chrono::steady_clock::now();
  while (seconds.size() < kMinSetUps || seconds_since(begin) < kSetUpSeconds) {
    const auto t0 = std::chrono::steady_clock::now();
    perf::Workload candidate = perf::set_up(a.workload, a.seed);
    seconds.push_back(seconds_since(t0));
    w = std::move(candidate);
  }
  std::nth_element(seconds.begin(), seconds.begin() + seconds.size() / 2, seconds.end());
  return TimedSetUp{std::move(w), seconds[seconds.size() / 2]};
}

// Peak resident set of this address space.  Not getrusage's ru_maxrss:
// Linux carries that across execve, so a child spawned from a large parent
// (run.py's Python, via vfork) would report the parent's size.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM line in /proc/self/status");
}

std::string run_mode(const Args& a) {
  const TimedSetUp s = timed_set_up(a);
  const perf::HarnessRun h = perf::run_harness(s.workload, a.threads);
  JsonObject o;
  o.number("setup_s", s.seconds);
  o.number("wall_s", h.wall_s);
  o.number("cpu_s", h.cpu_s);
  o.number("peak_rss_mb", peak_rss_mb());
  o.text("digest", hex(h.digest));
  o.raw("counters", h.counters.to_json());
  return o.str();
}

std::string count_mode(const Args& a) {
  JsonObject o;
  o.number("replays",
           static_cast<double>(perf::count_replays(perf::set_up(a.workload, a.seed))));
  o.number("table1_mismatches", perf::table1_mismatches());
  return o.str();
}

std::string policy_suffix(study::PolicyKind kind) {
  switch (kind) {
    case study::PolicyKind::kSinglePath:
      return "single";
    case study::PolicyKind::kUncontrolledAlternate:
      return "uncontrolled";
    case study::PolicyKind::kControlledAlternate:
      return "controlled";
    default:
      return study::policy_name(kind);
  }
}

void write_chrome_trace(const std::string& path, const std::vector<perf::Span>& spans,
                        const std::vector<std::uint64_t>& self_ns) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file '" + path + "'");
  const std::uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perf::Span& s = spans[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f",
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out << "{\"name\": \"" << s.name << "\", \"cat\": \"" << s.name.substr(0, s.name.find('.'))
        << "\", " << buf << ", \"args\": {\"self_us\": "
        << static_cast<double>(self_ns[i]) * 1e-3;
    if (!s.policy.empty()) out << ", \"policy\": \"" << s.policy << "\"";
    out << "}}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("failed writing trace file '" + path + "'");
}

std::string trace_mode(const Args& a) {
  if (a.trace_out.empty()) throw std::invalid_argument("trace mode needs --trace-out FILE");
  const TimedSetUp s = timed_set_up(a);
  const perf::Workload& w = s.workload;
  const perf::TracedRun t = perf::run_traced(w);

  // Self time = span minus the spans directly inside it.
  std::vector<std::uint64_t> self_ns(t.spans.size());
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    self_ns[i] = t.spans[i].end_ns - t.spans[i].start_ns;
  }
  for (const perf::Span& span : t.spans) {
    if (span.parent < 0) continue;
    self_ns[static_cast<std::size_t>(span.parent)] -= span.end_ns - span.start_ns;
  }
  write_chrome_trace(a.trace_out, t.spans, self_ns);

  double trace_gen_ns = 0;
  double trace_gen_self_ns = 0;
  double engine_ns = 0;
  double engine_self_ns = 0;
  double retarget_ns = 0;
  int retargets = 0;
  double root_ns = 0;
  std::map<std::string, double> engine_ns_by_policy;
  std::vector<double> task_ms;
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const perf::Span& span = t.spans[i];
    const double ns = static_cast<double>(span.end_ns - span.start_ns);
    if (span.parent < 0) root_ns += ns;
    if (span.name == "sim.generate_trace" || span.name == "scenario.make_scenario_trace") {
      trace_gen_ns += ns;
      trace_gen_self_ns += static_cast<double>(self_ns[i]);
    } else if (span.name == "loss.run_trace" || span.name == "scenario.run_scenario") {
      engine_ns += ns;
      engine_self_ns += static_cast<double>(self_ns[i]);
      engine_ns_by_policy[span.policy] += ns;
    } else if (span.name == "core.Controller::retarget" ||
               span.name == "core.protection_levels_from_lambda") {
      retarget_ns += ns;
      ++retargets;
    } else if (span.name == "study.task") {
      task_ms.push_back(ns * 1e-6);
    }
  }
  std::sort(task_ms.begin(), task_ms.end());
  const double wall_ns = t.wall_s * 1e9;
  const double calls = static_cast<double>(t.replays_per_policy);
  const double replays = calls * static_cast<double>(w.policies.size());
  const obs::prof::EngineCounters& c = t.counters;
  const perf::LayerCosts layers = perf::measure_layers(w);

  JsonObject m;
  m.number("sim.trace_gen.ns_per_call", trace_gen_ns / calls);
  m.number("sim.trace_gen.share", trace_gen_self_ns / wall_ns);
  m.number("sim.calendar_queue.ns_per_op", layers.calendar_queue_ns_per_op);
  m.number("loss.engine.ns_per_call", engine_ns / replays);
  m.number("loss.engine.share", engine_self_ns / wall_ns);
  for (const study::PolicyKind kind : w.policies) {
    m.number("loss.engine.ns_per_call." + policy_suffix(kind),
             engine_ns_by_policy[study::policy_name(kind)] / calls);
  }
  m.number("loss.events_per_call", static_cast<double>(c.events_popped) / replays);
  m.number("loss.probe.ns_per_hop", layers.probe_ns_per_hop);
  m.number("routing.build_ms", layers.route_build_ms);
  m.number("routing.alternates_per_pair", layers.alternates_per_pair);
  m.number("erlang.eq15.ns_per_solve", layers.eq15_ns_per_solve);
  const std::uint64_t lookups = c.memo_hits + c.memo_misses;
  m.number("erlang.memo_hit_rate",
           lookups > 0 ? static_cast<double>(c.memo_hits) / static_cast<double>(lookups) : 0.0);
  m.number("core.retarget_us", retargets > 0 ? retarget_ns * 1e-3 / retargets : 0.0);
  m.number("scenario.route_rebuilds", static_cast<double>(c.route_rebuilds));
  m.number("scenario.protection_resolves", static_cast<double>(c.protection_resolves));
  m.number("scenario.calls_killed", static_cast<double>(c.calls_killed));
  m.number("scenario.preemptions", static_cast<double>(c.preemptions));
  m.number("control.epochs", static_cast<double>(c.control_epochs));
  m.number("control.retargets", static_cast<double>(c.control_retargets));
  m.number("control.estimator_updates", static_cast<double>(c.estimator_updates));
  m.number("study.task_ms.p50", task_ms.empty() ? 0.0 : task_ms[task_ms.size() / 2]);

  JsonObject o;
  o.number("setup_s", s.seconds);
  o.number("traced_wall_s", t.wall_s);
  o.number("span_self_s", root_ns * 1e-9);
  o.number("degraded_route_build_ms", layers.degraded_route_build_ms);
  o.text("digest", hex(t.digest));
  o.raw("counters", c.to_json());
  o.raw("layers", m.str());
  return o.str();
}

std::string spin_mode(const Args& a) {
  JsonObject o;
  o.number("one_s", perf::spin_seconds(1));
  o.number("all_s", perf::spin_seconds(a.threads));
  return o.str();
}

}  // namespace

int main(int argc, char** argv) {
  // glibc's default thresholds move with the sizes of the blocks freed, so
  // peak RSS depended on how each seed's trace sizes fragmented the heap
  // (16-19 MB across seeds on fig6_nsfnet).  Fixed thresholds keep every
  // block of the sweep (traces are a few MB) on the heap and never trim it:
  // peak RSS is the heap's high-water mark (11.6-11.9 MB), and a freed trace's
  // pages are reused instead of being unmapped and faulted in again, which
  // had cost 85k page faults per sweep with a low mmap threshold.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  try {
    const Args a = parse_args(argc, argv);
    std::string line;
    if (a.mode == "run") {
      line = run_mode(a);
    } else if (a.mode == "count") {
      line = count_mode(a);
    } else if (a.mode == "trace") {
      line = trace_mode(a);
    } else if (a.mode == "spin") {
      line = spin_mode(a);
    } else {
      throw std::invalid_argument("unknown mode '" + a.mode + "'");
    }
    std::cout << line << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "altroute_perf: " << e.what() << "\n";
    return 1;
  }
}
