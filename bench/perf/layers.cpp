// Isolated per-layer kernels: one layer's operation, fed the workload's own
// inputs, timed without the rest of the simulator around it.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

#include "erlang/state_protection.hpp"
#include "loss/network_state.hpp"
#include "perf.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/rng.hpp"

namespace altroute::perf {

namespace {

constexpr double kKernelSeconds = 0.2;
constexpr int kMinRepetitions = 3;

// Keeps kernel results observable so the optimizer cannot drop the work.
volatile std::uint64_t g_sink = 0;

// Runs `body` (which returns its operation count) until kKernelSeconds have
// passed and at least kMinRepetitions ran; the median ns per operation.
template <class Body>
double median_ns_per_op(Body&& body) {
  std::vector<double> samples;
  const auto begin = std::chrono::steady_clock::now();
  while (samples.size() < kMinRepetitions ||
         std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count() <
             kKernelSeconds) {
    const auto t0 = std::chrono::steady_clock::now();
    const double ops = static_cast<double>(body());
    const double ns =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count();
    samples.push_back(ops > 0.0 ? ns / ops : 0.0);
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2, samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

double calendar_queue_ns_per_op(const sim::CallTrace& trace) {
  return median_ns_per_op([&] {
    sim::CalendarQueue<std::uint32_t> queue;
    std::uint64_t ops = 0;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < trace.calls.size(); ++i) {
      const sim::CallRecord& call = trace.calls[i];
      while (!queue.empty() && queue.next_time() <= call.arrival) {
        sum += queue.pop().second;
        ++ops;
      }
      queue.schedule(call.arrival + call.holding, static_cast<std::uint32_t>(i));
      ++ops;
    }
    while (!queue.empty()) {
      sum += queue.pop().second;
      ++ops;
    }
    g_sink = g_sink + sum;
    return ops;
  });
}

double probe_ns_per_hop(const net::Graph& graph, const routing::RouteTable& routes,
                        const std::vector<int>& reservations, std::uint64_t seed) {
  loss::NetworkState state(graph);
  state.set_reservations(reservations);
  sim::Rng rng(seed, 0x70726f6265ULL);
  for (int k = 0; k < graph.link_count(); ++k) {
    const net::LinkId id(k);
    const std::uint64_t busy =
        rng.below(static_cast<std::uint64_t>(state.capacity(id)) + 1);
    for (std::uint64_t c = 0; c < busy; ++c) state.book_link(id);
  }
  const int n = graph.node_count();
  return median_ns_per_op([&] {
    std::uint64_t hops = 0;
    std::uint64_t sum = 0;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        for (const routing::Path& path : routes.at(net::NodeId(i), net::NodeId(j)).alternates) {
          const int blocked = state.first_blocking_link(path, loss::CallClass::kAlternate);
          hops += blocked < 0 ? path.links.size() : static_cast<std::uint64_t>(blocked) + 1;
          sum += static_cast<std::uint64_t>(blocked + 1);
        }
      }
    }
    g_sink = g_sink + sum;
    return hops;
  });
}

double eq15_ns_per_solve(const std::vector<double>& lambda, const std::vector<int>& capacity,
                         int max_alt_hops) {
  return median_ns_per_op([&] {
    std::uint64_t sum = 0;
    for (std::size_t k = 0; k < lambda.size(); ++k) {
      sum += static_cast<std::uint64_t>(
          erlang::min_state_protection(lambda[k], capacity[k], max_alt_hops));
    }
    g_sink = g_sink + sum;
    return lambda.size();
  });
}

double route_build_ms(const net::Graph& graph, int max_alt_hops) {
  return median_ns_per_op([&] {
           const routing::RouteTable routes = routing::build_min_hop_routes(graph, max_alt_hops);
           g_sink = g_sink + static_cast<std::uint64_t>(routes.nodes());
           return 1;
         }) *
         1e-6;
}

double spin_seconds(int threads) {
  // A dependent integer chain: no memory traffic, so the kernel measures
  // how much CPU the host grants, not the memory system.
  std::vector<std::uint64_t> results(static_cast<std::size_t>(threads));
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> pool;
    pool.reserve(results.size());
    for (std::uint64_t& result : results) {
      pool.emplace_back([&result] {
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        for (int i = 0; i < 200'000'000; ++i) {
          x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        }
        result = x;
      });
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  for (const std::uint64_t x : results) g_sink = g_sink + x;
  return seconds;
}

}  // namespace altroute::perf
