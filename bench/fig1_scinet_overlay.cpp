// Experiment F1 — Figure 1 (SCINET).
//
// Claim under test (paper §3): "Routing through an overlay network avoids
// any bottlenecks created when using hierarchical infrastructures whilst
// achieving comparable performance."
//
// BM_OverlayRouting/N   — Pastry-style SCINET of N ranges: random pairwise
//                         traffic; counters report mean hops, delivery
//                         latency, and the load-imbalance factor
//                         (max node forwarding load / mean load).
// BM_HierarchyRouting/N — the same traffic over a fanout-4 tree: the root's
//                         load fraction exposes the bottleneck.
//
// Expected shape: overlay hops ~ O(log16 N) with imbalance close to 1;
// hierarchy hops comparable (O(log4 N)) but root load fraction orders of
// magnitude above 1/N and growing with N.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench_report.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "overlay/hierarchical.h"
#include "overlay/scinet.h"

namespace {

using namespace sci;

constexpr int kMessagesPerRound = 2000;

void BM_OverlayRouting(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Simulator simulator(42);
  net::Network network(simulator);
  net::LinkModel link;
  link.base_latency = Duration::micros(500);
  link.jitter = Duration::micros(100);
  network.set_link_model(link);
  overlay::Scinet scinet(network);
  for (std::size_t i = 0; i < n; ++i) {
    scinet.add_node(simulator.rng().next_double(0, 1000),
                    simulator.rng().next_double(0, 1000));
  }
  scinet.settle(Duration::seconds(5));

  // Hop counts and load come from the metrics registry below; the handler
  // only computes delivery latency (the registry histogram keeps no
  // percentiles).
  PercentileSampler latency_ms;
  for (const auto& node : scinet.nodes()) {
    node->set_deliver_handler([&](const overlay::RoutedMessage& m) {
      // Payload carries the origination time.
      serde::Reader r(m.payload);
      if (const auto t = r.svarint(); t) {
        latency_ms.add(
            (simulator.now() - SimTime::from_micros(*t)).millis_f());
      }
    });
  }

  Rng traffic(7);
  std::uint64_t baseline_forwarded = 0;
  for (auto _ : state) {
    for (int i = 0; i < kMessagesPerRound; ++i) {
      const auto& from =
          scinet.nodes()[traffic.next_below(scinet.size())];
      const auto& to = scinet.nodes()[traffic.next_below(scinet.size())];
      serde::Writer w;
      w.svarint(simulator.now().micros());
      (void)from->route(to->id(), 1, w.take_ref());
    }
    scinet.settle(Duration::seconds(30));
    benchmark::DoNotOptimize(baseline_forwarded);
  }

  // Everything below is sourced from the deployment's metrics registry —
  // the hop-count histogram observed at delivery and the per-node labelled
  // forwarding family — not from hand-rolled bench counters.
  const obs::MetricsSnapshot snap = simulator.metrics().snapshot();
  const obs::MetricsSnapshot::HistogramEntry* hops =
      snap.histogram("scinet.route.hops");
  const double hops_mean = hops != nullptr ? hops->mean : 0.0;
  const double hops_max = hops != nullptr ? hops->max : 0.0;
  const double delivered =
      static_cast<double>(snap.counter("scinet.routed.delivered"));
  const double max_load =
      static_cast<double>(snap.counter_max("scinet.node.forwarded"));
  const double total_forwarded =
      static_cast<double>(snap.counter_sum("scinet.node.forwarded"));
  const double mean_load =
      total_forwarded / static_cast<double>(scinet.size());

  state.counters["nodes"] = static_cast<double>(n);
  state.counters["hops_mean"] = hops_mean;
  state.counters["hops_max"] = hops_max;
  state.counters["latency_ms_p50"] = latency_ms.percentile(0.5);
  state.counters["latency_ms_p99"] = latency_ms.percentile(0.99);
  state.counters["delivered"] = delivered;
  // Bottleneck factor: 1.0 = perfectly even forwarding load.
  state.counters["load_imbalance"] =
      mean_load > 0 ? max_load / mean_load : 0.0;
  // Share of all forwarding done by the single busiest node.
  state.counters["busiest_node_share"] =
      total_forwarded > 0 ? max_load / total_forwarded : 0.0;

  ValueMap doc;
  doc.emplace("nodes", static_cast<std::int64_t>(n));
  doc.emplace("hops_mean", hops_mean);
  doc.emplace("hops_max", hops_max);
  doc.emplace("delivered", delivered);
  doc.emplace("node_max_forwarded", max_load);
  doc.emplace("node_mean_forwarded", mean_load);
  doc.emplace("load_imbalance", mean_load > 0 ? max_load / mean_load : 0.0);
  doc.emplace("latency_ms_p50", latency_ms.percentile(0.5));
  doc.emplace("latency_ms_p99", latency_ms.percentile(0.99));
  doc.emplace("metrics", snap.to_json());
  bench::add_run("overlay/" + std::to_string(n), Value(std::move(doc)));
}

void BM_HierarchyRouting(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Simulator simulator(42);
  net::Network network(simulator);
  net::LinkModel link;
  link.base_latency = Duration::micros(500);
  link.jitter = Duration::micros(100);
  network.set_link_model(link);
  Rng rng(11);
  overlay::HierTree tree(network, n, /*fanout=*/4, rng);

  RunningStats hops;
  PercentileSampler latency_ms;
  for (std::size_t i = 0; i < tree.size(); ++i) {
    tree.node(i).set_deliver_handler([&](const overlay::HierMessage& m) {
      hops.add(static_cast<double>(m.hops));
      serde::Reader r(m.payload);
      if (const auto t = r.svarint(); t) {
        latency_ms.add(
            (simulator.now() - SimTime::from_micros(*t)).millis_f());
      }
    });
  }

  Rng traffic(7);
  for (auto _ : state) {
    for (int i = 0; i < kMessagesPerRound; ++i) {
      const auto from = traffic.next_below(tree.size());
      const auto to = traffic.next_below(tree.size());
      serde::Writer w;
      w.svarint(simulator.now().micros());
      (void)tree.node(from).send(tree.node(to).id(), 1, w.take_ref());
    }
    simulator.run_all();
  }

  RunningStats load;
  double max_load = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const double forwarded =
        static_cast<double>(tree.node(i).stats().forwarded);
    load.add(forwarded);
    max_load = std::max(max_load, forwarded);
    total += forwarded;
  }
  state.counters["nodes"] = static_cast<double>(n);
  state.counters["hops_mean"] = hops.mean();
  state.counters["hops_max"] = hops.max();
  state.counters["latency_ms_p50"] = latency_ms.percentile(0.5);
  state.counters["latency_ms_p99"] = latency_ms.percentile(0.99);
  state.counters["delivered"] = static_cast<double>(hops.count());
  state.counters["load_imbalance"] =
      load.mean() > 0 ? max_load / load.mean() : 0.0;
  state.counters["busiest_node_share"] = total > 0 ? max_load / total : 0.0;
  state.counters["root_forwarded"] =
      static_cast<double>(tree.root().stats().forwarded);

  // The hierarchical baseline is not registry-instrumented (it exists only
  // as a comparison), but the fabric underneath it is.
  const obs::MetricsSnapshot snap = simulator.metrics().snapshot();
  ValueMap doc;
  doc.emplace("nodes", static_cast<std::int64_t>(n));
  doc.emplace("hops_mean", hops.mean());
  doc.emplace("hops_max", hops.max());
  doc.emplace("delivered", static_cast<double>(hops.count()));
  doc.emplace("node_max_forwarded", max_load);
  doc.emplace("root_forwarded",
              static_cast<double>(tree.root().stats().forwarded));
  doc.emplace("load_imbalance",
              load.mean() > 0 ? max_load / load.mean() : 0.0);
  doc.emplace("latency_ms_p50", latency_ms.percentile(0.5));
  doc.emplace("latency_ms_p99", latency_ms.percentile(0.99));
  doc.emplace("net_sent", static_cast<std::int64_t>(snap.counter("net.sent")));
  bench::add_run("hierarchy/" + std::to_string(n), Value(std::move(doc)));
}

}  // namespace

BENCHMARK(BM_OverlayRouting)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_HierarchyRouting)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

SCI_BENCHMARK_MAIN_WITH_REPORT("BENCH_fig1.json")
