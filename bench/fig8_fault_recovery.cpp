// Experiment F8 — fault recovery under a declarative chaos plan.
//
// BM_FaultRecovery/seed — a three-range deployment with a publisher and a
// subscribed monitor in the faulted range, plus a steady stream of acked
// inter-range routes aimed at it. The FaultPlan applies 5% link loss for
// the whole workload window, crashes the range twice mid-run and partitions
// it once:
//
//   t=0s   loss 5%          t=8s  partition levelB
//   t=3s   crash levelB     t=10s heal
//   t=6s   recover          t=12s crash levelB ... t=14s recover
//
// Claim under test (docs/ROBUSTNESS.md): the reliable layer turns all of
// that into latency, not loss — every published event reaches the monitor
// exactly once and every acked route produces a delivery receipt; zero
// dead letters. The report carries the delivery ratios plus the
// registry-sourced retransmit and recovery-time figures, and CI fails the
// chaos job when any seed's ratio dips below 1.0.
#include <benchmark/benchmark.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "bench_report.h"
#include "core/sci.h"

namespace {

using namespace sci;

// Advertises the "pulse" output so the monitor's pattern subscription can
// compose onto it.
class PulseCE final : public entity::ContextEntity {
 public:
  using ContextEntity::ContextEntity;

 protected:
  [[nodiscard]] std::vector<entity::TypeSig> profile_outputs() const override {
    return {{"pulse", "", "pulse"}};
  }
};

// Counts (source, sequence) pairs so duplicates are distinguishable from
// fresh deliveries.
class PulseMonitor final : public entity::ContextAwareApp {
 public:
  using ContextAwareApp::ContextAwareApp;
  int unique_events = 0;
  int duplicate_events = 0;

 protected:
  void on_event(const event::Event& event, std::uint64_t) override {
    if (seen_.insert({event.source, event.sequence}).second) {
      ++unique_events;
    } else {
      ++duplicate_events;
    }
  }

 private:
  std::set<std::pair<Guid, std::uint64_t>> seen_;
};

void BM_FaultRecovery(benchmark::State& state) {
  const auto seed = static_cast<std::uint64_t>(state.range(0));
  ValueMap doc;
  for (auto _ : state) {
    Sci sci(seed);
    mobility::Building building({.floors = 3, .rooms_per_floor = 4});
    sci.set_location_directory(&building.directory());
    auto& level_a = *sci.create_range("levelA", building.floor_path(0)).value();
    auto& level_b = *sci.create_range("levelB", building.floor_path(1)).value();
    auto& level_c = *sci.create_range("levelC", building.floor_path(2)).value();
    (void)level_c;

    PulseCE pulse(sci.network(), sci.new_guid(), "pulse",
                  entity::EntityKind::kDevice);
    SCI_ASSERT(sci.enroll(pulse, level_b).is_ok());
    PulseMonitor monitor(sci.network(), sci.new_guid(), "monitor",
                         entity::EntityKind::kSoftware);
    SCI_ASSERT(sci.enroll(monitor, level_b).is_ok());
    SCI_ASSERT(monitor
                   .submit_query("sub", query::Builder("sub", monitor.id())
                                            .what_pattern("pulse")
                                            .mode(query::QueryMode::kEventSubscription)
                                            .to_xml())
                   .is_ok());
    sci.run_for(Duration::seconds(1));  // subscription in place

    // The chaos schedule, relative to the workload start.
    sim::FaultPlan plan;
    plan.loss_rate(Duration::seconds(0), 0.05)
        .crash(Duration::seconds(3), "levelB")
        .recover(Duration::seconds(6), "levelB")
        .partition(Duration::seconds(8), "levelB", 1)
        .heal(Duration::seconds(10))
        .crash(Duration::seconds(12), "levelB")
        .recover(Duration::seconds(14), "levelB")
        .loss_rate(Duration::seconds(16), 0.0);
    sci.inject_faults(plan);

    // Workload: one pulse every 250ms; one acked inter-range route every
    // 200ms aimed at the faulted range's overlay key.
    int published = 0;
    std::optional<sim::PeriodicTimer> publisher;
    publisher.emplace(sci.simulator(), Duration::millis(250), [&] {
      pulse.publish("pulse", Value(static_cast<std::int64_t>(published)));
      ++published;
    });
    publisher->start();

    int acked_originated = 0;
    int acked_delivered = 0;
    int acked_failed = 0;
    std::optional<sim::PeriodicTimer> router;
    router.emplace(sci.simulator(), Duration::millis(200), [&] {
      auto ticket = level_a.scinet().route_acked(
          level_b.id(), 0x7F77, {},
          [&](const overlay::RouteTicket&, bool delivered, std::uint32_t) {
            if (delivered) {
              ++acked_delivered;
            } else {
              ++acked_failed;
            }
          });
      if (bool(ticket)) ++acked_originated;
    });
    router->start();

    sci.run_for(Duration::seconds(16));
    publisher.reset();
    router.reset();
    // Drain: the retransmit budget must flush every in-flight frame and
    // receipt now that the schedule is over.
    sci.run_for(Duration::seconds(30));

    const obs::MetricsSnapshot snap = sci.metrics().snapshot();
    const double event_ratio =
        published == 0 ? 0.0
                       : static_cast<double>(monitor.unique_events) /
                             static_cast<double>(published);
    const double acked_ratio =
        acked_originated == 0
            ? 0.0
            : static_cast<double>(acked_delivered) /
                  static_cast<double>(acked_originated);

    state.counters["event_delivery_ratio"] = event_ratio;
    state.counters["acked_delivery_ratio"] = acked_ratio;
    state.counters["duplicates"] = monitor.duplicate_events;

    doc.clear();
    doc.emplace("seed", static_cast<std::int64_t>(seed));
    doc.emplace("published", static_cast<std::int64_t>(published));
    doc.emplace("delivered_unique",
                static_cast<std::int64_t>(monitor.unique_events));
    doc.emplace("duplicates",
                static_cast<std::int64_t>(monitor.duplicate_events));
    doc.emplace("event_delivery_ratio", event_ratio);
    doc.emplace("acked_originated", static_cast<std::int64_t>(acked_originated));
    doc.emplace("acked_delivered", static_cast<std::int64_t>(acked_delivered));
    doc.emplace("acked_failed", static_cast<std::int64_t>(acked_failed));
    doc.emplace("acked_delivery_ratio", acked_ratio);
    doc.emplace("retransmits",
                static_cast<std::int64_t>(snap.counter("rel.retransmits")));
    doc.emplace("dead_letters",
                static_cast<std::int64_t>(snap.counter("rel.dead_letters")));
    doc.emplace("failovers",
                static_cast<std::int64_t>(snap.counter("rel.failovers")));
    doc.emplace("e2e_retries",
                static_cast<std::int64_t>(snap.counter("scinet.e2e.retries")));
    doc.emplace("e2e_dead_letters", static_cast<std::int64_t>(
                                        snap.counter("scinet.e2e.dead_letters")));
    doc.emplace("delivery_dead_letters",
                static_cast<std::int64_t>(
                    snap.counter("em.deliveries.dead_letter")));
    doc.emplace("leases_expired",
                static_cast<std::int64_t>(snap.counter("em.leases.expired")));
    doc.emplace("drops_crash", static_cast<std::int64_t>(
                                   snap.counter("net.dropped.cause", "crash")));
    doc.emplace("drops_partition",
                static_cast<std::int64_t>(
                    snap.counter("net.dropped.cause", "partition")));
    doc.emplace("drops_loss", static_cast<std::int64_t>(
                                  snap.counter("net.dropped.cause", "loss")));
    if (const auto* recovery = snap.histogram("rel.recovery_ms");
        recovery != nullptr) {
      doc.emplace("recovery_ms_mean", recovery->mean);
      doc.emplace("recovery_ms_max", recovery->max);
    }
    if (const auto* rtt = snap.histogram("rel.ack_rtt_ms"); rtt != nullptr) {
      doc.emplace("ack_rtt_ms_mean", rtt->mean);
    }
    if (const auto* latency = snap.histogram("scinet.e2e.latency_ms");
        latency != nullptr) {
      doc.emplace("e2e_latency_ms_mean", latency->mean);
      doc.emplace("e2e_latency_ms_max", latency->max);
    }
    doc.emplace("metrics", snap.to_json());
  }
  bench::add_run("fault_recovery/" + std::to_string(seed),
                 Value(ValueMap(doc)));
}

}  // namespace

BENCHMARK(BM_FaultRecovery)
    ->Arg(42)
    ->Arg(1337)
    ->Arg(20260806)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

SCI_BENCHMARK_MAIN_WITH_REPORT("BENCH_fig8.json")
