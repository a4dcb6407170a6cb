// Experiment F9 — Context Server failover: delivery gap across a
// kill/promote cycle.
//
// BM_Failover/seed — the Fig 8 deployment (three ranges, publisher and
// subscribed monitor in levelB, steady acked inter-range routes) but levelB
// now runs with two replicated standbys (the client-visible admit ack is
// withheld until a standby applied the record). The FaultPlan crashes
// levelB's primary outright — no recovery — under 5% link loss:
//
//   t=0s  loss 5%          t=3s  crash levelB (never recovers)
//   t=16s loss 0
//
// The standbys' heartbeat watchdogs detect the silence and run a
// majority-vote election; the winner promotes under the same range and CS
// GUIDs at a superseding epoch while the loser re-attaches as its standby.
// Claim under test (docs/REPLICATION.md): the takeover is invisible to
// components — every published event still reaches the monitor exactly
// once, nobody re-registers, no client-acked op is lost, and the only
// symptom is a bounded delivery gap while the watchdog counts down. The
// report carries the gap, the election latency, the acked-loss and
// lease-overlap invariants, the registration counts and the repl.*
// counters; CI fails the chaos job when any seed loses an event or an
// acked op, re-registers a component, overlaps fencing leases, or skips
// the failover.
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
  int registered_calls = 0;

  // Publish frames this client gave up on without ever seeing an ack —
  // the only ops the sync-mode loss accounting may legitimately exclude.
  [[nodiscard]] std::int64_t publishes_parked() {
    std::int64_t n = 0;
    for (const auto& dl : channel().dead_letters().entries()) {
      if (dl.inner_type == entity::kPublish) ++n;
    }
    return n;
  }

 protected:
  [[nodiscard]] std::vector<entity::TypeSig> profile_outputs() const override {
    return {{"pulse", "", "pulse"}};
  }
  void on_registered() override { ++registered_calls; }
};

// Counts (source, sequence) pairs so duplicates are distinguishable from
// fresh deliveries, stamps each unique arrival to measure the largest
// inter-arrival gap (the failover window), and counts registration
// handshakes so re-registration would show.
class PulseMonitor final : public entity::ContextAwareApp {
 public:
  using ContextAwareApp::ContextAwareApp;
  int unique_events = 0;
  int duplicate_events = 0;
  int registered_calls = 0;
  Duration max_gap = Duration::micros(0);

 protected:
  void on_event(const event::Event& event, std::uint64_t) override {
    if (seen_.insert({event.source, event.sequence}).second) {
      ++unique_events;
      const SimTime arrival = now();
      if (have_last_) {
        const Duration gap = arrival - last_arrival_;
        if (gap > max_gap) max_gap = gap;
      }
      last_arrival_ = arrival;
      have_last_ = true;
    } else {
      ++duplicate_events;
    }
  }
  void on_registered() override { ++registered_calls; }

 private:
  std::set<std::pair<Guid, std::uint64_t>> seen_;
  SimTime last_arrival_;
  bool have_last_ = false;
};

void BM_Failover(benchmark::State& state) {
  const auto seed = static_cast<std::uint64_t>(state.range(0));
  ValueMap doc;
  for (auto _ : state) {
    Sci sci(seed);
    mobility::Building building({.floors = 3, .rooms_per_floor = 4});
    sci.set_location_directory(&building.directory());
    auto& level_a = *sci.create_range("levelA", building.floor_path(0)).value();
    RangeOptions replicated;
    replicated.replication.standby_count = 2;
    replicated.replication.heartbeat_period = Duration::millis(250);
    auto& level_b =
        *sci.create_range("levelB", building.floor_path(1), replicated).value();
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
    sci.run_for(Duration::seconds(1));  // subscription + standby in place

    // One terminal crash: the primary never comes back, the elected standby
    // must carry the range for the rest of the run.
    const range::ContextServer* old_primary = &level_b;
    const double crash_at_ms =
        static_cast<double>(sci.simulator().now().micros()) / 1000.0 + 3000.0;
    sim::FaultPlan plan;
    plan.loss_rate(Duration::seconds(0), 0.05)
        .crash(Duration::seconds(3), "levelB")
        .loss_rate(Duration::seconds(16), 0.0);
    sci.inject_faults(plan);

    // Workload: one pulse every 250ms; one acked inter-range route every
    // 200ms aimed at the faulted range's overlay key. Routes launched into
    // the dead window may legitimately fail, so the acked ratio is reported
    // but not gated.
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
    // Drain: retransmit budgets flush every in-flight frame against the
    // promoted server.
    sci.run_for(Duration::seconds(30));

    const range::ContextServer* survivor = sci.find_range("levelB");
    SCI_ASSERT(survivor != nullptr);

    // Election latency: crash instant to the winner's promotion instant.
    const double election_latency_ms =
        survivor->promoted_at()
            ? static_cast<double>(survivor->promoted_at()->micros()) / 1000.0 -
                  crash_at_ms
            : -1.0;
    // Acked-op loss: every published op must surface at the monitor unless
    // its frame was never client-acked (parked in the publisher's DLQ).
    const std::int64_t publishes_parked = pulse.publishes_parked();
    const std::int64_t acked_op_loss = static_cast<std::int64_t>(published) -
                                       publishes_parked -
                                       monitor.unique_events;
    // Fencing invariant: the deposed primary and the elected successor must
    // never have held the lease under the same epoch.
    std::int64_t lease_epoch_overlap = 0;
    if (survivor != old_primary) {
      for (const std::uint32_t e : survivor->lease_epochs()) {
        if (old_primary->lease_epochs().count(e) != 0) ++lease_epoch_overlap;
      }
    }

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
    state.counters["duplicates"] = monitor.duplicate_events;
    state.counters["delivery_gap_ms"] = monitor.max_gap.millis_f();
    state.counters["failovers"] =
        static_cast<double>(snap.counter("repl.failovers"));
    state.counters["election_latency_ms"] = election_latency_ms;
    state.counters["acked_op_loss"] = static_cast<double>(acked_op_loss);

    doc.clear();
    doc.emplace("seed", static_cast<std::int64_t>(seed));
    doc.emplace("published", static_cast<std::int64_t>(published));
    doc.emplace("delivered_unique",
                static_cast<std::int64_t>(monitor.unique_events));
    doc.emplace("duplicates",
                static_cast<std::int64_t>(monitor.duplicate_events));
    doc.emplace("event_delivery_ratio", event_ratio);
    doc.emplace("delivery_gap_ms", monitor.max_gap.millis_f());
    doc.emplace("publisher_registered_calls",
                static_cast<std::int64_t>(pulse.registered_calls));
    doc.emplace("monitor_registered_calls",
                static_cast<std::int64_t>(monitor.registered_calls));
    doc.emplace("survivor_promotions",
                static_cast<std::int64_t>(
                    survivor->node_counter("repl.failovers")->value()));
    doc.emplace("survivor_replication_lag",
                static_cast<std::int64_t>(survivor->replication_lag()));
    doc.emplace("duplicate_publishes_absorbed",
                static_cast<std::int64_t>(
                    survivor->node_counter("cs.duplicate_publishes")->value()));
    doc.emplace("acked_originated", static_cast<std::int64_t>(acked_originated));
    doc.emplace("acked_delivered", static_cast<std::int64_t>(acked_delivered));
    doc.emplace("acked_failed", static_cast<std::int64_t>(acked_failed));
    doc.emplace("acked_delivery_ratio", acked_ratio);
    doc.emplace("election_latency_ms", election_latency_ms);
    doc.emplace("acked_op_loss", acked_op_loss);
    doc.emplace("publishes_parked", publishes_parked);
    doc.emplace("lease_epoch_overlap", lease_epoch_overlap);
    doc.emplace("elections_won",
                static_cast<std::int64_t>(snap.counter("repl.election.won")));
    doc.emplace("election_candidacies",
                static_cast<std::int64_t>(
                    snap.counter("repl.election.candidacies")));
    doc.emplace("lease_lapses",
                static_cast<std::int64_t>(snap.counter("repl.lease.lapses")));
    doc.emplace("ops_rejected_unleased",
                static_cast<std::int64_t>(snap.counter("repl.lease.rejected")));
    doc.emplace("repl_failovers",
                static_cast<std::int64_t>(snap.counter("repl.failovers")));
    doc.emplace("repl_records_shipped",
                static_cast<std::int64_t>(snap.counter("repl.records_shipped")));
    doc.emplace("repl_records_applied",
                static_cast<std::int64_t>(snap.counter("repl.records_applied")));
    doc.emplace("repl_state_divergence",
                static_cast<std::int64_t>(snap.counter("repl.state_divergence")));
    doc.emplace("retransmits",
                static_cast<std::int64_t>(snap.counter("rel.retransmits")));
    doc.emplace("dead_letters",
                static_cast<std::int64_t>(snap.counter("rel.dead_letters")));
    doc.emplace("stale_epoch_frames",
                static_cast<std::int64_t>(snap.counter("rel.stale_epoch")));
    doc.emplace("drops_crash", static_cast<std::int64_t>(
                                   snap.counter("net.dropped.cause", "crash")));
    doc.emplace("drops_loss", static_cast<std::int64_t>(
                                  snap.counter("net.dropped.cause", "loss")));
    doc.emplace("metrics", snap.to_json());
  }
  bench::add_run("failover/" + std::to_string(seed), Value(ValueMap(doc)));
}

}  // namespace

BENCHMARK(BM_Failover)
    ->Arg(42)
    ->Arg(1337)
    ->Arg(20260806)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

SCI_BENCHMARK_MAIN_WITH_REPORT("BENCH_fig9.json")
