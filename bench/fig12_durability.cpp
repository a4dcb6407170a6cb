// Experiment F12 — durable per-shard store: crash recovery from the
// write-ahead log (docs/DURABILITY.md).
//
// BM_Durability/seed runs three scenarios per seed, each in its own
// deployment so the metric families stay attributable:
//
//   cold_restart — levelB runs with the durable store on (write-behind WAL,
//     group commit, ack_after_fsync). After a steady acked workload the
//     whole range is power-cut: the Context Server objects are destroyed
//     with no flush, and Sci::recover_range rebuilds registrar, mediator,
//     context store and views from checkpoint + WAL tail alone. The gated
//     claim is zero acked-op loss across the cut: every client-acked publish
//     surfaces at the monitor exactly once over the full run, and nobody
//     re-registers.
//
//   rejoin — a standby is cold-stopped, the primary keeps serving, and the
//     replacement standby recovers the dead one's WAL and rejoins by
//     presenting its recovered (epoch, watermark). The gated claim is that
//     the rejoin ships strictly fewer bytes than the initial full snapshot
//     (repl.catchup.delta_bytes < repl.catchup.snapshot_bytes), and that the
//     WAL-recovered standby never counts a repl.state_divergence against the
//     primary's heartbeat fingerprint.
//
//   corruption — the dormant WAL is damaged through the declarative fault
//     plan (torn tail, then a flipped byte; a sync-failure burst also runs
//     during the live phase). The gated claim is that recovery NEVER
//     panics: it truncates at the first bad frame, comes back serving, and
//     new publishes keep flowing. Ops inside the chopped tail are
//     legitimately gone — torn writes break the disk's own fsync promise —
//     so this scenario gates liveness, not zero loss.
//
// CI (chaos job) fails when any seed loses an acked op across the cold
// restart, ships a delta at least as large as the snapshot, diverges after
// the rejoin, or fails to recover from the damaged WAL.
#include <benchmark/benchmark.h>

#include <map>
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

  // Publish frames this client gave up on without ever seeing an ack — the
  // only ops the loss accounting may legitimately exclude.
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
};

// Counts (source, sequence) pairs so duplicates are distinguishable from
// fresh deliveries, and registration handshakes so re-registration shows.
class PulseMonitor final : public entity::ContextAwareApp {
 public:
  using ContextAwareApp::ContextAwareApp;
  int unique_events = 0;
  int duplicate_events = 0;
  int registered_calls = 0;

 protected:
  void on_event(const event::Event& event, std::uint64_t) override {
    if (seen_.insert({event.source, event.sequence}).second) {
      ++unique_events;
    } else {
      ++duplicate_events;
    }
  }
  void on_registered() override { ++registered_calls; }

 private:
  std::set<std::pair<Guid, std::uint64_t>> seen_;
};

struct Deployment {
  Sci sci;
  mobility::Building building{{.floors = 2, .rooms_per_floor = 4}};
  range::ContextServer* level_b = nullptr;
  PulseCE pulse;
  PulseMonitor monitor;
  int published = 0;

  Deployment(std::uint64_t seed, unsigned standby_count)
      : sci(seed),
        pulse(sci.network(), sci.new_guid(), "pulse",
              entity::EntityKind::kDevice),
        monitor(sci.network(), sci.new_guid(), "monitor",
                entity::EntityKind::kSoftware) {
    sci.set_location_directory(&building.directory());
    SCI_ASSERT(sci.create_range("levelA", building.floor_path(0)).has_value());
    RangeOptions options;
    options.durability.enable = true;
    options.replication.standby_count = standby_count;
    options.replication.heartbeat_period = Duration::millis(200);
    level_b =
        sci.create_range("levelB", building.floor_path(1), options).value();
    SCI_ASSERT(sci.enroll(pulse, *level_b).is_ok());
    SCI_ASSERT(sci.enroll(monitor, *level_b).is_ok());
    SCI_ASSERT(monitor
                   .submit_query("sub",
                                 query::Builder("sub", monitor.id())
                                     .what_pattern("pulse")
                                     .mode(query::QueryMode::kEventSubscription)
                                     .to_xml())
                   .is_ok());
    sci.run_for(Duration::seconds(1));
  }

  void publish_burst(int count, Duration spacing) {
    for (int i = 0; i < count; ++i) {
      pulse.publish("pulse", Value(static_cast<std::int64_t>(published)));
      ++published;
      sci.run_for(spacing);
    }
  }

  [[nodiscard]] std::int64_t acked_op_loss() {
    return static_cast<std::int64_t>(published) - pulse.publishes_parked() -
           monitor.unique_events;
  }
};

void BM_Durability(benchmark::State& state) {
  const auto seed = static_cast<std::uint64_t>(state.range(0));
  ValueMap doc;
  for (auto _ : state) {
    doc.clear();
    doc.emplace("seed", static_cast<std::int64_t>(seed));

    // --- cold_restart: power-cut the whole range, rebuild from disk -------
    {
      Deployment d(seed, /*standby_count=*/0);
      d.publish_burst(20, Duration::millis(100));
      d.sci.run_for(Duration::seconds(1));  // every admit acked + committed

      SCI_ASSERT(d.sci.shutdown_range("levelB").is_ok());
      auto revived = d.sci.recover_range("levelB");
      SCI_ASSERT(revived.has_value());
      d.sci.run_for(Duration::seconds(1));

      d.publish_burst(10, Duration::millis(100));
      d.sci.run_for(Duration::seconds(5));

      const obs::MetricsSnapshot snap = d.sci.metrics().snapshot();
      doc.emplace("cold_published", static_cast<std::int64_t>(d.published));
      doc.emplace("cold_delivered_unique",
                  static_cast<std::int64_t>(d.monitor.unique_events));
      doc.emplace("cold_duplicates",
                  static_cast<std::int64_t>(d.monitor.duplicate_events));
      doc.emplace("recovered_op_loss", d.acked_op_loss());
      doc.emplace("cold_monitor_registered_calls",
                  static_cast<std::int64_t>(d.monitor.registered_calls));
      doc.emplace("persist_recoveries",
                  static_cast<std::int64_t>(snap.counter("persist.recoveries")));
      doc.emplace("persist_recovered_records",
                  static_cast<std::int64_t>(
                      snap.counter("persist.recovered_records")));
      doc.emplace("persist_flushes",
                  static_cast<std::int64_t>(snap.counter("persist.flushes")));
      doc.emplace("persist_wal_bytes",
                  static_cast<std::int64_t>(snap.counter("persist.wal_bytes")));
      doc.emplace("persist_checkpoints",
                  static_cast<std::int64_t>(
                      snap.counter("persist.checkpoints")));
      doc.emplace(
          "view_snapshot_decode_failures",
          static_cast<std::int64_t>(
              snap.counter("view.snapshot_decode_failures")));
      state.counters["recovered_op_loss"] =
          static_cast<double>(d.acked_op_loss());
    }

    // --- rejoin: standby recovers its WAL, ships only the delta -----------
    {
      Deployment d(seed, /*standby_count=*/0);
      // Real state first so the initial full snapshot has weight.
      d.publish_burst(20, Duration::millis(50));
      d.sci.run_for(Duration::seconds(1));
      auto first = d.sci.add_standby("levelB");
      SCI_ASSERT(first.has_value());
      d.sci.run_for(Duration::seconds(1));

      const Guid standby_node = (*first)->attached_node();
      SCI_ASSERT(d.sci.shutdown_standby(standby_node).is_ok());
      d.publish_burst(5, Duration::millis(50));
      d.sci.run_for(Duration::seconds(1));

      auto second = d.sci.add_standby("levelB");
      SCI_ASSERT(second.has_value());
      d.sci.run_for(Duration::seconds(1));

      const obs::MetricsSnapshot snap = d.sci.metrics().snapshot();
      const auto delta_bytes =
          static_cast<std::int64_t>(snap.counter("repl.catchup.delta_bytes"));
      const auto snapshot_bytes = static_cast<std::int64_t>(
          snap.counter("repl.catchup.snapshot_bytes"));
      doc.emplace("rejoin_delta_used",
                  static_cast<std::int64_t>(snap.counter("repl.catchup.delta")));
      doc.emplace("rejoin_full_snapshots",
                  static_cast<std::int64_t>(snap.counter("repl.catchup.full")));
      doc.emplace("rejoin_delta_bytes", delta_bytes);
      doc.emplace("rejoin_snapshot_bytes", snapshot_bytes);
      doc.emplace("rejoin_recovered_from_disk",
                  static_cast<std::int64_t>(
                      (*second)->recovered_from_disk() ? 1 : 0));
      doc.emplace("rejoin_replication_lag",
                  static_cast<std::int64_t>(d.level_b->replication_lag()));
      doc.emplace("repl_state_divergence",
                  static_cast<std::int64_t>(
                      snap.counter("repl.state_divergence")));
      state.counters["delta_bytes"] = static_cast<double>(delta_bytes);
      state.counters["snapshot_bytes"] = static_cast<double>(snapshot_bytes);
    }

    // --- corruption: damaged WAL must truncate-and-serve, never panic -----
    {
      Deployment d(seed, /*standby_count=*/0);
      // A sync-failure burst mid-traffic: acks are held, the commit loop
      // retries each failed sync, nothing is lost while the store limps.
      sim::FaultPlan live;
      live.wal_sync_fail(Duration::millis(200), "levelB", 3);
      d.sci.inject_faults(live);
      d.publish_burst(15, Duration::millis(100));
      d.sci.run_for(Duration::seconds(1));
      const std::int64_t live_loss = d.acked_op_loss();

      SCI_ASSERT(d.sci.shutdown_range("levelB").is_ok());
      sim::FaultPlan damage;
      damage.wal_torn(Duration::millis(0), "levelB", 7)
          .wal_corrupt(Duration::millis(1), "levelB");
      d.sci.inject_faults(damage);
      d.sci.run_for(Duration::millis(10));

      auto revived = d.sci.recover_range("levelB");
      const bool recovered = revived.has_value();
      std::int64_t delivered_after = 0;
      if (recovered) {
        d.sci.run_for(Duration::seconds(1));
        const int before = d.monitor.unique_events + d.monitor.duplicate_events;
        d.publish_burst(5, Duration::millis(100));
        d.sci.run_for(Duration::seconds(2));
        delivered_after =
            d.monitor.unique_events + d.monitor.duplicate_events - before;
      }

      const obs::MetricsSnapshot snap = d.sci.metrics().snapshot();
      doc.emplace("corruption_recovered",
                  static_cast<std::int64_t>(recovered ? 1 : 0));
      doc.emplace("corruption_live_sync_fail_loss", live_loss);
      doc.emplace("corruption_delivered_after_damage", delivered_after);
      doc.emplace("corruption_truncated_tails",
                  static_cast<std::int64_t>(
                      snap.counter("persist.truncated_tails")));
      doc.emplace("corruption_sync_failures",
                  static_cast<std::int64_t>(
                      snap.counter("persist.sync_failures")));
      state.counters["corruption_recovered"] = recovered ? 1.0 : 0.0;
    }
  }
  bench::add_run("durability/" + std::to_string(seed), Value(ValueMap(doc)));
}

}  // namespace

BENCHMARK(BM_Durability)
    ->Arg(42)
    ->Arg(1337)
    ->Arg(20260806)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

SCI_BENCHMARK_MAIN_WITH_REPORT("BENCH_fig12.json")
