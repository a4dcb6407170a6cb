// Experiment F13 — Elastic resharding: crash-safe vnode handoff under a
// zipfian hot-key workload (docs/SHARDING.md).
//
// BM_ReshardingLiveMigration/seed — one "mall" Range served by 2 shard
// nodes. 24 producers publish on a zipfian cadence (rank r publishes at
// 1/(r+1) the hottest rate) with the hottest ranks pinned to shard 0, so
// the publish-rate EWMA sees a genuinely skewed ring. Every producer is
// watched by its own producer-specific (named) subscription. Mid-run —
// with every publisher still firing — Sci::rebalance_range migrates the
// hottest vnode off the loaded shard through the freeze → ship → commit
// handoff protocol: publishes that race the freeze park in the source's
// bounded staging queue and replay at the new owner, publishes that race
// the commit bounce through the stale-frame forwarder.
//
// Claims under test (the CI chaos job fails any seed that misses one):
//   * delivery gap is ZERO — no publish issued before, during, or after
//     the migration is ever lost;
//   * no duplicate is ever delivered (the staging replay and the bounce
//     path stay inside the per-producer dedup window);
//   * the frozen vnode's write pause is bounded (reshard.pause_micros max
//     stays under 250 ms of sim time).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_report.h"
#include "core/sci.h"

namespace {

using namespace sci;

constexpr int kProducers = 24;
constexpr int kHotPinned = 8;  // hottest ranks pinned to shard 0
constexpr unsigned kShards = 2;
constexpr int kHotPeriodMs = 20;  // rank 0 cadence; rank r fires at (r+1)x

// Advertises the "pulse" output so named subscriptions can bind to it.
class PulseCE final : public entity::ContextEntity {
 public:
  using ContextEntity::ContextEntity;

 protected:
  [[nodiscard]] std::vector<entity::TypeSig> profile_outputs() const override {
    return {{"pulse", "", "pulse"}};
  }
};

// Deduplicates on (source, sequence); one monitor watches one producer.
class ReshardMonitor final : public entity::ContextAwareApp {
 public:
  using ContextAwareApp::ContextAwareApp;
  int unique_events = 0;
  int duplicate_events = 0;
  int failed_queries = 0;

 protected:
  void on_event(const event::Event& event, std::uint64_t) override {
    if (seen_.insert({event.source, event.sequence}).second) {
      ++unique_events;
    } else {
      ++duplicate_events;
    }
  }
  void on_query_result(const std::string&, const Error& error,
                       const Value&) override {
    if (!error.ok()) ++failed_queries;
  }

 private:
  std::set<std::pair<Guid, std::uint64_t>> seen_;
};

// Deterministically mints a GUID owned by `shard` under `lead`'s map.
Guid guid_owned_by(Sci& sci, const range::ContextServer& lead,
                   unsigned shard) {
  for (int i = 0; i < 4096; ++i) {
    const Guid g = sci.new_guid();
    if (lead.shard_of(g) == shard) return g;
  }
  SCI_ASSERT(false && "no guid hashed to the requested shard");
  return Guid();
}

void BM_ReshardingLiveMigration(benchmark::State& state) {
  const auto seed = static_cast<std::uint64_t>(state.range(0));
  ValueMap doc;
  for (auto _ : state) {
    Sci sci(seed);
    mobility::Building building({.floors = 2, .rooms_per_floor = 4});
    sci.set_location_directory(&building.directory());
    RangeOptions options;
    options.sharding.shard_count = kShards;
    auto& lead =
        *sci.create_range("mall", building.floor_path(0), options).value();

    // Hot head of the zipf pinned to shard 0, tail spread round-robin, so
    // shard 0 carries the skew the rebalancer is supposed to shed.
    std::vector<std::unique_ptr<PulseCE>> producers;
    std::vector<std::unique_ptr<ReshardMonitor>> monitors;
    for (int i = 0; i < kProducers; ++i) {
      const unsigned home = i < kHotPinned
                                ? 0u
                                : static_cast<unsigned>(i) % kShards;
      producers.push_back(std::make_unique<PulseCE>(
          sci.network(), guid_owned_by(sci, lead, home),
          "zipf" + std::to_string(i), entity::EntityKind::kDevice));
      SCI_ASSERT(sci.enroll(*producers.back(), lead).is_ok());
      monitors.push_back(std::make_unique<ReshardMonitor>(
          sci.network(), sci.new_guid(), "watch" + std::to_string(i),
          entity::EntityKind::kSoftware));
      SCI_ASSERT(sci.enroll(*monitors.back(), lead).is_ok());
      SCI_ASSERT(monitors.back()
                     ->submit_query(
                         "s" + std::to_string(i),
                         query::Builder("s" + std::to_string(i),
                                        monitors.back()->id())
                             .what_named(
                                 producers[static_cast<std::size_t>(i)]->id())
                             .mode(query::QueryMode::kEventSubscription)
                             .to_xml())
                     .is_ok());
    }
    sci.run_for(Duration::seconds(2));  // registrations + mirrors settle

    // Zipf cadence: rank r fires every (r+1) * kHotPeriodMs, i.e. at
    // 1/(r+1) of the hottest producer's rate.
    std::int64_t published = 0;
    std::vector<std::unique_ptr<sim::PeriodicTimer>> timers;
    for (int i = 0; i < kProducers; ++i) {
      PulseCE* p = producers[static_cast<std::size_t>(i)].get();
      timers.push_back(std::make_unique<sim::PeriodicTimer>(
          sci.simulator(), Duration::millis(kHotPeriodMs * (i + 1)),
          [p, &published] {
            p->publish("pulse", Value(published));
            ++published;
          }));
      timers.back()->start();
    }

    const auto wall_start = std::chrono::steady_clock::now();
    sci.run_for(Duration::seconds(3));  // EWMA warms under live load

    // Mid-run migration: every publisher keeps firing while the hottest
    // vnode freezes, ships, and commits to the cold shard.
    const auto moved = sci.rebalance_range("mall");
    SCI_ASSERT(bool(moved));
    const auto epoch_after = lead.map_epoch();

    sci.run_for(Duration::seconds(3));  // post-migration steady state
    const auto wall_end = std::chrono::steady_clock::now();
    timers.clear();
    sci.run_for(Duration::seconds(5));  // drain in-flight deliveries

    std::int64_t delivered_unique = 0;
    std::int64_t duplicates = 0;
    std::int64_t failed_subs = 0;
    for (const auto& m : monitors) {
      delivered_unique += m->unique_events;
      duplicates += m->duplicate_events;
      failed_subs += m->failed_queries;
    }
    const std::int64_t delivery_gap = published - delivered_unique;

    const obs::MetricsSnapshot snap = sci.metrics().snapshot();
    const auto* pause = snap.histogram("reshard.pause_micros");
    const double pause_max_ms = pause == nullptr ? 0.0 : pause->max / 1e3;
    std::int64_t staged_total = 0;
    for (const auto* shard : sci.shards("mall")) {
      staged_total +=
          static_cast<std::int64_t>(
              shard->node_counter("reshard.staged_events")->value());
    }

    state.counters["published"] = static_cast<double>(published);
    state.counters["delivery_gap"] = static_cast<double>(delivery_gap);
    state.counters["duplicates"] = static_cast<double>(duplicates);
    state.counters["pause_max_ms"] = pause_max_ms;
    state.counters["vnodes_moved"] = static_cast<double>(*moved);

    doc.clear();
    doc.emplace("seed", static_cast<std::int64_t>(seed));
    doc.emplace("published", published);
    doc.emplace("delivered_unique", delivered_unique);
    doc.emplace("delivery_gap", delivery_gap);
    doc.emplace("duplicates", duplicates);
    doc.emplace("failed_subs", failed_subs);
    doc.emplace("vnodes_moved", static_cast<std::int64_t>(*moved));
    doc.emplace("map_epoch", static_cast<std::int64_t>(epoch_after));
    doc.emplace("handoffs",
                static_cast<std::int64_t>(snap.counter("reshard.handoffs")));
    doc.emplace("aborts",
                static_cast<std::int64_t>(snap.counter("reshard.aborts")));
    doc.emplace("staged_events",
                static_cast<std::int64_t>(
                    snap.counter("reshard.staged_events")));
    doc.emplace("staged_ops_replayed", staged_total);
    doc.emplace("pause_max_ms", pause_max_ms);
    doc.emplace("mirror_batches",
                static_cast<std::int64_t>(
                    snap.counter("cs.shard.mirror_batches")));
    doc.emplace("publish_rate_hot_shard",
                snap.gauge("cs.shard.publish_rate", "shard=0"));
    doc.emplace(
        "wall_ms",
        std::chrono::duration<double, std::milli>(wall_end - wall_start)
            .count());
  }
  bench::add_run("resharding/migrate/" + std::to_string(seed),
                 Value(ValueMap(doc)));
}

}  // namespace

BENCHMARK(BM_ReshardingLiveMigration)
    ->Arg(42)
    ->Arg(1337)
    ->Arg(20260806)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

SCI_BENCHMARK_MAIN_WITH_REPORT("BENCH_fig13.json")
