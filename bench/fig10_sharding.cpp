// Experiment F10 — Partitioned Context Server: publish throughput scaling
// and failover isolation (docs/SHARDING.md).
//
// BM_ShardScaling/seed — one "mall" Range served by 1 vs 4 shard nodes
// under an identical workload: 96 cold producers each watched by 48
// producer-specific (named) subscriptions (4608 subscriptions total),
// plus 16 hot producers that publish fast with nobody listening. Every
// publish pays the mediator's same-type scan; named subscriptions migrate
// to their producer's owner shard, so with 4 shards each Context Server
// scans ~1/4 of the subscription population. The report counts, per
// configuration, the same-type subscriptions the window's publishes scan
// (each shard's "pulse" table entries times the publishes of the producers
// it owns) and their ratio, scan_scale; the wall-clock publish throughput
// ratio (throughput_scale) is reported beside it. CI fails the chaos job
// when any seed's scan_scale is below 3.5 (copying the named subscriptions
// to every shard instead of moving them pulls it toward 1.0), or a
// configuration loses a delivery or duplicates one.
//
// BM_ShardFailoverIsolation/seed — 4 shards, each with 2 synchronous-ack
// standbys. Two cross-shard producer/monitor pairs run a steady cadence;
// at t=10s the primary of the shard owning one producer is crashed
// outright. Its standbys elect a successor while the sibling shards keep
// serving. Claim under test: failover domains are independent — the
// survivor pair's delivery latency stays within 10% of its pre-crash
// steady state, and the victim pair still delivers every client-acked
// event exactly once across the kill/elect cycle. Afterwards an app on the
// killed shard asks its successor for every "pulse" producer: the answer
// must include the sibling-owned one, whose mirror the dead primary never
// logged, so the successor holds it only through its mirror rebuild
// (post_failover_query_ok).
//
// BM_ShardLease/seed — subscriber leases on a partitioned Range: 2 shards
// with 1 standby each and a 6 s lease_ttl. A monitor homed on shard 1
// holds a wildcard installed through the lead, and an app on shard 0 holds
// a tick -> beat composition whose intermediate relay CE is homed on
// shard 1. Shard 1's primary is killed and its standby elected before the
// ttl runs out, then every producer publishes for 20 s. Each lease lives
// on the subscriber's own shard, so every publish reaches its subscriber
// exactly once (lease_delivery_ratio), and the monitor's departure at the
// end leaves none of its rows on any shard (rows_after_departure).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_report.h"
#include "core/sci.h"

namespace {

using namespace sci;

// Advertises the "pulse" output so named subscriptions can bind to it.
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

// Deduplicates on (source, sequence) and tracks per-event delivery latency
// (event timestamps are sim-time, so the latency is exact) stamped with the
// arrival instant, so a window before the crash can be compared against a
// window after it.
class ShardMonitor final : public entity::ContextAwareApp {
 public:
  using ContextAwareApp::ContextAwareApp;
  int unique_events = 0;
  int duplicate_events = 0;
  int registered_calls = 0;
  int failed_queries = 0;
  std::map<std::string, Value> answers;  // successful query results by id
  // (arrival sim-time, delivery latency) per unique event.
  std::vector<std::pair<SimTime, Duration>> latencies;

 protected:
  void on_event(const event::Event& event, std::uint64_t) override {
    if (seen_.insert({event.source, event.sequence}).second) {
      ++unique_events;
      latencies.emplace_back(now(), now() - event.timestamp);
    } else {
      ++duplicate_events;
    }
  }
  void on_registered() override { ++registered_calls; }
  void on_query_result(const std::string& query_id, const Error& error,
                       const Value& result) override {
    if (!error.ok()) {
      ++failed_queries;
      return;
    }
    answers[query_id] = result;
  }

 private:
  std::set<std::pair<Guid, std::uint64_t>> seen_;
};

// A single-output producer of `type`.
class TypedCE final : public entity::ContextEntity {
 public:
  TypedCE(net::Network& network, Guid id, std::string name, std::string type)
      : ContextEntity(network, id, std::move(name),
                      entity::EntityKind::kDevice),
        type_(std::move(type)) {}

 protected:
  [[nodiscard]] std::vector<entity::TypeSig> profile_outputs() const override {
    return {{type_, "", type_}};
  }

 private:
  std::string type_;
};

// Relays every tick as a beat: the intermediate CE of a composition.
class RelayCE final : public entity::ContextEntity {
 public:
  using ContextEntity::ContextEntity;

 protected:
  [[nodiscard]] std::vector<entity::TypeSig> profile_inputs() const override {
    return {{"tick", "", "tick"}};
  }
  [[nodiscard]] std::vector<entity::TypeSig> profile_outputs() const override {
    return {{"beat", "", "beat"}};
  }
  void on_event(const event::Event& event, std::uint64_t) override {
    if (event.type == "tick") publish("beat", event.payload);
  }
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

struct ScalingResult {
  std::int64_t publishes = 0;
  std::int64_t expected_deliveries = 0;
  std::int64_t delivered_unique = 0;
  std::int64_t duplicates = 0;
  std::int64_t sub_mirrors = 0;
  std::int64_t dead_letters = 0;
  std::int64_t retransmits = 0;
  std::int64_t table_total = 0;
  std::int64_t failed_subs = 0;
  int min_per_monitor = 0;
  int max_per_monitor = 0;
  double wall_ms = 0.0;
  double throughput_per_s = 0.0;  // publishes per wall-clock second
  // Same-type subscriptions scanned by the window's publishes.
  std::int64_t scans = 0;
};

constexpr int kColdProducers = 96;
constexpr int kHotProducers = 16;
constexpr int kMonitors = 48;  // each names every cold producer

ScalingResult run_scaling(std::uint64_t seed, unsigned shard_count) {
  Sci sci(seed);
  mobility::Building building({.floors = 2, .rooms_per_floor = 4});
  sci.set_location_directory(&building.directory());
  RangeOptions options;
  options.sharding.shard_count = shard_count;
  auto& lead = *sci.create_range("mall", building.floor_path(0), options)
                    .value();

  // Cold producers spread round-robin across the shards so every shard
  // owns a slice of the subscription population.
  std::vector<std::unique_ptr<PulseCE>> cold;
  for (int i = 0; i < kColdProducers; ++i) {
    cold.push_back(std::make_unique<PulseCE>(
        sci.network(),
        guid_owned_by(sci, lead,
                      static_cast<unsigned>(i) % shard_count),
        "cold" + std::to_string(i), entity::EntityKind::kDevice));
    SCI_ASSERT(sci.enroll(*cold.back(), lead).is_ok());
  }
  // Hot producers land wherever their GUID hashes; their publishes carry
  // the scan load without producing deliveries.
  std::vector<std::unique_ptr<PulseCE>> hot;
  for (int i = 0; i < kHotProducers; ++i) {
    hot.push_back(std::make_unique<PulseCE>(
        sci.network(), sci.new_guid(), "hot" + std::to_string(i),
        entity::EntityKind::kDevice));
    SCI_ASSERT(sci.enroll(*hot.back(), lead).is_ok());
  }
  std::vector<std::unique_ptr<ShardMonitor>> monitors;
  for (int i = 0; i < kMonitors; ++i) {
    monitors.push_back(std::make_unique<ShardMonitor>(
        sci.network(), sci.new_guid(), "monitor" + std::to_string(i),
        entity::EntityKind::kSoftware));
    SCI_ASSERT(sci.enroll(*monitors.back(), lead).is_ok());
    for (int p = 0; p < kColdProducers; ++p) {
      SCI_ASSERT(monitors.back()
                     ->submit_query(
                         "s" + std::to_string(p),
                         query::Builder("s" + std::to_string(p),
                                        monitors.back()->id())
                             .what_named(
                                 cold[static_cast<std::size_t>(p)]->id())
                             .mode(query::QueryMode::kEventSubscription)
                             .to_xml())
                     .is_ok());
    }
    sci.run_for(Duration::millis(100));  // drain the submit burst
  }
  sci.run_for(Duration::seconds(8));  // registrations + mirrors settle
  std::int64_t table_total = 0;
  for (const auto* shard : sci.shards("mall")) {
    table_total +=
        static_cast<std::int64_t>(shard->mediator().table().all().size());
  }
  std::int64_t failed_subs = 0;
  for (const auto& m : monitors) failed_subs += m->failed_queries;

  // Every publish scans its owner shard's "pulse" subscriptions.
  std::vector<std::int64_t> pulse_subs;
  for (const auto* shard : sci.shards("mall")) {
    const auto subs = shard->mediator().table().all();
    pulse_subs.push_back(std::count_if(
        subs.begin(), subs.end(),
        [](const event::Subscription& s) { return s.event_type == "pulse"; }));
  }
  std::vector<std::int64_t> shard_published(shard_count, 0);

  std::int64_t cold_published = 0;
  std::int64_t hot_published = 0;
  std::vector<std::unique_ptr<sim::PeriodicTimer>> timers;
  for (auto& ce : cold) {
    PulseCE* p = ce.get();
    std::int64_t* owned = &shard_published[lead.shard_of(p->id())];
    timers.push_back(std::make_unique<sim::PeriodicTimer>(
        sci.simulator(), Duration::millis(5000), [p, owned, &cold_published] {
          p->publish("pulse", Value(cold_published));
          ++cold_published;
          ++*owned;
        }));
    timers.back()->start();
  }
  for (auto& ce : hot) {
    PulseCE* p = ce.get();
    std::int64_t* owned = &shard_published[lead.shard_of(p->id())];
    timers.push_back(std::make_unique<sim::PeriodicTimer>(
        sci.simulator(), Duration::millis(10), [p, owned, &hot_published] {
          p->publish("pulse", Value(hot_published));
          ++hot_published;
          ++*owned;
        }));
    timers.back()->start();
  }

  // The measured window: identical sim workload per configuration, so the
  // wall-clock cost of draining it is the per-publish CPU price.
  const auto wall_start = std::chrono::steady_clock::now();
  sci.run_for(Duration::seconds(10));
  const auto wall_end = std::chrono::steady_clock::now();
  timers.clear();
  sci.run_for(Duration::seconds(5));  // drain in-flight deliveries

  ScalingResult r;
  r.publishes = cold_published + hot_published;
  for (unsigned i = 0; i < shard_count; ++i)
    r.scans += pulse_subs[i] * shard_published[i];
  r.expected_deliveries = cold_published * kMonitors;
  for (const auto& m : monitors) {
    r.delivered_unique += m->unique_events;
    r.duplicates += m->duplicate_events;
  }
  for (const auto* shard : sci.shards("mall")) {
    r.sub_mirrors +=
        static_cast<std::int64_t>(
            shard->node_counter("cs.shard.sub_mirrors")->value());
  }
  r.wall_ms = std::chrono::duration<double, std::milli>(wall_end - wall_start)
                  .count();
  {
    const obs::MetricsSnapshot snap = sci.metrics().snapshot();
    r.dead_letters = static_cast<std::int64_t>(snap.counter("rel.dead_letters"));
    r.retransmits = static_cast<std::int64_t>(snap.counter("rel.retransmits"));
    r.table_total = table_total;
    r.failed_subs = failed_subs;
    r.min_per_monitor = monitors.empty() ? 0 : monitors.front()->unique_events;
    for (const auto& m : monitors) {
      r.min_per_monitor = std::min(r.min_per_monitor, m->unique_events);
      r.max_per_monitor = std::max(r.max_per_monitor, m->unique_events);
    }
  }
  r.throughput_per_s =
      r.wall_ms <= 0.0 ? 0.0
                       : static_cast<double>(r.publishes) / (r.wall_ms / 1e3);
  return r;
}

void scaling_doc(ValueMap& doc, const std::string& key,
                 const ScalingResult& r) {
  ValueMap m;
  m.emplace("publishes", r.publishes);
  m.emplace("expected_deliveries", r.expected_deliveries);
  m.emplace("delivered_unique", r.delivered_unique);
  m.emplace("duplicates", r.duplicates);
  m.emplace("sub_mirrors", r.sub_mirrors);
  m.emplace("dead_letters", r.dead_letters);
  m.emplace("retransmits", r.retransmits);
  m.emplace("table_total", r.table_total);
  m.emplace("failed_subs", r.failed_subs);
  m.emplace("min_per_monitor", static_cast<std::int64_t>(r.min_per_monitor));
  m.emplace("max_per_monitor", static_cast<std::int64_t>(r.max_per_monitor));
  m.emplace("wall_ms", r.wall_ms);
  m.emplace("throughput_per_s", r.throughput_per_s);
  m.emplace("scans", r.scans);
  doc.emplace(key, Value(ValueMap(m)));
}

void BM_ShardScaling(benchmark::State& state) {
  const auto seed = static_cast<std::uint64_t>(state.range(0));
  ValueMap doc;
  for (auto _ : state) {
    const ScalingResult one = run_scaling(seed, 1);
    const ScalingResult four = run_scaling(seed, 4);
    const double scale = one.throughput_per_s <= 0.0
                             ? 0.0
                             : four.throughput_per_s / one.throughput_per_s;
    const double scan_scale =
        four.scans <= 0 ? 0.0
                        : static_cast<double>(one.scans) /
                              static_cast<double>(four.scans);
    state.counters["scan_scale"] = scan_scale;
    state.counters["throughput_scale"] = scale;
    state.counters["throughput_1shard"] = one.throughput_per_s;
    state.counters["throughput_4shard"] = four.throughput_per_s;

    doc.clear();
    doc.emplace("seed", static_cast<std::int64_t>(seed));
    scaling_doc(doc, "shards1", one);
    scaling_doc(doc, "shards4", four);
    doc.emplace("scan_scale", scan_scale);
    doc.emplace("throughput_scale", scale);
    doc.emplace(
        "delivery_ratio_1shard",
        one.expected_deliveries == 0
            ? 0.0
            : static_cast<double>(one.delivered_unique) /
                  static_cast<double>(one.expected_deliveries));
    doc.emplace(
        "delivery_ratio_4shard",
        four.expected_deliveries == 0
            ? 0.0
            : static_cast<double>(four.delivered_unique) /
                  static_cast<double>(four.expected_deliveries));
    doc.emplace("duplicates", one.duplicates + four.duplicates);
  }
  bench::add_run("sharding/scale/" + std::to_string(seed),
                 Value(ValueMap(doc)));
}

// Mean latency (ms) over the monitor's unique deliveries that arrived
// inside [from, to).
double mean_latency_ms(const ShardMonitor& monitor, SimTime from, SimTime to) {
  double sum = 0.0;
  int n = 0;
  for (const auto& [arrival, latency] : monitor.latencies) {
    if (arrival < from || !(arrival < to)) continue;
    sum += latency.millis_f();
    ++n;
  }
  return n == 0 ? -1.0 : sum / n;
}

void BM_ShardFailoverIsolation(benchmark::State& state) {
  const auto seed = static_cast<std::uint64_t>(state.range(0));
  ValueMap doc;
  for (auto _ : state) {
    Sci sci(seed);
    mobility::Building building({.floors = 2, .rooms_per_floor = 4});
    sci.set_location_directory(&building.directory());
    RangeOptions options;
    options.sharding.shard_count = 4;
    options.replication.standby_count = 2;
    options.replication.heartbeat_period = Duration::millis(200);
    auto& lead = *sci.create_range("mall", building.floor_path(0), options)
                      .value();

    // Victim pair: producer owned by shard 2, monitor by shard 1.
    PulseCE victim_pulse(sci.network(), guid_owned_by(sci, lead, 2),
                         "victim_pulse", entity::EntityKind::kDevice);
    SCI_ASSERT(sci.enroll(victim_pulse, lead).is_ok());
    ShardMonitor victim_monitor(sci.network(), guid_owned_by(sci, lead, 1),
                                "victim_monitor",
                                entity::EntityKind::kSoftware);
    SCI_ASSERT(sci.enroll(victim_monitor, lead).is_ok());
    // Survivor pair: producer owned by shard 3, monitor by shard 0 — no
    // state on shard 2 at all.
    PulseCE survivor_pulse(sci.network(), guid_owned_by(sci, lead, 3),
                           "survivor_pulse", entity::EntityKind::kDevice);
    SCI_ASSERT(sci.enroll(survivor_pulse, lead).is_ok());
    ShardMonitor survivor_monitor(sci.network(), guid_owned_by(sci, lead, 0),
                                  "survivor_monitor",
                                  entity::EntityKind::kSoftware);
    SCI_ASSERT(sci.enroll(survivor_monitor, lead).is_ok());
    // Probe app on the victim shard, idle until the failover is over.
    ShardMonitor probe(sci.network(), guid_owned_by(sci, lead, 2), "probe",
                       entity::EntityKind::kSoftware);
    SCI_ASSERT(sci.enroll(probe, lead).is_ok());
    SCI_ASSERT(victim_monitor
                   .submit_query("sub",
                                 query::Builder("sub", victim_monitor.id())
                                     .what_named(victim_pulse.id())
                                     .mode(query::QueryMode::kEventSubscription)
                                     .to_xml())
                   .is_ok());
    SCI_ASSERT(
        survivor_monitor
            .submit_query("sub",
                          query::Builder("sub", survivor_monitor.id())
                              .what_named(survivor_pulse.id())
                              .mode(query::QueryMode::kEventSubscription)
                              .to_xml())
            .is_ok());
    sci.run_for(Duration::seconds(2));  // mirrors + standbys in place

    std::int64_t victim_published = 0;
    std::int64_t survivor_published = 0;
    sim::PeriodicTimer victim_timer(
        sci.simulator(), Duration::millis(100), [&] {
          victim_pulse.publish("pulse", Value(victim_published));
          ++victim_published;
        });
    sim::PeriodicTimer survivor_timer(
        sci.simulator(), Duration::millis(100), [&] {
          survivor_pulse.publish("pulse", Value(survivor_published));
          ++survivor_published;
        });
    victim_timer.start();
    survivor_timer.start();
    sci.run_for(Duration::seconds(8));  // pre-crash steady state

    // Kill shard 2's primary machine outright; shards 0, 1 and 3 and the
    // two shard-2 standbys are untouched.
    const SimTime crash_at = sci.simulator().now();
    range::ContextServer* doomed = sci.shards("mall")[2];
    SCI_ASSERT(sci.network().set_crashed(doomed->server_node(), true).is_ok());
    sci.run_for(Duration::seconds(20));
    victim_timer.stop();
    survivor_timer.stop();
    sci.run_for(Duration::seconds(30));  // drain retransmit budgets
    const SimTime done = sci.simulator().now();

    range::ContextServer* fresh = sci.find_range("mall#2");
    SCI_ASSERT(fresh != nullptr);
    const bool failed_over =
        fresh != doomed && fresh->promoted_by_election() &&
        fresh->role() == range::RangeConfig::Role::kPrimary;

    const double pre_ms =
        mean_latency_ms(survivor_monitor, SimTime(), crash_at);
    const double post_ms = mean_latency_ms(survivor_monitor, crash_at, done);
    const double latency_delta_pct =
        pre_ms <= 0.0 ? -1.0 : (post_ms - pre_ms) / pre_ms * 100.0;

    // Acked-op loss: every published op must surface unless its frame was
    // never client-acked (parked in the publisher's DLQ).
    const std::int64_t victim_loss = victim_published -
                                     victim_pulse.publishes_parked() -
                                     victim_monitor.unique_events;
    const std::int64_t survivor_loss =
        survivor_published - survivor_monitor.unique_events;

    // The successor composes over its rebuilt mirrors: every "pulse"
    // producer, the sibling-owned survivor_pulse included.
    SCI_ASSERT(sci.submit_query(probe, query::Builder("probe", probe.id())
                                           .what_pattern("pulse")
                                           .profile())
                   .has_value());
    sci.run_for(Duration::seconds(1));
    bool post_failover_query_ok = false;
    if (const auto it = probe.answers.find("probe");
        it != probe.answers.end()) {
      for (const Value& profile : it->second.get_list()) {
        if (profile.at("entity") == Value(survivor_pulse.id())) {
          post_failover_query_ok = true;
        }
      }
    }

    state.counters["failed_over"] = failed_over ? 1.0 : 0.0;
    state.counters["survivor_latency_delta_pct"] = latency_delta_pct;
    state.counters["victim_acked_op_loss"] =
        static_cast<double>(victim_loss);

    const obs::MetricsSnapshot snap = sci.metrics().snapshot();
    doc.clear();
    doc.emplace("seed", static_cast<std::int64_t>(seed));
    doc.emplace("failed_over", failed_over ? std::int64_t{1} : std::int64_t{0});
    doc.emplace("victim_published", victim_published);
    doc.emplace("victim_delivered_unique",
                static_cast<std::int64_t>(victim_monitor.unique_events));
    doc.emplace("victim_duplicates",
                static_cast<std::int64_t>(victim_monitor.duplicate_events));
    doc.emplace("victim_publishes_parked", victim_pulse.publishes_parked());
    doc.emplace("victim_acked_op_loss", victim_loss);
    doc.emplace("survivor_published", survivor_published);
    doc.emplace("survivor_delivered_unique",
                static_cast<std::int64_t>(survivor_monitor.unique_events));
    doc.emplace("survivor_duplicates",
                static_cast<std::int64_t>(survivor_monitor.duplicate_events));
    doc.emplace("survivor_acked_op_loss", survivor_loss);
    doc.emplace("survivor_latency_pre_ms", pre_ms);
    doc.emplace("survivor_latency_post_ms", post_ms);
    doc.emplace("survivor_latency_delta_pct", latency_delta_pct);
    doc.emplace("post_failover_query_ok",
                post_failover_query_ok ? std::int64_t{1} : std::int64_t{0});
    doc.emplace("mirror_rebuilds",
                static_cast<std::int64_t>(
                    fresh->node_counter("cs.shard.mirror_rebuilds")->value()));
    doc.emplace("lead_promotions",
                static_cast<std::int64_t>(
                    lead.node_counter("repl.failovers")->value()));
    doc.emplace("registered_calls_total",
                static_cast<std::int64_t>(
                    victim_pulse.registered_calls +
                    victim_monitor.registered_calls +
                    survivor_pulse.registered_calls +
                    survivor_monitor.registered_calls));
    doc.emplace("repl_failovers",
                static_cast<std::int64_t>(snap.counter("repl.failovers")));
    doc.emplace(
        "repl_state_divergence",
        static_cast<std::int64_t>(snap.counter("repl.state_divergence")));
  }
  bench::add_run("sharding/failover/" + std::to_string(seed),
                 Value(ValueMap(doc)));
}

void BM_ShardLease(benchmark::State& state) {
  const auto seed = static_cast<std::uint64_t>(state.range(0));
  ValueMap doc;
  for (auto _ : state) {
    Sci sci(seed);
    mobility::Building building({.floors = 2, .rooms_per_floor = 4});
    sci.set_location_directory(&building.directory());
    RangeOptions options;
    options.sharding.shard_count = 2;
    options.replication.standby_count = 1;
    options.replication.heartbeat_period = Duration::millis(200);
    options.reliability.lease_ttl = Duration::seconds(6);
    auto& lead = *sci.create_range("mall", building.floor_path(0), options)
                      .value();

    TypedCE local(sci.network(), guid_owned_by(sci, lead, 0), "local",
                  "pulse");
    TypedCE remote(sci.network(), guid_owned_by(sci, lead, 1), "remote",
                   "pulse");
    TypedCE tick(sci.network(), guid_owned_by(sci, lead, 0), "tick", "tick");
    RelayCE relay(sci.network(), guid_owned_by(sci, lead, 1), "relay",
                  entity::EntityKind::kSoftware);
    ShardMonitor monitor(sci.network(), guid_owned_by(sci, lead, 1),
                         "monitor", entity::EntityKind::kSoftware);
    ShardMonitor app(sci.network(), guid_owned_by(sci, lead, 0), "app",
                     entity::EntityKind::kSoftware);
    for (entity::Component* c : std::initializer_list<entity::Component*>{
             &local, &remote, &tick, &relay, &monitor, &app}) {
      SCI_ASSERT(sci.enroll(*c, lead).is_ok());
    }
    (void)lead.subscribe_pattern(monitor.id(), "pulse");
    SCI_ASSERT(sci.submit_query(app, query::Builder("beats", app.id())
                                         .what_pattern("beat")
                                         .subscribe())
                   .has_value());
    sci.run_for(Duration::seconds(1));

    // Kill shard 1's primary; its standby takes over well inside the ttl.
    range::ContextServer* doomed = sci.shards("mall")[1];
    SCI_ASSERT(sci.network().set_crashed(doomed->server_node(), true).is_ok());
    sci.run_for(Duration::seconds(4));
    range::ContextServer* fresh = sci.find_range("mall#1");
    const bool failed_over =
        fresh != nullptr && fresh != doomed &&
        fresh->role() == range::RangeConfig::Role::kPrimary;

    std::int64_t pulses = 0;
    std::int64_t ticks = 0;
    sim::PeriodicTimer publisher(sci.simulator(), Duration::millis(250), [&] {
      local.publish("pulse", Value(pulses));
      remote.publish("pulse", Value(pulses));
      pulses += 2;
      tick.publish("tick", Value(ticks));
      ++ticks;
    });
    publisher.start();
    sci.run_for(Duration::seconds(20));
    publisher.stop();
    sci.run_for(Duration::seconds(2));  // drain in-flight deliveries

    const std::int64_t expected = pulses + ticks;
    const std::int64_t delivered = monitor.unique_events + app.unique_events;
    monitor.stop();
    sci.run_for(Duration::seconds(1));
    std::int64_t rows_after_departure = 0;
    for (const range::ContextServer* shard : sci.shards("mall")) {
      rows_after_departure += static_cast<std::int64_t>(
          shard->mediator().table().ids_for_subscriber(monitor.id()).size());
    }

    const double ratio =
        expected == 0 ? 0.0
                      : static_cast<double>(delivered) /
                            static_cast<double>(expected);
    state.counters["lease_delivery_ratio"] = ratio;
    const obs::MetricsSnapshot snap = sci.metrics().snapshot();
    doc.clear();
    doc.emplace("seed", static_cast<std::int64_t>(seed));
    doc.emplace("failed_over", failed_over ? std::int64_t{1} : std::int64_t{0});
    doc.emplace("expected_deliveries", expected);
    doc.emplace("monitor_delivered_unique",
                static_cast<std::int64_t>(monitor.unique_events));
    doc.emplace("app_delivered_unique",
                static_cast<std::int64_t>(app.unique_events));
    doc.emplace("duplicates",
                static_cast<std::int64_t>(monitor.duplicate_events +
                                          app.duplicate_events));
    doc.emplace("lease_delivery_ratio", ratio);
    doc.emplace("rows_after_departure", rows_after_departure);
    doc.emplace("leases_expired",
                static_cast<std::int64_t>(snap.counter("em.leases.expired")));
    doc.emplace(
        "repl_state_divergence",
        static_cast<std::int64_t>(snap.counter("repl.state_divergence")));
  }
  bench::add_run("sharding/lease/" + std::to_string(seed),
                 Value(ValueMap(doc)));
}

}  // namespace

BENCHMARK(BM_ShardScaling)
    ->Arg(42)
    ->Arg(1337)
    ->Arg(20260806)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

BENCHMARK(BM_ShardFailoverIsolation)
    ->Arg(42)
    ->Arg(1337)
    ->Arg(20260806)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

BENCHMARK(BM_ShardLease)
    ->Arg(42)
    ->Arg(1337)
    ->Arg(20260806)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

SCI_BENCHMARK_MAIN_WITH_REPORT("BENCH_fig10.json")
