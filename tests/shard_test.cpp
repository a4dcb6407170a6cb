// Tests for partitioned Ranges (docs/SHARDING.md): the consistent GUID-hash
// ShardMap, handshake-redirect registration, cross-shard subscription and
// query forwarding, per-shard replication/failover, and the sharded facade
// surface (DLQ + metric aggregation under shard labels).
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/sci.h"
#include "entity/printer.h"
#include "range/shard_map.h"
#include "serde/buffer.h"
#include "serde/frame.h"

#include "metric_counts.h"

namespace sci {
namespace {

TEST(ShardTest, ShardMapDeterministicOwnershipAndCoverage) {
  Rng rng{7};
  range::ShardMap map(4);
  std::vector<Guid> nodes;
  for (unsigned i = 0; i < 4; ++i) {
    nodes.push_back(Guid::random(rng));
    map.set_node(i, nodes.back());
  }
  EXPECT_EQ(map.size(), 4u);
  for (unsigned i = 0; i < 4; ++i) EXPECT_EQ(map.node_of(i), nodes[i]);
  EXPECT_TRUE(map.node_of(99).is_nil());

  // Ownership is deterministic (same guid, same owner, any number of asks)
  // and spreads: with 1000 random guids every shard owns a healthy slice.
  std::map<unsigned, int> histogram;
  for (int i = 0; i < 1000; ++i) {
    const Guid g = Guid::random(rng);
    const unsigned owner = map.owner_of(g);
    ASSERT_LT(owner, 4u);
    EXPECT_EQ(map.owner_of(g), owner);
    ++histogram[owner];
  }
  ASSERT_EQ(histogram.size(), 4u);
  for (const auto& [shard, count] : histogram) {
    EXPECT_GT(count, 100) << "shard " << shard << " starved";
  }

  // An identically-built map agrees — any node holding the map computes the
  // same routing without coordination.
  range::ShardMap twin(4);
  for (unsigned i = 0; i < 4; ++i) twin.set_node(i, nodes[i]);
  Rng rng2{99};
  for (int i = 0; i < 100; ++i) {
    const Guid g = Guid::random(rng2);
    EXPECT_EQ(map.owner_of(g), twin.owner_of(g));
  }
}

struct ShardFixture {
  Sci sci{42};
  mobility::Building building{{.floors = 2, .rooms_per_floor = 4}};
  range::ContextServer* lead = nullptr;

  explicit ShardFixture(unsigned shard_count, unsigned standby_count = 0,
                        const std::function<void(RangeOptions&)>& tune = {}) {
    sci.set_location_directory(&building.directory());
    RangeOptions options;
    options.sharding.shard_count = shard_count;
    options.replication.standby_count = standby_count;
    options.replication.heartbeat_period = Duration::millis(200);
    if (tune) tune(options);
    lead = sci.create_range("mall", building.floor_path(0), options).value();
  }

  // Deterministically minted GUID owned by the given shard.
  Guid guid_owned_by(unsigned shard) {
    for (int i = 0; i < 4096; ++i) {
      const Guid g = sci.new_guid();
      if (lead->shard_of(g) == shard) return g;
    }
    ADD_FAILURE() << "no guid hashed to shard " << shard;
    return Guid();
  }
};

// Advertises the "pulse" output so named/pattern subscriptions bind to it.
class PulseCE final : public entity::ContextEntity {
 public:
  using ContextEntity::ContextEntity;

 protected:
  [[nodiscard]] std::vector<entity::TypeSig> profile_outputs() const override {
    return {{"pulse", "", "pulse"}};
  }
};

// Distinguishes fresh deliveries from failover replays and records query
// results, so loss, duplication and forwarding outcomes are all observable.
class ShardMonitor final : public entity::ContextAwareApp {
 public:
  using ContextAwareApp::ContextAwareApp;
  int unique_events = 0;
  int duplicate_events = 0;
  int registered_calls = 0;
  std::map<std::string, Error> results;
  std::map<std::string, Value> result_values;

 protected:
  void on_event(const event::Event& event, std::uint64_t) override {
    if (seen_.insert({event.source, event.sequence}).second) {
      ++unique_events;
    } else {
      ++duplicate_events;
    }
  }
  void on_registered() override { ++registered_calls; }
  void on_query_result(const std::string& query_id, const Error& error,
                       const Value& result) override {
    results[query_id] = error;
    result_values[query_id] = result;
  }

 private:
  std::set<std::pair<Guid, std::uint64_t>> seen_;
};

TEST(ShardTest, ShardedRangeCreatesSiblingsAndFacadeAccessors) {
  ShardFixture f(4);
  const auto shards = f.sci.shards("mall");
  ASSERT_EQ(shards.size(), 4u);
  EXPECT_EQ(shards[0], f.lead);
  std::set<Guid> nodes;
  for (unsigned i = 0; i < 4; ++i) {
    ASSERT_NE(shards[i], nullptr);
    EXPECT_TRUE(shards[i]->sharded());
    EXPECT_EQ(shards[i]->shard_index(), i);
    EXPECT_EQ(shards[i]->role(), range::RangeConfig::Role::kPrimary);
    nodes.insert(shards[i]->server_node());
  }
  EXPECT_EQ(nodes.size(), 4u);  // distinct CS nodes
  EXPECT_EQ(f.sci.find_range("mall#1"), shards[1]);
  EXPECT_EQ(f.sci.find_range("mall"), f.lead);

  // Every instance holds the same map: facade shard_of matches each shard's
  // local answer.
  for (int i = 0; i < 50; ++i) {
    const Guid g = f.sci.new_guid();
    const unsigned owner = f.sci.shard_of("mall", g).value();
    for (const auto* shard : shards) EXPECT_EQ(shard->shard_of(g), owner);
  }

  // '#' is reserved for sibling naming.
  EXPECT_FALSE(
      bool(f.sci.create_range("bad#name", f.building.floor_path(1))));

  // Unsharded ranges answer shard 0 for everything.
  auto* plain = f.sci.create_range("flat", f.building.floor_path(1)).value();
  EXPECT_FALSE(plain->sharded());
  EXPECT_EQ(f.sci.shard_of("flat", f.sci.new_guid()).value(), 0u);
  EXPECT_EQ(f.sci.shards("flat").size(), 1u);
}

TEST(ShardTest, ArrivalRedirectsRegistrationToOwnerShard) {
  ShardFixture f(4);
  const auto shards = f.sci.shards("mall");
  // One entity per shard, every hello aimed at the lead's Range Service.
  for (unsigned owner = 0; owner < 4; ++owner) {
    PulseCE ce(f.sci.network(), f.guid_owned_by(owner),
               "ce" + std::to_string(owner), entity::EntityKind::kDevice);
    ASSERT_TRUE(f.sci.enroll(ce, *f.lead).is_ok());
    // Fig 5 step 2 named the owner shard's Registrar; the component
    // registered there, not where it helloed.
    EXPECT_EQ(ce.registration().context_server, shards[owner]->server_node());
    EXPECT_EQ(shards[owner]->registrar().find(ce.id()) != nullptr, true);
    ce.stop();
    f.sci.run_for(Duration::millis(50));
  }
  // All but the lead's own.
  EXPECT_EQ(node_count(*f.lead, "cs.shard.redirects"), 3u);
}

TEST(ShardTest, CrossShardNamedSubscriptionDeliversExactlyOnce) {
  ShardFixture f(4);
  PulseCE pulse(f.sci.network(), f.guid_owned_by(2), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.lead).is_ok());
  ShardMonitor monitor(f.sci.network(), f.guid_owned_by(1), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.lead).is_ok());
  f.sci.run_for(Duration::millis(500));

  // Named subscription submitted at the monitor's shard (1); the producer
  // lives at shard 2, so the subscription migrates to ride the producer's
  // local mediator.
  ASSERT_TRUE(monitor
                  .submit_query("sub",
                                query::Builder("sub", monitor.id())
                                    .what_named(pulse.id())
                                    .mode(query::QueryMode::kEventSubscription)
                                    .to_xml())
                  .is_ok());
  f.sci.run_for(Duration::seconds(1));
  const auto shards = f.sci.shards("mall");
  EXPECT_GE(node_count(*shards[1], "cs.shard.sub_mirrors"), 1u);
  EXPECT_TRUE(shards[1]->mediator().table().all().empty());
  EXPECT_FALSE(shards[2]->mediator().table().all().empty());

  for (int i = 0; i < 10; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(1));
  EXPECT_EQ(monitor.unique_events, 10);
  EXPECT_EQ(monitor.duplicate_events, 0);

  // Unsubscription tears the remote copy down (the monitor leaving drops
  // its mirrored subscriptions at the producer's shard).
  monitor.stop();
  f.sci.run_for(Duration::seconds(1));
  EXPECT_TRUE(shards[2]->mediator().table().all().empty());
}

// ISSUE satellite: a type-pattern (wildcard) subscription must hear
// producers on EVERY shard, not just the shard it was created on. Publishes
// route to the producer's owner shard; before wildcard mirroring, a
// producer hashed to a sibling shard was silently invisible to the
// subscriber.
TEST(ShardTest, WildcardSubscriptionHearsProducersOnBothShards) {
  ShardFixture f(2);
  const auto shards = f.sci.shards("mall");
  // One producer per shard, both advertising the same output type.
  PulseCE local(f.sci.network(), f.guid_owned_by(0), "local",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(local, *f.lead).is_ok());
  PulseCE remote(f.sci.network(), f.guid_owned_by(1), "remote",
                 entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(remote, *f.lead).is_ok());
  ShardMonitor monitor(f.sci.network(), f.guid_owned_by(0), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.lead).is_ok());
  f.sci.run_for(Duration::millis(500));

  // Wildcard subscription created at the monitor's shard (0): the local
  // entry stays AND a copy installs on shard 1 (batched kShardSubscribe).
  const event::SubscriptionId sub =
      shards[0]->subscribe_pattern(monitor.id(), "pulse");
  f.sci.run_for(Duration::millis(500));
  EXPECT_GE(node_count(*shards[0], "cs.shard.sub_mirrors"), 1u);
  EXPECT_FALSE(shards[0]->mediator().table().all().empty());
  ASSERT_FALSE(shards[1]->mediator().table().all().empty());
  // The sibling's copy keeps the home shard's id and stays a wildcard.
  EXPECT_EQ(shards[1]->mediator().table().all().front().id, sub);
  EXPECT_FALSE(shards[1]->mediator().table().all().front().producer);

  for (int i = 0; i < 5; ++i) {
    local.publish("pulse", Value(static_cast<std::int64_t>(i)));
    remote.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(1));
  // Both producers' events arrive, each exactly once.
  EXPECT_EQ(monitor.unique_events, 10);
  EXPECT_EQ(monitor.duplicate_events, 0);

  // Teardown reaches the sibling copy too.
  ASSERT_TRUE(shards[0]->unsubscribe(sub).is_ok());
  f.sci.run_for(Duration::seconds(1));
  EXPECT_TRUE(shards[0]->mediator().table().all().empty());
  EXPECT_TRUE(shards[1]->mediator().table().all().empty());

  const int before = monitor.unique_events;
  local.publish("pulse", Value(static_cast<std::int64_t>(99)));
  remote.publish("pulse", Value(static_cast<std::int64_t>(99)));
  f.sci.run_for(Duration::seconds(1));
  EXPECT_EQ(monitor.unique_events, before);
}

// Owner tags are minted per shard, so a sibling's mirrored subscription
// can carry the same tag as one of this shard's direct subscriptions.
// Cancelling the local one retires only the subscriptions this shard owns.
TEST(ShardTest, RetiringADirectSubscriptionSparesASiblingsMirrorOfItsTag) {
  ShardFixture f(2);
  PulseCE pulse(f.sci.network(), f.guid_owned_by(0), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.lead).is_ok());
  ShardMonitor local(f.sci.network(), f.guid_owned_by(0), "local",
                     entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(local, *f.lead).is_ok());
  ShardMonitor remote(f.sci.network(), f.guid_owned_by(1), "remote",
                      entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(remote, *f.lead).is_ok());
  f.sci.run_for(Duration::millis(500));

  // Each shard mints its first tag for its own app's named subscription;
  // shard 1 moves its copy onto the producer's shard 0.
  const auto subscribe = [&](ShardMonitor& app) {
    return f.sci.submit_query(app, query::Builder("sub", app.id())
                                       .what_named(pulse.id())
                                       .subscribe());
  };
  ASSERT_TRUE(bool(subscribe(remote)));
  f.sci.run_for(Duration::seconds(1));
  auto handle = subscribe(local);
  ASSERT_TRUE(bool(handle));
  f.sci.run_for(Duration::seconds(1));
  const auto shards = f.sci.shards("mall");
  const auto table = shards[0]->mediator().table().all();
  ASSERT_EQ(table.size(), 2u);
  ASSERT_EQ(table[0].owner_tag, table[1].owner_tag);

  EXPECT_TRUE(handle->cancel());
  f.sci.run_for(Duration::seconds(1));
  for (int i = 0; i < 5; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(1));
  EXPECT_EQ(local.unique_events, 0);
  EXPECT_EQ(remote.unique_events, 5);
}

TEST(ShardTest, ForwardedContextPullAnswersFromOwnerShard) {
  ShardFixture f(4);
  PulseCE pulse(f.sci.network(), f.guid_owned_by(3), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.lead).is_ok());
  ShardMonitor monitor(f.sci.network(), f.guid_owned_by(0), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.lead).is_ok());
  f.sci.run_for(Duration::millis(500));
  for (int i = 0; i < 5; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(50));
  }
  f.sci.run_for(Duration::millis(500));

  // The pulse history lives in shard 3's context store; the monitor asks
  // its own shard (0), which forwards one hop and shard 3 answers.
  ASSERT_TRUE(monitor
                  .submit_query("pull",
                                query::Builder("pull", monitor.id())
                                    .what_pattern("pulse")
                                    .about(pulse.id())
                                    .with_history(3)
                                    .mode(query::QueryMode::kProfileRequest)
                                    .to_xml())
                  .is_ok());
  f.sci.run_for(Duration::seconds(1));
  ASSERT_TRUE(monitor.results.contains("pull"));
  EXPECT_TRUE(monitor.results["pull"].ok())
      << monitor.results["pull"].message();
  const auto shards = f.sci.shards("mall");
  EXPECT_GE(node_count(*shards[0], "cs.shard.forwarded_queries"), 1u);

  // A named profile request resolves locally everywhere — profiles mirror
  // to every shard, so no forwarding hop is spent.
  const std::uint64_t forwarded_before =
      node_count(*shards[0], "cs.shard.forwarded_queries");
  ASSERT_TRUE(monitor
                  .submit_query("prof",
                                query::Builder("prof", monitor.id())
                                    .what_named(pulse.id())
                                    .mode(query::QueryMode::kProfileRequest)
                                    .to_xml())
                  .is_ok());
  f.sci.run_for(Duration::seconds(1));
  ASSERT_TRUE(monitor.results.contains("prof"));
  EXPECT_TRUE(monitor.results["prof"].ok())
      << monitor.results["prof"].message();
  EXPECT_EQ(node_count(*shards[0], "cs.shard.forwarded_queries"),
            forwarded_before);
}

// ISSUE satellite: a cross-shard subscription must survive a kill/elect
// cycle of the shard hosting it (the producer's), with no duplicate and no
// lost delivery, in synchronous-ack replication mode. Other shards keep
// serving throughout — failover domains are independent.
// Regression: a standby replaying a subscribe_pattern record (a
// kShardSubscribe with flag=1) must rebuild the wildcard's sibling-mirror
// bookkeeping as well as the table entry. Without it the heartbeat
// fingerprint flags divergence, and a promoted standby cannot tear the
// sibling copies down.
TEST(ShardTest, StandbyRebuildsWildcardMirrorFromReplicatedRecord) {
  ShardFixture f(2, /*standby_count=*/1);
  ShardMonitor monitor(f.sci.network(), f.guid_owned_by(0), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.lead).is_ok());
  f.sci.run_for(Duration::millis(500));

  const event::SubscriptionId sub =
      f.sci.shards("mall")[0]->subscribe_pattern(monitor.id(), "pulse");
  f.sci.run_for(Duration::seconds(1));  // several 200 ms heartbeats
  ASSERT_FALSE(f.sci.shards("mall")[1]->mediator().table().all().empty());
  EXPECT_EQ(f.sci.metrics().snapshot().counter("repl.state_divergence"), 0u);

  ASSERT_TRUE(f.sci.promote_range("mall").is_ok());
  range::ContextServer* fresh = f.sci.shards("mall")[0];
  ASSERT_NE(fresh, f.lead);
  ASSERT_TRUE(fresh->unsubscribe(sub).is_ok());
  f.sci.run_for(Duration::seconds(1));
  EXPECT_TRUE(fresh->mediator().table().all().empty());
  EXPECT_TRUE(f.sci.shards("mall")[1]->mediator().table().all().empty());
  EXPECT_EQ(f.sci.metrics().snapshot().counter("repl.state_divergence"), 0u);
}

TEST(ShardTest, CrossShardDeliverySurvivesShardKillElectCycle) {
  ShardFixture f(4, /*standby_count=*/2);
  PulseCE pulse(f.sci.network(), f.guid_owned_by(2), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.lead).is_ok());
  ShardMonitor monitor(f.sci.network(), f.guid_owned_by(1), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.lead).is_ok());
  ASSERT_TRUE(monitor
                  .submit_query("sub",
                                query::Builder("sub", monitor.id())
                                    .what_named(pulse.id())
                                    .mode(query::QueryMode::kEventSubscription)
                                    .to_xml())
                  .is_ok());
  f.sci.run_for(Duration::seconds(2));

  for (int i = 0; i < 5; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(1));
  ASSERT_EQ(monitor.unique_events, 5);

  // Kill shard 2's primary machine outright. Its two standbys hold an
  // election among themselves; shards 0, 1 and 3 never notice.
  range::ContextServer* doomed = f.sci.shards("mall")[2];
  ASSERT_TRUE(f.sci.network().set_crashed(doomed->server_node(), true).is_ok());
  f.sci.run_for(Duration::seconds(4));

  range::ContextServer* fresh = f.sci.find_range("mall#2");
  ASSERT_NE(fresh, nullptr);
  ASSERT_NE(fresh, doomed);
  EXPECT_TRUE(fresh->promoted_by_election());
  EXPECT_EQ(fresh->role(), range::RangeConfig::Role::kPrimary);
  EXPECT_EQ(f.sci.shards("mall")[2], fresh);
  // The replicated mirrored subscription survived the promotion.
  EXPECT_FALSE(fresh->mediator().table().all().empty());
  // Untouched shards kept their primaries.
  EXPECT_EQ(f.sci.find_range("mall"), f.lead);
  EXPECT_EQ(node_count(*f.lead, "repl.failovers"), 0u);

  for (int i = 5; i < 15; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(10));

  // Exactly-once across the cycle: sync_acks withheld the client ack until
  // a standby applied, and delivery dedup absorbs the promotion replay.
  EXPECT_EQ(monitor.unique_events, 15);
  EXPECT_EQ(monitor.duplicate_events, 0);
  EXPECT_EQ(monitor.registered_calls, 1);
  EXPECT_TRUE(pulse.is_registered());
  EXPECT_TRUE(monitor.is_registered());
}

// Regression: a mirrored-in subscription id lives in its home shard's id
// space. If ingesting it bumped the local mint counter into that space,
// a later locally-minted id would collide with the sibling's next genuine
// id at a common destination shard, where restore() replaces the earlier
// live subscription — silently killing deliveries.
TEST(ShardTest, MirroredIdsDoNotPoisonLocalIdSpace) {
  ShardFixture f(4);
  PulseCE p0(f.sci.network(), f.guid_owned_by(0), "p0",
             entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(p0, *f.lead).is_ok());
  PulseCE p1(f.sci.network(), f.guid_owned_by(1), "p1",
             entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(p1, *f.lead).is_ok());
  ShardMonitor m3(f.sci.network(), f.guid_owned_by(3), "m3",
                  entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(m3, *f.lead).is_ok());
  ShardMonitor m0(f.sci.network(), f.guid_owned_by(0), "m0",
                  entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(m0, *f.lead).is_ok());
  f.sci.run_for(Duration::millis(500));

  const auto sub = [&](ShardMonitor& m, const std::string& id, const Guid& p) {
    ASSERT_TRUE(m.submit_query(id, query::Builder(id, m.id())
                                       .what_named(p)
                                       .mode(query::QueryMode::kEventSubscription)
                                       .to_xml())
                    .is_ok());
    f.sci.run_for(Duration::millis(500));
  };
  // Shard 3 mirrors a 3-space id into shard 0; shard 0 then mints for m0
  // (must stay in 0-space) and mirrors to shard 1; shard 3 mints again and
  // mirrors to shard 1 too. With a poisoned counter the last two collide.
  sub(m3, "a", p0.id());
  sub(m0, "b", p1.id());
  sub(m3, "c", p1.id());

  const auto shards = f.sci.shards("mall");
  EXPECT_EQ(shards[1]->mediator().table().all().size(), 2u);
  for (int i = 0; i < 3; ++i) {
    p1.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(1));
  EXPECT_EQ(m0.unique_events, 3);
  EXPECT_EQ(m3.unique_events, 3);
}

TEST(ShardTest, DlqAndChannelMetricsAggregatePerShard) {
  ShardFixture f(4);
  PulseCE pulse(f.sci.network(), f.guid_owned_by(2), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.lead).is_ok());
  ShardMonitor monitor(f.sci.network(), f.guid_owned_by(1), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.lead).is_ok());
  f.sci.run_for(Duration::seconds(1));

  // Every shard's channel reports under its own stable label while the
  // unlabelled totals (what fig8/fig9 read) keep aggregating everything.
  const auto snapshot = f.sci.metrics().snapshot();
  const std::uint64_t total = snapshot.counter("rel.delivered");
  std::uint64_t labelled_sum = 0;
  for (unsigned i = 0; i < 4; ++i) {
    labelled_sum +=
        snapshot.counter("rel.delivered", "shard=" + std::to_string(i));
  }
  EXPECT_GT(labelled_sum, 0u);
  // Component channels are unlabelled, so the global counter dominates the
  // per-shard slice (every labelled increment also bumped the global).
  EXPECT_GE(total, labelled_sum);
  EXPECT_GE(snapshot.counter_family_size("rel.delivered"), 3u);

  // DLQ facade aggregation: the base name covers every shard's queue.
  ASSERT_TRUE(bool(f.sci.dead_letters("mall")));
  EXPECT_EQ(f.sci.replay_dead_letters("mall").value(), 0u);
  EXPECT_TRUE(f.sci.drain_dead_letters("mall").value().empty());
}

// A profile change on the owner shard must invalidate the materialized
// views every sibling built over the mirrored copy (docs/VIEWS.md): the
// kShardProfile ingest runs the same invalidation predicate as a local
// profile update.
TEST(ShardTest, MirroredProfileChangeInvalidatesSiblingViews) {
  ShardFixture f(4);
  entity::PrinterCE printer(f.sci.network(), f.guid_owned_by(2), "P1",
                            f.building.room(0, 0));
  ASSERT_TRUE(f.sci.enroll(printer, *f.lead).is_ok());
  ShardMonitor monitor(f.sci.network(), f.guid_owned_by(1), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.lead).is_ok());
  f.sci.run_for(Duration::millis(300));  // mirrors settle

  const auto ask = [&](const std::string& id) {
    ASSERT_TRUE(f.sci.submit_query(monitor,
                                   query::Builder(id, monitor.id())
                                       .what_entity_type("printing")
                                       .require("has_paper", Value(true))
                                       .advertisement())
                    .has_value());
    f.sci.run_for(Duration::millis(300));
  };

  // The monitor's queries run on its owner shard (1) over the mirror.
  ask("q1");
  ASSERT_TRUE(monitor.results.at("q1").ok());
  range::ContextServer* shard1 = f.sci.shards("mall")[1];
  ASSERT_NE(shard1->views(), nullptr);
  EXPECT_GE(shard1->views()->size(), 1u);

  // Paper-out on the owner shard: the mirror record must drop shard 1's
  // view, so the re-query re-selects (and now finds nothing acceptable).
  printer.set_paper(false);
  f.sci.run_for(Duration::millis(300));
  EXPECT_GE(node_count(*shard1, "view.invalidations"), 1u);
  ask("q2");
  ASSERT_TRUE(monitor.results.count("q2"));
  EXPECT_FALSE(monitor.results.at("q2").ok());
}

// A promoted standby inherits warm views: kQuery records replay the same
// lookup/install sequence on every follower, so the elected successor
// starts with the view table its predecessor built.
TEST(ShardTest, WarmViewsSurviveShardKillElectCycle) {
  ShardFixture f(4, /*standby_count=*/2);
  entity::PrinterCE printer(f.sci.network(), f.guid_owned_by(0), "P1",
                            f.building.room(0, 0));
  ASSERT_TRUE(f.sci.enroll(printer, *f.lead).is_ok());
  ShardMonitor monitor(f.sci.network(), f.guid_owned_by(2), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.lead).is_ok());
  f.sci.run_for(Duration::millis(300));

  const auto ask = [&](const std::string& id) {
    ASSERT_TRUE(f.sci.submit_query(monitor,
                                   query::Builder(id, monitor.id())
                                       .what_entity_type("printing")
                                       .advertisement())
                    .has_value());
    f.sci.run_for(Duration::millis(300));
  };
  ask("q1");
  ask("q2");  // second resolve hits the installed view
  ASSERT_TRUE(monitor.results.at("q2").ok());
  range::ContextServer* shard2 = f.sci.shards("mall")[2];
  ASSERT_NE(shard2->views(), nullptr);
  EXPECT_GE(node_count(*shard2, "view.hits"), 1u);
  f.sci.run_for(Duration::seconds(2));  // replication batches ship

  const auto standbys = f.sci.standbys("mall#2");
  ASSERT_FALSE(standbys.empty());
  EXPECT_GE(standbys[0]->views()->size(), 1u);

  // Kill the shard primary; the standbys elect a successor.
  ASSERT_TRUE(
      f.sci.network().set_crashed(shard2->server_node(), true).is_ok());
  f.sci.run_for(Duration::seconds(4));
  range::ContextServer* fresh = f.sci.find_range("mall#2");
  ASSERT_NE(fresh, nullptr);
  ASSERT_NE(fresh, shard2);
  EXPECT_TRUE(fresh->promoted_by_election());
  ASSERT_NE(fresh->views(), nullptr);
  EXPECT_GE(fresh->views()->size(), 1u);  // warm from replay/snapshot

  // And the inherited view actually answers: the re-query is a hit.
  const std::uint64_t hits_before = node_count(*fresh, "view.hits");
  ask("q3");
  ASSERT_TRUE(monitor.results.count("q3"));
  EXPECT_TRUE(monitor.results.at("q3").ok());
  EXPECT_GT(node_count(*fresh, "view.hits"), hits_before);
}

// A trigger watch forwarded to its owner shard is logged there as a kQuery
// record; its channel ack must wait for that record to commit, as a
// submit's does. Otherwise an owner that acks and dies before its standbys
// apply the record loses the watch: the sender never retransmits and the
// app never hears back.
TEST(ShardTest, ForwardedQueryAckWaitsForItsRecordToCommit) {
  ShardFixture f(2, /*standby_count=*/2);
  PulseCE pulse(f.sci.network(), f.guid_owned_by(1), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.lead).is_ok());
  ShardMonitor monitor(f.sci.network(), f.guid_owned_by(0), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.lead).is_ok());
  f.sci.run_for(Duration::seconds(2));

  // Cut the owner shard off from its standbys so nothing it logs commits.
  range::ContextServer* owner = f.sci.shards("mall")[1];
  const auto standbys = f.sci.standbys("mall#1");
  ASSERT_EQ(standbys.size(), 2u);
  for (const range::ContextServer* standby : standbys) {
    f.sci.network().set_partition_group(standby->attached_node(), 1);
  }
  ASSERT_TRUE(f.sci.submit_query(
                      monitor, query::Builder("watch", monitor.id())
                                   .what_named(pulse.id())
                                   .when_enters(pulse.id(),
                                                f.building.room_path(0, 1))
                                   .expires_after(3.0)
                                   .profile())
                  .has_value());
  f.sci.run_for(Duration::millis(100));
  ASSERT_EQ(owner->deferred_queries(), 1u);

  // The owner dies with the watch uncommitted; its standbys elect a
  // successor, which must end up holding the watch.
  ASSERT_TRUE(f.sci.network().set_crashed(owner->server_node(), true).is_ok());
  for (const range::ContextServer* standby : standbys) {
    f.sci.network().set_partition_group(standby->attached_node(), 0);
  }
  f.sci.run_for(Duration::seconds(4));
  range::ContextServer* fresh = f.sci.find_range("mall#1");
  ASSERT_NE(fresh, nullptr);
  ASSERT_NE(fresh, owner);
  EXPECT_EQ(fresh->deferred_queries(), 1u);

  // The watch expires there, and the app hears about it.
  f.sci.run_for(Duration::seconds(6));
  ASSERT_TRUE(monitor.results.contains("watch"));
  EXPECT_EQ(monitor.results.at("watch").code(), ErrorCode::kTimeout);
}

// Every shard's log owns its own repl.lag slot: a shard whose standby is
// cut off shows its lag there however busy a sibling keeps the others.
TEST(ShardTest, ReplicationLagGaugeIsPerShard) {
  ShardFixture f(2, /*standby_count=*/1);
  PulseCE quiet(f.sci.network(), f.guid_owned_by(1), "quiet",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(quiet, *f.lead).is_ok());
  PulseCE busy(f.sci.network(), f.guid_owned_by(0), "busy",
               entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(busy, *f.lead).is_ok());
  f.sci.run_for(Duration::seconds(2));

  const auto shards = f.sci.shards("mall");
  const auto standbys = f.sci.standbys("mall#1");
  ASSERT_EQ(standbys.size(), 1u);
  f.sci.network().set_partition_group(standbys[0]->attached_node(), 1);
  // Shard 1 logs a few records its standby never applies; shard 0 keeps
  // appending (and replicating) after them. Both stay inside one lease term.
  for (int i = 0; i < 3; ++i) {
    quiet.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(50));
  }
  for (int i = 0; i < 5; ++i) {
    busy.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(50));
  }

  const obs::MetricsSnapshot snap = f.sci.metrics().snapshot();
  ASSERT_GT(shards[1]->replication_lag(), 0u);
  EXPECT_EQ(snap.gauge("repl.lag", shards[1]->metrics_label()),
            static_cast<double>(shards[1]->replication_lag()));
  EXPECT_EQ(snap.gauge("repl.lag", shards[0]->metrics_label()),
            static_cast<double>(shards[0]->replication_lag()));
}

// --- elastic resharding (ISSUE: crash-safe vnode handoff) -------------------

// The versioned ownership table under the fixed ring: reassigning a vnode
// re-routes exactly the guids hashing into it, epochs order map versions,
// and an identically-built map replays to the same ownership.
TEST(ShardTest, VnodeReassignmentBumpsEpochAndRemapsOwnership) {
  Rng rng{11};
  range::ShardMap map(4);
  EXPECT_EQ(map.epoch(), 0u);
  ASSERT_EQ(map.vnode_count(), 4u * range::ShardMap::kVnodesPerShard);

  const Guid g = Guid::random(rng);
  const unsigned vnode = map.vnode_of(g);
  const unsigned before = map.owner_of(g);
  EXPECT_EQ(map.owner_of_vnode(vnode), before);

  const unsigned target = (before + 1) % 4;
  map.assign(vnode, target);
  map.set_epoch(map.epoch() + 1);
  EXPECT_EQ(map.epoch(), 1u);
  EXPECT_EQ(map.vnode_of(g), vnode);  // the ring itself never moves
  EXPECT_EQ(map.owner_of(g), target);

  // Only the reassigned vnode changed hands.
  const range::ShardMap pristine(4);
  for (int i = 0; i < 500; ++i) {
    const Guid other = Guid::random(rng);
    if (map.vnode_of(other) == vnode) {
      EXPECT_EQ(map.owner_of(other), target);
    } else {
      EXPECT_EQ(map.owner_of(other), pristine.owner_of(other));
    }
  }
  // A twin replaying the same assignment converges exactly.
  range::ShardMap twin(4);
  twin.assign(vnode, target);
  twin.set_epoch(1);
  Rng rng2{12};
  for (int i = 0; i < 200; ++i) {
    const Guid other = Guid::random(rng2);
    EXPECT_EQ(map.owner_of(other), twin.owner_of(other));
  }
}

// Tentpole end-to-end: a vnode migrates between live shards mid-stream.
// The freeze window stages concurrent publishes, the commit re-points the
// producer via kRedirect, and the subscriber sees every event exactly once.
TEST(ShardTest, LiveHandoffMovesVnodeExactlyOnce) {
  ShardFixture f(2);
  PulseCE pulse(f.sci.network(), f.guid_owned_by(0), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.lead).is_ok());
  ShardMonitor monitor(f.sci.network(), f.guid_owned_by(1), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.lead).is_ok());
  ASSERT_TRUE(monitor
                  .submit_query("sub",
                                query::Builder("sub", monitor.id())
                                    .what_named(pulse.id())
                                    .mode(query::QueryMode::kEventSubscription)
                                    .to_xml())
                  .is_ok());
  f.sci.run_for(Duration::millis(500));

  const auto shards = f.sci.shards("mall");
  const unsigned vnode = f.lead->shard_map().vnode_of(pulse.id());
  const std::uint64_t epoch_before = f.lead->map_epoch();

  // Publish across the whole migration: before, during the freeze, after.
  std::int64_t published = 0;
  sim::PeriodicTimer publisher(f.sci.simulator(), Duration::millis(20), [&] {
    pulse.publish("pulse", Value(published));
    ++published;
  });
  publisher.start();
  f.sci.run_for(Duration::millis(300));
  ASSERT_TRUE(f.lead->begin_handoff(vnode, 1));
  f.sci.run_for(Duration::seconds(2));
  publisher.stop();
  f.sci.run_for(Duration::seconds(2));

  // Ownership converged on the bumped epoch everywhere.
  EXPECT_EQ(f.lead->map_epoch(), epoch_before + 1);
  EXPECT_EQ(shards[1]->map_epoch(), epoch_before + 1);
  EXPECT_EQ(f.lead->shard_map().owner_of_vnode(vnode), 1u);
  EXPECT_EQ(f.lead->shard_of(pulse.id()), 1u);
  EXPECT_EQ(node_count(*f.lead, "reshard.handoffs"), 1u);
  EXPECT_FALSE(f.lead->handoff_active());

  // Membership moved with the vnode; the producer followed its redirect.
  EXPECT_EQ(f.lead->registrar().find(pulse.id()), nullptr);
  ASSERT_NE(shards[1]->registrar().find(pulse.id()), nullptr);
  EXPECT_EQ(pulse.registration().context_server, shards[1]->server_node());
  EXPECT_GE(pulse.stats().redirects_followed, 1u);

  // Zero delivery gap, zero duplicates across the move.
  EXPECT_GT(published, 0);
  EXPECT_EQ(monitor.unique_events, published);
  EXPECT_EQ(monitor.duplicate_events, 0);

  const auto snapshot = f.sci.metrics().snapshot();
  EXPECT_GE(snapshot.counter("reshard.handoffs"), 1u);
}

// Load accounting drives placement: a publish burst makes the producer's
// vnode the hottest on its shard, the EWMA gauge reports a positive rate,
// and the facade's load-aware rebalance moves that vnode to the cold shard.
TEST(ShardTest, PublishRateEwmaDrivesLoadAwareRebalance) {
  ShardFixture f(2);
  PulseCE pulse(f.sci.network(), f.guid_owned_by(0), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.lead).is_ok());
  f.sci.run_for(Duration::millis(300));

  sim::PeriodicTimer publisher(f.sci.simulator(), Duration::millis(10), [&] {
    static std::int64_t i = 0;
    pulse.publish("pulse", Value(i++));
  });
  publisher.start();
  f.sci.run_for(Duration::seconds(3));  // several EWMA windows

  EXPECT_GT(f.lead->publish_rate(), 0.0);
  const auto hot = f.lead->hot_vnodes(1);
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_EQ(hot.front(), f.lead->shard_map().vnode_of(pulse.id()));
  const auto warm = f.sci.metrics().snapshot();
  EXPECT_GT(warm.gauge("cs.shard.publish_rate", "shard=0"), 0.0);

  // The planner picks the hot shard's hottest vnode and lands it cold-side.
  const unsigned vnode = hot.front();
  const auto moved = f.sci.rebalance_range("mall");
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(*moved, 1u);
  publisher.stop();
  f.sci.run_for(Duration::seconds(1));
  EXPECT_EQ(f.lead->shard_map().owner_of_vnode(vnode), 1u);
  EXPECT_EQ(f.sci.shards("mall")[1]->shard_of(pulse.id()), 1u);

  // Monolithic ranges have nothing to rebalance.
  auto* flat = f.sci.create_range("flat", f.building.floor_path(1)).value();
  ASSERT_NE(flat, nullptr);
  EXPECT_EQ(f.sci.rebalance_range("flat").error().code(),
            ErrorCode::kUnavailable);
  EXPECT_EQ(f.sci.rebalance_range("nope").error().code(),
            ErrorCode::kNotFound);
}

// Satellite: a profile burst travels to sibling shards as coalesced
// kShardBatch frames instead of one frame per record.
TEST(ShardTest, MirrorBurstsShipAsBatches) {
  ShardFixture f(2);
  PulseCE pulse(f.sci.network(), f.guid_owned_by(1), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.lead).is_ok());
  f.sci.run_for(Duration::millis(300));

  range::ContextServer* owner = f.sci.shards("mall")[1];
  const std::uint64_t batches_before =
      node_count(*owner, "cs.shard.mirror_batches");
  // Same-tick burst: all mirrors buffer and flush as one batched frame.
  for (int i = 0; i < 8; ++i) {
    pulse.set_metadata(Value(static_cast<std::int64_t>(i)));
  }
  f.sci.run_for(Duration::millis(500));

  EXPECT_GT(node_count(*owner, "cs.shard.mirror_batches"), batches_before);
  // The lead still saw every profile version — batching reorders nothing.
  EXPECT_NE(f.lead->profiles().profile(pulse.id()), nullptr);
  const auto snapshot = f.sci.metrics().snapshot();
  EXPECT_GE(snapshot.counter("cs.shard.mirror_batches"), 1u);
}

// Crash the source primary before the commit point (while shipping state).
// The handoff record state is pre-commit, so whoever recovers the shard
// aborts deterministically: ownership is unchanged and delivery resumes
// exactly-once through the elected successor.
TEST(ShardTest, SourceCrashBeforeCommitAbortsAfterElection) {
  ShardFixture f(2, /*standby_count=*/2);
  PulseCE pulse(f.sci.network(), f.guid_owned_by(0), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.lead).is_ok());
  ShardMonitor monitor(f.sci.network(), f.guid_owned_by(1), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.lead).is_ok());
  ASSERT_TRUE(monitor
                  .submit_query("sub",
                                query::Builder("sub", monitor.id())
                                    .what_named(pulse.id())
                                    .mode(query::QueryMode::kEventSubscription)
                                    .to_xml())
                  .is_ok());
  f.sci.run_for(Duration::seconds(2));

  const unsigned vnode = f.lead->shard_map().vnode_of(pulse.id());
  const std::uint64_t epoch_before = f.lead->map_epoch();

  sim::FaultPlan plan;
  plan.handoff_crash(Duration::millis(0), "mall", "ship");
  f.sci.inject_faults(plan);
  f.sci.run_for(Duration::millis(1));  // probes arm on the event wheel
  range::ContextServer* doomed = f.lead;
  ASSERT_TRUE(doomed->begin_handoff(vnode, 1));  // strikes at "ship"
  ASSERT_TRUE(f.sci.network().is_crashed(doomed->server_node()));
  f.sci.run_for(Duration::seconds(4));  // election + resolution

  range::ContextServer* fresh = f.sci.find_range("mall");
  ASSERT_NE(fresh, nullptr);
  ASSERT_NE(fresh, doomed);
  EXPECT_TRUE(fresh->promoted_by_election());
  // Pre-commit crash ⇒ rollback everywhere: the map never moved.
  EXPECT_EQ(fresh->map_epoch(), epoch_before);
  EXPECT_EQ(fresh->shard_map().owner_of_vnode(vnode), 0u);
  EXPECT_FALSE(fresh->handoff_active());
  // The target must not stay wedged: a later migration still succeeds.
  f.sci.run_for(Duration::seconds(12));  // let any staged incoming expire
  ASSERT_TRUE(fresh->begin_handoff(vnode, 1));
  f.sci.run_for(Duration::seconds(2));
  EXPECT_EQ(fresh->shard_map().owner_of_vnode(vnode), 1u);
  EXPECT_EQ(fresh->map_epoch(), epoch_before + 1);

  for (int i = 0; i < 10; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(2));
  EXPECT_EQ(monitor.unique_events, 10);
  EXPECT_EQ(monitor.duplicate_events, 0);
}

// Crash the source at the broadcast step — after logging the commit record
// locally, before any sibling heard. Whether the successor saw the commit
// (completes) or not (aborts), every shard converges on one consistent
// ownership answer and delivery stays exactly-once. ISSUE acceptance:
// "aborts cleanly OR completes after election".
TEST(ShardTest, SourceCrashAtBroadcastConvergesEitherWay) {
  ShardFixture f(2, /*standby_count=*/2);
  PulseCE pulse(f.sci.network(), f.guid_owned_by(0), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.lead).is_ok());
  ShardMonitor monitor(f.sci.network(), f.guid_owned_by(1), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.lead).is_ok());
  ASSERT_TRUE(monitor
                  .submit_query("sub",
                                query::Builder("sub", monitor.id())
                                    .what_named(pulse.id())
                                    .mode(query::QueryMode::kEventSubscription)
                                    .to_xml())
                  .is_ok());
  f.sci.run_for(Duration::seconds(2));

  const unsigned vnode = f.lead->shard_map().vnode_of(pulse.id());
  const std::uint64_t epoch_before = f.lead->map_epoch();

  sim::FaultPlan plan;
  plan.handoff_crash(Duration::millis(0), "mall", "broadcast");
  f.sci.inject_faults(plan);
  f.sci.run_for(Duration::millis(1));  // probes arm on the event wheel
  range::ContextServer* doomed = f.lead;
  ASSERT_TRUE(doomed->begin_handoff(vnode, 1));
  f.sci.run_for(Duration::seconds(6));  // election + resolution + expiry

  range::ContextServer* fresh = f.sci.find_range("mall");
  ASSERT_NE(fresh, nullptr);
  ASSERT_NE(fresh, doomed);
  EXPECT_TRUE(fresh->promoted_by_election());
  range::ContextServer* sibling = f.sci.find_range("mall#1");
  ASSERT_NE(sibling, nullptr);

  // Converged: both shards agree on epoch and owner, no handoff left open.
  EXPECT_FALSE(fresh->handoff_active());
  EXPECT_EQ(fresh->map_epoch(), sibling->map_epoch());
  EXPECT_EQ(fresh->shard_map().owner_of_vnode(vnode),
            sibling->shard_map().owner_of_vnode(vnode));
  const unsigned owner_now = fresh->shard_map().owner_of_vnode(vnode);
  if (fresh->map_epoch() == epoch_before) {
    EXPECT_EQ(owner_now, 0u);  // aborted cleanly
  } else {
    EXPECT_EQ(fresh->map_epoch(), epoch_before + 1);
    EXPECT_EQ(owner_now, 1u);  // completed from recovered commit
  }
  // The surviving owner serves the producer exactly-once either way.
  f.sci.run_for(Duration::seconds(10));  // ride out watchdog expiries
  for (int i = 0; i < 10; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(2));
  EXPECT_EQ(monitor.unique_events, 10);
  EXPECT_EQ(monitor.duplicate_events, 0);
}

// A dead target never acknowledges the state slice: the source's handoff
// watchdog rolls the move back, replays its staged ops locally, and the
// vnode keeps serving from the old owner with nothing lost.
TEST(ShardTest, SilentTargetAbortsHandoffAndReplaysStagedOps) {
  ShardFixture f(2);
  PulseCE pulse(f.sci.network(), f.guid_owned_by(0), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.lead).is_ok());
  ShardMonitor monitor(f.sci.network(), f.guid_owned_by(0), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.lead).is_ok());
  ASSERT_TRUE(monitor
                  .submit_query("sub",
                                query::Builder("sub", monitor.id())
                                    .what_named(pulse.id())
                                    .mode(query::QueryMode::kEventSubscription)
                                    .to_xml())
                  .is_ok());
  f.sci.run_for(Duration::seconds(2));

  const unsigned vnode = f.lead->shard_map().vnode_of(pulse.id());
  const std::uint64_t epoch_before = f.lead->map_epoch();

  // Partition the target away so the whole freeze/ship exchange vanishes
  // into the void and the source's watchdog is the only way out.
  range::ContextServer* target = f.sci.shards("mall")[1];
  f.sci.network().set_partition_group(target->server_node(), 1);
  ASSERT_TRUE(f.lead->begin_handoff(vnode, 1));
  EXPECT_TRUE(f.lead->handoff_active());

  // Publishes during the freeze park in the staging queue...
  for (int i = 0; i < 5; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  EXPECT_GT(node_count(*f.lead, "reshard.staged_events"), 0u);
  EXPECT_EQ(monitor.unique_events, 0);  // frozen: nothing delivered yet

  // ...until the 5s watchdog aborts and reingests them in arrival order.
  f.sci.run_for(Duration::seconds(6));
  EXPECT_FALSE(f.lead->handoff_active());
  EXPECT_GE(node_count(*f.lead, "reshard.aborts"), 1u);
  EXPECT_EQ(f.lead->map_epoch(), epoch_before);
  EXPECT_EQ(f.lead->shard_map().owner_of_vnode(vnode), 0u);
  EXPECT_EQ(monitor.unique_events, 5);
  EXPECT_EQ(monitor.duplicate_events, 0);

  const auto snapshot = f.sci.metrics().snapshot();
  EXPECT_GE(snapshot.counter("reshard.aborts"), 1u);
  EXPECT_GE(snapshot.counter("reshard.staged_events"), 1u);

  // Heal the partition: the range keeps working end to end.
  f.sci.network().set_partition_group(target->server_node(), 0);
  for (int i = 5; i < 10; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(1));
  EXPECT_EQ(monitor.unique_events, 10);
  EXPECT_EQ(monitor.duplicate_events, 0);
}

// --- derived sibling mirrors (docs/SHARDING.md, "Mirrors are derived state")

// Delivers `payload` as a raw `type` frame from node `from` to node `to`.
void send_raw(ShardFixture& f, Guid from, Guid to, std::uint32_t type,
              serde::BufferRef payload) {
  net::Message message;
  message.type = type;
  message.from = from;
  message.to = to;
  message.payload = std::move(payload);
  ASSERT_TRUE(f.sci.network().send(std::move(message)).is_ok());
}

// Delivers a raw kShardProfile frame carrying `profile` from shard `from`'s
// node to shard `to`.
void send_raw_mirror(ShardFixture& f, unsigned from, unsigned to,
                     const entity::Profile& profile) {
  const auto shards = f.sci.shards("mall");
  serde::Writer w;
  entity::ProfileRecord{profile, std::nullopt}.encode(w);
  send_raw(f, shards[from]->server_node(), shards[to]->server_node(),
           range::kShardProfile, w.take_ref());
}

std::string profile_tag(const range::ContextServer& server, Guid entity) {
  const entity::Profile* p = server.profiles().profile(entity);
  return p == nullptr ? "<none>" : p->metadata.string_or("");
}

// The channel orders each sender's frames, but a vnode's old and new owners
// are different senders: an older mirror landing after a newer one must not
// roll the profile back, and a mirror of an entity this shard owns (say, a
// late one from a vnode's previous owner) must not overwrite the owned
// profile.
TEST(ShardTest, MirrorIngestNeverGoesBackwards) {
  ShardFixture f(2);
  PulseCE remote(f.sci.network(), f.guid_owned_by(1), "remote",
                 entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(remote, *f.lead).is_ok());
  PulseCE local(f.sci.network(), f.guid_owned_by(0), "local",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(local, *f.lead).is_ok());
  f.sci.run_for(Duration::millis(300));
  const entity::Profile* mirrored = f.lead->profiles().profile(remote.id());
  ASSERT_NE(mirrored, nullptr);
  const entity::Profile* owned = f.lead->profiles().profile(local.id());
  ASSERT_NE(owned, nullptr);
  const std::uint64_t owned_version = owned->version;

  entity::Profile v2 = *mirrored;
  v2.version += 2;
  v2.metadata = Value("v2");
  entity::Profile v1 = *mirrored;
  v1.version += 1;
  v1.metadata = Value("v1");
  entity::Profile impostor = *owned;
  impostor.version += 10;
  impostor.metadata = Value("impostor");
  send_raw_mirror(f, 1, 0, v2);
  f.sci.run_for(Duration::millis(50));
  send_raw_mirror(f, 1, 0, v1);
  send_raw_mirror(f, 1, 0, impostor);
  f.sci.run_for(Duration::millis(50));

  EXPECT_EQ(profile_tag(*f.lead, remote.id()), "v2");
  EXPECT_EQ(f.lead->profiles().profile(remote.id())->version, v2.version);
  EXPECT_NE(profile_tag(*f.lead, local.id()), "impostor");
  EXPECT_EQ(f.lead->profiles().profile(local.id())->version, owned_version);
}

// A sibling's mirror put loses its first transmission and is overtaken by
// the entity's drop, sent later in a frame of its own. The channel hands
// the two over in send order, so the drop lands last and no sibling keeps
// the departed entity.
TEST(ShardTest, MirrorPutOvertakenByItsDropLeavesNoGhost) {
  ShardFixture f(2);
  PulseCE remote(f.sci.network(), f.guid_owned_by(1), "remote",
                 entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(remote, *f.lead).is_ok());
  f.sci.run_for(Duration::millis(300));
  ASSERT_NE(f.lead->profiles().profile(remote.id()), nullptr);

  // The lead (shard 0) is cut off for 3 ms: the mirror of this profile
  // update (flushed within 1 ms of its arrival at shard 1) is lost and
  // retransmits 200 ms later.
  sim::FaultPlan plan;
  plan.partition(Duration::micros(0), "mall", 1).heal(Duration::millis(3));
  f.sci.inject_faults(plan);
  remote.set_metadata(Value("last words"));
  f.sci.run_for(Duration::millis(5));
  remote.stop();
  f.sci.run_for(Duration::seconds(2));

  for (const range::ContextServer* shard : f.sci.shards("mall")) {
    EXPECT_EQ(shard->registrar().find(remote.id()), nullptr);
    EXPECT_EQ(shard->profiles().profile(remote.id()), nullptr);
  }
}

// The subscription twin: a wildcard mirror's install loses its first
// transmission and is overtaken by its teardown. Released in send order,
// the teardown lands last, and the departed mirror delivers nothing.
TEST(ShardTest, WildcardMirrorOvertakenByItsTeardownStopsDelivering) {
  ShardFixture f(2);
  const auto shards = f.sci.shards("mall");
  PulseCE local(f.sci.network(), f.guid_owned_by(0), "local",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(local, *f.lead).is_ok());
  ShardMonitor monitor(f.sci.network(), f.guid_owned_by(1), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.lead).is_ok());
  f.sci.run_for(Duration::millis(500));

  // The lead (shard 0) is cut off while shard 1 flushes the mirror.
  sim::FaultPlan plan;
  plan.partition(Duration::micros(0), "mall", 1).heal(Duration::millis(3));
  f.sci.inject_faults(plan);
  const event::SubscriptionId sub =
      shards[1]->subscribe_pattern(monitor.id(), "pulse");
  f.sci.run_for(Duration::millis(5));
  ASSERT_TRUE(shards[1]->unsubscribe(sub).is_ok());
  f.sci.run_for(Duration::seconds(2));

  EXPECT_TRUE(shards[0]->mediator().table().all().empty());
  local.publish("pulse", Value(static_cast<std::int64_t>(1)));
  f.sci.run_for(Duration::seconds(1));
  EXPECT_EQ(monitor.unique_events, 0);
}

// Subscriber leases (docs/ROBUSTNESS.md): components renew every 5 s, so
// a 6 s ttl keeps every renewing subscriber while a silent one lapses
// within a run.
void short_lease(RangeOptions& options) {
  options.reliability.lease_ttl = Duration::seconds(6);
}

// Each shard's rows of `subscriber`, lead first.
std::vector<std::size_t> rows_of(Sci& sci, Guid subscriber) {
  std::vector<std::size_t> rows;
  for (const range::ContextServer* shard : sci.shards("mall")) {
    rows.push_back(shard->mediator().table().ids_for_subscriber(subscriber)
                       .size());
  }
  return rows;
}

// A wildcard installed through the lead for a subscriber homed on shard 1:
// the lease lives where the subscriber renews, so the lead's row outlives
// the ttl and every shard's producers keep delivering exactly once, across
// a promotion of the home shard too. Unsubscribing then removes every copy.
TEST(ShardTest, WildcardThroughTheLeadIsLeasedAtTheSubscribersHome) {
  ShardFixture f(2, /*standby_count=*/1, short_lease);
  PulseCE local(f.sci.network(), f.guid_owned_by(0), "local",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(local, *f.lead).is_ok());
  PulseCE remote(f.sci.network(), f.guid_owned_by(1), "remote",
                 entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(remote, *f.lead).is_ok());
  ShardMonitor monitor(f.sci.network(), f.guid_owned_by(1), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.lead).is_ok());
  const event::SubscriptionId sub =
      f.lead->subscribe_pattern(monitor.id(), "pulse");
  f.sci.run_for(Duration::seconds(20));
  auto shards = f.sci.shards("mall");
  EXPECT_FALSE(shards[0]->mediator().leases().contains(monitor.id()));
  EXPECT_TRUE(shards[1]->mediator().leases().contains(monitor.id()));
  const auto publish_both = [&](int n) {
    for (int i = 0; i < n; ++i) {
      local.publish("pulse", Value(static_cast<std::int64_t>(i)));
      remote.publish("pulse", Value(static_cast<std::int64_t>(i)));
      f.sci.run_for(Duration::millis(100));
    }
    f.sci.run_for(Duration::seconds(1));
  };
  publish_both(5);
  EXPECT_EQ(monitor.unique_events, 10);
  EXPECT_EQ(monitor.duplicate_events, 0);

  // The home standby takes over and starts the lease on a fresh term,
  // which the monitor's renewals keep.
  ASSERT_TRUE(f.sci.promote_range("mall#1").is_ok());
  f.sci.run_for(Duration::seconds(10));
  shards = f.sci.shards("mall");
  EXPECT_TRUE(shards[1]->mediator().leases().contains(monitor.id()));
  publish_both(5);
  EXPECT_EQ(monitor.unique_events, 20);
  EXPECT_EQ(monitor.duplicate_events, 0);

  ASSERT_TRUE(f.lead->unsubscribe(sub).is_ok());
  f.sci.run_for(Duration::seconds(1));
  EXPECT_EQ(rows_of(f.sci, monitor.id()), (std::vector<std::size_t>{0, 0}));
  publish_both(2);
  EXPECT_EQ(monitor.unique_events, 20);
}

// A subscriber that departs takes every row it holds with it, including
// the row a sibling minted for it: the departure's kShardProfileRemove
// reaches every shard.
TEST(ShardTest, DepartedSubscriberLeavesNoRowOnAnyShard) {
  ShardFixture f(2);
  ShardMonitor monitor(f.sci.network(), f.guid_owned_by(1), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.lead).is_ok());
  (void)f.lead->subscribe_pattern(monitor.id(), "pulse");
  f.sci.run_for(Duration::seconds(1));
  ASSERT_EQ(rows_of(f.sci, monitor.id()), (std::vector<std::size_t>{1, 1}));

  monitor.stop();
  f.sci.run_for(Duration::seconds(1));
  EXPECT_EQ(rows_of(f.sci, monitor.id()), (std::vector<std::size_t>{0, 0}));
}

// Relays every pulse as a beat: the intermediate CE of a pulse -> beat
// composition.
class RelayCE final : public entity::ContextEntity {
 public:
  using ContextEntity::ContextEntity;

 protected:
  [[nodiscard]] std::vector<entity::TypeSig> profile_inputs() const override {
    return {{"pulse", "", "pulse"}};
  }
  [[nodiscard]] std::vector<entity::TypeSig> profile_outputs() const override {
    return {{"beat", "", "beat"}};
  }
  void on_event(const event::Event& event, std::uint64_t) override {
    if (event.type == "pulse") publish("beat", event.payload);
  }
};

// A composition whose intermediate CE lives on another shard: the edge
// feeding it stays on the configuration's shard, which does not hold the
// CE's lease, so the edge outlives the ttl and the app keeps hearing.
TEST(ShardTest, CompositionThroughASiblingsCeOutlivesTheLeaseTtl) {
  ShardFixture f(2, /*standby_count=*/0, short_lease);
  PulseCE pulse(f.sci.network(), f.guid_owned_by(0), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.lead).is_ok());
  RelayCE relay(f.sci.network(), f.guid_owned_by(1), "relay",
                entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(relay, *f.lead).is_ok());
  ShardMonitor app(f.sci.network(), f.guid_owned_by(0), "app",
                   entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(app, *f.lead).is_ok());
  f.sci.run_for(Duration::millis(500));
  ASSERT_TRUE(bool(f.sci.submit_query(
      app,
      query::Builder("beats", app.id()).what_pattern("beat").subscribe())));
  f.sci.run_for(Duration::seconds(1));
  ASSERT_TRUE(app.results.contains("beats"));
  ASSERT_TRUE(app.results["beats"].ok()) << app.results["beats"].message();
  ASSERT_EQ(app.result_values["beats"].at("entities"),
            Value(static_cast<std::int64_t>(2)));

  const auto publish = [&](int n) {
    for (int i = 0; i < n; ++i) {
      pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
      f.sci.run_for(Duration::millis(100));
    }
    f.sci.run_for(Duration::seconds(1));
  };
  publish(3);
  EXPECT_EQ(app.unique_events, 3);
  f.sci.run_for(Duration::seconds(20));
  publish(3);
  EXPECT_EQ(app.unique_events, 6);
}

// A lease moves with its subscriber's vnode: the new owner renews it, so
// the subscriptions survive past the ttl, and once the subscriber falls
// silent that shard reaps it range-wide one ttl later. Pings are slowed
// down so the failure detector cannot evict the subscriber first.
TEST(ShardTest, LeaseMovesWithItsSubscribersVnode) {
  ShardFixture f(2, /*standby_count=*/0, [](RangeOptions& options) {
    short_lease(options);
    options.liveness.ping_period = Duration::seconds(60);
  });
  PulseCE local(f.sci.network(), f.guid_owned_by(0), "local",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(local, *f.lead).is_ok());
  PulseCE remote(f.sci.network(), f.guid_owned_by(1), "remote",
                 entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(remote, *f.lead).is_ok());
  ShardMonitor monitor(f.sci.network(), f.guid_owned_by(0), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.lead).is_ok());
  (void)f.lead->subscribe_pattern(monitor.id(), "pulse");
  f.sci.run_for(Duration::seconds(1));

  const auto shards = f.sci.shards("mall");
  ASSERT_TRUE(f.lead->begin_handoff(
      f.lead->shard_map().vnode_of(monitor.id()), 1));
  f.sci.run_for(Duration::seconds(2));
  ASSERT_EQ(f.lead->shard_of(monitor.id()), 1u);
  EXPECT_EQ(monitor.registration().context_server, shards[1]->server_node());
  EXPECT_FALSE(shards[0]->mediator().leases().contains(monitor.id()));
  EXPECT_TRUE(shards[1]->mediator().leases().contains(monitor.id()));

  f.sci.run_for(Duration::seconds(20));
  for (int i = 0; i < 5; ++i) {
    local.publish("pulse", Value(static_cast<std::int64_t>(i)));
    remote.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(1));
  EXPECT_EQ(monitor.unique_events, 10);
  EXPECT_EQ(rows_of(f.sci, monitor.id()), (std::vector<std::size_t>{1, 1}));

  // Silent from now on: the last renewal was at most 5 s ago.
  ASSERT_TRUE(f.sci.network().set_crashed(monitor.id(), true).is_ok());
  f.sci.run_for(Duration::seconds(1));
  EXPECT_EQ(rows_of(f.sci, monitor.id()), (std::vector<std::size_t>{1, 1}));
  // Lapsed by 6 s after the crash, reaped by the next 5 s reaper tick.
  f.sci.run_for(Duration::seconds(11));
  EXPECT_EQ(rows_of(f.sci, monitor.id()), (std::vector<std::size_t>{0, 0}));
  EXPECT_EQ(f.sci.metrics().snapshot().counter("em.leases.expired"), 1u);
  EXPECT_NE(shards[1]->registrar().find(monitor.id()), nullptr);
}

template <typename T>
std::vector<std::byte> encoded(const T& value) {
  serde::Writer w;
  value.encode(w);
  return w.view().to_vector();
}

// One vnode's state on a shard, record by record: its members with their
// profiles, stored events and publish dedup windows, the rows keyed by its
// producers, and the leases of its subscribers.
struct VnodeState {
  std::map<Guid, std::vector<std::byte>> members;
  std::map<Guid, std::vector<std::byte>> profiles;
  std::vector<std::vector<std::byte>> events;
  std::map<Guid, std::vector<std::byte>> dedup;
  std::map<event::SubscriptionId, std::vector<std::byte>> rows;
  std::map<Guid, SimTime> leases;
  bool operator==(const VnodeState&) const = default;
};

VnodeState vnode_state(const range::ContextServer& server, unsigned vnode) {
  const range::ShardMap& map = server.shard_map();
  VnodeState out;
  for (const Guid id : server.registrar().members()) {
    if (map.vnode_of(id) != vnode) continue;
    out.members[id] = encoded(*server.registrar().find(id));
    if (const entity::ProfileRecord* profile = server.profiles().record(id)) {
      out.profiles[id] = encoded(*profile);
    }
    const range::ContextStore& store = server.context_store();
    for (const std::string& type : store.types_for(id)) {
      for (const event::Event& e : store.history(id, type, 1000)) {
        out.events.push_back(encoded(e));
      }
    }
    if (const auto it = server.publish_windows().find(id);
        it != server.publish_windows().end()) {
      out.dedup[id] = encoded(it->second);
    }
  }
  for (const event::Subscription& s : server.mediator().table().all()) {
    if (s.producer && map.vnode_of(*s.producer) == vnode) {
      out.rows[s.id] = encoded(s);
    }
  }
  for (const auto& [subscriber, expires_at] : server.mediator().leases()) {
    if (map.vnode_of(subscriber) == vnode) out.leases[subscriber] = expires_at;
  }
  return out;
}

// A live handoff installs at the target exactly the vnode's state the
// source held when it froze, leases with their expiries included, and the
// source keeps none of it.
TEST(ShardTest, HandoffInstallsTheVnodeStateTheSourceHeldAtTheFreeze) {
  ShardFixture f(2, /*standby_count=*/0, [](RangeOptions& options) {
    short_lease(options);
    options.liveness.ping_period = Duration::seconds(60);
  });
  PulseCE pulse(f.sci.network(), f.guid_owned_by(0), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.lead).is_ok());
  const unsigned vnode = f.lead->shard_map().vnode_of(pulse.id());
  Guid neighbour;
  while (neighbour.is_nil() ||
         f.lead->shard_map().vnode_of(neighbour) != vnode) {
    neighbour = f.sci.new_guid();
  }
  // Subscribes to a producer on shard 1, so its row lives there and only
  // its lease moves with the vnode.
  ShardMonitor monitor(f.sci.network(), neighbour, "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.lead).is_ok());
  PulseCE remote(f.sci.network(), f.guid_owned_by(1), "remote",
                 entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(remote, *f.lead).is_ok());
  ShardMonitor watcher(f.sci.network(), f.guid_owned_by(1), "watcher",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(watcher, *f.lead).is_ok());
  f.sci.run_for(Duration::millis(500));
  ASSERT_TRUE(bool(f.sci.submit_query(
      watcher,
      query::Builder("sub", watcher.id()).what_named(pulse.id()).subscribe())));
  ASSERT_TRUE(bool(f.sci.submit_query(
      monitor, query::Builder("sub", monitor.id())
                   .what_named(remote.id())
                   .subscribe())));
  f.sci.run_for(Duration::seconds(1));
  for (int i = 0; i < 5; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(1));
  ASSERT_EQ(watcher.unique_events, 5);

  VnodeState at_freeze;
  f.lead->set_handoff_probe([&](const char* step) {
    if (std::string(step) == "freeze") at_freeze = vnode_state(*f.lead, vnode);
  });
  ASSERT_TRUE(f.lead->begin_handoff(vnode, 1));
  f.sci.run_for(Duration::millis(200));
  const auto shards = f.sci.shards("mall");
  ASSERT_EQ(shards[1]->shard_map().owner_of_vnode(vnode), 1u);

  EXPECT_EQ(at_freeze.members.size(), 2u);
  EXPECT_EQ(at_freeze.profiles.size(), 2u);
  EXPECT_EQ(at_freeze.events.size(), 5u);
  EXPECT_EQ(at_freeze.dedup.size(), 1u);
  EXPECT_EQ(at_freeze.rows.size(), 1u);
  EXPECT_EQ(at_freeze.leases.size(), 1u);
  EXPECT_TRUE(vnode_state(*shards[1], vnode) == at_freeze);
  const VnodeState shed = vnode_state(*shards[0], vnode);
  EXPECT_TRUE(shed.members.empty());
  EXPECT_TRUE(shed.events.empty());
  EXPECT_TRUE(shed.dedup.empty());
  EXPECT_TRUE(shed.leases.empty());
}

// Cancelling a direct subscription whose producer lives on a sibling tears
// the moved copy down there.
TEST(ShardTest, CancellingAMovedDirectSubscriptionTearsItsCopyDown) {
  ShardFixture f(2);
  PulseCE pulse(f.sci.network(), f.guid_owned_by(0), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.lead).is_ok());
  ShardMonitor app(f.sci.network(), f.guid_owned_by(1), "app",
                   entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(app, *f.lead).is_ok());
  f.sci.run_for(Duration::millis(500));
  auto handle = f.sci.submit_query(
      app, query::Builder("sub", app.id()).what_named(pulse.id()).subscribe());
  ASSERT_TRUE(bool(handle));
  f.sci.run_for(Duration::seconds(1));
  ASSERT_EQ(rows_of(f.sci, app.id()), (std::vector<std::size_t>{1, 0}));

  EXPECT_TRUE(handle->cancel());
  f.sci.run_for(Duration::seconds(1));
  EXPECT_EQ(rows_of(f.sci, app.id()), (std::vector<std::size_t>{0, 0}));
  for (int i = 0; i < 5; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(1));
  EXPECT_EQ(app.unique_events, 0);
}

// The one profile race the channel's order cannot settle: after a vnode
// moves, the old owner's replay of a staged update (kHandoffReplay) and the
// redirected component's newer update reach the new owner from different
// senders. The replay is modelled as a late raw frame; the Profile
// Manager's version check keeps the newer profile.
TEST(ShardTest, LateHandoffReplayNeverRollsAProfileBack) {
  ShardFixture f(2);
  PulseCE pulse(f.sci.network(), f.guid_owned_by(0), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.lead).is_ok());
  f.sci.run_for(Duration::millis(300));
  ASSERT_TRUE(f.lead->begin_handoff(f.lead->shard_map().vnode_of(pulse.id()),
                                    1));
  f.sci.run_for(Duration::seconds(2));
  const range::ContextServer* owner = f.sci.shards("mall")[1];
  ASSERT_EQ(pulse.registration().context_server, owner->server_node());

  pulse.set_metadata(Value("newer"));
  f.sci.run_for(Duration::millis(50));
  const entity::Profile* held = owner->profiles().profile(pulse.id());
  ASSERT_NE(held, nullptr);
  entity::Profile staged = *held;
  staged.version -= 1;
  staged.metadata = Value("staged");
  serde::Writer w;
  range::StagedOp{pulse.id(), entity::kProfileUpdate,
                  entity::ProfileUpdateBody{staged}.encode()}
      .encode(w);
  send_raw(f, f.lead->server_node(), owner->server_node(),
           range::kHandoffReplay, w.take_ref());
  f.sci.run_for(Duration::millis(50));

  EXPECT_EQ(profile_tag(*owner, pulse.id()), "newer");
}

// Sibling registrations with no query in sight log nothing; the first query
// logs exactly the backlog ahead of itself, so the standby composes over
// the same mirrors; a promotion rebuilds once.
TEST(ShardTest, MirrorsAreLoggedOnlyAheadOfAQuery) {
  ShardFixture f(2, /*standby_count=*/1);
  ShardMonitor monitor(f.sci.network(), f.guid_owned_by(0), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.lead).is_ok());
  std::vector<std::unique_ptr<PulseCE>> pulses;
  for (int i = 0; i < 3; ++i) {
    pulses.push_back(std::make_unique<PulseCE>(
        f.sci.network(), f.guid_owned_by(1), "pulse" + std::to_string(i),
        entity::EntityKind::kDevice));
    ASSERT_TRUE(f.sci.enroll(*pulses.back(), *f.lead).is_ok());
  }
  f.sci.run_for(Duration::millis(500));
  range::ContextServer* standby = f.sci.standbys("mall").at(0);
  EXPECT_EQ(node_count(*f.lead, "cs.shard.mirrors_logged"), 0u);
  EXPECT_NE(f.lead->profiles().profile(pulses[0]->id()), nullptr);
  EXPECT_EQ(standby->profiles().profile(pulses[0]->id()), nullptr);

  const auto ask = [&](const std::string& id) {
    ASSERT_TRUE(f.sci.submit_query(monitor, query::Builder(id, monitor.id())
                                                .what_pattern("pulse")
                                                .profile())
                    .has_value());
    f.sci.run_for(Duration::millis(500));
  };
  ask("q1");
  ASSERT_TRUE(monitor.results.at("q1").ok());
  EXPECT_EQ(monitor.result_values.at("q1").get_list().size(), 3u);
  EXPECT_EQ(node_count(*f.lead, "cs.shard.mirrors_logged"), 3u);
  for (const auto& pulse : pulses) {
    EXPECT_NE(standby->profiles().profile(pulse->id()), nullptr);
  }

  // A profile request leaves no state behind: the next registration waits.
  PulseCE late(f.sci.network(), f.guid_owned_by(1), "late",
               entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(late, *f.lead).is_ok());
  f.sci.run_for(Duration::millis(300));
  EXPECT_EQ(node_count(*f.lead, "cs.shard.mirrors_logged"), 3u);

  ASSERT_TRUE(f.sci.promote_range("mall").is_ok());
  range::ContextServer* fresh = f.sci.shards("mall")[0];
  ASSERT_EQ(fresh, standby);
  f.sci.run_for(Duration::millis(500));
  EXPECT_EQ(node_count(*fresh, "cs.shard.mirror_rebuilds"), 1u);
  EXPECT_NE(fresh->profiles().profile(late.id()), nullptr);
  EXPECT_EQ(f.sci.metrics().snapshot().counter("repl.state_divergence"), 0u);
}

// The unlogged set is bounded: the sibling mirror that fills it logs the
// whole set, once.
TEST(ShardTest, UnloggedMirrorSetFlushesAtItsBound) {
  ShardFixture f(2, /*standby_count=*/1);
  f.sci.run_for(Duration::millis(300));
  for (std::size_t i = 0; i <= range::kMaxUnloggedMirrors; ++i) {
    entity::Profile profile;
    profile.entity = f.guid_owned_by(1);
    profile.name = "m" + std::to_string(i);
    send_raw_mirror(f, 1, 0, profile);
  }
  f.sci.run_for(Duration::millis(300));
  EXPECT_EQ(f.lead->profiles().size(), range::kMaxUnloggedMirrors + 1);
  EXPECT_EQ(node_count(*f.lead, "cs.shard.mirrors_logged"),
            range::kMaxUnloggedMirrors);
}

// A promoted standby holds only the mirrors its predecessor logged: the
// rebuild pulls the ones it never logged and sweeps the ghost of an entity
// whose departure went unlogged. A query on the successor sees exactly the
// sibling's live entities.
TEST(ShardTest, PromotedShardRebuildsMirrorsItsPredecessorNeverLogged) {
  ShardFixture f(2, /*standby_count=*/1);
  ShardMonitor monitor(f.sci.network(), f.guid_owned_by(0), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.lead).is_ok());
  PulseCE gone(f.sci.network(), f.guid_owned_by(1), "gone",
               entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(gone, *f.lead).is_ok());
  PulseCE kept(f.sci.network(), f.guid_owned_by(1), "kept",
               entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(kept, *f.lead).is_ok());
  f.sci.run_for(Duration::millis(300));
  const auto ask = [&](const std::string& id) {
    ASSERT_TRUE(f.sci.submit_query(monitor, query::Builder(id, monitor.id())
                                                .what_pattern("pulse")
                                                .profile())
                    .has_value());
    f.sci.run_for(Duration::millis(500));
  };
  ask("q1");  // logs both mirrors

  PulseCE fresh_arrival(f.sci.network(), f.guid_owned_by(1), "arrival",
                        entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(fresh_arrival, *f.lead).is_ok());
  gone.stop();
  f.sci.run_for(Duration::millis(500));
  range::ContextServer* standby = f.sci.standbys("mall").at(0);
  EXPECT_NE(standby->profiles().profile(gone.id()), nullptr);
  EXPECT_EQ(standby->profiles().profile(fresh_arrival.id()), nullptr);

  ASSERT_TRUE(f.sci.promote_range("mall").is_ok());
  range::ContextServer* fresh = f.sci.shards("mall")[0];
  f.sci.run_for(Duration::millis(500));
  EXPECT_EQ(node_count(*fresh, "cs.shard.mirror_rebuilds"), 1u);
  EXPECT_EQ(fresh->profiles().profile(gone.id()), nullptr);
  EXPECT_NE(fresh->profiles().profile(kept.id()), nullptr);
  EXPECT_NE(fresh->profiles().profile(fresh_arrival.id()), nullptr);

  ask("q2");
  ASSERT_TRUE(monitor.results.at("q2").ok());
  std::set<Guid> answered;
  for (const Value& profile : monitor.result_values.at("q2").get_list()) {
    answered.insert(profile.at("entity").as_guid().value());
  }
  EXPECT_EQ(answered, (std::set<Guid>{kept.id(), fresh_arrival.id()}));
}

// A location publish drops the views that consulted the moving entity. The
// drop needs no log record of its own: the standby replays the kPublish
// record through the same ingest path and drops the same views.
TEST(ShardTest, StandbyDropsTheViewsALocationPublishDrops) {
  ShardFixture f(2, /*standby_count=*/1);
  entity::PrinterCE printer(f.sci.network(), f.guid_owned_by(0), "P1",
                            f.building.room(0, 0));
  ASSERT_TRUE(f.sci.enroll(printer, *f.lead).is_ok());
  entity::ContextEntity user(f.sci.network(), f.guid_owned_by(0), "user",
                             entity::EntityKind::kPerson);
  user.set_location(location::LocRef::from_place(f.building.room(0, 1)));
  ASSERT_TRUE(f.sci.enroll(user, *f.lead).is_ok());
  ShardMonitor monitor(f.sci.network(), f.guid_owned_by(0), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.lead).is_ok());
  f.sci.run_for(Duration::millis(300));
  ASSERT_TRUE(f.sci.submit_query(monitor,
                                 query::Builder("q1", monitor.id())
                                     .what_entity_type("printing")
                                     .closest_to(user.id())
                                     .select(query::SelectPolicy::kClosest)
                                     .advertisement())
                  .has_value());
  f.sci.run_for(Duration::seconds(1));  // the kQuery record ships
  ASSERT_TRUE(monitor.results.at("q1").ok());
  range::ContextServer* standby = f.sci.standbys("mall").at(0);
  const std::size_t warm = f.lead->views()->size();
  ASSERT_GE(warm, 1u);
  ASSERT_EQ(standby->views()->size(), warm);

  const std::uint64_t drops = node_count(*f.lead, "view.invalidations");
  ValueMap moved;
  moved.emplace("entity", user.id());
  moved.emplace("place", static_cast<std::int64_t>(f.building.room(0, 2)));
  user.publish(entity::types::kLocationUpdate, Value(std::move(moved)));
  f.sci.run_for(Duration::seconds(1));
  EXPECT_GT(node_count(*f.lead, "view.invalidations"), drops);
  EXPECT_LT(f.lead->views()->size(), warm);
  EXPECT_EQ(standby->views()->size(), f.lead->views()->size());
}

// --- single-frame vnode handoff (docs/SHARDING.md, "Elastic resharding")

// A kHandoffFreeze frame moving `vnode` from shard 0 to shard 1 at `epoch`,
// carrying one state record. `damage` flips a byte of the record's CRC.
serde::BufferRef freeze_frame(std::uint64_t id, unsigned vnode,
                              std::uint64_t epoch, bool damage) {
  serde::Writer header;
  for (const std::uint64_t field : {id, std::uint64_t{vnode},
                                    std::uint64_t{0}, std::uint64_t{1},
                                    epoch}) {
    header.varint(field);
  }
  header.varint(1);  // record count
  std::vector<std::byte> frame = header.view().to_vector();
  const std::size_t crc_at = frame.size();
  serde::Writer record;
  record.u8(0xEE);  // a category the target skips on install
  serde::append_frame(frame, record.view());
  if (damage) frame[crc_at] ^= std::byte{0xFF};
  return serde::BufferRef::copy_of(frame);
}

// A slice that fails its CRC is refused whole: nothing is staged or logged
// and no ready goes back, so the source, hearing nothing, aborts at its
// deadline.
TEST(ShardTest, DamagedHandoffSliceIsRefusedAndTheSourceAborts) {
  ShardFixture f(2, /*standby_count=*/1);
  PulseCE pulse(f.sci.network(), f.guid_owned_by(0), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.lead).is_ok());
  f.sci.run_for(Duration::millis(500));
  range::ContextServer* target = f.sci.shards("mall")[1];
  range::ContextServer* target_standby = f.sci.standbys("mall#1").at(0);
  int readies = 0;  // one "ready" step per staged slice
  target->set_handoff_probe([&](const char* step) {
    if (std::string(step) == "ready") ++readies;
  });
  const std::uint64_t logged = node_count(*target, "repl.records_appended");
  const unsigned vnode = f.lead->shard_map().vnode_of(pulse.id());
  const std::uint64_t epoch = f.lead->map_epoch();

  // The source's own freeze frame never arrives; only a damaged copy does
  // (the lead's first handoff has id 1).
  f.sci.network().set_partition_group(target->server_node(), 1);
  ASSERT_TRUE(f.lead->begin_handoff(vnode, 1));
  send_raw(f, target->server_node(), target->server_node(),
           range::kHandoffFreeze,
           freeze_frame(1, vnode, epoch + 1, /*damage=*/true));
  f.sci.run_for(Duration::millis(500));
  EXPECT_EQ(readies, 0);
  EXPECT_FALSE(target->handoff_active());
  EXPECT_FALSE(target_standby->handoff_active());
  EXPECT_EQ(node_count(*target, "repl.records_appended"), logged);

  f.sci.run_for(Duration::seconds(5));
  EXPECT_FALSE(f.lead->handoff_active());
  EXPECT_EQ(node_count(*f.lead, "reshard.aborts"), 1u);
  EXPECT_EQ(f.lead->map_epoch(), epoch);
  EXPECT_EQ(f.lead->shard_map().owner_of_vnode(vnode), 0u);
}

// The same freeze frame arriving twice stages and logs once, and the
// target's standby stages it from the logged intent record.
TEST(ShardTest, RetransmittedFreezeStagesOnce) {
  ShardFixture f(2, /*standby_count=*/1);
  PulseCE pulse(f.sci.network(), f.guid_owned_by(0), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.lead).is_ok());
  f.sci.run_for(Duration::millis(500));
  range::ContextServer* target = f.sci.shards("mall")[1];
  range::ContextServer* target_standby = f.sci.standbys("mall#1").at(0);
  int readies = 0;  // one "ready" step per staged slice
  target->set_handoff_probe([&](const char* step) {
    if (std::string(step) == "ready") ++readies;
  });
  const std::uint64_t logged = node_count(*target, "repl.records_appended");
  const unsigned vnode = f.lead->shard_map().vnode_of(pulse.id());

  // The source is cut off, so the staged slice stays put: its ready goes
  // unanswered.
  f.sci.network().set_partition_group(f.lead->server_node(), 1);
  const serde::BufferRef frame =
      freeze_frame(7, vnode, f.lead->map_epoch() + 1, /*damage=*/false);
  for (int copy = 0; copy < 2; ++copy) {
    send_raw(f, target_standby->attached_node(), target->server_node(),
             range::kHandoffFreeze, frame);
  }
  f.sci.run_for(Duration::millis(500));
  EXPECT_EQ(readies, 1);
  EXPECT_TRUE(target->handoff_active());
  EXPECT_EQ(node_count(*target, "repl.records_appended"), logged + 1);
  EXPECT_TRUE(target_standby->handoff_active());
}

// A second copy of the freeze that arrives after the target staged the
// slice, while the source still waits for ready, is the same handoff: the
// target drops it instead of refusing it as a competing migration (which
// would make the source roll the move back).
TEST(ShardTest, FreezeRedeliveredBeforeTheCommitIsNotRefused) {
  ShardFixture f(2);
  PulseCE pulse(f.sci.network(), f.guid_owned_by(0), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.lead).is_ok());
  f.sci.run_for(Duration::millis(500));
  range::ContextServer* target = f.sci.shards("mall")[1];
  const Guid target_node = target->server_node();
  const Guid source_node = f.lead->server_node();
  const unsigned vnode = f.lead->shard_map().vnode_of(pulse.id());
  const std::uint64_t epoch_before = f.lead->map_epoch();
  // The source's first handoff id: shard 0's index in the top bits, seq 1.
  const serde::BufferRef copy =
      freeze_frame(1, vnode, epoch_before + 1, /*damage=*/false);
  int readies = 0;
  target->set_handoff_probe([&](const char* step) {
    if (std::string(step) != "ready" || readies++ > 0) return;
    // Re-deliver the freeze from the source, and cut the target off for
    // one microsecond so its first ready is lost: the copy lands while the
    // source is still uncommitted. The channel resends ready later.
    send_raw(f, source_node, target_node, range::kHandoffFreeze, copy);
    f.sci.network().set_partition_group(target_node, 1);
    f.sci.simulator().schedule(Duration::micros(1), [&f] {
      f.sci.network().heal_partitions();
    });
  });

  ASSERT_TRUE(f.lead->begin_handoff(vnode, 1));
  f.sci.run_for(Duration::seconds(2));
  EXPECT_EQ(readies, 1);
  EXPECT_FALSE(f.lead->handoff_active());
  EXPECT_FALSE(target->handoff_active());
  EXPECT_EQ(f.lead->map_epoch(), epoch_before + 1);
  EXPECT_EQ(f.lead->shard_map().owner_of_vnode(vnode), 1u);
  EXPECT_EQ(target->shard_map().owner_of_vnode(vnode), 1u);
  EXPECT_EQ(registry_count(f.sci.metrics(), "reshard.aborts"), 0u);
}

// The target's primary dies after staging, before the commit reaches it.
// Its elected successor stages the slice from its kHandoffIntent record,
// takes the commit, and delivery stays exactly-once across the move.
TEST(ShardTest, TargetSuccessorInstallsTheSliceFromItsIntentRecord) {
  ShardFixture f(2, /*standby_count=*/2);
  PulseCE pulse(f.sci.network(), f.guid_owned_by(0), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.lead).is_ok());
  ShardMonitor monitor(f.sci.network(), f.guid_owned_by(0), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.lead).is_ok());
  ASSERT_TRUE(monitor
                  .submit_query("sub",
                                query::Builder("sub", monitor.id())
                                    .what_named(pulse.id())
                                    .mode(query::QueryMode::kEventSubscription)
                                    .to_xml())
                  .is_ok());
  f.sci.run_for(Duration::seconds(2));
  for (int i = 0; i < 5; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(1));
  ASSERT_EQ(monitor.unique_events, 5);

  const unsigned vnode = f.lead->shard_map().vnode_of(pulse.id());
  const std::uint64_t epoch_before = f.lead->map_epoch();
  range::ContextServer* target = f.sci.shards("mall")[1];
  const Guid target_node = target->server_node();
  target->set_handoff_probe([&](const char* step) {
    if (std::string(step) == "ready") {
      (void)f.sci.network().set_crashed(target_node, true);
    }
  });
  const auto standbys = f.sci.standbys("mall#1");
  ASSERT_TRUE(f.lead->begin_handoff(vnode, 1));
  f.sci.run_for(Duration::millis(100));
  ASSERT_TRUE(f.sci.network().is_crashed(target_node));
  for (const range::ContextServer* standby : standbys) {
    EXPECT_TRUE(standby->handoff_active());  // staged from the record
  }
  f.sci.run_for(Duration::seconds(4));  // election + resolution

  range::ContextServer* fresh = f.sci.find_range("mall#1");
  ASSERT_NE(fresh, nullptr);
  ASSERT_NE(fresh, target);
  EXPECT_TRUE(fresh->promoted_by_election());
  EXPECT_FALSE(f.lead->handoff_active());
  EXPECT_FALSE(fresh->handoff_active());
  EXPECT_EQ(node_count(*f.lead, "reshard.aborts"), 0u);
  EXPECT_EQ(f.lead->map_epoch(), epoch_before + 1);
  EXPECT_EQ(fresh->map_epoch(), epoch_before + 1);
  EXPECT_EQ(fresh->shard_map().owner_of_vnode(vnode), 1u);
  EXPECT_NE(fresh->registrar().find(pulse.id()), nullptr);

  for (int i = 5; i < 10; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(2));
  EXPECT_EQ(monitor.unique_events, 10);
  EXPECT_EQ(monitor.duplicate_events, 0);
}

}  // namespace
}  // namespace sci
