// Property-based suites over the core invariants:
//  * overlay routing stays correct through arbitrary join/leave/crash churn;
//  * serde decoders never crash (and fail cleanly) on corrupted frames;
//  * resolver output is always a grounded, acyclic, type-correct graph;
//  * randomized queries survive the XML round trip unchanged;
//  * the registrar view equals ground truth under arbitrary
//    arrival/departure interleavings;
//  * on a sharded, replicated, durable Range, replicas compose over the
//    same sibling mirrors as their primaries, hold the same parked queries
//    and subscription table, never count a state divergence, and every
//    shard's mirror set converges on its siblings' owned profiles, across a
//    promotion or a whole-Range cold restart.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/sci.h"
#include "entity/protocol.h"
#include "entity/sensors.h"
#include "overlay/scinet.h"

namespace sci {
namespace {

// ------------------------------------------------- overlay churn property

class OverlayChurnProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(OverlayChurnProperty, RoutingSurvivesArbitraryChurn) {
  sim::Simulator simulator(GetParam());
  net::Network network(simulator);
  net::LinkModel link;
  link.base_latency = Duration::micros(200);
  link.jitter = Duration::micros(50);
  network.set_link_model(link);
  overlay::Scinet scinet(network);
  Rng rng(GetParam() * 77 + 1);

  for (int i = 0; i < 12; ++i) scinet.add_node();
  scinet.settle(Duration::seconds(2));

  // 20 churn actions: grow, clean leave, or crash (keep >= 4 members).
  for (int action = 0; action < 20; ++action) {
    const auto kind = rng.next_below(3);
    if (kind == 0 || scinet.size() <= 4) {
      scinet.add_node();
    } else {
      const auto& victim =
          scinet.nodes()[rng.next_below(scinet.size())];
      (void)scinet.remove_node(victim->id(), /*crash=*/kind == 2);
    }
    // Half a failure-detection window (kHeartbeatMissLimit + 1 periods):
    // churn outpaces detection.
    scinet.settle(Duration::millis(1000));
  }
  // Let failure detection (kHeartbeatMissLimit + 1 periods) and repair
  // finish.
  scinet.settle(Duration::seconds(20));

  int delivered = 0;
  int misdelivered = 0;
  for (const auto& node : scinet.nodes()) {
    overlay::ScinetNode* raw = node.get();
    raw->set_deliver_handler([&, raw](const overlay::RoutedMessage& m) {
      ++delivered;
      if (m.key != raw->id()) ++misdelivered;
    });
  }
  int sent = 0;
  for (const auto& from : scinet.nodes()) {
    for (const auto& to : scinet.nodes()) {
      ASSERT_TRUE(from->route(to->id(), 1, {}).is_ok());
      ++sent;
    }
  }
  scinet.settle(Duration::seconds(10));
  EXPECT_EQ(misdelivered, 0);
  EXPECT_EQ(delivered, sent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlayChurnProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ------------------------------------------------------- serde fuzzing

class FrameCorruptionProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrameCorruptionProperty, CorruptedProtocolFramesFailCleanly) {
  Rng rng(GetParam());
  // A valid RegisterRequest frame as the corpus seed.
  entity::Profile profile;
  profile.entity = Guid::random(rng);
  profile.name = "victim";
  profile.outputs.push_back({"t", "u", "s"});
  profile.metadata = vmap({{"k", vlist({1, "two", 3.0})}});
  entity::Advertisement ad;
  ad.service = "svc";
  ad.methods.push_back({"m", {"p1", "p2"}});
  const entity::RegisterRequestBody body{false, profile, ad};
  const auto pristine = body.encode().to_vector();

  for (int round = 0; round < 300; ++round) {
    auto corrupted = pristine;
    // Mutate: flip bytes, truncate, or extend.
    const auto mutation = rng.next_below(3);
    if (mutation == 0 && !corrupted.empty()) {
      const auto flips = 1 + rng.next_below(8);
      for (std::uint64_t i = 0; i < flips; ++i) {
        corrupted[rng.next_below(corrupted.size())] =
            std::byte{static_cast<unsigned char>(rng.next_below(256))};
      }
    } else if (mutation == 1) {
      corrupted.resize(rng.next_below(corrupted.size() + 1));
    } else {
      const auto extra = rng.next_below(16);
      for (std::uint64_t i = 0; i < extra; ++i) {
        corrupted.push_back(
            std::byte{static_cast<unsigned char>(rng.next_below(256))});
      }
    }
    // Must never crash; may succeed (benign mutation) or fail cleanly.
    const auto decoded = entity::RegisterRequestBody::decode(corrupted);
    if (!decoded.has_value()) {
      EXPECT_FALSE(decoded.error().message().empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameCorruptionProperty,
                         ::testing::Values(11, 22, 33, 44));

class XmlCorruptionProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(XmlCorruptionProperty, MutatedQueryDocumentsNeverCrashTheParser) {
  Rng rng(GetParam());
  const std::string pristine =
      query::Builder("q", Guid(1, 2))
          .what_pattern("temperature")
          .unit("celsius")
          .in(*location::LogicalPath::parse("a/b/c"))
          .select(query::SelectPolicy::kClosest)
          .require("x", Value(1))
          .mode(query::QueryMode::kEventSubscription)
          .to_xml();
  for (int round = 0; round < 300; ++round) {
    std::string mutated = pristine;
    const auto edits = 1 + rng.next_below(6);
    for (std::uint64_t e = 0; e < edits && !mutated.empty(); ++e) {
      const auto pos = rng.next_below(mutated.size());
      switch (rng.next_below(3)) {
        case 0:
          mutated[pos] = static_cast<char>(32 + rng.next_below(95));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1,
                         static_cast<char>(32 + rng.next_below(95)));
      }
    }
    const auto parsed = query::Query::parse(mutated);
    if (parsed.has_value()) {
      EXPECT_TRUE(parsed->validate().is_ok());  // parse implies valid
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlCorruptionProperty,
                         ::testing::Values(55, 66, 77));

// --------------------------------------------------- resolver properties

class ResolverGraphProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ResolverGraphProperty, PlansAreGroundedAcyclicAndTypeCorrect) {
  Rng rng(GetParam());
  compose::SemanticRegistry registry;
  compose::Resolver resolver(&registry);

  for (int round = 0; round < 30; ++round) {
    // Random layered population: types t0..tL, producers of t_k consume a
    // random subset of t_{k+1} types; the bottom layer are sources. Some
    // profiles are deliberately broken (consume a type nobody produces).
    const unsigned layers = 2 + static_cast<unsigned>(rng.next_below(4));
    std::vector<entity::Profile> live;
    for (unsigned layer = 0; layer <= layers; ++layer) {
      const auto count = 1 + rng.next_below(4);
      for (std::uint64_t i = 0; i < count; ++i) {
        entity::Profile p;
        p.entity = Guid::random(rng);
        p.name = "n";
        p.outputs.push_back({"t" + std::to_string(layer), "", ""});
        if (layer < layers) {
          p.inputs.push_back({"t" + std::to_string(layer + 1), "", ""});
          if (rng.next_bool(0.2)) {
            p.inputs.push_back({"missing-type", "", ""});  // ungroundable
          }
        }
        live.push_back(std::move(p));
      }
    }
    compose::ResolveRequest request;
    request.requested = {"t0", "", ""};
    const auto plan = resolver.resolve(request, live);
    if (!plan) continue;  // all candidate sinks were broken: acceptable

    const auto profile_of = [&](Guid id) -> const entity::Profile* {
      for (const auto& p : live) {
        if (p.entity == id) return &p;
      }
      return nullptr;
    };
    // 1. Type correctness: every edge's producer really produces the type
    //    and its consumer really consumes it.
    for (const auto& edge : plan->edges) {
      const entity::Profile* producer = profile_of(edge.producer);
      ASSERT_NE(producer, nullptr);
      EXPECT_TRUE(producer->produces(edge.event_type));
      const entity::Profile* consumer = profile_of(edge.consumer);
      ASSERT_NE(consumer, nullptr);
      EXPECT_TRUE(consumer->consumes(edge.event_type));
    }
    // 2. Groundedness: every entity with inputs has at least one incoming
    //    edge per input type.
    for (const Guid id : plan->entities) {
      const entity::Profile* p = profile_of(id);
      ASSERT_NE(p, nullptr);
      for (const auto& input : p->inputs) {
        int feeders = 0;
        for (const auto& edge : plan->edges) {
          if (edge.consumer == id && edge.event_type == input.name) ++feeders;
        }
        EXPECT_GT(feeders, 0)
            << "entity " << id.short_string() << " starves on " << input.name;
      }
    }
    // 3. Acyclicity via Kahn's algorithm over plan edges.
    std::map<Guid, int> in_degree;
    for (const Guid id : plan->entities) in_degree[id] = 0;
    for (const auto& edge : plan->edges) in_degree[edge.consumer] += 1;
    std::vector<Guid> frontier;
    for (const auto& [id, degree] : in_degree) {
      if (degree == 0) frontier.push_back(id);
    }
    std::size_t visited = 0;
    while (!frontier.empty()) {
      const Guid current = frontier.back();
      frontier.pop_back();
      ++visited;
      for (const auto& edge : plan->edges) {
        if (edge.producer == current && --in_degree[edge.consumer] == 0) {
          frontier.push_back(edge.consumer);
        }
      }
    }
    EXPECT_EQ(visited, plan->entities.size()) << "cycle in configuration";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResolverGraphProperty,
                         ::testing::Values(3, 7, 21, 42, 1001));

// -------------------------------------------------- registrar consistency

class RegistrarChurnProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RegistrarChurnProperty, ViewMatchesGroundTruthUnderChurn) {
  Sci sci(GetParam());
  mobility::Building building({.floors = 1, .rooms_per_floor = 4});
  sci.set_location_directory(&building.directory());
  RangeOptions options;
  options.liveness.ping_period = Duration::seconds(3600);  // no surprise evictions
  auto& range = *sci.create_range("r", building.building_path(), options).value();
  Rng rng(GetParam() + 5);

  std::map<Guid, std::unique_ptr<entity::ContextEntity>> alive;
  for (int action = 0; action < 60; ++action) {
    if (alive.empty() || rng.next_bool(0.6)) {
      auto ce = std::make_unique<entity::ContextEntity>(
          sci.network(), sci.new_guid(), "e" + std::to_string(action),
          entity::EntityKind::kDevice);
      ASSERT_TRUE(sci.enroll(*ce, range).is_ok());
      alive.emplace(ce->id(), std::move(ce));
    } else {
      auto it = alive.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           rng.next_below(alive.size())));
      it->second->stop();
      alive.erase(it);
      sci.run_for(Duration::millis(50));
    }
    // Invariant: the registrar sees exactly the alive set.
    ASSERT_EQ(range.registrar().size(), alive.size());
    for (const auto& [id, ce] : alive) {
      ASSERT_TRUE(range.registrar().contains(id));
      ASSERT_NE(range.profiles().profile(id), nullptr);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegistrarChurnProperty,
                         ::testing::Values(100, 200, 300));

// ------------------------------------------ sharded mirror determinism

// A device advertising one output type.
class TypedProducer final : public entity::ContextEntity {
 public:
  TypedProducer(net::Network& network, Guid id, std::string name,
                std::string type)
      : ContextEntity(network, id, std::move(name),
                      entity::EntityKind::kDevice),
        type_(std::move(type)) {}

  [[nodiscard]] const std::string& type() const { return type_; }

 protected:
  [[nodiscard]] std::vector<entity::TypeSig> profile_outputs() const override {
    return {{type_, "", type_}};
  }

 private:
  std::string type_;
};

// tag → plan entities of every configuration a server holds.
std::map<std::uint64_t, std::vector<Guid>> configurations_of(
    const range::ContextServer& server) {
  std::map<std::uint64_t, std::vector<Guid>> out;
  for (const std::uint64_t tag : server.configurations().all_tags()) {
    out[tag] = server.configurations().find(tag)->plan.entities;
  }
  return out;
}

// GUID → version of the profiles a shard holds for entities it does not own.
std::map<Guid, std::uint64_t> mirror_set_of(const range::ContextServer& shard) {
  std::map<Guid, std::uint64_t> out;
  for (const entity::Profile& p : shard.profiles().snapshot()) {
    if (!shard.owns_entity(p.entity)) out[p.entity] = p.version;
  }
  return out;
}

// GUID → version of the non-app profiles a shard owns.
std::map<Guid, std::uint64_t> owned_profiles_of(
    const range::ContextServer& shard) {
  std::map<Guid, std::uint64_t> out;
  for (const Guid id : shard.registrar().entities()) {
    const entity::Profile* p = shard.profiles().profile(id);
    if (p != nullptr && shard.owns_entity(id)) out[id] = p->version;
  }
  return out;
}

std::vector<event::SubscriptionId> subscription_ids_of(
    const range::ContextServer& server) {
  std::vector<event::SubscriptionId> out;
  for (const event::Subscription& s : server.mediator().table().all()) {
    out.push_back(s.id);
  }
  return out;
}

class MirrorDeterminismProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MirrorDeterminismProperty, ReplicasComposeOverTheSameMirrors) {
  const std::uint64_t seed = GetParam();
  Sci sci(seed);
  mobility::Building building({.floors = 1, .rooms_per_floor = 4});
  sci.set_location_directory(&building.directory());
  RangeOptions options;
  options.sharding.shard_count = 4;
  options.replication.standby_count = 1;
  options.replication.heartbeat_period = Duration::millis(200);
  options.durability.enable = true;
  // Components renew every 5 s, so a 6 s lease keeps them, while a
  // subscriber that never renews is reaped within this run.
  options.reliability.lease_ttl = Duration::seconds(6);
  range::ContextServer* lead =
      sci.create_range("mall", building.floor_path(0), options).value();
  const std::vector<std::string> names = {"mall", "mall#1", "mall#2",
                                          "mall#3"};
  Rng rng(seed * 7919 + 3);
  const auto guid_owned_by = [&](unsigned shard) {
    Guid g = sci.new_guid();
    while (lead->shard_of(g) != shard) g = sci.new_guid();
    return g;
  };

  // One app per shard: a query runs on the shard its app is registered at.
  std::vector<std::unique_ptr<entity::ContextAwareApp>> apps;
  for (unsigned shard = 0; shard < 4; ++shard) {
    apps.push_back(std::make_unique<entity::ContextAwareApp>(
        sci.network(), guid_owned_by(shard), "app" + std::to_string(shard),
        entity::EntityKind::kSoftware));
    ASSERT_TRUE(sci.enroll(*apps.back(), *lead).is_ok());
  }

  // The lease action: the reaper of the subscriber's own shard logs this
  // lease's expiry.
  const event::SubscriptionId silent =
      lead->subscribe_pattern(sci.new_guid(), "lease-probe");

  const std::vector<std::string> types = {"pulse", "temp", "noise"};
  std::vector<std::unique_ptr<TypedProducer>> producers;
  std::vector<TypedProducer*> live;
  const auto pick_live = [&]() -> TypedProducer* {
    if (live.empty()) return nullptr;
    return live[rng.next_below(live.size())];
  };

  // One disruption per run: promote one shard's standby, or cold-restart
  // the whole Range from its stores.
  const auto disrupt = [&] {
    if (rng.next_bool(0.5)) {
      const std::string& name = names[rng.next_below(names.size())];
      ASSERT_TRUE(sci.promote_range(name).is_ok());
      ASSERT_TRUE(bool(sci.add_standby(name)));
    } else {
      ASSERT_TRUE(sci.shutdown_range("mall").is_ok());
      auto revived = sci.recover_range("mall");
      ASSERT_TRUE(bool(revived));
      lead = *revived;
      for (const std::string& name : names) {
        ASSERT_TRUE(bool(sci.add_standby(name)));
      }
    }
  };

  constexpr int kSteps = 40;
  const auto disrupt_at = static_cast<int>(10 + rng.next_below(25));
  for (int step = 0; step < kSteps; ++step) {
    if (step == disrupt_at) disrupt();
    const std::uint64_t action = rng.next_below(10);
    if (action < 3) {  // a sibling registers
      producers.push_back(std::make_unique<TypedProducer>(
          sci.network(), sci.new_guid(), "p" + std::to_string(step),
          types[rng.next_below(types.size())]));
      ASSERT_TRUE(sci.enroll(*producers.back(), *lead).is_ok());
      live.push_back(producers.back().get());
    } else if (action == 3) {  // a sibling updates its profile
      if (TypedProducer* p = pick_live()) {
        p->set_metadata(Value(static_cast<std::int64_t>(step)));
      }
    } else if (action == 4) {  // a sibling deregisters
      if (TypedProducer* p = pick_live()) {
        p->stop();
        std::erase(live, p);
      }
    } else if (action == 5) {  // a producer publishes (one-time retire)
      if (TypedProducer* p = pick_live()) {
        p->publish(p->type(), Value(static_cast<std::int64_t>(step)));
      }
    } else {  // a query on a random shard
      entity::ContextAwareApp& app = *apps[rng.next_below(apps.size())];
      const std::string id = "q" + std::to_string(step);
      query::Builder builder(id, app.id());
      builder.what_pattern(types[rng.next_below(types.size())]);
      const double lifetime = rng.next_double(0.5, 3.0);
      query::Query q;
      switch (rng.next_below(4)) {
        case 0:
          q = builder.profile();
          break;
        case 1:
          q = builder.expires_after(lifetime).subscribe();
          break;
        case 2:
          q = builder.expires_after(lifetime).once();
          break;
        default:
          q = builder
                  .not_before(sci.now().seconds_f() +
                              rng.next_double(0.1, 1.0))
                  .expires_after(lifetime)
                  .subscribe();
          break;
      }
      ASSERT_TRUE(sci.submit_query(app, std::move(q)).has_value());
    }
    sci.run_for(Duration::millis(
        static_cast<std::int64_t>(50 + rng.next_below(250))));
  }
  // Timers fire, records ship, acks land; a lease restarted by the
  // disruption lapses within two 5 s reaper periods.
  sci.run_for(Duration::seconds(11));

  const auto shards = sci.shards("mall");
  ASSERT_EQ(shards.size(), 4u);
  for (unsigned i = 0; i < shards.size(); ++i) {
    const range::ContextServer& primary = *shards[i];
    const auto standbys = sci.standbys(names[i]);
    ASSERT_EQ(standbys.size(), 1u) << names[i];
    EXPECT_EQ(configurations_of(primary), configurations_of(*standbys[0]))
        << names[i] << " seed " << seed;
    EXPECT_EQ(primary.pending_queries(), standbys[0]->pending_queries())
        << names[i] << " seed " << seed;
    EXPECT_EQ(primary.deferred_queries(), standbys[0]->deferred_queries())
        << names[i] << " seed " << seed;
    EXPECT_EQ(subscription_ids_of(primary), subscription_ids_of(*standbys[0]))
        << names[i] << " seed " << seed;

    std::map<Guid, std::uint64_t> siblings_owned;
    for (unsigned j = 0; j < shards.size(); ++j) {
      if (j != i) siblings_owned.merge(owned_profiles_of(*shards[j]));
    }
    EXPECT_EQ(mirror_set_of(primary), siblings_owned)
        << names[i] << " seed " << seed;
  }
  // The silent subscriber's lease lapsed on its own shard, and that took
  // every copy of its wildcard, the lead's row included.
  for (unsigned i = 0; i < shards.size(); ++i) {
    EXPECT_EQ(shards[i]->mediator().table().find(silent), nullptr)
        << names[i] << " seed " << seed;
  }
  EXPECT_GE(sci.metrics().snapshot().counter("em.leases.expired"), 1u)
      << "seed " << seed;
  EXPECT_EQ(sci.metrics().snapshot().counter("repl.state_divergence"), 0u)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MirrorDeterminismProperty,
                         ::testing::Range<std::uint64_t>(1, 51));

}  // namespace
}  // namespace sci
