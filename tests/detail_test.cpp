// Detail tests: overlay introspection, deep semantic chains, filter
// composition through the delivery path, and miscellaneous edge cases.
#include <gtest/gtest.h>

#include "compose/semantics.h"
#include "core/sci.h"
#include "entity/sensors.h"
#include "overlay/scinet.h"

namespace sci {
namespace {

TEST(OverlayDetailTest, SmallOverlayIsFullyMeshedInLeafSets) {
  sim::Simulator simulator(3);
  net::Network network(simulator);
  overlay::Scinet scinet(network);
  for (int i = 0; i < 10; ++i) scinet.add_node();
  scinet.settle(Duration::seconds(3));
  // 10 nodes <= 2*8: everyone's leaf set is everyone else.
  for (const auto& node : scinet.nodes()) {
    EXPECT_EQ(node->leaf_set().size(), 9u) << node->id().short_string();
    for (const auto& other : scinet.nodes()) {
      if (other->id() != node->id()) {
        EXPECT_TRUE(node->knows(other->id()));
      }
    }
  }
}

TEST(OverlayDetailTest, RoutingTablePopulationGrowsWithMembership) {
  sim::Simulator simulator(4);
  net::Network network(simulator);
  overlay::Scinet scinet(network);
  scinet.add_node();
  scinet.settle(Duration::seconds(1));
  EXPECT_EQ(scinet.nodes().front()->routing_table_population(), 0u);
  for (int i = 0; i < 20; ++i) scinet.add_node();
  scinet.settle(Duration::seconds(3));
  // Every node has learned at least a handful of prefix-diverse entries.
  for (const auto& node : scinet.nodes()) {
    EXPECT_GE(node->routing_table_population(), 5u);
  }
}

TEST(OverlayDetailTest, IsRootForReflectsGlobalClosest) {
  sim::Simulator simulator(5);
  net::Network network(simulator);
  overlay::Scinet scinet(network);
  for (int i = 0; i < 8; ++i) scinet.add_node();
  scinet.settle(Duration::seconds(3));
  Rng rng(6);
  for (int trial = 0; trial < 50; ++trial) {
    const Guid key = Guid::random(rng);
    int roots = 0;
    for (const auto& node : scinet.nodes()) {
      if (node->is_root_for(key)) ++roots;
    }
    EXPECT_EQ(roots, 1) << "exactly one root per key";
  }
}

TEST(SemanticsDetailTest, LongAliasChainsStayTransitive) {
  compose::SemanticRegistry registry;
  // a0 ~ a1 ~ ... ~ a9, declared pairwise in shuffled order.
  registry.add_semantic_alias("a3", "a4");
  registry.add_semantic_alias("a0", "a1");
  registry.add_semantic_alias("a7", "a8");
  registry.add_semantic_alias("a1", "a2");
  registry.add_semantic_alias("a5", "a6");
  registry.add_semantic_alias("a2", "a3");
  registry.add_semantic_alias("a8", "a9");
  registry.add_semantic_alias("a4", "a5");
  registry.add_semantic_alias("a6", "a7");
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 10; ++j) {
      EXPECT_TRUE(registry.semantics_equivalent("a" + std::to_string(i),
                                                "a" + std::to_string(j)));
    }
  }
  EXPECT_FALSE(registry.semantics_equivalent("a0", "unrelated"));
}

TEST(SemanticsDetailTest, CustomAliasBridgesQueryToSource) {
  // A deployment-specific vocabulary: the app asks for "whereabouts", the
  // sources speak "position" — an alias added through the facade bridges
  // them.
  Sci sci(606);
  mobility::Building building({.floors = 1, .rooms_per_floor = 2});
  sci.set_location_directory(&building.directory());
  sci.semantics().add_semantic_alias("whereabouts",
                                     entity::types::kSemPosition);
  auto& range = *sci.create_range("r", building.building_path()).value();
  auto& world = sci.world();
  entity::DoorSensorCE door(sci.network(), sci.new_guid(), "door",
                            building.corridor(0), building.room(0, 0));
  ASSERT_TRUE(sci.enroll(door, range).is_ok());
  world.attach_door_sensor(&door);
  entity::ObjectLocationCE locator(sci.network(), sci.new_guid(), "loc",
                                   &building.directory());
  ASSERT_TRUE(sci.enroll(locator, range).is_ok());

  struct App final : entity::ContextAwareApp {
    using ContextAwareApp::ContextAwareApp;
    int events = 0;
    void on_event(const event::Event&, std::uint64_t) override { ++events; }
  };
  App app(sci.network(), sci.new_guid(), "app",
          entity::EntityKind::kSoftware);
  ASSERT_TRUE(sci.enroll(app, range).is_ok());
  const Guid badge = sci.new_guid();
  world.add_badge(badge, building.room(0, 0));

  const std::string xml = query::Builder("q", app.id())
                              .semantic("whereabouts")
                              .mode(query::QueryMode::kEventSubscription)
                              .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  sci.run_for(Duration::millis(200));
  ASSERT_TRUE(world.step(badge, building.corridor(0)).is_ok());
  sci.run_for(Duration::millis(200));
  EXPECT_GE(app.events, 1);
}

TEST(FilterDetailTest, SubjectFilterSuppressesOtherEntities) {
  Sci sci(607);
  mobility::Building building({.floors = 1, .rooms_per_floor = 2});
  sci.set_location_directory(&building.directory());
  auto& range = *sci.create_range("r", building.building_path()).value();
  auto& world = sci.world();
  entity::DoorSensorCE door(sci.network(), sci.new_guid(), "door",
                            building.corridor(0), building.room(0, 0));
  ASSERT_TRUE(sci.enroll(door, range).is_ok());
  world.attach_door_sensor(&door);
  entity::ObjectLocationCE locator(sci.network(), sci.new_guid(), "loc",
                                   &building.directory());
  ASSERT_TRUE(sci.enroll(locator, range).is_ok());

  struct App final : entity::ContextAwareApp {
    using ContextAwareApp::ContextAwareApp;
    std::vector<Guid> seen;
    void on_event(const event::Event& e, std::uint64_t) override {
      if (const auto entity_field = e.payload.at("entity").as_guid();
          entity_field) {
        seen.push_back(*entity_field);
      }
    }
  };
  App app(sci.network(), sci.new_guid(), "app",
          entity::EntityKind::kSoftware);
  ASSERT_TRUE(sci.enroll(app, range).is_ok());
  const Guid bob = sci.new_guid();
  const Guid john = sci.new_guid();
  world.add_badge(bob, building.room(0, 0));
  world.add_badge(john, building.room(0, 0));

  // Subscribe to Bob's location only.
  const std::string xml = query::Builder("q", app.id())
                              .what_pattern(entity::types::kLocationUpdate)
                              .semantic(entity::types::kSemPosition)
                              .about(bob)
                              .mode(query::QueryMode::kEventSubscription)
                              .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  sci.run_for(Duration::millis(200));
  // Both walk through the same door.
  ASSERT_TRUE(world.step(bob, building.corridor(0)).is_ok());
  ASSERT_TRUE(world.step(john, building.corridor(0)).is_ok());
  sci.run_for(Duration::millis(200));
  ASSERT_FALSE(app.seen.empty());
  for (const Guid subject : app.seen) {
    EXPECT_EQ(subject, bob) << "John's movements must be filtered out";
  }
}

TEST(WorldDetailTest, WlanRadiusBoundaryIsInclusive) {
  Sci sci(608);
  mobility::Building building({.floors = 1, .rooms_per_floor = 2});
  sci.set_location_directory(&building.directory());
  auto& range = *sci.create_range("r", building.building_path()).value();
  auto& world = sci.world();
  const location::Place* room = building.directory().place(
      building.room(0, 0));
  entity::WlanBaseStationCE station(sci.network(), sci.new_guid(), "bs",
                                    room->anchor);
  ASSERT_TRUE(sci.enroll(station, range).is_ok());
  // Badge exactly at the station's position → distance 0, inside any
  // radius.
  const Guid badge = sci.new_guid();
  world.add_badge(badge, building.room(0, 0));
  world.attach_base_station(&station, 0.001);
  world.start_wlan_scanning(Duration::seconds(1));
  sci.run_for(Duration::millis(1500));
  EXPECT_EQ(world.stats().wlan_sightings, 1u);
}

}  // namespace
}  // namespace sci
