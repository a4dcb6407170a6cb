// System-level soak tests: a multi-range campus under sustained churn,
// partitions and failures, with global invariants checked at the end —
// the closest thing to the deployment the paper envisions.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/sci.h"
#include "entity/printer.h"
#include "entity/sensors.h"

#include "metric_counts.h"

namespace sci {
namespace {

class MonitorApp final : public entity::ContextAwareApp {
 public:
  using ContextAwareApp::ContextAwareApp;
  int updates = 0;
  int ok_results = 0;
  int failed_results = 0;

 protected:
  void on_query_result(const std::string&, const Error& error,
                       const Value&) override {
    if (error.ok()) {
      ++ok_results;
    } else {
      ++failed_results;
    }
  }
  void on_event(const event::Event&, std::uint64_t) override { ++updates; }
};

TEST(SystemSoakTest, CampusSurvivesSustainedChurn) {
  Sci sci(20030617);  // the workshop date
  mobility::Building building({.floors = 3, .rooms_per_floor = 5});
  sci.set_location_directory(&building.directory());
  RangeOptions options;
  options.liveness.ping_period = Duration::millis(800);
  options.liveness.ping_miss_limit = 2;
  std::vector<range::ContextServer*> floors;
  for (unsigned f = 0; f < 3; ++f) {
    floors.push_back(sci.create_range("floor" + std::to_string(f),
                                       building.floor_path(f), options).value());
  }
  auto& world = sci.world();

  // Full sensor complement.
  std::vector<std::unique_ptr<entity::DoorSensorCE>> doors;
  std::vector<std::unique_ptr<entity::ObjectLocationCE>> locators;
  for (unsigned f = 0; f < 3; ++f) {
    for (unsigned r = 0; r < 5; ++r) {
      auto door = std::make_unique<entity::DoorSensorCE>(
          sci.network(), sci.new_guid(),
          "d" + std::to_string(f) + std::to_string(r), building.corridor(f),
          building.room(f, r));
      ASSERT_TRUE(sci.enroll(*door, *floors[f]).is_ok());
      world.attach_door_sensor(door.get());
      doors.push_back(std::move(door));
    }
    auto locator = std::make_unique<entity::ObjectLocationCE>(
        sci.network(), sci.new_guid(), "loc" + std::to_string(f),
        &building.directory());
    ASSERT_TRUE(sci.enroll(*locator, *floors[f]).is_ok());
    locators.push_back(std::move(locator));
  }

  // Wandering population.
  std::vector<std::unique_ptr<entity::ContextEntity>> people;
  for (unsigned i = 0; i < 12; ++i) {
    auto person = std::make_unique<entity::ContextEntity>(
        sci.network(), sci.new_guid(), "p" + std::to_string(i),
        entity::EntityKind::kPerson);
    person->start();
    world.add_badge(person->id(), building.room(i % 3, i % 5));
    world.bind_component(person->id(), person.get());
    world.wander(person->id(), Duration::seconds(2 + i % 3));
    people.push_back(std::move(person));
  }

  // Monitors subscribed per floor.
  std::vector<std::unique_ptr<MonitorApp>> monitors;
  for (unsigned f = 0; f < 3; ++f) {
    auto app = std::make_unique<MonitorApp>(sci.network(), sci.new_guid(),
                                            "mon" + std::to_string(f),
                                            entity::EntityKind::kSoftware);
    ASSERT_TRUE(sci.enroll(*app, *floors[f]).is_ok());
    const std::string qid = "q" + std::to_string(f);
    ASSERT_TRUE(app->submit_query(
                       qid, query::Builder(qid, app->id())
                                .what_pattern(entity::types::kLocationUpdate)
                                .semantic(entity::types::kSemPosition)
                                .mode(query::QueryMode::kEventSubscription)
                                .to_xml())
                    .is_ok());
    monitors.push_back(std::move(app));
  }

  // Phase 1: healthy operation.
  sci.run_for(Duration::seconds(30));
  int updates_healthy = 0;
  for (const auto& monitor : monitors) updates_healthy += monitor->updates;
  EXPECT_GT(updates_healthy, 20);

  // Phase 2: crash a door per floor and one locator; drop some frames too.
  for (unsigned f = 0; f < 3; ++f) {
    ASSERT_TRUE(sci.network().set_crashed(doors[f * 5]->id(), true).is_ok());
  }
  ASSERT_TRUE(sci.network().set_crashed(locators[2]->id(), true).is_ok());
  net::LinkModel flaky = sci.network().link_model();
  flaky.drop_probability = 0.02;
  sci.network().set_link_model(flaky);
  sci.run_for(Duration::seconds(30));

  // Phase 3: replacement locator arrives on floor 2; link heals.
  flaky.drop_probability = 0.0;
  sci.network().set_link_model(flaky);
  entity::ObjectLocationCE replacement(sci.network(), sci.new_guid(),
                                       "loc2b", &building.directory());
  ASSERT_TRUE(sci.enroll(replacement, *floors[2]).is_ok());
  sci.run_for(Duration::seconds(30));

  // --- global invariants -------------------------------------------------
  int updates_total = 0;
  for (const auto& monitor : monitors) updates_total += monitor->updates;
  EXPECT_GT(updates_total, updates_healthy)
      << "updates must keep flowing after failures";

  for (unsigned f = 0; f < 3; ++f) {
    const auto& range = *floors[f];
    // Crashed members were evicted.
    EXPECT_FALSE(range.registrar().contains(doors[f * 5]->id()));
    // No subscription references a subscriber that is not registered.
    for (const Guid member : range.registrar().members()) {
      EXPECT_NE(range.profiles().profile(member), nullptr);
    }
    // The monitor's configuration is still active (floor 2's was
    // recomposed onto the replacement locator).
    EXPECT_GE(range.configurations().size(), 1u)
        << "floor " << f << " lost its monitor configuration";
  }
  EXPECT_FALSE(floors[2]->registrar().contains(locators[2]->id()));
  EXPECT_GE(node_count(*floors[2], "cs.recompositions") +
                node_count(*floors[2], "cs.recomposition_failures"),
            1u);
}

TEST(SystemSoakTest, PartitionDegradesGracefullyAndHeals) {
  Sci sci(9);
  mobility::Building building({.floors = 2, .rooms_per_floor = 3});
  sci.set_location_directory(&building.directory());
  auto& tower = *sci.create_range("tower", building.building_path()).value();
  auto& upstairs = *sci.create_range("upstairs", building.floor_path(1)).value();

  entity::PrinterCE printer(sci.network(), sci.new_guid(), "P",
                            building.room(1, 0));
  ASSERT_TRUE(sci.enroll(printer, upstairs).is_ok());
  MonitorApp app(sci.network(), sci.new_guid(), "app",
                 entity::EntityKind::kSoftware);
  ASSERT_TRUE(sci.enroll(app, tower).is_ok());

  // Partition the upstairs CS away from everything.
  sci.network().set_partition_group(upstairs.server_node(), 1);
  sci.network().set_partition_group(upstairs.scinet().id(), 1);
  ASSERT_TRUE(app.submit_query(
                     "q1", query::Builder("q1", app.id())
                               .what_entity_type("printing")
                               .in(building.room_path(1, 0))
                               .mode(query::QueryMode::kAdvertisementRequest)
                               .to_xml())
                  .is_ok());
  sci.run_for(Duration::seconds(5));
  // No reply can cross the partition — but nothing crashed either.
  EXPECT_EQ(app.ok_results, 0);

  // Heal and retry: the query now answers.
  sci.network().heal_partitions();
  sci.run_for(Duration::seconds(2));
  ASSERT_TRUE(app.submit_query(
                     "q2", query::Builder("q2", app.id())
                               .what_entity_type("printing")
                               .in(building.room_path(1, 0))
                               .mode(query::QueryMode::kAdvertisementRequest)
                               .to_xml())
                  .is_ok());
  sci.run_for(Duration::seconds(2));
  EXPECT_EQ(app.ok_results, 1);
}

TEST(SystemSoakTest, DeterministicReplay) {
  // Two identical deployments with the same seed produce identical
  // observable behaviour — the foundation every experiment rests on.
  const auto run = [](std::uint64_t seed) {
    Sci sci(seed);
    mobility::Building building({.floors = 1, .rooms_per_floor = 4});
    sci.set_location_directory(&building.directory());
    auto& range = *sci.create_range("r", building.building_path()).value();
    auto& world = sci.world();
    std::vector<std::unique_ptr<entity::DoorSensorCE>> doors;
    for (unsigned r = 0; r < 4; ++r) {
      doors.push_back(std::make_unique<entity::DoorSensorCE>(
          sci.network(), sci.new_guid(), "d" + std::to_string(r),
          building.corridor(0), building.room(0, r)));
      EXPECT_TRUE(sci.enroll(*doors.back(), range).is_ok());
      world.attach_door_sensor(doors.back().get());
    }
    entity::ObjectLocationCE locator(sci.network(), sci.new_guid(), "loc",
                                     &building.directory());
    EXPECT_TRUE(sci.enroll(locator, range).is_ok());
    entity::ContextEntity person(sci.network(), sci.new_guid(), "p",
                                 entity::EntityKind::kPerson);
    person.start();
    world.add_badge(person.id(), building.room(0, 0));
    world.bind_component(person.id(), &person);
    world.wander(person.id(), Duration::seconds(1));
    MonitorApp app(sci.network(), sci.new_guid(), "mon",
                   entity::EntityKind::kSoftware);
    EXPECT_TRUE(sci.enroll(app, range).is_ok());
    EXPECT_TRUE(app.submit_query(
                       "q", query::Builder("q", app.id())
                                .what_pattern(entity::types::kLocationUpdate)
                                .mode(query::QueryMode::kEventSubscription)
                                .to_xml())
                    .is_ok());
    sci.run_for(Duration::seconds(30));
    return std::tuple{app.updates, world.stats().hops,
                      node_count(range, "cs.events_in"),
                      sci.simulator().executed_events()};
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));  // different seed, different trajectory
}

}  // namespace
}  // namespace sci
