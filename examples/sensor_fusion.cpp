// SCI sensor fusion: semantic source matching + quality-of-context.
//
// The paper's §2 critique of iQueue: an application asking for location
// "cannot take advantage of an environment that provides location
// information using a wireless detection scheme" when matching is
// syntactic. In SCI the request is matched on *semantics* ("position"), so
// both the door-sensor chain (confidence 1.0) and the W-LAN trilateration
// chain (confidence < 1.0, reported per fix) can serve it — and when every
// door sensor fails, the Context Server recomposes onto the radio chain
// with no application involvement.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/sci.h"
#include "entity/sensors.h"

namespace {

class TrackerApp final : public sci::entity::ContextAwareApp {
 public:
  using ContextAwareApp::ContextAwareApp;
  int updates = 0;
  double last_confidence = 0.0;
  double min_confidence_seen = 1.0;

 protected:
  void on_query_result(const std::string& query_id, const sci::Error& error,
                       const sci::Value&) override {
    std::printf("[tracker] query %s -> %s\n", query_id.c_str(),
                error.ok() ? "ok" : error.to_string().c_str());
  }
  void on_event(const sci::event::Event& event, std::uint64_t) override {
    ++updates;
    last_confidence = event.payload.at("confidence").number_or(0.0);
    min_confidence_seen = std::min(min_confidence_seen, last_confidence);
    if (updates <= 3 || updates % 10 == 0) {
      std::printf("[tracker] %6.2fs  place=%lld confidence=%.3f\n",
                  now().seconds_f(),
                  static_cast<long long>(
                      event.payload.at("place").number_or(0.0)),
                  last_confidence);
    }
  }
};

}  // namespace

int main() {
  sci::Sci sci(/*seed=*/77);
  sci::mobility::BuildingSpec spec;
  spec.floors = 1;
  spec.rooms_per_floor = 6;
  sci::mobility::Building building(spec);
  sci.set_location_directory(&building.directory());
  auto& range = *sci.create_range("floor", building.building_path()).value();
  auto& world = sci.world();

  // High-confidence source chain: door sensors → objLocationCE.
  std::vector<std::unique_ptr<sci::entity::DoorSensorCE>> doors;
  for (unsigned i = 0; i < spec.rooms_per_floor; ++i) {
    auto door = std::make_unique<sci::entity::DoorSensorCE>(
        sci.network(), sci.new_guid(), "door" + std::to_string(i),
        building.corridor(0), building.room(0, i));
    if (!sci.enroll(*door, range)) return 1;
    world.attach_door_sensor(door.get());
    doors.push_back(std::move(door));
  }
  sci::entity::ObjectLocationCE locator(sci.network(), sci.new_guid(),
                                        "objLocation",
                                        &building.directory());
  if (!sci.enroll(locator, range)) return 1;

  // Radio chain: four corner base stations → wlanLocationCE.
  std::vector<std::unique_ptr<sci::entity::WlanBaseStationCE>> stations;
  const double w =
      static_cast<double>(spec.rooms_per_floor) * spec.room_width;
  for (const sci::location::Point corner :
       {sci::location::Point{0, -4}, sci::location::Point{w, -4},
        sci::location::Point{0, 16}, sci::location::Point{w, 16}}) {
    auto station = std::make_unique<sci::entity::WlanBaseStationCE>(
        sci.network(), sci.new_guid(),
        "bs" + std::to_string(stations.size()), corner);
    if (!sci.enroll(*station, range)) return 1;
    world.attach_base_station(station.get(), /*radius=*/200.0);
    stations.push_back(std::move(station));
  }
  sci::entity::WlanLocationCE wlan_locator(sci.network(), sci.new_guid(),
                                           "wlanLocation",
                                           &building.directory());
  if (!sci.enroll(wlan_locator, range)) return 1;
  world.start_wlan_scanning(sci::Duration::seconds(2), {},
                            /*noise_stddev=*/0.5);

  // Bob wanders the floor.
  sci::entity::ContextEntity bob(sci.network(), sci.new_guid(), "Bob",
                                 sci::entity::EntityKind::kPerson);
  if (!sci.enroll(bob, range)) return 1;
  world.add_badge(bob.id(), building.room(0, 0));
  locator.seed(bob.id(), building.room(0, 0));
  world.wander(bob.id(), sci::Duration::seconds(4));

  // The tracker asks for position *by semantics*, not by event-type name,
  // with a modest confidence contract.
  TrackerApp app(sci.network(), sci.new_guid(), "tracker",
                 sci::entity::EntityKind::kSoftware);
  if (!sci.enroll(app, range)) return 1;
  const std::string xml =
      sci::query::Builder("q-pos", app.id())
          .semantic(sci::entity::types::kSemPosition)
          .about(bob.id())
          .min_confidence(0.2)
          .mode(sci::query::QueryMode::kEventSubscription)
          .to_xml();
  (void)app.submit_query("q-pos", xml);

  std::printf("-- phase 1: both source chains alive --\n");
  sci.run_for(sci::Duration::seconds(40));
  const int updates_phase1 = app.updates;
  std::printf("   %d updates (door chain exact, radio chain noisy)\n",
              updates_phase1);

  std::printf("-- phase 2: every door sensor crashes --\n");
  for (const auto& door : doors) {
    (void)sci.network().set_crashed(door->id(), true);
  }
  sci.run_for(sci::Duration::seconds(60));
  const int updates_phase2 = app.updates - updates_phase1;
  std::printf("   %d further updates via the W-LAN chain "
              "(recompositions: %llu)\n",
              updates_phase2,
              static_cast<unsigned long long>(
                  range.node_counter("cs.recompositions")->value()));
  std::printf("   lowest confidence delivered: %.3f (contract: >= 0.2)\n",
              app.min_confidence_seen);

  const bool ok = updates_phase1 > 0 && updates_phase2 > 0 &&
                  app.min_confidence_seen >= 0.2;
  std::printf("\n%s\n", ok ? "fusion OK" : "fusion FAILED");
  return ok ? 0 : 1;
}
