// SCI quickstart: one range, one temperature sensor, one display app.
//
// Demonstrates the minimum end-to-end path through the middleware:
//   1. build a world (a one-floor building) and a Range governing it;
//   2. enroll a temperature-sensing Context Entity and a display
//      Context Aware Application (the Fig 5 discovery handshake);
//   3. the app submits a Fig 6 subscription query for "temperature in
//      celsius";
//   4. the Context Server composes a configuration and the app receives
//      live updates as the sensor publishes.
#include <cstdio>

#include "core/sci.h"
#include "entity/sensors.h"

namespace {

// A minimal CAA: prints every temperature update it receives.
class DisplayApp final : public sci::entity::ContextAwareApp {
 public:
  using ContextAwareApp::ContextAwareApp;

  int updates = 0;

 protected:
  void on_query_result(const std::string& query_id, const sci::Error& error,
                       const sci::Value& result) override {
    std::printf("[app] query %s -> %s %s\n", query_id.c_str(),
                error.ok() ? "ok" : error.to_string().c_str(),
                result.to_string().c_str());
  }

  void on_event(const sci::event::Event& event,
                std::uint64_t owner_tag) override {
    (void)owner_tag;
    ++updates;
    std::printf("[app] %6.2fs  %s = %.2f %s\n", now().seconds_f(),
                event.type.c_str(), event.payload.at("value").number_or(0.0),
                event.payload.at("unit").string_or("?").c_str());
  }
};

}  // namespace

int main() {
  sci::Sci sci(/*seed=*/7);

  // A small world: one floor, four rooms.
  sci::mobility::BuildingSpec spec;
  spec.floors = 1;
  spec.rooms_per_floor = 4;
  sci::mobility::Building building(spec);
  sci.set_location_directory(&building.directory());

  // One range governing the whole building.
  auto& range = *sci.create_range("building", building.building_path()).value();

  // A temperature sensor CE in room 0, publishing every 2 simulated seconds.
  sci::entity::TemperatureSensorCE sensor(
      sci.network(), sci.new_guid(), "lab-thermometer", "celsius",
      sci::Duration::seconds(2));
  sensor.set_location(
      sci::location::LocRef::from_place(building.room(0, 0)));
  if (const auto enrolled = sci.enroll(sensor, range); !enrolled) {
    std::fprintf(stderr, "sensor enrollment failed: %s\n",
                 enrolled.error().message().c_str());
    return 1;
  }

  // A display application.
  DisplayApp app(sci.network(), sci.new_guid(), "thermostat-display",
                 sci::entity::EntityKind::kSoftware);
  if (const auto enrolled = sci.enroll(app, range); !enrolled) {
    std::fprintf(stderr, "app enrollment failed: %s\n",
                 enrolled.error().message().c_str());
    return 1;
  }

  // Subscribe to temperature updates (the Fig 6 XML document on the wire).
  const std::string xml =
      sci::query::Builder("q-temp", app.id())
          .what_pattern(sci::entity::types::kTemperature)
          .unit("celsius")
          .mode(sci::query::QueryMode::kEventSubscription)
          .to_xml();
  std::printf("submitting query:\n%s\n", xml.c_str());
  if (const auto submitted = app.submit_query("q-temp", xml); !submitted) {
    std::fprintf(stderr, "submit failed: %s\n",
                 submitted.error().message().c_str());
    return 1;
  }

  // Let the simulation run for 20 virtual seconds.
  sci.run_for(sci::Duration::seconds(20));

  std::printf("\nreceived %d updates in 20 simulated seconds\n", app.updates);
  std::printf("range stats: %llu events in, %llu configurations built\n",
              static_cast<unsigned long long>(
                  range.node_counter("cs.events_in")->value()),
              static_cast<unsigned long long>(
                  range.node_counter("cs.configurations_built")->value()));
  return app.updates > 0 ? 0 : 1;
}
