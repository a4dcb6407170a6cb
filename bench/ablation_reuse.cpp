// Experiment A4 — subgraph reuse (Solar's scalability idea, adopted by SCI
// via the ConfigurationStore).
//
// K applications submit similar path queries over the same sensor
// substrate, with edge sharing enabled vs disabled.
//
// BM_ReuseScaling/K/reuse — counters report subscriptions actually
//                           established, shared hits, and per-event
//                           delivery fan-out.
//
// Expected shape: with reuse the number of CE-to-CE subscriptions
// saturates (the K apps share one sensor-level graph) while without it the
// count grows ~linearly in K.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/sci.h"
#include "entity/sensors.h"

namespace {

using namespace sci;

struct CountingApp final : entity::ContextAwareApp {
  using ContextAwareApp::ContextAwareApp;
  int updates = 0;
  void on_event(const event::Event&, std::uint64_t) override { ++updates; }
};

void BM_ReuseScaling(benchmark::State& state) {
  const auto apps_count = static_cast<std::size_t>(state.range(0));
  const bool reuse = state.range(1) != 0;

  double edges_created = 0.0;
  double edges_shared = 0.0;
  double deliveries = 0.0;
  for (auto _ : state) {
    Sci sci(21);
    mobility::Building building({.floors = 1, .rooms_per_floor = 6});
    sci.set_location_directory(&building.directory());
    RangeOptions options;
    options.reuse.enable = reuse;
    auto& range = *sci.create_range("r", building.building_path(), options).value();
    auto& world = sci.world();

    std::vector<std::unique_ptr<entity::DoorSensorCE>> doors;
    for (unsigned i = 0; i < 6; ++i) {
      doors.push_back(std::make_unique<entity::DoorSensorCE>(
          sci.network(), sci.new_guid(), "door" + std::to_string(i),
          building.corridor(0), building.room(0, i)));
      SCI_ASSERT(sci.enroll(*doors.back(), range).is_ok());
      world.attach_door_sensor(doors.back().get());
    }
    entity::ObjectLocationCE locator(sci.network(), sci.new_guid(),
                                     "locator", &building.directory());
    SCI_ASSERT(sci.enroll(locator, range).is_ok());
    entity::PathCE path(sci.network(), sci.new_guid(), "path",
                        &building.directory());
    SCI_ASSERT(sci.enroll(path, range).is_ok());

    entity::ContextEntity bob(sci.network(), sci.new_guid(), "Bob",
                              entity::EntityKind::kPerson);
    bob.set_location(location::LocRef::from_place(building.room(0, 0)));
    SCI_ASSERT(sci.enroll(bob, range).is_ok());
    entity::ContextEntity john(sci.network(), sci.new_guid(), "John",
                               entity::EntityKind::kPerson);
    john.set_location(location::LocRef::from_place(building.room(0, 5)));
    SCI_ASSERT(sci.enroll(john, range).is_ok());
    world.add_badge(john.id(), building.room(0, 5));
    locator.seed(bob.id(), building.room(0, 0));
    locator.seed(john.id(), building.room(0, 5));

    // K apps ask the same question.
    std::vector<std::unique_ptr<CountingApp>> apps;
    for (std::size_t i = 0; i < apps_count; ++i) {
      auto app = std::make_unique<CountingApp>(
          sci.network(), sci.new_guid(), "app" + std::to_string(i),
          entity::EntityKind::kSoftware);
      SCI_ASSERT(sci.enroll(*app, range).is_ok());
      const std::string qid = "q" + std::to_string(i);
      const std::string xml =
          query::Builder(qid, app->id())
              .what_pattern(entity::types::kPathUpdate)
              .semantic(entity::types::kSemRoute)
              .about(john.id())
              .relative_to(bob.id())
              .mode(query::QueryMode::kEventSubscription)
              .to_xml();
      SCI_ASSERT(app->submit_query(qid, xml).is_ok());
      apps.push_back(std::move(app));
    }
    sci.run_for(Duration::seconds(1));

    // Drive one door transit; all apps should hear about it.
    SCI_ASSERT(world.step(john.id(), building.corridor(0)).is_ok());
    sci.run_for(Duration::seconds(1));

    edges_created =
        static_cast<double>(range.configurations().stats().edges_created);
    edges_shared =
        static_cast<double>(range.configurations().stats().edges_shared);
    double total_updates = 0.0;
    for (const auto& app : apps) total_updates += app->updates;
    deliveries = total_updates;
    SCI_ASSERT(total_updates >= static_cast<double>(apps_count));
  }
  state.SetLabel(reuse ? "reuse" : "no-reuse");
  state.counters["apps"] = static_cast<double>(apps_count);
  state.counters["edges_created"] = edges_created;
  state.counters["edges_shared"] = edges_shared;
  state.counters["app_deliveries"] = deliveries;
}

}  // namespace

BENCHMARK(BM_ReuseScaling)
    ->ArgsProduct({{1, 4, 16, 64}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

BENCHMARK_MAIN();
