// Experiment F3 — Figure 3 (Configuration of CEs).
//
// The composition pipeline of §3.2: query → type matching → configuration
// graph → subscriptions → live event ripple.
//
// BM_ResolveLatency/C/D    — pure resolver cost: C candidate source CEs,
//                            chain depth D.
// BM_ConfigurationSetup/S  — end-to-end query-to-ack time with S door
//                            sensors at the bottom of the Fig 3 graph.
// BM_EventRipple/S         — door event → objLocation → path → app latency
//                            through the wired configuration.
// BM_RecompositionAfterFailure — time from sensor crash to a flowing
//                            recomposed configuration.
//
// Expected shape: resolve cost grows with candidates and depth but stays
// well under a millisecond at building scale; ripple latency is a small
// multiple of per-hop network latency and independent of the sensor count.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "compose/resolver.h"
#include "common/stats.h"
#include "core/sci.h"
#include "entity/sensors.h"

namespace {

using namespace sci;

// --------------------------------------------------------- pure resolver

void BM_ResolveLatency(benchmark::State& state) {
  const auto candidates = static_cast<std::size_t>(state.range(0));
  const auto depth = static_cast<std::size_t>(state.range(1));
  compose::SemanticRegistry registry;
  compose::Resolver resolver(&registry);
  Rng rng(1);

  // Build a population: `candidates` sources of "t<depth>", and a chain of
  // aggregators t<k> <- t<k+1> down to t0 (the query target).
  std::vector<entity::Profile> live;
  for (std::size_t i = 0; i < candidates; ++i) {
    entity::Profile p;
    p.entity = Guid::random(rng);
    p.name = "src";
    p.outputs.push_back({"t" + std::to_string(depth), "", ""});
    live.push_back(std::move(p));
  }
  for (std::size_t level = 0; level < depth; ++level) {
    entity::Profile p;
    p.entity = Guid::random(rng);
    p.name = "agg";
    p.inputs.push_back({"t" + std::to_string(level + 1), "", ""});
    p.outputs.push_back({"t" + std::to_string(level), "", ""});
    live.push_back(std::move(p));
  }

  compose::ResolveRequest request;
  request.requested = {"t0", "", ""};
  std::size_t edges = 0;
  for (auto _ : state) {
    auto plan = resolver.resolve(request, live);
    SCI_ASSERT(plan.has_value());
    edges = plan->edges.size();
    benchmark::DoNotOptimize(plan);
  }
  state.counters["candidates"] = static_cast<double>(candidates);
  state.counters["depth"] = static_cast<double>(depth);
  state.counters["plan_edges"] = static_cast<double>(edges);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// ----------------------------------------------- end-to-end configuration

struct Fig3World {
  Sci sci{31};
  mobility::Building building{{.floors = 1, .rooms_per_floor = 12}};
  range::ContextServer* range = nullptr;
  std::vector<std::unique_ptr<entity::DoorSensorCE>> doors;
  std::unique_ptr<entity::ObjectLocationCE> locator;
  std::unique_ptr<entity::PathCE> path;
  std::unique_ptr<entity::ContextEntity> bob;
  std::unique_ptr<entity::ContextEntity> john;

  explicit Fig3World(std::size_t sensors) {
    sci.set_location_directory(&building.directory());
    range = sci.create_range("r", building.building_path()).value();
    auto& world = sci.world();
    for (std::size_t i = 0; i < sensors; ++i) {
      const unsigned room = static_cast<unsigned>(i) % 12;
      auto door = std::make_unique<entity::DoorSensorCE>(
          sci.network(), sci.new_guid(), "door" + std::to_string(i),
          building.corridor(0), building.room(0, room));
      SCI_ASSERT(sci.enroll(*door, *range).is_ok());
      world.attach_door_sensor(door.get());
      doors.push_back(std::move(door));
    }
    locator = std::make_unique<entity::ObjectLocationCE>(
        sci.network(), sci.new_guid(), "objLocation", &building.directory());
    SCI_ASSERT(sci.enroll(*locator, *range).is_ok());
    path = std::make_unique<entity::PathCE>(sci.network(), sci.new_guid(),
                                            "pathCE", &building.directory());
    SCI_ASSERT(sci.enroll(*path, *range).is_ok());
    // John lives in room 1 so his door is instrumented even in the
    // smallest (2-sensor) deployment.
    bob = make_person("Bob", building.room(0, 0));
    john = make_person("John", building.room(0, 1));
    world.add_badge(bob->id(), building.room(0, 0));
    world.add_badge(john->id(), building.room(0, 1));
    locator->seed(bob->id(), building.room(0, 0));
    locator->seed(john->id(), building.room(0, 1));
  }

  std::unique_ptr<entity::ContextEntity> make_person(const char* name,
                                                     location::PlaceId at) {
    auto person = std::make_unique<entity::ContextEntity>(
        sci.network(), sci.new_guid(), name, entity::EntityKind::kPerson);
    person->set_location(location::LocRef::from_place(at));
    SCI_ASSERT(sci.enroll(*person, *range).is_ok());
    return person;
  }
};

struct PathApp final : entity::ContextAwareApp {
  using ContextAwareApp::ContextAwareApp;
  int acks = 0;
  int updates = 0;
  void on_query_result(const std::string&, const Error& error,
                       const Value&) override {
    if (error.ok()) ++acks;
  }
  void on_event(const event::Event&, std::uint64_t) override { ++updates; }
};

void BM_ConfigurationSetup(benchmark::State& state) {
  Fig3World world(static_cast<std::size_t>(state.range(0)));
  PathApp app(world.sci.network(), world.sci.new_guid(), "pathApp",
              entity::EntityKind::kSoftware);
  SCI_ASSERT(world.sci.enroll(app, *world.range).is_ok());

  RunningStats setup_ms;
  int round = 0;
  for (auto _ : state) {
    const std::string qid = "q" + std::to_string(round++);
    const std::string xml =
        query::Builder(qid, app.id())
            .what_pattern(entity::types::kPathUpdate)
            .semantic(entity::types::kSemRoute)
            .about(world.john->id())
            .relative_to(world.bob->id())
            .mode(query::QueryMode::kEventSubscription)
            .to_xml();
    const int acks_before = app.acks;
    const SimTime before = world.sci.now();
    SCI_ASSERT(app.submit_query(qid, xml).is_ok());
    while (app.acks == acks_before) {
      if (!world.sci.simulator().step()) break;
    }
    setup_ms.add((world.sci.now() - before).millis_f());
  }
  state.counters["sensors"] = static_cast<double>(state.range(0));
  state.counters["setup_ms_mean"] = setup_ms.mean();
  state.counters["configs_built"] =
      static_cast<double>(
          world.range->node_counter("cs.configurations_built")->value());
  state.counters["edges_created"] = static_cast<double>(
      world.range->configurations().stats().edges_created);
  state.counters["edges_shared"] = static_cast<double>(
      world.range->configurations().stats().edges_shared);
}

void BM_EventRipple(benchmark::State& state) {
  Fig3World world(static_cast<std::size_t>(state.range(0)));
  PathApp app(world.sci.network(), world.sci.new_guid(), "pathApp",
              entity::EntityKind::kSoftware);
  SCI_ASSERT(world.sci.enroll(app, *world.range).is_ok());
  const std::string xml =
      query::Builder("q", app.id())
          .what_pattern(entity::types::kPathUpdate)
          .semantic(entity::types::kSemRoute)
          .about(world.john->id())
          .relative_to(world.bob->id())
          .mode(query::QueryMode::kEventSubscription)
          .to_xml();
  SCI_ASSERT(app.submit_query("q", xml).is_ok());
  world.sci.run_for(Duration::seconds(1));
  SCI_ASSERT(app.acks == 1);

  auto& mobility = world.sci.world();
  RunningStats ripple_ms;
  bool toward_corridor = true;
  for (auto _ : state) {
    // John steps through a door: the sensor event must ripple through
    // objLocation → path → app.
    const int updates_before = app.updates;
    const SimTime before = world.sci.now();
    const location::PlaceId next = toward_corridor
                                       ? world.building.corridor(0)
                                       : world.building.room(0, 1);
    toward_corridor = !toward_corridor;
    SCI_ASSERT(mobility.step(world.john->id(), next).is_ok());
    const SimTime deadline = before + Duration::seconds(10);
    while (app.updates == updates_before && world.sci.now() < deadline) {
      if (!world.sci.simulator().step(deadline)) break;
    }
    SCI_ASSERT(app.updates > updates_before);
    ripple_ms.add((world.sci.now() - before).millis_f());
  }
  state.counters["sensors"] = static_cast<double>(state.range(0));
  state.counters["ripple_ms_mean"] = ripple_ms.mean();
  state.counters["ripple_ms_max"] = ripple_ms.max();
  state.counters["updates"] = static_cast<double>(app.updates);
}

void BM_RecompositionAfterFailure(benchmark::State& state) {
  RunningStats recovery_ms;
  std::uint64_t recompositions = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // Fresh deployment per iteration: two redundant temperature sensors;
    // crash the active sink and measure time until updates flow again.
    Sci sci(91);
    mobility::Building building({.floors = 1, .rooms_per_floor = 2});
    sci.set_location_directory(&building.directory());
    RangeOptions options;
    options.liveness.ping_period = Duration::millis(500);
    options.liveness.ping_miss_limit = 2;
    auto& range = *sci.create_range("r", building.building_path(), options).value();
    entity::TemperatureSensorCE s1(sci.network(), sci.new_guid(), "s1",
                                   "celsius", Duration::millis(500));
    entity::TemperatureSensorCE s2(sci.network(), sci.new_guid(), "s2",
                                   "celsius", Duration::millis(500));
    SCI_ASSERT(sci.enroll(s1, range).is_ok());
    SCI_ASSERT(sci.enroll(s2, range).is_ok());
    PathApp app(sci.network(), sci.new_guid(), "app",
                entity::EntityKind::kSoftware);
    SCI_ASSERT(sci.enroll(app, range).is_ok());
    const std::string xml = query::Builder("q", app.id())
                                .what_pattern(entity::types::kTemperature)
                                .mode(query::QueryMode::kEventSubscription)
                                .to_xml();
    SCI_ASSERT(app.submit_query("q", xml).is_ok());
    sci.run_for(Duration::seconds(2));
    SCI_ASSERT(app.updates > 0);
    entity::TemperatureSensorCE& sink = s1.id() < s2.id() ? s1 : s2;
    state.ResumeTiming();

    const SimTime crash_at = sci.now();
    SCI_ASSERT(sci.network().set_crashed(sink.id(), true).is_ok());
    // Run until an update arrives that was produced after the crash.
    const int updates_at_crash = app.updates;
    const SimTime deadline = crash_at + Duration::seconds(30);
    while (app.updates == updates_at_crash && sci.now() < deadline) {
      if (!sci.simulator().step(deadline)) break;
    }
    recovery_ms.add((sci.now() - crash_at).millis_f());
    recompositions += range.node_counter("cs.recompositions")->value();
  }
  state.counters["recovery_ms_mean"] = recovery_ms.mean();
  state.counters["recovery_ms_max"] = recovery_ms.max();
  state.counters["recompositions"] = static_cast<double>(recompositions);
}

}  // namespace

BENCHMARK(BM_ResolveLatency)
    ->Args({4, 2})
    ->Args({16, 2})
    ->Args({64, 2})
    ->Args({256, 2})
    ->Args({16, 1})
    ->Args({16, 4})
    ->Args({16, 8})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ConfigurationSetup)
    ->Arg(2)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(20);
BENCHMARK(BM_EventRipple)
    ->Arg(2)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(50);
BENCHMARK(BM_RecompositionAfterFailure)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(10);

BENCHMARK_MAIN();
