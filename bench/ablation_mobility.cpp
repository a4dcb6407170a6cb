// Experiment A6 — mobility and cross-range handoff (paper §3.4).
//
// BM_HandoffLatency        — time from a badge crossing a range boundary to
//                            its components being registered in the new
//                            range.
// BM_HandoffUnderSpeed/S   — a commuter crossing floors every S seconds:
//                            counters report handoffs completed and the
//                            fraction of time spent registered.
// BM_ChurnThroughput/P     — P wandering people for 60 virtual seconds:
//                            total handoffs, door events and location
//                            updates the infrastructure absorbed.
//
// Expected shape: handoff latency ≈ the Fig 5 handshake (a few ms);
// registered-time fraction degrades only when dwell time approaches the
// handshake latency; churn throughput scales linearly with P.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/stats.h"
#include "core/sci.h"
#include "entity/sensors.h"

namespace {

using namespace sci;

struct TwoFloorWorld {
  Sci sci{77};
  mobility::Building building{{.floors = 2, .rooms_per_floor = 4}};
  range::ContextServer* floor0 = nullptr;
  range::ContextServer* floor1 = nullptr;

  TwoFloorWorld() {
    sci.set_location_directory(&building.directory());
    // No catch-all range: the lobby belongs to floor0's range root.
    floor0 = sci.create_range("floor0", building.building_path()).value();
    floor1 = sci.create_range("floor1", building.floor_path(1)).value();
  }
};

void BM_HandoffLatency(benchmark::State& state) {
  TwoFloorWorld w;
  auto& world = w.sci.world();
  entity::ContextEntity person(w.sci.network(), w.sci.new_guid(), "p",
                               entity::EntityKind::kPerson);
  person.start();
  world.add_badge(person.id(), w.building.corridor(0));
  world.bind_component(person.id(), &person);
  w.sci.run_for(Duration::seconds(1));
  SCI_ASSERT(person.is_registered());

  RunningStats handoff_ms;
  bool upstairs = false;
  for (auto _ : state) {
    const Guid before_range = person.registration().range;
    const SimTime before = w.sci.now();
    upstairs = !upstairs;
    SCI_ASSERT(world
                   .step(person.id(), upstairs ? w.building.corridor(1)
                                               : w.building.corridor(0))
                   .is_ok());
    while (!person.is_registered() ||
           person.registration().range == before_range) {
      if (!w.sci.simulator().step()) break;
    }
    handoff_ms.add((w.sci.now() - before).millis_f());
  }
  state.counters["handoff_ms_mean"] = handoff_ms.mean();
  state.counters["handoff_ms_max"] = handoff_ms.max();
}

void BM_HandoffUnderSpeed(benchmark::State& state) {
  const auto dwell_ms = state.range(0);
  std::uint64_t handoffs = 0;
  double registered_fraction = 0.0;
  for (auto _ : state) {
    TwoFloorWorld w;
    auto& world = w.sci.world();
    entity::ContextEntity person(w.sci.network(), w.sci.new_guid(), "p",
                                 entity::EntityKind::kPerson);
    person.start();
    world.add_badge(person.id(), w.building.corridor(0));
    world.bind_component(person.id(), &person);
    w.sci.run_for(Duration::seconds(1));

    // Bounce between floors every dwell_ms for 60 virtual seconds,
    // sampling registration every 100ms.
    std::uint64_t samples = 0;
    std::uint64_t registered_samples = 0;
    bool upstairs = false;
    SimTime next_move = w.sci.now();
    const SimTime end = w.sci.now() + Duration::seconds(60);
    while (w.sci.now() < end) {
      if (w.sci.now() >= next_move) {
        upstairs = !upstairs;
        (void)world.step(person.id(), upstairs ? w.building.corridor(1)
                                               : w.building.corridor(0));
        next_move = w.sci.now() + Duration::millis(dwell_ms);
      }
      w.sci.run_for(Duration::millis(100));
      ++samples;
      if (person.is_registered()) ++registered_samples;
    }
    handoffs = world.stats().handoffs;
    registered_fraction =
        static_cast<double>(registered_samples) /
        static_cast<double>(samples);
  }
  state.counters["dwell_ms"] = static_cast<double>(dwell_ms);
  state.counters["handoffs"] = static_cast<double>(handoffs);
  state.counters["registered_fraction"] = registered_fraction;
}

void BM_ChurnThroughput(benchmark::State& state) {
  const auto people = static_cast<std::size_t>(state.range(0));
  std::uint64_t handoffs = 0;
  std::uint64_t door_events = 0;
  std::uint64_t events_absorbed = 0;
  for (auto _ : state) {
    TwoFloorWorld w;
    auto& world = w.sci.world();
    // Instrument every door.
    std::vector<std::unique_ptr<entity::DoorSensorCE>> doors;
    for (unsigned f = 0; f < 2; ++f) {
      for (unsigned r = 0; r < 4; ++r) {
        auto door = std::make_unique<entity::DoorSensorCE>(
            w.sci.network(), w.sci.new_guid(),
            "d" + std::to_string(f) + std::to_string(r),
            w.building.corridor(f), w.building.room(f, r));
        SCI_ASSERT(w.sci
                       .enroll(*door, f == 0 ? *w.floor0 : *w.floor1)
                       .is_ok());
        world.attach_door_sensor(door.get());
        doors.push_back(std::move(door));
      }
    }
    std::vector<std::unique_ptr<entity::ContextEntity>> persons;
    for (std::size_t i = 0; i < people; ++i) {
      auto person = std::make_unique<entity::ContextEntity>(
          w.sci.network(), w.sci.new_guid(), "p" + std::to_string(i),
          entity::EntityKind::kPerson);
      person->start();
      world.add_badge(person->id(), w.building.corridor(i % 2));
      world.bind_component(person->id(), person.get());
      world.wander(person->id(), Duration::seconds(2));
      persons.push_back(std::move(person));
    }
    w.sci.run_for(Duration::seconds(60));
    handoffs = world.stats().handoffs;
    door_events = world.stats().door_triggers;
    events_absorbed =
        w.floor0->node_counter("cs.events_in")->value() +
        w.floor1->node_counter("cs.events_in")->value();
  }
  state.counters["people"] = static_cast<double>(people);
  state.counters["handoffs"] = static_cast<double>(handoffs);
  state.counters["door_events"] = static_cast<double>(door_events);
  state.counters["events_absorbed"] = static_cast<double>(events_absorbed);
}

}  // namespace

BENCHMARK(BM_HandoffLatency)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(50);
BENCHMARK(BM_HandoffUnderSpeed)
    ->Arg(5000)
    ->Arg(1000)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_ChurnThroughput)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

BENCHMARK_MAIN();
