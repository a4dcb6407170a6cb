// Experiment A7 — context gathering and storage (paper conclusion: "an open
// source infrastructure that supports context gathering and storage").
//
// BM_RecordThroughput/C   — Context Store ingest cost at per-key capacity C
//                           (bounded ring buffers: memory flat, eviction
//                           included).
// BM_HistoryLookup/N      — history pull cost with N distinct subjects.
// BM_SnapshotLookup/T     — current-context snapshot with T event types per
//                           subject.
// BM_PullQueryEndToEnd    — the full pull path: query submit → Context
//                           Server → Context Store → reply (virtual time).
#include <benchmark/benchmark.h>

#include "common/stats.h"
#include "core/sci.h"
#include "entity/sensors.h"
#include "range/context_store.h"

namespace {

using namespace sci;

event::Event sample_event(Guid subject, std::string type, std::uint64_t seq) {
  event::Event e;
  e.sequence = seq;
  e.type = std::move(type);
  e.source = Guid(9, 9);
  e.timestamp = SimTime::from_micros(static_cast<std::int64_t>(seq));
  e.payload = vmap({{"entity", subject}, {"place", 3}, {"confidence", 1.0}});
  return e;
}

void BM_RecordThroughput(benchmark::State& state) {
  range::ContextStore store(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  std::vector<Guid> subjects;
  for (int i = 0; i < 64; ++i) subjects.push_back(Guid::random(rng));
  std::uint64_t seq = 0;
  for (auto _ : state) {
    const Guid subject = subjects[seq % subjects.size()];
    ++seq;
    store.record(sample_event(subject, "location.update", seq));
  }
  state.counters["capacity"] = static_cast<double>(state.range(0));
  state.counters["evicted"] = static_cast<double>(store.stats().evicted);
  state.counters["keys"] = static_cast<double>(store.keys());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_HistoryLookup(benchmark::State& state) {
  const auto subjects_count = static_cast<std::size_t>(state.range(0));
  range::ContextStore store(32);
  Rng rng(2);
  std::vector<Guid> subjects;
  for (std::size_t i = 0; i < subjects_count; ++i) {
    subjects.push_back(Guid::random(rng));
  }
  std::uint64_t seq = 0;
  for (const Guid subject : subjects) {
    for (int i = 0; i < 32; ++i) {
      store.record(sample_event(subject, "location.update", ++seq));
    }
  }
  std::size_t cursor = 0;
  for (auto _ : state) {
    const auto history = store.history(subjects[cursor++ % subjects.size()],
                                       "location.update", 10);
    benchmark::DoNotOptimize(history);
  }
  state.counters["subjects"] = static_cast<double>(subjects_count);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_SnapshotLookup(benchmark::State& state) {
  const auto types = static_cast<int>(state.range(0));
  range::ContextStore store(8);
  Rng rng(3);
  const Guid subject = Guid::random(rng);
  // Background population so snapshot() has to filter.
  for (int s = 0; s < 32; ++s) {
    store.record(sample_event(Guid::random(rng), "noise", 1));
  }
  std::uint64_t seq = 0;
  for (int t = 0; t < types; ++t) {
    store.record(
        sample_event(subject, "type" + std::to_string(t), ++seq));
  }
  for (auto _ : state) {
    const Value snapshot = store.snapshot(subject);
    benchmark::DoNotOptimize(snapshot);
  }
  state.counters["types"] = static_cast<double>(types);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_PullQueryEndToEnd(benchmark::State& state) {
  Sci sci(8);
  mobility::Building building({.floors = 1, .rooms_per_floor = 2});
  sci.set_location_directory(&building.directory());
  auto& range = *sci.create_range("r", building.building_path()).value();
  entity::TemperatureSensorCE sensor(sci.network(), sci.new_guid(), "s",
                                     "celsius", Duration::millis(500));
  SCI_ASSERT(sci.enroll(sensor, range).is_ok());

  struct App final : entity::ContextAwareApp {
    using ContextAwareApp::ContextAwareApp;
    int replies = 0;
    void on_query_result(const std::string&, const Error&,
                         const Value&) override {
      ++replies;
    }
  };
  App app(sci.network(), sci.new_guid(), "app",
          entity::EntityKind::kSoftware);
  SCI_ASSERT(sci.enroll(app, range).is_ok());
  sci.run_for(Duration::seconds(30));  // gather history

  RunningStats pull_ms;
  int round = 0;
  for (auto _ : state) {
    const std::string qid = "q" + std::to_string(round++);
    const std::string xml = query::Builder(qid, app.id())
                                .what_pattern(entity::types::kTemperature)
                                .about(sensor.id())
                                .with_history(10)
                                .mode(query::QueryMode::kProfileRequest)
                                .to_xml();
    const int replies_before = app.replies;
    const SimTime before = sci.now();
    SCI_ASSERT(app.submit_query(qid, xml).is_ok());
    const SimTime deadline = before + Duration::seconds(5);
    while (app.replies == replies_before && sci.now() < deadline) {
      if (!sci.simulator().step(deadline)) break;
    }
    pull_ms.add((sci.now() - before).millis_f());
  }
  state.counters["pull_ms_mean"] = pull_ms.mean();
}

}  // namespace

BENCHMARK(BM_RecordThroughput)->Arg(8)->Arg(32)->Arg(128);
BENCHMARK(BM_HistoryLookup)->Arg(16)->Arg(256)->Arg(4096);
BENCHMARK(BM_SnapshotLookup)->Arg(1)->Arg(8)->Arg(64)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PullQueryEndToEnd)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(100);

BENCHMARK_MAIN();
