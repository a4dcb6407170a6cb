// Experiment F6 — Figure 6 (the query model).
//
// BM_QuerySerialize / BM_QueryParse — XML wire-format throughput for the
//                                     five-section document.
// BM_QueryRoundTrip                 — serialize+parse+validate.
// BM_ResolvePerMode/M               — Context Server execution cost per
//                                     query mode (profile, subscribe, once,
//                                     advertisement) over a realistic range
//                                     population.
//
// Expected shape: parsing dominates serialization; per-mode costs are
// microseconds except subscription modes, which pay for composition and
// subscription setup.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/stats.h"
#include "core/sci.h"
#include "entity/printer.h"
#include "entity/sensors.h"

namespace {

using namespace sci;

query::Query full_query() {
  const auto office = *location::LogicalPath::parse("campus/tower/l10/room1");
  return query::Builder("q-print", Guid(1, 2))
      .what_entity_type("printing")
      .in(office)
      .when_enters(Guid(3, 4), office)
      .expires_after(120.0)
      .select(query::SelectPolicy::kClosest)
      .require("has_paper", Value(true))
      .require("queue_length", Value(std::int64_t{0}))
      .check_access()
      .advertisement();
}

void BM_QuerySerialize(benchmark::State& state) {
  const query::Query q = full_query();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string xml = q.to_xml();
    bytes = xml.size();
    benchmark::DoNotOptimize(xml);
  }
  state.counters["xml_bytes"] = static_cast<double>(bytes);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_QueryParse(benchmark::State& state) {
  const std::string xml = full_query().to_xml();
  for (auto _ : state) {
    auto q = query::Query::parse(xml);
    SCI_ASSERT(q.has_value());
    benchmark::DoNotOptimize(q);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(xml.size()));
}

void BM_QueryRoundTrip(benchmark::State& state) {
  const query::Query q = full_query();
  for (auto _ : state) {
    auto reparsed = query::Query::parse(q.to_xml());
    SCI_ASSERT(reparsed.has_value());
    SCI_ASSERT(reparsed->validate().is_ok());
    benchmark::DoNotOptimize(reparsed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

struct ModeBench {
  Sci sci{17};
  mobility::Building building{{.floors = 1, .rooms_per_floor = 8}};
  range::ContextServer* range = nullptr;
  std::vector<std::unique_ptr<entity::PrinterCE>> printers;
  std::vector<std::unique_ptr<entity::TemperatureSensorCE>> sensors;

  ModeBench() {
    sci.set_location_directory(&building.directory());
    range = sci.create_range("r", building.building_path()).value();
    for (unsigned i = 0; i < 8; ++i) {
      printers.push_back(std::make_unique<entity::PrinterCE>(
          sci.network(), sci.new_guid(), "P" + std::to_string(i),
          building.room(0, i)));
      SCI_ASSERT(sci.enroll(*printers.back(), *range).is_ok());
      sensors.push_back(std::make_unique<entity::TemperatureSensorCE>(
          sci.network(), sci.new_guid(), "T" + std::to_string(i), "celsius",
          Duration::seconds(3600)));
      SCI_ASSERT(sci.enroll(*sensors.back(), *range).is_ok());
    }
  }
};

struct AckApp final : entity::ContextAwareApp {
  using ContextAwareApp::ContextAwareApp;
  int replies = 0;
  void on_query_result(const std::string&, const Error&, const Value&)
      override {
    ++replies;
  }
};

void BM_ResolvePerMode(benchmark::State& state) {
  const auto mode = static_cast<query::QueryMode>(state.range(0));
  ModeBench bench;
  AckApp app(bench.sci.network(), bench.sci.new_guid(), "app",
             entity::EntityKind::kSoftware);
  SCI_ASSERT(bench.sci.enroll(app, *bench.range).is_ok());

  RunningStats reply_ms;
  int round = 0;
  for (auto _ : state) {
    const std::string qid = "q" + std::to_string(round++);
    query::Builder builder(qid, app.id());
    if (mode == query::QueryMode::kAdvertisementRequest ||
        mode == query::QueryMode::kProfileRequest) {
      builder.what_entity_type("printing");
    } else {
      builder.what_pattern(entity::types::kTemperature);
    }
    builder.mode(mode);  // the mode is this bench's sweep variable
    const int replies_before = app.replies;
    const SimTime before = bench.sci.now();
    SCI_ASSERT(app.submit_query(qid, builder.to_xml()).is_ok());
    while (app.replies == replies_before) {
      if (!bench.sci.simulator().step()) break;
    }
    reply_ms.add((bench.sci.now() - before).millis_f());
  }
  state.counters["mode"] = static_cast<double>(state.range(0));
  state.counters["reply_ms_mean"] = reply_ms.mean();
  state.counters["configs_built"] =
      static_cast<double>(
          bench.range->node_counter("cs.configurations_built")->value());
  state.counters["answered"] =
      static_cast<double>(
          bench.range->node_counter("cs.queries.answered")->value());
}

}  // namespace

BENCHMARK(BM_QuerySerialize);
BENCHMARK(BM_QueryParse)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_QueryRoundTrip)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ResolvePerMode)
    ->Arg(static_cast<int>(query::QueryMode::kProfileRequest))
    ->Arg(static_cast<int>(query::QueryMode::kEventSubscription))
    ->Arg(static_cast<int>(query::QueryMode::kOneTimeSubscription))
    ->Arg(static_cast<int>(query::QueryMode::kAdvertisementRequest))
    ->Unit(benchmark::kMillisecond)
    ->Iterations(100);

BENCHMARK_MAIN();
