// Experiment F2 — Figure 2 (structure of a Range).
//
// The paper argues a centralised, always-on Context Server per Range is
// justified by "the complexity and timely response required when providing
// contextual information". This bench measures the CS's core utility
// operations as the range population grows:
//
// BM_RegistrationHandshake/N — full Fig 5 handshake latency with N members
//                              already registered.
// BM_ProfileOps/N            — Profile Manager get/update throughput.
// BM_SubscriptionChurn/N     — Event Mediator subscribe/unsubscribe cost.
// BM_EventDispatch/N/S       — event fan-out through the mediator with N
//                              registered members and S subscribers.
// BM_ZeroCopyFanout/S        — publish→deliver through dispatch_shared with
//                              S subscribers (the arena-pooled hot path).
// BM_ZeroCopyHotPath         — the gated experiment (docs/MEMORY.md): the
//                              same fan-out timed once, plus a global
//                              operator-new audit of the steady state.
//
// Expected shape: registration and profile ops stay near-constant in N
// (hash-indexed stores); dispatch scales with the matched subscriber count,
// not with the population. The fan-out must perform zero allocations per
// delivered event; the audit and the throughput land in BENCH_fig2.json
// ("zero_copy/fanout") and CI gates on the audit. Fan-out throughput
// regressions are caught end to end by bench/e2e's firehose workload.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "bench_report.h"
#include "common/stats.h"
#include "core/sci.h"
#include "entity/sensors.h"
#include "event/event.h"
#include "mem/arena.h"
#include "net/network.h"
#include "range/event_mediator.h"
#include "serde/buffer.h"
#include "sim/simulator.h"

// ---------------------------------------------------------------------------
// Allocation counting (same idiom as tests/mem_test.cpp): replacement global
// operator new so the bench can prove — not estimate — that the steady-state
// publish→deliver cycle never touches the heap.

namespace {
std::uint64_t g_allocations = 0;
}  // namespace

// GCC pairs the replacement operator delete's std::free against its builtin
// operator new and warns; the pairing here is in fact malloc/free on both
// sides.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace sci;

struct RangeBench {
  Sci sci{7};
  mobility::Building building{{.floors = 4, .rooms_per_floor = 8}};
  range::ContextServer* range = nullptr;
  std::vector<std::unique_ptr<entity::ContextEntity>> members;

  explicit RangeBench(std::size_t population) {
    sci.set_location_directory(&building.directory());
    range = sci.create_range("r", building.building_path()).value();
    for (std::size_t i = 0; i < population; ++i) {
      auto ce = std::make_unique<entity::ContextEntity>(
          sci.network(), sci.new_guid(), "m" + std::to_string(i),
          entity::EntityKind::kDevice);
      const Status enrolled = sci.enroll(*ce, *range);
      SCI_ASSERT(enrolled.is_ok());
      members.push_back(std::move(ce));
    }
  }
};

void BM_RegistrationHandshake(benchmark::State& state) {
  RangeBench bench(static_cast<std::size_t>(state.range(0)));
  RunningStats handshake_ms;
  std::uint64_t joined = 0;
  for (auto _ : state) {
    entity::ContextEntity fresh(bench.sci.network(), bench.sci.new_guid(),
                                "fresh", entity::EntityKind::kDevice);
    const SimTime before = bench.sci.now();
    const Status enrolled = bench.sci.enroll(fresh, *bench.range);
    SCI_ASSERT(enrolled.is_ok());
    handshake_ms.add((bench.sci.now() - before).millis_f());
    ++joined;
    fresh.stop();
    bench.sci.run_for(Duration::millis(10));
  }
  state.counters["population"] = static_cast<double>(state.range(0));
  state.counters["handshake_ms_mean"] = handshake_ms.mean();
  state.counters["handshakes"] = static_cast<double>(joined);
}

void BM_ProfileOps(benchmark::State& state) {
  RangeBench bench(static_cast<std::size_t>(state.range(0)));
  std::size_t i = 0;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    auto& member = *bench.members[i % bench.members.size()];
    member.set_metadata(vmap({{"tick", static_cast<std::int64_t>(i)}}));
    bench.sci.run_for(Duration::millis(5));
    benchmark::DoNotOptimize(
        bench.range->profiles().profile(member.id()));
    ++i;
    ++ops;
  }
  state.counters["population"] = static_cast<double>(state.range(0));
  state.counters["profile_updates"] =
      static_cast<double>(bench.range->profiles().updates());
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

void BM_SubscriptionChurn(benchmark::State& state) {
  RangeBench bench(static_cast<std::size_t>(state.range(0)));
  // Measure the mediator data structure directly: the protocol path is
  // covered by BM_EventDispatch.
  range::EventMediator mediator(bench.sci.network(),
                                bench.range->server_node());
  Rng rng(3);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    const Guid subscriber =
        bench.members[rng.next_below(bench.members.size())]->id();
    const auto id = mediator.subscribe(subscriber, std::nullopt,
                                       "type" + std::to_string(ops % 32), {});
    benchmark::DoNotOptimize(id);
    (void)mediator.unsubscribe(id);
    ops += 2;
  }
  state.counters["population"] = static_cast<double>(state.range(0));
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

void BM_EventDispatch(benchmark::State& state) {
  RangeBench bench(static_cast<std::size_t>(state.range(0)));
  const auto subscribers = static_cast<std::size_t>(state.range(1));
  // One producer publishes; S members subscribe through real queries.
  entity::TemperatureSensorCE sensor(bench.sci.network(),
                                     bench.sci.new_guid(), "sensor",
                                     "celsius", Duration::seconds(3600));
  SCI_ASSERT(bench.sci.enroll(sensor, *bench.range).is_ok());

  struct CountingApp final : entity::ContextAwareApp {
    using ContextAwareApp::ContextAwareApp;
    std::uint64_t received = 0;
    void on_event(const event::Event&, std::uint64_t) override {
      ++received;
    }
  };
  std::vector<std::unique_ptr<CountingApp>> apps;
  for (std::size_t i = 0; i < subscribers; ++i) {
    auto app = std::make_unique<CountingApp>(
        bench.sci.network(), bench.sci.new_guid(),
        "app" + std::to_string(i), entity::EntityKind::kSoftware);
    SCI_ASSERT(bench.sci.enroll(*app, *bench.range).is_ok());
    const std::string xml =
        query::Builder("q" + std::to_string(i), app->id())
            .what_pattern(entity::types::kTemperature)
            .mode(query::QueryMode::kEventSubscription)
            .to_xml();
    SCI_ASSERT(app->submit_query("q" + std::to_string(i), xml).is_ok());
    apps.push_back(std::move(app));
  }
  bench.sci.run_for(Duration::millis(100));

  std::uint64_t published = 0;
  for (auto _ : state) {
    sensor.publish(entity::types::kTemperature,
                   vmap({{"value", 20.0}, {"unit", "celsius"}}));
    bench.sci.run_for(Duration::millis(20));
    ++published;
  }
  std::uint64_t received = 0;
  for (const auto& app : apps) received += app->received;
  state.counters["population"] = static_cast<double>(state.range(0));
  state.counters["subscribers"] = static_cast<double>(subscribers);
  state.counters["fanout_delivered"] =
      published > 0
          ? static_cast<double>(received) / static_cast<double>(published)
          : 0.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(received));
}

// ------------------------------------------------------------- zero-copy

// Minimal publish→deliver harness: a bare mediator over a bare network, no
// reliable channel (its pending map is a per-send rendezvous — measured in
// fig9, deliberately excluded here so the arena is the only variable).
// Every subscriber's handler does the real consumer-side work zero-copy
// style: peel the DeliverBody's two-varint prefix and parse an EventView
// straight off the arriving frame, no materialisation.
struct FanoutHarness {
  sim::Simulator simulator{11};
  net::Network network{simulator};
  Guid producer{0xF1600001, 0x1};
  range::EventMediator mediator{network, producer};
  std::uint64_t delivered = 0;

  explicit FanoutHarness(std::size_t subscribers) {
    SCI_ASSERT(network.attach(producer, [](const net::Message&) {}).is_ok());
    for (std::size_t i = 0; i < subscribers; ++i) {
      const Guid node(0xF1600002, i + 1);
      const Status attached =
          network.attach(node, [this](const net::Message& m) { consume(m); });
      SCI_ASSERT(attached.is_ok());
      (void)mediator.subscribe(node, std::nullopt, "pulse", {});
    }
  }

  void consume(const net::Message& m) {
    serde::Reader r(m.payload);
    const auto subscription = r.varint();
    const auto owner_tag = r.varint();
    if (!subscription.has_value() || !owner_tag.has_value()) return;
    const serde::FrameView event_bytes = serde::FrameView(m.payload).subview(
        r.position(), m.payload.size() - r.position());
    const auto view = event::EventView::parse(event_bytes);
    if (!view.has_value()) return;
    benchmark::DoNotOptimize(view->sequence());
    ++delivered;
  }

  void pump(event::Event& event, std::uint64_t sequence) {
    event.sequence = sequence;
    (void)mediator.dispatch_shared(event);
    (void)simulator.run_all();
  }
};

// A representative context event: a handful of typed fields, the shape a
// sensor CE publishes every reading.
event::Event make_pulse(Guid source) {
  event::Event event;
  event.type = "pulse";
  event.source = source;
  event.payload = vmap({{"value", 21.5},
                        {"unit", std::string("celsius")},
                        {"floor", static_cast<std::int64_t>(3)},
                        {"room", std::string("3.14")},
                        {"battery", 0.87},
                        {"firmware", std::string("ce-2.4.1")}});
  return event;
}

constexpr std::uint64_t kFanoutWarmup = 256;

// Delivered events per wall-clock second.
double fanout_events_per_sec(std::size_t subscribers, std::uint64_t events) {
  FanoutHarness harness(subscribers);
  event::Event event = make_pulse(harness.producer);
  std::uint64_t sequence = 1;
  for (std::uint64_t i = 0; i < kFanoutWarmup; ++i) {
    harness.pump(event, sequence++);
  }
  const std::uint64_t before = harness.delivered;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < events; ++i) {
    harness.pump(event, sequence++);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t delivered = harness.delivered - before;
  SCI_ASSERT(delivered == events * subscribers);
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  return seconds > 0.0 ? static_cast<double>(delivered) / seconds : 0.0;
}

// Heap allocations across a steady-state publish→deliver region. The
// contract this gates: zero.
std::uint64_t fanout_steady_state_allocs(std::size_t subscribers,
                                         std::uint64_t events,
                                         std::uint64_t* delivered_out) {
  FanoutHarness harness(subscribers);
  event::Event event = make_pulse(harness.producer);
  std::uint64_t sequence = 1;
  for (std::uint64_t i = 0; i < kFanoutWarmup; ++i) {
    harness.pump(event, sequence++);
  }
  const std::uint64_t before_delivered = harness.delivered;
  const std::uint64_t before_allocs = g_allocations;
  for (std::uint64_t i = 0; i < events; ++i) {
    harness.pump(event, sequence++);
  }
  const std::uint64_t allocs = g_allocations - before_allocs;
  *delivered_out = harness.delivered - before_delivered;
  return allocs;
}

void BM_ZeroCopyFanout(benchmark::State& state) {
  const auto subscribers = static_cast<std::size_t>(state.range(0));
  FanoutHarness harness(subscribers);
  event::Event event = make_pulse(harness.producer);
  std::uint64_t sequence = 1;
  for (std::uint64_t i = 0; i < kFanoutWarmup; ++i) {
    harness.pump(event, sequence++);
  }
  for (auto _ : state) {
    harness.pump(event, sequence++);
  }
  state.counters["subscribers"] = static_cast<double>(subscribers);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(subscribers));
}

void BM_ZeroCopyHotPath(benchmark::State& state) {
  constexpr std::size_t kSubscribers = 16;
  constexpr std::uint64_t kEvents = 20000;
  double zero_copy_rate = 0.0;
  std::uint64_t steady_allocs = 0;
  std::uint64_t steady_delivered = 0;
  for (auto _ : state) {
    zero_copy_rate = fanout_events_per_sec(kSubscribers, kEvents);
    steady_allocs =
        fanout_steady_state_allocs(kSubscribers, kEvents, &steady_delivered);
  }
  const double allocs_per_event =
      steady_delivered > 0
          ? static_cast<double>(steady_allocs) /
                static_cast<double>(steady_delivered)
          : 0.0;
  state.counters["allocs_per_delivered_event"] = allocs_per_event;
  state.counters["zero_copy_events_per_sec"] = zero_copy_rate;

  const mem::ArenaStats& arena = mem::BufferArena::global().stats();
  ValueMap doc;
  doc.emplace("subscribers", static_cast<std::int64_t>(kSubscribers));
  doc.emplace("events", static_cast<std::int64_t>(kEvents));
  doc.emplace("zero_copy_events_per_sec", zero_copy_rate);
  doc.emplace("allocs_per_delivered_event", allocs_per_event);
  doc.emplace("steady_state_allocs", static_cast<std::int64_t>(steady_allocs));
  doc.emplace("steady_state_deliveries",
              static_cast<std::int64_t>(steady_delivered));
  doc.emplace("arena_block_allocs",
              static_cast<std::int64_t>(arena.block_allocs));
  doc.emplace("arena_reuses", static_cast<std::int64_t>(arena.reuses));
  doc.emplace("arena_oversize", static_cast<std::int64_t>(arena.oversize));
  doc.emplace("arena_bytes_reserved",
              static_cast<std::int64_t>(arena.bytes_reserved));
  bench::add_run("zero_copy/fanout", Value(ValueMap(doc)));
}

}  // namespace

BENCHMARK(BM_RegistrationHandshake)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProfileOps)->Arg(10)->Arg(100)->Arg(1000);
BENCHMARK(BM_SubscriptionChurn)->Arg(10)->Arg(100)->Arg(1000);
BENCHMARK(BM_EventDispatch)
    ->Args({50, 1})
    ->Args({50, 8})
    ->Args({50, 32})
    ->Args({500, 8})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ZeroCopyFanout)->Arg(8)->Arg(32)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ZeroCopyHotPath)->Iterations(1)->Unit(benchmark::kMillisecond);

SCI_BENCHMARK_MAIN_WITH_REPORT("BENCH_fig2.json")
