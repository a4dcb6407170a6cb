// Tests for the observability layer: metrics registry semantics, snapshot
// aggregation, JSON rendering, trace-ring wraparound, and the hot-path
// no-allocation contract.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <new>
#include <set>
#include <sstream>
#include <string>

#include "core/sci.h"
#include "mobility/building.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serde/buffer.h"
#include "serde/value.h"

// ---------------------------------------------------------------------------
// Allocation counting: replacement global operator new so the test can prove
// metric updates and trace records never allocate (the event-delivery hot
// path depends on it).

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

namespace sci {
namespace {

// ------------------------------------------------------------------ metrics

TEST(MetricsTest, CounterSemantics) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsTest, GaugeSemantics) {
  obs::MetricsRegistry registry;
  obs::Gauge& g = registry.gauge("test.gauge");
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(MetricsTest, HistogramSemantics) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("test.histogram");
  h.observe(1.0);
  h.observe(2.0);
  h.observe(3.0);
  EXPECT_EQ(h.stats().count(), 3u);
  EXPECT_DOUBLE_EQ(h.stats().mean(), 2.0);
  EXPECT_DOUBLE_EQ(h.stats().min(), 1.0);
  EXPECT_DOUBLE_EQ(h.stats().max(), 3.0);
  h.reset();
  EXPECT_EQ(h.stats().count(), 0u);
}

TEST(MetricsTest, InterningReturnsTheSameSlot) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("shared", "x");
  obs::Counter& b = registry.counter("shared", "x");
  EXPECT_EQ(&a, &b);
  obs::Counter& other_label = registry.counter("shared", "y");
  EXPECT_NE(&a, &other_label);
  // Counters, gauges and histograms live in separate namespaces.
  (void)registry.gauge("shared", "x");
  EXPECT_EQ(registry.counter_count(), 2u);
  EXPECT_EQ(registry.gauge_count(), 1u);
  // Symbols are shared: "shared" and the two labels = 3 strings.
  EXPECT_EQ(registry.symbol_count(), 3u);
  EXPECT_EQ(registry.name_of(registry.intern("shared")), "shared");
}

TEST(MetricsTest, SlotPointersSurviveRegistryGrowth) {
  obs::MetricsRegistry registry;
  obs::Counter* first = &registry.counter("first");
  for (int i = 0; i < 1000; ++i) {
    (void)registry.counter("growth." + std::to_string(i));
  }
  first->inc();
  EXPECT_EQ(registry.counter("first").value(), 1u);
}

TEST(MetricsTest, SnapshotAggregatesLabelledFamilies) {
  obs::MetricsRegistry registry;
  registry.counter("load", "n1").inc(5);
  registry.counter("load", "n2").inc(9);
  registry.counter("load", "n3").inc(2);
  registry.counter("other").inc(100);
  registry.gauge("depth").set(7.0);
  registry.histogram("lat").observe(4.0);

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("load", "n2"), 9u);
  EXPECT_EQ(snap.counter("load", "missing"), 0u);
  EXPECT_EQ(snap.counter_sum("load"), 16u);
  EXPECT_EQ(snap.counter_max("load"), 9u);
  EXPECT_EQ(snap.counter_family_size("load"), 3u);
  EXPECT_EQ(snap.counter("other"), 100u);
  EXPECT_DOUBLE_EQ(snap.gauge("depth"), 7.0);
  const auto* lat = snap.histogram("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 1u);
  EXPECT_DOUBLE_EQ(lat->mean, 4.0);
  EXPECT_EQ(snap.histogram("missing"), nullptr);
}

TEST(MetricsTest, FindCounterNeverInterns) {
  obs::MetricsRegistry registry;
  registry.counter("present", "n1").inc(4);
  const std::size_t symbols = registry.symbol_count();
  ASSERT_NE(registry.find_counter("present", "n1"), nullptr);
  EXPECT_EQ(registry.find_counter("present", "n1")->value(), 4u);
  EXPECT_EQ(registry.find_counter("present"), nullptr);
  EXPECT_EQ(registry.find_counter("present", "n2"), nullptr);
  EXPECT_EQ(registry.find_counter("absent"), nullptr);
  EXPECT_EQ(registry.symbol_count(), symbols);
  EXPECT_EQ(registry.counter_count(), 1u);
}

TEST(MetricsTest, TwinBumpsTheTotalAndTheLabelledSlot) {
  obs::MetricsRegistry registry;
  obs::TwinCounter a = registry.twin("events", "node=a");
  obs::TwinCounter b = registry.twin("events", "node=b");
  obs::TwinCounter bare = registry.twin("events", "");
  EXPECT_EQ(bare.labeled, nullptr);
  a.inc(2);
  b.inc();
  bare.inc();
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("events"), 4u);
  EXPECT_EQ(snap.counter("events", "node=a"), 2u);
  EXPECT_EQ(snap.counter("events", "node=b"), 1u);
}

TEST(MetricsTest, ResetZeroesButKeepsRegistrations) {
  obs::MetricsRegistry registry;
  obs::Counter* c = &registry.counter("c");
  obs::Histogram* h = &registry.histogram("h");
  c->inc(3);
  h->observe(1.0);
  registry.reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->stats().count(), 0u);
  EXPECT_EQ(registry.counter_count(), 1u);
  c->inc();  // cached pointer still valid
  EXPECT_EQ(registry.snapshot().counter("c"), 1u);
}

TEST(MetricsTest, SnapshotJsonRoundTripsThroughSerde) {
  obs::MetricsRegistry registry;
  registry.counter("net.sent").inc(12);
  registry.counter("load", "n1").inc(3);
  registry.gauge("depth").set(2.5);
  registry.histogram("hops").observe(4.0);

  const Value doc = registry.snapshot().to_json();
  // Binary serde round trip preserves the whole tree.
  serde::Writer w;
  doc.encode(w);
  const auto bytes = w.take_ref();
  serde::Reader r(bytes);
  const auto decoded = Value::decode(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, doc);

  // The tree carries the expected entries.
  EXPECT_EQ(doc.at("counters").at("net.sent").as_int().value_or(0), 12);
  EXPECT_EQ(
      doc.at("counter_families").at("load").at("n1").as_int().value_or(0), 3);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("depth").number_or(0.0), 2.5);
  EXPECT_DOUBLE_EQ(
      doc.at("histograms").at("hops").at("mean").number_or(0.0), 4.0);

  // Strict JSON rendering: key facts are present and GUID-free here.
  const std::string text = serde::to_json(doc);
  EXPECT_NE(text.find("\"net.sent\":12"), std::string::npos);
  EXPECT_NE(text.find("\"depth\":2.5"), std::string::npos);
}

TEST(MetricsTest, JsonEscapesAndQuotesGuids) {
  ValueMap map;
  map.emplace("quote\"key", std::string("line\nbreak"));
  map.emplace("id", Guid(0x1234, 0x5678));
  const std::string text = serde::to_json(Value(std::move(map)));
  EXPECT_NE(text.find("\"quote\\\"key\":\"line\\nbreak\""), std::string::npos);
  // GUIDs render as quoted strings, keeping the document valid JSON.
  EXPECT_NE(text.find("\"id\":\""), std::string::npos);
}

// -------------------------------------------------------------------- trace

TEST(TraceTest, RecordsAreKeptOldestFirst) {
  obs::TraceBuffer trace(8);
  const Guid a(1, 1);
  for (int i = 0; i < 5; ++i) {
    trace.record(SimTime::from_micros(i), obs::TraceKind::kMessageSend, a,
                 Guid(), static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(trace.size(), 5u);
  EXPECT_EQ(trace.total_recorded(), 5u);
  EXPECT_EQ(trace.overwritten(), 0u);
  const auto records = trace.snapshot();
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records.front().detail, 0u);
  EXPECT_EQ(records.back().detail, 4u);
}

TEST(TraceTest, RingWrapsOverwritingOldest) {
  obs::TraceBuffer trace(4);
  const Guid a(1, 1);
  for (int i = 0; i < 10; ++i) {
    trace.record(SimTime::from_micros(i), obs::TraceKind::kRouteHop, a,
                 Guid(), static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(trace.capacity(), 4u);
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.total_recorded(), 10u);
  EXPECT_EQ(trace.overwritten(), 6u);
  const auto records = trace.snapshot();
  ASSERT_EQ(records.size(), 4u);
  // The retained window is the newest four, oldest → newest.
  EXPECT_EQ(records[0].detail, 6u);
  EXPECT_EQ(records[3].detail, 9u);
}

TEST(TraceTest, DisabledBufferRecordsNothing) {
  obs::TraceBuffer trace(4);
  trace.set_enabled(false);
  trace.record(SimTime::from_micros(1), obs::TraceKind::kSubscribe, Guid(1, 1));
  EXPECT_EQ(trace.total_recorded(), 0u);
  trace.set_enabled(true);
  trace.record(SimTime::from_micros(2), obs::TraceKind::kSubscribe, Guid(1, 1));
  EXPECT_EQ(trace.total_recorded(), 1u);
}

TEST(TraceTest, JsonCarriesKindNamesAndGuids) {
  obs::TraceBuffer trace(8);
  trace.record(SimTime::from_micros(42), obs::TraceKind::kQueryForward,
               Guid(1, 2), Guid(3, 4), 7);
  const Value doc = trace.to_json();
  ASSERT_EQ(doc.get_list().size(), 1u);
  const Value& rec = doc.get_list().front();
  EXPECT_EQ(rec.at("kind").string_or(""), "query_forward");
  EXPECT_EQ(rec.at("at_us").as_int().value_or(-1), 42);
  EXPECT_EQ(rec.at("detail").as_int().value_or(-1), 7);
  EXPECT_EQ(rec.at("a").as_guid().value_or(Guid()), Guid(1, 2));
  EXPECT_EQ(rec.at("b").as_guid().value_or(Guid()), Guid(3, 4));
}

TEST(TraceTest, JsonLimitKeepsTheNewestRecords) {
  obs::TraceBuffer trace(16);
  for (int i = 0; i < 10; ++i) {
    trace.record(SimTime::from_micros(i), obs::TraceKind::kMessageSend,
                 Guid(1, 1), Guid(), static_cast<std::uint64_t>(i));
  }
  const Value doc = trace.to_json(/*limit=*/3);
  ASSERT_EQ(doc.get_list().size(), 3u);
  EXPECT_EQ(doc.get_list().front().at("detail").as_int().value_or(-1), 7);
  EXPECT_EQ(doc.get_list().back().at("detail").as_int().value_or(-1), 9);
}

// --------------------------------------------------------------- hot path

TEST(ObsAllocationTest, MetricUpdatesAndTraceRecordsDoNotAllocate) {
  obs::MetricsRegistry registry;
  // Interning may allocate; do it before the measured window.
  obs::Counter& c = registry.counter("alloc.counter", "node");
  obs::Gauge& g = registry.gauge("alloc.gauge");
  obs::Histogram& h = registry.histogram("alloc.histogram");
  obs::TwinCounter t = registry.twin("alloc.twin", "node=1");
  obs::TraceBuffer trace(64);
  const Guid a(1, 2);
  const Guid b(3, 4);

  const std::uint64_t before = g_allocations;
  for (int i = 0; i < 10000; ++i) {
    c.inc();
    c.inc(3);
    t.inc();
    g.set(static_cast<double>(i));
    g.add(0.5);
    h.observe(static_cast<double>(i));
    trace.record(SimTime::from_micros(i), obs::TraceKind::kMessageDeliver, a,
                 b, 9);
  }
  EXPECT_EQ(g_allocations, before)
      << "hot-path instrument updates must not allocate";
}

// ---------------------------------------------------------------- catalogue

// Every name in the table under docs/OBSERVABILITY.md's "Metric catalogue"
// heading.
std::set<std::string> documented_metric_names() {
  std::ifstream doc(SCI_OBSERVABILITY_DOC);
  EXPECT_TRUE(doc.is_open()) << SCI_OBSERVABILITY_DOC;
  std::set<std::string> names;
  std::string line;
  bool in_catalogue = false;
  while (std::getline(doc, line)) {
    if (line.rfind("## ", 0) == 0) in_catalogue = line == "## Metric catalogue";
    if (!in_catalogue || line.rfind("| `", 0) != 0) continue;
    const std::size_t end = line.find('`', 3);
    if (end != std::string::npos) names.insert(line.substr(3, end - 3));
  }
  return names;
}

std::string join(const std::set<std::string>& names) {
  std::ostringstream out;
  for (const std::string& name : names) out << "\n  " << name;
  return out.str();
}

// The catalogue is the registry's documentation: a deployment with every
// layer switched on registers exactly the documented names. Sharded,
// replicated (two standbys, so elections run), durable, view-backed, acked
// delivery (a facade default), and two ranges so the SCINET overlay forms.
TEST(MetricsCatalogueTest, FullStackRegistersExactlyTheDocumentedNames) {
  Sci sci{42};
  mobility::Building building{{.floors = 2, .rooms_per_floor = 4}};
  sci.set_location_directory(&building.directory());
  RangeOptions options;
  options.sharding.shard_count = 2;
  options.replication.standby_count = 2;
  options.durability.enable = true;
  ASSERT_TRUE(options.views.enable);
  ASSERT_TRUE(options.reliability.acked_delivery);
  ASSERT_TRUE(
      bool(sci.create_range("levelA", building.floor_path(0), options)));
  ASSERT_TRUE(
      bool(sci.create_range("levelB", building.floor_path(1), options)));
  sci.run_for(Duration::seconds(1));

  std::set<std::string> registered;
  const obs::MetricsSnapshot snap = sci.metrics().snapshot();
  for (const auto& entry : snap.counters) registered.insert(entry.name);
  for (const auto& entry : snap.gauges) registered.insert(entry.name);
  for (const auto& entry : snap.histograms) registered.insert(entry.name);

  const std::set<std::string> documented = documented_metric_names();
  std::set<std::string> undocumented;
  std::set<std::string> unregistered;
  for (const std::string& name : registered) {
    if (!documented.contains(name)) undocumented.insert(name);
  }
  for (const std::string& name : documented) {
    if (!registered.contains(name)) unregistered.insert(name);
  }
  EXPECT_TRUE(undocumented.empty())
      << "registered but missing from the catalogue:" << join(undocumented);
  EXPECT_TRUE(unregistered.empty())
      << "catalogued but never registered:" << join(unregistered);
}

}  // namespace
}  // namespace sci
