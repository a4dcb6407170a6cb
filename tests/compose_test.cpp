// Unit tests for sci::compose — semantic matching, the backward-chaining
// resolver (Fig 3), and the configuration store's subgraph reuse.
#include <gtest/gtest.h>

#include <algorithm>

#include "compose/resolver.h"
#include "compose/semantics.h"
#include "compose/store.h"
#include "compose/views.h"
#include "entity/sensors.h"

namespace sci::compose {
namespace {

using entity::Profile;
using entity::TypeSig;

Guid guid_of(std::uint64_t n) { return Guid(0, n); }

Profile make_profile(std::uint64_t id, std::vector<TypeSig> inputs,
                     std::vector<TypeSig> outputs) {
  Profile p;
  p.entity = guid_of(id);
  p.name = "e" + std::to_string(id);
  p.inputs = std::move(inputs);
  p.outputs = std::move(outputs);
  return p;
}

// ------------------------------------------------------------- semantics

TEST(SemanticRegistryTest, NameMatching) {
  SemanticRegistry registry;
  EXPECT_TRUE(registry.matches({"temp", "", ""}, {"temp", "", ""}));
  EXPECT_FALSE(registry.matches({"temp", "", ""}, {"humidity", "", ""}));
  // Empty requested type + no semantics matches nothing by name alone.
  EXPECT_FALSE(registry.matches({"", "", ""}, {"temp", "", ""}));
}

TEST(SemanticRegistryTest, UnitMatching) {
  SemanticRegistry registry;
  EXPECT_TRUE(registry.matches({"t", "celsius", ""}, {"t", "celsius", ""}));
  EXPECT_FALSE(registry.matches({"t", "kelvin", ""}, {"t", "pascal", ""}));
  // Requested "" accepts any unit.
  EXPECT_TRUE(registry.matches({"t", "", ""}, {"t", "celsius", ""}));
  // Built-in celsius↔fahrenheit conversion.
  EXPECT_TRUE(registry.matches({"t", "celsius", ""}, {"t", "fahrenheit", ""}));
  registry.add_unit_conversion("pascal", "bar");
  EXPECT_TRUE(registry.matches({"p", "bar", ""}, {"p", "pascal", ""}));
  EXPECT_FALSE(registry.matches({"p", "pascal", ""}, {"p", "bar", ""}));
}

TEST(SemanticRegistryTest, SemanticEquivalence) {
  SemanticRegistry registry;
  // Same semantic tag, different names.
  EXPECT_TRUE(registry.matches({"", "", "position"},
                               {"wifi.location", "", "position"}));
  // Alias chains are transitive and symmetric.
  registry.add_semantic_alias("position", "location");
  registry.add_semantic_alias("location", "whereabouts");
  EXPECT_TRUE(registry.semantics_equivalent("position", "whereabouts"));
  EXPECT_TRUE(registry.semantics_equivalent("whereabouts", "position"));
  EXPECT_TRUE(
      registry.matches({"", "", "whereabouts"}, {"gps.fix", "", "position"}));
  EXPECT_FALSE(registry.semantics_equivalent("position", "velocity"));
  EXPECT_FALSE(registry.semantics_equivalent("", "position"));
}

TEST(SemanticRegistryTest, StrictSyntacticDisablesSemanticPath) {
  SemanticRegistry registry;
  const RequestedType want{"", "", "position"};
  const TypeSig provided{"wifi.location", "", "position"};
  EXPECT_TRUE(registry.matches(want, provided, /*strict=*/false));
  EXPECT_FALSE(registry.matches(want, provided, /*strict=*/true));
  // Name matches still work in strict mode.
  EXPECT_TRUE(registry.matches({"wifi.location", "", ""}, provided, true));
}

TEST(SemanticRegistryTest, ContradictorySemanticsBlockNameMatch) {
  SemanticRegistry registry;
  EXPECT_FALSE(
      registry.matches({"data", "", "position"}, {"data", "", "velocity"}));
  EXPECT_TRUE(registry.matches({"data", "", ""}, {"data", "", "velocity"}));
}

// -------------------------------------------------------------- resolver

struct ResolverFixture {
  SemanticRegistry registry;
  Resolver resolver{&registry};

  // The Fig 3 population: door sensors → objLocation → path.
  std::vector<Profile> fig3() {
    std::vector<Profile> live;
    live.push_back(make_profile(
        1, {}, {{entity::types::kDoorTransit, "", "transit"}}));
    live.push_back(make_profile(
        2, {}, {{entity::types::kDoorTransit, "", "transit"}}));
    live.push_back(make_profile(
        3, {{entity::types::kDoorTransit, "", "transit"}},
        {{entity::types::kLocationUpdate, "", "position"}}));
    live.push_back(make_profile(
        4, {{entity::types::kLocationUpdate, "", "position"}},
        {{entity::types::kPathUpdate, "", "route"}}));
    return live;
  }
};

TEST(ResolverTest, GroundsTheFig3Chain) {
  ResolverFixture f;
  ResolveRequest request;
  request.requested = {entity::types::kPathUpdate, "", ""};
  request.tag = 42;
  const auto plan = f.resolver.resolve(request, f.fig3());
  ASSERT_TRUE(plan.has_value()) << plan.error().to_string();
  EXPECT_EQ(plan->tag, 42u);
  EXPECT_EQ(plan->sink, guid_of(4));
  EXPECT_EQ(plan->sink_type, entity::types::kPathUpdate);
  EXPECT_EQ(plan->entities.size(), 4u);
  EXPECT_EQ(plan->entities.front(), guid_of(4));  // sink first
  // Edges: objLocation ← both door sensors, path ← objLocation.
  ASSERT_EQ(plan->edges.size(), 3u);
  int door_edges = 0;
  for (const PlanEdge& edge : plan->edges) {
    if (edge.consumer == guid_of(3)) {
      EXPECT_EQ(edge.event_type, entity::types::kDoorTransit);
      ++door_edges;
    } else {
      EXPECT_EQ(edge.consumer, guid_of(4));
      EXPECT_EQ(edge.producer, guid_of(3));
    }
  }
  EXPECT_EQ(door_edges, 2);  // subscribes to ALL door sensors
  EXPECT_GE(plan->depth(), 2u);
}

TEST(ResolverTest, SourceOnlyRequestIsDepthOne) {
  ResolverFixture f;
  ResolveRequest request;
  request.requested = {entity::types::kDoorTransit, "", ""};
  const auto plan = f.resolver.resolve(request, f.fig3());
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->edges.empty());
  EXPECT_EQ(plan->entities.size(), 1u);
}

TEST(ResolverTest, FailsWhenNoProducerExists) {
  ResolverFixture f;
  ResolveRequest request;
  request.requested = {"nonexistent.type", "", ""};
  const auto plan = f.resolver.resolve(request, f.fig3());
  ASSERT_FALSE(plan.has_value());
  EXPECT_EQ(plan.error().code(), ErrorCode::kUnresolvable);
  EXPECT_EQ(f.resolver.stats().failures, 1u);
}

TEST(ResolverTest, FailsWhenChainCannotGround) {
  ResolverFixture f;
  // Path CE exists but its location input has no producer.
  std::vector<Profile> live;
  live.push_back(make_profile(
      4, {{entity::types::kLocationUpdate, "", "position"}},
      {{entity::types::kPathUpdate, "", "route"}}));
  ResolveRequest request;
  request.requested = {entity::types::kPathUpdate, "", ""};
  EXPECT_FALSE(f.resolver.resolve(request, live).has_value());
}

TEST(ResolverTest, SemanticMatchBridgesAlternativeSources) {
  ResolverFixture f;
  // No door sensors; a wlan chain provides position under a different
  // event-type name.
  std::vector<Profile> live;
  live.push_back(
      make_profile(10, {}, {{entity::types::kWlanSighting, "dbm", "presence"}}));
  live.push_back(make_profile(
      11, {{entity::types::kWlanSighting, "dbm", "presence"}},
      {{entity::types::kLocationUpdate, "", "position"}}));
  live.push_back(make_profile(
      4, {{entity::types::kLocationUpdate, "", "position"}},
      {{entity::types::kPathUpdate, "", "route"}}));
  ResolveRequest request;
  request.requested = {"", "", "route"};  // semantic-only request
  const auto plan = f.resolver.resolve(request, live);
  ASSERT_TRUE(plan.has_value()) << plan.error().to_string();
  EXPECT_EQ(plan->sink, guid_of(4));
  EXPECT_EQ(plan->entities.size(), 3u);
}

TEST(ResolverTest, StrictSyntacticCannotUseSemanticSources) {
  ResolverFixture f;
  // A consumer wants "door.location" by semantic; only a differently named
  // producer exists.
  std::vector<Profile> live;
  live.push_back(make_profile(
      20, {}, {{"wifi.position.estimate", "", "position"}}));
  ResolveRequest semantic_request;
  semantic_request.requested = {"", "", "position"};
  EXPECT_TRUE(f.resolver.resolve(semantic_request, live).has_value());
  ResolveRequest strict_request = semantic_request;
  strict_request.strict_syntactic = true;
  EXPECT_FALSE(f.resolver.resolve(strict_request, live).has_value());
}

TEST(ResolverTest, CyclesAreRejectedNotLooped) {
  ResolverFixture f;
  // A needs B's output, B needs A's output: no grounded plan.
  std::vector<Profile> live;
  live.push_back(make_profile(1, {{"b.out", "", ""}}, {{"a.out", "", ""}}));
  live.push_back(make_profile(2, {{"a.out", "", ""}}, {{"b.out", "", ""}}));
  ResolveRequest request;
  request.requested = {"a.out", "", ""};
  EXPECT_FALSE(f.resolver.resolve(request, live).has_value());
}

TEST(ResolverTest, SelfFeedingEntityIsNotGrounded) {
  ResolverFixture f;
  // An entity that consumes its own output type cannot ground itself.
  std::vector<Profile> live;
  live.push_back(make_profile(1, {{"x", "", ""}}, {{"x", "", ""}}));
  ResolveRequest request;
  request.requested = {"x", "", ""};
  EXPECT_FALSE(f.resolver.resolve(request, live).has_value());
}

TEST(ResolverTest, DeterministicSinkChoice) {
  ResolverFixture f;
  std::vector<Profile> live;
  live.push_back(make_profile(9, {}, {{"t", "", ""}}));
  live.push_back(make_profile(5, {}, {{"t", "", ""}}));
  ResolveRequest request;
  request.requested = {"t", "", ""};
  const auto plan1 = f.resolver.resolve(request, live);
  std::reverse(live.begin(), live.end());
  const auto plan2 = f.resolver.resolve(request, live);
  ASSERT_TRUE(plan1.has_value());
  ASSERT_TRUE(plan2.has_value());
  EXPECT_EQ(plan1->sink, plan2->sink);
  EXPECT_EQ(plan1->sink, guid_of(5));  // lowest GUID wins
}

TEST(ResolverTest, SinkParamsArePropagated) {
  ResolverFixture f;
  ResolveRequest request;
  request.requested = {entity::types::kPathUpdate, "", ""};
  request.sink_params = vmap({{"from", guid_of(100)}, {"to", guid_of(101)}});
  const auto plan = f.resolver.resolve(request, f.fig3());
  ASSERT_TRUE(plan.has_value());
  ASSERT_TRUE(plan->params.contains(guid_of(4)));
  EXPECT_EQ(plan->params.at(guid_of(4)).at("from"), Value(guid_of(100)));
}

TEST(ResolverTest, DepthLimitBounds) {
  ResolverFixture f;
  // A chain of depth 20: t0 ← t1 ← … ← t20 (t20 is the source).
  std::vector<Profile> live;
  for (int i = 0; i < 20; ++i) {
    live.push_back(make_profile(
        static_cast<std::uint64_t>(i + 1),
        {{"t" + std::to_string(i + 1), "", ""}},
        {{"t" + std::to_string(i), "", ""}}));
  }
  live.push_back(make_profile(21, {}, {{"t20", "", ""}}));
  ResolveRequest request;
  request.requested = {"t0", "", ""};
  request.max_depth = 8;
  EXPECT_FALSE(f.resolver.resolve(request, live).has_value());
  request.max_depth = 64;
  EXPECT_TRUE(f.resolver.resolve(request, live).has_value());
}

// ----------------------------------------------------------------- store

ConfigurationPlan tiny_plan(std::uint64_t tag, std::uint64_t sink,
                            std::vector<std::pair<std::uint64_t, std::uint64_t>>
                                edges) {
  ConfigurationPlan plan;
  plan.tag = tag;
  plan.sink = guid_of(sink);
  plan.sink_type = "t";
  plan.entities.push_back(guid_of(sink));
  for (const auto& [producer, consumer] : edges) {
    plan.edges.push_back(PlanEdge{guid_of(producer), guid_of(consumer), "t", {}});
    plan.entities.push_back(guid_of(producer));
  }
  return plan;
}

TEST(ConfigurationStoreTest, ReuseSharesIdenticalEdges) {
  ConfigurationStore store(/*enable_reuse=*/true);
  const auto first =
      store.admit({tiny_plan(1, 3, {{1, 3}, {2, 3}}), guid_of(90), "q1", false});
  EXPECT_EQ(first.size(), 2u);
  const auto second =
      store.admit({tiny_plan(2, 3, {{1, 3}, {2, 3}}), guid_of(91), "q2", false});
  EXPECT_TRUE(second.empty());  // fully shared
  EXPECT_EQ(store.stats().edges_created, 2u);
  EXPECT_EQ(store.stats().edges_shared, 2u);

  // First retire releases nothing (edges still used by config 2).
  EXPECT_TRUE(store.retire(1).empty());
  // Second retire releases both.
  EXPECT_EQ(store.retire(2).size(), 2u);
  EXPECT_EQ(store.stats().edges_torn_down, 2u);
}

TEST(ConfigurationStoreTest, NoReuseDuplicatesEverything) {
  ConfigurationStore store(/*enable_reuse=*/false);
  EXPECT_EQ(store.admit({tiny_plan(1, 3, {{1, 3}}), guid_of(90), "q", false})
                .size(),
            1u);
  EXPECT_EQ(store.admit({tiny_plan(2, 3, {{1, 3}}), guid_of(91), "q", false})
                .size(),
            1u);
  EXPECT_EQ(store.stats().edges_created, 2u);
  EXPECT_EQ(store.stats().edges_shared, 0u);
}

TEST(ConfigurationStoreTest, RetireUnknownTagIsEmpty) {
  ConfigurationStore store;
  EXPECT_TRUE(store.retire(99).empty());
}

TEST(ConfigurationStoreTest, TagsInvolvingFindsParticipants) {
  ConfigurationStore store;
  store.admit({tiny_plan(1, 3, {{1, 3}}), guid_of(90), "q1", false});
  store.admit({tiny_plan(2, 4, {{2, 4}}), guid_of(91), "q2", false});
  EXPECT_EQ(store.tags_involving(guid_of(1)),
            (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(store.tags_involving(guid_of(99)).size(), 0u);
  EXPECT_EQ(store.distinct_entities(), 4u);
  EXPECT_EQ(store.all_tags(), (std::vector<std::uint64_t>{1, 2}));
}

TEST(ConfigurationStoreTest, ReplaceKeepsSharedEdgesAlive) {
  ConfigurationStore store;
  store.admit({tiny_plan(1, 3, {{1, 3}, {2, 3}}), guid_of(90), "q", false});
  // Recompose: edge {1,3} survives, {2,3} replaced by {4,3}.
  const auto diff =
      store.replace(1, {tiny_plan(1, 3, {{1, 3}, {4, 3}}), guid_of(90), "q",
                        false});
  ASSERT_EQ(diff.establish.size(), 1u);
  EXPECT_EQ(diff.establish[0].producer, guid_of(4));
  ASSERT_EQ(diff.tear_down.size(), 1u);
  EXPECT_EQ(diff.tear_down[0].producer, guid_of(2));
  // The shared edge was never torn down.
  const auto final_teardown = store.retire(1);
  EXPECT_EQ(final_teardown.size(), 2u);
}

TEST(ConfigurationStoreTest, OneTimeFlagAndFindRoundTrip) {
  ConfigurationStore store;
  store.admit({tiny_plan(7, 3, {}), guid_of(90), "q7", true});
  const ActiveConfiguration* active = store.find(7);
  ASSERT_NE(active, nullptr);
  EXPECT_TRUE(active->one_time);
  EXPECT_EQ(active->query_id, "q7");
  EXPECT_EQ(active->app, guid_of(90));
  EXPECT_EQ(store.find(8), nullptr);
}

// ------------------------------------------------------------- views

ViewEntry make_view(std::string key, std::vector<Guid> subjects,
                    SimTime built_at = SimTime::zero()) {
  ViewEntry entry;
  entry.key = std::move(key);
  entry.selection = subjects;
  entry.deps.subjects = std::move(subjects);
  entry.built_at = built_at;
  return entry;
}

TEST(ViewCacheTest, InstallLookupAndStats) {
  ViewCache cache(4);
  EXPECT_EQ(cache.lookup("a"), nullptr);
  EXPECT_FALSE(cache.install(make_view("a", {guid_of(1)})));  // no eviction
  EXPECT_EQ(cache.size(), 1u);
  const ViewEntry* view = cache.lookup("a");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->key, "a");
  ASSERT_EQ(view->selection.size(), 1u);
  EXPECT_EQ(view->selection[0], guid_of(1));
  EXPECT_EQ(view->hits, 1u);
}

TEST(ViewCacheTest, EvictsLeastRecentlyUsed) {
  ViewCache cache(2);
  EXPECT_FALSE(cache.install(make_view("a", {guid_of(1)})));
  EXPECT_FALSE(cache.install(make_view("b", {guid_of(2)})));
  ASSERT_NE(cache.lookup("a"), nullptr);  // "b" is now the LRU entry
  EXPECT_TRUE(cache.install(make_view("c", {guid_of(3)})));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.lookup("b"), nullptr);
  EXPECT_NE(cache.lookup("a"), nullptr);
  EXPECT_NE(cache.lookup("c"), nullptr);
  // Re-installing an existing key replaces in place, no eviction.
  EXPECT_FALSE(cache.install(make_view("a", {guid_of(9)})));
}

TEST(ViewCacheTest, InvalidateSubjectDropsDependentViewsOnly) {
  ViewCache cache(8);
  cache.install(make_view("a", {guid_of(1), guid_of(2)}));
  cache.install(make_view("b", {guid_of(3)}));
  EXPECT_EQ(cache.invalidate_subject(guid_of(2), SimTime::zero()), 1u);
  EXPECT_EQ(cache.lookup("a"), nullptr);
  EXPECT_NE(cache.lookup("b"), nullptr);
  EXPECT_EQ(cache.invalidate_subject(guid_of(2), SimTime::zero()), 0u);
}

TEST(ViewCacheTest, InvalidateMatchingByTypeAndServiceName) {
  SemanticRegistry registry;
  ViewCache cache(8);
  ViewEntry by_type = make_view("t", {});
  by_type.deps.types.push_back(RequestedType{"temperature", "celsius", ""});
  cache.install(std::move(by_type));
  ViewEntry by_service = make_view("s", {});
  by_service.deps.entity_types.push_back("printing");
  cache.install(std::move(by_service));

  // A new fahrenheit thermometer matches the celsius request semantically.
  Profile thermo = make_profile(7, {}, {{"temperature", "fahrenheit", ""}});
  EXPECT_EQ(cache.invalidate_matching(thermo, nullptr, registry,
                                      SimTime::zero()),
            1u);
  EXPECT_EQ(cache.lookup("t"), nullptr);
  EXPECT_NE(cache.lookup("s"), nullptr);

  // A new printer (by advertised service) matches the entity-type view.
  Profile printer = make_profile(8, {}, {});
  entity::Advertisement ad;
  ad.service = "printing";
  EXPECT_EQ(cache.invalidate_matching(printer, &ad, registry,
                                      SimTime::zero()),
            1u);
  EXPECT_EQ(cache.lookup("s"), nullptr);

  // An unrelated profile invalidates nothing.
  Profile humidity = make_profile(9, {}, {{"humidity", "", ""}});
  cache.install(make_view("u", {guid_of(1)}));
  EXPECT_EQ(cache.invalidate_matching(humidity, nullptr, registry,
                                      SimTime::zero()),
            0u);
}

TEST(ViewCacheTest, StalenessObserverSeesViewAge) {
  ViewCache cache(4);
  std::vector<double> ages;
  cache.set_staleness_observer([&](double age) { ages.push_back(age); });
  cache.install(make_view("a", {guid_of(1)}, SimTime::from_micros(1'000'000)));
  cache.invalidate_subject(guid_of(1), SimTime::from_micros(3'500'000));
  ASSERT_EQ(ages.size(), 1u);
  EXPECT_DOUBLE_EQ(ages[0], 2.5);
}

TEST(ViewCacheTest, EncodeDecodeRoundTripsEntries) {
  ViewCache cache(8);
  ViewEntry entry = make_view("k1", {guid_of(1), guid_of(2)},
                              SimTime::from_micros(42));
  entry.deps.types.push_back(RequestedType{"temperature", "celsius", "amb"});
  entry.deps.entity_types.push_back("printing");
  cache.install(std::move(entry));
  ConfigurationPlan plan = tiny_plan(5, 3, {});
  ViewEntry with_plan = make_view("k2", {guid_of(3)});
  with_plan.plan = plan;
  cache.install(std::move(with_plan));

  serde::Writer w(64);
  cache.encode(w);
  serde::Reader r(w.view());
  ViewCache copy(8);
  ASSERT_TRUE(copy.decode(r).is_ok());
  EXPECT_EQ(copy.size(), 2u);
  const ViewEntry* k1 = copy.lookup("k1");
  ASSERT_NE(k1, nullptr);
  EXPECT_EQ(k1->selection, (std::vector<Guid>{guid_of(1), guid_of(2)}));
  EXPECT_EQ(k1->built_at, SimTime::from_micros(42));
  ASSERT_EQ(k1->deps.types.size(), 1u);
  EXPECT_EQ(k1->deps.types[0].unit, "celsius");
  EXPECT_EQ(k1->deps.entity_types,
            (std::vector<std::string>{"printing"}));
  const ViewEntry* k2 = copy.lookup("k2");
  ASSERT_NE(k2, nullptr);
  ASSERT_TRUE(k2->plan.has_value());
  EXPECT_EQ(k2->plan->sink, plan.sink);
  EXPECT_EQ(k2->plan->entities, plan.entities);
}

TEST(ViewCacheTest, DecodeRespectsSmallerCapacity) {
  ViewCache cache(8);
  for (int i = 0; i < 6; ++i) {
    cache.install(make_view("k" + std::to_string(i), {guid_of(1)}));
  }
  serde::Writer w(64);
  cache.encode(w);
  serde::Reader r(w.view());
  ViewCache small(2);
  ASSERT_TRUE(small.decode(r).is_ok());
  EXPECT_LE(small.size(), 2u);
}

}  // namespace
}  // namespace sci::compose
