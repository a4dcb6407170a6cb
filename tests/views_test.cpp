// Integration tests for materialized context views (docs/VIEWS.md) and the
// Sci::QueryHandle facade: repeated queries answered from views, incremental
// invalidation under churn, plan reuse for pattern subscriptions, query
// cancellation, and deferred-query timer lifetime.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/sci.h"
#include "entity/printer.h"
#include "entity/sensors.h"

#include "metric_counts.h"

namespace sci {
namespace {

class ProbeApp final : public entity::ContextAwareApp {
 public:
  using ContextAwareApp::ContextAwareApp;
  int replies = 0;
  int events = 0;
  bool last_ok = false;
  Error last_error;
  std::string last_winner;

 protected:
  void on_query_result(const std::string&, const Error& error,
                       const Value& result) override {
    ++replies;
    last_ok = error.ok();
    last_error = error;
    last_winner = error.ok() ? result.at("name").string_or("?") : "";
  }
  void on_event(const event::Event&, std::uint64_t) override { ++events; }
};

// One range, four printers (P1 closest to the user), one temperature
// sensor, one user, one app — the CAPA population at test scale.
struct ViewFixture {
  Sci sci{4242};
  mobility::Building building{{.floors = 1, .rooms_per_floor = 4}};
  range::ContextServer* range = nullptr;
  std::vector<std::unique_ptr<entity::PrinterCE>> printers;
  std::unique_ptr<entity::TemperatureSensorCE> sensor;
  std::unique_ptr<entity::ContextEntity> user;
  std::unique_ptr<ProbeApp> app;

  ViewFixture() {
    sci.set_location_directory(&building.directory());
    range = sci.create_range("r", building.building_path()).value();
    for (unsigned i = 0; i < 4; ++i) {
      printers.push_back(std::make_unique<entity::PrinterCE>(
          sci.network(), sci.new_guid(), "P" + std::to_string(i + 1),
          building.room(0, i)));
      EXPECT_TRUE(sci.enroll(*printers[i], *range).is_ok());
    }
    sensor = std::make_unique<entity::TemperatureSensorCE>(
        sci.network(), sci.new_guid(), "T1", "celsius", Duration::seconds(1));
    EXPECT_TRUE(sci.enroll(*sensor, *range).is_ok());
    user = std::make_unique<entity::ContextEntity>(
        sci.network(), sci.new_guid(), "User", entity::EntityKind::kPerson);
    user->set_location(location::LocRef::from_place(building.room(0, 0)));
    EXPECT_TRUE(sci.enroll(*user, *range).is_ok());
    app = std::make_unique<ProbeApp>(sci.network(), sci.new_guid(), "app",
                                     entity::EntityKind::kSoftware);
    EXPECT_TRUE(sci.enroll(*app, *range).is_ok());
    sci.run_for(Duration::millis(200));
  }

  query::Builder printer_query(const std::string& id) {
    query::Builder b(id, app->id());
    b.what_entity_type("printing")
        .closest_to(user->id())
        .select(query::SelectPolicy::kClosest)
        .require("has_paper", Value(true));
    return b;
  }

  Sci::QueryHandle ask(const query::Query& q) {
    auto handle = sci.submit_query(*app, q);
    EXPECT_TRUE(handle.has_value()) << handle.error().to_string();
    const int before = app->replies;
    while (app->replies == before) {
      if (!sci.simulator().step()) break;
    }
    return *handle;
  }
};

TEST(ViewIntegrationTest, RepeatedQueryIsServedFromTheView) {
  ViewFixture f;
  const auto first = f.ask(f.printer_query("q1").advertisement());
  ASSERT_TRUE(f.app->last_ok);
  EXPECT_EQ(f.app->last_winner, "P1");
  EXPECT_FALSE(first.is_view_backed());  // cold resolve installed the view

  // Same normalized query under a different id: answered from the view.
  const auto second = f.ask(f.printer_query("q2").advertisement());
  ASSERT_TRUE(f.app->last_ok);
  EXPECT_EQ(f.app->last_winner, "P1");
  EXPECT_TRUE(second.is_view_backed());

  ASSERT_NE(f.range->views(), nullptr);
  EXPECT_GE(node_count(*f.range, "view.hits"), 1u);
  const obs::MetricsSnapshot snap = f.sci.metrics().snapshot();
  EXPECT_GE(snap.counter("view.hits"), 1u);
  EXPECT_GE(snap.counter("view.installs"), 1u);

  const auto outcome = second.last_outcome();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->answered);
  EXPECT_TRUE(outcome->view_hit);
  EXPECT_GE(outcome->resolve_micros, 0.0);
}

// The reply contract of the three selection modes (profile, advertisement,
// named/entity-type subscription): every failure's code and message, and
// the recorded outcome of a view miss followed by the same query again.
TEST(ViewIntegrationTest, SelectionRepliesKeepTheirContract) {
  ViewFixture f;
  struct Case {
    const char* name;
    std::function<query::Query(const std::string& id)> make;
    ErrorCode code;
    std::string message;
    bool second_hits;  // the first ask installed a view
    bool tagged;       // a subscription owns a configuration tag
  };
  const Guid user = f.user->id();
  const Guid sensor = f.sensor->id();
  const Guid app = f.app->id();
  const auto printing = [app](const std::string& id) {
    query::Builder b(id, app);
    b.what_entity_type("printing");
    return b;
  };
  const auto nothing = [app](const std::string& id) {
    query::Builder b(id, app);
    b.what_entity_type("no-such-service");
    return b;
  };
  const auto named = [app](const std::string& id, Guid entity) {
    query::Builder b(id, app);
    b.what_named(entity);
    return b;
  };
  const std::string rejects = "no candidate satisfies the which-clause";
  const std::vector<Case> cases = {
      {"profile", [&](const std::string& id) { return printing(id).profile(); },
       ErrorCode::kOk, "", true, false},
      {"profile-none",
       [&](const std::string& id) { return nothing(id).profile(); },
       ErrorCode::kNotFound, "no matching entities", false, false},
      {"profile-which",
       [&](const std::string& id) {
         return printing(id).require("has_paper", Value("never")).profile();
       },
       ErrorCode::kNotFound, rejects, false, false},
      {"ad",
       [&](const std::string& id) {
         return printing(id)
             .closest_to(user)
             .select(query::SelectPolicy::kClosest)
             .advertisement();
       },
       ErrorCode::kOk, "", true, false},
      {"ad-none",
       [&](const std::string& id) { return nothing(id).advertisement(); },
       ErrorCode::kNotFound, rejects, false, false},
      {"ad-which",
       [&](const std::string& id) {
         return printing(id)
             .require("has_paper", Value("never"))
             .advertisement();
       },
       ErrorCode::kNotFound, rejects, false, false},
      {"ad-missing",
       [&](const std::string& id) { return named(id, user).advertisement(); },
       ErrorCode::kNotFound, "selected entity has no advertisement", true,
       false},
      {"sub-named",
       [&](const std::string& id) { return named(id, sensor).subscribe(); },
       ErrorCode::kOk, "", true, true},
      {"sub-type",
       [&](const std::string& id) { return printing(id).subscribe(); },
       ErrorCode::kOk, "", true, true},
      {"sub-none",
       [&](const std::string& id) { return nothing(id).subscribe(); },
       ErrorCode::kNotFound, rejects, false, false},
      {"sub-which",
       [&](const std::string& id) {
         return printing(id).require("has_paper", Value("never")).subscribe();
       },
       ErrorCode::kNotFound, rejects, false, false},
      {"sub-silent",
       [&](const std::string& id) { return named(id, user).subscribe(); },
       ErrorCode::kUnresolvable, "User produces no events", true, false},
  };
  for (const Case& c : cases) {
    for (int round = 1; round <= 2; ++round) {
      SCOPED_TRACE(std::string(c.name) + " ask " + std::to_string(round));
      const auto handle = f.ask(c.make(c.name + std::to_string(round)));
      EXPECT_EQ(f.app->last_error.code(), c.code);
      EXPECT_EQ(f.app->last_error.message(), c.message);
      const auto outcome = handle.last_outcome();
      ASSERT_TRUE(outcome.has_value());
      EXPECT_EQ(outcome->view_hit, round == 2 && c.second_hits);
      EXPECT_EQ(outcome->answered, c.code == ErrorCode::kOk);
      EXPECT_EQ(outcome->config_tag != 0, c.tagged);
    }
  }
}

TEST(ViewIntegrationTest, ProfileUpdateInvalidatesAndChangesTheWinner) {
  ViewFixture f;
  f.ask(f.printer_query("q1").advertisement());
  ASSERT_TRUE(f.app->last_ok);
  ASSERT_EQ(f.app->last_winner, "P1");

  // P1 runs out of paper: its profile update must drop the cached view, so
  // the next resolve re-selects instead of replaying the stale winner.
  f.printers[0]->set_paper(false);
  f.sci.run_for(Duration::millis(200));
  const auto after = f.ask(f.printer_query("q2").advertisement());
  ASSERT_TRUE(f.app->last_ok);
  EXPECT_NE(f.app->last_winner, "P1");  // re-selected among healthy printers
  EXPECT_FALSE(after.is_view_backed());
  EXPECT_GE(node_count(*f.range, "view.invalidations"), 1u);
  EXPECT_GE(f.sci.metrics().snapshot().counter("view.invalidations"), 1u);
}

TEST(ViewIntegrationTest, PatternPlanIsReusedAndStillDelivers) {
  ViewFixture f;
  ProbeApp second(f.sci.network(), f.sci.new_guid(), "app2",
                  entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(second, *f.range).is_ok());

  const auto subscribe = [&](ProbeApp& app, const std::string& id) {
    return *f.sci.submit_query(app, query::Builder(id, app.id())
                                        .what_pattern(entity::types::kTemperature)
                                        .subscribe());
  };
  const auto h1 = subscribe(*f.app, "qt1");
  f.sci.run_for(Duration::seconds(3));
  EXPECT_GT(f.app->events, 0);

  // The second subscription resolves from the cached composition plan (a
  // fresh tag, the same graph) and must deliver just like the first.
  const auto h2 = subscribe(second, "qt2");
  const int before = second.events;
  f.sci.run_for(Duration::seconds(3));
  EXPECT_GT(second.events, before);
  EXPECT_TRUE(h2.is_view_backed());
  const auto o1 = h1.last_outcome();
  const auto o2 = h2.last_outcome();
  ASSERT_TRUE(o1.has_value());
  ASSERT_TRUE(o2.has_value());
  EXPECT_NE(o1->config_tag, 0u);
  EXPECT_NE(o2->config_tag, o1->config_tag);  // plan reuse still re-tags
}

TEST(ViewIntegrationTest, CancelStopsDeliveriesAndRefreshResumes) {
  ViewFixture f;
  auto handle = *f.sci.submit_query(
      *f.app, query::Builder("qt", f.app->id())
                  .what_pattern(entity::types::kTemperature)
                  .subscribe());
  f.sci.run_for(Duration::seconds(3));
  ASSERT_GT(f.app->events, 0);

  EXPECT_TRUE(handle.cancel());
  f.sci.run_for(Duration::millis(200));  // drain in-flight deliveries
  const int after_cancel = f.app->events;
  f.sci.run_for(Duration::seconds(5));
  EXPECT_EQ(f.app->events, after_cancel);
  EXPECT_FALSE(handle.cancel());  // nothing left to tear down

  ASSERT_TRUE(handle.refresh().is_ok());
  f.sci.run_for(Duration::seconds(3));
  EXPECT_GT(f.app->events, after_cancel);
}

TEST(ViewIntegrationTest, CancelRemovesDeferredTriggerWatch) {
  ViewFixture f;
  auto handle = *f.sci.submit_query(
      *f.app, f.printer_query("q-defer")
                  .when_enters(f.user->id(), f.building.room_path(0, 3))
                  .expires_after(60.0)
                  .advertisement());
  f.sci.run_for(Duration::millis(200));
  ASSERT_EQ(f.range->deferred_queries(), 1u);
  EXPECT_TRUE(handle.cancel());
  EXPECT_EQ(f.range->deferred_queries(), 0u);
  // The trigger firing later must not resurrect the query.
  f.user->set_location(location::LocRef::from_place(f.building.room(0, 3)));
  f.sci.run_for(Duration::seconds(2));
  EXPECT_EQ(f.app->replies, 0);
}

// Regression (ASan): a Context Server destroyed while a deferred query's
// expiry timer is still scheduled. The closure used to capture `this` with
// nothing cancelling it — the fenced-primary graveyard in Sci papered over
// the same hazard for failovers. Destruction must cancel the timers.
TEST(ViewLifetimeTest, DeferredExpiryTimerIsCancelledOnDestruction) {
  sim::Simulator simulator(7);
  net::Network network(simulator);
  compose::SemanticRegistry semantics;
  range::RangeDirectory directory;
  mobility::Building building({.floors = 1, .rooms_per_floor = 2});
  Rng rng(3);
  ProbeApp app(network, Guid::random(rng), "app",
               entity::EntityKind::kSoftware);
  {
    range::RangeConfig config;
    config.range = Guid::random(rng);
    config.context_server = Guid::random(rng);
    config.name = "r";
    config.logical_root = building.building_path();
    range::ContextServer server(network, std::move(config), &directory,
                                &semantics, &building.directory());
    server.bootstrap_overlay();
    app.start();
    app.discover(server.server_node());
    const SimTime deadline = simulator.now() + Duration::seconds(2);
    while (!app.is_registered() && simulator.now() < deadline) {
      if (!simulator.step(deadline)) break;
    }
    ASSERT_TRUE(app.is_registered());
    const query::Query q = query::Builder("q-defer", app.id())
                               .what_entity_type("printing")
                               .when_enters(Guid::random(rng),
                                            building.room_path(0, 0))
                               .expires_after(5.0)
                               .advertisement();
    ASSERT_TRUE(app.submit_query(q.id, q.to_xml()).is_ok());
    simulator.run_until(simulator.now() + Duration::millis(200));
    ASSERT_EQ(server.deferred_queries(), 1u);
  }  // server destroyed; its expiry timer was still pending
  simulator.run_until(simulator.now() + Duration::seconds(10));
  EXPECT_EQ(app.replies, 0);
}

// The fence path must cancel the same timers: after a failover the fenced
// ex-primary's pending expiry must not fire a reply at the app.
TEST(ViewLifetimeTest, FenceCancelsDeferredExpiryTimers) {
  ViewFixture f;
  RangeOptions options;
  // The fixture range has no standby; build a second range that does.
  options.replication.standby_count = 1;
  auto& guarded =
      *f.sci.create_range("g", f.building.floor_path(0), options).value();
  ProbeApp app(f.sci.network(), f.sci.new_guid(), "app-g",
               entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(app, guarded).is_ok());
  auto handle = *f.sci.submit_query(
      app, query::Builder("q-defer", app.id())
               .what_entity_type("printing")
               .when_enters(f.user->id(), f.building.room_path(0, 1))
               .expires_after(3.0)
               .advertisement());
  // Let the kQuery record ship on the replication batch cadence so the
  // standby holds its own copy of the deferred query (with its own timer).
  f.sci.run_for(Duration::seconds(2));
  ASSERT_EQ(guarded.deferred_queries(), 1u);
  ASSERT_EQ(f.sci.standbys("g")[0]->deferred_queries(), 1u);
  const int replies_before = app.replies;
  ASSERT_TRUE(f.sci.promote_range("g").is_ok());
  ASSERT_EQ(f.sci.find_range("g")->deferred_queries(), 1u);
  f.sci.run_for(Duration::seconds(10));  // well past the expiry
  // Exactly one timeout reply — from the promoted standby. Pre-fix the
  // fenced ex-primary's still-scheduled timer sent a duplicate.
  EXPECT_EQ(app.replies, replies_before + 1);
  EXPECT_EQ(f.sci.find_range("g")->deferred_queries(), 0u);
  (void)handle;
}

}  // namespace
}  // namespace sci
