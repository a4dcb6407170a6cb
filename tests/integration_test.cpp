// Integration tests — full protocol flows through Sci: the Fig 5 discovery
// handshake, Fig 6 queries in all four modes, Fig 3 composition with live
// event ripple, dynamic recomposition after failure, deferred queries,
// cross-range forwarding and the CAPA printer selection.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/sci.h"
#include "entity/printer.h"
#include "entity/sensors.h"

#include "metric_counts.h"

namespace sci {
namespace {

// Test CAA that records everything it receives.
class RecordingApp final : public entity::ContextAwareApp {
 public:
  using ContextAwareApp::ContextAwareApp;

  struct Result {
    std::string query_id;
    Error error;
    Value value;
  };
  std::vector<Result> results;
  std::vector<event::Event> events;
  std::vector<std::pair<Error, Value>> service_replies;

  [[nodiscard]] const Result* result_for(const std::string& query_id) const {
    for (const Result& r : results) {
      if (r.query_id == query_id) return &r;
    }
    return nullptr;
  }

 protected:
  void on_query_result(const std::string& query_id, const Error& error,
                       const Value& result) override {
    results.push_back({query_id, error, result});
  }
  void on_event(const event::Event& event, std::uint64_t) override {
    events.push_back(event);
  }
  void on_service_reply(std::uint64_t, const Error& error,
                        const Value& result) override {
    service_replies.emplace_back(error, result);
  }
};

struct Deployment {
  Sci sci{99};
  mobility::Building building{{.floors = 2, .rooms_per_floor = 4}};

  Deployment() { sci.set_location_directory(&building.directory()); }
};

// ------------------------------------------------------------ Fig 5 flow

TEST(IntegrationTest, DiscoverySequenceRegistersComponent) {
  Deployment d;
  auto& range = *d.sci.create_range("r", d.building.building_path()).value();
  entity::TemperatureSensorCE sensor(d.sci.network(), d.sci.new_guid(),
                                     "sensor", "celsius");
  sensor.start(1, 1);
  EXPECT_FALSE(sensor.is_registered());

  // Fig 5: hello → range info → register → ack.
  sensor.discover(range.server_node());
  d.sci.run_for(Duration::millis(100));
  ASSERT_TRUE(sensor.is_registered());
  EXPECT_EQ(sensor.registration().range, range.id());
  EXPECT_EQ(sensor.registration().context_server, range.server_node());
  EXPECT_TRUE(range.registrar().contains(sensor.id()));
  EXPECT_NE(range.profiles().profile(sensor.id()), nullptr);
  EXPECT_EQ(node_count(range, "cs.registrations"), 1u);

  // Graceful stop deregisters.
  sensor.stop();
  d.sci.run_for(Duration::millis(100));
  EXPECT_FALSE(range.registrar().contains(sensor.id()));
  EXPECT_EQ(node_count(range, "cs.departures"), 1u);
}

TEST(IntegrationTest, ReRegistrationIsIdempotent) {
  Deployment d;
  auto& range = *d.sci.create_range("r", d.building.building_path()).value();
  entity::ContextEntity ce(d.sci.network(), d.sci.new_guid(), "ce",
                           entity::EntityKind::kDevice);
  ASSERT_TRUE(d.sci.enroll(ce, range).is_ok());
  ce.discover(range.server_node());  // duplicate hello
  d.sci.run_for(Duration::millis(100));
  EXPECT_TRUE(ce.is_registered());
  EXPECT_EQ(range.registrar().size(), 1u);
}

// --------------------------------------------------------- subscriptions

TEST(IntegrationTest, PatternSubscriptionDeliversEvents) {
  Deployment d;
  auto& range = *d.sci.create_range("r", d.building.building_path()).value();
  entity::TemperatureSensorCE sensor(d.sci.network(), d.sci.new_guid(),
                                     "sensor", "celsius",
                                     Duration::seconds(1));
  ASSERT_TRUE(d.sci.enroll(sensor, range).is_ok());
  RecordingApp app(d.sci.network(), d.sci.new_guid(), "app",
                   entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(app, range).is_ok());

  const std::string xml = query::Builder("q", app.id())
                              .what_pattern(entity::types::kTemperature)
                              .unit("celsius")
                              .mode(query::QueryMode::kEventSubscription)
                              .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  d.sci.run_for(Duration::seconds(5));
  ASSERT_NE(app.result_for("q"), nullptr);
  EXPECT_TRUE(app.result_for("q")->error.ok());
  EXPECT_GE(app.events.size(), 4u);
  EXPECT_EQ(app.events.front().type, entity::types::kTemperature);
}

TEST(IntegrationTest, UnitAwareMatchingSelectsTheRightSensor) {
  Deployment d;
  auto& range = *d.sci.create_range("r", d.building.building_path()).value();
  entity::TemperatureSensorCE celsius(d.sci.network(), d.sci.new_guid(),
                                      "c-sensor", "celsius",
                                      Duration::seconds(1));
  entity::TemperatureSensorCE fahrenheit(d.sci.network(), d.sci.new_guid(),
                                         "f-sensor", "fahrenheit",
                                         Duration::seconds(1));
  ASSERT_TRUE(d.sci.enroll(celsius, range).is_ok());
  ASSERT_TRUE(d.sci.enroll(fahrenheit, range).is_ok());
  RecordingApp app(d.sci.network(), d.sci.new_guid(), "app",
                   entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(app, range).is_ok());

  // Fahrenheit requested: only the fahrenheit sensor's events may arrive
  // (or a converted celsius one — the registry declares convertibility, so
  // either source is acceptable; assert unit presence).
  const std::string xml =
      query::Builder("q", app.id())
          .what_pattern(entity::types::kTemperature)
          .unit("fahrenheit")
          .mode(query::QueryMode::kEventSubscription)
          .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  d.sci.run_for(Duration::seconds(3));
  ASSERT_FALSE(app.events.empty());
}

TEST(IntegrationTest, OneTimeSubscriptionCancelsAfterFirstDelivery) {
  Deployment d;
  auto& range = *d.sci.create_range("r", d.building.building_path()).value();
  entity::TemperatureSensorCE sensor(d.sci.network(), d.sci.new_guid(),
                                     "sensor", "celsius",
                                     Duration::seconds(1));
  ASSERT_TRUE(d.sci.enroll(sensor, range).is_ok());
  RecordingApp app(d.sci.network(), d.sci.new_guid(), "app",
                   entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(app, range).is_ok());

  const std::string xml = query::Builder("q1", app.id())
                              .what_pattern(entity::types::kTemperature)
                              .mode(query::QueryMode::kOneTimeSubscription)
                              .to_xml();
  ASSERT_TRUE(app.submit_query("q1", xml).is_ok());
  d.sci.run_for(Duration::seconds(10));
  EXPECT_EQ(app.events.size(), 1u);
  // The configuration retired with the delivery.
  EXPECT_EQ(range.configurations().size(), 0u);
}

TEST(IntegrationTest, NamedEntitySubscriptionBindsDirectly) {
  Deployment d;
  auto& range = *d.sci.create_range("r", d.building.building_path()).value();
  entity::TemperatureSensorCE s1(d.sci.network(), d.sci.new_guid(), "s1",
                                 "celsius", Duration::seconds(1));
  entity::TemperatureSensorCE s2(d.sci.network(), d.sci.new_guid(), "s2",
                                 "celsius", Duration::seconds(1));
  ASSERT_TRUE(d.sci.enroll(s1, range).is_ok());
  ASSERT_TRUE(d.sci.enroll(s2, range).is_ok());
  RecordingApp app(d.sci.network(), d.sci.new_guid(), "app",
                   entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(app, range).is_ok());

  const std::string xml = query::Builder("q", app.id())
                              .what_named(s1.id())
                              .mode(query::QueryMode::kEventSubscription)
                              .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  d.sci.run_for(Duration::seconds(5));
  ASSERT_FALSE(app.events.empty());
  for (const event::Event& e : app.events) {
    EXPECT_EQ(e.source, s1.id());  // never s2
  }
}

// -------------------------------------------------------------- profiles

TEST(IntegrationTest, ProfileRequestReturnsMatchingProfiles) {
  Deployment d;
  auto& range = *d.sci.create_range("r", d.building.building_path()).value();
  entity::PrinterCE p1(d.sci.network(), d.sci.new_guid(), "P1",
                       d.building.room(0, 0));
  entity::PrinterCE p2(d.sci.network(), d.sci.new_guid(), "P2",
                       d.building.room(0, 1));
  ASSERT_TRUE(d.sci.enroll(p1, range).is_ok());
  ASSERT_TRUE(d.sci.enroll(p2, range).is_ok());
  RecordingApp app(d.sci.network(), d.sci.new_guid(), "app",
                   entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(app, range).is_ok());

  const std::string xml = query::Builder("q", app.id())
                              .what_entity_type("printing")
                              .mode(query::QueryMode::kProfileRequest)
                              .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  d.sci.run_for(Duration::millis(200));
  const auto* result = app.result_for("q");
  ASSERT_NE(result, nullptr);
  ASSERT_TRUE(result->error.ok()) << result->error.to_string();
  ASSERT_EQ(result->value.kind(), Value::Kind::kList);
  EXPECT_EQ(result->value.get_list().size(), 2u);

  // Named profile request returns exactly one.
  const std::string named_xml = query::Builder("q2", app.id())
                                    .what_named(p1.id())
                                    .mode(query::QueryMode::kProfileRequest)
                                    .to_xml();
  ASSERT_TRUE(app.submit_query("q2", named_xml).is_ok());
  d.sci.run_for(Duration::millis(200));
  const auto* named_result = app.result_for("q2");
  ASSERT_NE(named_result, nullptr);
  ASSERT_TRUE(named_result->error.ok());
  ASSERT_EQ(named_result->value.get_list().size(), 1u);
  EXPECT_EQ(named_result->value.get_list()[0].at("name").get_string(), "P1");
}

TEST(IntegrationTest, ProfileRequestForUnknownTypeFails) {
  Deployment d;
  auto& range = *d.sci.create_range("r", d.building.building_path()).value();
  RecordingApp app(d.sci.network(), d.sci.new_guid(), "app",
                   entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(app, range).is_ok());
  const std::string xml = query::Builder("q", app.id())
                              .what_entity_type("teleporter")
                              .mode(query::QueryMode::kProfileRequest)
                              .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  d.sci.run_for(Duration::millis(200));
  const auto* result = app.result_for("q");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->error.code(), ErrorCode::kNotFound);
}

// ------------------------------------------------- advertisement + which

TEST(IntegrationTest, CapaSelectionHonoursRequirementsAndAccess) {
  Deployment d;
  auto& range = *d.sci.create_range("r", d.building.building_path()).value();
  // Four printers along floor 0 (room0..room3).
  std::vector<std::unique_ptr<entity::PrinterCE>> printers;
  for (unsigned i = 0; i < 4; ++i) {
    printers.push_back(std::make_unique<entity::PrinterCE>(
        d.sci.network(), d.sci.new_guid(), "P" + std::to_string(i + 1),
        d.building.room(0, i)));
    ASSERT_TRUE(d.sci.enroll(*printers.back(), range).is_ok());
  }
  printers[1]->set_paper(false);
  printers[2]->set_locked(true);

  entity::ContextEntity user(d.sci.network(), d.sci.new_guid(), "User",
                             entity::EntityKind::kPerson);
  user.set_location(location::LocRef::from_place(d.building.room(0, 0)));
  ASSERT_TRUE(d.sci.enroll(user, range).is_ok());
  RecordingApp app(d.sci.network(), d.sci.new_guid(), "app",
                   entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(app, range).is_ok());
  d.sci.run_for(Duration::millis(200));

  // Closest with paper and access, relative to the user in room0: P1.
  const std::string xml = query::Builder("q", app.id())
                              .what_entity_type("printing")
                              .closest_to(user.id())
                              .select(query::SelectPolicy::kClosest)
                              .require("has_paper", Value(true))
                              .check_access()
                              .mode(query::QueryMode::kAdvertisementRequest)
                              .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  d.sci.run_for(Duration::millis(200));
  const auto* result = app.result_for("q");
  ASSERT_NE(result, nullptr);
  ASSERT_TRUE(result->error.ok()) << result->error.to_string();
  EXPECT_EQ(result->value.at("name").get_string(), "P1");
  EXPECT_EQ(result->value.at("service").get_string(), "printing");

  // Give P1 a job; "no queue" then selects P4 (P2 no paper, P3 locked).
  ValueMap args;
  args.emplace("document", "doc");
  args.emplace("pages", 10);
  args.emplace("owner", user.id());
  app.invoke_service(printers[0]->id(), "print", Value(std::move(args)));
  d.sci.run_for(Duration::millis(200));
  ASSERT_FALSE(app.service_replies.empty());
  EXPECT_TRUE(app.service_replies[0].first.ok());

  const std::string xml2 =
      query::Builder("q2", app.id())
          .what_entity_type("printing")
          .closest_to(user.id())
          .select(query::SelectPolicy::kClosest)
          .require("has_paper", Value(true))
          .require("queue_length", Value(std::int64_t{0}))
          .check_access()
          .mode(query::QueryMode::kAdvertisementRequest)
          .to_xml();
  ASSERT_TRUE(app.submit_query("q2", xml2).is_ok());
  d.sci.run_for(Duration::millis(200));
  const auto* result2 = app.result_for("q2");
  ASSERT_NE(result2, nullptr);
  ASSERT_TRUE(result2->error.ok()) << result2->error.to_string();
  EXPECT_EQ(result2->value.at("name").get_string(), "P4");

  // A keyholder CAN use the locked P3.
  printers[2]->add_keyholder(user.id());
  d.sci.run_for(Duration::millis(200));
  const std::string xml3 =
      query::Builder("q3", app.id())
          .what_named(printers[2]->id())
          .check_access()
          .mode(query::QueryMode::kAdvertisementRequest)
          .to_xml();
  // q3's owner is the app, not the user, so access is still denied.
  ASSERT_TRUE(app.submit_query("q3", xml3).is_ok());
  d.sci.run_for(Duration::millis(200));
  const auto* result3 = app.result_for("q3");
  ASSERT_NE(result3, nullptr);
  EXPECT_FALSE(result3->error.ok());
}

TEST(IntegrationTest, MinAttrPolicySelectsShortestQueue) {
  Deployment d;
  auto& range = *d.sci.create_range("r", d.building.building_path()).value();
  entity::PrinterCE fast(d.sci.network(), d.sci.new_guid(), "fast",
                         d.building.room(0, 0));
  entity::PrinterCE busy(d.sci.network(), d.sci.new_guid(), "busy",
                         d.building.room(0, 1));
  ASSERT_TRUE(d.sci.enroll(fast, range).is_ok());
  ASSERT_TRUE(d.sci.enroll(busy, range).is_ok());
  RecordingApp app(d.sci.network(), d.sci.new_guid(), "app",
                   entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(app, range).is_ok());
  ValueMap args;
  args.emplace("document", "doc");
  args.emplace("pages", 100);
  args.emplace("owner", app.id());
  app.invoke_service(busy.id(), "print", Value(std::move(args)));
  d.sci.run_for(Duration::millis(200));

  const std::string xml =
      query::Builder("q", app.id())
          .what_entity_type("printing")
          .select(query::SelectPolicy::kMinAttr, "queue_length")
          .mode(query::QueryMode::kAdvertisementRequest)
          .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  d.sci.run_for(Duration::millis(200));
  const auto* result = app.result_for("q");
  ASSERT_NE(result, nullptr);
  ASSERT_TRUE(result->error.ok());
  EXPECT_EQ(result->value.at("name").get_string(), "fast");
}

// ------------------------------------------------------- fault tolerance

TEST(IntegrationTest, CrashedSensorIsEvictedAndConfigurationRecomposed) {
  Deployment d;
  RangeOptions options;
  options.liveness.ping_period = Duration::millis(500);
  options.liveness.ping_miss_limit = 2;
  auto& range =
      *d.sci.create_range("r", d.building.building_path(), options).value();
  // Two redundant temperature sensors.
  entity::TemperatureSensorCE s1(d.sci.network(), d.sci.new_guid(), "s1",
                                 "celsius", Duration::seconds(1));
  entity::TemperatureSensorCE s2(d.sci.network(), d.sci.new_guid(), "s2",
                                 "celsius", Duration::seconds(1));
  ASSERT_TRUE(d.sci.enroll(s1, range).is_ok());
  ASSERT_TRUE(d.sci.enroll(s2, range).is_ok());
  RecordingApp app(d.sci.network(), d.sci.new_guid(), "app",
                   entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(app, range).is_ok());
  const std::string xml = query::Builder("q", app.id())
                              .what_pattern(entity::types::kTemperature)
                              .mode(query::QueryMode::kEventSubscription)
                              .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  d.sci.run_for(Duration::seconds(3));
  const std::size_t before = app.events.size();
  ASSERT_GT(before, 0u);
  // The sink sensor is deterministic (lowest GUID). Crash it.
  entity::TemperatureSensorCE& sink = s1.id() < s2.id() ? s1 : s2;
  ASSERT_TRUE(d.sci.network().set_crashed(sink.id(), true).is_ok());
  d.sci.run_for(Duration::seconds(5));  // pings time out, CS recomposes
  EXPECT_FALSE(range.registrar().contains(sink.id()));
  EXPECT_GE(node_count(range, "cs.failures_detected"), 1u);
  EXPECT_GE(node_count(range, "cs.recompositions"), 1u);
  // The deployment-wide registry mirrors the per-range stats, and the trace
  // ring retained the recomposition record.
  const obs::MetricsSnapshot snap = d.sci.metrics().snapshot();
  EXPECT_GE(snap.counter("cs.recompositions"), 1u);
  EXPECT_GE(snap.counter("cs.failures_detected"), 1u);
  bool saw_recompose = false;
  for (const obs::TraceRecord& rec : d.sci.trace().snapshot()) {
    if (rec.kind == obs::TraceKind::kRecompose &&
        rec.detail ==
            static_cast<std::uint64_t>(obs::RecomposeCause::kLoss)) {
      saw_recompose = true;
    }
  }
  EXPECT_TRUE(saw_recompose);
  const std::size_t after_recompose = app.events.size();
  d.sci.run_for(Duration::seconds(3));
  EXPECT_GT(app.events.size(), after_recompose)
      << "updates must keep flowing from the surviving sensor";
}

TEST(IntegrationTest, UnresolvableQueryIsParkedAndSatisfiedOnArrival) {
  Deployment d;
  auto& range = *d.sci.create_range("r", d.building.building_path()).value();
  RecordingApp app(d.sci.network(), d.sci.new_guid(), "app",
                   entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(app, range).is_ok());
  const std::string xml = query::Builder("q", app.id())
                              .what_pattern(entity::types::kTemperature)
                              .mode(query::QueryMode::kEventSubscription)
                              .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  d.sci.run_for(Duration::seconds(1));
  EXPECT_EQ(range.pending_queries(), 1u);
  EXPECT_TRUE(app.events.empty());

  // A sensor arrives; the parked query activates.
  entity::TemperatureSensorCE sensor(d.sci.network(), d.sci.new_guid(),
                                     "late-sensor", "celsius",
                                     Duration::seconds(1));
  ASSERT_TRUE(d.sci.enroll(sensor, range).is_ok());
  d.sci.run_for(Duration::seconds(4));
  EXPECT_EQ(range.pending_queries(), 0u);
  EXPECT_FALSE(app.events.empty());
}

TEST(IntegrationTest, AppDepartureTearsDownItsConfigurations) {
  Deployment d;
  auto& range = *d.sci.create_range("r", d.building.building_path()).value();
  entity::TemperatureSensorCE sensor(d.sci.network(), d.sci.new_guid(),
                                     "sensor", "celsius",
                                     Duration::seconds(1));
  ASSERT_TRUE(d.sci.enroll(sensor, range).is_ok());
  auto app = std::make_unique<RecordingApp>(
      d.sci.network(), d.sci.new_guid(), "app",
      entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(*app, range).is_ok());
  const std::string xml = query::Builder("q", app->id())
                              .what_pattern(entity::types::kTemperature)
                              .mode(query::QueryMode::kEventSubscription)
                              .to_xml();
  ASSERT_TRUE(app->submit_query("q", xml).is_ok());
  d.sci.run_for(Duration::seconds(2));
  EXPECT_EQ(range.configurations().size(), 1u);
  app->stop();
  d.sci.run_for(Duration::seconds(1));
  EXPECT_EQ(range.configurations().size(), 0u);
  EXPECT_EQ(range.mediator().table().size(), 0u);
}

// -------------------------------------------------------- deferred / when

TEST(IntegrationTest, NotBeforeDefersExecution) {
  Deployment d;
  auto& range = *d.sci.create_range("r", d.building.building_path()).value();
  entity::PrinterCE printer(d.sci.network(), d.sci.new_guid(), "P",
                            d.building.room(0, 0));
  ASSERT_TRUE(d.sci.enroll(printer, range).is_ok());
  RecordingApp app(d.sci.network(), d.sci.new_guid(), "app",
                   entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(app, range).is_ok());
  const double fire_at = d.sci.now().seconds_f() + 5.0;
  const std::string xml = query::Builder("q", app.id())
                              .what_entity_type("printing")
                              .not_before(fire_at)
                              .mode(query::QueryMode::kAdvertisementRequest)
                              .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  d.sci.run_for(Duration::seconds(2));
  EXPECT_EQ(app.result_for("q"), nullptr);  // not yet
  d.sci.run_for(Duration::seconds(4));
  ASSERT_NE(app.result_for("q"), nullptr);
  EXPECT_TRUE(app.result_for("q")->error.ok());
}

TEST(IntegrationTest, TriggerDeferredQueryFiresOnDoorEvent) {
  Deployment d;
  auto& range = *d.sci.create_range("r", d.building.building_path()).value();
  auto& world = d.sci.world();
  entity::DoorSensorCE door(d.sci.network(), d.sci.new_guid(), "door",
                            d.building.corridor(0), d.building.room(0, 0));
  ASSERT_TRUE(d.sci.enroll(door, range).is_ok());
  world.attach_door_sensor(&door);
  entity::PrinterCE printer(d.sci.network(), d.sci.new_guid(), "P",
                            d.building.room(0, 0));
  ASSERT_TRUE(d.sci.enroll(printer, range).is_ok());
  entity::ContextEntity bob(d.sci.network(), d.sci.new_guid(), "Bob",
                            entity::EntityKind::kPerson);
  ASSERT_TRUE(d.sci.enroll(bob, range).is_ok());
  RecordingApp app(d.sci.network(), d.sci.new_guid(), "app",
                   entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(app, range).is_ok());
  world.add_badge(bob.id(), d.building.corridor(0));

  const std::string xml = query::Builder("q", app.id())
                              .what_entity_type("printing")
                              .when_enters(bob.id(), d.building.room_path(0, 0))
                              .mode(query::QueryMode::kAdvertisementRequest)
                              .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  d.sci.run_for(Duration::seconds(2));
  EXPECT_EQ(app.result_for("q"), nullptr);
  EXPECT_EQ(range.deferred_queries(), 1u);

  ASSERT_TRUE(world.step(bob.id(), d.building.room(0, 0)).is_ok());
  d.sci.run_for(Duration::seconds(1));
  ASSERT_NE(app.result_for("q"), nullptr);
  EXPECT_TRUE(app.result_for("q")->error.ok());
  EXPECT_EQ(range.deferred_queries(), 0u);
}

TEST(IntegrationTest, DeferredQueryExpires) {
  Deployment d;
  auto& range = *d.sci.create_range("r", d.building.building_path()).value();
  RecordingApp app(d.sci.network(), d.sci.new_guid(), "app",
                   entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(app, range).is_ok());
  const std::string xml =
      query::Builder("q", app.id())
          .what_entity_type("printing")
          .when_enters(d.sci.new_guid(), d.building.room_path(0, 0))
          .expires_after(3.0)
          .mode(query::QueryMode::kAdvertisementRequest)
          .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  d.sci.run_for(Duration::seconds(5));
  const auto* result = app.result_for("q");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->error.code(), ErrorCode::kTimeout);
  EXPECT_EQ(range.deferred_queries(), 0u);
}

TEST(IntegrationTest, BoundedSubscriptionExpiresAndRetires) {
  Deployment d;
  auto& range = *d.sci.create_range("r", d.building.building_path()).value();
  entity::TemperatureSensorCE sensor(d.sci.network(), d.sci.new_guid(),
                                     "sensor", "celsius",
                                     Duration::seconds(1));
  ASSERT_TRUE(d.sci.enroll(sensor, range).is_ok());
  RecordingApp app(d.sci.network(), d.sci.new_guid(), "app",
                   entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(app, range).is_ok());
  const std::string xml = query::Builder("q", app.id())
                              .what_pattern(entity::types::kTemperature)
                              .expires_after(5.0)
                              .mode(query::QueryMode::kEventSubscription)
                              .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  d.sci.run_for(Duration::seconds(4));
  const std::size_t during = app.events.size();
  EXPECT_GT(during, 0u);
  EXPECT_EQ(range.configurations().size(), 1u);
  d.sci.run_for(Duration::seconds(6));
  // The stream ended at t=5: the config retired, the app was told, and no
  // further events arrive.
  EXPECT_EQ(range.configurations().size(), 0u);
  const std::size_t after_expiry = app.events.size();
  d.sci.run_for(Duration::seconds(3));
  EXPECT_EQ(app.events.size(), after_expiry);
  bool saw_expiry_notice = false;
  for (const auto& result : app.results) {
    if (result.error.code() == ErrorCode::kTimeout) saw_expiry_notice = true;
  }
  EXPECT_TRUE(saw_expiry_notice);
}

// ------------------------------------------------------------- forwarding

TEST(IntegrationTest, QueriesForwardToTheGoverningRange) {
  Deployment d;
  auto& tower = *d.sci.create_range("tower", d.building.building_path()).value();
  auto& level1 = *d.sci.create_range("level1", d.building.floor_path(1)).value();
  entity::PrinterCE printer(d.sci.network(), d.sci.new_guid(), "P-upstairs",
                            d.building.room(1, 0));
  ASSERT_TRUE(d.sci.enroll(printer, level1).is_ok());
  RecordingApp app(d.sci.network(), d.sci.new_guid(), "app",
                   entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(app, tower).is_ok());  // app is downstairs

  const std::string xml = query::Builder("q", app.id())
                              .what_entity_type("printing")
                              .in(d.building.room_path(1, 0))
                              .mode(query::QueryMode::kAdvertisementRequest)
                              .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  d.sci.run_for(Duration::seconds(1));
  const auto* result = app.result_for("q");
  ASSERT_NE(result, nullptr);
  ASSERT_TRUE(result->error.ok()) << result->error.to_string();
  EXPECT_EQ(result->value.at("name").get_string(), "P-upstairs");
  EXPECT_EQ(node_count(tower, "cs.queries.forwarded"), 1u);
  EXPECT_EQ(node_count(level1, "cs.queries.adopted"), 1u);
  // Registry view of the same run: the query crossed the SCINET, so the
  // overlay recorded route hops and a delivery at the target range.
  const obs::MetricsSnapshot snap = d.sci.metrics().snapshot();
  EXPECT_EQ(snap.counter("cs.queries.forwarded"), 1u);
  EXPECT_EQ(snap.counter("cs.queries.adopted"), 1u);
  EXPECT_GE(snap.counter("scinet.routed.delivered"), 1u);
  const auto* hops = snap.histogram("scinet.route.hops");
  ASSERT_NE(hops, nullptr);
  EXPECT_GE(hops->count, 1u);
  EXPECT_GE(hops->max, 1.0);
  EXPECT_GT(snap.counter("net.sent"), 0u);
}

TEST(IntegrationTest, ForwardingToUnknownPlaceFails) {
  Deployment d;
  auto& tower = *d.sci.create_range("tower", d.building.building_path()).value();
  RecordingApp app(d.sci.network(), d.sci.new_guid(), "app",
                   entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(app, tower).is_ok());
  const std::string xml =
      query::Builder("q", app.id())
          .what_entity_type("printing")
          .in(*location::LogicalPath::parse("mars/base/dome1"))
          .mode(query::QueryMode::kAdvertisementRequest)
          .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  d.sci.run_for(Duration::seconds(1));
  const auto* result = app.result_for("q");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->error.code(), ErrorCode::kNotFound);
}

// --------------------------------------------------------------- services

TEST(IntegrationTest, ServiceInvocationRoundTrip) {
  Deployment d;
  auto& range = *d.sci.create_range("r", d.building.building_path()).value();
  entity::PrinterCE printer(d.sci.network(), d.sci.new_guid(), "P",
                            d.building.room(0, 0));
  ASSERT_TRUE(d.sci.enroll(printer, range).is_ok());
  RecordingApp app(d.sci.network(), d.sci.new_guid(), "app",
                   entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(app, range).is_ok());

  // status() works; unknown methods error; print without owner errors.
  // (Replies may arrive out of order under network jitter, so land each
  // one before sending the next.)
  app.invoke_service(printer.id(), "status", Value());
  d.sci.run_for(Duration::millis(100));
  app.invoke_service(printer.id(), "make_coffee", Value());
  d.sci.run_for(Duration::millis(100));
  app.invoke_service(printer.id(), "print", vmap({{"document", "d"}}));
  d.sci.run_for(Duration::millis(100));
  ASSERT_EQ(app.service_replies.size(), 3u);
  EXPECT_TRUE(app.service_replies[0].first.ok());
  EXPECT_EQ(app.service_replies[0].second.at("has_paper"), Value(true));
  EXPECT_EQ(app.service_replies[1].first.code(), ErrorCode::kNotFound);
  EXPECT_EQ(app.service_replies[2].first.code(),
            ErrorCode::kInvalidArgument);
}

// ------------------------------------------------------------ create_range

// Bad create_range input is reported as the caller's error instead of
// aborting inside a timer or the fencing lease.
struct BadRangeCase {
  const char* name;
  const char* range_name;
  void (*configure)(RangeOptions&);
};

void PrintTo(const BadRangeCase& c, std::ostream* os) { *os << c.name; }

class CreateRangeRejectTest : public ::testing::TestWithParam<BadRangeCase> {};

TEST_P(CreateRangeRejectTest, WithInvalidArgument) {
  Deployment d;
  RangeOptions options;
  GetParam().configure(options);
  const auto created = d.sci.create_range(GetParam().range_name,
                                          d.building.floor_path(0), options);
  ASSERT_FALSE(created.has_value());
  EXPECT_EQ(created.error().code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(d.sci.ranges().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CreateRangeRejectTest,
    ::testing::Values(
        BadRangeCase{"hash_in_name", "a#b", [](RangeOptions&) {}},
        BadRangeCase{"zero_ping_period", "r",
                     [](RangeOptions& o) {
                       o.liveness.ping_period = Duration::micros(0);
                     }},
        BadRangeCase{"zero_heartbeat_period", "r",
                     [](RangeOptions& o) {
                       o.replication.standby_count = 1;
                       o.replication.heartbeat_period = Duration::micros(0);
                     }},
        BadRangeCase{"zero_sync_acks", "r",
                     [](RangeOptions& o) { o.replication.sync_acks = 0; }},
        BadRangeCase{"sync_acks_above_standby_count", "r",
                     [](RangeOptions& o) {
                       o.replication.standby_count = 1;
                       o.replication.sync_acks = 2;
                     }}),
    [](const ::testing::TestParamInfo<BadRangeCase>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace sci
