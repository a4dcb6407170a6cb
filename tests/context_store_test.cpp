// Tests for the Context Store (gathering + storage) and the pull-mode
// query path through the Context Server.
#include <gtest/gtest.h>

#include "core/sci.h"
#include "entity/sensors.h"
#include "range/context_store.h"

namespace sci::range {
namespace {

Guid guid_of(std::uint64_t n) { return Guid(0, n); }

event::Event make_event(std::string type, Guid source, Value payload,
                        std::uint64_t seq) {
  event::Event e;
  e.sequence = seq;
  e.type = std::move(type);
  e.source = source;
  e.timestamp = SimTime::from_micros(static_cast<std::int64_t>(seq) * 1000);
  e.payload = std::move(payload);
  return e;
}

TEST(ContextStoreTest, KeysBySubjectEntityWhenPresent) {
  ContextStore store;
  const Guid sensor = guid_of(1);
  const Guid bob = guid_of(2);
  // A location event about Bob, produced by a locator CE.
  store.record(make_event("location.update", sensor,
                          vmap({{"entity", bob}, {"place", 3}}), 1));
  EXPECT_NE(store.latest(bob, "location.update"), nullptr);
  EXPECT_EQ(store.latest(sensor, "location.update"), nullptr);
  // A temperature event with no subject keys by its producer.
  store.record(make_event("temperature", sensor, vmap({{"value", 20.0}}), 1));
  EXPECT_NE(store.latest(sensor, "temperature"), nullptr);
}

TEST(ContextStoreTest, HistoryIsNewestFirstAndBounded) {
  ContextStore store(/*per_key_capacity=*/4);
  const Guid bob = guid_of(2);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    store.record(make_event("location.update", guid_of(1),
                            vmap({{"entity", bob},
                                  {"place", static_cast<std::int64_t>(i)}}),
                            i));
  }
  const auto history = store.history(bob, "location.update", 100);
  ASSERT_EQ(history.size(), 4u);  // capacity bound
  EXPECT_EQ(history[0].sequence, 10u);  // newest first
  EXPECT_EQ(history[3].sequence, 7u);
  EXPECT_EQ(store.stats().recorded, 10u);
  EXPECT_EQ(store.stats().evicted, 6u);

  const auto limited = store.history(bob, "location.update", 2);
  ASSERT_EQ(limited.size(), 2u);
  EXPECT_EQ(limited[0].sequence, 10u);
  EXPECT_TRUE(store.history(bob, "unknown.type", 5).empty());
}

TEST(ContextStoreTest, SnapshotCollectsLatestPerType) {
  ContextStore store;
  const Guid bob = guid_of(2);
  store.record(make_event("location.update", guid_of(1),
                          vmap({{"entity", bob}, {"place", 1}}), 1));
  store.record(make_event("location.update", guid_of(1),
                          vmap({{"entity", bob}, {"place", 2}}), 2));
  store.record(make_event("badge.scan", guid_of(3),
                          vmap({{"entity", bob}}), 1));
  const Value snapshot = store.snapshot(bob);
  ASSERT_EQ(snapshot.get_map().size(), 2u);
  EXPECT_EQ(snapshot.at("location.update").at("payload").at("place"),
            Value(2));
  EXPECT_EQ(store.types_for(bob),
            (std::vector<std::string>{"badge.scan", "location.update"}));
}

TEST(ContextStoreTest, ForgetDropsASubject) {
  ContextStore store;
  const Guid bob = guid_of(2);
  const Guid john = guid_of(3);
  store.record(make_event("t", guid_of(1), vmap({{"entity", bob}}), 1));
  store.record(make_event("t", guid_of(1), vmap({{"entity", john}}), 1));
  EXPECT_EQ(store.forget(bob), 1u);
  EXPECT_EQ(store.latest(bob, "t"), nullptr);
  EXPECT_NE(store.latest(john, "t"), nullptr);
}

// ------------------------------------------------------ pull through CS

class PullApp final : public entity::ContextAwareApp {
 public:
  using ContextAwareApp::ContextAwareApp;
  std::vector<std::tuple<std::string, Error, Value>> results;

  [[nodiscard]] const std::tuple<std::string, Error, Value>* result_for(
      const std::string& id) const {
    for (const auto& r : results) {
      if (std::get<0>(r) == id) return &r;
    }
    return nullptr;
  }

 protected:
  void on_query_result(const std::string& query_id, const Error& error,
                       const Value& result) override {
    results.emplace_back(query_id, error, result);
  }
};

TEST(ContextPullTest, HistoryQueryReturnsStoredEvents) {
  Sci sci(5150);
  mobility::Building building({.floors = 1, .rooms_per_floor = 2});
  sci.set_location_directory(&building.directory());
  auto& range = *sci.create_range("r", building.building_path()).value();
  entity::TemperatureSensorCE sensor(sci.network(), sci.new_guid(), "s",
                                     "celsius", Duration::seconds(1));
  ASSERT_TRUE(sci.enroll(sensor, range).is_ok());
  PullApp app(sci.network(), sci.new_guid(), "app",
              entity::EntityKind::kSoftware);
  ASSERT_TRUE(sci.enroll(app, range).is_ok());
  sci.run_for(Duration::seconds(6));  // gather ~6 readings

  const std::string xml = query::Builder("q", app.id())
                              .what_pattern(entity::types::kTemperature)
                              .about(sensor.id())
                              .with_history(4)
                              .mode(query::QueryMode::kProfileRequest)
                              .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  sci.run_for(Duration::millis(100));
  const auto* result = app.result_for("q");
  ASSERT_NE(result, nullptr);
  ASSERT_TRUE(std::get<1>(*result).ok()) << std::get<1>(*result).to_string();
  const Value& value = std::get<2>(*result);
  EXPECT_EQ(value.at("type").get_string(), entity::types::kTemperature);
  ASSERT_EQ(value.at("history").get_list().size(), 4u);
  // Newest first: sequences strictly decreasing.
  const auto& history = value.at("history").get_list();
  for (std::size_t i = 1; i < history.size(); ++i) {
    EXPECT_GT(history[i - 1].at("sequence").get_int(),
              history[i].at("sequence").get_int());
  }
  EXPECT_EQ(value.at("current").at("sequence"),
            history.front().at("sequence"));
}

TEST(ContextPullTest, SnapshotQueryAboutAPerson) {
  Sci sci(5151);
  mobility::Building building({.floors = 1, .rooms_per_floor = 2});
  sci.set_location_directory(&building.directory());
  auto& range = *sci.create_range("r", building.building_path()).value();
  auto& world = sci.world();
  entity::DoorSensorCE door(sci.network(), sci.new_guid(), "door",
                            building.corridor(0), building.room(0, 0));
  ASSERT_TRUE(sci.enroll(door, range).is_ok());
  world.attach_door_sensor(&door);
  entity::ObjectLocationCE locator(sci.network(), sci.new_guid(), "loc",
                                   &building.directory());
  ASSERT_TRUE(sci.enroll(locator, range).is_ok());
  entity::ContextEntity bob(sci.network(), sci.new_guid(), "Bob",
                            entity::EntityKind::kPerson);
  ASSERT_TRUE(sci.enroll(bob, range).is_ok());
  world.add_badge(bob.id(), building.room(0, 0));
  PullApp app(sci.network(), sci.new_guid(), "app",
              entity::EntityKind::kSoftware);
  ASSERT_TRUE(sci.enroll(app, range).is_ok());

  // Wire the door→locator chain with a live subscription so derived
  // location.update events actually flow (and get stored).
  const std::string sub_xml =
      query::Builder("q-sub", app.id())
          .what_pattern(entity::types::kLocationUpdate)
          .semantic(entity::types::kSemPosition)
          .mode(query::QueryMode::kEventSubscription)
          .to_xml();
  ASSERT_TRUE(app.submit_query("q-sub", sub_xml).is_ok());
  sci.run_for(Duration::millis(200));

  ASSERT_TRUE(world.step(bob.id(), building.corridor(0)).is_ok());
  sci.run_for(Duration::millis(200));

  // Semantic-only pattern about Bob → full stored snapshot.
  const std::string xml = query::Builder("q", app.id())
                              .semantic(entity::types::kSemPosition)
                              .about(bob.id())
                              .mode(query::QueryMode::kProfileRequest)
                              .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  sci.run_for(Duration::millis(100));
  const auto* result = app.result_for("q");
  ASSERT_NE(result, nullptr);
  ASSERT_TRUE(std::get<1>(*result).ok()) << std::get<1>(*result).to_string();
  const Value& current = std::get<2>(*result).at("current");
  // Both the raw door transit and the derived location are remembered.
  EXPECT_TRUE(current.contains(entity::types::kDoorTransit));
  EXPECT_TRUE(current.contains(entity::types::kLocationUpdate));
}

TEST(ContextPullTest, UnknownSubjectFailsCleanly) {
  Sci sci(5152);
  mobility::Building building({.floors = 1, .rooms_per_floor = 2});
  sci.set_location_directory(&building.directory());
  auto& range = *sci.create_range("r", building.building_path()).value();
  PullApp app(sci.network(), sci.new_guid(), "app",
              entity::EntityKind::kSoftware);
  ASSERT_TRUE(sci.enroll(app, range).is_ok());
  const std::string xml = query::Builder("q", app.id())
                              .what_pattern("temperature")
                              .about(sci.new_guid())
                              .with_history(3)
                              .mode(query::QueryMode::kProfileRequest)
                              .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  sci.run_for(Duration::millis(100));
  const auto* result = app.result_for("q");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(std::get<1>(*result).code(), ErrorCode::kNotFound);
}

TEST(ContextPullTest, HistoryAttributeRoundTripsXml) {
  const query::Query q = query::Builder("q", guid_of(1))
                             .what_pattern("temperature")
                             .about(guid_of(2))
                             .with_history(7)
                             .mode(query::QueryMode::kProfileRequest)
                             .build();
  const auto reparsed = query::Query::parse(q.to_xml());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->what.history, 7u);
}

}  // namespace
}  // namespace sci::range
