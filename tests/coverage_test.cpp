// Coverage for the remaining query/selection/forwarding paths not exercised
// by the scenario-driven suites.
#include <gtest/gtest.h>

#include <memory>

#include "core/sci.h"
#include "entity/printer.h"
#include "entity/sensors.h"

#include "metric_counts.h"

namespace sci {
namespace {

class App final : public entity::ContextAwareApp {
 public:
  using ContextAwareApp::ContextAwareApp;
  std::vector<std::tuple<std::string, Error, Value>> results;
  int events = 0;

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
  void on_event(const event::Event&, std::uint64_t) override { ++events; }
};

struct Deployment {
  Sci sci{31337};
  mobility::Building building{{.floors = 2, .rooms_per_floor = 4}};
  Deployment() { sci.set_location_directory(&building.directory()); }
};

TEST(CoverageTest, MaxAttrPolicySelectsFastestPrinter) {
  Deployment d;
  auto& range = *d.sci.create_range("r", d.building.building_path()).value();
  entity::PrinterCE slow(d.sci.network(), d.sci.new_guid(), "slow",
                         d.building.room(0, 0), /*pages_per_minute=*/4.0);
  entity::PrinterCE fast(d.sci.network(), d.sci.new_guid(), "fast",
                         d.building.room(0, 1), /*pages_per_minute=*/40.0);
  ASSERT_TRUE(d.sci.enroll(slow, range).is_ok());
  ASSERT_TRUE(d.sci.enroll(fast, range).is_ok());
  App app(d.sci.network(), d.sci.new_guid(), "app",
          entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(app, range).is_ok());

  // pages_per_minute lives in advertisement attributes, not metadata — the
  // max policy reads metadata, so mirror it there via a custom CE instead:
  // use queue_length with inverted meaning via kMaxAttr on a seeded field.
  slow.set_metadata(vmap({{"service", "printing"}, {"speed", 4.0}}));
  fast.set_metadata(vmap({{"service", "printing"}, {"speed", 40.0}}));
  d.sci.run_for(Duration::millis(100));

  const std::string xml =
      query::Builder("q", app.id())
          .what_entity_type("printing")
          .select(query::SelectPolicy::kMaxAttr, "speed")
          .mode(query::QueryMode::kAdvertisementRequest)
          .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  d.sci.run_for(Duration::millis(200));
  const auto* result = app.result_for("q");
  ASSERT_NE(result, nullptr);
  ASSERT_TRUE(std::get<1>(*result).ok()) << std::get<1>(*result).to_string();
  EXPECT_EQ(std::get<2>(*result).at("name").get_string(), "fast");
}

TEST(CoverageTest, MinMaxPolicyFailsWithoutTheAttribute) {
  Deployment d;
  auto& range = *d.sci.create_range("r", d.building.building_path()).value();
  entity::PrinterCE printer(d.sci.network(), d.sci.new_guid(), "P",
                            d.building.room(0, 0));
  ASSERT_TRUE(d.sci.enroll(printer, range).is_ok());
  App app(d.sci.network(), d.sci.new_guid(), "app",
          entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(app, range).is_ok());
  const std::string xml =
      query::Builder("q", app.id())
          .what_entity_type("printing")
          .select(query::SelectPolicy::kMinAttr, "no-such-attribute")
          .mode(query::QueryMode::kAdvertisementRequest)
          .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  d.sci.run_for(Duration::millis(200));
  const auto* result = app.result_for("q");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(std::get<1>(*result).code(), ErrorCode::kUnresolvable);
}

TEST(CoverageTest, ExplicitRangeTargetingForwardsDirectly) {
  Deployment d;
  auto& tower = *d.sci.create_range("tower", d.building.floor_path(0)).value();
  auto& upstairs = *d.sci.create_range("upstairs", d.building.floor_path(1)).value();
  entity::PrinterCE printer(d.sci.network(), d.sci.new_guid(), "P-up",
                            d.building.room(1, 0));
  ASSERT_TRUE(d.sci.enroll(printer, upstairs).is_ok());
  App app(d.sci.network(), d.sci.new_guid(), "app",
          entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(app, tower).is_ok());

  // Address the range by GUID (where.range), no logical path at all.
  const std::string xml =
      query::Builder("q", app.id())
          .what_entity_type("printing")
          .in_range(upstairs.id())
          .mode(query::QueryMode::kAdvertisementRequest)
          .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  d.sci.run_for(Duration::seconds(1));
  const auto* result = app.result_for("q");
  ASSERT_NE(result, nullptr);
  ASSERT_TRUE(std::get<1>(*result).ok()) << std::get<1>(*result).to_string();
  EXPECT_EQ(std::get<2>(*result).at("name").get_string(), "P-up");
  EXPECT_EQ(node_count(tower, "cs.queries.forwarded"), 1u);
}

TEST(CoverageTest, SubscriptionToEntityTypeBindsToSelectedEntity) {
  Deployment d;
  auto& range = *d.sci.create_range("r", d.building.building_path()).value();
  entity::PrinterCE p1(d.sci.network(), d.sci.new_guid(), "P1",
                       d.building.room(0, 0));
  ASSERT_TRUE(d.sci.enroll(p1, range).is_ok());
  App app(d.sci.network(), d.sci.new_guid(), "app",
          entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(app, range).is_ok());

  const std::string xml = query::Builder("q", app.id())
                              .what_entity_type("printing")
                              .mode(query::QueryMode::kEventSubscription)
                              .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  d.sci.run_for(Duration::millis(200));
  const auto* result = app.result_for("q");
  ASSERT_NE(result, nullptr);
  ASSERT_TRUE(std::get<1>(*result).ok());
  // Status events now flow to the app.
  p1.set_paper(false);
  d.sci.run_for(Duration::millis(200));
  EXPECT_GE(app.events, 1);
}

TEST(CoverageTest, WalkToDisconnectedPlaceFails) {
  Deployment d;
  auto outside = d.building.directory().add_place(
      *location::LogicalPath::parse("island"));
  ASSERT_TRUE(outside.has_value());
  auto& world = d.sci.world();
  const Guid badge = d.sci.new_guid();
  world.add_badge(badge, d.building.lobby());
  const Status walk = world.walk_to(badge, *outside, Duration::seconds(1));
  EXPECT_FALSE(walk.is_ok());
  EXPECT_EQ(walk.error().code(), ErrorCode::kUnresolvable);
}

TEST(CoverageTest, QueryIdsWithXmlSpecialsSurviveTheWire) {
  Deployment d;
  auto& range = *d.sci.create_range("r", d.building.building_path()).value();
  entity::PrinterCE printer(d.sci.network(), d.sci.new_guid(), "P",
                            d.building.room(0, 0));
  ASSERT_TRUE(d.sci.enroll(printer, range).is_ok());
  App app(d.sci.network(), d.sci.new_guid(), "app",
          entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(app, range).is_ok());
  const std::string nasty_id = "q<&>\"'1";
  const std::string xml = query::Builder(nasty_id, app.id())
                              .what_entity_type("printing")
                              .mode(query::QueryMode::kProfileRequest)
                              .to_xml();
  ASSERT_TRUE(app.submit_query(nasty_id, xml).is_ok());
  d.sci.run_for(Duration::millis(200));
  const auto* result = app.result_for(nasty_id);
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(std::get<1>(*result).ok());
}

TEST(CoverageTest, MalformedQueryXmlIsRejectedWithParseError) {
  Deployment d;
  auto& range = *d.sci.create_range("r", d.building.building_path()).value();
  App app(d.sci.network(), d.sci.new_guid(), "app",
          entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(app, range).is_ok());
  ASSERT_TRUE(app.submit_query("q", "<query><broken").is_ok());
  d.sci.run_for(Duration::millis(200));
  const auto* result = app.result_for("q");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(std::get<1>(*result).code(), ErrorCode::kParseError);
}

TEST(CoverageTest, ProfileUpdatesReachTheProfileManager) {
  Deployment d;
  auto& range = *d.sci.create_range("r", d.building.building_path()).value();
  entity::ContextEntity ce(d.sci.network(), d.sci.new_guid(), "ce",
                           entity::EntityKind::kDevice);
  ASSERT_TRUE(d.sci.enroll(ce, range).is_ok());
  ce.set_location(location::LocRef::from_place(d.building.room(1, 2)));
  ce.set_metadata(vmap({{"mood", "good"}}));
  d.sci.run_for(Duration::millis(100));
  const entity::Profile* stored = range.profiles().profile(ce.id());
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->location.place, d.building.room(1, 2));
  EXPECT_EQ(stored->metadata.at("mood").string_or(""), "good");
}

TEST(CoverageTest, ThreeRangeOverlayForwardsAcrossUnrelatedRanges) {
  // Three ranges in one SCINET; a query from range a reaches range b even
  // though neither bootstrapped the other (multi-hop overlay membership).
  Deployment d;
  auto& a = *d.sci.create_range("a", d.building.floor_path(0)).value();
  auto& middle = *d.sci.create_range(
      "middle", *location::LogicalPath::parse("elsewhere")).value();
  (void)middle;
  auto& b = *d.sci.create_range("b", d.building.floor_path(1)).value();
  entity::PrinterCE printer(d.sci.network(), d.sci.new_guid(), "P",
                            d.building.room(1, 0));
  ASSERT_TRUE(d.sci.enroll(printer, b).is_ok());
  App app(d.sci.network(), d.sci.new_guid(), "app",
          entity::EntityKind::kSoftware);
  ASSERT_TRUE(d.sci.enroll(app, a).is_ok());
  d.sci.run_for(Duration::seconds(2));
  const std::string xml = query::Builder("q", app.id())
                              .what_entity_type("printing")
                              .in(d.building.room_path(1, 0))
                              .mode(query::QueryMode::kAdvertisementRequest)
                              .to_xml();
  ASSERT_TRUE(app.submit_query("q", xml).is_ok());
  d.sci.run_for(Duration::seconds(1));
  const auto* result = app.result_for("q");
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(std::get<1>(*result).ok()) << std::get<1>(*result).to_string();
}

}  // namespace
}  // namespace sci
