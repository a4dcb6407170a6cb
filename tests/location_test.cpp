// Unit tests for sci::location — geometry, the three location models, the
// intermediate location language (LocRef) and RSSI trilateration.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "location/geometry.h"
#include "location/models.h"
#include "location/trilateration.h"

namespace sci::location {
namespace {

// ------------------------------------------------------------- geometry

TEST(GeometryTest, PointDistance) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

TEST(GeometryTest, RectContainsAndCenter) {
  const Rect r{{0, 0}, {10, 4}};
  EXPECT_TRUE(r.contains({5, 2}));
  EXPECT_TRUE(r.contains({0, 0}));   // boundary inclusive
  EXPECT_TRUE(r.contains({10, 4}));
  EXPECT_FALSE(r.contains({10.01, 2}));
  EXPECT_EQ(r.center(), (Point{5, 2}));
  EXPECT_DOUBLE_EQ(r.width(), 10.0);
  EXPECT_DOUBLE_EQ(r.height(), 4.0);
}

TEST(PolygonTest, ContainsConvex) {
  const Polygon p = Polygon::from_rect({{0, 0}, {10, 10}});
  EXPECT_TRUE(p.contains({5, 5}));
  EXPECT_TRUE(p.contains({0, 5}));    // edge
  EXPECT_TRUE(p.contains({0, 0}));    // vertex
  EXPECT_FALSE(p.contains({-1, 5}));
  EXPECT_FALSE(p.contains({11, 5}));
}

TEST(PolygonTest, ContainsConcave) {
  // L-shaped polygon.
  const Polygon p({{0, 0}, {10, 0}, {10, 5}, {5, 5}, {5, 10}, {0, 10}});
  EXPECT_TRUE(p.contains({2, 8}));
  EXPECT_TRUE(p.contains({8, 2}));
  EXPECT_FALSE(p.contains({8, 8}));  // the notch
}

TEST(PolygonTest, AreaAndCentroid) {
  const Polygon p = Polygon::from_rect({{0, 0}, {4, 2}});
  EXPECT_DOUBLE_EQ(p.area(), 8.0);
  EXPECT_EQ(p.centroid(), (Point{2, 1}));
  const Polygon empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_DOUBLE_EQ(empty.area(), 0.0);
  EXPECT_FALSE(empty.contains({0, 0}));
}

TEST(PolygonTest, BoundingBox) {
  const Polygon p({{1, 5}, {3, -1}, {-2, 2}});
  const Rect box = p.bounding_box();
  EXPECT_EQ(box.min, (Point{-2, -1}));
  EXPECT_EQ(box.max, (Point{3, 5}));
}

// ----------------------------------------------------------- LogicalPath

TEST(LogicalPathTest, ParseAndToString) {
  const auto p = LogicalPath::parse("campus/tower/level10/room1");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->depth(), 4u);
  EXPECT_EQ(p->to_string(), "campus/tower/level10/room1");
  const auto empty = LogicalPath::parse("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
  EXPECT_FALSE(LogicalPath::parse("a//b").has_value());
  EXPECT_FALSE(LogicalPath::parse("/a").has_value());
  EXPECT_FALSE(LogicalPath::parse("a/").has_value());
}

TEST(LogicalPathTest, AncestryAndCommonAncestor) {
  const auto tower = *LogicalPath::parse("campus/tower");
  const auto room = *LogicalPath::parse("campus/tower/level10/room1");
  const auto other = *LogicalPath::parse("campus/annex/level1");
  EXPECT_TRUE(tower.is_ancestor_of(room));
  EXPECT_FALSE(room.is_ancestor_of(tower));
  EXPECT_FALSE(tower.is_ancestor_of(tower));
  EXPECT_TRUE(tower.contains_or_equals(tower));
  EXPECT_TRUE(tower.contains_or_equals(room));
  EXPECT_FALSE(tower.contains_or_equals(other));
  EXPECT_EQ(room.common_ancestor(other).to_string(), "campus");
  EXPECT_EQ(room.parent().to_string(), "campus/tower/level10");
  EXPECT_EQ(tower.child("lobby").to_string(), "campus/tower/lobby");
}

// ---------------------------------------------------------------- LocRef

TEST(LocRefTest, ValueRoundTrip) {
  LocRef ref;
  ref.logical = *LogicalPath::parse("campus/tower/level1");
  ref.geometric = Point{3.5, 4.5};
  ref.place = 17;
  const auto decoded = LocRef::from_value(ref.to_value());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->logical->to_string(), "campus/tower/level1");
  EXPECT_EQ(decoded->geometric, Point(3.5, 4.5));
  EXPECT_EQ(decoded->place, 17u);

  const auto empty = LocRef::from_value(Value(ValueMap{}));
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->is_empty());
  EXPECT_FALSE(LocRef::from_value(Value(5)).has_value());
}

TEST(LocRefTest, PlaceIdAcceptsOnlyIntegersInRange) {
  EXPECT_EQ(place_id(Value(std::int64_t{1})), 1u);
  EXPECT_EQ(place_id(Value(std::int64_t{UINT32_MAX})), UINT32_MAX);
  EXPECT_EQ(place_id(Value(std::int64_t{0})), kNoPlace);
  EXPECT_EQ(place_id(Value(std::int64_t{-1})), kNoPlace);
  EXPECT_EQ(place_id(Value(std::int64_t{UINT32_MAX} + 2)), kNoPlace);
  EXPECT_EQ(place_id(Value(std::nan(""))), kNoPlace);
  EXPECT_EQ(place_id(Value(3.0)), kNoPlace);
  EXPECT_EQ(place_id(Value("3")), kNoPlace);

  ValueMap wrapped;
  wrapped.emplace("place", std::int64_t{UINT32_MAX} + 2);
  EXPECT_FALSE(LocRef::from_value(Value(std::move(wrapped))).has_value());
}

// ----------------------------------------------------- LocationDirectory

struct DirectoryFixture {
  LocationDirectory dir;
  PlaceId lobby = 0, corridor = 0, room_a = 0, room_b = 0, island = 0;

  DirectoryFixture() {
    lobby = *dir.add_place(*LogicalPath::parse("t/lobby"),
                           Polygon::from_rect({{0, -4}, {30, 0}}));
    corridor = *dir.add_place(*LogicalPath::parse("t/l0/corridor"),
                              Polygon::from_rect({{0, 0}, {30, 4}}));
    room_a = *dir.add_place(*LogicalPath::parse("t/l0/roomA"),
                            Polygon::from_rect({{0, 4}, {10, 12}}));
    room_b = *dir.add_place(*LogicalPath::parse("t/l0/roomB"),
                            Polygon::from_rect({{10, 4}, {20, 12}}));
    island = *dir.add_place(*LogicalPath::parse("t/island"));  // no portals
    EXPECT_TRUE(dir.connect(lobby, corridor).is_ok());
    EXPECT_TRUE(dir.connect(corridor, room_a).is_ok());
    EXPECT_TRUE(dir.connect(corridor, room_b).is_ok());
  }
};

TEST(LocationDirectoryTest, AddAndLookup) {
  DirectoryFixture f;
  EXPECT_EQ(f.dir.place_count(), 5u);
  EXPECT_NE(f.dir.place(f.room_a), nullptr);
  EXPECT_EQ(f.dir.place(999), nullptr);
  EXPECT_EQ(f.dir.place(kNoPlace), nullptr);
  const Place* by_path = f.dir.place_by_path(*LogicalPath::parse("t/l0/roomA"));
  ASSERT_NE(by_path, nullptr);
  EXPECT_EQ(by_path->id, f.room_a);
  EXPECT_FALSE(
      f.dir.add_place(*LogicalPath::parse("t/lobby")).has_value());  // dup
}

TEST(LocationDirectoryTest, ConnectValidation) {
  DirectoryFixture f;
  EXPECT_FALSE(f.dir.connect(f.room_a, f.room_a).is_ok());
  EXPECT_FALSE(f.dir.connect(f.room_a, 999).is_ok());
}

TEST(LocationDirectoryTest, LocatePicksDeepestContainingFootprint) {
  DirectoryFixture f;
  EXPECT_EQ(f.dir.locate({5, 8}), f.room_a);
  EXPECT_EQ(f.dir.locate({15, 8}), f.room_b);
  EXPECT_EQ(f.dir.locate({15, 2}), f.corridor);
  EXPECT_EQ(f.dir.locate({100, 100}), kNoPlace);
}

TEST(LocationDirectoryTest, RouteShortestPath) {
  DirectoryFixture f;
  const auto route = f.dir.route(f.room_a, f.room_b);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(*route,
            (std::vector<PlaceId>{f.room_a, f.corridor, f.room_b}));
  const auto self = f.dir.route(f.room_a, f.room_a);
  ASSERT_TRUE(self.has_value());
  EXPECT_EQ(self->size(), 1u);
  EXPECT_FALSE(f.dir.route(f.room_a, f.island).has_value());
  EXPECT_FALSE(f.dir.route(f.room_a, 999).has_value());
}

TEST(LocationDirectoryTest, RouteCostMatchesEdgeSum) {
  DirectoryFixture f;
  const auto cost = f.dir.route_cost(f.room_a, f.room_b);
  ASSERT_TRUE(cost.has_value());
  const auto direct_a = f.dir.route_cost(f.room_a, f.corridor);
  const auto direct_b = f.dir.route_cost(f.corridor, f.room_b);
  EXPECT_DOUBLE_EQ(*cost, *direct_a + *direct_b);
}

TEST(LocationDirectoryTest, RoutePrefersCheaperMultiHop) {
  LocationDirectory dir;
  const PlaceId a = *dir.add_place(*LogicalPath::parse("a"));
  const PlaceId b = *dir.add_place(*LogicalPath::parse("b"));
  const PlaceId c = *dir.add_place(*LogicalPath::parse("c"));
  ASSERT_TRUE(dir.connect(a, c, 10.0).is_ok());  // direct but expensive
  ASSERT_TRUE(dir.connect(a, b, 2.0).is_ok());
  ASSERT_TRUE(dir.connect(b, c, 3.0).is_ok());
  const auto route = dir.route(a, c);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(*route, (std::vector<PlaceId>{a, b, c}));
  EXPECT_DOUBLE_EQ(*dir.route_cost(a, c), 5.0);
}

TEST(LocationDirectoryTest, NeighboursAreSortedUnique) {
  DirectoryFixture f;
  const auto n = f.dir.neighbours(f.corridor);
  EXPECT_EQ(n, (std::vector<PlaceId>{f.lobby, f.room_a, f.room_b}));
  EXPECT_TRUE(f.dir.neighbours(f.island).empty());
}

TEST(LocationDirectoryTest, ResolveFillsAllRepresentations) {
  DirectoryFixture f;
  // From logical.
  auto from_logical = f.dir.resolve(
      LocRef::from_logical(*LogicalPath::parse("t/l0/roomA")));
  ASSERT_TRUE(from_logical.has_value());
  EXPECT_EQ(from_logical->place, f.room_a);
  ASSERT_TRUE(from_logical->geometric.has_value());
  EXPECT_EQ(*from_logical->geometric, (Point{5, 8}));  // centroid
  // From a point.
  auto from_point = f.dir.resolve(LocRef::from_point({15, 8}));
  ASSERT_TRUE(from_point.has_value());
  EXPECT_EQ(from_point->place, f.room_b);
  EXPECT_EQ(from_point->logical->to_string(), "t/l0/roomB");
  // From a place id.
  auto from_place = f.dir.resolve(LocRef::from_place(f.lobby));
  ASSERT_TRUE(from_place.has_value());
  EXPECT_EQ(from_place->logical->to_string(), "t/lobby");
  // Empty refs fail.
  EXPECT_FALSE(f.dir.resolve(LocRef{}).has_value());
  // Unknown logical path with no geometry keeps what it has.
  auto unknown = f.dir.resolve(
      LocRef::from_logical(*LogicalPath::parse("elsewhere")));
  ASSERT_TRUE(unknown.has_value());
  EXPECT_EQ(unknown->place, kNoPlace);
}

TEST(LocationDirectoryTest, DistancePrefersTopology) {
  DirectoryFixture f;
  const auto d = f.dir.distance(LocRef::from_place(f.room_a),
                                LocRef::from_place(f.room_b));
  ASSERT_TRUE(d.has_value());
  EXPECT_DOUBLE_EQ(*d, *f.dir.route_cost(f.room_a, f.room_b));
}

TEST(LocationDirectoryTest, DistanceFallsBackToGeometryWhenDisconnected) {
  DirectoryFixture f;
  // room_a ↔ island: no portal route; island has no footprint either, so
  // geometric fallback uses anchors (island anchor = origin default).
  const auto d = f.dir.distance(LocRef::from_place(f.room_a),
                                LocRef::from_place(f.island));
  ASSERT_TRUE(d.has_value());
  EXPECT_DOUBLE_EQ(*d, distance({5, 8}, {0, 0}));
}

TEST(LocationDirectoryTest, DistanceLogicalFallback) {
  LocationDirectory dir;
  const auto a = LocRef::from_logical(*LogicalPath::parse("c/t/l1/r1"));
  const auto b = LocRef::from_logical(*LogicalPath::parse("c/t/l2/r9"));
  const auto d = dir.distance(a, b);
  ASSERT_TRUE(d.has_value());
  EXPECT_DOUBLE_EQ(*d, 4.0);  // up 2 to c/t, down 2
}

// --------------------------------------------------------- trilateration

TEST(TrilaterationTest, PathLossModelInverts) {
  const PathLossModel model{-40.0, 2.0};
  for (const double d : {0.5, 1.0, 5.0, 25.0}) {
    EXPECT_NEAR(model.distance_for(model.rssi_at(d)), d, 1e-9);
  }
}

TEST(TrilaterationTest, ExactReadingsRecoverPosition) {
  const PathLossModel model;
  const Point actual{12.0, 7.0};
  const std::vector<BeaconReading> readings = {
      {{0, 0}, model.rssi_at(distance({0, 0}, actual))},
      {{30, 0}, model.rssi_at(distance({30, 0}, actual))},
      {{0, 30}, model.rssi_at(distance({0, 30}, actual))},
      {{30, 30}, model.rssi_at(distance({30, 30}, actual))},
  };
  const auto estimate = trilaterate(readings, model);
  ASSERT_TRUE(estimate.has_value()) << estimate.error().to_string();
  EXPECT_NEAR(estimate->x, actual.x, 1e-6);
  EXPECT_NEAR(estimate->y, actual.y, 1e-6);
  EXPECT_NEAR(trilateration_residual(readings, model, *estimate), 0.0, 1e-6);
}

TEST(TrilaterationTest, NoisyReadingsStayClose) {
  const PathLossModel model;
  const Point actual{10.0, 10.0};
  Rng rng(17);
  std::vector<BeaconReading> readings;
  for (const Point beacon :
       {Point{0, 0}, Point{20, 0}, Point{0, 20}, Point{20, 20},
        Point{10, 25}}) {
    readings.push_back(
        {beacon, model.rssi_at(distance(beacon, actual)) +
                     rng.next_normal(0.0, 0.5)});
  }
  const auto estimate = trilaterate(readings, model);
  ASSERT_TRUE(estimate.has_value());
  EXPECT_NEAR(estimate->x, actual.x, 2.0);
  EXPECT_NEAR(estimate->y, actual.y, 2.0);
}

TEST(TrilaterationTest, RejectsTooFewOrCollinearBeacons) {
  const PathLossModel model;
  EXPECT_FALSE(trilaterate({}, model).has_value());
  EXPECT_FALSE(trilaterate({{{0, 0}, -50}, {{1, 1}, -50}}, model).has_value());
  // Collinear beacons.
  const auto collinear = trilaterate(
      {{{0, 0}, -50}, {{10, 0}, -50}, {{20, 0}, -50}}, model);
  ASSERT_FALSE(collinear.has_value());
  EXPECT_EQ(collinear.error().code(), ErrorCode::kUnresolvable);
}

}  // namespace
}  // namespace sci::location
