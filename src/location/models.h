// SCI — location models and the intermediate location language (paper §3.3).
//
// "It is preferable to support many types of location model and interoperate
// between them if necessary. For example it may be necessary to convert
// geometric information to a hierarchical model or similarly convert network
// signal strength to a geometric position. To facilitate this it will be
// necessary to develop an intermediate location language."
//
// The intermediate language here is LocRef: a reference that may carry any
// subset of { logical path, geometric point, place id }. A LocationDirectory
// registers named places with all three representations and converts LocRefs
// between models, including topological routing between places.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/expected.h"
#include "common/guid.h"
#include "location/geometry.h"
#include "serde/value.h"

namespace sci::location {

using PlaceId = std::uint32_t;
inline constexpr PlaceId kNoPlace = 0;

// The one checked conversion from a payload value to a PlaceId: an integer
// in [1, UINT32_MAX], else kNoPlace. A negative, fractional, non-numeric or
// too-large value is rejected, never cast or wrapped onto a real place.
[[nodiscard]] PlaceId place_id(const Value& value);

// ------------------------------------------------------------------
// Logical model: hierarchical paths like "campus/tower/level10/room1001".

class LogicalPath {
 public:
  LogicalPath() = default;
  // Parses a '/'-separated path; empty segments are rejected.
  static Expected<LogicalPath> parse(std::string_view text);
  explicit LogicalPath(std::vector<std::string> segments)
      : segments_(std::move(segments)) {}

  [[nodiscard]] const std::vector<std::string>& segments() const {
    return segments_;
  }
  [[nodiscard]] bool empty() const { return segments_.empty(); }
  [[nodiscard]] std::size_t depth() const { return segments_.size(); }

  [[nodiscard]] bool is_ancestor_of(const LogicalPath& other) const;
  [[nodiscard]] bool contains_or_equals(const LogicalPath& other) const {
    return *this == other || is_ancestor_of(other);
  }
  [[nodiscard]] LogicalPath common_ancestor(const LogicalPath& other) const;
  [[nodiscard]] LogicalPath parent() const;
  [[nodiscard]] LogicalPath child(std::string segment) const;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const LogicalPath&, const LogicalPath&) = default;

 private:
  std::vector<std::string> segments_;
};

// ------------------------------------------------------------------
// The intermediate location language: a reference carrying any subset of
// the model-specific representations. Conversions fill in the gaps.

struct LocRef {
  std::optional<LogicalPath> logical;
  std::optional<Point> geometric;
  PlaceId place = kNoPlace;

  [[nodiscard]] bool is_empty() const {
    return !logical && !geometric && place == kNoPlace;
  }

  static LocRef from_logical(LogicalPath path) {
    return LocRef{std::move(path), std::nullopt, kNoPlace};
  }
  static LocRef from_point(Point p) {
    return LocRef{std::nullopt, p, kNoPlace};
  }
  static LocRef from_place(PlaceId id) {
    return LocRef{std::nullopt, std::nullopt, id};
  }

  // Value round-trip: LocRefs travel in event payloads and query fields.
  [[nodiscard]] Value to_value() const;
  static Expected<LocRef> from_value(const Value& value);

  [[nodiscard]] std::string to_string() const;
};

// ------------------------------------------------------------------
// LocationDirectory: the unified place register + converter.
//
// Places form both the topological graph (edges = doors/portals with a
// traversal cost) and the logical hierarchy (each place has a LogicalPath).
// Each place optionally carries a polygon footprint for the geometric model.

struct Place {
  PlaceId id = kNoPlace;
  LogicalPath path;
  Polygon footprint;  // may be empty for purely logical places
  Point anchor;       // representative point (centroid of footprint)
};

struct Portal {
  PlaceId a = kNoPlace;
  PlaceId b = kNoPlace;
  double cost = 1.0;   // traversal cost (distance-ish)
  Guid sensor;         // door sensor CE guarding this portal (nil if none)
};

class LocationDirectory {
 public:
  // Registers a place. The logical path must be unique.
  Expected<PlaceId> add_place(LogicalPath path, Polygon footprint = {});

  // Connects two places with a portal (door). Cost defaults to the anchor
  // distance when not given.
  Status connect(PlaceId a, PlaceId b, double cost = -1.0,
                 Guid sensor = Guid());

  [[nodiscard]] const Place* place(PlaceId id) const;
  [[nodiscard]] const Place* place_by_path(const LogicalPath& path) const;
  [[nodiscard]] std::size_t place_count() const { return places_.size(); }
  [[nodiscard]] const std::vector<Portal>& portals() const { return portals_; }

  // Geometric -> place: the place whose footprint contains the point
  // (deepest match wins when footprints nest).
  [[nodiscard]] PlaceId locate(Point p) const;

  // Topological shortest path (Dijkstra over portal costs). Returns the
  // sequence of place ids from `from` to `to` inclusive.
  [[nodiscard]] Expected<std::vector<PlaceId>> route(PlaceId from,
                                                     PlaceId to) const;
  // Total cost of the shortest route, or error when disconnected.
  [[nodiscard]] Expected<double> route_cost(PlaceId from, PlaceId to) const;

  [[nodiscard]] std::vector<PlaceId> neighbours(PlaceId id) const;

  // Conversion: completes a LocRef with every representation derivable from
  // what it already carries. Errors when nothing can anchor it.
  [[nodiscard]] Expected<LocRef> resolve(const LocRef& ref) const;

  // Model-aware distance between two references: topological route cost
  // when both resolve to places, else geometric distance, else logical
  // tree distance (number of hops via the common ancestor).
  [[nodiscard]] Expected<double> distance(const LocRef& a,
                                          const LocRef& b) const;

 private:
  std::vector<Place> places_;  // index = id - 1
  std::vector<Portal> portals_;
  std::unordered_map<std::string, PlaceId> by_path_;
  std::unordered_map<PlaceId, std::vector<std::pair<PlaceId, double>>>
      adjacency_;
};

}  // namespace sci::location
