#include "location/models.h"

#include <algorithm>
#include <queue>

namespace sci::location {

// ------------------------------------------------------------------
// LogicalPath

Expected<LogicalPath> LogicalPath::parse(std::string_view text) {
  std::vector<std::string> segments;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t slash = text.find('/', start);
    const std::size_t end = slash == std::string_view::npos ? text.size() : slash;
    if (end == start) {
      if (text.empty()) break;  // empty path is valid (the universe)
      return make_error(ErrorCode::kParseError,
                        "empty segment in logical path '" + std::string(text) +
                            "'");
    }
    segments.emplace_back(text.substr(start, end - start));
    if (slash == std::string_view::npos) break;
    start = slash + 1;
  }
  return LogicalPath(std::move(segments));
}

bool LogicalPath::is_ancestor_of(const LogicalPath& other) const {
  if (segments_.size() >= other.segments_.size()) return false;
  return std::equal(segments_.begin(), segments_.end(),
                    other.segments_.begin());
}

LogicalPath LogicalPath::common_ancestor(const LogicalPath& other) const {
  std::vector<std::string> shared;
  const std::size_t limit = std::min(segments_.size(), other.segments_.size());
  for (std::size_t i = 0; i < limit; ++i) {
    if (segments_[i] != other.segments_[i]) break;
    shared.push_back(segments_[i]);
  }
  return LogicalPath(std::move(shared));
}

LogicalPath LogicalPath::parent() const {
  if (segments_.empty()) return {};
  return LogicalPath(
      std::vector<std::string>(segments_.begin(), segments_.end() - 1));
}

LogicalPath LogicalPath::child(std::string segment) const {
  std::vector<std::string> segments = segments_;
  segments.push_back(std::move(segment));
  return LogicalPath(std::move(segments));
}

std::string LogicalPath::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (i > 0) out.push_back('/');
    out += segments_[i];
  }
  return out;
}

// ------------------------------------------------------------------
// LocRef

PlaceId place_id(const Value& value) {
  const auto id = value.as_int();
  if (!id || *id < 1 || *id > static_cast<std::int64_t>(UINT32_MAX)) {
    return kNoPlace;
  }
  return static_cast<PlaceId>(*id);
}

Value LocRef::to_value() const {
  ValueMap map;
  if (logical) map.emplace("logical", logical->to_string());
  if (geometric) {
    map.emplace("x", geometric->x);
    map.emplace("y", geometric->y);
  }
  if (place != kNoPlace) {
    map.emplace("place", static_cast<std::int64_t>(place));
  }
  return Value(std::move(map));
}

Expected<LocRef> LocRef::from_value(const Value& value) {
  if (value.kind() != Value::Kind::kMap)
    return make_error(ErrorCode::kParseError, "LocRef value must be a map");
  LocRef ref;
  if (value.contains("logical")) {
    SCI_TRY_ASSIGN(text, value.at("logical").as_string());
    SCI_TRY_ASSIGN(path, LogicalPath::parse(text));
    ref.logical = std::move(path);
  }
  if (value.contains("x") || value.contains("y")) {
    SCI_TRY_ASSIGN(x, value.at("x").as_double());
    SCI_TRY_ASSIGN(y, value.at("y").as_double());
    ref.geometric = Point{x, y};
  }
  if (value.contains("place")) {
    ref.place = place_id(value.at("place"));
    if (ref.place == kNoPlace)
      return make_error(ErrorCode::kParseError, "place id out of range");
  }
  return ref;
}

std::string LocRef::to_string() const {
  std::string out = "loc{";
  bool first = true;
  if (logical) {
    out += "logical=" + logical->to_string();
    first = false;
  }
  if (geometric) {
    if (!first) out += ", ";
    out += "point=" + geometric->to_string();
    first = false;
  }
  if (place != kNoPlace) {
    if (!first) out += ", ";
    out += "place=" + std::to_string(place);
  }
  return out + "}";
}

// ------------------------------------------------------------------
// LocationDirectory

Expected<PlaceId> LocationDirectory::add_place(LogicalPath path,
                                               Polygon footprint) {
  const std::string key = path.to_string();
  if (by_path_.contains(key))
    return make_error(ErrorCode::kAlreadyExists,
                      "place already registered: " + key);
  Place place;
  place.id = static_cast<PlaceId>(places_.size() + 1);
  place.path = std::move(path);
  place.anchor = footprint.empty() ? Point{} : footprint.centroid();
  place.footprint = std::move(footprint);
  by_path_.emplace(key, place.id);
  places_.push_back(std::move(place));
  return places_.back().id;
}

Status LocationDirectory::connect(PlaceId a, PlaceId b, double cost,
                                  Guid sensor) {
  const Place* pa = place(a);
  const Place* pb = place(b);
  if (pa == nullptr || pb == nullptr)
    return make_error(ErrorCode::kNotFound, "portal endpoint unknown");
  if (a == b)
    return make_error(ErrorCode::kInvalidArgument, "portal endpoints equal");
  if (cost < 0.0) cost = location::distance(pa->anchor, pb->anchor);
  if (cost <= 0.0) cost = 1.0;
  portals_.push_back(Portal{a, b, cost, sensor});
  adjacency_[a].emplace_back(b, cost);
  adjacency_[b].emplace_back(a, cost);
  return Status::ok();
}

const Place* LocationDirectory::place(PlaceId id) const {
  if (id == kNoPlace || id > places_.size()) return nullptr;
  return &places_[id - 1];
}

const Place* LocationDirectory::place_by_path(const LogicalPath& path) const {
  const auto it = by_path_.find(path.to_string());
  return it == by_path_.end() ? nullptr : place(it->second);
}

PlaceId LocationDirectory::locate(Point p) const {
  PlaceId best = kNoPlace;
  std::size_t best_depth = 0;
  for (const Place& candidate : places_) {
    if (candidate.footprint.empty() || !candidate.footprint.contains(p))
      continue;
    if (best == kNoPlace || candidate.path.depth() > best_depth) {
      best = candidate.id;
      best_depth = candidate.path.depth();
    }
  }
  return best;
}

Expected<std::vector<PlaceId>> LocationDirectory::route(PlaceId from,
                                                        PlaceId to) const {
  if (place(from) == nullptr || place(to) == nullptr)
    return make_error(ErrorCode::kNotFound, "route endpoint unknown");
  if (from == to) return std::vector<PlaceId>{from};

  // Dijkstra over portal costs.
  struct QueueEntry {
    double cost;
    PlaceId id;
    bool operator>(const QueueEntry& other) const {
      return cost > other.cost;
    }
  };
  std::unordered_map<PlaceId, double> best_cost;
  std::unordered_map<PlaceId, PlaceId> came_from;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      frontier;
  frontier.push({0.0, from});
  best_cost[from] = 0.0;
  while (!frontier.empty()) {
    const auto [cost, id] = frontier.top();
    frontier.pop();
    if (cost > best_cost[id]) continue;  // stale entry
    if (id == to) break;
    const auto adjacency_it = adjacency_.find(id);
    if (adjacency_it == adjacency_.end()) continue;
    for (const auto& [next, edge_cost] : adjacency_it->second) {
      const double next_cost = cost + edge_cost;
      const auto it = best_cost.find(next);
      if (it == best_cost.end() || next_cost < it->second) {
        best_cost[next] = next_cost;
        came_from[next] = id;
        frontier.push({next_cost, next});
      }
    }
  }
  if (!came_from.contains(to))
    return make_error(ErrorCode::kUnresolvable,
                      "no topological route between places");
  std::vector<PlaceId> path{to};
  PlaceId cursor = to;
  while (cursor != from) {
    cursor = came_from.at(cursor);
    path.push_back(cursor);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

Expected<double> LocationDirectory::route_cost(PlaceId from,
                                               PlaceId to) const {
  SCI_TRY_ASSIGN(path, route(from, to));
  double total = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    // Recover the edge cost from adjacency (cheapest parallel edge).
    const auto& edges = adjacency_.at(path[i - 1]);
    double best = -1.0;
    for (const auto& [next, cost] : edges) {
      if (next == path[i] && (best < 0.0 || cost < best)) best = cost;
    }
    SCI_ASSERT(best >= 0.0);
    total += best;
  }
  return total;
}

std::vector<PlaceId> LocationDirectory::neighbours(PlaceId id) const {
  std::vector<PlaceId> out;
  const auto it = adjacency_.find(id);
  if (it == adjacency_.end()) return out;
  for (const auto& [next, cost] : it->second) out.push_back(next);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Expected<LocRef> LocationDirectory::resolve(const LocRef& ref) const {
  if (ref.is_empty())
    return make_error(ErrorCode::kInvalidArgument, "empty location reference");
  LocRef out = ref;

  // Anchor on a place id first.
  if (out.place == kNoPlace && out.logical) {
    if (const Place* p = place_by_path(*out.logical); p != nullptr) {
      out.place = p->id;
    }
  }
  if (out.place == kNoPlace && out.geometric) {
    out.place = locate(*out.geometric);
  }

  // Fill remaining representations from the place record.
  if (const Place* p = place(out.place); p != nullptr) {
    if (!out.logical) out.logical = p->path;
    if (!out.geometric) out.geometric = p->anchor;
  }

  if (!out.logical && !out.geometric && out.place == kNoPlace)
    return make_error(ErrorCode::kUnresolvable,
                      "location reference resolves to nothing");
  return out;
}

Expected<double> LocationDirectory::distance(const LocRef& a,
                                             const LocRef& b) const {
  SCI_TRY_ASSIGN(ra, resolve(a));
  SCI_TRY_ASSIGN(rb, resolve(b));
  // Prefer topological route cost — it respects walls and doors.
  if (ra.place != kNoPlace && rb.place != kNoPlace) {
    auto cost = route_cost(ra.place, rb.place);
    if (cost) return *cost;
    // Disconnected in the portal graph: fall through to geometry.
  }
  if (ra.geometric && rb.geometric) {
    return location::distance(*ra.geometric, *rb.geometric);
  }
  if (ra.logical && rb.logical) {
    // Logical tree distance: hops up to the common ancestor and back down.
    const LogicalPath ancestor = ra.logical->common_ancestor(*rb.logical);
    const auto up = ra.logical->depth() - ancestor.depth();
    const auto down = rb.logical->depth() - ancestor.depth();
    return static_cast<double>(up + down);
  }
  return make_error(ErrorCode::kUnresolvable,
                    "no common location model between references");
}

}  // namespace sci::location
