#include "entity/sensors.h"

#include "common/log.h"

namespace sci::entity {

namespace {
constexpr const char* kTag = "sensors";

Value place_to_payload(Guid entity, location::PlaceId place,
                       const location::LocationDirectory* directory) {
  ValueMap payload;
  payload.emplace("entity", entity);
  payload.emplace("place", static_cast<std::int64_t>(place));
  // Door sensors are exact: full quality-of-context confidence.
  payload.emplace("confidence", 1.0);
  if (directory != nullptr) {
    if (const location::Place* p = directory->place(place); p != nullptr) {
      payload.emplace("x", p->anchor.x);
      payload.emplace("y", p->anchor.y);
      payload.emplace("logical", p->path.to_string());
    }
  }
  return Value(std::move(payload));
}

}  // namespace

// ------------------------------------------------------------------
// DoorSensorCE

DoorSensorCE::DoorSensorCE(net::Network& network, Guid id, std::string name,
                           location::PlaceId place_a,
                           location::PlaceId place_b)
    : ContextEntity(network, id, std::move(name), EntityKind::kDevice),
      place_a_(place_a),
      place_b_(place_b) {}

std::vector<TypeSig> DoorSensorCE::profile_outputs() const {
  return {TypeSig{types::kDoorTransit, "", "transit"}};
}

void DoorSensorCE::sense_transit(Guid badge, location::PlaceId from,
                                 location::PlaceId to) {
  SCI_ASSERT_MSG((from == place_a_ && to == place_b_) ||
                     (from == place_b_ && to == place_a_),
                 "transit through a door it does not guard");
  ValueMap payload;
  payload.emplace("entity", badge);
  payload.emplace("from_place", static_cast<std::int64_t>(from));
  payload.emplace("to_place", static_cast<std::int64_t>(to));
  payload.emplace("door", name());
  publish(types::kDoorTransit, Value(std::move(payload)));
}

// ------------------------------------------------------------------
// ObjectLocationCE

ObjectLocationCE::ObjectLocationCE(
    net::Network& network, Guid id, std::string name,
    const location::LocationDirectory* directory)
    : ContextEntity(network, id, std::move(name), EntityKind::kSoftware),
      directory_(directory) {}

std::vector<TypeSig> ObjectLocationCE::profile_inputs() const {
  return {TypeSig{types::kDoorTransit, "", "transit"}};
}

std::vector<TypeSig> ObjectLocationCE::profile_outputs() const {
  return {TypeSig{types::kLocationUpdate, "", types::kSemPosition}};
}

location::PlaceId ObjectLocationCE::last_place(Guid entity) const {
  const auto it = positions_.find(entity);
  return it == positions_.end() ? location::kNoPlace : it->second;
}

void ObjectLocationCE::seed(Guid entity, location::PlaceId place) {
  positions_[entity] = place;
}

void ObjectLocationCE::on_event(const event::Event& event,
                                std::uint64_t owner_tag) {
  (void)owner_tag;
  if (event.type != types::kDoorTransit) return;
  const auto entity = event.payload.at("entity").as_guid();
  const location::PlaceId place =
      location::place_id(event.payload.at("to_place"));
  if (!entity || place == location::kNoPlace) {
    SCI_WARN(kTag, "%s: malformed door.transit payload", name().c_str());
    return;
  }
  positions_[*entity] = place;
  publish_location(*entity, place);
}

void ObjectLocationCE::publish_location(Guid entity,
                                        location::PlaceId place) {
  publish(types::kLocationUpdate, place_to_payload(entity, place, directory_));
}

// ------------------------------------------------------------------
// WlanBaseStationCE

WlanBaseStationCE::WlanBaseStationCE(net::Network& network, Guid id,
                                     std::string name,
                                     location::Point position)
    : ContextEntity(network, id, std::move(name), EntityKind::kDevice),
      position_(position) {}

std::vector<TypeSig> WlanBaseStationCE::profile_outputs() const {
  return {TypeSig{types::kWlanSighting, "dbm", types::kSemPresence}};
}

void WlanBaseStationCE::sense(Guid badge, double rssi) {
  ValueMap payload;
  payload.emplace("entity", badge);
  payload.emplace("rssi", rssi);
  payload.emplace("station_x", position_.x);
  payload.emplace("station_y", position_.y);
  payload.emplace("station", name());
  publish(types::kWlanSighting, Value(std::move(payload)));
}

// ------------------------------------------------------------------
// WlanLocationCE

WlanLocationCE::WlanLocationCE(net::Network& network, Guid id,
                               std::string name,
                               const location::LocationDirectory* directory,
                               location::PathLossModel model)
    : ContextEntity(network, id, std::move(name), EntityKind::kSoftware),
      directory_(directory),
      model_(model) {}

std::vector<TypeSig> WlanLocationCE::profile_inputs() const {
  return {TypeSig{types::kWlanSighting, "dbm", types::kSemPresence}};
}

std::vector<TypeSig> WlanLocationCE::profile_outputs() const {
  return {TypeSig{types::kLocationUpdate, "", types::kSemPosition}};
}

void WlanLocationCE::on_event(const event::Event& event,
                              std::uint64_t owner_tag) {
  (void)owner_tag;
  if (event.type != types::kWlanSighting) return;
  const auto entity = event.payload.at("entity").as_guid();
  const auto rssi = event.payload.at("rssi").as_double();
  const auto sx = event.payload.at("station_x").as_double();
  const auto sy = event.payload.at("station_y").as_double();
  if (!entity || !rssi || !sx || !sy) {
    SCI_WARN(kTag, "%s: malformed wlan.sighting payload", name().c_str());
    return;
  }
  // Key stations by quantised position (stable across events).
  const auto key = static_cast<std::uint64_t>(
                       static_cast<std::int64_t>(*sx * 100.0)) *
                       1000003ULL ^
                   static_cast<std::uint64_t>(
                       static_cast<std::int64_t>(*sy * 100.0));
  auto& per_entity = sightings_[*entity];
  per_entity[key] = Sighting{location::Point{*sx, *sy}, *rssi};

  if (per_entity.size() < 3) return;
  std::vector<location::BeaconReading> readings;
  readings.reserve(per_entity.size());
  for (const auto& [station_key, sighting] : per_entity) {
    readings.push_back(
        location::BeaconReading{sighting.station, sighting.rssi});
  }
  const auto position = location::trilaterate(readings, model_);
  if (!position) return;  // collinear stations — wait for more data

  location::PlaceId place = location::kNoPlace;
  if (directory_ != nullptr) place = directory_->locate(*position);
  // QoC: radio positioning degrades with fit residual; report it so
  // min_confidence contracts can gate deliveries.
  const double residual =
      location::trilateration_residual(readings, model_, *position);
  ValueMap payload;
  payload.emplace("entity", *entity);
  payload.emplace("place", static_cast<std::int64_t>(place));
  payload.emplace("confidence", 1.0 / (1.0 + residual));
  payload.emplace("x", position->x);
  payload.emplace("y", position->y);
  if (directory_ != nullptr) {
    if (const location::Place* p = directory_->place(place); p != nullptr) {
      payload.emplace("logical", p->path.to_string());
    }
  }
  publish(types::kLocationUpdate, Value(std::move(payload)));
}

// ------------------------------------------------------------------
// PathCE

PathCE::PathCE(net::Network& network, Guid id, std::string name,
               const location::LocationDirectory* directory)
    : ContextEntity(network, id, std::move(name), EntityKind::kSoftware),
      directory_(directory) {}

std::vector<TypeSig> PathCE::profile_inputs() const {
  return {TypeSig{types::kLocationUpdate, "", types::kSemPosition}};
}

std::vector<TypeSig> PathCE::profile_outputs() const {
  return {TypeSig{types::kPathUpdate, "", types::kSemRoute}};
}

void PathCE::on_configure(std::uint64_t config_tag, const Value& params) {
  const auto from = params.at("from").as_guid();
  const auto to = params.at("to").as_guid();
  if (!from || !to) {
    SCI_WARN(kTag, "%s: configure without from/to entities", name().c_str());
    return;
  }
  Tracking tracking;
  tracking.from = *from;
  tracking.to = *to;
  // Optional seeds let a configuration start from known positions.
  if (params.contains("from_place")) {
    tracking.from_place = location::place_id(params.at("from_place"));
  }
  if (params.contains("to_place")) {
    tracking.to_place = location::place_id(params.at("to_place"));
  }
  configs_[config_tag] = tracking;
  recompute(config_tag, configs_[config_tag]);
}

void PathCE::on_unconfigure(std::uint64_t config_tag) {
  configs_.erase(config_tag);
}

void PathCE::on_event(const event::Event& event, std::uint64_t owner_tag) {
  (void)owner_tag;
  if (event.type != types::kLocationUpdate) return;
  const auto entity = event.payload.at("entity").as_guid();
  const location::PlaceId place =
      location::place_id(event.payload.at("place"));
  if (!entity || place == location::kNoPlace) return;
  for (auto& [tag, tracking] : configs_) {
    bool touched = false;
    if (tracking.from == *entity && tracking.from_place != place) {
      tracking.from_place = place;
      touched = true;
    }
    if (tracking.to == *entity && tracking.to_place != place) {
      tracking.to_place = place;
      touched = true;
    }
    if (touched) recompute(tag, tracking);
  }
}

void PathCE::recompute(std::uint64_t config_tag, Tracking& tracking) {
  if (tracking.from_place == location::kNoPlace ||
      tracking.to_place == location::kNoPlace || directory_ == nullptr) {
    return;
  }
  const auto route = directory_->route(tracking.from_place,
                                       tracking.to_place);
  if (!route) {
    SCI_DEBUG(kTag, "%s: no route for config %llu", name().c_str(),
              static_cast<unsigned long long>(config_tag));
    return;
  }
  const auto cost =
      directory_->route_cost(tracking.from_place, tracking.to_place);
  ValueList route_values;
  route_values.reserve(route->size());
  for (const location::PlaceId id : *route) {
    route_values.emplace_back(static_cast<std::int64_t>(id));
  }
  ValueMap payload;
  payload.emplace("config", static_cast<std::int64_t>(config_tag));
  payload.emplace("from", tracking.from);
  payload.emplace("to", tracking.to);
  payload.emplace("route", Value(std::move(route_values)));
  payload.emplace("cost", cost ? *cost : 0.0);
  publish(types::kPathUpdate, Value(std::move(payload)));
}

// ------------------------------------------------------------------
// TemperatureSensorCE

TemperatureSensorCE::TemperatureSensorCE(net::Network& network, Guid id,
                                         std::string name, std::string unit,
                                         Duration period)
    : ContextEntity(network, id, std::move(name), EntityKind::kDevice),
      unit_(std::move(unit)),
      period_(period) {
  SCI_ASSERT(unit_ == "celsius" || unit_ == "fahrenheit");
  current_ = unit_ == "celsius" ? 20.0 : 68.0;
}

std::vector<TypeSig> TemperatureSensorCE::profile_outputs() const {
  return {TypeSig{types::kTemperature, unit_, "ambient-temperature"}};
}

void TemperatureSensorCE::on_registered() {
  rng_.emplace(simulator().rng().split());
  timer_.emplace(simulator(), period_, [this] { tick(); });
  timer_->start();
}

void TemperatureSensorCE::on_deregistered() { timer_.reset(); }

void TemperatureSensorCE::tick() {
  // Bounded random walk around a comfortable indoor temperature.
  const double center = unit_ == "celsius" ? 20.0 : 68.0;
  const double step = rng_->next_double(-0.5, 0.5);
  current_ += step + (center - current_) * 0.05;
  ValueMap payload;
  payload.emplace("value", current_);
  payload.emplace("unit", unit_);
  publish(types::kTemperature, Value(std::move(payload)));
}

}  // namespace sci::entity
