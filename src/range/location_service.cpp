#include "range/location_service.h"

#include "entity/sensors.h"

namespace sci::range {

std::optional<location::LocRef> LocationService::observe(
    const event::Event& event, ProfileManager& profiles) {
  Guid subject;
  location::PlaceId place = location::kNoPlace;
  if (event.type == entity::types::kLocationUpdate) {
    const auto entity_field = event.payload.at("entity").as_guid();
    if (!entity_field) return std::nullopt;
    subject = *entity_field;
    place = location::place_id(event.payload.at("place"));
  } else if (event.type == entity::types::kDoorTransit) {
    const auto entity_field = event.payload.at("entity").as_guid();
    if (!entity_field) return std::nullopt;
    subject = *entity_field;
    place = location::place_id(event.payload.at("to_place"));
  } else {
    return std::nullopt;
  }
  if (place == location::kNoPlace) return std::nullopt;
  location::LocRef loc = location::LocRef::from_place(place);
  if (directory_ != nullptr) {
    if (auto resolved = directory_->resolve(loc); resolved) {
      loc = std::move(*resolved);
    }
  }
  (void)profiles.update_location(subject, loc);
  return loc;
}

Expected<double> LocationService::distance(const location::LocRef& a,
                                           const location::LocRef& b) const {
  if (directory_ == nullptr)
    return make_error(ErrorCode::kUnavailable,
                      "no location directory configured");
  return directory_->distance(a, b);
}

bool LocationService::within(const location::LocRef& loc,
                             const location::LogicalPath& place) const {
  location::LocRef resolved = loc;
  if (directory_ != nullptr) {
    if (auto r = directory_->resolve(loc); r) resolved = std::move(*r);
  }
  if (!resolved.logical) return false;
  return place.contains_or_equals(*resolved.logical);
}

std::optional<location::LocRef> LocationService::locate_entity(
    Guid entity, const ProfileManager& profiles) const {
  const entity::Profile* profile = profiles.profile(entity);
  if (profile == nullptr || profile->location.is_empty()) return std::nullopt;
  if (directory_ != nullptr) {
    if (auto resolved = directory_->resolve(profile->location); resolved) {
      return *resolved;
    }
  }
  return profile->location;
}

}  // namespace sci::range
