// SCI — Location Service (Context Utility, paper §3.1).
//
// "Handles the resolution of location related tasks": keeping entity
// locations current from location-bearing events, computing model-aware
// distances for "closest" selection, resolving query anchors, and
// evaluating the place predicates behind deferred-query triggers.
#pragma once

#include <optional>

#include "common/expected.h"
#include "event/event.h"
#include "location/models.h"
#include "range/registrar.h"

namespace sci::range {

class LocationService {
 public:
  explicit LocationService(const location::LocationDirectory* directory)
      : directory_(directory) {}

  [[nodiscard]] const location::LocationDirectory* directory() const {
    return directory_;
  }

  // Inspects a published event; when it carries a position (location.update
  // or door.transit), updates the subject entity's profile location in the
  // Profile Manager. Returns the subject's new LocRef when one was applied.
  std::optional<location::LocRef> observe(const event::Event& event,
                                          ProfileManager& profiles);

  // Model-aware distance (topological > geometric > logical).
  [[nodiscard]] Expected<double> distance(const location::LocRef& a,
                                          const location::LocRef& b) const;

  // True when `loc` lies in (or equals) the logical `place` — the predicate
  // for "Bob enters Room L10.01" triggers.
  [[nodiscard]] bool within(const location::LocRef& loc,
                            const location::LogicalPath& place) const;

  // The current location of `entity` per its profile, resolved against the
  // directory (empty optional when unknown).
  [[nodiscard]] std::optional<location::LocRef> locate_entity(
      Guid entity, const ProfileManager& profiles) const;

 private:
  const location::LocationDirectory* directory_;
};

}  // namespace sci::range
