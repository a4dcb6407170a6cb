// Unit tests for sci::range utilities — Registrar, Profile Manager, Event
// Mediator, Range Directory and Location Service.
#include <gtest/gtest.h>

#include "entity/sensors.h"
#include "mobility/building.h"
#include "range/directory.h"
#include "range/event_mediator.h"
#include "range/location_service.h"
#include "range/registrar.h"

#include "metric_counts.h"

namespace sci::range {
namespace {

Guid guid_of(std::uint64_t n) { return Guid(0, n); }

entity::Profile profile_of(std::uint64_t id, std::string name = "") {
  entity::Profile p;
  p.entity = guid_of(id);
  p.name = name.empty() ? "e" + std::to_string(id) : std::move(name);
  return p;
}

// -------------------------------------------------------------- Registrar

TEST(RegistrarTest, AddRemoveContains) {
  Registrar registrar;
  const SimTime t = SimTime::from_micros(100);
  EXPECT_TRUE(registrar.add(guid_of(1), false, t).is_ok());
  EXPECT_TRUE(registrar.add(guid_of(2), true, t).is_ok());
  EXPECT_FALSE(registrar.add(guid_of(1), false, t).is_ok());  // duplicate
  EXPECT_FALSE(registrar.add(Guid(), false, t).is_ok());      // nil
  EXPECT_TRUE(registrar.contains(guid_of(1)));
  EXPECT_EQ(registrar.size(), 2u);
  EXPECT_TRUE(registrar.remove(guid_of(1)).is_ok());
  EXPECT_FALSE(registrar.remove(guid_of(1)).is_ok());
  EXPECT_FALSE(registrar.contains(guid_of(1)));
}

TEST(RegistrarTest, SeparatesAppsFromEntities) {
  Registrar registrar;
  const SimTime t = SimTime::zero();
  ASSERT_TRUE(registrar.add(guid_of(3), false, t).is_ok());
  ASSERT_TRUE(registrar.add(guid_of(1), true, t).is_ok());
  ASSERT_TRUE(registrar.add(guid_of(2), false, t).is_ok());
  EXPECT_EQ(registrar.entities(), (std::vector<Guid>{guid_of(2), guid_of(3)}));
  EXPECT_EQ(registrar.applications(), (std::vector<Guid>{guid_of(1)}));
  EXPECT_EQ(registrar.members().size(), 3u);
}

TEST(RegistrarTest, PingAccounting) {
  Registrar registrar;
  ASSERT_TRUE(registrar.add(guid_of(1), false, SimTime::zero()).is_ok());
  EXPECT_EQ(registrar.record_missed_ping(guid_of(1)), 1u);
  EXPECT_EQ(registrar.record_missed_ping(guid_of(1)), 2u);
  registrar.clear_missed_pings(guid_of(1));
  EXPECT_EQ(registrar.record_missed_ping(guid_of(1)), 1u);
  registrar.touch(guid_of(1), SimTime::from_micros(5));
  EXPECT_EQ(registrar.find(guid_of(1))->missed_pings, 0u);
  EXPECT_EQ(registrar.find(guid_of(1))->last_seen.micros(), 5);
  EXPECT_EQ(registrar.record_missed_ping(guid_of(99)), 0u);  // unknown
}

// ---------------------------------------------------------- ProfileManager

TEST(ProfileManagerTest, PutUpdateRemove) {
  ProfileManager profiles;
  profiles.put(profile_of(1, "printer"), std::nullopt);
  ASSERT_NE(profiles.profile(guid_of(1)), nullptr);
  EXPECT_EQ(profiles.profile(guid_of(1))->name, "printer");
  EXPECT_EQ(profiles.advertisement(guid_of(1)), nullptr);

  entity::Profile updated = profile_of(1, "printer-renamed");
  EXPECT_TRUE(profiles.update(updated).is_ok());
  EXPECT_EQ(profiles.profile(guid_of(1))->name, "printer-renamed");
  EXPECT_FALSE(profiles.update(profile_of(9)).is_ok());

  EXPECT_TRUE(profiles.remove(guid_of(1)).is_ok());
  EXPECT_EQ(profiles.profile(guid_of(1)), nullptr);
  EXPECT_FALSE(profiles.remove(guid_of(1)).is_ok());
}

TEST(ProfileManagerTest, AdvertisementStorage) {
  ProfileManager profiles;
  entity::Advertisement ad;
  ad.service = "printing";
  ad.methods.push_back({"print", {"document"}});
  profiles.put(profile_of(1), ad);
  const entity::Advertisement* stored = profiles.advertisement(guid_of(1));
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->service, "printing");
  ASSERT_NE(stored->method("print"), nullptr);
  EXPECT_EQ(stored->method("status"), nullptr);
}

TEST(ProfileManagerTest, UpdateLocation) {
  ProfileManager profiles;
  profiles.put(profile_of(1), std::nullopt);
  EXPECT_TRUE(
      profiles.update_location(guid_of(1), location::LocRef::from_place(7))
          .is_ok());
  EXPECT_EQ(profiles.profile(guid_of(1))->location.place, 7u);
  EXPECT_FALSE(
      profiles.update_location(guid_of(9), location::LocRef::from_place(7))
          .is_ok());
}

TEST(ProfileManagerTest, SnapshotsAreSortedAndFiltered) {
  ProfileManager profiles;
  profiles.put(profile_of(3), std::nullopt);
  profiles.put(profile_of(1), std::nullopt);
  profiles.put(profile_of(2), std::nullopt);
  const auto all = profiles.snapshot();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].entity, guid_of(1));
  EXPECT_EQ(all[2].entity, guid_of(3));
  const auto some = profiles.snapshot_of({guid_of(2), guid_of(9)});
  ASSERT_EQ(some.size(), 1u);
  EXPECT_EQ(some[0].entity, guid_of(2));
}

// ------------------------------------------------------------ EventMediator

TEST(EventMediatorTest, DispatchDeliversOverTheNetwork) {
  sim::Simulator simulator(1);
  net::Network network(simulator);
  const Guid mediator_node = guid_of(100);
  const Guid subscriber = guid_of(101);
  ASSERT_TRUE(network.attach(mediator_node, [](const net::Message&) {}).is_ok());
  int deliveries = 0;
  ASSERT_TRUE(network
                  .attach(subscriber,
                          [&](const net::Message& m) {
                            EXPECT_EQ(m.type, entity::kDeliver);
                            ++deliveries;
                          })
                  .is_ok());
  EventMediator mediator(network, mediator_node);
  mediator.subscribe(subscriber, std::nullopt, "temp", {});

  event::Event e;
  e.type = "temp";
  e.source = guid_of(50);
  EXPECT_EQ(mediator.dispatch_shared(e).size(), 1u);
  simulator.run_all();
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(registry_count(simulator.metrics(), "em.events_in"), 1u);
  EXPECT_EQ(registry_count(simulator.metrics(), "em.deliveries"), 1u);

  EXPECT_EQ(mediator.remove_subscriber(subscriber), 1u);
  mediator.dispatch_shared(e);
  simulator.run_all();
  EXPECT_EQ(deliveries, 1);
}

// ------------------------------------------------------------ RangeDirectory

TEST(RangeDirectoryTest, LongestPrefixWins) {
  RangeDirectory directory;
  directory.add({guid_of(1), guid_of(11),
                 *location::LogicalPath::parse("campus/tower"), "tower"});
  directory.add({guid_of(2), guid_of(12),
                 *location::LogicalPath::parse("campus/tower/level10"),
                 "level10"});

  const auto lobby =
      directory.range_for_path(*location::LogicalPath::parse("campus/tower/lobby"));
  ASSERT_TRUE(lobby.has_value());
  EXPECT_EQ(lobby->range, guid_of(1));

  const auto office = directory.range_for_path(
      *location::LogicalPath::parse("campus/tower/level10/room1"));
  ASSERT_TRUE(office.has_value());
  EXPECT_EQ(office->range, guid_of(2));

  EXPECT_FALSE(directory
                   .range_for_path(*location::LogicalPath::parse("elsewhere"))
                   .has_value());
}

TEST(RangeDirectoryTest, FindRemoveAll) {
  RangeDirectory directory;
  directory.add({guid_of(1), guid_of(11),
                 *location::LogicalPath::parse("a"), "a"});
  directory.add({guid_of(2), guid_of(12),
                 *location::LogicalPath::parse("b"), "b"});
  EXPECT_TRUE(directory.find(guid_of(1)).has_value());
  EXPECT_EQ(directory.all().size(), 2u);
  directory.remove(guid_of(1));
  EXPECT_FALSE(directory.find(guid_of(1)).has_value());
  EXPECT_EQ(directory.size(), 1u);
}

// ----------------------------------------------------------- LocationService

TEST(LocationServiceTest, ObserveUpdatesProfileFromLocationEvents) {
  mobility::Building building({.floors = 1, .rooms_per_floor = 2});
  LocationService service(&building.directory());
  ProfileManager profiles;
  profiles.put(profile_of(1, "Bob"), std::nullopt);

  event::Event e;
  e.type = entity::types::kLocationUpdate;
  e.source = guid_of(50);
  e.payload = vmap({{"entity", guid_of(1)},
                    {"place", static_cast<std::int64_t>(building.room(0, 1))}});
  const auto loc = service.observe(e, profiles);
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->place, building.room(0, 1));
  EXPECT_EQ(profiles.profile(guid_of(1))->location.place, building.room(0, 1));
  ASSERT_TRUE(loc->logical.has_value());

  // Door transit events update via to_place.
  event::Event transit;
  transit.type = entity::types::kDoorTransit;
  transit.source = guid_of(51);
  transit.payload =
      vmap({{"entity", guid_of(1)},
            {"from_place", static_cast<std::int64_t>(building.room(0, 1))},
            {"to_place", static_cast<std::int64_t>(building.corridor(0))}});
  const auto loc2 = service.observe(transit, profiles);
  ASSERT_TRUE(loc2.has_value());
  EXPECT_EQ(profiles.profile(guid_of(1))->location.place,
            building.corridor(0));

  // Irrelevant events are ignored.
  event::Event other;
  other.type = "temperature";
  EXPECT_FALSE(service.observe(other, profiles).has_value());
  // Malformed payloads are ignored.
  event::Event malformed;
  malformed.type = entity::types::kLocationUpdate;
  malformed.payload = vmap({{"no_entity", 1}});
  EXPECT_FALSE(service.observe(malformed, profiles).has_value());
}

// A payload number that is not a place id is ignored rather than cast: -1
// would be undefined behaviour, and 2^32 + 1 would wrap onto place 1.
TEST(LocationServiceTest, ObserveIgnoresOutOfRangePlaceIds) {
  mobility::Building building({.floors = 1, .rooms_per_floor = 2});
  LocationService service(&building.directory());
  ProfileManager profiles;
  profiles.put(profile_of(1, "Bob"), std::nullopt);

  event::Event e;
  e.type = entity::types::kLocationUpdate;
  e.source = guid_of(50);
  e.payload = vmap({{"entity", guid_of(1)},
                    {"place", static_cast<std::int64_t>(building.room(0, 1))}});
  ASSERT_TRUE(service.observe(e, profiles).has_value());
  ASSERT_NE(building.room(0, 1), 1u);

  for (const std::int64_t bad : {std::int64_t{-1}, std::int64_t{4294967297}}) {
    event::Event update;
    update.type = entity::types::kLocationUpdate;
    update.source = guid_of(50);
    update.payload = vmap({{"entity", guid_of(1)}, {"place", bad}});
    EXPECT_FALSE(service.observe(update, profiles).has_value()) << bad;

    event::Event transit;
    transit.type = entity::types::kDoorTransit;
    transit.source = guid_of(51);
    transit.payload = vmap({{"entity", guid_of(1)}, {"to_place", bad}});
    EXPECT_FALSE(service.observe(transit, profiles).has_value()) << bad;

    EXPECT_EQ(profiles.profile(guid_of(1))->location.place,
              building.room(0, 1))
        << bad;
  }
}

TEST(LocationServiceTest, WithinEvaluatesLogicalContainment) {
  mobility::Building building({.floors = 2, .rooms_per_floor = 2});
  LocationService service(&building.directory());
  const auto room = location::LocRef::from_place(building.room(1, 0));
  EXPECT_TRUE(service.within(room, building.room_path(1, 0)));
  EXPECT_TRUE(service.within(room, building.floor_path(1)));
  EXPECT_TRUE(service.within(room, building.building_path()));
  EXPECT_FALSE(service.within(room, building.room_path(1, 1)));
  EXPECT_FALSE(service.within(room, building.floor_path(0)));
}

TEST(LocationServiceTest, LocateEntityResolvesProfileLocation) {
  mobility::Building building({.floors = 1, .rooms_per_floor = 2});
  LocationService service(&building.directory());
  ProfileManager profiles;
  entity::Profile p = profile_of(1);
  p.location = location::LocRef::from_place(building.room(0, 0));
  profiles.put(p, std::nullopt);
  profiles.put(profile_of(2), std::nullopt);  // no location

  const auto loc = service.locate_entity(guid_of(1), profiles);
  ASSERT_TRUE(loc.has_value());
  EXPECT_TRUE(loc->geometric.has_value());  // resolved to full LocRef
  EXPECT_FALSE(service.locate_entity(guid_of(2), profiles).has_value());
  EXPECT_FALSE(service.locate_entity(guid_of(9), profiles).has_value());
}

TEST(LocationServiceTest, DistanceRequiresDirectory) {
  LocationService service(nullptr);
  EXPECT_FALSE(service
                   .distance(location::LocRef::from_place(1),
                             location::LocRef::from_place(2))
                   .has_value());
}

}  // namespace
}  // namespace sci::range
