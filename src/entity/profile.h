// SCI — Context Entity profiles and advertisements (paper §3.1, §4).
//
// "A CE maintains a Profile for its entity that contains meta-data
// describing the entity. For entities that provide a service, the CE may
// also maintain an Advertisement describing the services that this entity
// can provide." Profiles carry the typed input/output signatures the Query
// Resolver matches during composition; Advertisements carry the 'well
// known' service interface a CAA invokes directly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.h"
#include "common/guid.h"
#include "location/models.h"
#include "serde/value.h"

namespace sci::entity {

// The five entity kinds of Figure 2.
enum class EntityKind : std::uint8_t {
  kPerson = 0,
  kSoftware,
  kPlace,
  kDevice,
  kArtifact,
};

std::string_view to_string(EntityKind kind);
Expected<EntityKind> entity_kind_from_string(std::string_view text);

// A typed data signature: what a CE consumes or produces. `name` is the
// event type ("location.update"); `unit` disambiguates representations
// ("celsius" vs "fahrenheit"); `semantic` names the meaning independent of
// syntax ("position"), which is what lets the resolver treat a door-sensor
// location source and a W-LAN location source as interchangeable — the
// interoperability gap the paper calls out in iQueue (§2).
struct TypeSig {
  std::string name;
  std::string unit;      // optional, "" = unitless
  std::string semantic;  // optional, "" = no declared semantics

  [[nodiscard]] std::string to_string() const;

  void encode(serde::Writer& w) const;
  static Expected<TypeSig> decode(serde::Reader& r);

  friend bool operator==(const TypeSig&, const TypeSig&) = default;
};

struct Profile {
  Guid entity;
  std::string name;  // human-readable ("Bob", "Printer P1")
  EntityKind kind = EntityKind::kDevice;
  std::vector<TypeSig> inputs;   // event types this CE consumes
  std::vector<TypeSig> outputs;  // event types this CE produces
  Value metadata;                // free-form descriptive attributes
  location::LocRef location;     // last known location (may be empty)
  // Monotonic per-entity update counter: the Profile Manager and mirror
  // ingest discard an older version that arrives from a second sender (a
  // vnode's previous owner) after a newer one.
  std::uint64_t version = 0;

  [[nodiscard]] bool produces(std::string_view type_name) const;
  [[nodiscard]] bool consumes(std::string_view type_name) const;
  [[nodiscard]] const TypeSig* output_named(std::string_view type_name) const;

  void encode(serde::Writer& w) const;
  static Expected<Profile> decode(serde::Reader& r);
};

// One invocable method on a service interface.
struct MethodDesc {
  std::string name;
  std::vector<std::string> params;  // named parameters (documentation only)

  void encode(serde::Writer& w) const;
  static Expected<MethodDesc> decode(serde::Reader& r);

  friend bool operator==(const MethodDesc&, const MethodDesc&) = default;
};

// The 'well known' interface a service-providing CE advertises (paper §4:
// "Advertisements take the form of 'well known' interfaces in order that
// CAAs may transfer service specific data to CEs").
struct Advertisement {
  std::string service;  // interface name, e.g. "printing"
  std::vector<MethodDesc> methods;
  Value attributes;  // static service attributes (e.g. pages/minute)

  [[nodiscard]] const MethodDesc* method(std::string_view name) const;

  void encode(serde::Writer& w) const;
  static Expected<Advertisement> decode(serde::Reader& r);
};

// One Profile Manager entry: a profile and its optional advertisement. The
// wire form (profile, presence flag, advertisement) is what sibling-shard
// mirrors, vnode handoff, the replication log and snapshots all carry.
struct ProfileRecord {
  Profile profile;
  std::optional<Advertisement> advertisement;

  void encode(serde::Writer& w) const;
  static Expected<ProfileRecord> decode(serde::Reader& r);
};

}  // namespace sci::entity
