// SCI — the context query model (paper §4.3, Fig 6).
//
// A query has five sections plus identity:
//   what  — an entity type, a named entity (GUID), or an information
//           pattern (event type / semantic, optionally unit-constrained)
//   where — explicit location, another range, or relative ("closest to me")
//   when  — temporal execution condition (immediate, not-before, or
//           triggered by an entity entering a place — CAPA's "when I reach
//           Room L10.01")
//   which — qualitative selection among multiple candidates (closest,
//           min/max attribute, plus hard requirements)
//   mode  — profile request | event subscription | one-time subscription |
//           advertisement request
//
// The wire format is the paper's XML document:
//   <query>
//     <query_id>…</query_id> <owner_id>…</owner_id>
//     <what>…</what> <where>…</where> <when>…</when> <which>…</which>
//     <mode>…</mode>
//   </query>
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/expected.h"
#include "common/guid.h"
#include "location/models.h"
#include "serde/value.h"
#include "serde/xml.h"

namespace sci::query {

enum class QueryMode : std::uint8_t {
  kProfileRequest = 0,
  kEventSubscription,
  kOneTimeSubscription,
  kAdvertisementRequest,
};

std::string_view to_string(QueryMode mode);
Expected<QueryMode> query_mode_from_string(std::string_view text);

// --- what ------------------------------------------------------------

enum class WhatKind : std::uint8_t {
  kEntityType = 0,  // e.g. "a printer" (matched against advertised service
                    // or entity kind)
  kNamedEntity,     // a specific GUID
  kPattern,         // information fitting a pattern, e.g. temperature in C
};

struct WhatClause {
  WhatKind kind = WhatKind::kPattern;
  std::string entity_type;  // kEntityType: service/kind name
  Guid named;               // kNamedEntity
  std::string type;         // kPattern: event type name ("" = match by
                            // semantic only)
  std::string unit;         // kPattern: required unit ("" = any)
  std::string semantic;     // kPattern: required semantics ("" = none)
  // kPattern about a specific subject ("location OF Bob"): the resolver
  // narrows the configuration to this entity.
  std::optional<Guid> subject;
  // Profile-mode pull from the Context Store: how many stored events to
  // return (0 = just the current context).
  unsigned history = 0;
};

// --- where -----------------------------------------------------------

struct WhereClause {
  // Explicit place ("Room 10.01").
  std::optional<location::LogicalPath> explicit_path;
  // Relative: closest to the query owner (or to a named entity).
  bool closest = false;
  std::optional<Guid> relative_to;  // defaults to the owner when `closest`
  // Direct range targeting (forwarding hint; normally derived from
  // explicit_path by the Context Server).
  std::optional<Guid> range;

  [[nodiscard]] bool is_empty() const {
    return !explicit_path && !closest && !range;
  }
};

// --- when ------------------------------------------------------------

struct WhenTrigger {
  Guid entity;                  // who must move
  location::LogicalPath place;  // where they must arrive
};

struct WhenClause {
  // Immediate unless constrained.
  std::optional<double> not_before_seconds;  // virtual time lower bound
  std::optional<WhenTrigger> trigger;        // deferred until the trigger
  // Subscriptions may carry an expiry; 0 = no expiry.
  double expires_after_seconds = 0.0;

  [[nodiscard]] bool is_immediate() const {
    return !not_before_seconds && !trigger;
  }
};

// --- which -----------------------------------------------------------

enum class SelectPolicy : std::uint8_t {
  kAny = 0,    // first acceptable candidate
  kClosest,    // minimise distance to the where/owner anchor
  kMinAttr,    // minimise a numeric profile attribute (e.g. queue_length)
  kMaxAttr,    // maximise a numeric profile attribute
};

std::string_view to_string(SelectPolicy policy);

struct Requirement {
  std::string key;  // profile metadata key
  Value equals;     // required value
};

struct WhichClause {
  SelectPolicy policy = SelectPolicy::kAny;
  std::string attr_key;  // for kMinAttr/kMaxAttr, and tie-breaking
  std::vector<Requirement> require;
  // Honour lock/keyholder access semantics (candidate excluded when its
  // metadata says locked=true and the owner is not a keyholder).
  bool check_access = false;
  // Quality-of-context contracts (paper §6 item 2: "contracts on quality of
  // the context information"):
  //  * fresh_within_seconds — candidates whose last sign of life is older
  //    than this are excluded (0 = no contract);
  //  * min_confidence — subscription deliveries whose payload carries a
  //    "confidence" below this are suppressed, and candidates advertising a
  //    lower confidence are excluded (0 = no contract).
  double fresh_within_seconds = 0.0;
  double min_confidence = 0.0;
};

// --- the query -------------------------------------------------------

struct Query {
  std::string id;
  Guid owner;
  WhatClause what;
  WhereClause where;
  WhenClause when;
  WhichClause which;
  QueryMode mode = QueryMode::kEventSubscription;

  [[nodiscard]] std::string to_xml() const;
  static Expected<Query> parse(std::string_view xml_text);

  // Structural validation beyond parse (e.g. named entity needs a GUID).
  [[nodiscard]] Status validate() const;
};

// Fluent builder — the documented entry point for constructing queries.
// Reads like the paper's scenarios and ends in a mode-stamping terminal:
//   auto q = Builder("q1", bob)
//       .what_pattern("temperature").unit("celsius")
//       .closest_to(bob)
//       .subscribe();
// Each what_* setter picks the what-kind; unit()/semantic() refine a
// pattern. The terminals (subscribe / once / profile / advertisement)
// return the finished Query, so a Builder expression is a complete
// sentence: what, where, when, which, and finally how it executes.
class Builder {
 public:
  Builder(std::string id, Guid owner) {
    query_.id = std::move(id);
    query_.owner = owner;
  }

  // --- what ---
  Builder& what_entity_type(std::string type) {
    query_.what.kind = WhatKind::kEntityType;
    query_.what.entity_type = std::move(type);
    return *this;
  }
  Builder& what_named(Guid entity) {
    query_.what.kind = WhatKind::kNamedEntity;
    query_.what.named = entity;
    return *this;
  }
  Builder& what_pattern(std::string type) {
    query_.what.kind = WhatKind::kPattern;
    query_.what.type = std::move(type);
    return *this;
  }
  // Pattern refinements (meaningful after what_pattern).
  Builder& unit(std::string u) {
    query_.what.unit = std::move(u);
    return *this;
  }
  Builder& semantic(std::string s) {
    query_.what.kind = WhatKind::kPattern;
    query_.what.semantic = std::move(s);
    return *this;
  }
  Builder& about(Guid subject) {
    query_.what.subject = subject;
    return *this;
  }
  // Pull `count` stored events from the Context Store (profile mode).
  Builder& with_history(unsigned count) {
    query_.what.history = count;
    return *this;
  }

  // --- where ---
  Builder& in(location::LogicalPath path) {
    query_.where.explicit_path = std::move(path);
    return *this;
  }
  Builder& in_range(Guid range) {
    query_.where.range = range;
    return *this;
  }
  Builder& closest_to_me() {
    query_.where.closest = true;
    return *this;
  }
  Builder& closest_to(Guid entity) {
    query_.where.closest = true;
    query_.where.relative_to = entity;
    return *this;
  }
  // Anchors the query to an entity without requesting closest-selection
  // (e.g. the 'from' end of a path request).
  Builder& relative_to(Guid entity) {
    query_.where.relative_to = entity;
    return *this;
  }

  // --- when ---
  Builder& when_enters(Guid entity, location::LogicalPath place) {
    query_.when.trigger = WhenTrigger{entity, std::move(place)};
    return *this;
  }
  Builder& not_before(double seconds) {
    query_.when.not_before_seconds = seconds;
    return *this;
  }
  Builder& expires_after(double seconds) {
    query_.when.expires_after_seconds = seconds;
    return *this;
  }

  // --- which ---
  Builder& select(SelectPolicy policy, std::string attr_key = "") {
    query_.which.policy = policy;
    query_.which.attr_key = std::move(attr_key);
    return *this;
  }
  Builder& require(std::string key, Value equals) {
    query_.which.require.push_back(
        Requirement{std::move(key), std::move(equals)});
    return *this;
  }
  Builder& check_access() {
    query_.which.check_access = true;
    return *this;
  }
  Builder& fresh_within(double seconds) {
    query_.which.fresh_within_seconds = seconds;
    return *this;
  }
  Builder& min_confidence(double confidence) {
    query_.which.min_confidence = confidence;
    return *this;
  }

  // --- terminals: stamp the mode and return the finished query ---
  [[nodiscard]] Query subscribe() const {
    return finish(QueryMode::kEventSubscription);
  }
  [[nodiscard]] Query once() const {
    return finish(QueryMode::kOneTimeSubscription);
  }
  [[nodiscard]] Query profile() const {
    return finish(QueryMode::kProfileRequest);
  }
  [[nodiscard]] Query advertisement() const {
    return finish(QueryMode::kAdvertisementRequest);
  }

  // Escape hatches for generic code that carries the mode as a value.
  Builder& mode(QueryMode m) {
    query_.mode = m;
    return *this;
  }
  [[nodiscard]] Query build() const { return query_; }
  [[nodiscard]] std::string to_xml() const { return query_.to_xml(); }

 private:
  [[nodiscard]] Query finish(QueryMode m) const {
    Query q = query_;
    q.mode = m;
    return q;
  }

  Query query_;
};

}  // namespace sci::query
