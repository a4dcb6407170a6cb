// SCI — the Query Resolver's composition engine (paper §3.2, Fig 3).
//
// "A configuration is an event subscription graph between entities where
// the inputs to one CE are provided by the outputs of others. We use query
// data along with input and output information obtained from CE Profiles to
// perform type matching. [...] Once a complete configuration has been
// discovered (i.e. down to the sensor/data level) the Context Server sets
// up event subscriptions between the CEs involved."
//
// The resolver is pure logic: given the requested type and a snapshot of
// live CE profiles, it backward-chains from producers of the requested type
// through their inputs until every branch bottoms out at a source CE (one
// with no inputs). Consumers subscribe to *all* matching producers of each
// input — that is what makes the delivered context robust to individual
// source failure, and it is exactly how the paper wires objLocationCE to
// every doorSensorCE.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/expected.h"
#include "common/guid.h"
#include "compose/semantics.h"
#include "entity/profile.h"
#include "event/event.h"
#include "serde/value.h"

namespace sci::compose {

// One subscription the Context Server must establish.
struct PlanEdge {
  Guid producer;
  Guid consumer;  // nil when the consumer is the querying application
  std::string event_type;
  event::EventFilter filter;

  // Canonical key used for cross-configuration sharing.
  [[nodiscard]] std::string share_key() const;
};

struct ConfigurationPlan {
  std::uint64_t tag = 0;       // owner tag stamped on subscriptions
  Guid sink;                   // CE whose output answers the query
  std::string sink_type;       // event type delivered to the application
  std::vector<Guid> entities;  // every CE in the graph (sink first)
  std::vector<PlanEdge> edges; // CE-to-CE subscriptions (sensor level up)
  // Per-entity configuration parameters (kConfigure payloads).
  std::map<Guid, Value> params;

  [[nodiscard]] std::size_t depth() const { return depth_; }
  std::size_t depth_ = 0;

  [[nodiscard]] std::string to_string() const;

  // Wire form shared by the Context Server snapshot and the view table.
  void encode(serde::Writer& w) const;
  static Expected<ConfigurationPlan> decode(serde::Reader& r);
};

struct ResolveRequest {
  RequestedType requested;
  std::uint64_t tag = 0;
  // Parameters for the sink CE (e.g. {"from": bob, "to": john} for a path
  // CE). When present the sink is sent kConfigure before wiring.
  std::optional<Value> sink_params;
  // Narrow delivery to events about this entity (sets a payload filter on
  // the app-facing edge when the sink is not parameterised).
  std::optional<Guid> subject;
  // Emulate syntactic-only matching (iQueue baseline / A3 ablation).
  bool strict_syntactic = false;
  // Maximum composition depth (defensive bound).
  unsigned max_depth = 16;
};

struct ResolverStats {
  std::uint64_t resolutions = 0;
  std::uint64_t failures = 0;
  std::uint64_t profiles_scanned = 0;
  std::uint64_t edges_planned = 0;
};

class Resolver {
 public:
  explicit Resolver(const SemanticRegistry* registry)
      : registry_(registry) {}

  // Builds a configuration plan over the given live profiles. Deterministic:
  // candidates are considered in GUID order. Fails with kUnresolvable when
  // no producer of the requested type can be grounded at sensor level.
  Expected<ConfigurationPlan> resolve(const ResolveRequest& request,
                                      const std::vector<entity::Profile>& live);

  [[nodiscard]] const ResolverStats& stats() const { return stats_; }

 private:
  const SemanticRegistry* registry_;
  ResolverStats stats_;
};

}  // namespace sci::compose
