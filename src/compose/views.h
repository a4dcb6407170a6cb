// SCI — materialized context views (ROADMAP: "the single biggest lever").
//
// The paper promises that "environmental change propagates automatically"
// (§3.2, §4.3), yet the baseline resolver recomputes a full candidate scan
// or composition graph for every query — O(candidates) per request. This
// cache flips the cost model to O(delta) per environment change, in the
// style of pequod-style incremental view maintenance: the first resolution
// of a normalized Fig-6 query installs a view together with the dependency
// sets that were consulted while building it (concrete entities, requested
// type signatures, advertised service types). Registrar arrivals and
// departures, profile updates, location changes and cross-shard mirror
// records then *invalidate* exactly the views whose dependency range they
// touch; every other repeated query is served from the view without
// re-running selection or `Resolver::resolve`.
//
// The cache itself is pure data + matching logic: the Context Server owns
// clock, metrics, replication and decides which queries are cacheable.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/expected.h"
#include "common/guid.h"
#include "common/time.h"
#include "compose/resolver.h"
#include "compose/semantics.h"
#include "entity/profile.h"
#include "serde/buffer.h"

namespace sci::compose {

// Dependency sets recorded when a view is built. A view is dropped when an
// environment change falls inside any of its ranges:
//  * `subjects`   — concrete entities consulted (candidates, anchors): any
//                   profile update, move or departure of one invalidates;
//  * `types`      — requested type signatures: a new/changed producer whose
//                   outputs match one invalidates (semantic matching, so a
//                   door-sensor arrival invalidates a W-LAN-built view);
//  * `entity_types` — advertised service names / entity kinds consulted by
//                   kEntityType queries (matches find_candidates' rule).
struct ViewDeps {
  std::vector<Guid> subjects;
  std::vector<RequestedType> types;
  std::vector<std::string> entity_types;

  void encode(serde::Writer& w) const;
  static Expected<ViewDeps> decode(serde::Reader& r);
};

// One materialized view. Selection-mode queries (profile / advertisement /
// non-pattern subscription) cache the post-selection candidate list; pattern
// subscriptions cache the whole composition plan (re-tagged on reuse).
struct ViewEntry {
  std::string key;                        // normalized query key
  std::vector<Guid> selection;            // selected candidates (sink first)
  std::optional<ConfigurationPlan> plan;  // composition plan, if pattern
  ViewDeps deps;
  SimTime built_at = SimTime::zero();
  std::uint64_t hits = 0;
  std::uint64_t last_used = 0;  // LRU clock stamp

  void encode(serde::Writer& w) const;
  static Expected<ViewEntry> decode(serde::Reader& r);
};

class ViewCache {
 public:
  explicit ViewCache(std::size_t capacity) : capacity_(capacity) {}

  // Returns the live view for `key` (bumping its LRU stamp and hit count)
  // or nullptr on miss. The pointer is invalidated by any mutating call.
  // The cache keeps no counters of its own: the owner counts hits and
  // misses from this result, evictions from install()'s.
  const ViewEntry* lookup(const std::string& key);

  // Installs (or replaces) a view, evicting the least-recently-used entry
  // when at capacity. Returns true when it evicted one.
  bool install(ViewEntry entry);

  // Drops every view that depends on the concrete entity. Returns the
  // number of views dropped.
  std::size_t invalidate_subject(const Guid& subject, SimTime now);

  // Drops every view whose dependency range matches the (changed) profile:
  // subject identity, semantic type match against its outputs, or service /
  // kind match against its advertisement — the same predicate the Context
  // Server's find_candidates applies, so a profile that *would have been* a
  // candidate invalidates the views it would have joined.
  std::size_t invalidate_matching(const entity::Profile& profile,
                                  const entity::Advertisement* ad,
                                  const SemanticRegistry& registry,
                                  SimTime now);

  // Called with the age in seconds of each view at the moment it is
  // invalidated (feeds the view.staleness_seconds histogram).
  void set_staleness_observer(std::function<void(double)> observer) {
    staleness_observer_ = std::move(observer);
  }

  void clear();
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  // Snapshot support: the full table travels at the tail of the replication
  // snapshot so a promoted standby starts with warm views. Views are cheap
  // to lose, so decode failures clear the table instead of failing the
  // snapshot.
  void encode(serde::Writer& w) const;
  Status decode(serde::Reader& r);

 private:
  void drop_entry(const std::string& key, SimTime now);
  void evict_lru();

  std::size_t capacity_;
  std::uint64_t clock_ = 0;
  std::unordered_map<std::string, ViewEntry> entries_;
  std::function<void(double)> staleness_observer_;
};

}  // namespace sci::compose
