// SCI — subscription bookkeeping for the Event Mediator.
//
// The Event Mediator "manages the establishment, maintenance and removal of
// event subscriptions between Context Entities and Context Aware
// Applications" (paper §3.1). SubscriptionTable is its core data structure:
// an index from (producer, event type) to interested subscribers, with
// filters, one-shot semantics (the paper's "one-time subscription" query
// mode) and per-subscription delivery statistics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/expected.h"
#include "common/guid.h"
#include "event/event.h"

namespace sci::event {

using SubscriptionId = std::uint64_t;

struct Subscription {
  SubscriptionId id = 0;
  Guid subscriber;               // CE or CAA receiving deliveries
  std::optional<Guid> producer;  // nullopt = any producer of this type
  std::string event_type;
  EventFilter filter;
  bool one_time = false;         // cancel after first delivery
  std::uint64_t delivered = 0;

  // Configurations tag their subscriptions so teardown can find them.
  std::uint64_t owner_tag = 0;

  // The kShardSubscribe wire form, shared by sibling mirrors, vnode handoff,
  // the replication log and snapshots: every field but `delivered`, which
  // decode leaves at 0. Leases belong to subscribers, not to rows
  // (range::EventMediator).
  void encode(serde::Writer& w) const;
  static Expected<Subscription> decode(serde::Reader& r);
};

// Flat per-match record the dispatch hot path iterates instead of copying
// whole Subscriptions (whose type string and filter vector would heap-
// allocate per delivery). Everything the Context Server needs after a
// dispatch — retiring one-time configurations, addressing the kDeliver
// frame — fits in these four fields.
struct MatchRef {
  SubscriptionId id = 0;
  Guid subscriber;
  std::uint64_t owner_tag = 0;
  bool one_time = false;
};

class SubscriptionTable {
 public:
  // Registers a subscription and returns its id.
  SubscriptionId add(Guid subscriber, std::optional<Guid> producer,
                     std::string event_type, EventFilter filter,
                     bool one_time = false, std::uint64_t owner_tag = 0);

  Status remove(SubscriptionId id);

  // Removes every subscription held by `subscriber` (entity departed).
  std::size_t remove_subscriber(Guid subscriber);

  // Removes every subscription naming `producer` explicitly. Type-wildcard
  // subscriptions survive (they rebind to other producers naturally).
  std::size_t remove_producer(Guid producer);

  // Removes every subscription tagged with `owner_tag` (configuration
  // teardown).
  std::size_t remove_owner(std::uint64_t owner_tag);

  // Fills `out` (cleared, capacity reused across calls) with the
  // subscriptions matching `event`, bumping their delivery counters and
  // dropping the one-time ones. Flat per-match records instead of whole
  // Subscriptions keep the fan-out hot path free of string or filter
  // copies, and `out` stays safe to iterate while the table mutates.
  void collect_matches_into(const Event& event, std::vector<MatchRef>& out);

  [[nodiscard]] const Subscription* find(SubscriptionId id) const;
  [[nodiscard]] std::size_t size() const { return subscriptions_.size(); }

  // All subscriptions held by a subscriber (diagnostics, tests).
  [[nodiscard]] std::vector<SubscriptionId> ids_for_subscriber(
      Guid subscriber) const;

  // Replication support (docs/REPLICATION.md): a standby restores the
  // table verbatim from a snapshot so its subscription ids — which
  // components and configurations hold references to — match the
  // primary's exactly.
  [[nodiscard]] std::vector<Subscription> all() const;  // sorted by id
  void restore(Subscription subscription);  // keeps the id, rebuilds index
  void clear();
  [[nodiscard]] SubscriptionId next_id() const { return next_id_; }
  void set_next_id(SubscriptionId id) { next_id_ = id; }

  [[nodiscard]] std::uint64_t total_delivered() const {
    return total_delivered_;
  }

 private:
  // Heterogeneous lookup so an EventView's string_view type probes the
  // index without materializing a std::string first.
  struct TypeHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::unordered_map<SubscriptionId, Subscription> subscriptions_;
  // Index: event type -> subscription ids (producer filtering happens at
  // match time; type is the selective key in practice).
  std::unordered_map<std::string, std::vector<SubscriptionId>, TypeHash,
                     std::equal_to<>>
      by_type_;
  SubscriptionId next_id_ = 1;
  std::uint64_t total_delivered_ = 0;

  void unindex(const Subscription& subscription);
};

}  // namespace sci::event
