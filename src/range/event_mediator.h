// SCI — Event Mediator (Context Utility, paper §3.1).
//
// "Manages the establishment, maintenance and removal of event
// subscriptions between Context Entities and Context Aware Applications."
// The mediator wraps the SubscriptionTable and performs the actual
// network deliveries (kDeliver frames) from the Context Server's node.
// Deliveries optionally ride a ReliableChannel (set_channel) so lost
// kDeliver frames retransmit, and subscribers optionally hold leases
// (set_leases): a subscriber that stops renewing — typically because it
// crashed — loses every subscription it holds instead of black-holing
// deliveries forever. The lease belongs to the subscriber, not to its
// rows: one per subscriber, on the shard that owns it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>

#include "common/guid.h"
#include "event/subscription.h"
#include "net/network.h"
#include "reliable/reliable.h"
#include "sim/simulator.h"

namespace sci::range {

// How often a lease holder renews (the Context Server tells components in
// the RegisterAck) and how often the mediator reaps expired leases.
inline constexpr Duration kLeaseRenewPeriod = Duration::seconds(5);

class EventMediator {
 public:
  // `node` is the network identity deliveries are sent from (the CS node).
  EventMediator(net::Network& network, Guid node)
      : network_(network), node_(node) {
    obs::MetricsRegistry& metrics = network.simulator().metrics();
    m_events_in_ = &metrics.counter("em.events_in");
    m_deliveries_ = &metrics.counter("em.deliveries");
    m_subscribed_ = &metrics.counter("em.subscriptions.created");
    m_unsubscribed_ = &metrics.counter("em.subscriptions.removed");
    m_leases_renewed_ = &metrics.counter("em.leases.renewed");
    m_leases_expired_ = &metrics.counter("em.leases.expired");
    trace_ = &network.simulator().trace();
  }

  // Routes kDeliver frames over `channel` (retransmit on loss) instead of
  // raw sends. The channel must outlive the mediator and belong to the
  // same node identity.
  void set_channel(reliable::ReliableChannel* channel) { channel_ = channel; }

  // Enables subscriber leases (off by default for a bare mediator). A
  // lease is one per subscriber, held only where `owns` says the subscriber
  // lives: the one shard its kLeaseRenew reaches. Only start_reaper() ever
  // expires one.
  void set_leases(Duration ttl, std::function<bool(Guid)> owns) {
    lease_ttl_ = ttl;
    owns_ = std::move(owns);
  }

  // Primary duties (docs/REPLICATION.md): gives every lease a fresh ttl
  // from now, then every kLeaseRenewPeriod hands each lapsed subscriber to
  // `on_lapsed`, which decides (and logs) its teardown. A standby never
  // reaps: its leases are whatever its log says.
  void start_reaper(std::function<void(Guid)> on_lapsed);
  void stop_reaper() { reaper_.reset(); }

  // Standby mode (docs/REPLICATION.md): dispatch_shared() performs all table
  // bookkeeping — match counters, one-time removal — but sends no kDeliver
  // frames, so a replica converges on subscription state without emitting
  // duplicate traffic.
  void set_silent(bool silent) { silent_ = silent; }
  [[nodiscard]] bool silent() const { return silent_; }

  // Starts `subscriber`'s lease when this shard owns it and it holds none
  // yet: every row minted or installed for a subscriber calls this.
  void lease(Guid subscriber) {
    if (lease_ttl_.count_micros() > 0 && owns_(subscriber)) {
      leases_.try_emplace(subscriber,
                          network_.simulator().now() + lease_ttl_);
    }
  }

  // Pushes `subscriber`'s lease forward by one ttl. Soft state: a renewal
  // is never logged, and a new primary starts a fresh term.
  void renew(Guid subscriber);

  // Removes every row `subscriber` holds here, and its lease: on a departure,
  // or as a lapsed lease, counted and traced as one expiry where the lease
  // was held. Returns the rows removed.
  std::size_t remove_subscriber(Guid subscriber, bool lapsed = false);

  // The subscribers leased here, with their expiries (GUID order). The
  // snapshot carries the set, a vnode handoff the moving slice of it.
  [[nodiscard]] const std::map<Guid, SimTime>& leases() const {
    return leases_;
  }
  void restore_lease(Guid subscriber, SimTime expires_at) {
    leases_[subscriber] = expires_at;
  }
  void drop_lease(Guid subscriber) { leases_.erase(subscriber); }

  event::SubscriptionId subscribe(Guid subscriber, std::optional<Guid> producer,
                                  std::string event_type,
                                  event::EventFilter filter,
                                  bool one_time = false,
                                  std::uint64_t owner_tag = 0) {
    m_subscribed_->inc();
    const event::SubscriptionId id =
        table_.add(subscriber, producer, std::move(event_type),
                   std::move(filter), one_time, owner_tag);
    lease(subscriber);
    trace_->record(network_.simulator().now(), obs::TraceKind::kSubscribe,
                   subscriber, producer.value_or(Guid()), id);
    return id;
  }

  Status unsubscribe(event::SubscriptionId id) {
    const event::Subscription* subscription = table_.find(id);
    const Guid subscriber =
        subscription != nullptr ? subscription->subscriber : Guid();
    const Guid producer = subscription != nullptr
                              ? subscription->producer.value_or(Guid())
                              : Guid();
    const Status removed = table_.remove(id);
    if (removed.is_ok()) {
      m_unsubscribed_->inc();
      trace_->record(network_.simulator().now(), obs::TraceKind::kUnsubscribe,
                     subscriber, producer, id);
    }
    return removed;
  }

  std::size_t remove_producer(Guid producer) {
    const std::size_t n = table_.remove_producer(producer);
    note_bulk_removal(n, Guid(), producer);
    return n;
  }

  std::size_t remove_owner(std::uint64_t owner_tag) {
    const std::size_t n = table_.remove_owner(owner_tag);
    note_bulk_removal(n, Guid(), Guid(), owner_tag);
    return n;
  }

  // Matches `event` against the table and delivers to every subscriber
  // (docs/MEMORY.md): the event is encoded once and every subscriber's
  // kDeliver frame shares those bytes behind its own two-varint header,
  // written through a pooled serde::Writer — steady state performs no heap
  // allocation per delivery. Returns the matches (callers inspect one_time
  // flags and owner tags) in a scratch vector that is overwritten by the
  // next dispatch_shared call: consume it before doing anything that could
  // publish again.
  const std::vector<event::MatchRef>& dispatch_shared(
      const event::Event& event);

  [[nodiscard]] const event::SubscriptionTable& table() const {
    return table_;
  }
  // Replication snapshots restore the table verbatim (ids preserved).
  [[nodiscard]] event::SubscriptionTable& mutable_table() { return table_; }
  void clear() {
    table_.clear();
    leases_.clear();
  }

 private:
  void note_bulk_removal(std::size_t n, Guid subscriber = Guid(),
                         Guid producer = Guid(), std::uint64_t detail = 0) {
    if (n == 0) return;
    m_unsubscribed_->inc(n);
    trace_->record(network_.simulator().now(), obs::TraceKind::kUnsubscribe,
                   subscriber, producer, detail);
  }

  // Sends one encoded kDeliver body over the channel (retransmit on loss)
  // or the raw network, counting em.deliveries on success.
  void deliver_to(Guid subscriber, serde::BufferRef body);

  net::Network& network_;
  Guid node_;
  event::SubscriptionTable table_;
  bool silent_ = false;
  reliable::ReliableChannel* channel_ = nullptr;  // nullptr = raw sends
  Duration lease_ttl_;  // 0 = leases off
  std::function<bool(Guid)> owns_;
  std::map<Guid, SimTime> leases_;  // subscriber -> expiry
  std::optional<sim::PeriodicTimer> reaper_;
  obs::Counter* m_events_in_ = nullptr;
  obs::Counter* m_deliveries_ = nullptr;
  obs::Counter* m_subscribed_ = nullptr;
  obs::Counter* m_unsubscribed_ = nullptr;
  obs::Counter* m_leases_renewed_ = nullptr;
  obs::Counter* m_leases_expired_ = nullptr;
  obs::TraceBuffer* trace_ = nullptr;
  // dispatch_shared scratch: capacity persists across dispatches so the
  // steady-state fan-out never reallocates.
  std::vector<event::MatchRef> scratch_matches_;
};

}  // namespace sci::range
