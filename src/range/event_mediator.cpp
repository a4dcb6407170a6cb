#include "range/event_mediator.h"

#include "entity/protocol.h"

namespace sci::range {

const std::vector<event::MatchRef>& EventMediator::dispatch_shared(
    const event::Event& event) {
  m_events_in_->inc();
  table_.collect_matches_into(event, scratch_matches_);
  if (silent_ || scratch_matches_.empty()) return scratch_matches_;

  // Encode the event once; each subscriber's frame is its two-varint
  // prefix plus a raw append of the shared bytes, all drawn from the
  // buffer arena.
  serde::Writer event_writer;
  event.encode(event_writer);
  const serde::FrameView frame = event_writer.view();
  for (const event::MatchRef& match : scratch_matches_) {
    serde::Writer w;
    w.varint(match.id);
    w.varint(match.owner_tag);
    w.raw(frame.data(), frame.size());
    deliver_to(match.subscriber, w.take_ref());
  }
  return scratch_matches_;
}

void EventMediator::deliver_to(Guid subscriber, serde::BufferRef body) {
  if (channel_ != nullptr) {
    channel_->send(subscriber, entity::kDeliver, std::move(body));
    m_deliveries_->inc();
    return;
  }
  net::Message message;
  message.type = entity::kDeliver;
  message.from = node_;
  message.to = subscriber;
  message.payload = std::move(body);
  if (network_.send(std::move(message)).is_ok()) {
    m_deliveries_->inc();
  }
}

void EventMediator::start_reaper(
    std::function<void(event::SubscriptionId)> on_lapsed) {
  if (lease_ttl_.count_micros() <= 0) return;
  const SimTime fresh = network_.simulator().now() + lease_ttl_;
  for (const event::Subscription& s : table_.all()) {
    if (!s.expires_at.is_infinite()) (void)table_.set_expiry(s.id, fresh);
  }
  reaper_.emplace(network_.simulator(), kLeaseRenewPeriod,
                  [this, on_lapsed = std::move(on_lapsed)] {
                    for (const event::SubscriptionId id :
                         table_.lapsed_at(network_.simulator().now())) {
                      on_lapsed(id);
                    }
                  });
  reaper_->start();
}

void EventMediator::renew(Guid subscriber) {
  if (lease_ttl_.count_micros() <= 0) return;
  const std::size_t renewed = table_.renew_subscriber(
      subscriber, network_.simulator().now() + lease_ttl_);
  if (renewed > 0) {
    m_leases_renewed_->inc(renewed);
  }
}

std::optional<event::Subscription> EventMediator::expire(
    event::SubscriptionId id) {
  const event::Subscription* found = table_.find(id);
  if (found == nullptr) return std::nullopt;
  event::Subscription subscription = *found;
  (void)table_.remove(id);
  m_leases_expired_->inc();
  m_unsubscribed_->inc();
  trace_->record(network_.simulator().now(), obs::TraceKind::kLeaseExpire,
                 subscription.subscriber,
                 subscription.producer.value_or(Guid()), id);
  return subscription;
}

}  // namespace sci::range
