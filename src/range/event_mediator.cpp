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

void EventMediator::start_reaper(std::function<void(Guid)> on_lapsed) {
  if (lease_ttl_.count_micros() <= 0) return;
  const SimTime fresh = network_.simulator().now() + lease_ttl_;
  for (auto& [subscriber, expires_at] : leases_) expires_at = fresh;
  reaper_.emplace(network_.simulator(), kLeaseRenewPeriod,
                  [this, on_lapsed = std::move(on_lapsed)] {
                    const SimTime now = network_.simulator().now();
                    std::vector<Guid> lapsed;
                    for (const auto& [subscriber, expires_at] : leases_) {
                      if (!(now < expires_at)) lapsed.push_back(subscriber);
                    }
                    for (const Guid subscriber : lapsed) on_lapsed(subscriber);
                  });
  reaper_->start();
}

void EventMediator::renew(Guid subscriber) {
  const auto it = leases_.find(subscriber);
  if (it == leases_.end()) return;
  it->second = network_.simulator().now() + lease_ttl_;
  m_leases_renewed_->inc();
}

std::size_t EventMediator::remove_subscriber(Guid subscriber, bool lapsed) {
  const bool expired = leases_.erase(subscriber) > 0 && lapsed;
  const std::size_t n = table_.remove_subscriber(subscriber);
  if (expired) {
    m_leases_expired_->inc();
    m_unsubscribed_->inc(n);
    trace_->record(network_.simulator().now(), obs::TraceKind::kLeaseExpire,
                   subscriber, Guid(), n);
  } else {
    note_bulk_removal(n, subscriber);
  }
  return n;
}

}  // namespace sci::range
