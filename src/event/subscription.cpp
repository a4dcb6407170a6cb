#include "event/subscription.h"

#include <algorithm>

namespace sci::event {

void Subscription::encode(serde::Writer& w) const {
  w.varint(id);
  w.guid(subscriber);
  w.boolean(producer.has_value());
  if (producer) w.guid(*producer);
  w.string(event_type);
  filter.encode(w);
  w.boolean(one_time);
  w.varint(owner_tag);
}

Expected<Subscription> Subscription::decode(serde::Reader& r) {
  Subscription s;
  SCI_TRY_ASSIGN(id, r.varint());
  s.id = id;
  SCI_TRY_ASSIGN(subscriber, r.guid());
  s.subscriber = subscriber;
  SCI_TRY_ASSIGN(has_producer, r.boolean());
  if (has_producer) {
    SCI_TRY_ASSIGN(producer, r.guid());
    s.producer = producer;
  }
  SCI_TRY_ASSIGN(event_type, r.string());
  s.event_type = std::move(event_type);
  SCI_TRY_ASSIGN(filter, EventFilter::decode(r));
  s.filter = std::move(filter);
  SCI_TRY_ASSIGN(one_time, r.boolean());
  s.one_time = one_time;
  SCI_TRY_ASSIGN(owner_tag, r.varint());
  s.owner_tag = owner_tag;
  return s;
}

SubscriptionId SubscriptionTable::add(Guid subscriber,
                                      std::optional<Guid> producer,
                                      std::string event_type,
                                      EventFilter filter, bool one_time,
                                      std::uint64_t owner_tag) {
  const SubscriptionId id = next_id_++;
  Subscription subscription;
  subscription.id = id;
  subscription.subscriber = subscriber;
  subscription.producer = producer;
  subscription.event_type = event_type;
  subscription.filter = std::move(filter);
  subscription.one_time = one_time;
  subscription.owner_tag = owner_tag;
  by_type_[event_type].push_back(id);
  subscriptions_.emplace(id, std::move(subscription));
  return id;
}

Status SubscriptionTable::remove(SubscriptionId id) {
  const auto it = subscriptions_.find(id);
  if (it == subscriptions_.end())
    return make_error(ErrorCode::kNotFound,
                      "no subscription " + std::to_string(id));
  unindex(it->second);
  subscriptions_.erase(it);
  return Status::ok();
}

void SubscriptionTable::unindex(const Subscription& subscription) {
  const auto it = by_type_.find(subscription.event_type);
  if (it == by_type_.end()) return;
  auto& ids = it->second;
  ids.erase(std::remove(ids.begin(), ids.end(), subscription.id), ids.end());
  if (ids.empty()) by_type_.erase(it);
}

std::size_t SubscriptionTable::remove_subscriber(Guid subscriber) {
  std::vector<SubscriptionId> to_remove;
  for (const auto& [id, subscription] : subscriptions_) {
    if (subscription.subscriber == subscriber) to_remove.push_back(id);
  }
  for (const SubscriptionId id : to_remove) (void)remove(id);
  return to_remove.size();
}

std::size_t SubscriptionTable::remove_producer(Guid producer) {
  std::vector<SubscriptionId> to_remove;
  for (const auto& [id, subscription] : subscriptions_) {
    if (subscription.producer == producer) to_remove.push_back(id);
  }
  for (const SubscriptionId id : to_remove) (void)remove(id);
  return to_remove.size();
}

std::size_t SubscriptionTable::remove_owner(std::uint64_t owner_tag) {
  if (owner_tag == 0) return 0;
  std::vector<SubscriptionId> to_remove;
  for (const auto& [id, subscription] : subscriptions_) {
    if (subscription.owner_tag == owner_tag) to_remove.push_back(id);
  }
  for (const SubscriptionId id : to_remove) (void)remove(id);
  return to_remove.size();
}

void SubscriptionTable::collect_matches_into(const Event& event,
                                             std::vector<MatchRef>& out) {
  out.clear();
  const auto it = by_type_.find(event.type);
  if (it == by_type_.end()) return;
  bool any_one_shot = false;
  for (const SubscriptionId id : it->second) {
    auto sub_it = subscriptions_.find(id);
    if (sub_it == subscriptions_.end()) continue;
    Subscription& subscription = sub_it->second;
    if (subscription.producer.has_value() &&
        *subscription.producer != event.source) {
      continue;
    }
    if (!subscription.filter.matches(event)) continue;
    subscription.delivered += 1;
    ++total_delivered_;
    out.push_back({id, subscription.subscriber, subscription.owner_tag,
                   subscription.one_time});
    any_one_shot = any_one_shot || subscription.one_time;
  }
  // Removal after the scan: remove() edits the by_type_ id vector this loop
  // just walked. `out` holds flat copies, so it survives the mutation.
  if (!any_one_shot) return;
  for (const MatchRef& match : out) {
    if (match.one_time) (void)remove(match.id);
  }
}

const Subscription* SubscriptionTable::find(SubscriptionId id) const {
  const auto it = subscriptions_.find(id);
  return it == subscriptions_.end() ? nullptr : &it->second;
}

std::vector<SubscriptionId> SubscriptionTable::ids_for_subscriber(
    Guid subscriber) const {
  std::vector<SubscriptionId> out;
  for (const auto& [id, subscription] : subscriptions_) {
    if (subscription.subscriber == subscriber) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Subscription> SubscriptionTable::all() const {
  std::vector<Subscription> out;
  out.reserve(subscriptions_.size());
  for (const auto& [id, subscription] : subscriptions_)
    out.push_back(subscription);
  std::sort(out.begin(), out.end(),
            [](const Subscription& a, const Subscription& b) {
              return a.id < b.id;
            });
  return out;
}

void SubscriptionTable::restore(Subscription subscription) {
  const SubscriptionId id = subscription.id;
  if (subscriptions_.contains(id)) (void)remove(id);
  by_type_[subscription.event_type].push_back(id);
  subscriptions_.emplace(id, std::move(subscription));
  if (id >= next_id_) next_id_ = id + 1;
}

void SubscriptionTable::clear() {
  subscriptions_.clear();
  by_type_.clear();
}

}  // namespace sci::event
