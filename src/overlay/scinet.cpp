#include "overlay/scinet.h"

#include <algorithm>

#include "common/log.h"
#include "serde/buffer.h"

namespace sci::overlay {

namespace {

constexpr const char* kTag = "scinet";

void encode_guids(serde::Writer& w, const std::vector<Guid>& guids) {
  w.varint(guids.size());
  for (const Guid g : guids) w.guid(g);
}

Expected<std::vector<Guid>> decode_guids(serde::Reader& r) {
  SCI_TRY_ASSIGN(count, r.varint());
  // Divide, not multiply: a hostile count near 2^60 wraps count * 16.
  if (count > r.remaining() / 16)
    return make_error(ErrorCode::kParseError, "guid list exceeds frame");
  std::vector<Guid> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    SCI_TRY_ASSIGN(g, r.guid());
    out.push_back(g);
  }
  return out;
}

// Clockwise 128-bit ring distance from a to b.
std::pair<std::uint64_t, std::uint64_t> clockwise(Guid a, Guid b) {
  const std::uint64_t lo = b.lo() - a.lo();
  const std::uint64_t borrow = b.lo() < a.lo() ? 1 : 0;
  const std::uint64_t hi = b.hi() - a.hi() - borrow;
  return {hi, lo};
}

struct RoutedWire {
  Guid key;
  Guid source;
  std::uint32_t app_type = 0;
  std::uint32_t hops = 0;
  std::uint32_t ttl = 0;
  std::uint64_t ticket = 0;  // non-zero: the source wants an e2e receipt
  serde::BufferRef payload;

  [[nodiscard]] serde::BufferRef encode() const {
    serde::Writer w(payload.size() + 64);
    w.guid(key);
    w.guid(source);
    w.u32(app_type);
    w.u32(hops);
    w.u32(ttl);
    w.varint(ticket);
    w.varint(payload.size());
    w.raw(payload.data(), payload.size());
    return w.take_ref();
  }

  // The payload is a zero-copy slice of `bytes`.
  static Expected<RoutedWire> decode(const serde::BufferRef& bytes) {
    serde::Reader r(bytes);
    RoutedWire out;
    SCI_TRY_ASSIGN(key, r.guid());
    out.key = key;
    SCI_TRY_ASSIGN(source, r.guid());
    out.source = source;
    SCI_TRY_ASSIGN(app_type, r.u32());
    out.app_type = app_type;
    SCI_TRY_ASSIGN(hops, r.u32());
    out.hops = hops;
    SCI_TRY_ASSIGN(ttl, r.u32());
    out.ttl = ttl;
    SCI_TRY_ASSIGN(ticket, r.varint());
    out.ticket = ticket;
    SCI_TRY_ASSIGN(len, r.varint());
    if (len > r.remaining())
      return make_error(ErrorCode::kParseError, "routed payload truncated");
    out.payload = bytes.slice(r.position(), static_cast<std::size_t>(len));
    return out;
  }
};

// Leaf-set half-width: a node tracks this many neighbours on each side of
// the ring.
constexpr std::size_t kLeafHalfWidth = 8;
// Hop budget stamped on every routed message.
constexpr std::uint32_t kRouteTtl = 64;
// End-to-end receipt retries (route_acked): a route is re-originated on this
// backoff schedule until the root's receipt arrives.
constexpr Duration kReceiptRto = Duration::millis(800);
constexpr double kReceiptBackoff = 2.0;
constexpr Duration kReceiptMaxRto = Duration::seconds(5);
constexpr unsigned kReceiptMaxAttempts = 8;

// End-to-end re-origination delay: kReceiptRto doubled per attempt, capped.
Duration receipt_delay(unsigned attempts) {
  double rto_us = static_cast<double>(kReceiptRto.count_micros());
  for (unsigned i = 1; i < attempts; ++i) rto_us *= kReceiptBackoff;
  rto_us = std::min(rto_us,
                    static_cast<double>(kReceiptMaxRto.count_micros()));
  return Duration::micros(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(rto_us)));
}

}  // namespace

ScinetNode::ScinetNode(net::Network& network, Guid id, double x, double y)
    : network_(network), id_(id), channel_(network, id) {
  SCI_ASSERT(!id.is_nil());
  const Status attached = network_.attach(
      id_, [this](const net::Message& m) { on_message(m); }, x, y);
  SCI_ASSERT_MSG(attached.is_ok(), "scinet node id collision on network");
  attached_ = true;

  obs::MetricsRegistry& metrics = network_.simulator().metrics();
  m_originated_ = &metrics.counter("scinet.routed.originated");
  m_forwarded_ = &metrics.counter("scinet.routed.forwarded");
  m_delivered_ = &metrics.counter("scinet.routed.delivered");
  m_dropped_ttl_ = &metrics.counter("scinet.routed.dropped_ttl");
  m_repairs_ = &metrics.counter("scinet.repairs");
  m_node_forwarded_ = &metrics.counter("scinet.node.forwarded",
                                       id_.short_string());
  m_hop_failovers_ = &metrics.counter("scinet.hop.failovers");
  m_e2e_originated_ = &metrics.counter("scinet.e2e.originated");
  m_e2e_receipts_ = &metrics.counter("scinet.e2e.receipts");
  m_e2e_retries_ = &metrics.counter("scinet.e2e.retries");
  m_e2e_dead_letters_ = &metrics.counter("scinet.e2e.dead_letters");
  m_probes_ = &metrics.counter("scinet.probes");
  m_hops_ = &metrics.histogram("scinet.route.hops");
  m_e2e_latency_ = &metrics.histogram("scinet.e2e.latency_ms");
  trace_ = &network_.simulator().trace();

  channel_.set_give_up_handler(
      [this](const net::Message& message, unsigned attempts) {
        on_hop_give_up(message, attempts);
      });
}

ScinetNode::~ScinetNode() {
  network_.simulator().cancel(join_retry_);
  heartbeat_timer_.reset();
  for (auto& [ticket, pending] : pending_routes_) {
    network_.simulator().cancel(pending.retry);
  }
  pending_routes_.clear();
  if (attached_ && network_.is_attached(id_)) {
    (void)network_.detach(id_);
  }
}

void ScinetNode::bootstrap() {
  ready_ = true;
  heartbeat_timer_.emplace(network_.simulator(), kHeartbeatPeriod,
                           [this] { heartbeat_tick(); });
  heartbeat_timer_->start();
}

Status ScinetNode::join(Guid bootstrap_node) {
  if (ready_)
    return make_error(ErrorCode::kAlreadyExists, "node already joined");
  if (bootstrap_node.is_nil() || bootstrap_node == id_)
    return make_error(ErrorCode::kInvalidArgument, "bad bootstrap node");
  join_bootstrap_ = bootstrap_node;
  join_attempts_ = 0;
  network_.simulator().cancel(join_retry_);
  send_join();
  return Status::ok();
}

void ScinetNode::send_join() {
  if (ready_ || !attached_) return;
  constexpr unsigned kMaxJoinAttempts = 16;
  ++join_attempts_;
  // JOIN payload: joiner id + accumulated (row, col, guid) entries; empty at
  // the first hop.
  serde::Writer w;
  w.guid(id_);
  w.varint(0);
  send(join_bootstrap_, kJoin, w.take_ref());
  if (join_attempts_ < kMaxJoinAttempts) {
    join_retry_ = network_.simulator().schedule(
        Duration::millis(500), [this] {
          if (!ready_) send_join();
        });
  }
}

void ScinetNode::leave() {
  if (!attached_) return;
  // Hand neighbours our leaf set so they can repair without timeouts.
  // (Copy first: send() may mutate leaf_ if a neighbour has departed.)
  const std::vector<Guid> neighbours = leaf_;
  serde::Writer w;
  encode_guids(w, neighbours);
  const serde::BufferRef frame = w.take_ref();
  for (const Guid neighbour : neighbours) {
    send(neighbour, kLeave, frame);
  }
  heartbeat_timer_.reset();
  for (auto& [ticket, pending] : pending_routes_) {
    network_.simulator().cancel(pending.retry);
  }
  pending_routes_.clear();
  channel_.halt();
  ready_ = false;
  attached_ = false;
  (void)network_.detach(id_);
}

Status ScinetNode::route(Guid key, std::uint32_t app_type,
                         serde::BufferRef payload) {
  if (!ready_)
    return make_error(ErrorCode::kUnavailable, "node not joined to overlay");
  m_originated_->inc();
  RoutedWire wire{key, id_, app_type, 0, kRouteTtl, 0, std::move(payload)};
  const Guid hop = next_hop(key);
  if (hop.is_nil()) {
    deliver_local(RoutedMessage{wire.key, wire.source, wire.app_type,
                                wire.hops, wire.ticket,
                                std::move(wire.payload)});
    return Status::ok();
  }
  send_reliable(hop, kRouted, wire.encode());
  return Status::ok();
}

Expected<RouteTicket> ScinetNode::route_acked(Guid key, std::uint32_t app_type,
                                              serde::BufferRef payload,
                                              ReceiptHandler on_receipt) {
  if (!ready_)
    return make_error(ErrorCode::kUnavailable, "node not joined to overlay");
  const std::uint64_t ticket = ++next_ticket_;
  PendingRoute& pending = pending_routes_[ticket];
  pending.key = key;
  pending.app_type = app_type;
  pending.payload = std::move(payload);
  pending.first_sent = network_.simulator().now();
  pending.on_receipt = std::move(on_receipt);
  m_e2e_originated_->inc();
  originate_acked(ticket);
  return RouteTicket{ticket, key};
}

void ScinetNode::originate_acked(std::uint64_t ticket) {
  const auto it = pending_routes_.find(ticket);
  if (it == pending_routes_.end()) return;
  PendingRoute& pending = it->second;
  ++pending.attempts;
  if (pending.attempts > 1) {
    m_e2e_retries_->inc();
  }
  m_originated_->inc();
  RoutedWire wire{pending.key, id_,    pending.app_type, 0,
                  kRouteTtl,   ticket, pending.payload};
  const Guid hop = next_hop(pending.key);
  if (hop.is_nil()) {
    // This node is the root: complete in place (finish_acked fires from
    // deliver_local because source == id_).
    deliver_local(RoutedMessage{wire.key, wire.source, wire.app_type,
                                wire.hops, wire.ticket,
                                std::move(wire.payload)});
    return;
  }
  send_reliable(hop, kRouted, wire.encode());
  arm_receipt_timer(ticket);
}

void ScinetNode::arm_receipt_timer(std::uint64_t ticket) {
  const auto it = pending_routes_.find(ticket);
  if (it == pending_routes_.end()) return;
  PendingRoute& pending = it->second;
  const unsigned attempts = pending.attempts;
  const Duration delay = receipt_delay(attempts);
  if (attempts >= kReceiptMaxAttempts) {
    // Last origination: leave one more interval for the receipt to arrive.
    pending.retry = network_.simulator().schedule(
        delay, [this, ticket, attempts] {
          const auto p = pending_routes_.find(ticket);
          if (p == pending_routes_.end() || p->second.attempts != attempts)
            return;
          finish_acked(ticket, /*delivered=*/false, 0);
        });
    return;
  }
  pending.retry = network_.simulator().schedule(
      delay, [this, ticket] { originate_acked(ticket); });
}

void ScinetNode::finish_acked(std::uint64_t ticket, bool delivered,
                              std::uint32_t hops) {
  const auto it = pending_routes_.find(ticket);
  if (it == pending_routes_.end()) return;  // duplicate/late receipt
  PendingRoute pending = std::move(it->second);
  pending_routes_.erase(it);
  network_.simulator().cancel(pending.retry);
  if (delivered) {
    m_e2e_receipts_->inc();
    m_e2e_latency_->observe(
        (network_.simulator().now() - pending.first_sent).millis_f());
  } else {
    m_e2e_dead_letters_->inc();
    SCI_WARN(kTag, "%s: gave up on acked route to key %s",
             id_.short_string().c_str(), pending.key.short_string().c_str());
  }
  if (pending.on_receipt) {
    pending.on_receipt(RouteTicket{ticket, pending.key}, delivered, hops);
  }
}

void ScinetNode::on_message(const net::Message& message) {
  // Reliable-channel envelopes (data + acks) are consumed first; a data
  // frame's inner message recurses through this dispatcher exactly once.
  if (channel_.on_message(message, [this](const net::Message& inner) {
        on_message(inner);
      })) {
    return;
  }
  switch (message.type) {
    case kRouted:
      on_routed(message);
      return;
    case kRouteReceipt:
      on_route_receipt(message);
      return;
    case kJoin:
      on_join(message);
      return;
    case kJoinReply:
      on_join_reply(message);
      return;
    case kAnnounce:
      on_announce(message);
      return;
    case kHeartbeat:
      on_heartbeat(message);
      return;
    case kHeartbeatAck:
      on_heartbeat_ack(message);
      return;
    case kLeave:
      on_leave(message);
      return;
    case kLeafSetRequest:
      on_leaf_set_request(message);
      return;
    case kLeafSetReply:
      on_leaf_set_reply(message);
      return;
    case kFailureNotice:
      on_failure_notice(message);
      return;
    default:
      SCI_WARN(kTag, "%s: unknown message type 0x%x",
               id_.short_string().c_str(), message.type);
  }
}

void ScinetNode::on_routed(const net::Message& message) {
  auto decoded = RoutedWire::decode(message.payload);
  if (!decoded) {
    SCI_WARN(kTag, "%s: dropping malformed routed frame: %s",
             id_.short_string().c_str(),
             decoded.error().message().c_str());
    return;
  }
  RoutedWire wire = std::move(*decoded);
  ++wire.hops;
  if (wire.ttl == 0) {
    m_dropped_ttl_->inc();
    trace_->record(network_.simulator().now(), obs::TraceKind::kRouteDropTtl,
                   id_, wire.source);
    SCI_WARN(kTag, "%s: TTL expired for key %s", id_.short_string().c_str(),
             wire.key.short_string().c_str());
    return;
  }
  --wire.ttl;
  const Guid hop = next_hop(wire.key);
  if (hop.is_nil()) {
    deliver_local(RoutedMessage{wire.key, wire.source, wire.app_type,
                                wire.hops, wire.ticket,
                                std::move(wire.payload)});
    return;
  }
  m_forwarded_->inc();
  m_node_forwarded_->inc();
  trace_->record(network_.simulator().now(), obs::TraceKind::kRouteHop, id_,
                 hop, wire.hops);
  send_reliable(hop, kRouted, wire.encode());
}

void ScinetNode::on_route_receipt(const net::Message& message) {
  serde::Reader r(message.payload);
  auto ticket = r.varint();
  auto hops = r.u32();
  if (!ticket || !hops) return;
  finish_acked(*ticket, /*delivered=*/true, *hops);
}

void ScinetNode::on_join(const net::Message& message) {
  serde::Reader r(message.payload);
  auto joiner_result = r.guid();
  if (!joiner_result) return;
  const Guid joiner = *joiner_result;
  auto count_result = r.varint();
  if (!count_result) return;
  // Accumulated (row, col, guid) entries collected along the join path.
  std::vector<std::tuple<std::uint8_t, std::uint8_t, Guid>> entries;
  for (std::uint64_t i = 0; i < *count_result; ++i) {
    auto row = r.u8();
    auto col = r.u8();
    auto g = r.guid();
    if (!row || !col || !g) return;
    entries.emplace_back(*row, *col, *g);
  }

  // Contribute this node's routing row at the joiner's prefix level, plus
  // this node itself.
  const unsigned level = std::min(id_.shared_prefix_length(joiner),
                                  kRows - 1);
  for (unsigned col = 0; col < kCols; ++col) {
    const Guid entry = table_[level][col];
    if (!entry.is_nil() && entry != joiner) {
      entries.emplace_back(static_cast<std::uint8_t>(level),
                           static_cast<std::uint8_t>(col), entry);
    }
  }
  entries.emplace_back(
      static_cast<std::uint8_t>(level),
      static_cast<std::uint8_t>(id_.digit(level)), id_);

  const Guid hop = next_hop(joiner);
  if (!hop.is_nil() && hop != joiner) {
    // Forward the join with the grown entry list.
    serde::Writer w;
    w.guid(joiner);
    w.varint(entries.size());
    for (const auto& [row, col, g] : entries) {
      w.u8(row);
      w.u8(col);
      w.guid(g);
    }
    send(hop, kJoin, w.take_ref());
    return;
  }

  // This node is the joiner's root: reply with accumulated entries and our
  // leaf set (which brackets the joiner's position on the ring).
  serde::Writer w;
  w.varint(entries.size());
  for (const auto& [row, col, g] : entries) {
    w.u8(row);
    w.u8(col);
    w.guid(g);
  }
  std::vector<Guid> leaf_plus_self = leaf_;
  leaf_plus_self.push_back(id_);
  encode_guids(w, leaf_plus_self);
  send(joiner, kJoinReply, w.take_ref());
  learn(joiner);
}

void ScinetNode::on_join_reply(const net::Message& message) {
  if (ready_) return;  // duplicate reply
  serde::Reader r(message.payload);
  auto count_result = r.varint();
  if (!count_result) return;
  for (std::uint64_t i = 0; i < *count_result; ++i) {
    auto row = r.u8();
    auto col = r.u8();
    auto g = r.guid();
    if (!row || !col || !g) return;
    learn(*g);
  }
  auto leaves = decode_guids(r);
  if (!leaves) return;
  for (const Guid g : *leaves) learn(g);

  ready_ = true;
  heartbeat_timer_.emplace(network_.simulator(), kHeartbeatPeriod,
                           [this] { heartbeat_tick(); });
  heartbeat_timer_->start();

  // Announce to everything we learned so their tables include us.
  for (const Guid node : known_) {
    send(node, kAnnounce, {});
  }
  SCI_DEBUG(kTag, "%s joined; knows %zu nodes", id_.short_string().c_str(),
            known_.size());
}

void ScinetNode::on_announce(const net::Message& message) {
  learn(message.from);
}

void ScinetNode::on_heartbeat(const net::Message& message) {
  learn(message.from);
  send(message.from, kHeartbeatAck, {});
}

void ScinetNode::on_heartbeat_ack(const net::Message& message) {
  if (!known_.contains(message.from)) {
    // A probed (previously failure-evicted) peer answered: the crash or
    // partition was transient. Reinstall it and resynchronise both sides.
    learn(message.from);
    send(message.from, kAnnounce, {});
    send(message.from, kLeafSetRequest, {});
  }
  missed_heartbeats_[message.from] = 0;
}

void ScinetNode::on_leave(const net::Message& message) {
  serde::Reader r(message.payload);
  auto leaves = decode_guids(r);
  forget(message.from, /*probe=*/false);  // clean departure, nothing to probe
  if (leaves) {
    for (const Guid g : *leaves) learn(g);
  }
}

void ScinetNode::on_leaf_set_request(const net::Message& message) {
  learn(message.from);
  serde::Writer w;
  encode_guids(w, leaf_);
  send(message.from, kLeafSetReply, w.take_ref());
}

void ScinetNode::on_failure_notice(const net::Message& message) {
  serde::Reader r(message.payload);
  auto failed = r.guid();
  if (!failed || *failed == id_) return;
  if (known_.contains(*failed)) {
    const bool was_leaf =
        std::find(leaf_.begin(), leaf_.end(), *failed) != leaf_.end();
    forget(*failed);
    if (was_leaf) repair_leaf_set();
  }
}

void ScinetNode::on_leaf_set_reply(const net::Message& message) {
  serde::Reader r(message.payload);
  auto leaves = decode_guids(r);
  if (!leaves) return;
  for (const Guid g : *leaves) learn(g);
}

Guid ScinetNode::next_hop(Guid key) const {
  if (key == id_ || known_.empty()) return Guid();
  const auto self_distance = id_.ring_distance(key);

  // 1. Leaf-set step: when the key falls inside the leaf neighbourhood,
  // hand it to the numerically closest member. Progress is guaranteed
  // because the chosen leaf is strictly closer to the key than this node
  // (or an equal-distance smaller-id tiebreak, which the receiver resolves
  // in its own favour).
  if (!leaf_.empty()) {
    std::pair<std::uint64_t, std::uint64_t> span{0, 0};
    for (const Guid l : leaf_) span = std::max(span, id_.ring_distance(l));
    if (self_distance <= span) {
      Guid best = id_;
      auto best_distance = self_distance;
      for (const Guid l : leaf_) {
        const auto d = l.ring_distance(key);
        if (d < best_distance || (d == best_distance && l < best)) {
          best = l;
          best_distance = d;
        }
      }
      return best == id_ ? Guid() : best;
    }
  }

  // 2. Prefix-routing step: strictly increases the shared prefix with the
  // key, so a path can take it at most kRows times.
  const unsigned level = key.shared_prefix_length(id_);
  if (level < kRows) {
    const Guid entry = table_[level][key.digit(level)];
    if (!entry.is_nil()) return entry;
  }

  // 3. Rare-case fallback (Pastry's rule): any known node that keeps the
  // shared prefix AND is strictly closer to the key. If none exists this
  // node is, to the best of its knowledge, the root.
  Guid best;
  auto best_distance = self_distance;
  for (const Guid node : known_) {
    if (node.shared_prefix_length(key) < level) continue;
    const auto d = node.ring_distance(key);
    if (d < best_distance) {
      best = node;
      best_distance = d;
    }
  }
  return best;
}

Guid ScinetNode::closest_known_to(Guid key, bool include_self) const {
  Guid best;
  std::pair<std::uint64_t, std::uint64_t> best_distance{~0ULL, ~0ULL};
  const auto consider = [&](Guid candidate) {
    const auto d = candidate.ring_distance(key);
    if (best.is_nil() || d < best_distance ||
        (d == best_distance && candidate < best)) {
      best = candidate;
      best_distance = d;
    }
  };
  if (include_self) consider(id_);
  for (const Guid node : known_) consider(node);
  return best;
}

bool ScinetNode::is_root_for(Guid key) const {
  return closest_known_to(key, /*include_self=*/true) == id_;
}

void ScinetNode::learn(Guid node) {
  if (node.is_nil() || node == id_) return;
  forgotten_.erase(std::remove(forgotten_.begin(), forgotten_.end(), node),
                   forgotten_.end());
  if (!known_.insert(node).second) return;
  const unsigned level = std::min(id_.shared_prefix_length(node), kRows - 1);
  Guid& slot = table_[level][node.digit(level)];
  if (slot.is_nil()) slot = node;
  rebuild_leaf_set();
}

void ScinetNode::forget(Guid node, bool probe) {
  if (!probe) {
    forgotten_.erase(std::remove(forgotten_.begin(), forgotten_.end(), node),
                     forgotten_.end());
  }
  if (known_.erase(node) == 0) return;
  // learn() keeps known_ and forgotten_ disjoint, so this cannot duplicate.
  if (probe) forgotten_.push_back(node);
  missed_heartbeats_.erase(node);
  for (auto& row : table_) {
    for (Guid& slot : row) {
      if (slot == node) slot = Guid();
    }
  }
  rebuild_leaf_set();
  // Hand any frames still retransmitting toward the dead hop back to the
  // give-up handler so they re-route now that the tables exclude it.
  channel_.fail_all(node);
}

void ScinetNode::rebuild_leaf_set() {
  // Drop stale miss counters for nodes leaving the leaf set so a later
  // re-entry starts with a clean slate.
  for (auto it = missed_heartbeats_.begin(); it != missed_heartbeats_.end();) {
    if (!known_.contains(it->first)) {
      it = missed_heartbeats_.erase(it);
    } else {
      ++it;
    }
  }
  // Pick the closest kLeafHalfWidth successors and predecessors on the
  // ring from everything we know.
  std::vector<Guid> nodes(known_.begin(), known_.end());
  const auto by_clockwise_from_self = [&](Guid a, Guid b) {
    return clockwise(id_, a) < clockwise(id_, b);
  };
  std::sort(nodes.begin(), nodes.end(), by_clockwise_from_self);
  leaf_.clear();
  const std::size_t half = kLeafHalfWidth;
  if (nodes.size() <= 2 * half) {
    leaf_ = std::move(nodes);
  } else {
    // First `half` in clockwise order are successors; last `half` are the
    // nearest predecessors.
    leaf_.insert(leaf_.end(), nodes.begin(),
                 nodes.begin() + static_cast<std::ptrdiff_t>(half));
    leaf_.insert(leaf_.end(),
                 nodes.end() - static_cast<std::ptrdiff_t>(half),
                 nodes.end());
  }
}

void ScinetNode::send(Guid to, std::uint32_t type,
                      serde::BufferRef payload) {
  net::Message message;
  message.type = type;
  message.from = id_;
  message.to = to;
  message.payload = std::move(payload);
  const Status sent = network_.send(std::move(message));
  if (!sent.is_ok()) {
    // Destination no longer attached: it left for good (crashed nodes stay
    // attached), so evict it without queueing a liveness probe.
    SCI_DEBUG(kTag, "%s: send to departed node %s",
              id_.short_string().c_str(), to.short_string().c_str());
    forget(to, /*probe=*/false);
  }
}

void ScinetNode::send_reliable(Guid to, std::uint32_t type,
                               serde::BufferRef payload) {
  // ROUTED and receipt frames go over the reliable channel: retransmitted
  // with backoff on loss; a dead-lettered hop lands in on_hop_give_up.
  channel_.send(to, type, std::move(payload));
}

void ScinetNode::on_hop_give_up(const net::Message& message,
                                unsigned attempts) {
  (void)attempts;
  // The hop stayed unresponsive through the whole retransmission budget:
  // evict it (keep probing — it may be a partition that later heals) and
  // push the payload along a fresh path.
  const bool was_leaf =
      std::find(leaf_.begin(), leaf_.end(), message.to) != leaf_.end();
  forget(message.to);
  if (was_leaf) repair_leaf_set();
  if (message.type == kRouted) {
    auto decoded = RoutedWire::decode(message.payload);
    if (!decoded) return;
    RoutedWire wire = std::move(*decoded);
    m_hop_failovers_->inc();
    const Guid hop = next_hop(wire.key);
    if (hop.is_nil()) {
      deliver_local(RoutedMessage{wire.key, wire.source, wire.app_type,
                                  wire.hops, wire.ticket,
                                  std::move(wire.payload)});
      return;
    }
    trace_->record(network_.simulator().now(), obs::TraceKind::kRouteHop, id_,
                   hop, wire.hops);
    send_reliable(hop, kRouted, wire.encode());
    return;
  }
  // kRouteReceipt toward an unreachable source: drop it — the source's own
  // re-origination fetches a fresh receipt once connectivity returns.
}

void ScinetNode::heartbeat_tick() {
  // Detect leaf-set members that missed too many acks, then probe again.
  std::vector<Guid> failed;
  for (const Guid neighbour : leaf_) {
    const unsigned missed = ++missed_heartbeats_[neighbour];
    if (missed > kHeartbeatMissLimit) failed.push_back(neighbour);
  }
  bool lost_any = false;
  for (const Guid node : failed) {
    SCI_DEBUG(kTag, "%s: neighbour %s failed (missed heartbeats)",
              id_.short_string().c_str(), node.short_string().c_str());
    forget(node);
    lost_any = true;
    // Gossip the failure one hop: leaf-set members are the only detectors,
    // but everyone holding the dead node in a routing table must drop it or
    // keep black-holing traffic through it.
    serde::Writer w;
    w.guid(node);
    const serde::BufferRef frame = w.take_ref();
    const std::vector<Guid> peers(known_.begin(), known_.end());
    for (const Guid peer : peers) {
      send(peer, kFailureNotice, frame);
    }
  }
  if (lost_any) repair_leaf_set();
  // Copy: send() may mutate leaf_ when a destination has departed.
  const std::vector<Guid> neighbours = leaf_;
  for (const Guid neighbour : neighbours) {
    send(neighbour, kHeartbeat, {});
  }
  // Probe one failure-evicted peer per tick: if its crash or partition was
  // transient, the ack reinstalls it (on_heartbeat_ack) and the two sides
  // re-converge instead of staying split.
  if (!forgotten_.empty()) {
    probe_cursor_ %= forgotten_.size();
    const Guid target = forgotten_[probe_cursor_++];
    m_probes_->inc();
    send(target, kHeartbeat, {});
  }
}

void ScinetNode::repair_leaf_set() {
  // Pull fresh leaf sets from the surviving extremes; their neighbours fill
  // the hole left by the failed node.
  if (leaf_.empty()) return;
  m_repairs_->inc();
  trace_->record(network_.simulator().now(), obs::TraceKind::kOverlayRepair,
                 id_);
  const Guid first = leaf_.front();
  const Guid last = leaf_.back();
  send(first, kLeafSetRequest, {});
  if (last != first) send(last, kLeafSetRequest, {});
}

void ScinetNode::halt() {
  network_.simulator().cancel(join_retry_);
  join_retry_ = sim::TimerHandle();
  heartbeat_timer_.reset();
  for (auto& [ticket, pending] : pending_routes_) {
    network_.simulator().cancel(pending.retry);
  }
  pending_routes_.clear();
  channel_.halt();
  ready_ = false;
}

void ScinetNode::deliver_local(RoutedMessage message) {
  if (message.ticket != 0 && message.source != id_) {
    // Acked route from a remote source: always (re-)send the receipt, but
    // deliver a re-originated duplicate to the application only once.
    const bool fresh =
        seen_tickets_[message.source].insert(message.ticket).second;
    send_receipt(message);
    if (!fresh) return;
  }
  m_delivered_->inc();
  m_hops_->observe(static_cast<double>(message.hops));
  trace_->record(network_.simulator().now(), obs::TraceKind::kRouteDeliver,
                 id_, message.source, message.hops);
  if (deliver_) deliver_(message);
  if (message.ticket != 0 && message.source == id_) {
    // Zero-hop acked route (this node is the key's root): complete locally.
    finish_acked(message.ticket, /*delivered=*/true, message.hops);
  }
}

void ScinetNode::send_receipt(const RoutedMessage& message) {
  serde::Writer w;
  w.varint(message.ticket);
  w.u32(message.hops);
  send_reliable(message.source, kRouteReceipt, w.take_ref());
}

std::vector<Guid> ScinetNode::leaf_set() const { return leaf_; }

std::size_t ScinetNode::routing_table_population() const {
  std::size_t count = 0;
  for (const auto& row : table_) {
    for (const Guid slot : row) {
      if (!slot.is_nil()) ++count;
    }
  }
  return count;
}

bool ScinetNode::knows(Guid node) const { return known_.contains(node); }

Scinet::Scinet(net::Network& network)
    : network_(network), rng_(network.simulator().rng().split()) {}

ScinetNode& Scinet::add_node(double x, double y) {
  return add_node_with_id(Guid::random(rng_), x, y);
}

ScinetNode& Scinet::add_node_with_id(Guid id, double x, double y) {
  auto node = std::make_unique<ScinetNode>(network_, id, x, y);
  ScinetNode& ref = *node;
  if (nodes_.empty()) {
    ref.bootstrap();
  } else {
    // Stand-in for range discovery: join through a random live member,
    // falling back to other members if the first bootstrap is unresponsive
    // (e.g. it crashed between selection and the join).
    auto& simulator = network_.simulator();
    for (int attempt = 0; attempt < 8 && !ref.is_ready(); ++attempt) {
      const auto& candidate =
          nodes_[rng_.next_below(nodes_.size())];
      if (!candidate->is_ready()) continue;
      (void)ref.join(candidate->id());
      // Let the join handshake and announcements complete.
      simulator.run_until(simulator.now() + Duration::millis(100));
    }
  }
  nodes_.push_back(std::move(node));
  return ref;
}

Status Scinet::remove_node(Guid id, bool crash) {
  const auto it = std::find_if(
      nodes_.begin(), nodes_.end(),
      [&](const std::unique_ptr<ScinetNode>& n) { return n->id() == id; });
  if (it == nodes_.end())
    return make_error(ErrorCode::kNotFound, "no such overlay node");
  if (crash) {
    // The node stays attached (so traffic to it is silently dropped, as a
    // real crashed host's would be) but stops its own timers.
    SCI_TRY(network_.set_crashed(id, true));
    (*it)->halt();
    graveyard_.push_back(std::move(*it));
  } else {
    (*it)->leave();
  }
  nodes_.erase(it);
  return Status::ok();
}

ScinetNode* Scinet::find(Guid id) {
  for (const auto& node : nodes_) {
    if (node->id() == id) return node.get();
  }
  return nullptr;
}

void Scinet::settle(Duration window) {
  auto& simulator = network_.simulator();
  simulator.run_until(simulator.now() + window);
}

}  // namespace sci::overlay
