#include "reliable/reliable.h"

#include <algorithm>
#include <utility>

#include "common/log.h"
#include "serde/buffer.h"

namespace sci::reliable {

namespace {

constexpr const char* kTag = "reliable";
// Retransmit schedule: the first timeout, its multiplier per attempt and
// cap, a uniform extra delay in [0, kJitter * rto), and the transmissions
// before a frame dead-letters.
constexpr Duration kInitialRto = Duration::millis(200);
constexpr double kBackoff = 2.0;
constexpr Duration kMaxRto = Duration::seconds(5);
constexpr double kJitter = 0.1;
constexpr unsigned kMaxAttempts = 8;

// kRelData payload: varint epoch, varint seq, varint seq - floor, u32
// inner type, varint length, raw body.
serde::BufferRef encode_data(std::uint32_t epoch, std::uint64_t seq,
                             std::uint64_t floor, std::uint32_t inner_type,
                             const serde::BufferRef& payload) {
  serde::Writer w(payload.size() + 20);
  w.varint(epoch);
  w.varint(seq);
  w.varint(seq - floor);
  w.u32(inner_type);
  w.varint(payload.size());
  w.raw(payload.data(), payload.size());
  return w.take_ref();
}

struct DataWire {
  std::uint32_t epoch = 0;
  std::uint64_t seq = 0;
  std::uint64_t floor = 0;
  std::uint32_t inner_type = 0;
  serde::BufferRef payload;
};

// The decoded payload is a zero-copy slice of the envelope buffer — the
// inner frame handed to the application shares the network frame's block.
Expected<DataWire> decode_data(const serde::BufferRef& bytes) {
  serde::Reader r(bytes);
  DataWire out;
  SCI_TRY_ASSIGN(epoch, r.varint());
  out.epoch = static_cast<std::uint32_t>(epoch);
  SCI_TRY_ASSIGN(seq, r.varint());
  out.seq = seq;
  SCI_TRY_ASSIGN(behind, r.varint());
  if (behind >= seq)
    return make_error(ErrorCode::kParseError, "reliable floor past seq");
  out.floor = seq - behind;
  SCI_TRY_ASSIGN(inner_type, r.u32());
  out.inner_type = inner_type;
  SCI_TRY_ASSIGN(len, r.varint());
  if (len > r.remaining())
    return make_error(ErrorCode::kParseError, "reliable payload truncated");
  out.payload = bytes.slice(r.position(), static_cast<std::size_t>(len));
  return out;
}

// kRelAck payload: varint epoch (echoed from the data frame), varint seq.
serde::BufferRef encode_ack(std::uint32_t epoch, std::uint64_t seq) {
  serde::Writer w(16);
  w.varint(epoch);
  w.varint(seq);
  return w.take_ref();
}

}  // namespace

const char* to_string(DeadLetterCause cause) {
  switch (cause) {
    case DeadLetterCause::kExhausted:
      return "exhausted";
    case DeadLetterCause::kDetached:
      return "detached";
    case DeadLetterCause::kFailedOver:
      return "failed_over";
    case DeadLetterCause::kMediator:
      return "mediator";
  }
  return "unknown";
}

bool SeqDedup::accept(std::uint64_t seq) {
  // In-order fast path: the common no-loss case advances the floor without
  // touching the gap set (no hash insert, no allocation).
  if (seq == floor + 1 && above.empty()) {
    ++floor;
    return true;
  }
  if (seq <= floor || above.contains(seq)) return false;
  above.insert(seq);
  // Compact: slide the floor over any now-contiguous prefix.
  while (above.erase(floor + 1) != 0) ++floor;
  return true;
}

void SeqDedup::encode(serde::Writer& w) const {
  w.varint(floor);
  std::vector<std::uint64_t> sorted(above.begin(), above.end());
  std::sort(sorted.begin(), sorted.end());
  w.varint(sorted.size());
  for (const std::uint64_t seq : sorted) w.varint(seq);
}

Expected<SeqDedup> SeqDedup::decode(serde::Reader& r) {
  SeqDedup dedup;
  SCI_TRY_ASSIGN(floor, r.varint());
  dedup.floor = floor;
  SCI_TRY_ASSIGN(n_above, r.varint());
  for (std::uint64_t i = 0; i < n_above; ++i) {
    SCI_TRY_ASSIGN(seq, r.varint());
    dedup.above.insert(seq);
  }
  return dedup;
}

void DeadLetterQueue::park(DeadLetter letter) {
  if (capacity_ == 0) return;
  while (letters_.size() >= capacity_) {
    letters_.pop_front();
    ++evicted_;
  }
  letters_.push_back(std::move(letter));
  if (depth_ != nullptr) depth_->set(static_cast<double>(letters_.size()));
}

std::vector<DeadLetter> DeadLetterQueue::drain() {
  std::vector<DeadLetter> out(std::make_move_iterator(letters_.begin()),
                              std::make_move_iterator(letters_.end()));
  letters_.clear();
  if (depth_ != nullptr) depth_->set(0.0);
  return out;
}

ReliableChannel::ReliableChannel(net::Network& network, Guid self,
                                 ReliableConfig config)
    : network_(network),
      self_(self),
      config_(config),
      rng_(network.simulator().rng().split()),
      dlq_(config.dead_letter_capacity,
           config.dead_letter_capacity > 0
               ? &network.simulator().metrics().gauge("rel.dlq.depth",
                                                      config.metrics_label)
               : nullptr) {
  SCI_ASSERT(!self.is_nil());
  obs::MetricsRegistry& metrics = network_.simulator().metrics();
  const std::string& label = config_.metrics_label;
  const auto twin = [&](const char* name) { return metrics.twin(name, label); };
  m_accepted_ = twin("rel.accepted");
  m_data_sent_ = twin("rel.data_sent");
  m_retransmits_ = twin("rel.retransmits");
  m_acked_ = twin("rel.acked");
  m_delivered_ = twin("rel.delivered");
  m_dup_suppressed_ = twin("rel.dup_suppressed");
  m_stale_epoch_ = twin("rel.stale_epoch");
  m_dead_letters_ = twin("rel.dead_letters");
  m_failovers_ = twin("rel.failovers");
  m_dlq_parked_ = twin("rel.dlq.parked");
  m_dlq_replayed_ = twin("rel.dlq.replayed");
  m_dlq_depth_ = &metrics.gauge("rel.dlq.depth", label);
  m_ack_rtt_ms_ = &metrics.histogram("rel.ack_rtt_ms");
  m_recovery_ms_ = &metrics.histogram("rel.recovery_ms");
}

ReliableChannel::~ReliableChannel() { halt(); }

std::uint64_t ReliableChannel::send(Guid to, std::uint32_t inner_type,
                                    serde::BufferRef payload) {
  ++stats_.accepted;
  m_accepted_.inc();
  Peer& peer = peers_[to];
  const std::uint64_t seq = ++peer.next_seq;
  Pending& pending = peer.pending[seq];
  pending.inner_type = inner_type;
  pending.payload = std::move(payload);
  pending.first_sent = network_.simulator().now();
  transmit(to, seq);
  return seq;
}

void ReliableChannel::transmit(Guid to, std::uint64_t seq) {
  const auto peer_it = peers_.find(to);
  if (peer_it == peers_.end()) return;
  const auto it = peer_it->second.pending.find(seq);
  if (it == peer_it->second.pending.end()) return;  // acked or abandoned
  Pending& pending = it->second;
  ++pending.attempts;
  ++stats_.data_sent;
  m_data_sent_.inc();
  if (pending.attempts > 1) {
    ++stats_.retransmits;
    m_retransmits_.inc();
  }

  // First transmit encodes the envelope once; retransmits reuse the same
  // pooled frame by reference (re-encoded only if the epoch or the floor
  // moved; a floor is never 0, so the first transmit always encodes).
  const std::uint64_t floor = peer_it->second.pending.begin()->first;
  if (pending.envelope_floor != floor || pending.envelope_epoch != epoch_) {
    pending.envelope =
        encode_data(epoch_, seq, floor, pending.inner_type, pending.payload);
    pending.envelope_epoch = epoch_;
    pending.envelope_floor = floor;
  }
  net::Message envelope;
  envelope.type = kRelData;
  envelope.from = self_;
  envelope.to = to;
  envelope.payload = pending.envelope;
  const Status sent = network_.send(std::move(envelope));
  if (!sent.is_ok()) {
    // Destination never attached / detached for good: retrying is futile.
    SCI_DEBUG(kTag, "%s: seq %llu to detached %s — giving up",
              self_.short_string().c_str(),
              static_cast<unsigned long long>(seq), to.short_string().c_str());
    give_up(to, seq, DeadLetterCause::kDetached);
    return;
  }
  if (pending.attempts >= kMaxAttempts) {
    // Last transmission: leave one rto for the ack, then dead-letter.
    const Duration grace = retry_delay(pending.attempts);
    const unsigned attempts = pending.attempts;
    pending.retry = network_.simulator().schedule(grace, [this, to, seq,
                                                          attempts] {
      const auto p = peers_.find(to);
      if (p == peers_.end()) return;
      const auto f = p->second.pending.find(seq);
      if (f == p->second.pending.end() || f->second.attempts != attempts)
        return;
      give_up(to, seq, DeadLetterCause::kExhausted);
    });
    return;
  }
  arm_retry(to, seq, pending.attempts);
}

void ReliableChannel::arm_retry(Guid to, std::uint64_t seq,
                                unsigned attempts) {
  const auto peer_it = peers_.find(to);
  if (peer_it == peers_.end()) return;
  const auto it = peer_it->second.pending.find(seq);
  if (it == peer_it->second.pending.end()) return;
  it->second.retry = network_.simulator().schedule(
      retry_delay(attempts), [this, to, seq] { transmit(to, seq); });
}

Duration ReliableChannel::retry_delay(unsigned attempts) {
  // attempts is 1-based: the delay after the n-th transmission.
  double rto_us = static_cast<double>(kInitialRto.count_micros());
  for (unsigned i = 1; i < attempts; ++i) rto_us *= kBackoff;
  rto_us = std::min(rto_us, static_cast<double>(kMaxRto.count_micros()));
  std::int64_t delay = static_cast<std::int64_t>(rto_us);
  const auto span = static_cast<std::uint64_t>(rto_us * kJitter);
  if (span > 0) delay += static_cast<std::int64_t>(rng_.next_below(span));
  return Duration::micros(std::max<std::int64_t>(delay, 1));
}

net::Message ReliableChannel::inner_message(Guid to, const Pending& p) const {
  net::Message inner;
  inner.type = p.inner_type;
  inner.from = self_;
  inner.to = to;
  inner.payload = p.payload;
  return inner;
}

void ReliableChannel::park(Guid to, std::uint64_t seq, const Pending& pending,
                           DeadLetterCause cause) {
  if (dlq_.capacity() == 0) return;
  DeadLetter letter;
  letter.dest = to;
  letter.seq = seq;
  letter.inner_type = pending.inner_type;
  letter.payload = pending.payload;
  letter.attempts = pending.attempts;
  letter.first_sent = pending.first_sent;
  letter.parked_at = network_.simulator().now();
  letter.cause = cause;
  dlq_.park(std::move(letter));
  ++stats_.dlq_parked;
  m_dlq_parked_.inc();
}

void ReliableChannel::give_up(Guid to, std::uint64_t seq,
                              DeadLetterCause cause) {
  const auto peer_it = peers_.find(to);
  if (peer_it == peers_.end()) return;
  const auto it = peer_it->second.pending.find(seq);
  if (it == peer_it->second.pending.end()) return;
  // Move the frame out before the callback: the handler may re-enter the
  // channel (the overlay re-routes abandoned frames through other peers).
  Pending pending = std::move(it->second);
  network_.simulator().cancel(pending.retry);
  peer_it->second.pending.erase(it);
  if (cause == DeadLetterCause::kFailedOver ||
      cause == DeadLetterCause::kMediator) {
    ++stats_.failovers;
    m_failovers_.inc();
  } else {
    ++stats_.dead_letters;
    m_dead_letters_.inc();
  }
  // Park before the callback: a handler that replays or re-routes must see
  // the queue already holding the frame.
  park(to, seq, pending, cause);
  if (give_up_) give_up_(inner_message(to, pending), pending.attempts);
}

std::size_t ReliableChannel::fail_all(Guid to, DeadLetterCause cause) {
  // Receive-side state for `to` is deliberately kept: failure suspicion can
  // be wrong (missed pings under loss), and a live peer's same-epoch
  // retransmits of already-delivered frames must stay suppressed. A genuine
  // new incarnation (promoted standby) announces itself with a higher
  // epoch, which on_message() answers by restarting the stream.
  const auto peer_it = peers_.find(to);
  if (peer_it == peers_.end() || peer_it->second.pending.empty()) return 0;
  // Cancel every retransmit timer up front — give_up() may trigger handlers
  // that re-enter the channel, and a stale timer surviving that would
  // retransmit to the GUID's new incarnation.
  for (auto& [seq, pending] : peer_it->second.pending)
    network_.simulator().cancel(pending.retry);
  std::vector<std::uint64_t> seqs;
  seqs.reserve(peer_it->second.pending.size());
  for (const auto& [seq, pending] : peer_it->second.pending)
    seqs.push_back(seq);
  for (const std::uint64_t seq : seqs) give_up(to, seq, cause);
  return seqs.size();
}

AckTicket ReliableChannel::hold_current_ack() {
  if (!rx_current_.has_value()) return {};
  rx_held_ = true;
  deferred_.insert({rx_current_->from, rx_current_->seq});
  ++stats_.acks_held;
  return *rx_current_;
}

void ReliableChannel::release_ack(const AckTicket& ticket) {
  if (!ticket.valid) return;
  if (deferred_.erase({ticket.from, ticket.seq}) == 0) return;  // orphaned
  send_ack(ticket.from, ticket.epoch, ticket.seq);
  ++stats_.acks_released;
}

void ReliableChannel::send_ack(Guid to, std::uint32_t epoch,
                               std::uint64_t seq) {
  net::Message ack;
  ack.type = kRelAck;
  ack.from = self_;
  ack.to = to;
  ack.payload = encode_ack(epoch, seq);
  (void)network_.send(std::move(ack));
}

void ReliableChannel::deliver_next(Inbound& in, const net::Message& inner,
                                   const DeliverHandler& deliver) {
  const AckTicket ticket{inner.from, in.epoch, in.next++, true};
  ++stats_.delivered;
  m_delivered_.inc();
  // Expose the frame's ack for hold_current_ack() during delivery
  // (save/restore in case delivery re-enters on_message).
  const std::optional<AckTicket> prev_current = rx_current_;
  const bool prev_held = rx_held_;
  rx_current_ = ticket;
  rx_held_ = false;
  if (deliver) deliver(inner);
  if (!rx_held_) send_ack(ticket.from, ticket.epoch, ticket.seq);
  rx_current_ = prev_current;
  rx_held_ = prev_held;
}

void ReliableChannel::drain(Inbound& in, const DeliverHandler& deliver) {
  while (!in.ahead.empty() && in.ahead.begin()->first <= in.next) {
    auto node = in.ahead.extract(in.ahead.begin());
    if (node.key() == in.next) deliver_next(in, node.mapped(), deliver);
  }
}

bool ReliableChannel::on_message(const net::Message& message,
                                 const DeliverHandler& deliver) {
  if (message.type == kRelData) {
    auto wire = decode_data(message.payload);
    if (!wire) {
      SCI_WARN(kTag, "%s: malformed reliable data frame: %s",
               self_.short_string().c_str(), wire.error().message().c_str());
      return true;
    }
    Inbound& in = inbound_[message.from];
    if (wire->epoch < in.epoch) {
      // Stale incarnation of this sender (e.g. the dead primary's last
      // retransmissions racing its replacement). No ack: settling its
      // pendings would be meaningless and the sender is gone anyway.
      ++stats_.stale_epoch;
      m_stale_epoch_.inc();
      return true;
    }
    if (wire->epoch > in.epoch) {
      // New incarnation: its sequence space starts over, and acks owed to
      // the old incarnation are moot.
      in.epoch = wire->epoch;
      in.next = 0;
      in.ahead.clear();
      std::erase_if(deferred_, [&](const auto& key) {
        return key.first == message.from;
      });
    }
    if (gate_ && !gate_(wire->inner_type)) {
      // Refused outright: no ack and no stream state, so the sender keeps
      // retransmitting and the frame lands wherever admission reopens (or
      // at this identity's successor).
      ++stats_.gated;
      return true;
    }
    const net::Message inner{wire->inner_type, message.from, self_,
                             std::move(wire->payload)};
    // Join the stream at the floor, skipping what the sender gave up on.
    in.next = std::max(in.next, wire->floor);
    if (wire->seq == in.next) {
      deliver_next(in, inner, deliver);  // in order: no map, no allocation
    } else if (wire->seq < in.next) {
      ++stats_.dup_suppressed;
      m_dup_suppressed_.inc();
      // Re-ack the duplicate (the earlier ack may have been lost) — unless
      // the original's ack is deliberately held, in which case duplicates
      // must stay silent too.
      if (!deferred_.contains({message.from, wire->seq}))
        send_ack(message.from, wire->epoch, wire->seq);
    } else if (in.ahead.size() >= kMaxReordered) {
      // Ahead of a gap with the reorder map full: dropped unacked, back by
      // retransmit.
    } else if (in.ahead.try_emplace(wire->seq, inner).second) {
      ++stats_.reordered;  // ahead of a gap: waits, unacked
    } else {
      ++stats_.dup_suppressed;  // still waiting: its ack is not yet owed
      m_dup_suppressed_.inc();
    }
    drain(in, deliver);
    return true;
  }

  if (message.type == kRelAck) {
    serde::Reader r(message.payload);
    const auto ack_epoch = r.varint();
    if (!ack_epoch) return true;
    const auto seq = r.varint();
    if (!seq) return true;
    if (static_cast<std::uint32_t>(*ack_epoch) != epoch_) {
      // Ack for a frame sent by a previous incarnation of this identity.
      return true;
    }
    const auto peer_it = peers_.find(message.from);
    if (peer_it == peers_.end()) return true;
    const auto it = peer_it->second.pending.find(*seq);
    if (it == peer_it->second.pending.end()) return true;  // late dup ack
    network_.simulator().cancel(it->second.retry);
    const Duration rtt =
        network_.simulator().now() - it->second.first_sent;
    m_ack_rtt_ms_->observe(rtt.millis_f());
    if (it->second.attempts > 1) m_recovery_ms_->observe(rtt.millis_f());
    ++stats_.acked;
    m_acked_.inc();
    peer_it->second.pending.erase(it);
    return true;
  }

  return false;
}

void ReliableChannel::halt() {
  for (auto& [to, peer] : peers_) {
    for (auto& [seq, pending] : peer.pending)
      network_.simulator().cancel(pending.retry);
    peer.pending.clear();
  }
  // Held acks die with the halt: the corresponding frames were never
  // acknowledged, so senders retransmit them to whoever takes over.
  deferred_.clear();
}

void ReliableChannel::rebind(Guid new_self, std::uint32_t epoch) {
  SCI_ASSERT(!new_self.is_nil());
  halt();
  peers_.clear();  // sequence spaces restart under the new epoch
  self_ = new_self;
  epoch_ = epoch;
  // Receive-side streams survive: senders keep their own identity and
  // epoch, so frames already released from them must stay suppressed.
}

std::size_t ReliableChannel::replay_dead_letters() {
  std::vector<DeadLetter> letters = dlq_.drain();
  for (DeadLetter& letter : letters) {
    replay_dead_letter(std::move(letter));
  }
  return letters.size();
}

void ReliableChannel::replay_dead_letter(DeadLetter letter) {
  ++stats_.dlq_replayed;
  m_dlq_replayed_.inc();
  send(letter.dest, letter.inner_type, std::move(letter.payload));
}

std::vector<DeadLetter> ReliableChannel::drain_dead_letters() {
  return dlq_.drain();
}

std::size_t ReliableChannel::in_flight() const {
  std::size_t n = 0;
  for (const auto& [to, peer] : peers_) n += peer.pending.size();
  return n;
}

std::size_t ReliableChannel::in_flight_to(Guid to) const {
  const auto it = peers_.find(to);
  return it == peers_.end() ? 0 : it->second.pending.size();
}

}  // namespace sci::reliable
