#include "replicate/replication.h"

#include <algorithm>
#include <utility>

#include "common/log.h"
#include "serde/buffer.h"

namespace sci::replicate {

namespace {

constexpr const char* kTag = "replicate";
// How many recent beats stay correlatable with late answers. Beyond one
// lease_duration of beats the extension an old ack could grant is already
// in the past, so a short window loses nothing.
constexpr std::size_t kBeatWindow = 8;

}  // namespace

const char* to_string(RecordKind kind) {
  switch (kind) {
    case RecordKind::kRegister:
      return "register";
    case RecordKind::kDeparture:
      return "departure";
    case RecordKind::kPublish:
      return "publish";
    case RecordKind::kProfileUpdate:
      return "profile_update";
    case RecordKind::kQuery:
      return "query";
    case RecordKind::kConfigRetire:
      return "config_retire";
    case RecordKind::kShardProfile:
      return "shard_profile";
    case RecordKind::kShardSubscribe:
      return "shard_subscribe";
    case RecordKind::kShardUnsubscribe:
      return "shard_unsubscribe";
    case RecordKind::kShardDrop:
      return "shard_drop";
    case RecordKind::kHandoffIntent:
      return "handoff_intent";
    case RecordKind::kHandoffStaged:
      return "handoff_staged";
    case RecordKind::kHandoffCommit:
      return "handoff_commit";
    case RecordKind::kHandoffAbort:
      return "handoff_abort";
    case RecordKind::kQueryCancel:
      return "query_cancel";
  }
  return "unknown";
}

void LogRecord::encode(serde::Writer& w) const {
  w.varint(index);
  w.u8(static_cast<std::uint8_t>(kind));
  w.guid(subject);
  w.varint(flag);
  w.varint(payload.size());
  w.raw(payload.data(), payload.size());
}

Expected<LogRecord> LogRecord::decode(const serde::BufferRef& bytes) {
  serde::Reader r(bytes);
  LogRecord out;
  SCI_TRY_ASSIGN(index, r.varint());
  out.index = index;
  SCI_TRY_ASSIGN(kind, r.u8());
  out.kind = static_cast<RecordKind>(kind);
  SCI_TRY_ASSIGN(subject, r.guid());
  out.subject = subject;
  SCI_TRY_ASSIGN(flag, r.varint());
  out.flag = flag;
  SCI_TRY_ASSIGN(len, r.varint());
  if (len > r.remaining())
    return make_error(ErrorCode::kParseError, "log record truncated");
  out.payload = bytes.slice(bytes.size() - r.remaining(),
                            static_cast<std::size_t>(len));
  return out;
}

serde::BufferRef frame_record(std::uint32_t epoch, const LogRecord& record) {
  serde::Writer w(record.payload.size() + 56);
  w.varint(epoch);
  record.encode(w);
  return w.take_ref();
}

serde::BufferRef record_bytes(const serde::BufferRef& frame) {
  serde::Reader r(frame);
  (void)r.varint();  // epoch
  return frame.slice(frame.size() - r.remaining(), r.remaining());
}

serde::BufferRef encode_snapshot(std::uint32_t epoch,
                                 std::uint64_t base_index,
                                 const std::vector<std::byte>& blob) {
  serde::Writer w(blob.size() + 24);
  w.varint(epoch);
  w.varint(base_index);
  w.varint(blob.size());
  w.raw(blob.data(), blob.size());
  return w.take_ref();
}

// ---------------------------------------------------------------------------
// ReplicationLog (primary)

ReplicationLog::ReplicationLog(net::Network& network,
                               reliable::ReliableChannel& channel,
                               std::string_view metrics_label,
                               ReplicationConfig config,
                               SnapshotProvider snapshot,
                               FingerprintProvider fingerprint,
                               std::uint64_t head)
    : network_(network),
      channel_(channel),
      config_(config),
      snapshot_(std::move(snapshot)),
      fingerprint_(std::move(fingerprint)),
      head_(head),
      // Initial grace term: at creation the primary is by construction the
      // only incarnation (standbys need a full promote_timeout of silence
      // before any candidacy), so it holds the lease for one term and must
      // win a majority ack before that runs out.
      lease_until_(network.simulator().now() + config.promote_timeout()) {
  SCI_ASSERT(snapshot_ != nullptr);
  obs::MetricsRegistry& metrics = network_.simulator().metrics();
  const auto twin = [&](const char* name) {
    return metrics.twin(name, metrics_label);
  };
  m_records_appended_ = twin("repl.records_appended");
  m_records_shipped_ = twin("repl.records_shipped");
  m_heartbeats_ = twin("repl.heartbeats");
  m_delta_catchups_ = twin("repl.catchup.delta");
  m_delta_bytes_ = twin("repl.catchup.delta_bytes");
  m_full_catchups_ = twin("repl.catchup.full");
  m_snapshot_bytes_ = twin("repl.catchup.snapshot_bytes");
  m_lease_acks_ = twin("repl.lease.acks");
  m_lease_lapses_ = twin("repl.lease.lapses");
  m_lag_ = &metrics.gauge("repl.lag", metrics_label);
  heartbeat_timer_.emplace(network_.simulator(), config_.heartbeat_period,
                           [this] { heartbeat_tick(); });
  heartbeat_timer_->start();
}

void ReplicationLog::attach_standby(Guid node, std::uint32_t from_epoch,
                                    std::uint64_t from_index) {
  SCI_ASSERT(!node.is_nil());
  if (applied_.contains(node)) return;
  // Delta catch-up: the rejoiner's recovered watermark names a prefix of
  // *this* log (same incarnation), and the tail still holds every frame
  // above it. A watermark from another epoch is meaningless here — and
  // possibly a fenced incarnation's — so anything else takes the full path,
  // whose snapshot replaces the rejoiner's state.
  const std::uint64_t tail_base = head_ - tail_.size();
  if (from_index > 0 && from_epoch == channel_.epoch() &&
      from_index >= tail_base && from_index <= head_) {
    m_delta_catchups_.inc();
    for (std::size_t i = from_index - tail_base; i < tail_.size(); ++i) {
      m_records_shipped_.inc();
      m_delta_bytes_.inc(tail_[i].size());
      channel_.send(node, kReplRecord, tail_[i]);
    }
    applied_[node] = from_index;
  } else {
    m_full_catchups_.inc();
    const serde::BufferRef wire =
        encode_snapshot(channel_.epoch(), head_, snapshot_());
    snapshot_bytes_ = wire.size();
    m_snapshot_bytes_.inc(wire.size());
    channel_.send(node, kReplSnapshot, wire);
    trim_tail();
    // The standby holds nothing until it says so: counting the snapshot's
    // base as applied would commit records no standby has yet.
    applied_[node] = 0;
  }
  update_lag();
  update_committed();
}

void ReplicationLog::detach_standby(Guid node) {
  applied_.erase(node);
  update_lag();
  // Shrinking below sync_acks degrades the group: everything commits,
  // releasing whatever admit acks were waiting on the departed standby.
  update_committed();
}

void ReplicationLog::append(std::uint64_t index, serde::BufferRef frame) {
  SCI_ASSERT_MSG(index == head_ + 1, "log indices are minted contiguously");
  head_ = index;
  m_records_appended_.inc();
  // Ship at once: the client admit ack waits on the standbys' apply.
  for (const auto& [standby, applied] : applied_) {
    m_records_shipped_.inc();
    channel_.send(standby, kReplRecord, frame);
  }
  tail_bytes_ += frame.size();
  tail_.push_back(std::move(frame));
  trim_tail();
  update_lag();
  update_committed();  // a degraded group commits at append
}

void ReplicationLog::trim_tail() {
  // Keep history only while resending it is cheaper than a snapshot.
  while (!tail_.empty() && tail_bytes_ >= snapshot_bytes_) {
    tail_bytes_ -= tail_.front().size();
    tail_.pop_front();
  }
}

void ReplicationLog::on_applied(serde::FrameView payload, Guid standby) {
  serde::Reader r(payload);
  const auto epoch = r.varint();
  const auto index = r.varint();
  if (!epoch || !index) return;
  // Acks measure progress against one incarnation's index space; after a
  // failover the promoted log restarts near 0, so a straggler ack from the
  // old epoch would inflate the watermark past the new head.
  if (static_cast<std::uint32_t>(*epoch) != channel_.epoch()) return;
  if (const auto it = applied_.find(standby); it != applied_.end()) {
    it->second = std::max(it->second, *index);
    update_lag();
    update_committed();
  }
  // A record's ack ends here. Test before reading: a failed read of the
  // absent seq would build an error on the heap, once per ack.
  if (r.remaining() == 0) return;
  const auto seq = r.varint();
  if (!seq) return;
  const auto beat_it = beats_.find(*seq);
  if (beat_it == beats_.end()) return;  // outside the correlation window
  Beat& beat = beat_it->second;
  // Quorum is judged against the member snapshot taken at send time, not
  // the live group: an ack from a standby detached since the beat must not
  // count, and a group shrink between send and ack must not let stale acks
  // satisfy a smaller majority.
  if (!beat.members.contains(standby)) return;
  m_lease_acks_.inc();
  beat.acks.insert(standby);
  // +1 on both sides: the primary implicitly acks its own beat.
  const std::size_t quorum = (beat.members.size() + 1) / 2 + 1;
  if (beat.acks.size() + 1 >= quorum) extend_lease(beat.sent_at);
}

bool ReplicationLog::holds_lease() const {
  return network_.simulator().now() < lease_until_;
}

void ReplicationLog::extend_lease(SimTime sent_at) {
  // Extend from the *send* time: however long the acks took, the member
  // promises cover exactly [sent_at, sent_at + lease_duration).
  lease_until_ = std::max(lease_until_, sent_at + lease_duration());
  if (holds_lease()) held_ = true;
}

void ReplicationLog::set_sync_acks(unsigned n,
                                   std::function<void(std::uint64_t)>
                                       on_commit) {
  SCI_ASSERT(n > 0);
  sync_acks_ = n;
  on_commit_ = std::move(on_commit);
  committed_seen_ = committed();
}

std::uint64_t ReplicationLog::committed() const {
  if (applied_.size() < sync_acks_) return head_;
  // The nth-highest applied index: the highest one n standbys hold. Runs on
  // every append and ack, over a handful of standbys, so it allocates
  // nothing.
  std::uint64_t committed = 0;
  for (const auto& [standby, mark] : applied_) {
    unsigned holders = 0;
    for (const auto& [other, applied] : applied_) holders += applied >= mark;
    if (holders >= sync_acks_) committed = std::max(committed, mark);
  }
  return committed;
}

void ReplicationLog::update_committed() {
  const std::uint64_t now_committed = committed();
  if (now_committed <= committed_seen_) return;
  committed_seen_ = now_committed;
  if (on_commit_) on_commit_(committed_seen_);
}

std::uint64_t ReplicationLog::lag() const {
  if (applied_.empty()) return 0;
  std::uint64_t min_applied = head_;
  for (const auto& [standby, applied] : applied_)
    min_applied = std::min(min_applied, applied);
  return head_ - min_applied;
}

std::vector<Guid> ReplicationLog::standbys() const {
  std::vector<Guid> out;
  out.reserve(applied_.size());
  for (const auto& [standby, applied] : applied_) out.push_back(standby);
  std::sort(out.begin(), out.end());
  return out;
}

void ReplicationLog::heartbeat_tick() {
  const SimTime now = network_.simulator().now();
  if (applied_.empty()) {
    // Solo group: the majority of one is the primary itself.
    extend_lease(now);
    return;
  }
  // Trailing replica-group view (standby nodes, sorted): followers learn
  // who their election siblings are from here.
  const std::vector<Guid> members = standbys();
  beats_[++beat_seq_] =
      Beat{now, std::set<Guid>(members.begin(), members.end()), {}};
  while (beats_.size() > kBeatWindow) beats_.erase(beats_.begin());
  serde::Writer w(32 + 17 * members.size());
  w.varint(channel_.epoch());
  w.varint(head_);
  w.varint(fingerprint_ ? fingerprint_() : 0);
  w.varint(beat_seq_);
  w.varint(members.size());
  for (const Guid member : members) w.guid(member);
  const serde::BufferRef payload = w.take_ref();
  for (const Guid member : members) {
    net::Message beat;
    beat.type = kReplHeartbeat;
    beat.from = channel_.self();
    beat.to = member;
    beat.payload = payload;
    (void)network_.send(std::move(beat));
    m_heartbeats_.inc();
  }
  if (held_ && now >= lease_until_) {
    held_ = false;
    m_lease_lapses_.inc();
    SCI_WARN(kTag, "%s: fencing lease lapsed (epoch %u) — closing admission",
             channel_.self().short_string().c_str(), channel_.epoch());
  }
}

void ReplicationLog::update_lag() {
  m_lag_->set(static_cast<double>(lag()));
}

// ---------------------------------------------------------------------------
// ReplicationFollower (standby)

ReplicationFollower::ReplicationFollower(net::Network& network, Guid self,
                                         Guid primary, std::uint32_t epoch,
                                         ReplicationConfig config,
                                         ApplyRecord apply_record,
                                         ApplySnapshot apply_snapshot,
                                         PromoteCallback promote,
                                         FingerprintProvider local_fingerprint)
    : network_(network),
      self_(self),
      primary_(primary),
      epoch_(epoch),
      config_(config),
      apply_record_(std::move(apply_record)),
      apply_snapshot_(std::move(apply_snapshot)),
      promote_(std::move(promote)),
      fingerprint_(std::move(local_fingerprint)),
      last_heard_(network.simulator().now()) {
  SCI_ASSERT(apply_record_ != nullptr);
  SCI_ASSERT(apply_snapshot_ != nullptr);
  obs::MetricsRegistry& metrics = network_.simulator().metrics();
  m_records_applied_ = &metrics.counter("repl.records_applied");
  m_divergence_ = &metrics.counter("repl.state_divergence");
  m_candidacies_ = &metrics.counter("repl.election.candidacies");
  m_votes_granted_ = &metrics.counter("repl.election.votes_granted");
  m_won_ = &metrics.counter("repl.election.won");
  m_lease_acks_sent_ = &metrics.counter("repl.lease.acks_sent");
  m_lease_acks_refused_ = &metrics.counter("repl.lease.acks_refused");
  watchdog_.emplace(network_.simulator(), config_.heartbeat_period,
                    [this] { watchdog_tick(); });
  watchdog_->start();
}

ReplicationFollower::~ReplicationFollower() {
  watchdog_.reset();
  // The staggered launch and a candidacy retry both capture `this`.
  network_.simulator().cancel(stagger_timer_);
  network_.simulator().cancel(retry_timer_);
}

bool ReplicationFollower::accept_epoch(std::uint32_t epoch) {
  // Stale incarnations must not refresh liveness: their frames would
  // suppress the watchdog against a dead current primary.
  if (epoch < current_epoch()) return false;
  if (epoch > stream_epoch_) {
    // New incarnation: its indices restart, and nothing applies until the
    // new primary's snapshot resyncs us.
    stream_epoch_ = epoch;
    await_snapshot_ = true;
  }
  last_heard_ = network_.simulator().now();
  heard_once_ = true;
  // The primary is alive (or a new incarnation took over): an outstanding
  // promote request or an unfinished candidacy was a false alarm, so re-arm
  // the watchdog for the next silence episode.
  promoted_ = false;
  active_ = false;
  return true;
}

bool ReplicationFollower::primary_recently_alive() const {
  const Duration silence = network_.simulator().now() - last_heard_;
  return silence.count_micros() <= config_.promote_timeout().count_micros();
}

void ReplicationFollower::on_record(const serde::BufferRef& payload) {
  serde::Reader r(payload);
  const auto epoch = r.varint();
  if (!epoch || !accept_epoch(static_cast<std::uint32_t>(*epoch))) return;
  const serde::BufferRef inner =
      payload.slice(payload.size() - r.remaining(), r.remaining());
  auto record = LogRecord::decode(inner);
  if (!record) {
    SCI_WARN(kTag, "malformed log record: %s",
             record.error().message().c_str());
    return;
  }
  // The channel hands records over in send order, after the epoch's
  // snapshot: anything but applied_ + 1 is a duplicate or follows a record
  // the primary gave up on.
  if (!await_snapshot_ && record->index == applied_ + 1) {
    applied_ = record->index;
    m_records_applied_->inc();
    apply_record_(*record, inner);
  }
  ack();
}

void ReplicationFollower::on_snapshot(const serde::BufferRef& payload) {
  serde::Reader r(payload);
  const auto epoch = r.varint();
  if (!epoch || !accept_epoch(static_cast<std::uint32_t>(*epoch))) return;
  const auto base = r.varint();
  if (!base) return;
  const auto len = r.varint();
  if (!len || *len > r.remaining()) return;
  std::vector<std::byte> blob(static_cast<std::size_t>(*len));
  const std::size_t offset = payload.size() - r.remaining();
  std::copy_n(payload.data() + static_cast<std::ptrdiff_t>(offset),
              static_cast<std::size_t>(*len), blob.begin());
  apply_snapshot_(blob, *base);
  // The snapshot *replaces* local state, so the applied index resets to its
  // base even when we were further along (a promoted primary's log restarts
  // below where this follower had reached under the old incarnation).
  applied_ = *base;
  await_snapshot_ = false;
  ack();
}

void ReplicationFollower::on_heartbeat(serde::FrameView payload) {
  serde::Reader r(payload);
  const auto epoch = r.varint();
  const auto head = r.varint();
  const auto remote_fp = r.varint();
  const auto seq = r.varint();
  if (!epoch || !head || !remote_fp || !seq) return;
  const auto e = static_cast<std::uint32_t>(*epoch);
  if (!accept_epoch(e)) return;
  if (e < max_voted_epoch_) {
    // THE fencing rule: this voter pledged a higher epoch, so the deposed
    // primary must never again assemble a lease majority through it.
    m_lease_acks_refused_->inc();
    SCI_DEBUG(kTag, "%s: refusing lease ack for epoch %u (pledged %u)",
              self_.short_string().c_str(), e, max_voted_epoch_);
  } else {
    ack(*seq);
    m_lease_acks_sent_->inc();
  }
  // Trailing group view: the full standby list, self included.
  const auto count = r.varint();
  if (count && *count > 0 && *count <= 64) {
    std::vector<Guid> fresh;
    fresh.reserve(static_cast<std::size_t>(*count));
    for (std::uint64_t i = 0; i < *count; ++i) {
      const auto member = r.guid();
      if (!member) break;
      fresh.push_back(*member);
    }
    if (fresh.size() == *count) view_ = std::move(fresh);
  }
  // Divergence check: only meaningful when fully caught up — a mid-stream
  // comparison would flag ordinary lag as corruption. The flag is sticky per
  // episode so one divergence bumps the counter once, not once per beat.
  if (!fingerprint_ || *remote_fp == 0) return;
  if (await_snapshot_ || applied_ != *head) return;
  const std::uint64_t local_fp = fingerprint_();
  if (local_fp != *remote_fp) {
    if (!diverged_) {
      diverged_ = true;
      m_divergence_->inc();
      SCI_WARN(kTag, "%s: state fingerprint diverged from primary %s at %llu",
               self_.short_string().c_str(), primary_.short_string().c_str(),
               static_cast<unsigned long long>(applied_));
    }
  } else {
    diverged_ = false;
  }
}

void ReplicationFollower::seed(std::uint32_t epoch, std::uint64_t applied) {
  stream_epoch_ = epoch;
  applied_ = applied;
  await_snapshot_ = false;
}

void ReplicationFollower::ack(std::uint64_t beat_seq) {
  // The epoch pins the ack to the index space it was measured against: a
  // late ack generated under a dead incarnation (whose indices ran much
  // higher) must not inflate the new primary's applied watermark.
  serde::Writer w(16);
  w.varint(stream_epoch_);
  w.varint(applied_);
  if (beat_seq != 0) w.varint(beat_seq);
  send_raw(primary_, kReplApplied, w.take_ref());
}

void ReplicationFollower::send_raw(Guid to, std::uint32_t type,
                                   serde::BufferRef payload) {
  net::Message msg;
  msg.type = type;
  msg.from = self_;
  msg.to = to;
  msg.payload = std::move(payload);
  (void)network_.send(std::move(msg));
}

void ReplicationFollower::watchdog_tick() {
  // Never promote while still awaiting the epoch's snapshot: beats and
  // records of the epoch satisfy heard_once_, but the local state is empty
  // or stale — taking over would silently lose the range's registrar,
  // subscription and configuration state.
  if (!heard_once_ || await_snapshot_) return;
  if (primary_recently_alive()) return;
  if (promoted_) {
    // A request is already outstanding. If silence persists a full further
    // timeout (e.g. the facade declined during a partition that then became
    // a real crash), ask again rather than latch forever.
    const Duration since_request = network_.simulator().now() - last_request_;
    if (since_request.count_micros() <=
        config_.promote_timeout().count_micros())
      return;
  }
  promoted_ = true;
  last_request_ = network_.simulator().now();
  SCI_INFO(kTag, "%s: primary %s silent for %lldms — promoting",
           self_.short_string().c_str(), primary_.short_string().c_str(),
           static_cast<long long>(
               (network_.simulator().now() - last_heard_).count_micros() /
               1000));
  request_promotion();
}

void ReplicationFollower::request_promotion() {
  // Elections first: only a majority winner (or a group too small to hold
  // one) may promote.
  if (!start_candidacy() && promote_) promote_(0);
}

}  // namespace sci::replicate
