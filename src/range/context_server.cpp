#include "range/context_server.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/log.h"
#include "entity/sensors.h"
#include "serde/frame.h"

namespace sci::range {

namespace {

constexpr const char* kTag = "cs";

// Wall-clock (not simulated) cost of a resolve stage, for view.* stats and
// QueryHandle introspection.
double elapsed_micros(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

Value profile_to_value(const entity::Profile& profile) {
  ValueMap map;
  map.emplace("entity", profile.entity);
  map.emplace("name", profile.name);
  map.emplace("kind", std::string(entity::to_string(profile.kind)));
  map.emplace("metadata", profile.metadata);
  map.emplace("location", profile.location.to_value());
  ValueList outputs;
  for (const entity::TypeSig& sig : profile.outputs) {
    outputs.emplace_back(sig.to_string());
  }
  map.emplace("outputs", Value(std::move(outputs)));
  return Value(std::move(map));
}

struct ForwardedQueryWire {
  Guid app;
  std::string xml;

  [[nodiscard]] serde::BufferRef encode() const {
    serde::Writer w;
    w.guid(app);
    w.string(xml);
    return w.take_ref();
  }

  static Expected<ForwardedQueryWire> decode(serde::FrameView bytes) {
    serde::Reader r(bytes);
    ForwardedQueryWire out;
    SCI_TRY_ASSIGN(app, r.guid());
    out.app = app;
    SCI_TRY_ASSIGN(xml, r.string());
    out.xml = std::move(xml);
    return out;
  }
};

// State-mutating component ops: the ones a primary whose fencing lease has
// lapsed must refuse rather than ack (docs/REPLICATION.md). Read-only
// liveness traffic (hello, pong, beacons) and replication/election frames
// stay admitted.
bool mutates_range_state(std::uint32_t type) {
  switch (type) {
    case entity::kRegisterRequest:
    case entity::kDeregister:
    case entity::kPublish:
    case entity::kProfileUpdate:
    case entity::kQuerySubmit:
    case entity::kLeaseRenew:
    case kForwardedQueryDirect:
    case kShardProfile:
    case kShardProfileRemove:
    case kShardSubscribe:
    case kShardUnsubscribe:
    case kShardBatch:
    case kShardMirrorSet:
    case kHandoffFreeze:
    case kHandoffReady:
    case kHandoffCommit:
    case kHandoffAbort:
    case kHandoffReplay:
      return true;
    default:
      return false;
  }
}

// Handoff protocol header, shared by every kHandoff* wire frame and log
// record: which vnode is moving, between whom, and the map epoch the move
// commits at. A kHandoffFreeze frame (and the target's kHandoffIntent
// record) continues with the vnode's state slice.
struct HandoffWire {
  std::uint64_t id = 0;
  unsigned vnode = 0;
  unsigned source = 0;
  unsigned target = 0;
  std::uint64_t epoch = 0;

  [[nodiscard]] serde::BufferRef encode() const {
    serde::Writer w;
    w.varint(id);
    w.varint(vnode);
    w.varint(source);
    w.varint(target);
    w.varint(epoch);
    return w.take_ref();
  }

  static Expected<HandoffWire> decode(serde::FrameView bytes) {
    serde::Reader r(bytes);
    return decode(r);
  }

  static Expected<HandoffWire> decode(serde::Reader& r) {
    HandoffWire out;
    SCI_TRY_ASSIGN(id, r.varint());
    out.id = id;
    SCI_TRY_ASSIGN(vnode, r.varint());
    out.vnode = static_cast<unsigned>(vnode);
    SCI_TRY_ASSIGN(source, r.varint());
    out.source = static_cast<unsigned>(source);
    SCI_TRY_ASSIGN(target, r.varint());
    out.target = static_cast<unsigned>(target);
    SCI_TRY_ASSIGN(epoch, r.varint());
    out.epoch = epoch;
    return out;
  }
};

// Length-prefixed byte blobs (varint len + raw) — same layout as string().
void write_blob(serde::Writer& w, serde::FrameView blob) {
  w.varint(blob.size());
  w.raw(blob.data(), blob.size());
}

Expected<serde::BufferRef> read_blob(serde::Reader& r) {
  SCI_TRY_ASSIGN(s, r.string_view());
  return serde::BufferRef::copy_of(s.data(), s.size());
}

// Record categories inside a kHandoffFreeze slice (u8 tag per CRC frame).
constexpr std::uint8_t kStateMember = 1;   // registrar MemberRecord
constexpr std::uint8_t kStateProfile = 2;  // profile + advertisement
constexpr std::uint8_t kStateEvent = 3;    // context-store event
constexpr std::uint8_t kStateSub = 4;      // producer-keyed subscription
constexpr std::uint8_t kStateDedup = 5;    // publish_seen window
constexpr std::uint8_t kStateLease = 6;    // subscriber lease + expiry

// Staged ops beyond this abort the handoff rather than buffer unboundedly.
constexpr std::size_t kMaxStagedOps = 256;
// Mirror records coalesced per destination before an eager flush.
constexpr std::size_t kMirrorBatchCap = 64;
// Abandoned channel frames parked for Sci::dead_letters() inspection and
// replay (oldest evicted beyond this many).
constexpr std::size_t kDeadLetterCapacity = 64;
// Dispatched events retained for post-failover redelivery.
constexpr std::size_t kRecentEventWindow = 64;

// The CS node's channel: default retransmit schedule, parked give-ups, and
// a "shard=<i>" twin on every channel counter when the range is sharded.
reliable::ReliableConfig channel_config(const RangeConfig& config) {
  reliable::ReliableConfig channel;
  channel.dead_letter_capacity = kDeadLetterCapacity;
  if (config.shard_map != nullptr && config.shard_map->size() > 1) {
    channel.metrics_label = "shard=" + std::to_string(config.shard_index);
  }
  return channel;
}

}  // namespace

void StagedOp::encode(serde::Writer& w) const {
  w.guid(from);
  w.varint(type);
  write_blob(w, payload);
}

Expected<StagedOp> StagedOp::decode(serde::Reader& r) {
  StagedOp op;
  SCI_TRY_ASSIGN(from, r.guid());
  op.from = from;
  SCI_TRY_ASSIGN(type, r.varint());
  op.type = static_cast<std::uint32_t>(type);
  SCI_TRY_ASSIGN(payload, read_blob(r));
  op.payload = std::move(payload);
  return op;
}

ContextServer::ContextServer(net::Network& network, RangeConfig config,
                             RangeDirectory* directory,
                             const compose::SemanticRegistry* semantics,
                             const location::LocationDirectory* locations)
    : network_(network),
      config_(std::move(config)),
      directory_(directory),
      location_directory_(locations),
      channel_(network,
               config_.role == RangeConfig::Role::kStandby
                   ? config_.standby_node
                   : config_.context_server,
               channel_config(config_)),
      mediator_(network, config_.context_server),
      locations_(locations),
      resolver_(semantics),
      store_(config_.reuse.enable) {
  SCI_ASSERT(!config_.range.is_nil());
  SCI_ASSERT(!config_.context_server.is_nil());
  SCI_ASSERT(semantics != nullptr);
  if (config_.role == RangeConfig::Role::kStandby) {
    SCI_ASSERT_MSG(!config_.standby_node.is_nil(),
                   "standby role requires a standby_node identity");
  }
  semantics_ = semantics;

  obs::MetricsRegistry& metrics = network_.simulator().metrics();
  // Every server counter is a deployment total plus this node's slot.
  metrics_label_ = "node=" + channel_.self().to_string();
  const auto twin = [&](const char* name) {
    return metrics.twin(name, metrics_label_);
  };
  m_registrations_ = twin("cs.registrations");
  m_departures_ = twin("cs.departures");
  m_failures_ = twin("cs.failures_detected");
  m_queries_received_ = twin("cs.queries.received");
  m_queries_forwarded_ = twin("cs.queries.forwarded");
  m_queries_adopted_ = twin("cs.queries.adopted");
  m_queries_deferred_ = twin("cs.queries.deferred");
  m_queries_answered_ = twin("cs.queries.answered");
  m_queries_failed_ = twin("cs.queries.failed");
  m_configurations_ = twin("cs.configurations_built");
  m_recompositions_ = twin("cs.recompositions");
  m_recomposition_failures_ = twin("cs.recomposition_failures");
  m_events_in_ = twin("cs.events_in");
  m_duplicate_publishes_ = twin("cs.duplicate_publishes");
  m_delivery_dead_letters_ = twin("em.deliveries.dead_letter");
  m_dead_letters_ = twin("cs.dead_letters");
  m_promotions_ = twin("repl.failovers");
  m_lease_rejected_ = twin("repl.lease.rejected");
  m_shard_redirects_ = twin("cs.shard.redirects");
  m_shard_profile_mirrors_ = twin("cs.shard.profile_mirrors");
  m_shard_sub_mirrors_ = twin("cs.shard.sub_mirrors");
  m_shard_forwarded_ = twin("cs.shard.forwarded_queries");
  m_mirror_batches_ = twin("cs.shard.mirror_batches");
  m_mirrors_logged_ = twin("cs.shard.mirrors_logged");
  m_mirror_rebuilds_ = twin("cs.shard.mirror_rebuilds");
  m_publish_rate_ = &metrics.gauge(
      "cs.shard.publish_rate", "shard=" + std::to_string(config_.shard_index));
  m_reshard_handoffs_ = twin("reshard.handoffs");
  m_reshard_staged_ = twin("reshard.staged_events");
  m_reshard_aborts_ = twin("reshard.aborts");
  m_reshard_pause_ = &metrics.histogram("reshard.pause_micros");
  m_view_hits_ = twin("view.hits");
  m_view_misses_ = twin("view.misses");
  m_view_installs_ = twin("view.installs");
  m_view_invalidations_ = twin("view.invalidations");
  m_view_evictions_ = twin("view.evictions");
  m_view_decode_failures_ = twin("view.snapshot_decode_failures");
  m_view_size_ = &metrics.gauge("view.size");
  m_view_staleness_ = &metrics.histogram("view.staleness_seconds");
  trace_ = &network_.simulator().trace();

  if (config_.views.enable && config_.views.capacity > 0) {
    views_ = std::make_unique<compose::ViewCache>(config_.views.capacity);
    views_->set_staleness_observer(
        [this](double age_seconds) { m_view_staleness_->observe(age_seconds); });
  }

  channel_.set_epoch(config_.epoch);
  channel_.set_give_up_handler(
      [this](const net::Message& message, unsigned attempts) {
        on_channel_give_up(message, attempts);
      });
  // Self-fencing (docs/REPLICATION.md): a primary whose quorum lease lapsed
  // refuses mutating frames outright — no ack, no dedup entry — so the
  // sender's retransmit loop carries the op to the elected successor.
  channel_.set_receive_gate([this](std::uint32_t inner_type) {
    if (!mutates_range_state(inner_type) || admission_open()) return true;
    m_lease_rejected_.inc();
    return false;
  });
  if (config_.reliability.acked_delivery) {
    mediator_.set_channel(&channel_);
  }
  mediator_.set_leases(config_.reliability.lease_ttl,
                       [this](Guid s) { return owns_entity(s); });
  if (sharded()) {
    // Disjoint per-shard subscription-id spaces: ids minted here can never
    // collide with ids mirrored in (verbatim) from sibling shards.
    mediator_.mutable_table().set_next_id(
        1 + (static_cast<std::uint64_t>(config_.shard_index) << 48));
  }
  // Local epoch-versioned ownership copy: starts as the shared initial map,
  // then advances with every committed handoff (snapshot/WAL recovery
  // overwrites it with the epoch the previous incarnation reached).
  if (config_.shard_map != nullptr) map_ = *config_.shard_map;

  attached_as_ = config_.role == RangeConfig::Role::kStandby
                     ? config_.standby_node
                     : config_.context_server;
  const Status attached = network_.attach(
      attached_as_, [this](const net::Message& m) { on_component_message(m); },
      config_.x, config_.y);
  SCI_ASSERT_MSG(attached.is_ok(), "context server node id collision");

  // Durable store (docs/DURABILITY.md): recover whatever a previous
  // incarnation of this node left on disk before taking on any role.
  init_durable_store();

  if (config_.role == RangeConfig::Role::kStandby) {
    // Follower mode (docs/REPLICATION.md): mirror the primary's state, emit
    // nothing. No overlay node, no directory entry, no liveness timers — the
    // primary owns those duties until promote().
    mediator_.set_silent(true);
    follower_ = std::make_unique<replicate::ReplicationFollower>(
        network_, attached_as_, config_.context_server, config_.epoch,
        config_.replication,
        [this](const replicate::LogRecord& record,
               const serde::BufferRef& bytes) {
          // WAL before apply: once applied() claims this index, it must
          // survive a crash of this node.
          if (pstore_ != nullptr)
            pstore_->append(follower_->stream_epoch(), record.index, bytes);
          log_head_ = std::max(log_head_, record.index);
          apply_record(record);
        },
        [this](const std::vector<std::byte>& blob, std::uint64_t base) {
          apply_snapshot_state(blob, base);
          // Persist the shipped snapshot as a checkpoint: it supersedes any
          // WAL this node recovered (possibly from an older incarnation).
          if (pstore_ != nullptr) {
            (void)pstore_->checkpoint_with(follower_->stream_epoch(), base,
                                           blob);
          }
        },
        [this](std::uint32_t elected_epoch) {
          if (elected_epoch != 0) elected_epoch_ = elected_epoch;
          if (on_promote_requested_) on_promote_requested_();
        },
        [this] { return state_fingerprint(); });
    if (recovered_any_) {
      // Rejoin with the recovered watermark: the primary ships only the
      // delta above it while the epoch still matches (attach_standby),
      // else a full snapshot replaces the recovered state.
      follower_->seed(recovered_epoch_, recovered_watermark_);
    }
    return;
  }

  // Sibling shards (shard_index > 0) have no SCINET presence and no
  // directory entry of their own: inter-range traffic flows through the lead
  // shard, whose entry names the whole Range.
  if (config_.shard_index == 0) {
    scinet_ = std::make_unique<overlay::ScinetNode>(network_, config_.range,
                                                    config_.x, config_.y);
    scinet_->set_deliver_handler(
        [this](const overlay::RoutedMessage& m) { on_scinet_deliver(m); });

    if (directory_ != nullptr) {
      directory_->add(RangeDirectory::Entry{config_.range,
                                            config_.context_server,
                                            config_.logical_root, config_.name,
                                            config_.group});
    }
  }

  start_primary_duties();

  if (!recovered_any_) return;
  // A cold restart that recovered an in-flight handoff from the WAL resolves
  // it now that the node is fully live: committed completes, uncommitted
  // aborts (docs/SHARDING.md crash matrix).
  resolve_recovered_handoff();
  // Mirrors that changed unlogged since the last checkpoint died with the
  // previous incarnation.
  begin_mirror_rebuild();
}

ContextServer::~ContextServer() {
  *alive_ = false;
  cancel_query_timers();
  beacon_timer_.reset();
  ping_timer_.reset();
  rate_timer_.reset();
  network_.simulator().cancel(mirror_flush_timer_);
  if (outgoing_handoff_) network_.simulator().cancel(outgoing_handoff_->deadline);
  if (incoming_handoff_) network_.simulator().cancel(incoming_handoff_->deadline);
  follower_.reset();
  repl_log_.reset();
  scinet_.reset();
  if (fenced_) return;  // the successor owns the identities already
  if (config_.role == RangeConfig::Role::kPrimary &&
      config_.shard_index == 0 && directory_ != nullptr) {
    directory_->remove(config_.range);
  }
  if (network_.is_attached(attached_as_)) {
    (void)network_.detach(attached_as_);
  }
}

void ContextServer::start_primary_duties() {
  // Only a server running primary duties runs timers (docs/REPLICATION.md,
  // "Who runs timers"): leases start a fresh term, and every parked query
  // and bounded configuration re-arms from replicated state.
  mediator_.start_reaper([this](Guid subscriber) { expire_lease(subscriber); });
  for (auto* list : {&deferred_, &not_before_}) {
    for (DeferredQuery& parked : *list) arm_parked(parked);
  }
  for (auto& [tag, tracked] : tracked_) arm_bounded_expiry(tag, tracked);
  ping_timer_.emplace(network_.simulator(), config_.liveness.ping_period,
                      [this] { ping_tick(); });
  ping_timer_->start();

  // Publish-rate EWMA (1 s tick, alpha 0.3): feeds the cs.shard.publish_rate
  // gauge and the per-vnode heat ranking behind Sci::rebalance_range.
  rate_timer_.emplace(network_.simulator(), Duration::seconds(1), [this] {
    publish_rate_ewma_ =
        0.3 * static_cast<double>(publish_window_count_) +
        0.7 * publish_rate_ewma_;
    publish_window_count_ = 0;
    // Vnode heat decays geometrically so a migrated-away hotspot cools off.
    for (auto it = vnode_publishes_.begin(); it != vnode_publishes_.end();) {
      it->second /= 2;
      it = it->second == 0 ? vnode_publishes_.erase(it) : std::next(it);
    }
    m_publish_rate_->set(publish_rate_ewma_);
  });
  rate_timer_->start();

  const DiscoveryOptions& discovery = config_.discovery;
  if (discovery.beacon_period > Duration::seconds(0)) {
    beacon_timer_.emplace(network_.simulator(), discovery.beacon_period,
                          [this] {
                            if (scinet_ == nullptr || !scinet_->is_ready())
                              return;
                            serde::Writer w;
                            w.guid(config_.range);
                            net::Message beacon;
                            beacon.type = kRangeBeacon;
                            beacon.from = config_.context_server;
                            beacon.payload = w.take_ref();
                            (void)network_.broadcast(
                                std::move(beacon),
                                config_.discovery.beacon_radius);
                          });
    beacon_timer_->start();
  }
}

void ContextServer::bootstrap_overlay() {
  if (scinet_ != nullptr) scinet_->bootstrap();
}

Status ContextServer::join_overlay(Guid bootstrap_range) {
  if (scinet_ == nullptr) {
    return make_error(ErrorCode::kUnavailable,
                      "standby has no overlay presence until promoted");
  }
  return scinet_->join(bootstrap_range);
}

void ContextServer::join_via_discovery(Duration listen_window) {
  if (scinet_ == nullptr || scinet_->is_ready()) return;
  discovering_ = true;
  network_.simulator().schedule(listen_window, [this] {
    if (!discovering_) return;  // a beacon already triggered the join
    discovering_ = false;
    SCI_INFO(kTag, "%s: no beacons heard — bootstrapping a new SCINET",
             config_.name.c_str());
    scinet_->bootstrap();
  });
}

void ContextServer::detect_arrival(Guid component) {
  // Fig 5 step 2: the Range Service tells the component where the Registrar
  // is. (The Registrar shares the CS node in this implementation.) On a
  // partitioned Range the named Registrar is the component's owner shard,
  // whichever shard noticed the arrival — one handshake hop routes every
  // subsequent register/publish/query to the right partition.
  trace_->record(network_.simulator().now(), obs::TraceKind::kArrival,
                 component, config_.range);
  Guid registrar_node = config_.context_server;
  if (const unsigned owner = shard_of(component);
      sharded() && owner != config_.shard_index) {
    registrar_node = shard_node(owner);
    m_shard_redirects_.inc();
  }
  entity::RangeInfoBody info{config_.range, registrar_node};
  send_to(component, entity::kRangeInfo, info.encode());
}

void ContextServer::detect_departure(Guid component) {
  // Tell the component it is no longer part of this range, then clean up.
  send_to(component, entity::kDeregister, {});
  departure(component, /*failure=*/false);
}

// ---------------------------------------------------------------------------
// message plumbing

void ContextServer::send_to(Guid to, std::uint32_t type,
                            serde::BufferRef payload) {
  if (passive()) return;  // standbys and fenced instances stay silent
  net::Message message;
  message.type = type;
  message.from = config_.context_server;
  message.to = to;
  message.payload = std::move(payload);
  (void)network_.send(std::move(message));
}

void ContextServer::send_component(Guid to, std::uint32_t type,
                                   serde::BufferRef payload) {
  if (passive()) return;
  if (config_.reliability.acked_delivery) {
    channel_.send(to, type, std::move(payload));
    return;
  }
  send_to(to, type, std::move(payload));
}

void ContextServer::on_channel_give_up(const net::Message& message,
                                       unsigned attempts) {
  // The component stayed unreachable through the whole retransmission
  // budget. Its ping-based failure detection will evict it; here we only
  // account for the payload that could not be delivered.
  SCI_DEBUG(kTag, "%s: gave up on 0x%x to %s after %u attempts",
            config_.name.c_str(), message.type,
            message.to.short_string().c_str(), attempts);
  if (message.type == entity::kDeliver) {
    m_delivery_dead_letters_.inc();
  } else {
    m_dead_letters_.inc();
  }
  // A sibling that never took the pull cannot answer it: the rebuild goes
  // on without it.
  if (message.type == kShardMirrorPull) {
    if (const auto sibling = sibling_at(message.to)) {
      mirror_pull_answered(*sibling);
    }
  }
}

void ContextServer::expire_lease(Guid subscriber) {
  // Logged as the subscriber's teardown; a replica replays this same step.
  log_record(replicate::RecordKind::kShardUnsubscribe, subscriber, 0, {});
  // The owner tells every sibling once; a sibling's copies of the
  // subscriber's rows, and the rows it minted for it, go by that message.
  if (sharded() && mediator_.leases().contains(subscriber)) {
    serde::Writer w;
    w.varint(0);  // no id: every row of the subscriber
    w.guid(subscriber);
    queue_to_siblings(kShardUnsubscribe, w.take_ref());
  }
  drop_subscriber(subscriber, /*lapsed=*/true);
  // Mediator-level delivery failure: the subscriber's rows are gone while
  // deliveries to it were still in flight. Those frames can never be
  // consumed under a live subscription, so park them now as mediator dead
  // letters — same bounded replayable DLQ as channel give-ups, distinguished
  // by cause (Sci::dead_letters).
  if (channel_.in_flight_to(subscriber) > 0) {
    const std::size_t parked =
        channel_.fail_all(subscriber, reliable::DeadLetterCause::kMediator);
    SCI_INFO(kTag,
             "%s: lease expiry parked %zu undeliverable frame(s) to %s as "
             "mediator dead letters",
             config_.name.c_str(), parked,
             subscriber.short_string().c_str());
  }
}

void ContextServer::drop_subscriber(Guid subscriber, bool lapsed) {
  // Each sibling drops its own rows of the subscriber, so the mirror
  // bookkeeping goes without a message.
  std::erase_if(mirrored_subs_, [&](const auto& entry) {
    return entry.second.subscriber == subscriber;
  });
  (void)mediator_.remove_subscriber(subscriber, lapsed);
  // Drop CS bookkeeping that names a row gone from here and from the
  // mirrors, so later teardown does not double-unsubscribe.
  const auto names_gone = [this](const auto& entry) {
    return mediator_.table().find(entry.second) == nullptr &&
           !mirrored_subs_.contains(entry.second);
  };
  std::erase_if(edge_subscriptions_, names_gone);
  std::erase_if(app_edges_, names_gone);
}

void ContextServer::reply_result(Guid app, const std::string& query_id,
                                 const Error& error, Value result) {
  entity::QueryResultBody body;
  body.query_id = query_id;
  body.status = static_cast<std::uint8_t>(error.code());
  body.message = error.message();
  body.result = std::move(result);
  send_component(app, entity::kQueryResult, body.encode());
  if (error.ok()) {
    m_queries_answered_.inc();
  } else {
    m_queries_failed_.inc();
  }
  trace_->record(network_.simulator().now(), obs::TraceKind::kQueryAnswer,
                 config_.range, app, error.ok() ? 1 : 0);
}

void ContextServer::on_component_message(const net::Message& message) {
  // Reliable envelopes first: data frames recurse with the inner message.
  if (channel_.on_message(message, [this](const net::Message& inner) {
        on_component_message(inner);
      })) {
    return;
  }
  // Raw-path twin of the channel receive gate: refuse mutating ops while
  // the fencing lease is lapsed (frames that came via the channel were
  // already gated before delivery, so this only fires on raw sends).
  if (mutates_range_state(message.type) && !admission_open()) {
    m_lease_rejected_.inc();
    return;
  }
  // Freeze window (docs/SHARDING.md): ops against a vnode mid-handoff park
  // in the staging queue and replay on the new owner after commit.
  if (stage_if_frozen(message)) return;
  switch (message.type) {
    case entity::kHello:
      handle_hello(message);
      return;
    case entity::kRegisterRequest:
      handle_register(message);
      return;
    case entity::kDeregister:
      departure(message.from, /*failure=*/false);
      return;
    case entity::kPublish:
      handle_publish(message);
      return;
    case entity::kProfileUpdate: {
      auto body = entity::ProfileUpdateBody::decode(message.payload);
      if (!body) return;
      if (!registrar_.contains(message.from) && bounce_stale_frame(message))
        return;
      registrar_.touch(message.from, network_.simulator().now());
      (void)profiles_.update(body->profile);
      invalidate_views_matching(body->profile);
      hold_admit_until_committed(
          log_record(replicate::RecordKind::kProfileUpdate, message.from, 0,
                     message.payload),
          {});
      broadcast_profile_mirror(body->profile.entity);
      return;
    }
    case entity::kQuerySubmit:
      handle_query_submit(message);
      return;
    case entity::kPong:
      registrar_.touch(message.from, network_.simulator().now());
      return;
    case entity::kLeaseRenew:
      // Keep-alive for subscription leases: soft state like a pong, never
      // logged, since a new primary starts every lease afresh. Doubles as a
      // sign of life for the Range Service's failure detector.
      registrar_.touch(message.from, network_.simulator().now());
      mediator_.renew(message.from);
      return;
    case kForwardedQueryDirect: {
      auto wire = ForwardedQueryWire::decode(message.payload);
      if (!wire) return;
      auto parsed = query::Query::parse(wire->xml);
      if (!parsed) return;
      m_queries_adopted_.inc();
      // Its ack waits for the kQuery record to commit, as a submit's does:
      // an owner shard that acked and died uncommitted would lose it.
      accept_query(std::move(*parsed), wire->app, message.payload, true);
      return;
    }
    case kShardProfile:
      handle_shard_profile(message);
      return;
    case kShardProfileRemove:
      handle_shard_profile_remove(message);
      return;
    case kShardSubscribe:
      handle_shard_subscribe(message);
      return;
    case kShardUnsubscribe:
      handle_shard_unsubscribe(message);
      return;
    case kShardBatch:
      handle_shard_batch(message);
      return;
    case kShardMirrorPull:
      handle_shard_mirror_pull(message);
      return;
    case kShardMirrorSet:
      handle_shard_mirror_set(message);
      return;
    case kHandoffFreeze:
      handle_handoff_freeze(message);
      return;
    case kHandoffReady:
      handle_handoff_ready(message);
      return;
    case kHandoffCommit:
      handle_handoff_commit(message);
      return;
    case kHandoffAbort:
      handle_handoff_abort(message);
      return;
    case kHandoffReplay:
      handle_handoff_replay(message);
      return;
    case replicate::kReplRecord:
      if (follower_ != nullptr) follower_->on_record(message.payload);
      return;
    case replicate::kReplSnapshot:
      if (follower_ != nullptr) follower_->on_snapshot(message.payload);
      return;
    case replicate::kReplHeartbeat:
      if (follower_ != nullptr) follower_->on_heartbeat(message.payload);
      return;
    case replicate::kReplVoteRequest:
      if (follower_ != nullptr)
        follower_->on_vote_request(message.payload, message.from);
      return;
    case replicate::kReplVoteGrant:
      if (follower_ != nullptr)
        follower_->on_vote_grant(message.payload, message.from);
      return;
    case replicate::kReplApplied:
      if (repl_log_ != nullptr)
        repl_log_->on_applied(message.payload, message.from);
      return;
    case kRangeBeacon: {
      if (!discovering_) return;
      serde::Reader r(message.payload);
      auto peer_range = r.guid();
      if (!peer_range || *peer_range == config_.range) return;
      discovering_ = false;
      SCI_INFO(kTag, "%s: discovered range %s via beacon — joining",
               config_.name.c_str(), peer_range->short_string().c_str());
      if (scinet_ != nullptr) (void)scinet_->join(*peer_range);
      return;
    }
    default:
      SCI_DEBUG(kTag, "%s: unhandled component message 0x%x",
                config_.name.c_str(), message.type);
  }
}

void ContextServer::on_scinet_deliver(const overlay::RoutedMessage& message) {
  if (message.app_type != kAppForwardedQuery) {
    SCI_DEBUG(kTag, "%s: unknown scinet app type 0x%x", config_.name.c_str(),
              message.app_type);
    return;
  }
  auto wire = ForwardedQueryWire::decode(message.payload);
  if (!wire) return;
  auto parsed = query::Query::parse(wire->xml);
  if (!parsed) {
    SCI_WARN(kTag, "%s: forwarded query failed to parse: %s",
             config_.name.c_str(), parsed.error().message().c_str());
    return;
  }
  if (message.key != config_.range) {
    // The overlay delivered at the closest node because the exact target
    // range has gone — tell the application.
    reply_result(wire->app, parsed->id,
                 make_error(ErrorCode::kUnavailable,
                            "target range is no longer reachable"),
                 Value());
    return;
  }
  m_queries_adopted_.inc();
  // An overlay delivery carries no channel ack to hold.
  accept_query(std::move(*parsed), wire->app, message.payload, false);
}

// ---------------------------------------------------------------------------
// Fig 5 handshake

void ContextServer::handle_hello(const net::Message& message) {
  auto body = entity::HelloBody::decode(message.payload);
  if (!body) return;
  detect_arrival(message.from);
}

Status ContextServer::admit_registration(
    Guid component, const entity::RegisterRequestBody& body) {
  const SimTime now = network_.simulator().now();
  if (!registrar_.contains(component)) {
    SCI_TRY(registrar_.add(component, body.is_app, now));
    m_registrations_.inc();
  } else {
    registrar_.touch(component, now);
  }
  profiles_.put(body.profile, body.advertisement);
  // A new (or re-registered) entity may belong to cached dependency ranges:
  // views it would have joined as a candidate are stale now.
  invalidate_views_matching(body.profile);
  return Status::ok();
}

void ContextServer::handle_register(const net::Message& message) {
  auto body = entity::RegisterRequestBody::decode(message.payload);
  if (!body) return;
  const Guid component = message.from;

  const Status admitted = admit_registration(component, *body);
  if (!admitted.is_ok()) {
    entity::RegisterAckBody nack;
    nack.accepted = false;
    nack.reason = admitted.error().message();
    send_to(component, entity::kRegisterAck, nack.encode());
    return;
  }
  const std::uint64_t index =
      log_record(replicate::RecordKind::kRegister, component,
                 body->is_app ? 1 : 0, message.payload);

  entity::RegisterAckBody ack;
  ack.accepted = true;
  ack.range = config_.range;
  ack.context_server = config_.context_server;
  ack.event_mediator = config_.context_server;
  if (config_.reliability.lease_ttl.count_micros() > 0) {
    ack.lease_renew_micros =
        static_cast<std::uint64_t>(kLeaseRenewPeriod.count_micros());
  }
  // The RegisterAck (the client-visible admit) waits until enough standbys
  // applied the record.
  hold_admit_until_committed(index, [this, component, ack] {
    send_to(component, entity::kRegisterAck, ack.encode());
  });

  // Sibling shards resolve and select locally over mirrored profiles.
  broadcast_profile_mirror(component);

  // A new arrival may unblock parked queries or offer better sources.
  retry_pending_queries();
  if (!body->is_app) rebind_after_arrival();
}

// ---------------------------------------------------------------------------
// event pipeline

void ContextServer::handle_publish(const net::Message& message) {
  // Peek the event header without materializing it: registrar and dedup
  // rejections (and the replication log append below, which shares the
  // arriving frame's bytes verbatim) never need the decoded payload Value.
  const auto view = event::EventView::parse(message.payload);
  if (!view) return;
  if (!registrar_.contains(message.from)) {
    if (bounce_stale_frame(message)) return;
    SCI_DEBUG(kTag, "%s: publish from unregistered %s dropped",
              config_.name.c_str(), message.from.short_string().c_str());
    return;
  }
  registrar_.touch(message.from, network_.simulator().now());
  // Load accounting for the rebalance planner: per-shard EWMA window plus
  // per-vnode heat (only meaningful on a partitioned Range).
  ++publish_window_count_;
  if (sharded()) ++vnode_publishes_[map_.vnode_of(message.from)];
  // Cross-incarnation dedup (docs/REPLICATION.md): a publish the dead
  // primary acked was already replicated here, so the component's
  // retransmission to the promoted standby must not dispatch it twice.
  if (view->sequence() != 0 &&
      !publish_seen_[view->source()].accept(view->sequence())) {
    m_duplicate_publishes_.inc();
    return;
  }
  hold_admit_until_committed(log_record(replicate::RecordKind::kPublish,
                                        message.from, 0, message.payload),
                             {});
  auto body = entity::PublishBody::decode(message.payload);
  if (!body) return;
  ingest_publish(*body);
}

void ContextServer::ingest_publish(const entity::PublishBody& body) {
  m_events_in_.inc();
  const event::Event& event = body.event;

  // 0. Context gathering and storage (paper conclusion): every event is
  // recorded under its subject for later pull queries.
  context_store_.record(event);

  // 1. Fan out to subscribers.
  dispatch(event);
  remember_recent(event);

  // 2. Location Service keeps profiles current from location-bearing events.
  const auto new_location = locations_.observe(event, profiles_);

  // 2b. A moved entity shifts distances: views that consulted it (as a
  // candidate or a closest-anchor) are stale. Subject-keyed, so the update
  // cost scales with the views depending on this entity, not with the
  // candidate population.
  if (new_location) {
    if (const auto moved = event.payload.at("entity").as_guid()) {
      invalidate_views_for_subject(*moved);
    }
  }

  // 3. Deferred-query triggers ("when Bob enters L10.01").
  if (new_location) check_triggers(event, *new_location);
}

void ContextServer::dispatch(const event::Event& event) {
  // One-time configurations retire after their first delivery. The matches
  // live in the mediator's scratch vector, so harvest the owner tags before
  // anything here can dispatch again.
  const auto& matched = mediator_.dispatch_shared(event);
  retire_scratch_.clear();
  for (const event::MatchRef& match : matched) {
    if (match.one_time && match.owner_tag != 0) {
      retire_scratch_.push_back(match.owner_tag);
    }
  }
  for (const std::uint64_t owner_tag : retire_scratch_) {
    retire_configuration(owner_tag);
  }
}

void ContextServer::check_triggers(const event::Event& event,
                                   const location::LocRef& new_location) {
  const auto subject = event.payload.at("entity").as_guid();
  if (!subject) return;
  for (std::size_t i = 0; i < deferred_.size();) {
    DeferredQuery& deferred = deferred_[i];
    const auto& trigger = deferred.query.when.trigger;
    if (trigger && trigger->entity == *subject &&
        locations_.within(new_location, trigger->place)) {
      SCI_INFO(kTag, "%s: trigger fired for query %s", config_.name.c_str(),
               deferred.query.id.c_str());
      query::Query ready = std::move(deferred.query);
      const Guid app = deferred.app;
      network_.simulator().cancel(deferred.expiry);
      deferred_.erase(deferred_.begin() +
                      static_cast<std::ptrdiff_t>(i));
      ready.when = query::WhenClause{};  // constraints satisfied
      execute_query(ready, app);
      continue;  // index i now holds the next element
    }
    ++i;
  }
}

// ---------------------------------------------------------------------------
// query pipeline

void ContextServer::handle_query_submit(const net::Message& message) {
  auto body = entity::QuerySubmitBody::decode(message.payload);
  if (!body) return;
  m_queries_received_.inc();
  trace_->record(network_.simulator().now(), obs::TraceKind::kQuerySubmit,
                 message.from, config_.range);
  registrar_.touch(message.from, network_.simulator().now());
  auto parsed = query::Query::parse(body->xml);
  if (!parsed) {
    reply_result(message.from, body->query_id, parsed.error(), Value());
    return;
  }
  // The kQuery record (and a parked query) carries the forwarded-query wire.
  serde::BufferRef wire;
  if (repl_log_ != nullptr || pstore_ != nullptr || rebuilding()) {
    wire = ForwardedQueryWire{message.from, body->xml}.encode();
  }
  accept_query(std::move(*parsed), message.from, std::move(wire), true);
}

void ContextServer::accept_query(query::Query q, Guid app,
                                 serde::BufferRef wire,
                                 bool hold_until_committed) {
  if (rebuilding()) {
    park_query(std::move(q), app, std::move(wire), hold_until_committed);
    return;
  }
  const std::uint64_t index = log_query(app, std::move(wire));
  if (hold_until_committed) hold_admit_until_committed(index, {});
  admit_query(std::move(q), app);
}

void ContextServer::admit_query(query::Query q, Guid app) {
  // Forwarding: a query about somewhere this range does not govern goes to
  // the responsible range's Context Server over the SCINET (paper §5).
  Guid target_range;
  if (q.where.range && *q.where.range != config_.range) {
    target_range = *q.where.range;
  } else if (q.where.explicit_path && directory_ != nullptr) {
    // Longest-prefix lookup: range roots may nest, so a more specific range
    // can govern a place inside this range's own root.
    if (const auto entry = directory_->range_for_path(*q.where.explicit_path);
        entry && entry->range != config_.range) {
      target_range = entry->range;
    } else if (!entry &&
               !config_.logical_root.contains_or_equals(
                   *q.where.explicit_path)) {
      reply_result(app, q.id,
                   make_error(ErrorCode::kNotFound,
                              "no range governs " +
                                  q.where.explicit_path->to_string()),
                   Value());
      return;
    }
  }
  if (!target_range.is_nil()) {
    // Group access control: queries never cross range groups.
    if (directory_ != nullptr) {
      const auto target_entry = directory_->find(target_range);
      if (target_entry && target_entry->group != config_.group) {
        reply_result(app, q.id,
                     make_error(ErrorCode::kPermissionDenied,
                                "target range is in access group " +
                                    std::to_string(target_entry->group)),
                     Value());
        return;
      }
    }
    m_queries_forwarded_.inc();
    trace_->record(network_.simulator().now(), obs::TraceKind::kQueryForward,
                   config_.range, target_range);
    // Standby replay: the primary performed the actual forward; a replica
    // only mirrors the accounting. Sibling shards (primaries without an
    // overlay node) forward point-to-point through the directory instead.
    if (scinet_ == nullptr) {
      if (!passive() && directory_ != nullptr) {
        if (const auto entry = directory_->find(target_range); entry) {
          const ForwardedQueryWire direct{app, q.to_xml()};
          send_component(entry->context_server, kForwardedQueryDirect,
                         direct.encode());
          return;
        }
      }
      if (!passive()) {
        reply_result(app, q.id,
                     make_error(ErrorCode::kUnavailable,
                                "target range unreachable without an overlay"),
                     Value());
      }
      return;
    }
    ForwardedQueryWire wire{app, q.to_xml()};
    // Hybrid communication model (§4): prefer the overlay, but when this
    // range's routing state no longer covers the target (partition healed,
    // membership lost), fall back to point-to-point via the directory.
    if (!scinet_->knows(target_range) && directory_ != nullptr) {
      if (const auto entry = directory_->find(target_range); entry) {
        send_component(entry->context_server, kForwardedQueryDirect,
                       wire.encode());
        return;
      }
    }
    if (config_.reliability.acked_delivery) {
      // End-to-end receipt: the forward is re-originated until the target
      // range confirms delivery; on give-up the application hears about it
      // instead of waiting forever.
      const std::string query_id = q.id;
      const Guid app_copy = app;
      auto ticket = scinet_->route_acked(
          target_range, kAppForwardedQuery, wire.encode(),
          [this, query_id, app_copy](const overlay::RouteTicket&,
                                     bool delivered, std::uint32_t) {
            if (!delivered) {
              reply_result(app_copy, query_id,
                           make_error(ErrorCode::kUnavailable,
                                      "inter-range forward undeliverable"),
                           Value());
            }
          });
      if (!ticket) {
        reply_result(app, q.id,
                     make_error(ErrorCode::kUnavailable,
                                "SCINET forwarding failed: " +
                                    ticket.error().message()),
                     Value());
      }
      return;
    }
    const Status routed =
        scinet_->route(target_range, kAppForwardedQuery, wire.encode());
    if (!routed.is_ok()) {
      reply_result(app, q.id,
                   make_error(ErrorCode::kUnavailable,
                              "SCINET forwarding failed: " +
                                  routed.error().message()),
                   Value());
    }
    return;
  }

  // Sharded trigger watches live where the trigger entity's events land:
  // only its owner shard sees the location stream that can fire them.
  if (q.when.trigger && sharded() && !owns_entity(q.when.trigger->entity)) {
    forward_to_shard(q, app, shard_of(q.when.trigger->entity));
    return;
  }

  // Temporal constraints: park the query until they are satisfied. A
  // standby or a WAL replay arms no timer: it waits for the primary's
  // record of what the timer did.
  if (!q.when.is_immediate()) {
    m_queries_deferred_.inc();
    auto& list = q.when.trigger ? deferred_ : not_before_;
    list.push_back(
        DeferredQuery{std::move(q), app, network_.simulator().now(), {}});
    if (!passive()) arm_parked(list.back());
    return;
  }
  execute_query(q, app);
}

void ContextServer::arm_parked(DeferredQuery& parked) {
  const query::WhenClause& when = parked.query.when;
  const bool trigger = when.trigger.has_value();
  SimTime due = SimTime::from_micros(
      static_cast<std::int64_t>(when.not_before_seconds.value_or(0.0) * 1e6));
  if (trigger) {
    if (when.expires_after_seconds <= 0.0) return;
    due = parked.stored_at +
          Duration::from_seconds_f(when.expires_after_seconds);
  }
  // The closure may outlive a fenced/destroyed server (the simulator owns
  // it): the alive flag makes it a no-op in that case, and the handle lets
  // cancel_query/fence/departure retire it eagerly.
  parked.expiry = network_.simulator().schedule_at(
      std::max(network_.simulator().now(), due),
      [this, alive = alive_, trigger, query_id = parked.query.id,
       app = parked.app] {
        if (!*alive) return;
        const auto& list = trigger ? deferred_ : not_before_;
        const auto it = std::find_if(
            list.begin(), list.end(), [&](const DeferredQuery& d) {
              return d.app == app && d.query.id == query_id;
            });
        if (it == list.end()) return;
        query::Query fired = it->query;
        (void)withdraw_parked_query(app, query_id);
        if (trigger) {
          reply_result(app, query_id,
                       make_error(ErrorCode::kTimeout,
                                  "deferred query expired unanswered"),
                       Value());
          return;
        }
        // Released through the intake step as a fresh kQuery without the
        // constraint, which a standby admits exactly as this server does.
        fired.when = query::WhenClause{};
        serde::BufferRef wire =
            ForwardedQueryWire{app, fired.to_xml()}.encode();
        accept_query(std::move(fired), app, std::move(wire), false);
      });
}

void ContextServer::execute_query(const query::Query& q, Guid app) {
  switch (q.mode) {
    case query::QueryMode::kProfileRequest:
      execute_profile_request(q, app);
      return;
    case query::QueryMode::kAdvertisementRequest:
      execute_advertisement_request(q, app);
      return;
    case query::QueryMode::kEventSubscription:
      execute_subscription(q, app, /*one_time=*/false);
      return;
    case query::QueryMode::kOneTimeSubscription:
      execute_subscription(q, app, /*one_time=*/true);
      return;
  }
  SCI_UNREACHABLE();
}

void ContextServer::execute_profile_request(const query::Query& q, Guid app) {
  // A pattern-what about a subject is a Context Store pull: "what does the
  // infrastructure currently know (and remember) about this entity".
  if (q.what.kind == query::WhatKind::kPattern && q.what.subject) {
    execute_context_pull(q, app);
    return;
  }
  const auto started = std::chrono::steady_clock::now();
  bool view_hit = false;
  const auto chosen = select_entities(q, /*keep_all=*/true, view_hit);
  if (!chosen) {
    finish_query(app, q.id, chosen.error(), Value(), elapsed_micros(started));
    return;
  }
  // Render from *current* profiles — views cache the selection, never the
  // rendered payload, so a hit can never serve stale attribute values.
  ValueList profiles;
  for (const Guid id : *chosen) {
    if (const entity::Profile* p = profiles_.profile(id); p != nullptr) {
      profiles.push_back(profile_to_value(*p));
    }
  }
  finish_query(app, q.id, Error(), Value(std::move(profiles)),
               elapsed_micros(started), view_hit);
}

void ContextServer::execute_context_pull(const query::Query& q, Guid app) {
  const Guid subject = *q.what.subject;
  // The context store splits by owning shard: the subject's history lives
  // where its publishes land. One forwarding hop, answered from there.
  if (sharded() && !owns_entity(subject)) {
    forward_to_shard(q, app, shard_of(subject));
    return;
  }
  ValueMap result;
  result.emplace("subject", subject);
  if (!q.what.type.empty()) {
    const auto events = context_store_.history(
        subject, q.what.type, std::max<unsigned>(q.what.history, 1));
    if (events.empty()) {
      reply_result(app, q.id,
                   make_error(ErrorCode::kNotFound,
                              "no stored " + q.what.type + " context for " +
                                  subject.short_string()),
                   Value());
      return;
    }
    result.emplace("type", q.what.type);
    result.emplace("current", ContextStore::event_to_value(events.front()));
    ValueList history;
    for (const event::Event& e : events) {
      history.push_back(ContextStore::event_to_value(e));
    }
    result.emplace("history", Value(std::move(history)));
  } else {
    Value snapshot = context_store_.snapshot(subject);
    if (snapshot.get_map().empty()) {
      reply_result(app, q.id,
                   make_error(ErrorCode::kNotFound,
                              "no stored context for " +
                                  subject.short_string()),
                   Value());
      return;
    }
    result.emplace("current", std::move(snapshot));
  }
  reply_result(app, q.id, Error(), Value(std::move(result)));
}

void ContextServer::execute_advertisement_request(const query::Query& q,
                                                  Guid app) {
  const auto started = std::chrono::steady_clock::now();
  bool view_hit = false;
  const auto chosen = select_entities(q, /*keep_all=*/false, view_hit);
  if (!chosen) {
    finish_query(app, q.id, chosen.error(), Value(), elapsed_micros(started));
    return;
  }
  const Guid winner = chosen->front();
  const entity::Advertisement* ad = profiles_.advertisement(winner);
  if (ad == nullptr) {
    finish_query(app, q.id,
                 make_error(ErrorCode::kNotFound,
                            "selected entity has no advertisement"),
                 Value(), elapsed_micros(started), view_hit);
    return;
  }
  // Attributes, name and location render from live profile state: the view
  // pins only *which* entity answers.
  ValueMap result;
  result.emplace("entity", winner);
  result.emplace("service", ad->service);
  ValueList methods;
  for (const entity::MethodDesc& m : ad->methods) methods.emplace_back(m.name);
  result.emplace("methods", Value(std::move(methods)));
  result.emplace("attributes", ad->attributes);
  if (const entity::Profile* p = profiles_.profile(winner); p != nullptr) {
    result.emplace("name", p->name);
    result.emplace("location", p->location.to_value());
  }
  finish_query(app, q.id, Error(), Value(std::move(result)),
               elapsed_micros(started), view_hit);
}

void ContextServer::execute_subscription(const query::Query& q, Guid app,
                                         bool one_time) {
  const auto started = std::chrono::steady_clock::now();
  bool view_hit = false;
  // Named-entity and entity-type subscriptions bind directly to the chosen
  // entity's output events; pattern subscriptions go through composition.
  if (q.what.kind != query::WhatKind::kPattern) {
    const auto chosen = select_entities(q, /*keep_all=*/false, view_hit);
    if (!chosen) {
      finish_query(app, q.id, chosen.error(), Value(),
                   elapsed_micros(started));
      return;
    }
    const Guid winner = chosen->front();
    const entity::Profile* profile = profiles_.profile(winner);
    SCI_ASSERT(profile != nullptr);
    if (profile->outputs.empty()) {
      finish_query(app, q.id,
                   make_error(ErrorCode::kUnresolvable,
                              profile->name + " produces no events"),
                   Value(), elapsed_micros(started), view_hit);
      return;
    }
    // A view hit still mints a fresh tag and wires live subscriptions: the
    // view pins the selection, not the delivery plumbing.
    const std::uint64_t tag = next_tag_++;
    for (const entity::TypeSig& sig : profile->outputs) {
      const event::SubscriptionId sub =
          mediator_.subscribe(app, winner, sig.name, {}, one_time, tag);
      mirror_subscription_if_remote(sub);
    }
    ValueMap result;
    result.emplace("entity", winner);
    result.emplace("config", static_cast<std::int64_t>(tag));
    finish_query(app, q.id, Error(), Value(std::move(result)),
                 elapsed_micros(started), view_hit, tag);
    return;
  }

  auto tag = build_configuration(q, app, one_time, view_hit);
  if (!tag) {
    if (tag.error().code() == ErrorCode::kUnresolvable) {
      // Park: a source may arrive later (robustness under churn).
      pending_.push_back(
          DeferredQuery{q, app, network_.simulator().now(), {}});
      SCI_DEBUG(kTag, "%s: query %s parked (unresolvable now)",
                config_.name.c_str(), q.id.c_str());
      return;
    }
    finish_query(app, q.id, tag.error(), Value(), elapsed_micros(started),
                 view_hit);
    return;
  }
  // Bounded subscriptions retire at their due time and tell the application
  // its stream has ended.
  arm_bounded_expiry(*tag, tracked_.at(*tag));

  const compose::ActiveConfiguration* active = store_.find(*tag);
  SCI_ASSERT(active != nullptr);
  ValueMap result;
  result.emplace("config", static_cast<std::int64_t>(*tag));
  result.emplace("sink", active->plan.sink);
  result.emplace("type", active->plan.sink_type);
  result.emplace("entities",
                 static_cast<std::int64_t>(active->plan.entities.size()));
  finish_query(app, q.id, Error(), Value(std::move(result)),
               elapsed_micros(started), view_hit, *tag);
}

void ContextServer::arm_bounded_expiry(std::uint64_t tag,
                                       TrackedQuery& tracked) {
  if (passive() || tracked.expires_at.is_infinite()) return;
  tracked.expiry = network_.simulator().schedule_at(
      std::max(network_.simulator().now(), tracked.expires_at),
      [this, alive = alive_, tag, app = tracked.app,
       query_id = tracked.query.id] {
        if (!*alive || store_.find(tag) == nullptr) return;
        retire_configuration(tag);
        reply_result(app, query_id,
                     make_error(ErrorCode::kTimeout, "subscription expired"),
                     Value());
      });
}

void ContextServer::finish_query(Guid app, const std::string& query_id,
                                 const Error& error, Value result,
                                 double resolve_micros, bool view_hit,
                                 std::uint64_t tag) {
  // Outcomes are FIFO-bounded: introspection covers recent queries, not all
  // history.
  constexpr std::size_t kMaxOutcomes = 512;
  const auto key = std::make_pair(app, query_id);
  const QueryOutcome outcome{view_hit, error.ok(), tag, resolve_micros,
                             network_.simulator().now()};
  if (query_outcomes_.insert_or_assign(key, outcome).second) {
    outcome_order_.push_back(key);
    while (outcome_order_.size() > kMaxOutcomes) {
      query_outcomes_.erase(outcome_order_.front());
      outcome_order_.pop_front();
    }
  }
  reply_result(app, query_id, error, std::move(result));
}

// ---------------------------------------------------------------------------
// selection

std::vector<Guid> ContextServer::composable_entities() const {
  if (!sharded()) return registrar_.entities();
  // Sharded: every non-app profile known here, local or mirrored in from a
  // sibling shard. Sorted so selection ties break identically on every
  // shard (and on a shard's standby replaying the same queries).
  std::vector<Guid> ids;
  for (const entity::Profile& p : profiles_.snapshot()) {
    const MemberRecord* record = registrar_.find(p.entity);
    if (record != nullptr && record->is_app) continue;
    ids.push_back(p.entity);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<entity::Profile> ContextServer::composable_profiles() const {
  if (!sharded()) return profiles_.snapshot_of(registrar_.entities());
  return profiles_.snapshot_of(composable_entities());
}

Expected<std::span<const Guid>> ContextServer::select_entities(
    const query::Query& q, bool keep_all, bool& view_hit) {
  const std::string key = view_key(q);
  if (!key.empty()) {
    if (const compose::ViewEntry* view = views_->lookup(key);
        view != nullptr && !view->selection.empty()) {
      view_hit = true;
      m_view_hits_.inc();
      return std::span<const Guid>(view->selection);
    }
    m_view_misses_.inc();
  }
  std::vector<Guid> candidates = find_candidates(q);
  if (keep_all && candidates.empty()) {
    return make_error(ErrorCode::kNotFound, "no matching entities");
  }
  // Everything consulted during selection is a view dependency.
  const std::vector<Guid> consulted = candidates;
  const bool selective = q.which.policy != query::SelectPolicy::kAny ||
                         !q.which.require.empty() || q.which.check_access;
  if (keep_all && !selective) {
    selection_ = std::move(candidates);
  } else {
    SCI_TRY_ASSIGN(winner, select_candidate(q, std::move(candidates)));
    selection_.assign(1, winner);
  }
  if (!key.empty()) {
    compose::ViewEntry entry;
    entry.key = key;
    entry.selection = selection_;
    entry.deps = view_deps_for(q, consulted);
    entry.built_at = network_.simulator().now();
    install_view(std::move(entry));
  }
  return std::span<const Guid>(selection_);
}

std::vector<Guid> ContextServer::find_candidates(const query::Query& q) const {
  std::vector<Guid> out;
  switch (q.what.kind) {
    case query::WhatKind::kNamedEntity:
      // Mirrored profiles stand in for membership on sibling shards.
      if (registrar_.contains(q.what.named) ||
          (sharded() && profiles_.profile(q.what.named) != nullptr)) {
        out.push_back(q.what.named);
      }
      return out;
    case query::WhatKind::kEntityType: {
      for (const Guid id : composable_entities()) {
        const entity::Profile* p = profiles_.profile(id);
        if (p == nullptr) continue;
        const entity::Advertisement* ad = profiles_.advertisement(id);
        const bool service_match =
            (ad != nullptr && ad->service == q.what.entity_type) ||
            p->metadata.at("service").string_or("") == q.what.entity_type;
        const bool kind_match =
            entity::to_string(p->kind) == q.what.entity_type;
        if (service_match || kind_match) out.push_back(id);
      }
      return out;
    }
    case query::WhatKind::kPattern: {
      const compose::RequestedType requested{q.what.type, q.what.unit,
                                             q.what.semantic};
      for (const Guid id : composable_entities()) {
        const entity::Profile* p = profiles_.profile(id);
        if (p == nullptr) continue;
        for (const entity::TypeSig& sig : p->outputs) {
          if (semantics_->matches(requested, sig)) {
            out.push_back(id);
            break;
          }
        }
      }
      return out;
    }
  }
  return out;
}

bool ContextServer::meets_requirements(const query::Query& q,
                                       const entity::Profile& p) const {
  for (const query::Requirement& requirement : q.which.require) {
    if (!(p.metadata.at(requirement.key) == requirement.equals)) return false;
  }
  // Quality-of-context contracts (§6 item 2).
  if (q.which.fresh_within_seconds > 0.0) {
    const MemberRecord* record = registrar_.find(p.entity);
    if (record == nullptr) return false;
    const double age =
        (network_.simulator().now() - record->last_seen).seconds_f();
    if (age > q.which.fresh_within_seconds) return false;
  }
  if (q.which.min_confidence > 0.0) {
    // Entities may advertise a static confidence; absent means full.
    if (p.metadata.at("confidence").number_or(1.0) < q.which.min_confidence)
      return false;
  }
  if (q.which.check_access &&
      p.metadata.at("locked").as_bool().value_or(false)) {
    const Value& keyholders = p.metadata.at("keyholders");
    bool is_keyholder = false;
    if (keyholders.kind() == Value::Kind::kList) {
      for (const Value& holder : keyholders.get_list()) {
        if (holder == Value(q.owner)) {
          is_keyholder = true;
          break;
        }
      }
    }
    if (!is_keyholder) return false;
  }
  return true;
}

Expected<Guid> ContextServer::select_candidate(const query::Query& q,
                                               std::vector<Guid> candidates) {
  std::vector<Guid> acceptable;
  for (const Guid id : candidates) {
    const entity::Profile* p = profiles_.profile(id);
    if (p != nullptr && meets_requirements(q, *p)) acceptable.push_back(id);
  }
  if (acceptable.empty())
    return make_error(ErrorCode::kNotFound,
                      "no candidate satisfies the which-clause");
  std::sort(acceptable.begin(), acceptable.end());

  switch (q.which.policy) {
    case query::SelectPolicy::kAny:
      return acceptable.front();
    case query::SelectPolicy::kClosest: {
      // Anchor: explicit place > named relative entity > the query owner.
      std::optional<location::LocRef> anchor;
      if (q.where.explicit_path) {
        anchor = location::LocRef::from_logical(*q.where.explicit_path);
      } else if (q.where.relative_to) {
        anchor = locations_.locate_entity(*q.where.relative_to, profiles_);
      } else {
        anchor = locations_.locate_entity(q.owner, profiles_);
      }
      if (!anchor)
        return make_error(ErrorCode::kUnresolvable,
                          "closest-selection has no location anchor");
      Guid best;
      double best_distance = std::numeric_limits<double>::infinity();
      for (const Guid id : acceptable) {
        const entity::Profile* p = profiles_.profile(id);
        if (p == nullptr || p->location.is_empty()) continue;
        const auto d = locations_.distance(p->location, *anchor);
        if (!d) continue;
        if (*d < best_distance) {
          best = id;
          best_distance = *d;
        }
      }
      if (best.is_nil())
        return make_error(ErrorCode::kUnresolvable,
                          "no candidate has a comparable location");
      return best;
    }
    case query::SelectPolicy::kMinAttr:
    case query::SelectPolicy::kMaxAttr: {
      const bool minimise = q.which.policy == query::SelectPolicy::kMinAttr;
      Guid best;
      double best_score = minimise ? std::numeric_limits<double>::infinity()
                                   : -std::numeric_limits<double>::infinity();
      for (const Guid id : acceptable) {
        const entity::Profile* p = profiles_.profile(id);
        if (p == nullptr) continue;
        const Value& attr = p->metadata.at(q.which.attr_key);
        if (attr.is_null()) continue;
        const double score = attr.number_or(0.0);
        if ((minimise && score < best_score) ||
            (!minimise && score > best_score)) {
          best = id;
          best_score = score;
        }
      }
      if (best.is_nil())
        return make_error(ErrorCode::kUnresolvable,
                          "no candidate carries attribute '" +
                              q.which.attr_key + "'");
      return best;
    }
  }
  SCI_UNREACHABLE();
}

// ---------------------------------------------------------------------------
// composition

event::EventFilter ContextServer::app_edge_filter(
    const compose::ConfigurationPlan& plan,
    const compose::ResolveRequest& request, const query::WhichClause& which,
    std::uint64_t tag) const {
  event::EventFilter filter;
  if (plan.params.contains(plan.sink)) {
    filter.fields.push_back(event::FieldConstraint{
        "config", event::FilterOp::kEquals, static_cast<std::int64_t>(tag)});
  } else if (request.subject) {
    filter.fields.push_back(event::FieldConstraint{
        "entity", event::FilterOp::kEquals, Value(*request.subject)});
  }
  // QoC: suppress deliveries whose payload confidence falls below contract.
  if (which.min_confidence > 0.0) {
    filter.fields.push_back(event::FieldConstraint{
        "confidence", event::FilterOp::kGreaterOrEqual,
        Value(which.min_confidence)});
  }
  return filter;
}

compose::ResolveRequest ContextServer::resolve_request_for(
    const query::Query& q, std::uint64_t tag) const {
  compose::ResolveRequest request;
  request.requested =
      compose::RequestedType{q.what.type, q.what.unit, q.what.semantic};
  request.tag = tag;
  request.subject = q.what.subject;
  // Contract for route-semantic sinks (the Fig 3 path configuration): the
  // sink is configured with {from, to} — `from` defaults to the query owner
  // (or the where-clause's relative anchor), `to` is the what-subject.
  const bool is_route = q.what.semantic == entity::types::kSemRoute ||
                        q.what.type == entity::types::kPathUpdate;
  if (is_route && q.what.subject) {
    const Guid from = q.where.relative_to.value_or(q.owner);
    ValueMap params;
    params.emplace("from", from);
    params.emplace("to", *q.what.subject);
    if (const auto loc = locations_.locate_entity(from, profiles_);
        loc && loc->place != location::kNoPlace) {
      params.emplace("from_place", static_cast<std::int64_t>(loc->place));
    }
    if (const auto loc = locations_.locate_entity(*q.what.subject, profiles_);
        loc && loc->place != location::kNoPlace) {
      params.emplace("to_place", static_cast<std::int64_t>(loc->place));
    }
    request.sink_params = Value(std::move(params));
    request.subject.reset();  // params supersede the subject filter
  }
  return request;
}

Expected<std::uint64_t> ContextServer::build_configuration(
    const query::Query& q, Guid app, bool one_time, bool& view_hit) {
  const std::uint64_t tag = next_tag_++;
  const compose::ResolveRequest request = resolve_request_for(q, tag);
  const std::string key = view_key(q);
  compose::ConfigurationPlan plan;
  if (!key.empty()) {
    if (const compose::ViewEntry* view = views_->lookup(key);
        view != nullptr && view->plan.has_value()) {
      // Reuse the materialized composition graph under a fresh tag: the
      // wiring below (admit, configure, subscriptions) still runs live.
      plan = *view->plan;
      plan.tag = tag;
      view_hit = true;
      m_view_hits_.inc();
    } else {
      m_view_misses_.inc();
    }
  }
  if (!view_hit) {
    // Compose over non-application profiles only (including, on a shard,
    // the profiles mirrored in from sibling shards).
    SCI_TRY_ASSIGN(resolved,
                   resolver_.resolve(request, composable_profiles()));
    plan = std::move(resolved);
    if (!key.empty()) {
      compose::ViewEntry entry;
      entry.key = key;
      entry.plan = plan;  // cached tag is re-stamped on every reuse
      // The plan depends on every entity in its graph, on the requested
      // type, and on the input signatures its entities consume — a new
      // producer of any of those could re-shape the composition.
      entry.deps.subjects = plan.entities;
      entry.deps.types.push_back(request.requested);
      for (const Guid id : plan.entities) {
        if (const entity::Profile* p = profiles_.profile(id); p != nullptr) {
          for (const entity::TypeSig& input : p->inputs) {
            entry.deps.types.push_back(
                compose::RequestedType::from_sig(input));
          }
        }
      }
      entry.built_at = network_.simulator().now();
      install_view(std::move(entry));
    }
  }

  // A bounded subscription's due time is replicated state.
  const SimTime due =
      q.when.expires_after_seconds > 0.0
          ? network_.simulator().now() +
                Duration::from_seconds_f(q.when.expires_after_seconds)
          : SimTime::infinity();
  const TrackedQuery& tracked = tracked_[tag] =
      TrackedQuery{q, app, one_time, due, {}};
  rewire(tag, plan, tracked);
  bind_app_edge(tag, plan, request, tracked);
  m_configurations_.inc();
  return tag;
}

void ContextServer::rewire(std::uint64_t tag,
                           const compose::ConfigurationPlan& plan,
                           const TrackedQuery& tracked) {
  compose::ActiveConfiguration active;
  active.plan = plan;
  active.app = tracked.app;
  active.query_id = tracked.query.id;
  active.one_time = tracked.one_time;
  compose::ConfigurationStore::ReplaceDiff diff;
  if (store_.find(tag) == nullptr) {
    diff.establish = store_.admit(std::move(active));
  } else {
    diff = store_.replace(tag, std::move(active));
  }
  configure_entities(plan);
  establish_edges(diff.establish, tag);
  tear_down_edges(diff.tear_down);
}

void ContextServer::bind_app_edge(std::uint64_t tag,
                                  const compose::ConfigurationPlan& plan,
                                  const compose::ResolveRequest& request,
                                  const TrackedQuery& tracked) {
  if (const auto it = app_edges_.find(tag); it != app_edges_.end()) {
    drop_mirror(it->second);
    (void)mediator_.unsubscribe(it->second);
  }
  const event::SubscriptionId id = mediator_.subscribe(
      tracked.app, plan.sink, plan.sink_type,
      app_edge_filter(plan, request, tracked.query.which, tag),
      tracked.one_time, tag);
  app_edges_[tag] = id;
  mirror_subscription_if_remote(id);
}

void ContextServer::establish_edges(
    const std::vector<compose::PlanEdge>& edges, std::uint64_t tag) {
  for (const compose::PlanEdge& edge : edges) {
    const event::SubscriptionId id = mediator_.subscribe(
        edge.consumer, edge.producer, edge.event_type, edge.filter,
        /*one_time=*/false, tag);
    edge_subscriptions_[edge.share_key()] = id;
    mirror_subscription_if_remote(id);
  }
}

void ContextServer::tear_down_edges(
    const std::vector<compose::PlanEdge>& edges) {
  for (const compose::PlanEdge& edge : edges) {
    const auto it = edge_subscriptions_.find(edge.share_key());
    if (it == edge_subscriptions_.end()) continue;
    drop_mirror(it->second);
    (void)mediator_.unsubscribe(it->second);
    edge_subscriptions_.erase(it);
  }
}

void ContextServer::configure_entities(const compose::ConfigurationPlan& plan) {
  for (const auto& [entity_id, params] : plan.params) {
    entity::ConfigureBody body{plan.tag, params};
    send_component(entity_id, entity::kConfigure, body.encode());
  }
}

bool ContextServer::retire_configuration(std::uint64_t tag) {
  const compose::ActiveConfiguration* active = store_.find(tag);
  if (active == nullptr) {
    // Direct (non-pattern) subscriptions own a tag but no stored plan:
    // retiring one means dropping its mediator entries, here and those moved
    // to a sibling. Logged so a standby's table unwinds identically;
    // double-retire is a no-op.
    std::set<event::SubscriptionId> direct;
    for (const event::Subscription& s : mediator_.table().all()) {
      if (s.owner_tag == tag && minted_here(s.id)) direct.insert(s.id);
    }
    for (const auto& [id, s] : mirrored_subs_) {
      if (s.owner_tag == tag && minted_here(id)) direct.insert(id);
    }
    if (direct.empty()) return false;
    log_record(replicate::RecordKind::kConfigRetire, Guid(), tag, {});
    for (const event::SubscriptionId id : direct) {
      drop_mirror(id);
      (void)mediator_.unsubscribe(id);
    }
    return true;
  }
  log_record(replicate::RecordKind::kConfigRetire, active->app, tag, {});
  // Unconfigure parameterised entities first.
  for (const auto& [entity_id, params] : active->plan.params) {
    entity::ConfigureBody body{tag, Value()};
    send_component(entity_id, entity::kUnconfigure, body.encode());
  }
  tear_down_edges(store_.retire(tag));
  if (const auto it = app_edges_.find(tag); it != app_edges_.end()) {
    drop_mirror(it->second);
    (void)mediator_.unsubscribe(it->second);
    app_edges_.erase(it);
  }
  if (const auto it = tracked_.find(tag); it != tracked_.end()) {
    network_.simulator().cancel(it->second.expiry);
    tracked_.erase(it);
  }
  return true;
}

// ---------------------------------------------------------------------------
// adaptation

void ContextServer::departure(Guid component, bool failure) {
  const MemberRecord* record = registrar_.find(component);
  if (record == nullptr) return;
  log_record(replicate::RecordKind::kDeparture, component, failure ? 1 : 0,
             {});
  const bool is_app = record->is_app;
  // Sibling shards drop the mirrored profile and every row this component
  // holds in their tables before local state unwinds.
  broadcast_profile_remove(component);
  (void)registrar_.remove(component);
  drop_subscriber(component, /*lapsed=*/false);
  // Stop retransmitting toward the departed component; anything in flight
  // is handed to the give-up handler for accounting.
  channel_.fail_all(component);
  m_departures_.inc();
  if (failure) m_failures_.inc();
  trace_->record(network_.simulator().now(), obs::TraceKind::kDeparture,
                 component, config_.range, failure ? 1 : 0);

  if (is_app) {
    // Tear down every configuration this application owns.
    std::vector<std::uint64_t> owned;
    for (const auto& [tag, tracked] : tracked_) {
      if (tracked.app == component) owned.push_back(tag);
    }
    for (const std::uint64_t tag : owned) retire_configuration(tag);
    // Its parked queries die with it, timers included: a not-before query
    // must not fire and wire subscriptions for a gone app.
    (void)erase_parked(
        [&](const DeferredQuery& d) { return d.app == component; });
  } else {
    mediator_.remove_producer(component);
    recompose_after_loss(component);
  }
  // Views that consulted the departed entity must re-select; match against
  // the profile before it is dropped.
  if (const entity::Profile* old = profiles_.profile(component);
      old != nullptr) {
    invalidate_views_matching(*old);
  }
  (void)profiles_.remove(component);
}

void ContextServer::recompose_after_loss(Guid lost_entity) {
  const auto affected = store_.tags_involving(lost_entity);
  for (const std::uint64_t tag : affected) {
    const auto tracked_it = tracked_.find(tag);
    if (tracked_it == tracked_.end()) continue;
    const TrackedQuery tracked = tracked_it->second;

    const compose::ResolveRequest request =
        resolve_request_for(tracked.query, tag);
    // The departed entity's profile is gone already, so the resolver only
    // sees survivors.
    auto plan = resolver_.resolve(request, composable_profiles());
    if (!plan) {
      m_recomposition_failures_.inc();
      retire_configuration(tag);
      reply_result(tracked.app, tracked.query.id,
                   make_error(ErrorCode::kUnavailable,
                              "configuration lost and not recomposable"),
                   Value());
      // Park for retry when new sources arrive.
      pending_.push_back(DeferredQuery{tracked.query, tracked.app,
                                       network_.simulator().now(), {}});
      continue;
    }
    m_recompositions_.inc();
    trace_->record(network_.simulator().now(), obs::TraceKind::kRecompose,
                   config_.range, lost_entity,
                   static_cast<std::uint64_t>(obs::RecomposeCause::kLoss));
    const Guid old_sink = store_.find(tag)->plan.sink;
    rewire(tag, *plan, tracked);
    // The application edge follows a moved sink.
    if (plan->sink != old_sink) bind_app_edge(tag, *plan, request, tracked);
  }
}

void ContextServer::retry_pending_queries() {
  if (pending_.empty()) return;
  std::vector<DeferredQuery> retry;
  retry.swap(pending_);
  for (DeferredQuery& parked : retry) {
    execute_query(parked.query, parked.app);
  }
}

void ContextServer::rebind_after_arrival() {
  // Re-resolve active configurations so newly arrived (possibly better or
  // redundant) sources are wired in — iQueue's "continual rebinding",
  // generalised to the whole graph.
  for (const std::uint64_t tag : store_.all_tags()) {
    const auto tracked_it = tracked_.find(tag);
    if (tracked_it == tracked_.end()) continue;
    const TrackedQuery tracked = tracked_it->second;
    const compose::ResolveRequest request =
        resolve_request_for(tracked.query, tag);
    auto plan = resolver_.resolve(request, composable_profiles());
    if (!plan) continue;  // keep the old wiring
    const Guid old_sink = store_.find(tag)->plan.sink;
    if (plan->sink != old_sink) continue;  // sink swap only on failure
    trace_->record(network_.simulator().now(), obs::TraceKind::kRecompose,
                   config_.range, Guid(),
                   static_cast<std::uint64_t>(obs::RecomposeCause::kArrival));
    rewire(tag, *plan, tracked);
  }
}

void ContextServer::ping_tick() {
  // The Range Service's liveness sweep: miss counters increment every tick
  // and reset on any sign of life (pong, publish, profile update).
  const auto members = registrar_.members();
  for (const Guid member : members) {
    const unsigned missed = registrar_.record_missed_ping(member);
    if (missed > config_.liveness.ping_miss_limit) {
      SCI_INFO(kTag, "%s: member %s failed (missed %u pings)",
               config_.name.c_str(), member.short_string().c_str(), missed);
      departure(member, /*failure=*/true);
      continue;
    }
    send_to(member, entity::kPing, {});
  }
}

// ---------------------------------------------------------------------------
// materialized views (docs/VIEWS.md)

std::string ContextServer::view_key(const query::Query& q) const {
  if (views_ == nullptr) return {};
  // Time-dependent acceptance: registrar freshness decays without any
  // invalidating delta, so freshness-contract queries always recompute.
  if (q.which.fresh_within_seconds > 0.0) return {};
  // Context pulls read the store (not a selection); subject-parameterised
  // patterns take sink params from live locations at resolve time.
  if (q.what.kind == query::WhatKind::kPattern && q.what.subject) return {};
  if (q.what.history > 0) return {};

  // Binary key over the normalized what/where/which (+ mode). The owner is
  // folded in only where it matters: as the resolved closest-anchor, and
  // under check_access (keyholder semantics are per-owner).
  serde::Writer w(64);
  w.u8(static_cast<std::uint8_t>(q.mode));
  w.u8(static_cast<std::uint8_t>(q.what.kind));
  w.string(q.what.entity_type);
  w.guid(q.what.named);
  w.string(q.what.type);
  w.string(q.what.unit);
  w.string(q.what.semantic);
  w.string(q.where.explicit_path ? q.where.explicit_path->to_string() : "");
  w.boolean(q.where.closest);
  const bool anchored = q.where.closest || q.where.relative_to.has_value();
  w.guid(anchored ? q.where.relative_to.value_or(q.owner) : Guid());
  w.u8(static_cast<std::uint8_t>(q.which.policy));
  w.string(q.which.attr_key);
  w.varint(q.which.require.size());
  for (const query::Requirement& require : q.which.require) {
    w.string(require.key);
    require.equals.encode(w);
  }
  w.boolean(q.which.check_access);
  w.guid(q.which.check_access ? q.owner : Guid());
  w.f64(q.which.min_confidence);
  const serde::FrameView bytes = w.view();
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

compose::ViewDeps ContextServer::view_deps_for(
    const query::Query& q, const std::vector<Guid>& consulted) const {
  compose::ViewDeps deps;
  deps.subjects = consulted;
  if (q.what.kind == query::WhatKind::kNamedEntity) {
    deps.subjects.push_back(q.what.named);
  }
  if (q.where.closest || q.where.relative_to) {
    // The anchor's movement changes distances even when no candidate moved.
    deps.subjects.push_back(q.where.relative_to.value_or(q.owner));
  }
  switch (q.what.kind) {
    case query::WhatKind::kEntityType:
      deps.entity_types.push_back(q.what.entity_type);
      break;
    case query::WhatKind::kPattern:
      deps.types.push_back(
          compose::RequestedType{q.what.type, q.what.unit, q.what.semantic});
      break;
    case query::WhatKind::kNamedEntity:
      break;
  }
  return deps;
}

const obs::Counter* ContextServer::node_counter(std::string_view name) const {
  return network_.simulator().metrics().find_counter(name, metrics_label_);
}

void ContextServer::install_view(compose::ViewEntry entry) {
  if (views_ == nullptr) return;
  if (views_->install(std::move(entry))) m_view_evictions_.inc();
  m_view_installs_.inc();
  m_view_size_->set(static_cast<double>(views_->size()));
}

void ContextServer::invalidate_views_for_subject(Guid subject) {
  if (views_ == nullptr) return;
  note_view_drops(
      views_->invalidate_subject(subject, network_.simulator().now()));
}

void ContextServer::invalidate_views_matching(const entity::Profile& profile) {
  if (views_ == nullptr) return;
  note_view_drops(views_->invalidate_matching(
      profile, profiles_.advertisement(profile.entity), *semantics_,
      network_.simulator().now()));
}

void ContextServer::note_view_drops(std::size_t dropped) {
  if (dropped == 0 || views_ == nullptr) return;
  m_view_invalidations_.inc(dropped);
  m_view_size_->set(static_cast<double>(views_->size()));
}

std::optional<ContextServer::QueryOutcome> ContextServer::query_outcome(
    Guid app, const std::string& query_id) const {
  const auto it = query_outcomes_.find(std::make_pair(app, query_id));
  if (it == query_outcomes_.end()) return std::nullopt;
  return it->second;
}

bool ContextServer::cancel_query(Guid app, const std::string& query_id) {
  bool cancelled = false;
  // Composed configurations owned by this query.
  std::vector<std::uint64_t> owned;
  for (const auto& [tag, tracked] : tracked_) {
    if (tracked.app == app && tracked.query.id == query_id) {
      owned.push_back(tag);
    }
  }
  for (const std::uint64_t tag : owned) {
    retire_configuration(tag);
    cancelled = true;
  }
  // Direct (non-pattern) subscriptions: the recorded outcome names the tag.
  if (const auto outcome = query_outcome(app, query_id);
      outcome && outcome->config_tag != 0 &&
      tracked_.find(outcome->config_tag) == tracked_.end()) {
    cancelled = retire_configuration(outcome->config_tag) || cancelled;
  }
  // Parked queries: the standbys withdraw them through the same step.
  return withdraw_parked_query(app, query_id) || cancelled;
}

void ContextServer::cancel_query_timers() {
  for (const auto* list : {&deferred_, &pending_, &not_before_}) {
    for (const DeferredQuery& d : *list) network_.simulator().cancel(d.expiry);
  }
  for (const auto& [tag, tracked] : tracked_) {
    network_.simulator().cancel(tracked.expiry);
  }
}

bool ContextServer::erase_parked(
    const std::function<bool(const DeferredQuery&)>& match) {
  std::size_t erased = 0;
  for (auto* list : {&deferred_, &pending_, &not_before_}) {
    erased += std::erase_if(*list, [&](const DeferredQuery& d) {
      if (!match(d)) return false;
      network_.simulator().cancel(d.expiry);
      return true;
    });
  }
  return erased > 0;
}

bool ContextServer::withdraw_parked_query(Guid app,
                                          const std::string& query_id) {
  if (!erase_parked([&](const DeferredQuery& d) {
        return d.app == app && d.query.id == query_id;
      })) {
    return false;
  }
  serde::Writer w;
  w.string(query_id);
  log_record(replicate::RecordKind::kQueryCancel, app, 0, w.take_ref());
  return true;
}

// ---------------------------------------------------------------------------
// sharding (docs/SHARDING.md)

void ContextServer::broadcast_profile_mirror(Guid subject) {
  if (!sharded() || passive()) return;
  const MemberRecord* record = registrar_.find(subject);
  if (record == nullptr || record->is_app) return;  // apps stay shard-local
  const entity::ProfileRecord* profile = profiles_.record(subject);
  if (profile == nullptr) return;
  serde::Writer w;
  profile->encode(w);
  queue_to_siblings(kShardProfile, w.take_ref());
  m_shard_profile_mirrors_.inc(config_.shard_map->size() - 1);
}

void ContextServer::broadcast_profile_remove(Guid subject) {
  if (!sharded() || passive() || !registrar_.contains(subject)) return;
  // Sent for apps too: a sibling may hold rows of theirs.
  serde::Writer w;
  w.guid(subject);
  queue_to_siblings(kShardProfileRemove, w.take_ref());
}

void ContextServer::queue_to_siblings(std::uint32_t type,
                                      const serde::BufferRef& payload) {
  for (unsigned i = 0; i < config_.shard_map->size(); ++i) {
    if (i != config_.shard_index) queue_mirror(shard_node(i), type, payload);
  }
}

Guid ContextServer::ingest_shard_profile(serde::FrameView payload) {
  serde::Reader r(payload);
  auto record = entity::ProfileRecord::decode(r);
  if (!record) return Guid();
  const entity::Profile& profile = record->profile;
  // Never go backwards. The channel orders each sender's frames, but a
  // vnode's old and new owners are different senders: a late mirror from
  // the previous owner can land after the new owner's newer one, and must
  // not overwrite a profile this shard now owns.
  if (owns_entity(profile.entity)) return Guid();
  if (const entity::Profile* held = profiles_.profile(profile.entity);
      held != nullptr && profile.version < held->version) {
    return Guid();
  }
  profiles_.put(profile, std::move(record->advertisement));
  // Mirror-record ingestion feeds the same invalidation path as a local
  // profile change: a sibling shard's entity is a composition source here.
  invalidate_views_matching(profile);
  return profile.entity;
}

void ContextServer::handle_shard_profile(const net::Message& message) {
  accept_mirror_put(message.payload);
}

void ContextServer::accept_mirror_put(serde::FrameView payload) {
  const Guid subject = ingest_shard_profile(payload);
  if (subject.is_nil()) return;
  if (!note_mirror_change(subject, /*must_log=*/false)) return;
  // A mirrored profile is a new composition source: queries parked for want
  // of one may resolve now, exactly as after a local arrival.
  retry_pending_queries();
  rebind_after_arrival();
}

void ContextServer::handle_shard_profile_remove(const net::Message& message) {
  serde::Reader r(message.payload);
  auto subject = r.guid();
  if (!subject) return;
  accept_mirror_drop(*subject);
}

void ContextServer::accept_mirror_drop(Guid subject) {
  const std::size_t rows = mediator_.table().size() + mirrored_subs_.size();
  if (!ingest_shard_drop(subject)) return;
  // Subscriptions that named the subject, or that it held, went with it:
  // the subscription table is replicated state, so that change is logged
  // at once.
  if (!note_mirror_change(
          subject, mediator_.table().size() + mirrored_subs_.size() != rows)) {
    return;
  }
  recompose_after_loss(subject);
}

bool ContextServer::ingest_shard_drop(Guid subject) {
  if (registrar_.contains(subject)) return false;
  mediator_.remove_producer(subject);
  drop_subscriber(subject, /*lapsed=*/false);
  if (const entity::Profile* old = profiles_.profile(subject);
      old != nullptr) {
    invalidate_views_matching(*old);
  }
  (void)profiles_.remove(subject);
  return true;
}

bool ContextServer::note_mirror_change(Guid subject, bool must_log) {
  if (repl_log_ == nullptr && pstore_ == nullptr) return true;
  unlogged_mirrors_.insert(subject);
  // Nothing here can re-resolve from a log record, so no replica reads the
  // mirror before the next query logs it.
  if (!must_log && !reads_mirrors() &&
      unlogged_mirrors_.size() < kMaxUnloggedMirrors) {
    return false;
  }
  log_unlogged_mirrors();
  return true;
}

void ContextServer::log_unlogged_mirrors() {
  const std::set<Guid> subjects = std::move(unlogged_mirrors_);
  unlogged_mirrors_.clear();
  for (const Guid subject : subjects) {
    if (owns_entity(subject)) continue;  // local records carry owned state
    // Encoded from the current profile, so a replica that already holds the
    // change (from a checkpoint) just applies it again.
    if (const entity::ProfileRecord* held = profiles_.record(subject);
        held != nullptr) {
      serde::Writer w;
      held->encode(w);
      log_record(replicate::RecordKind::kShardProfile, subject, 0,
                 w.take_ref());
    } else {
      log_record(replicate::RecordKind::kShardDrop, subject, 0, {});
    }
    m_mirrors_logged_.inc();
  }
}

std::uint64_t ContextServer::log_query(Guid app, serde::BufferRef wire) {
  log_unlogged_mirrors();
  return log_record(replicate::RecordKind::kQuery, app, 0, std::move(wire));
}

std::optional<unsigned> ContextServer::sibling_at(Guid node) const {
  if (!sharded()) return std::nullopt;
  for (unsigned i = 0; i < config_.shard_map->size(); ++i) {
    if (i != config_.shard_index && shard_node(i) == node) return i;
  }
  return std::nullopt;
}

void ContextServer::begin_mirror_rebuild() {
  if (!sharded()) return;
  mirror_pull_id_ = config_.epoch;
  for (unsigned i = 0; i < config_.shard_map->size(); ++i) {
    if (i != config_.shard_index) mirror_pulls_.insert(i);
  }
  // Sent from the event loop: a whole-Range recovery constructs the
  // siblings after this shard, and a pull to a node not yet attached would
  // give up at once.
  network_.simulator().schedule(Duration::micros(0), [this, alive = alive_] {
    if (!*alive) return;
    const std::vector<unsigned> siblings(mirror_pulls_.begin(),
                                         mirror_pulls_.end());
    for (const unsigned sibling : siblings) send_mirror_pull(sibling);
  });
}

void ContextServer::send_mirror_pull(unsigned sibling) {
  serde::Writer w;
  w.varint(mirror_pull_id_);
  channel_.send(shard_node(sibling), kShardMirrorPull, w.take_ref());
}

void ContextServer::handle_shard_mirror_pull(const net::Message& message) {
  const auto sibling = sibling_at(message.from);
  if (!sibling) return;
  serde::Reader r(message.payload);
  const auto pull = r.varint();
  if (!pull) return;
  // A sibling pulling is a new incarnation: a pull of ours that its
  // predecessor took may have died unanswered with it. Once per
  // incarnation, so two rebuilding shards do not pull each other forever.
  if (mirror_pulls_.contains(*sibling)) {
    if (const auto [it, fresh] = mirror_repulls_.try_emplace(*sibling, *pull);
        fresh || it->second != *pull) {
      it->second = *pull;
      send_mirror_pull(*sibling);
    }
  }
  // Queued mirror records go out ahead of the answer.
  flush_mirrors();
  std::vector<const entity::ProfileRecord*> owned;
  for (const Guid id : registrar_.entities()) {
    const entity::ProfileRecord* record = profiles_.record(id);
    if (record != nullptr && owns_entity(id)) owned.push_back(record);
  }
  serde::Writer w;
  w.varint(*pull);
  w.varint(owned.size());
  for (const entity::ProfileRecord* record : owned) record->encode(w);
  channel_.send(message.from, kShardMirrorSet, w.take_ref());
}

void ContextServer::handle_shard_mirror_set(const net::Message& message) {
  const auto sibling = sibling_at(message.from);
  if (!sibling || !mirror_pulls_.contains(*sibling)) return;
  serde::Reader r(message.payload);
  const auto pull = r.varint();
  const auto count = r.varint();
  if (pull && *pull != mirror_pull_id_) return;  // answers an older pull
  // A damaged answer ends this sibling's pull without a ghost sweep.
  if (!pull || !count) {
    mirror_pull_answered(*sibling);
    return;
  }
  std::set<Guid> listed;
  for (std::uint64_t i = 0; i < *count; ++i) {
    const std::size_t start = message.payload.size() - r.remaining();
    auto record = entity::ProfileRecord::decode(r);
    if (!record) {
      mirror_pull_answered(*sibling);
      return;
    }
    const serde::BufferRef bytes = message.payload.slice(
        start, message.payload.size() - r.remaining() - start);
    listed.insert(record->profile.entity);
    // Identical to what is held: re-applying it would only invalidate the
    // views a promoted standby inherited.
    if (const entity::ProfileRecord* held =
            profiles_.record(record->profile.entity);
        held != nullptr) {
      serde::Writer w;
      held->encode(w);
      const serde::FrameView mine = w.view();
      if (mine.size() == bytes.size() &&
          std::equal(mine.data(), mine.data() + mine.size(), bytes.data())) {
        continue;
      }
    }
    accept_mirror_put(bytes);
  }
  // Ghost sweep: a held mirror of this sibling's entity that the answer
  // leaves out departed while its drop went unlogged. The answer was sent
  // after every mirror frame that reached us ahead of it, so it is the
  // newer word.
  std::vector<Guid> ghosts;
  for (const entity::Profile& profile : profiles_.snapshot()) {
    const Guid id = profile.entity;
    if (shard_of(id) == *sibling && !registrar_.contains(id) &&
        !listed.contains(id)) {
      ghosts.push_back(id);
    }
  }
  for (const Guid ghost : ghosts) accept_mirror_drop(ghost);
  mirror_pull_answered(*sibling);
}

void ContextServer::mirror_pull_answered(unsigned sibling) {
  if (mirror_pulls_.erase(sibling) == 0 || rebuilding()) return;
  m_mirror_rebuilds_.inc();
  std::vector<ParkedQuery> parked = std::move(rebuild_parked_);
  rebuild_parked_.clear();
  for (ParkedQuery& p : parked) {
    const std::uint64_t index = log_query(p.app, std::move(p.wire));
    admit_query(std::move(p.query), p.app);
    if (p.hold_until_committed && index != 0 && !admit_complete(index)) {
      held_admits_.push_back(HeldAdmit{index, p.ack, {}});
    } else {
      channel_.release_ack(p.ack);
    }
  }
}

void ContextServer::park_query(query::Query q, Guid app, serde::BufferRef wire,
                               bool hold_until_committed) {
  rebuild_parked_.push_back(ParkedQuery{std::move(q), app, std::move(wire),
                                        hold_until_committed,
                                        channel_.hold_current_ack()});
}

void ContextServer::ingest_shard_subscribe(serde::FrameView payload,
                                           bool own_id_space) {
  serde::Reader r(payload);
  auto s = event::Subscription::decode(r);
  if (!s) return;
  // A row installed on the subscriber's own shard, a sibling's copy
  // included, starts its lease there: the one shard it renews with.
  mediator_.lease(s->subscriber);
  // The mirrored id lives in its home shard's id space. restore() bumps the
  // mint counter past any id it sees; letting a sibling's (higher) id space
  // leak into this shard's counter would make later local mints collide
  // with that sibling's genuine ids at a common destination, where restore
  // would silently replace the earlier live subscription.
  auto& table = mediator_.mutable_table();
  const event::SubscriptionId next = table.next_id();
  const event::SubscriptionId sub = s->id;
  table.restore(std::move(*s));  // bumps the mint counter past the id
  if (!own_id_space) {
    table.set_next_id(next);
    return;
  }
  // A replayed subscribe_pattern, with the sibling-mirror bookkeeping the
  // primary set up (passive, so nothing is sent), which keeps the heartbeat
  // fingerprint in step and lets a promoted standby tear the copies down.
  mirror_subscription_if_remote(sub);
}

void ContextServer::handle_shard_subscribe(const net::Message& message) {
  log_record(replicate::RecordKind::kShardSubscribe, message.from, 0,
             message.payload);
  ingest_shard_subscribe(message.payload);
}

void ContextServer::handle_shard_unsubscribe(const net::Message& message) {
  serde::Reader r(message.payload);
  auto id = r.varint();
  if (!id) return;
  if (*id == 0) {  // the subscriber's lease lapsed at its owner
    if (const auto subscriber = r.guid()) expire_lease(*subscriber);
    return;
  }
  log_record(replicate::RecordKind::kShardUnsubscribe, message.from, *id, {});
  (void)mediator_.unsubscribe(*id);
}

event::SubscriptionId ContextServer::subscribe_pattern(
    Guid subscriber, std::string event_type, event::EventFilter filter,
    std::uint64_t owner_tag) {
  const event::SubscriptionId id =
      mediator_.subscribe(subscriber, std::nullopt, std::move(event_type),
                          std::move(filter), /*one_time=*/false, owner_tag);
  const event::Subscription* s = mediator_.table().find(id);
  if (s == nullptr) return id;
  // Replicated with flag=1 ("own id space"): the standby installs the entry
  // through the same kShardSubscribe path as sibling mirrors but lets the
  // id advance its mint counter, so post-promotion mints cannot collide.
  serde::Writer w;
  s->encode(w);
  log_record(replicate::RecordKind::kShardSubscribe, subscriber, 1,
             w.take_ref());
  mirror_subscription_if_remote(id);
  return id;
}

Status ContextServer::unsubscribe(event::SubscriptionId id) {
  drop_mirror(id);
  log_record(replicate::RecordKind::kShardUnsubscribe, Guid(), id, {});
  return mediator_.unsubscribe(id);
}

void ContextServer::mirror_subscription_if_remote(event::SubscriptionId id) {
  if (!sharded() || id == 0) return;
  const event::Subscription* s = mediator_.table().find(id);
  if (s == nullptr) return;
  if (!s->producer) {
    mirror_wildcard_subscription(*s);
    return;
  }
  const unsigned owner = shard_of(*s->producer);
  if (owner == config_.shard_index) return;
  serde::Writer w;
  s->encode(w);
  // Move, not copy: the producer's publishes land on its owner shard, so a
  // local table entry could never match and would only slow dispatch down.
  mirrored_subs_[id] = *s;
  (void)mediator_.unsubscribe(id);
  // Standby replay keeps the same bookkeeping but stays silent; a promoted
  // standby inherits mirrored_subs_ and can still tear the copies down.
  if (!passive()) {
    queue_mirror(shard_node(owner), kShardSubscribe, w.take_ref());
    m_shard_sub_mirrors_.inc();
  }
}

void ContextServer::mirror_wildcard_subscription(const event::Subscription& s) {
  // A type-pattern subscription ("any producer of this type") must hear
  // publishes landing on every shard: a publish routes to its producer's
  // owner shard and never transits the subscriber's, so a local-only entry
  // silently misses every remote producer. Install a copy on each sibling;
  // the local entry stays for producers this shard owns. One-time wildcards
  // stay local — the first delivery cancels only one table's entry, and the
  // surviving sibling copies would keep delivering.
  if (s.one_time) return;
  serde::Writer w;
  s.encode(w);  // no named producer — stays a wildcard remotely
  // Its teardown fans out to every sibling instead of one owner node.
  mirrored_subs_[s.id] = s;
  if (passive()) return;
  queue_to_siblings(kShardSubscribe, w.take_ref());
  m_shard_sub_mirrors_.inc(config_.shard_map->size() - 1);
}

void ContextServer::drop_mirror(event::SubscriptionId id) {
  const auto it = mirrored_subs_.find(id);
  if (it == mirrored_subs_.end()) return;
  const std::optional<Guid> producer = it->second.producer;
  mirrored_subs_.erase(it);
  serde::Writer w;
  w.varint(id);
  // A wildcard's copies live on every sibling; a moved subscription lives
  // on its producer's owner, per the current map (a handoff may have moved
  // it since, even back here, where the local unsubscribe removes it).
  if (!producer) {
    queue_to_siblings(kShardUnsubscribe, w.take_ref());
  } else if (const unsigned owner = shard_of(*producer);
             owner != config_.shard_index) {
    queue_mirror(shard_node(owner), kShardUnsubscribe, w.take_ref());
  }
}

void ContextServer::forward_to_shard(const query::Query& q, Guid app,
                                     unsigned shard) {
  m_shard_forwarded_.inc();
  if (passive()) return;  // the owner shard's primary heard it directly
  const ForwardedQueryWire wire{app, q.to_xml()};
  send_component(shard_node(shard), kForwardedQueryDirect, wire.encode());
}

// ---------------------------------------------------------------------------
// mirror batching (docs/SHARDING.md)

void ContextServer::queue_mirror(Guid node, std::uint32_t type,
                                 serde::BufferRef payload) {
  if (passive()) return;
  auto& buffer = mirror_buffers_[node];
  buffer.emplace_back(type, std::move(payload));
  if (buffer.size() >= kMirrorBatchCap) {
    flush_mirrors();
    return;
  }
  if (!mirror_flush_scheduled_) {
    mirror_flush_scheduled_ = true;
    mirror_flush_timer_ = network_.simulator().schedule(
        Duration::micros(1000), [this, alive = alive_] {
          if (!*alive) return;
          mirror_flush_scheduled_ = false;
          flush_mirrors();
        });
  }
}

void ContextServer::flush_mirrors() {
  network_.simulator().cancel(mirror_flush_timer_);
  mirror_flush_scheduled_ = false;
  if (mirror_buffers_.empty()) return;
  auto buffers = std::move(mirror_buffers_);
  mirror_buffers_.clear();
  for (auto& [node, records] : buffers) {
    if (records.empty()) continue;
    if (records.size() == 1) {
      // A lone record travels as itself — no batch framing overhead.
      channel_.send(node, records.front().first,
                    std::move(records.front().second));
      continue;
    }
    serde::Writer w;
    w.varint(records.size());
    for (auto& [type, payload] : records) {
      w.varint(type);
      write_blob(w, payload);
    }
    channel_.send(node, kShardBatch, w.take_ref());
    m_mirror_batches_.inc();
  }
}

void ContextServer::handle_shard_batch(const net::Message& message) {
  serde::Reader r(message.payload);
  const auto count = r.varint();
  if (!count) return;
  for (std::uint64_t i = 0; i < *count; ++i) {
    const auto type = r.varint();
    if (!type) return;
    auto blob = read_blob(r);
    if (!blob) return;
    net::Message inner;
    inner.type = static_cast<std::uint32_t>(*type);
    inner.from = message.from;
    inner.to = message.to;
    inner.payload = std::move(*blob);
    switch (inner.type) {
      case kShardProfile:
        handle_shard_profile(inner);
        break;
      case kShardProfileRemove:
        handle_shard_profile_remove(inner);
        break;
      case kShardSubscribe:
        handle_shard_subscribe(inner);
        break;
      case kShardUnsubscribe:
        handle_shard_unsubscribe(inner);
        break;
      default:
        SCI_DEBUG(kTag, "%s: unknown type 0x%x inside kShardBatch",
                  config_.name.c_str(), inner.type);
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// elastic resharding (docs/SHARDING.md)

std::vector<unsigned> ContextServer::hot_vnodes(std::size_t n) const {
  std::vector<std::pair<std::uint64_t, unsigned>> ranked;
  ranked.reserve(vnode_publishes_.size());
  for (const auto& [vnode, count] : vnode_publishes_) {
    if (map_.owner_of_vnode(vnode) != config_.shard_index) continue;
    ranked.emplace_back(count, vnode);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;  // deterministic tie-break
            });
  std::vector<unsigned> out;
  for (const auto& [count, vnode] : ranked) {
    if (out.size() >= n) break;
    out.push_back(vnode);
  }
  return out;
}

std::vector<Guid> ContextServer::subjects_in_vnode(unsigned vnode) const {
  std::vector<Guid> subjects;
  for (const Guid member : registrar_.members()) {
    if (map_.vnode_of(member) == vnode) subjects.push_back(member);
  }
  return subjects;
}

bool ContextServer::handoff_probe_step(const char* step) {
  if (handoff_probe_) handoff_probe_(step);
  return !network_.is_crashed(attached_as_);
}

bool ContextServer::begin_handoff(unsigned vnode, unsigned target_shard) {
  if (!sharded() || passive()) return false;
  if (outgoing_handoff_ || incoming_handoff_) return false;
  if (vnode >= map_.vnode_count() || target_shard >= map_.size() ||
      target_shard == config_.shard_index) {
    return false;
  }
  if (map_.owner_of_vnode(vnode) != config_.shard_index) return false;

  // Queued mirror traffic leaves ahead of the freeze. The channel does not
  // order frames, so a mirror may still land after the slice; the target
  // then owns its subject and refuses it (ingest_shard_profile).
  flush_mirrors();

  OutgoingHandoff handoff;
  handoff.id = (static_cast<std::uint64_t>(config_.shard_index) << 48) |
               ++next_handoff_seq_;
  handoff.vnode = vnode;
  handoff.target = target_shard;
  handoff.epoch = map_.epoch() + 1;
  outgoing_handoff_ = std::move(handoff);
  handoff_started_at_ = network_.simulator().now();
  SCI_INFO(kTag, "%s: handoff %llu — freezing vnode %u for shard %u",
           config_.name.c_str(),
           static_cast<unsigned long long>(outgoing_handoff_->id), vnode,
           target_shard);

  if (!handoff_probe_step("freeze")) return true;
  const HandoffWire wire{outgoing_handoff_->id, vnode, config_.shard_index,
                         target_shard, outgoing_handoff_->epoch};
  const serde::BufferRef header = wire.encode();
  // Intent into WAL + replication before the frame leaves: a crash from
  // here on recovers an explicit in-flight handoff and resolves it.
  log_record(replicate::RecordKind::kHandoffIntent, Guid(),
             outgoing_handoff_->id, header);
  if (!handoff_probe_step("ship")) return true;
  ship_handoff_state(header);

  // A silent or partitioned target must not freeze the vnode forever.
  const std::uint64_t id = outgoing_handoff_->id;
  outgoing_handoff_->deadline = network_.simulator().schedule(
      Duration::seconds(5), [this, alive = alive_, id] {
        if (!*alive) return;
        if (outgoing_handoff_ && outgoing_handoff_->id == id &&
            !outgoing_handoff_->committed) {
          abort_outgoing_handoff("target silent past the handoff deadline");
        }
      });
  return true;
}

void ContextServer::ship_handoff_state(serde::FrameView header) {
  const unsigned vnode = outgoing_handoff_->vnode;
  // Encode the vnode's slice: membership, profiles, stored context,
  // producer-keyed subscriptions, publish-dedup windows. Each record is its
  // own crc32+length frame, so a damaged slice is detected at the target
  // rather than installed.
  std::vector<std::byte> slice;
  std::size_t count = 0;
  const auto add = [&](serde::Writer& w) {
    serde::append_frame(slice, w.view());
    ++count;
  };
  for (const Guid subject : subjects_in_vnode(vnode)) {
    {
      serde::Writer w;
      w.u8(kStateMember);
      registrar_.find(subject)->encode(w);
      add(w);
    }
    if (const entity::ProfileRecord* profile = profiles_.record(subject);
        profile != nullptr) {
      serde::Writer w;
      w.u8(kStateProfile);
      profile->encode(w);
      add(w);
    }
    for (const std::string& type : context_store_.types_for(subject)) {
      auto history = context_store_.history(
          subject, type, std::numeric_limits<std::size_t>::max());
      // history() is newest-first; re-ingestion must run oldest-first so the
      // target's ring buffers evict in the same order as ours.
      for (auto it = history.rbegin(); it != history.rend(); ++it) {
        serde::Writer w;
        w.u8(kStateEvent);
        it->encode(w);
        add(w);
      }
    }
    if (const auto dedup = publish_seen_.find(subject);
        dedup != publish_seen_.end()) {
      serde::Writer w;
      w.u8(kStateDedup);
      w.guid(subject);
      dedup->second.encode(w);
      add(w);
    }
  }
  // Producer-keyed subscriptions on the moving slice.
  for (const event::Subscription& s : mediator_.table().all()) {
    if (!s.producer || map_.vnode_of(*s.producer) != vnode) continue;
    serde::Writer w;
    w.u8(kStateSub);
    s.encode(w);
    add(w);
  }
  // The slice's subscriber leases, which its new owner renews from now on.
  for (const auto& [subscriber, expires_at] : mediator_.leases()) {
    if (map_.vnode_of(subscriber) != vnode) continue;
    serde::Writer w;
    w.u8(kStateLease);
    w.guid(subscriber);
    w.svarint(expires_at.micros());
    add(w);
  }
  // One frame: [header][varint record count][the CRC-framed records].
  serde::Writer frame(header.size() + 10 + slice.size());
  frame.raw(header.data(), header.size());
  frame.varint(count);
  frame.raw(slice.data(), slice.size());
  channel_.send(shard_node(outgoing_handoff_->target), kHandoffFreeze,
                frame.take_ref());
}

void ContextServer::handle_handoff_freeze(const net::Message& message) {
  auto wire = HandoffWire::decode(message.payload);
  if (!wire) return;
  if (!sharded() || wire->target != config_.shard_index) return;
  if (wire->epoch <= map_.epoch()) return;  // stale retransmission
  if (incoming_handoff_ && incoming_handoff_->id == wire->id) return;  // dup
  if (incoming_handoff_ || outgoing_handoff_) {
    // One migration at a time per node: refuse, the source rolls back.
    if (!passive()) {
      channel_.send(message.from, kHandoffAbort, wire->encode());
    }
    return;
  }
  if (!stage_incoming_handoff(message.payload)) {
    // Nothing staged and no ready sent: the source aborts at its deadline.
    SCI_WARN(kTag, "%s: handoff %llu slice damaged — dropped",
             config_.name.c_str(), static_cast<unsigned long long>(wire->id));
    return;
  }
  // The intent record carries the whole slice, so a standby or a WAL
  // replay stages it too.
  log_record(replicate::RecordKind::kHandoffIntent, Guid(), wire->id,
             message.payload);
  arm_incoming_deadline();
  SCI_INFO(kTag, "%s: handoff %llu — staged %zu records of vnode %u from "
           "shard %u",
           config_.name.c_str(), static_cast<unsigned long long>(wire->id),
           incoming_handoff_->records.size(), wire->vnode, wire->source);
  if (!handoff_probe_step("ready")) return;
  send_handoff_ready();
}

bool ContextServer::stage_incoming_handoff(const serde::BufferRef& frame) {
  serde::Reader r(frame);
  const auto wire = HandoffWire::decode(r);
  const auto count = r.varint();
  if (!wire || !count) return false;
  IncomingHandoff in;
  in.id = wire->id;
  in.vnode = wire->vnode;
  in.source = wire->source;
  in.epoch = wire->epoch;
  in.frame = frame;
  const std::size_t offset = frame.size() - r.remaining();
  serde::FrameCursor cursor(frame.data() + offset, frame.size() - offset);
  std::vector<std::byte> record;
  while (cursor.next(record)) {
    in.records.push_back(serde::BufferRef::copy_of(record));
  }
  if (cursor.stop() != serde::FrameStop::kClean ||
      in.records.size() != *count) {
    return false;
  }
  incoming_handoff_ = std::move(in);
  return true;
}

void ContextServer::arm_incoming_deadline() {
  if (!incoming_handoff_ || passive()) return;
  const std::uint64_t id = incoming_handoff_->id;
  incoming_handoff_->deadline = network_.simulator().schedule(
      Duration::seconds(10), [this, alive = alive_, id] {
        if (!*alive) return;
        if (!incoming_handoff_ || incoming_handoff_->id != id) return;
        // We acknowledged readiness but no commit/abort ever came — the
        // source (or its elected successor) may have lost the ack. Nudge and
        // keep waiting: a commit may still be recovered from its WAL.
        send_handoff_ready();
        arm_incoming_deadline();
      });
}

void ContextServer::send_handoff_ready() {
  if (passive() || !incoming_handoff_) return;
  const HandoffWire wire{incoming_handoff_->id, incoming_handoff_->vnode,
                         incoming_handoff_->source, config_.shard_index,
                         incoming_handoff_->epoch};
  channel_.send(shard_node(incoming_handoff_->source), kHandoffReady,
                wire.encode());
}

void ContextServer::handle_handoff_ready(const net::Message& message) {
  auto wire = HandoffWire::decode(message.payload);
  if (!wire) return;
  if (!outgoing_handoff_ || outgoing_handoff_->id != wire->id) {
    if (passive()) return;
    if (wire->epoch <= map_.epoch() &&
        map_.owner_of_vnode(wire->vnode) == wire->target) {
      // The move already committed (we may have completed it from the
      // recovered WAL before this ready arrived) and the target's commit
      // frame was evidently lost: re-send it. Idempotent at the receiver.
      channel_.send(message.from, kHandoffCommit, message.payload);
      return;
    }
    // An orphaned target (we recovered and aborted, or never knew the id):
    // tell it to discard its staging state.
    channel_.send(message.from, kHandoffAbort, message.payload);
    return;
  }
  if (outgoing_handoff_->ready) return;  // dup across failover
  outgoing_handoff_->ready = true;
  commit_outgoing_handoff();
}

void ContextServer::commit_outgoing_handoff() {
  if (!outgoing_handoff_ || outgoing_handoff_->committed) return;
  if (!handoff_probe_step("commit")) return;
  const HandoffWire wire{outgoing_handoff_->id, outgoing_handoff_->vnode,
                         config_.shard_index, outgoing_handoff_->target,
                         outgoing_handoff_->epoch};
  // COMMIT POINT: once this record is durable (WAL) / replicated, the move
  // happens — a crash after this line completes it from recorded state.
  log_record(replicate::RecordKind::kHandoffCommit, Guid(),
             outgoing_handoff_->id, wire.encode());
  outgoing_handoff_->committed = true;
  if (!handoff_probe_step("broadcast")) return;
  complete_outgoing_handoff();
}

void ContextServer::complete_outgoing_handoff() {
  if (!outgoing_handoff_) return;
  OutgoingHandoff handoff = std::move(*outgoing_handoff_);
  outgoing_handoff_.reset();
  network_.simulator().cancel(handoff.deadline);

  // Collect the moving components before the local apply sheds them.
  const std::vector<Guid> moved = subjects_in_vnode(handoff.vnode);

  const HandoffWire wire{handoff.id, handoff.vnode, config_.shard_index,
                         handoff.target, handoff.epoch};
  const serde::BufferRef encoded = wire.encode();
  // Commit to the target and every sibling (and, via the replication log,
  // to this shard's standbys): all copies of the map converge on the new
  // epoch. Each receiver applies idempotently, so a recovered successor can
  // re-run this whole block verbatim.
  if (!passive()) {
    for (unsigned i = 0; i < map_.size(); ++i) {
      if (i == config_.shard_index) continue;
      channel_.send(shard_node(i), kHandoffCommit, encoded);
    }
  }
  apply_handoff_commit(handoff.vnode, handoff.target, handoff.epoch);

  const Guid target_node = shard_node(handoff.target);
  if (!passive()) {
    // Ops parked during the freeze replay on the new owner in arrival order.
    for (const StagedOp& op : handoff.staged) {
      serde::Writer w;
      op.encode(w);
      channel_.send(target_node, kHandoffReplay, w.take_ref());
    }
    // Fire-and-forget re-point: moved components learn their new owner now
    // instead of on their next stale-routed frame.
    const entity::RedirectBody redirect{target_node, target_node};
    for (const Guid subject : moved) {
      send_to(subject, entity::kRedirect, redirect.encode());
    }
  }

  m_reshard_handoffs_.inc();
  if (handoff_started_at_ != SimTime::zero()) {
    m_reshard_pause_->observe(static_cast<double>(
        network_.simulator().now().micros() - handoff_started_at_.micros()));
    handoff_started_at_ = SimTime::zero();
  }
  SCI_INFO(kTag,
           "%s: handoff %llu committed — vnode %u now owned by shard %u "
           "(map epoch %llu, %zu staged ops replayed)",
           config_.name.c_str(), static_cast<unsigned long long>(handoff.id),
           handoff.vnode, handoff.target,
           static_cast<unsigned long long>(handoff.epoch),
           handoff.staged.size());
}

void ContextServer::abort_outgoing_handoff(const char* why) {
  if (!outgoing_handoff_ || outgoing_handoff_->committed) return;
  OutgoingHandoff handoff = std::move(*outgoing_handoff_);
  outgoing_handoff_.reset();
  network_.simulator().cancel(handoff.deadline);
  SCI_WARN(kTag, "%s: handoff %llu of vnode %u aborted — %s",
           config_.name.c_str(), static_cast<unsigned long long>(handoff.id),
           handoff.vnode, why);
  const HandoffWire wire{handoff.id, handoff.vnode, config_.shard_index,
                         handoff.target, handoff.epoch};
  log_record(replicate::RecordKind::kHandoffAbort, Guid(), handoff.id,
             wire.encode());
  m_reshard_aborts_.inc();
  handoff_started_at_ = SimTime::zero();
  if (!passive()) {
    channel_.send(shard_node(handoff.target), kHandoffAbort, wire.encode());
  }
  // Unpark the staged ops through the normal admission path: this shard
  // still owns the vnode, and each op re-logs as its own record (which is
  // how standbys converge — their kHandoffAbort apply only drops the queue).
  for (StagedOp& op : handoff.staged) reingest_staged(std::move(op));
}

void ContextServer::handle_handoff_commit(const net::Message& message) {
  auto wire = HandoffWire::decode(message.payload);
  if (!wire) return;
  if (wire->epoch <= map_.epoch()) return;  // already applied (dup/broadcast)
  log_record(replicate::RecordKind::kHandoffCommit, Guid(), wire->id,
             message.payload);
  if (incoming_handoff_ && incoming_handoff_->id == wire->id) {
    if (!handoff_probe_step("install")) return;
    install_incoming_handoff();
  }
  apply_handoff_commit(wire->vnode, wire->target, wire->epoch);
}

void ContextServer::handle_handoff_abort(const net::Message& message) {
  auto wire = HandoffWire::decode(message.payload);
  if (!wire) return;
  if (incoming_handoff_ && incoming_handoff_->id == wire->id) {
    log_record(replicate::RecordKind::kHandoffAbort, Guid(), wire->id,
               message.payload);
    network_.simulator().cancel(incoming_handoff_->deadline);
    incoming_handoff_.reset();
    SCI_INFO(kTag, "%s: incoming handoff %llu aborted by source",
             config_.name.c_str(), static_cast<unsigned long long>(wire->id));
    return;
  }
  if (outgoing_handoff_ && outgoing_handoff_->id == wire->id &&
      !outgoing_handoff_->committed) {
    abort_outgoing_handoff("target refused the handoff");
  }
}

void ContextServer::handle_handoff_replay(const net::Message& message) {
  serde::Reader r(message.payload);
  auto op = StagedOp::decode(r);
  if (!op) return;
  // Only the op types the freeze window stages are replayable.
  if (op->type != entity::kPublish && op->type != entity::kProfileUpdate) {
    return;
  }
  reingest_staged(std::move(*op));
}

bool ContextServer::bounce_stale_frame(const net::Message& message) {
  if (!sharded() || passive()) return false;
  const unsigned owner = map_.owner_of(message.from);
  if (owner == config_.shard_index) return false;
  // Stale-routed frame: a vnode move shed this subject, but the sender has
  // not processed its redirect yet (or the frame was already in flight when
  // the commit landed). Bounce it to the owner inside the replay envelope —
  // which preserves the true originator — so nothing is lost in the
  // shed-to-redirect window, and re-point the sender.
  serde::Writer w;
  StagedOp{message.from, message.type, message.payload}.encode(w);
  const Guid owner_node = shard_node(owner);
  channel_.send(owner_node, kHandoffReplay, w.take_ref());
  const entity::RedirectBody redirect{owner_node, owner_node};
  send_to(message.from, entity::kRedirect, redirect.encode());
  return true;
}

bool ContextServer::stage_if_frozen(const net::Message& message) {
  if (!outgoing_handoff_ || outgoing_handoff_->committed) return false;
  const unsigned vnode = outgoing_handoff_->vnode;
  if (message.type == entity::kPublish ||
      message.type == entity::kProfileUpdate) {
    if (map_.vnode_of(message.from) != vnode) return false;
    if (outgoing_handoff_->staged.size() >= kMaxStagedOps) {
      // Bounded staging: a hot vnode outrunning the migration rolls the
      // move back rather than buffering without limit. The triggering op
      // proceeds normally (we still own the vnode after the abort).
      abort_outgoing_handoff("staging queue overflow");
      return false;
    }
    // Log before the publish-dedup window sees the sequence: the op is
    // consumed here, and its replay on the new owner must not be treated as
    // a duplicate by the shipped window.
    hold_admit_until_committed(
        log_record(replicate::RecordKind::kHandoffStaged, message.from,
                   message.type, message.payload),
        {});
    outgoing_handoff_->staged.push_back(
        StagedOp{message.from, message.type, message.payload});
    m_reshard_staged_.inc();
    return true;
  }
  if (message.type == entity::kRegisterRequest &&
      map_.vnode_of(message.from) == vnode) {
    // Dropped, not staged: the component's bounded discovery retry re-routes
    // through detect_arrival once the commit (or abort) lands.
    return true;
  }
  return false;
}

void ContextServer::install_incoming_handoff() {
  if (!incoming_handoff_) return;
  IncomingHandoff in = std::move(*incoming_handoff_);
  incoming_handoff_.reset();
  network_.simulator().cancel(in.deadline);
  for (const serde::BufferRef& record : in.records) {
    if (record.empty()) continue;
    const auto category = std::to_integer<std::uint8_t>(record.data()[0]);
    const serde::BufferRef rest = record.slice(1, record.size() - 1);
    switch (category) {
      case kStateMember: {
        serde::Reader r(rest);
        if (auto member = MemberRecord::decode(r)) registrar_.restore(*member);
        break;
      }
      case kStateProfile:
        ingest_shard_profile(rest);
        break;
      case kStateEvent: {
        serde::Reader r(rest);
        if (auto e = event::Event::decode(r)) {
          (void)context_store_.record(*e);
        }
        break;
      }
      case kStateSub:
        ingest_shard_subscribe(rest);
        break;
      case kStateDedup: {
        serde::Reader r(rest);
        const auto source = r.guid();
        if (!source) break;
        if (auto dedup = reliable::SeqDedup::decode(r)) {
          publish_seen_[*source] = std::move(*dedup);
        }
        break;
      }
      case kStateLease: {
        serde::Reader r(rest);
        const auto subscriber = r.guid();
        const auto expires_at = r.svarint();
        if (subscriber && expires_at) {
          mediator_.restore_lease(*subscriber,
                                  SimTime::from_micros(*expires_at));
        }
        break;
      }
      default:
        SCI_DEBUG(kTag, "%s: unknown handoff state category %u",
                  config_.name.c_str(), static_cast<unsigned>(category));
        break;
    }
  }
  SCI_INFO(kTag, "%s: handoff %llu — installed %zu state records for vnode %u",
           config_.name.c_str(), static_cast<unsigned long long>(in.id),
           in.records.size(), in.vnode);
  // The gained members are new composition sources here.
  retry_pending_queries();
}

void ContextServer::apply_handoff_commit(unsigned vnode, unsigned new_owner,
                                         std::uint64_t epoch) {
  if (epoch <= map_.epoch()) return;  // idempotence across replays
  const unsigned old_owner = map_.owner_of_vnode(vnode);
  map_.assign(vnode, new_owner);
  map_.set_epoch(epoch);

  if (old_owner == config_.shard_index && new_owner != config_.shard_index) {
    // Shedding branch: this shard lost the slice. Producer-keyed
    // subscriptions moved with the producer — record them as mirrors FIRST
    // so unsubscribe and retire teardown still reach the remote copies —
    // then drop the slice, leases included (they moved with it). Profiles
    // stay: every shard mirrors all profiles.
    for (const event::Subscription& s : mediator_.table().all()) {
      if (!s.producer || map_.vnode_of(*s.producer) != vnode) continue;
      mirrored_subs_.try_emplace(s.id, s);
    }
    std::vector<Guid> moved;
    for (const auto& [subscriber, expires_at] : mediator_.leases()) {
      if (map_.vnode_of(subscriber) == vnode) moved.push_back(subscriber);
    }
    for (const Guid subscriber : moved) mediator_.drop_lease(subscriber);
    for (const Guid subject : subjects_in_vnode(vnode)) {
      (void)registrar_.remove(subject);
      mediator_.remove_producer(subject);
      (void)context_store_.forget(subject);
      publish_seen_.erase(subject);
      invalidate_views_for_subject(subject);
    }
    vnode_publishes_.erase(vnode);
  }
}

void ContextServer::resolve_recovered_handoff() {
  if (config_.role != RangeConfig::Role::kPrimary || fenced_) return;
  if (outgoing_handoff_) {
    if (outgoing_handoff_->committed) {
      // Crash after the commit point: finish from recorded state. Every
      // completion frame is idempotent at its receiver.
      SCI_INFO(kTag, "%s: completing committed handoff %llu after recovery",
               config_.name.c_str(),
               static_cast<unsigned long long>(outgoing_handoff_->id));
      complete_outgoing_handoff();
    } else {
      // Crash before the commit point: deterministic rollback.
      abort_outgoing_handoff("recovered an uncommitted handoff");
    }
    return;
  }
  if (incoming_handoff_) {
    // The watchdog died with the previous incarnation (or never existed on
    // the standby) — re-arm it, and re-signal readiness: the ready we sent
    // may have died with the old primary, and the source ignores
    // duplicates.
    arm_incoming_deadline();
    send_handoff_ready();
  }
}

void ContextServer::reingest_staged(StagedOp op) {
  net::Message synthetic;
  synthetic.type = op.type;
  synthetic.from = op.from;
  synthetic.to = attached_as_;
  synthetic.payload = std::move(op.payload);
  on_component_message(synthetic);
}

// ---------------------------------------------------------------------------
// replication & failover (docs/REPLICATION.md)

std::uint64_t ContextServer::log_record(replicate::RecordKind kind,
                                        Guid subject, std::uint64_t flag,
                                        serde::BufferRef payload) {
  if (config_.role != RangeConfig::Role::kPrimary || fenced_ || recovering_) {
    return 0;
  }
  if (repl_log_ == nullptr && pstore_ == nullptr) return 0;
  // A local record about a subject carries its profile: a pending mirror of
  // the same subject has nothing left to add.
  if (kind == replicate::RecordKind::kRegister ||
      kind == replicate::RecordKind::kProfileUpdate ||
      kind == replicate::RecordKind::kDeparture) {
    unlogged_mirrors_.erase(subject);
  }
  // Minted and encoded once: the WAL entry is the record inside the frame
  // the standbys receive.
  const replicate::LogRecord record{++log_head_, kind, subject, flag,
                                    std::move(payload)};
  const serde::BufferRef frame =
      replicate::frame_record(channel_.epoch(), record);
  if (pstore_ != nullptr)
    pstore_->append(channel_.epoch(), log_head_, replicate::record_bytes(frame));
  if (repl_log_ != nullptr) repl_log_->append(log_head_, frame);
  return log_head_;
}

bool ContextServer::admit_complete(std::uint64_t index) const {
  // Replication leg: enough standbys applied it (or no log exists).
  const bool repl_ok =
      repl_log_ == nullptr || repl_log_->committed() >= index;
  // Durability leg: the local WAL fsynced past it (or ack_after_fsync off).
  const bool durable_ok = pstore_ == nullptr ||
                          !pstore_->config().ack_after_fsync ||
                          pstore_->durable_index() >= index;
  return repl_ok && durable_ok;
}

void ContextServer::hold_admit_until_committed(std::uint64_t index,
                                               std::function<void()> reply) {
  if (index == 0 || admit_complete(index)) {
    // No log, or already committed and durable (a degraded group commits
    // at append): complete immediately.
    if (reply) reply();
    return;
  }
  // The channel-level ack is the admit signal for ops whose only reply is
  // the ack itself (publish, renew); hold it until the commit watermark
  // passes this record. Raw-path ops have no ack to hold (invalid ticket).
  held_admits_.push_back(
      HeldAdmit{index, channel_.hold_current_ack(), std::move(reply)});
}

void ContextServer::release_completed_admits() {
  // Indices are held in minting order, so the front completes first.
  while (!held_admits_.empty() &&
         admit_complete(held_admits_.front().index)) {
    const HeldAdmit held = std::move(held_admits_.front());
    held_admits_.pop_front();
    channel_.release_ack(held.ack);
    if (held.reply) held.reply();
  }
}

void ContextServer::init_durable_store() {
  if (config_.storage == nullptr || !config_.durability.enable) return;
  if (config_.store_name.empty()) config_.store_name = config_.name;
  pstore_ = std::make_unique<persist::ShardStore>(
      network_.simulator(), *config_.storage, config_.store_name,
      config_.durability);
  pstore_->set_snapshot_provider([this] { return snapshot_state(); });
  pstore_->set_durable_callback(
      [this](std::uint64_t) { release_completed_admits(); });
  recover_from_store();
  pstore_->start_checkpoint_timer([this] { return channel_.epoch(); });
}

void ContextServer::recover_from_store() {
  persist::RecoveredState rec = pstore_->recover();
  if (!rec.any) return;

  // Replay silently: the apply paths otherwise emit frames (acks, mirror
  // broadcasts, deliveries) that already went out in the previous life.
  recovering_ = true;
  const bool was_silent = config_.role == RangeConfig::Role::kStandby;
  mediator_.set_silent(true);
  if (!rec.snapshot.empty()) {
    (void)apply_snapshot_state(rec.snapshot, rec.base_index);
  }
  for (const auto& tail : rec.records) {
    auto record =
        replicate::LogRecord::decode(serde::BufferRef::copy_of(tail.bytes));
    if (!record) continue;  // framed-but-malformed record: skip, keep going
    record->index = tail.index;
    apply_record(*record);
  }
  recovering_ = false;
  if (!was_silent) mediator_.set_silent(false);

  recovered_any_ = true;
  // The DISK's epoch, never lifted to config_.epoch: rejoin negotiation
  // must present the epoch the WAL was written under, so a stale lineage
  // gets a replacing snapshot instead of a delta over divergent indices.
  recovered_epoch_ = rec.epoch;
  recovered_watermark_ = rec.watermark;
  log_head_ = rec.watermark;
  if (rec.tail_truncated) {
    SCI_WARN(kTag, "%s: WAL tail damaged (%s) — truncated at watermark %llu",
             config_.name.c_str(), serde::to_string(rec.stop),
             static_cast<unsigned long long>(rec.watermark));
  }

  if (config_.role == RangeConfig::Role::kPrimary) {
    // A restarted primary is a new incarnation: bump the epoch so receivers
    // reset their per-epoch dedup state for this sender.
    config_.epoch = std::max(config_.epoch, recovered_epoch_) + 1;
    channel_.set_epoch(config_.epoch);
  } else {
    // A standby adopts the recovered epoch (promote() still advances past
    // it if this node is later elected).
    config_.epoch = recovered_epoch_;
    channel_.set_epoch(config_.epoch);
  }
  SCI_INFO(kTag,
           "%s: recovered from disk — epoch %u, watermark %llu, %zu tail "
           "records",
           config_.name.c_str(), recovered_epoch_,
           static_cast<unsigned long long>(rec.watermark), rec.records.size());
}

void ContextServer::apply_record(const replicate::LogRecord& record) {
  const SimTime now = network_.simulator().now();
  switch (record.kind) {
    case replicate::RecordKind::kRegister: {
      auto body = entity::RegisterRequestBody::decode(record.payload);
      if (!body) return;
      (void)admit_registration(record.subject, *body);
      // Same follow-on work as handle_register, so tag allocation stays in
      // lockstep with the primary; the ack itself is suppressed (passive()).
      retry_pending_queries();
      if (!body->is_app) rebind_after_arrival();
      return;
    }
    case replicate::RecordKind::kDeparture:
      departure(record.subject, record.flag != 0);
      return;
    case replicate::RecordKind::kPublish: {
      auto body = entity::PublishBody::decode(record.payload);
      if (!body) return;
      registrar_.touch(record.subject, now);
      if (body->event.sequence != 0) {
        (void)publish_seen_[body->event.source].accept(body->event.sequence);
      }
      ingest_publish(*body);
      return;
    }
    case replicate::RecordKind::kProfileUpdate: {
      auto body = entity::ProfileUpdateBody::decode(record.payload);
      if (!body) return;
      registrar_.touch(record.subject, now);
      (void)profiles_.update(body->profile);
      invalidate_views_matching(body->profile);
      return;
    }
    case replicate::RecordKind::kQuery: {
      auto wire = ForwardedQueryWire::decode(record.payload);
      if (!wire) return;
      auto parsed = query::Query::parse(wire->xml);
      if (!parsed) return;
      admit_query(std::move(*parsed), wire->app);
      return;
    }
    case replicate::RecordKind::kQueryCancel: {
      serde::Reader r(record.payload);
      if (const auto query_id = r.string()) {
        (void)withdraw_parked_query(record.subject, *query_id);
      }
      return;
    }
    case replicate::RecordKind::kConfigRetire:
      retire_configuration(record.flag);
      return;
    case replicate::RecordKind::kShardProfile:
      // Same follow-on work as handle_shard_profile so tag allocation stays
      // in lockstep with the primary.
      ingest_shard_profile(record.payload);
      retry_pending_queries();
      rebind_after_arrival();
      return;
    case replicate::RecordKind::kShardDrop:
      if (ingest_shard_drop(record.subject)) {
        recompose_after_loss(record.subject);
      }
      return;
    case replicate::RecordKind::kShardSubscribe:
      ingest_shard_subscribe(record.payload, record.flag == 1);
      return;
    case replicate::RecordKind::kShardUnsubscribe:
      // No id: every row of the subject, a subscriber whose lease lapsed.
      // Else a nil subject marks this shard's own unsubscribe(), which also
      // dropped the mirror bookkeeping, and a sibling's teardown of one row
      // names the sibling's node.
      if (record.flag == 0) {
        expire_lease(record.subject);
        return;
      }
      if (record.subject.is_nil()) drop_mirror(record.flag);
      (void)mediator_.unsubscribe(record.flag);
      return;
    case replicate::RecordKind::kHandoffIntent: {
      // A standby (or the WAL replay) mirrors the primary's in-flight
      // handoff so a successor can resolve it deterministically.
      auto wire = HandoffWire::decode(record.payload);
      if (!wire) return;
      if (wire->source == config_.shard_index) {
        OutgoingHandoff handoff;
        handoff.id = wire->id;
        handoff.vnode = wire->vnode;
        handoff.target = wire->target;
        handoff.epoch = wire->epoch;
        outgoing_handoff_ = std::move(handoff);
        // Keep the id allocator ahead of every recovered handoff.
        next_handoff_seq_ = std::max<std::uint64_t>(
            next_handoff_seq_, wire->id & 0xFFFFFFFFFFFFull);
      } else if (wire->target == config_.shard_index) {
        (void)stage_incoming_handoff(record.payload);
      }
      return;
    }
    case replicate::RecordKind::kHandoffStaged:
      if (outgoing_handoff_ && !outgoing_handoff_->committed) {
        outgoing_handoff_->staged.push_back(
            StagedOp{record.subject, static_cast<std::uint32_t>(record.flag),
                     record.payload});
      }
      return;
    case replicate::RecordKind::kHandoffCommit: {
      auto wire = HandoffWire::decode(record.payload);
      if (!wire) return;
      if (incoming_handoff_ && incoming_handoff_->id == wire->id) {
        install_incoming_handoff();
      }
      if (outgoing_handoff_ && outgoing_handoff_->id == wire->id) {
        // Mark committed but KEEP the mirror: a standby promoted after this
        // record re-runs the (idempotent) completion broadcast via
        // resolve_recovered_handoff().
        outgoing_handoff_->committed = true;
      }
      apply_handoff_commit(wire->vnode, wire->target, wire->epoch);
      return;
    }
    case replicate::RecordKind::kHandoffAbort: {
      auto wire = HandoffWire::decode(record.payload);
      if (!wire) return;
      // Only drop the mirrors — do NOT reingest staged ops here. The live
      // primary's abort path reingests them through the normal admission
      // path, which logs each as its own record; replaying those AND the
      // queue would double-apply.
      if (outgoing_handoff_ && outgoing_handoff_->id == wire->id &&
          !outgoing_handoff_->committed) {
        outgoing_handoff_.reset();
      }
      if (incoming_handoff_ && incoming_handoff_->id == wire->id) {
        incoming_handoff_.reset();
      }
      return;
    }
  }
  SCI_DEBUG(kTag, "%s: unknown replication record kind %u",
            config_.name.c_str(), static_cast<unsigned>(record.kind));
}

std::vector<std::byte> ContextServer::snapshot_state() const {
  serde::Writer w(1024);
  w.varint(config_.epoch);
  w.varint(next_tag_);

  // Registrar membership (GUID order — deterministic).
  const auto members = registrar_.members();
  w.varint(members.size());
  for (const Guid id : members) registrar_.find(id)->encode(w);

  // Profiles + advertisements (GUID order; restore goes through put(),
  // which is order-independent).
  const auto profiles = profiles_.snapshot();
  w.varint(profiles.size());
  for (const entity::Profile& profile : profiles) {
    profiles_.record(profile.entity)->encode(w);
  }

  // Subscription table, verbatim: components and configurations hold the
  // ids, so they must survive failover unchanged.
  const auto& table = mediator_.table();
  w.varint(table.next_id());
  const auto subscriptions = table.all();
  w.varint(subscriptions.size());
  for (const event::Subscription& s : subscriptions) {
    s.encode(w);
    w.varint(s.delivered);
  }
  // The subscribers leased here; a promotion starts each on a fresh term.
  w.varint(mediator_.leases().size());
  for (const auto& [subscriber, expires_at] : mediator_.leases()) {
    w.guid(subscriber);
  }

  // Context store contents, re-ingested through record() on restore.
  const auto events = context_store_.export_all();
  w.varint(events.size());
  for (const event::Event& e : events) e.encode(w);

  // Active configurations.
  auto tags = store_.all_tags();
  std::sort(tags.begin(), tags.end());
  w.varint(tags.size());
  for (const std::uint64_t tag : tags) {
    const compose::ActiveConfiguration* active = store_.find(tag);
    active->plan.encode(w);
    w.guid(active->app);
    w.string(active->query_id);
    w.boolean(active->one_time);
  }

  // Tracked queries (recomposition inputs), as XML round-trips.
  std::vector<std::uint64_t> tracked_tags;
  tracked_tags.reserve(tracked_.size());
  for (const auto& [tag, tracked] : tracked_) tracked_tags.push_back(tag);
  std::sort(tracked_tags.begin(), tracked_tags.end());
  w.varint(tracked_tags.size());
  for (const std::uint64_t tag : tracked_tags) {
    const TrackedQuery& tracked = tracked_.at(tag);
    w.varint(tag);
    w.string(tracked.query.to_xml());
    w.guid(tracked.app);
    w.boolean(tracked.one_time);
    w.svarint(tracked.expires_at.micros());
  }

  // Edge bookkeeping.
  std::vector<std::uint64_t> edge_tags;
  edge_tags.reserve(app_edges_.size());
  for (const auto& [tag, id] : app_edges_) edge_tags.push_back(tag);
  std::sort(edge_tags.begin(), edge_tags.end());
  w.varint(edge_tags.size());
  for (const std::uint64_t tag : edge_tags) {
    w.varint(tag);
    w.varint(app_edges_.at(tag));
  }
  std::vector<std::string> edge_keys;
  edge_keys.reserve(edge_subscriptions_.size());
  for (const auto& [key, id] : edge_subscriptions_) edge_keys.push_back(key);
  std::sort(edge_keys.begin(), edge_keys.end());
  w.varint(edge_keys.size());
  for (const std::string& key : edge_keys) {
    w.string(key);
    w.varint(edge_subscriptions_.at(key));
  }

  // Parked queries (trigger-deferred, unresolvable-pending, not-before).
  for (const std::vector<DeferredQuery>* list :
       {&deferred_, &pending_, &not_before_}) {
    w.varint(list->size());
    for (const DeferredQuery& d : *list) {
      w.string(d.query.to_xml());
      w.guid(d.app);
      w.svarint(d.stored_at.micros());
    }
  }

  // Publish dedup windows.
  std::vector<Guid> sources;
  sources.reserve(publish_seen_.size());
  for (const auto& [source, dedup] : publish_seen_) sources.push_back(source);
  std::sort(sources.begin(), sources.end());
  w.varint(sources.size());
  for (const Guid source : sources) {
    w.guid(source);
    publish_seen_.at(source).encode(w);
  }

  // Recent-event redelivery window.
  w.varint(recent_events_.size());
  for (const event::Event& e : recent_events_) e.encode(w);

  // Subscriptions mirrored out to sibling shards (std::map — id order).
  w.varint(mirrored_subs_.size());
  for (const auto& [id, mirror] : mirrored_subs_) mirror.encode(w);

  // Vnode ownership map + any in-flight handoff (docs/SHARDING.md): a
  // standby bootstrapped mid-migration must resolve it exactly as one that
  // followed the log.
  w.varint(map_.epoch());
  w.varint(map_.vnode_count());
  for (unsigned v = 0; v < map_.vnode_count(); ++v) {
    w.varint(map_.owner_of_vnode(v));
  }
  w.boolean(outgoing_handoff_.has_value());
  if (outgoing_handoff_) {
    w.varint(outgoing_handoff_->id);
    w.varint(outgoing_handoff_->vnode);
    w.varint(outgoing_handoff_->target);
    w.varint(outgoing_handoff_->epoch);
    w.boolean(outgoing_handoff_->ready);
    w.boolean(outgoing_handoff_->committed);
    w.varint(outgoing_handoff_->staged.size());
    for (const StagedOp& op : outgoing_handoff_->staged) op.encode(w);
  }
  w.boolean(incoming_handoff_.has_value());
  if (incoming_handoff_) write_blob(w, incoming_handoff_->frame);

  // Materialized view table (docs/VIEWS.md), at the very end: a promoted
  // standby starts with warm views instead of a cold re-resolve storm.
  w.boolean(views_ != nullptr);
  if (views_ != nullptr) views_->encode(w);

  return w.view().to_vector();
}

void ContextServer::apply_snapshot_state(const std::vector<std::byte>& blob,
                                         std::uint64_t base_index) {
  // Replace local state wholesale. A decode failure abandons the apply with
  // a warning and leaves the state cleared: nothing re-ships a snapshot to
  // an attached standby, so only a re-attach repairs it.
  registrar_.clear();
  profiles_.clear();
  mediator_.clear();
  context_store_.clear();
  store_ = compose::ConfigurationStore(config_.reuse.enable);
  tracked_.clear();
  app_edges_.clear();
  edge_subscriptions_.clear();
  for (auto* list : {&deferred_, &pending_, &not_before_}) list->clear();
  publish_seen_.clear();
  recent_events_.clear();
  mirrored_subs_.clear();
  outgoing_handoff_.reset();
  incoming_handoff_.reset();
  if (views_ != nullptr) views_->clear();

  const Status applied = [&]() -> Status {
    serde::Reader r(blob);
    SCI_TRY_ASSIGN(epoch, r.varint());
    config_.epoch = static_cast<std::uint32_t>(epoch);
    SCI_TRY_ASSIGN(next_tag, r.varint());
    next_tag_ = next_tag;

    SCI_TRY_ASSIGN(n_members, r.varint());
    for (std::uint64_t i = 0; i < n_members; ++i) {
      SCI_TRY_ASSIGN(record, MemberRecord::decode(r));
      registrar_.restore(record);
    }

    SCI_TRY_ASSIGN(n_profiles, r.varint());
    for (std::uint64_t i = 0; i < n_profiles; ++i) {
      SCI_TRY_ASSIGN(record, entity::ProfileRecord::decode(r));
      profiles_.put(record.profile, std::move(record.advertisement));
    }

    SCI_TRY_ASSIGN(next_sub_id, r.varint());
    SCI_TRY_ASSIGN(n_subs, r.varint());
    for (std::uint64_t i = 0; i < n_subs; ++i) {
      SCI_TRY_ASSIGN(s, event::Subscription::decode(r));
      SCI_TRY_ASSIGN(delivered, r.varint());
      s.delivered = delivered;
      mediator_.mutable_table().restore(std::move(s));
    }
    mediator_.mutable_table().set_next_id(next_sub_id);
    SCI_TRY_ASSIGN(n_leases, r.varint());
    for (std::uint64_t i = 0; i < n_leases; ++i) {
      SCI_TRY_ASSIGN(subscriber, r.guid());
      mediator_.restore_lease(subscriber, network_.simulator().now() +
                                              config_.reliability.lease_ttl);
    }

    SCI_TRY_ASSIGN(n_events, r.varint());
    for (std::uint64_t i = 0; i < n_events; ++i) {
      SCI_TRY_ASSIGN(e, event::Event::decode(r));
      (void)context_store_.record(e);
    }

    SCI_TRY_ASSIGN(n_configs, r.varint());
    for (std::uint64_t i = 0; i < n_configs; ++i) {
      SCI_TRY_ASSIGN(plan, compose::ConfigurationPlan::decode(r));
      compose::ActiveConfiguration active;
      active.plan = std::move(plan);
      SCI_TRY_ASSIGN(app, r.guid());
      active.app = app;
      SCI_TRY_ASSIGN(query_id, r.string());
      active.query_id = std::move(query_id);
      SCI_TRY_ASSIGN(one_time, r.boolean());
      active.one_time = one_time;
      // Edges returned by admit() are ignored: the subscription table was
      // restored verbatim above.
      (void)store_.admit(std::move(active));
    }

    SCI_TRY_ASSIGN(n_tracked, r.varint());
    for (std::uint64_t i = 0; i < n_tracked; ++i) {
      SCI_TRY_ASSIGN(tag, r.varint());
      SCI_TRY_ASSIGN(xml, r.string());
      SCI_TRY_ASSIGN(app, r.guid());
      SCI_TRY_ASSIGN(one_time, r.boolean());
      SCI_TRY_ASSIGN(expires_at, r.svarint());
      auto parsed = query::Query::parse(xml);
      if (!parsed) return parsed.error();
      tracked_[tag] = TrackedQuery{std::move(*parsed), app, one_time,
                                   SimTime::from_micros(expires_at), {}};
    }

    SCI_TRY_ASSIGN(n_app_edges, r.varint());
    for (std::uint64_t i = 0; i < n_app_edges; ++i) {
      SCI_TRY_ASSIGN(tag, r.varint());
      SCI_TRY_ASSIGN(id, r.varint());
      app_edges_[tag] = id;
    }
    SCI_TRY_ASSIGN(n_edge_subs, r.varint());
    for (std::uint64_t i = 0; i < n_edge_subs; ++i) {
      SCI_TRY_ASSIGN(key, r.string());
      SCI_TRY_ASSIGN(id, r.varint());
      edge_subscriptions_[std::move(key)] = id;
    }

    for (std::vector<DeferredQuery>* list :
         {&deferred_, &pending_, &not_before_}) {
      SCI_TRY_ASSIGN(n, r.varint());
      for (std::uint64_t i = 0; i < n; ++i) {
        SCI_TRY_ASSIGN(xml, r.string());
        SCI_TRY_ASSIGN(app, r.guid());
        SCI_TRY_ASSIGN(stored_at, r.svarint());
        auto parsed = query::Query::parse(xml);
        if (!parsed) return parsed.error();
        list->push_back(DeferredQuery{std::move(*parsed), app,
                                      SimTime::from_micros(stored_at), {}});
      }
    }

    SCI_TRY_ASSIGN(n_sources, r.varint());
    for (std::uint64_t i = 0; i < n_sources; ++i) {
      SCI_TRY_ASSIGN(source, r.guid());
      SCI_TRY_ASSIGN(dedup, reliable::SeqDedup::decode(r));
      publish_seen_[source] = std::move(dedup);
    }

    SCI_TRY_ASSIGN(n_recent, r.varint());
    for (std::uint64_t i = 0; i < n_recent; ++i) {
      SCI_TRY_ASSIGN(e, event::Event::decode(r));
      recent_events_.push_back(std::move(e));
    }

    SCI_TRY_ASSIGN(n_mirrored, r.varint());
    for (std::uint64_t i = 0; i < n_mirrored; ++i) {
      SCI_TRY_ASSIGN(mirror, event::Subscription::decode(r));
      mirrored_subs_[mirror.id] = std::move(mirror);
    }

    SCI_TRY_ASSIGN(map_epoch, r.varint());
    SCI_TRY_ASSIGN(n_vnodes, r.varint());
    for (std::uint64_t v = 0; v < n_vnodes; ++v) {
      SCI_TRY_ASSIGN(owner, r.varint());
      if (v < map_.vnode_count()) {
        map_.assign(static_cast<unsigned>(v), static_cast<unsigned>(owner));
      }
    }
    map_.set_epoch(map_epoch);
    SCI_TRY_ASSIGN(has_outgoing, r.boolean());
    if (has_outgoing) {
      OutgoingHandoff handoff;
      SCI_TRY_ASSIGN(id, r.varint());
      handoff.id = id;
      SCI_TRY_ASSIGN(vnode, r.varint());
      handoff.vnode = static_cast<unsigned>(vnode);
      SCI_TRY_ASSIGN(target, r.varint());
      handoff.target = static_cast<unsigned>(target);
      SCI_TRY_ASSIGN(h_epoch, r.varint());
      handoff.epoch = h_epoch;
      SCI_TRY_ASSIGN(ready, r.boolean());
      handoff.ready = ready;
      SCI_TRY_ASSIGN(committed, r.boolean());
      handoff.committed = committed;
      SCI_TRY_ASSIGN(n_staged, r.varint());
      for (std::uint64_t i = 0; i < n_staged; ++i) {
        SCI_TRY_ASSIGN(op, StagedOp::decode(r));
        handoff.staged.push_back(std::move(op));
      }
      next_handoff_seq_ = std::max<std::uint64_t>(
          next_handoff_seq_, handoff.id & 0xFFFFFFFFFFFFull);
      outgoing_handoff_ = std::move(handoff);
    }
    SCI_TRY_ASSIGN(has_incoming, r.boolean());
    if (has_incoming) {
      SCI_TRY_ASSIGN(frame, read_blob(r));
      (void)stage_incoming_handoff(frame);
    }

    SCI_TRY_ASSIGN(has_views, r.boolean());
    if (has_views && views_ != nullptr) {
      if (const Status decoded = views_->decode(r); !decoded.is_ok()) {
        // The view table is a cache: losing it costs recomputation, not
        // correctness, so a damaged view tail must not fail the whole
        // snapshot. But the loss is no longer silent — count and trace it.
        views_->clear();
        m_view_size_->set(0.0);
        m_view_decode_failures_.inc();
        trace_->record(network_.simulator().now(),
                       obs::TraceKind::kViewDecodeFail, config_.context_server,
                       config_.range);
        SCI_WARN(kTag, "%s: view snapshot tail undecodable (%s) — views "
                 "cleared, will recompute",
                 config_.name.c_str(), decoded.error().message().c_str());
        return Status::ok();  // views are the final snapshot field
      }
      m_view_size_->set(static_cast<double>(views_->size()));
    }
    return Status::ok();
  }();

  if (!applied.is_ok()) {
    SCI_WARN(kTag, "%s: snapshot apply (base %llu) failed: %s",
             config_.name.c_str(),
             static_cast<unsigned long long>(base_index),
             applied.error().message().c_str());
    return;
  }
  // The snapshot defines the index space from its base: re-seat the head
  // (recovery tail replay or follower records move it forward again).
  log_head_ = base_index;
  SCI_DEBUG(kTag, "%s: applied snapshot at base %llu (%zu members, %zu subs)",
            config_.name.c_str(), static_cast<unsigned long long>(base_index),
            registrar_.size(), mediator_.table().size());
}

std::uint64_t ContextServer::state_fingerprint() const {
  // Cheap structural digest, not a full state hash: table sizes and
  // counters that any unlogged change to replicated state (a replica acting
  // on its own clock, say) would move, without hashing every profile and
  // event.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(next_tag_);
  mix(registrar_.size());
  // Owned profiles only: sibling mirrors are derived state that a replica
  // receives only ahead of the records that read it (docs/REPLICATION.md).
  std::uint64_t member_profiles = 0;
  for (const Guid id : registrar_.members()) {
    if (profiles_.profile(id) != nullptr) ++member_profiles;
  }
  mix(member_profiles);
  mix(mediator_.table().size());
  mix(mediator_.table().next_id());
  mix(mediator_.leases().size());
  mix(store_.size());
  mix(tracked_.size());
  for (const auto* list : {&deferred_, &pending_, &not_before_}) {
    mix(list->size());
  }
  mix(app_edges_.size());
  mix(mirrored_subs_.size());
  mix(map_.epoch());
  for (unsigned v = 0; v < map_.vnode_count(); ++v) {
    mix(map_.owner_of_vnode(v));
  }
  return h;
}

void ContextServer::attach_standby(Guid standby_node, std::uint32_t from_epoch,
                                   std::uint64_t from_index) {
  SCI_ASSERT_MSG(config_.role == RangeConfig::Role::kPrimary && !fenced_,
                 "only an active primary replicates");
  if (repl_log_ == nullptr) {
    // The log continues this server's index sequence: ops minted while no
    // standby was attached (WAL-only mode) or recovered from disk keep
    // their indices.
    repl_log_ = std::make_unique<replicate::ReplicationLog>(
        network_, channel_, metrics_label_, config_.replication,
        [this] { return snapshot_state(); },
        [this] { return state_fingerprint(); }, log_head_);
    repl_log_->set_sync_acks(
        config_.replication.sync_acks,
        [this](std::uint64_t) { release_completed_admits(); });
    // Replicating under elections means the right to admit is leased from
    // the group, not assumed: the log holds the fencing lease from creation
    // under this epoch, which it keeps for its lifetime.
    lease_epochs_.insert(config_.epoch);
  }
  repl_log_->attach_standby(standby_node, from_epoch, from_index);
}

void ContextServer::detach_standby(Guid standby_node) {
  if (repl_log_ != nullptr) repl_log_->detach_standby(standby_node);
}

void ContextServer::promote(Guid join_via) {
  SCI_ASSERT_MSG(config_.role == RangeConfig::Role::kStandby && !fenced_,
                 "promote() is a standby-only transition");
  if (follower_ != nullptr) {
    log_head_ = std::max(log_head_, follower_->applied());
  }
  // The follower's job is done: the win (if any) is recorded in
  // elected_epoch_, and a primary must not keep answering vote traffic
  // with standby-side logic.
  follower_.reset();
  config_.role = RangeConfig::Role::kPrimary;
  // An elected standby adopts the epoch its voters pledged to — it is
  // always above anything the dead primary stamped. Fiat promotion keeps
  // the plain increment.
  config_.epoch = std::max(config_.epoch + 1, elected_epoch_);
  promoted_at_ = network_.simulator().now();
  SCI_INFO(kTag, "%s: promoting standby %s to primary (epoch %u%s)",
           config_.name.c_str(), attached_as_.short_string().c_str(),
           config_.epoch, elected_epoch_ != 0 ? ", elected" : ", fiat");

  // Identity takeover: shed the standby node, adopt the CS node and stamp
  // the new epoch on every outgoing frame, so receivers reset their dedup
  // windows and drop stale frames from the dead incarnation.
  if (network_.is_attached(attached_as_)) (void)network_.detach(attached_as_);
  channel_.rebind(config_.context_server, config_.epoch);
  attached_as_ = config_.context_server;
  const Status attached = network_.attach(
      attached_as_, [this](const net::Message& m) { on_component_message(m); },
      config_.x, config_.y);
  SCI_ASSERT_MSG(attached.is_ok(),
                 "promotion with the old primary unfenced — fence() it first");

  // Overlay presence under the (unchanged) range id. Sibling shards never
  // held one — the lead shard's entry keeps naming the whole Range.
  if (config_.shard_index == 0) {
    scinet_ = std::make_unique<overlay::ScinetNode>(network_, config_.range,
                                                    config_.x, config_.y);
    scinet_->set_deliver_handler(
        [this](const overlay::RoutedMessage& m) { on_scinet_deliver(m); });
    if (!join_via.is_nil()) {
      (void)scinet_->join(join_via);
    } else {
      scinet_->bootstrap();
    }
    if (directory_ != nullptr) {
      // Refresh rather than duplicate: the fenced primary left its entry in
      // place (same range, same CS node).
      directory_->remove(config_.range);
      directory_->add(RangeDirectory::Entry{config_.range,
                                            config_.context_server,
                                            config_.logical_root, config_.name,
                                            config_.group});
    }
  }

  mediator_.set_silent(false);
  start_primary_duties();
  m_promotions_.inc();
  // New incarnation, new WAL: a checkpoint under the promoted epoch seals
  // the adopted state, so a later cold restart recovers this incarnation
  // rather than replaying records the old primary's epoch stamped.
  if (pstore_ != nullptr) (void)pstore_->checkpoint(config_.epoch);
  // Close the delivery hole the dead primary left: anything it had sent but
  // not finished retransmitting died with its channel. Components dedup the
  // overlap by (subscription, source, sequence).
  for (const event::Event& event : recent_events_) dispatch(event);
  // An in-flight handoff mirrored from the dead primary resolves here:
  // committed completes, uncommitted aborts (docs/SHARDING.md crash matrix).
  resolve_recovered_handoff();
  // The dead primary may have held mirrors it never logged.
  begin_mirror_rebuild();
}

void ContextServer::fence() {
  if (fenced_) return;
  SCI_INFO(kTag, "%s: fencing %s (epoch %u)", config_.name.c_str(),
           attached_as_.short_string().c_str(), config_.epoch);
  fenced_ = true;
  // Deferred-execution closures (expiry timers, not-before schedules) must
  // never run against a fenced instance: cancel what we can reach and flip
  // the liveness flag for the rest.
  *alive_ = false;
  cancel_query_timers();
  mediator_.stop_reaper();
  beacon_timer_.reset();
  ping_timer_.reset();
  rate_timer_.reset();
  network_.simulator().cancel(mirror_flush_timer_);
  mirror_flush_scheduled_ = false;
  mirror_buffers_.clear();
  unlogged_mirrors_.clear();
  mirror_pulls_.clear();
  rebuild_parked_.clear();  // their held acks die with halt() below
  if (outgoing_handoff_) {
    network_.simulator().cancel(outgoing_handoff_->deadline);
  }
  if (incoming_handoff_) {
    network_.simulator().cancel(incoming_handoff_->deadline);
  }
  discovering_ = false;
  repl_log_.reset();
  follower_.reset();
  // Flush and drop the durable store. The files stay in the StorageEnv, so
  // a later cold restart of this node can recover its WAL and rejoin; the
  // epoch negotiation in attach_standby keeps fenced-epoch records from
  // resurrecting into the successor's lineage.
  if (pstore_ != nullptr) {
    (void)pstore_->flush();
    pstore_.reset();
  }
  // Held admit acks die unsent: the ops were never acknowledged, so clients
  // retransmit them to the successor. channel_.halt() below drops the
  // deferred-ack bookkeeping to match.
  held_admits_.clear();
  mediator_.set_silent(true);
  channel_.halt();
  scinet_.reset();  // releases the range overlay id for the successor
  if (network_.is_attached(attached_as_)) (void)network_.detach(attached_as_);
  // The directory entry stays: the successor serves the same range and
  // context-server GUIDs.
}

void ContextServer::remember_recent(const event::Event& event) {
  recent_events_.push_back(event);
  while (recent_events_.size() > kRecentEventWindow) {
    recent_events_.pop_front();
  }
}

}  // namespace sci::range
