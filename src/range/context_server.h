// SCI — the Context Server: hub of a Range (paper §3, Fig 2).
//
// "The CS is the most important component of a Range. It manages the other
// components and provides the means of communicating with other Ranges in
// the SCINET. It maintains a central store of entity information as well as
// managing the context utilities operating within its range. The CS
// provides the access point for Context Aware Applications to interact with
// the infrastructure."
//
// A ContextServer owns:
//   * a component-facing network node (Fig 5 handshake, publishes, queries);
//   * a SCINET overlay node (inter-range query forwarding, Fig 1);
//   * the six core Context Utilities: Range Service (arrival/departure,
//     including ping-based failure detection), Registrar, Profile Manager,
//     Event Mediator, Query Resolver and Location Service.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/expected.h"
#include "common/guid.h"
#include "compose/resolver.h"
#include "compose/semantics.h"
#include "compose/store.h"
#include "compose/views.h"
#include "entity/protocol.h"
#include "event/event.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "overlay/scinet.h"
#include "persist/shard_store.h"
#include "persist/storage.h"
#include "query/query.h"
#include "reliable/reliable.h"
#include "replicate/replication.h"
#include "range/context_store.h"
#include "range/directory.h"
#include "range/event_mediator.h"
#include "range/location_service.h"
#include "range/registrar.h"
#include "range/shard_map.h"

namespace sci::range {

// Overlay application payload types carried over SCINET.
enum ScinetAppType : std::uint32_t {
  kAppForwardedQuery = 0xF001,
};

// Link-local discovery beacon (paper §3: "The SCINET can be created via
// Range discovery, requiring little initialisation"). Broadcast from the CS
// node; payload = this range's SCINET id.
inline constexpr std::uint32_t kRangeBeacon = 0xBEAC;

// Point-to-point forwarded query (paper §4's "hybrid communication model":
// distributed events plus point-to-point). Used as the fallback path when
// the overlay no longer knows the target range (e.g. after a healed
// partition evicted it from routing state) but the range directory still
// names its Context Server.
inline constexpr std::uint32_t kForwardedQueryDirect = 0xF002;

// Shard-to-shard mirror frames (docs/SHARDING.md). All travel as inner
// types inside the sending shard's reliable channel envelopes, so mirrors
// retransmit across a shard failover and land exactly once.
inline constexpr std::uint32_t kShardProfile = 0xF101;        // profile put
inline constexpr std::uint32_t kShardProfileRemove = 0xF102;  // departure
inline constexpr std::uint32_t kShardSubscribe = 0xF103;      // sub install
inline constexpr std::uint32_t kShardUnsubscribe = 0xF104;    // sub teardown

// Elastic resharding frames (docs/SHARDING.md, "Elastic resharding"): the
// freeze-and-handoff migration protocol that moves one vnode's state slice
// between sibling shards. Same reliable-channel envelope discipline as the
// mirror frames above, so every protocol step survives retransmission and
// shard failover.
inline constexpr std::uint32_t kHandoffFreeze = 0xF105;  // header + slice
inline constexpr std::uint32_t kHandoffReady = 0xF107;   // target staged all
inline constexpr std::uint32_t kHandoffCommit = 0xF108;  // map epoch bump
inline constexpr std::uint32_t kHandoffAbort = 0xF109;   // roll the move back
inline constexpr std::uint32_t kHandoffReplay = 0xF10A;  // staged op replay
// Coalesced mirror burst: several kShardProfile/kShardSubscribe/… records in
// one frame.
inline constexpr std::uint32_t kShardBatch = 0xF10B;
// Mirror rebuild (docs/SHARDING.md, "State split and mirrors"): a promoted or
// WAL-recovered shard asks every sibling for the profiles it owns and gets
// them back in one frame.
inline constexpr std::uint32_t kShardMirrorPull = 0xF10C;  // pull id
inline constexpr std::uint32_t kShardMirrorSet = 0xF10D;   // owned profiles
// Memory bound on a shard's unlogged mirror set: reaching it logs the whole
// set. A flush writes at most one record per subject, so it never logs more
// than logging every mirror as it arrives would.
inline constexpr std::size_t kMaxUnloggedMirrors = 4096;

// --- Range options (README "Range options") ---------------------------------
// What a caller of Sci::create_range may set. Everything else about a range
// is either identity the facade assigns (RangeConfig below) or a named
// constant in the .cpp that reads it.

// Composition reuse (A4 ablation knob): Solar-style subgraph sharing.
struct ReuseOptions {
  bool enable = true;
};

// Ping-based failure detection (Range Service liveness sweep).
struct LivenessOptions {
  Duration ping_period = Duration::seconds(2);
  unsigned ping_miss_limit = 3;
};

// Link-local range discovery (paper §3 "Range discovery").
struct DiscoveryOptions {
  // Beacon broadcast period (0 = off) and radio radius: when the period is
  // > 0 the CS broadcasts kRangeBeacon so nearby new ranges can find the
  // SCINET without pre-configuration.
  Duration beacon_period = Duration::seconds(0);
  double beacon_radius = 500.0;
  // When true the new range joins the SCINET by listening for beacons
  // instead of being handed a bootstrap range by the facade.
  bool join_by_discovery = false;
};

// Reliable delivery (docs/ROBUSTNESS.md). acked_delivery routes event
// deliveries, query replies and configure frames over the CS node's
// reliable channel and forwards inter-range queries with end-to-end
// receipts (route_acked). A subscriber's lease, held by the shard that owns
// it, expires after lease_ttl without a renewal (components renew every
// kLeaseRenewPeriod) and takes every row it holds range-wide; a zero ttl
// disables leases.
struct ReliabilityOptions {
  bool acked_delivery = true;
  Duration lease_ttl = Duration::seconds(30);
};

// Primary/backup replication and quorum failover (docs/REPLICATION.md). The
// inherited heartbeat_period (and the promote_timeout() derived from it)
// also time the fencing lease.
struct ReplicationOptions : replicate::ReplicationConfig {
  // Standby Context Servers created alongside the primary. 0 = replication
  // off (no log, no snapshots, no failover).
  unsigned standby_count = 0;
  // Client-visible admit acks wait until this many standbys applied the
  // record, so no client-acked op can be lost in a failover. While fewer
  // standbys are attached a record commits at append. Sci::create_range
  // rejects 0 and, with standbys, a value above standby_count.
  unsigned sync_acks = 1;
};

// Partitioned Range (docs/SHARDING.md): one Range served by N shard Context
// Servers, each owning the entity GUIDs a shared consistent-hash map assigns
// to it. 1 = classic monolithic Context Server; N > 1 creates the lead shard
// under the range name plus N-1 siblings named "<name>#<i>".
struct ShardingOptions {
  unsigned shard_count = 1;
};

// Materialized context views (docs/VIEWS.md): repeated queries are served
// from per-shard view tables maintained incrementally by environment deltas
// instead of re-running selection/resolution.
struct ViewOptions {
  bool enable = true;
  std::size_t capacity = 256;  // LRU-bounded views per server
};

struct RangeOptions {
  ReuseOptions reuse;
  LivenessOptions liveness;
  DiscoveryOptions discovery;
  ReliabilityOptions reliability;
  ReplicationOptions replication;
  ShardingOptions sharding;
  ViewOptions views;
  // Durable per-instance store (docs/DURABILITY.md): a CRC-framed WAL plus
  // checkpoints in the facade-owned StorageEnv.
  persist::DurabilityConfig durability;
  double x = 0.0;  // coordinates of the CS machine
  double y = 0.0;
  // Access-control group: queries are only forwarded between ranges of the
  // same group (paper §3).
  int group = 0;
};

// One Context Server instance: the caller's options plus the identity and
// role the facade assigns.
struct RangeConfig : RangeOptions {
  Guid range;           // SCINET identity of this range
  Guid context_server;  // component-facing network node
  std::string name;
  location::LogicalPath logical_root;  // logical area this range governs
  // Replication & failover (docs/REPLICATION.md). A standby server carries
  // the same `range`/`context_server` GUIDs as its primary but attaches to
  // the network as `standby_node`, holds no overlay presence and suppresses
  // all component-facing traffic until promote() swaps it into the primary
  // identity.
  enum class Role : std::uint8_t { kPrimary, kStandby };
  Role role = Role::kPrimary;
  Guid standby_node;        // required when role == kStandby
  std::uint32_t epoch = 0;  // incarnation number stamped on channel frames
  // Sharding (docs/SHARDING.md): when set with size > 1, this Range is
  // served by that many partner shard Context Servers, each owning the
  // slice of entity GUIDs the shared ShardMap hashes to it. Registrar,
  // mediator and context-store state split by owning shard; profiles mirror
  // everywhere so composition stays local. Null or size-1 map = classic
  // monolithic CS. Standbys inherit the map from their primary. Only the
  // lead shard (index 0) joins the SCINET overlay and appears in the range
  // directory; sibling shards serve components directly.
  std::shared_ptr<const ShardMap> shard_map;
  unsigned shard_index = 0;
  // Durability (docs/DURABILITY.md): when `storage` is set and
  // durability.enable, every applied replication record is appended to a
  // per-node write-ahead log under `store_name` (default: `name`) in the
  // StorageEnv (which outlives this server), checkpointed whenever it
  // outgrows its last checkpoint, and replayed by the constructor of the
  // next incarnation.
  persist::StorageEnv* storage = nullptr;
  std::string store_name;
};

// A component op parked while its subject's vnode is frozen mid-handoff.
// The wire form (originator, message type, length-prefixed payload) is the
// kHandoffReplay frame and the snapshot's staged-op entry.
struct StagedOp {
  Guid from;
  std::uint32_t type = 0;
  serde::BufferRef payload;

  void encode(serde::Writer& w) const;
  static Expected<StagedOp> decode(serde::Reader& r);
};

class ContextServer {
 public:
  // `directory` is the shared range-naming fabric; `semantics` the shared
  // semantic-equivalence registry; `locations` the world's location
  // directory. All must outlive the server.
  ContextServer(net::Network& network, RangeConfig config,
                RangeDirectory* directory,
                const compose::SemanticRegistry* semantics,
                const location::LocationDirectory* locations);
  ~ContextServer();

  ContextServer(const ContextServer&) = delete;
  ContextServer& operator=(const ContextServer&) = delete;

  // --- SCINET membership --------------------------------------------------
  // First range bootstraps the overlay; later ranges join through any
  // existing range.
  void bootstrap_overlay();
  Status join_overlay(Guid bootstrap_range);

  // Zero-configuration alternative: listen for another range's discovery
  // beacon for `listen_window`; join through the first one heard, or
  // bootstrap a fresh overlay when the window closes silent. Requires the
  // peers to have beaconing enabled (DiscoveryOptions::beacon_period).
  void join_via_discovery(Duration listen_window = Duration::seconds(3));
  [[nodiscard]] bool overlay_ready() const {
    return scinet_ != nullptr && scinet_->is_ready();
  }

  // --- replication & failover (docs/REPLICATION.md) -----------------------
  // Primary: enrol `standby_node` as a replica and bring it up to date.
  // A rejoining node that recovered state from its WAL announces the
  // incarnation and index it reached as (from_epoch, from_index); when they
  // match this log's index space and the log's tail still reaches back to
  // the watermark, only the delta above it ships (docs/DURABILITY.md),
  // otherwise a snapshot taken now. Creates the replication log on first
  // use.
  void attach_standby(Guid standby_node, std::uint32_t from_epoch = 0,
                      std::uint64_t from_index = 0);
  void detach_standby(Guid standby_node);

  // Standby: take over the range identity. The old primary must be fenced
  // (or dead and fence()d by the operator) first — its network node and
  // overlay id are reused verbatim. `join_via` is any live range to join
  // the overlay through (nil = bootstrap a fresh overlay).
  void promote(Guid join_via);

  // Superseded primary: halt every duty, detach from the network and free
  // the range/CS identities for the successor. Irreversible; the fenced
  // instance only remains valid for inspection (role, epoch, node_counter).
  void fence();

  // Standby: invoked (once) when primary heartbeats stay silent past
  // ReplicationConfig::promote_timeout(). The facade wires this to a
  // full fence-and-promote; tests may promote by hand instead. The handler
  // only fires after this standby WINS a majority vote (or when the group
  // is too small to elect).
  using PromoteRequestHandler = std::function<void()>;
  void set_promote_request_handler(PromoteRequestHandler handler) {
    on_promote_requested_ = std::move(handler);
  }

  // Standby: run for election now (an operator asked via FaultPlan::promote
  // without force), as the follower's watchdog does on silence. Falls back
  // to the plain promote request when the group cannot form a majority.
  void request_promotion() {
    if (follower_ != nullptr) follower_->request_promotion();
  }

  // --- quorum state (docs/REPLICATION.md) ----------------------------------
  // True when this instance's last promotion was won by majority vote
  // rather than operator fiat; elected_epoch() is the vote's epoch.
  [[nodiscard]] bool promoted_by_election() const {
    return elected_epoch_ != 0;
  }
  [[nodiscard]] std::uint32_t elected_epoch() const { return elected_epoch_; }
  // Every epoch in which this instance held the fencing lease at some
  // point. The split-brain invariant: across instances of one range, these
  // sets are disjoint per epoch.
  [[nodiscard]] const std::set<std::uint32_t>& lease_epochs() const {
    return lease_epochs_;
  }
  // Primary admission gate: false once the fencing lease lapsed (or the
  // instance is fenced) — mutating ops are refused, not acked.
  [[nodiscard]] bool admission_open() const {
    if (fenced_) return false;
    return repl_log_ == nullptr || repl_log_->holds_lease();
  }

  [[nodiscard]] RangeConfig::Role role() const { return config_.role; }
  [[nodiscard]] bool is_fenced() const { return fenced_; }
  [[nodiscard]] std::uint32_t epoch() const { return config_.epoch; }
  // The node this server is currently attached to the network as: the CS
  // node for a primary, standby_node for a standby.
  [[nodiscard]] Guid attached_node() const { return attached_as_; }
  // head − min(applied) over standbys; 0 when not replicating.
  [[nodiscard]] std::uint64_t replication_lag() const {
    return repl_log_ != nullptr ? repl_log_->lag() : 0;
  }
  [[nodiscard]] const replicate::ReplicationLog* replication_log() const {
    return repl_log_.get();
  }
  [[nodiscard]] const replicate::ReplicationFollower* replication_follower()
      const {
    return follower_.get();
  }
  [[nodiscard]] reliable::ReliableChannel& channel() { return channel_; }

  // --- durability (docs/DURABILITY.md) ------------------------------------
  // The write-behind durable store (nullptr when durability is off).
  [[nodiscard]] const persist::ShardStore* durable_store() const {
    return pstore_.get();
  }
  // True when the constructor replayed any state from the WAL/checkpoint.
  [[nodiscard]] bool recovered_from_disk() const { return recovered_any_; }
  // Incarnation and watermark the replay reached — the rejoin negotiation
  // announces these to the current primary (attach_standby).
  [[nodiscard]] std::uint32_t recovered_epoch() const {
    return recovered_epoch_;
  }
  [[nodiscard]] std::uint64_t recovered_watermark() const {
    return recovered_watermark_;
  }

  // --- Range Service (arrival/departure) ----------------------------------
  // Arrival detection: the world (or a test) tells the Range Service that a
  // component machine is now inside this range; the RS initiates the Fig 5
  // handshake by telling the component where the Registrar is. In a real
  // deployment this is the RS instance on the component's machine.
  void detect_arrival(Guid component);

  // Departure detection: boundary sensors (or the W-LAN edge) noticed the
  // component leaving. Deregisters and triggers recomposition.
  void detect_departure(Guid component);

  // --- accessors -----------------------------------------------------------
  [[nodiscard]] Guid id() const { return config_.range; }
  [[nodiscard]] Guid server_node() const { return config_.context_server; }
  [[nodiscard]] const RangeConfig& config() const { return config_; }
  [[nodiscard]] const Registrar& registrar() const { return registrar_; }
  [[nodiscard]] const ProfileManager& profiles() const { return profiles_; }
  [[nodiscard]] const EventMediator& mediator() const { return mediator_; }
  [[nodiscard]] const compose::ConfigurationStore& configurations() const {
    return store_;
  }
  [[nodiscard]] const ContextStore& context_store() const {
    return context_store_;
  }
  // Cross-incarnation publish dedup windows, by source.
  [[nodiscard]] const std::unordered_map<Guid, reliable::SeqDedup>&
  publish_windows() const {
    return publish_seen_;
  }
  // This server's state as one snapshot blob (docs/REPLICATION.md): what a
  // standby catching up and a checkpoint receive.
  [[nodiscard]] std::vector<std::byte> snapshot_state() const;
  // This server's slot of a node-labelled counter family: every counter
  // the server bumps (cs.*, view.*, reshard.*, repl.failovers, ...; see
  // docs/OBSERVABILITY.md), or nullptr for a name it does not count. The
  // label is metrics_label(), "node=<GUID the server was built on>", and the
  // slot outlives the object: a cold restart on the same node continues it.
  [[nodiscard]] const obs::Counter* node_counter(std::string_view name) const;
  [[nodiscard]] const std::string& metrics_label() const {
    return metrics_label_;
  }
  // Sim time of promote(); nullopt when this server never promoted.
  [[nodiscard]] std::optional<SimTime> promoted_at() const {
    return promoted_at_;
  }
  [[nodiscard]] overlay::ScinetNode& scinet() { return *scinet_; }
  [[nodiscard]] LocationService& location_service() { return locations_; }
  // Queries parked on a when-clause: a trigger or a not_before time.
  [[nodiscard]] std::size_t deferred_queries() const {
    return deferred_.size() + not_before_.size();
  }
  [[nodiscard]] std::size_t pending_queries() const {
    return pending_.size();
  }
  // Materialized view table (nullptr when ViewOptions::enable is off).
  [[nodiscard]] const compose::ViewCache* views() const {
    return views_.get();
  }

  // --- query lifecycle (QueryHandle support) -------------------------------
  // How the most recent admission of (app, query_id) was answered. Retained
  // for a bounded number of recent queries.
  struct QueryOutcome {
    bool view_hit = false;   // served from a materialized view
    bool answered = false;   // a result/subscription was produced
    std::uint64_t config_tag = 0;  // owning configuration (0 = none)
    double resolve_micros = 0.0;   // wall-clock cost of the resolve stage
    SimTime at = SimTime::zero();  // when the outcome was recorded
  };
  [[nodiscard]] std::optional<QueryOutcome> query_outcome(
      Guid app, const std::string& query_id) const;
  // Tears down whatever (app, query_id) left behind: tracked configurations
  // and their subscriptions, deferred trigger watches, not_before waits,
  // parked pending retries. Replicated: the standbys drop the same state.
  // Returns true when anything was cancelled.
  bool cancel_query(Guid app, const std::string& query_id);

  // --- direct subscriptions ------------------------------------------------
  // Type-pattern subscription: `subscriber` hears every `event_type` event
  // from ANY producer — including producers owned by sibling shards. On a
  // partitioned Range the entry is mirrored range-wide (a publish routes to
  // its producer's owner shard and never transits the subscriber's, so a
  // local-only wildcard would silently miss every remote producer). The
  // subscription is replicated, so a promoted standby keeps delivering.
  event::SubscriptionId subscribe_pattern(Guid subscriber,
                                          std::string event_type,
                                          event::EventFilter filter = {},
                                          std::uint64_t owner_tag = 0);
  // Tears a direct subscription down, including any sibling-shard mirrors.
  Status unsubscribe(event::SubscriptionId id);

  // --- sharding (docs/SHARDING.md) ----------------------------------------
  // Serving a slice of a partitioned Range (shard_map with size > 1).
  [[nodiscard]] bool sharded() const {
    return config_.shard_map != nullptr && config_.shard_map->size() > 1;
  }
  [[nodiscard]] unsigned shard_index() const { return config_.shard_index; }
  // Subscription ids this shard minted. A sibling's mirror keeps its home
  // shard's id, and owner tags, minted per shard, collide across shards.
  [[nodiscard]] bool minted_here(event::SubscriptionId id) const {
    return (id >> 48) == config_.shard_index;
  }
  // The shard index owning `entity` per the local ownership table (0 when
  // unsharded). The ring is shared and immutable; the vnode → shard table
  // is this server's epoch-versioned copy, advanced by committed handoffs.
  [[nodiscard]] unsigned shard_of(Guid entity) const {
    return sharded() ? map_.owner_of(entity) : 0;
  }
  // This shard owns `entity`'s registrar/store/mediator slice.
  [[nodiscard]] bool owns_entity(Guid entity) const {
    return !sharded() || shard_of(entity) == config_.shard_index;
  }

  // --- elastic resharding (docs/SHARDING.md) -------------------------------
  // The local epoch-versioned ownership table and its version.
  [[nodiscard]] const ShardMap& shard_map() const { return map_; }
  [[nodiscard]] std::uint64_t map_epoch() const { return map_.epoch(); }
  // EWMA of publishes/second admitted by this shard (1 s tick, alpha 0.3).
  [[nodiscard]] double publish_rate() const { return publish_rate_ewma_; }
  // Locally-owned vnodes ranked by recent publish volume, hottest first.
  [[nodiscard]] std::vector<unsigned> hot_vnodes(std::size_t n) const;
  // Starts a freeze-and-handoff migration of `vnode` to `target_shard`.
  // Returns false (no-op) when a handoff is already in flight here, the
  // vnode is not locally owned, or the target is invalid.
  bool begin_handoff(unsigned vnode, unsigned target_shard);
  [[nodiscard]] bool handoff_active() const {
    return outgoing_handoff_.has_value() || incoming_handoff_.has_value();
  }
  // Fault-injection hook: invoked at each protocol step ("freeze", "ship",
  // "ready", "commit", "broadcast", "install"). After the probe returns the
  // server re-checks its own liveness, so a probe that crashes this node
  // stops the protocol exactly at that step.
  using HandoffProbe = std::function<void(const char* step)>;
  void set_handoff_probe(HandoffProbe probe) {
    handoff_probe_ = std::move(probe);
  }

 private:
  // Everything the server must remember to re-resolve a configuration after
  // the environment changes.
  struct TrackedQuery {
    query::Query query;
    Guid app;
    bool one_time = false;
    // A bounded subscription's due time (replicated state) and, on a
    // primary, the timer that retires it then.
    SimTime expires_at = SimTime::infinity();
    sim::TimerHandle expiry;
  };

  // --- message plumbing ----------------------------------------------------
  void on_component_message(const net::Message& message);
  void on_scinet_deliver(const overlay::RoutedMessage& message);
  void send_to(Guid to, std::uint32_t type, serde::BufferRef payload);
  // Reliable variant when acked_delivery is on; falls back to send_to.
  void send_component(Guid to, std::uint32_t type,
                      serde::BufferRef payload);
  void on_channel_give_up(const net::Message& message, unsigned attempts);
  // The teardown of a subscriber whose lease lapsed: the owner's reaper
  // logs it (as the subscriber's kShardUnsubscribe) and tells every sibling
  // once; a sibling and a replica run the same step.
  void expire_lease(Guid subscriber);
  // The range-wide step of a lapse and a departure alike, run on every
  // shard: drops every row `subscriber` holds here, the mirror bookkeeping
  // of the rows this shard minted for it, and the edge bookkeeping naming
  // them.
  void drop_subscriber(Guid subscriber, bool lapsed);
  void reply_result(Guid app, const std::string& query_id, const Error& error,
                    Value result);
  // The reply step of a selection or subscription query: records its
  // outcome for query_outcome(), then answers the app.
  void finish_query(Guid app, const std::string& query_id, const Error& error,
                    Value result, double resolve_micros, bool view_hit = false,
                    std::uint64_t tag = 0);

  // --- Fig 5 handshake ------------------------------------------------------
  void handle_hello(const net::Message& message);
  void handle_register(const net::Message& message);

  // --- event pipeline --------------------------------------------------------
  void handle_publish(const net::Message& message);

  // --- query pipeline ---------------------------------------------------------
  void handle_query_submit(const net::Message& message);
  // The intake step of every arriving query: parks it while a mirror
  // rebuild runs, else logs it as a kQuery record (`wire`) and admits it.
  // `hold_until_committed` holds the arriving frame's channel ack until the
  // record commits.
  void accept_query(query::Query q, Guid app, serde::BufferRef wire,
                    bool hold_until_committed);
  // Routes/forwards/defers/executes. `app` is where results go.
  void admit_query(query::Query q, Guid app);
  void execute_query(const query::Query& q, Guid app);
  void execute_profile_request(const query::Query& q, Guid app);
  // Pull stored context about a subject (profile mode with a pattern what).
  void execute_context_pull(const query::Query& q, Guid app);
  void execute_advertisement_request(const query::Query& q, Guid app);
  void execute_subscription(const query::Query& q, Guid app, bool one_time);
  // Schedules a primary's kTimeout retirement of a bounded configuration at
  // its due time (now, if that has passed).
  void arm_bounded_expiry(std::uint64_t tag, TrackedQuery& tracked);

  // --- selection (which clause) ------------------------------------------------
  // The selection step of the profile, advertisement and direct
  // subscription modes: a view hit's selection, or find_candidates →
  // select_candidate → install_view. `keep_all` (profile mode) keeps every
  // candidate when the which-clause does not narrow them. The span points
  // into the view table or selection_, so read it before either changes.
  Expected<std::span<const Guid>> select_entities(const query::Query& q,
                                                  bool keep_all,
                                                  bool& view_hit);
  [[nodiscard]] std::vector<Guid> find_candidates(const query::Query& q) const;
  Expected<Guid> select_candidate(const query::Query& q,
                                  std::vector<Guid> candidates);
  [[nodiscard]] bool meets_requirements(const query::Query& q,
                                        const entity::Profile& p) const;

  // --- composition -----------------------------------------------------------
  // `view_hit` reports whether a materialized view supplied the plan.
  Expected<std::uint64_t> build_configuration(const query::Query& q, Guid app,
                                              bool one_time, bool& view_hit);
  [[nodiscard]] compose::ResolveRequest resolve_request_for(
      const query::Query& q, std::uint64_t tag) const;
  [[nodiscard]] event::EventFilter app_edge_filter(
      const compose::ConfigurationPlan& plan,
      const compose::ResolveRequest& request, const query::WhichClause& which,
      std::uint64_t tag) const;
  // The wiring step: admits configuration `tag` (or replaces its plan),
  // configures the plan's entities, then sets up new edges and tears down
  // the ones no configuration uses any more.
  void rewire(std::uint64_t tag, const compose::ConfigurationPlan& plan,
              const TrackedQuery& tracked);
  // Subscribes the app to the configuration's sink, replacing the edge it
  // held.
  void bind_app_edge(std::uint64_t tag, const compose::ConfigurationPlan& plan,
                     const compose::ResolveRequest& request,
                     const TrackedQuery& tracked);
  void establish_edges(const std::vector<compose::PlanEdge>& edges,
                       std::uint64_t tag);
  void tear_down_edges(const std::vector<compose::PlanEdge>& edges);
  void configure_entities(const compose::ConfigurationPlan& plan);
  // True when anything was torn down.
  bool retire_configuration(std::uint64_t tag);

  // --- adaptation (Range Service) -----------------------------------------------
  void departure(Guid component, bool failure);
  void recompose_after_loss(Guid lost_entity);
  void retry_pending_queries();
  void rebind_after_arrival();
  void ping_tick();

  // --- deferred queries -----------------------------------------------------------
  void check_triggers(const event::Event& event,
                      const location::LocRef& new_location);
  // Withdraws (app, query_id) from every parked list and logs that as a
  // kQueryCancel, which a replica replays through this same step. Returns
  // true when anything was withdrawn.
  bool withdraw_parked_query(Guid app, const std::string& query_id);

  // --- sharding internals (docs/SHARDING.md) -------------------------------
  [[nodiscard]] Guid shard_node(unsigned index) const {
    return config_.shard_map != nullptr ? config_.shard_map->node_of(index)
                                        : config_.context_server;
  }
  // Sends the subject's current profile (+ advertisement) to every sibling
  // shard so find_candidates/resolve run locally on each of them.
  void broadcast_profile_mirror(Guid subject);
  void broadcast_profile_remove(Guid subject);
  // Queues one mirror record to every sibling shard.
  void queue_to_siblings(std::uint32_t type, const serde::BufferRef& payload);
  void handle_shard_profile(const net::Message& message);
  void handle_shard_profile_remove(const net::Message& message);
  void handle_shard_subscribe(const net::Message& message);
  void handle_shard_unsubscribe(const net::Message& message);
  // A freshly created subscription whose named producer lives on another
  // shard moves out of the local table (it could never match here — the
  // producer's publishes land on its owner shard) and installs over the
  // reliable channel on that shard, keeping its id.
  void mirror_subscription_if_remote(event::SubscriptionId id);
  // Copies a type-pattern (no named producer) subscription onto every
  // sibling shard so publishes landing there still reach the subscriber;
  // the local entry stays for locally-owned producers.
  void mirror_wildcard_subscription(const event::Subscription& s);
  // Tears down the remote copies of a mirrored subscription, if any.
  void drop_mirror(event::SubscriptionId id);
  // Forwards a query to the shard owning `subject` (context pulls, trigger
  // watches); results go straight back to `app`.
  void forward_to_shard(const query::Query& q, Guid app, unsigned shard);
  // Decode-and-apply halves of the mirror handlers, shared with
  // apply_record so a shard's standby mutates state identically. Returns
  // the subject, or nil when the mirror was refused: it is older than the
  // profile held, or its subject is owned here.
  Guid ingest_shard_profile(serde::FrameView payload);
  // Stores a profile unless it is older than the one held, then
  // invalidates the views it could change. Returns the subject, or nil.
  Guid put_profile(entity::ProfileRecord record);
  // `own_id_space` distinguishes a self-logged direct subscription (the
  // standby's mint counter must advance past its id, and its sibling
  // mirrors are rebuilt) from a sibling mirror or installed row (an id
  // space that must not leak into the local counter). False when the row
  // does not decode.
  bool ingest_shard_subscribe(serde::FrameView payload,
                              bool own_id_space = false);
  // Entity ids / profiles the selection and composition stages scan. On a
  // monolithic CS these are the registrar's non-apps; on a shard they also
  // cover profiles mirrored in from sibling shards.
  [[nodiscard]] std::vector<Guid> composable_entities() const;
  [[nodiscard]] std::vector<entity::Profile> composable_profiles() const;
  // Decode-and-apply half of handle_shard_profile_remove, shared with
  // apply_record kShardDrop. False (nothing done) for a registrar member:
  // its profile is owned state, never a mirror.
  bool ingest_shard_drop(Guid subject);
  // The primary's half of a sibling put/drop: apply it, then log it now or
  // leave it in the unlogged set, and run the follow-on work when logged.
  void accept_mirror_put(serde::FrameView payload);
  void accept_mirror_drop(Guid subject);
  // Unlogged mirrors (docs/SHARDING.md, "State split and mirrors"). A
  // sibling put/drop is logged only once a record a replica replays could
  // read it. Returns true when the change was logged (or no log exists), so
  // the caller runs its follow-on work now.
  bool note_mirror_change(Guid subject, bool must_log);
  // True while this server holds state that re-resolves over mirrors when
  // a log record replays: configurations, or parked, deferred or
  // not-before queries.
  [[nodiscard]] bool reads_mirrors() const {
    return !tracked_.empty() || !pending_.empty() || !deferred_.empty() ||
           !not_before_.empty();
  }
  // Writes one kShardProfile/kShardDrop record per unlogged mirror, encoded
  // from the current profile, then clears the set.
  void log_unlogged_mirrors();
  // Logs a kQuery record behind the unlogged mirrors it may read.
  std::uint64_t log_query(Guid app, serde::BufferRef wire);
  // Mirror rebuild after promote() or WAL recovery: pull every sibling's
  // owned profiles, apply the answers, sweep ghosts, then admit the
  // queries parked meanwhile.
  void begin_mirror_rebuild();
  void send_mirror_pull(unsigned sibling);
  void handle_shard_mirror_pull(const net::Message& message);
  void handle_shard_mirror_set(const net::Message& message);
  void mirror_pull_answered(unsigned sibling);
  [[nodiscard]] bool rebuilding() const { return !mirror_pulls_.empty(); }
  // Holds an arriving query (and its channel ack) until the rebuild is done.
  void park_query(query::Query q, Guid app, serde::BufferRef wire,
                  bool hold_until_committed);
  // The sibling shard index attached as `node`, if any.
  [[nodiscard]] std::optional<unsigned> sibling_at(Guid node) const;
  // Mirror batching (docs/SHARDING.md): per-destination buffers coalesce
  // kShardProfile/kShardSubscribe bursts into kShardBatch frames, flushed at
  // a size cap or a 1 ms timer.
  void queue_mirror(Guid node, std::uint32_t type,
                    serde::BufferRef payload);
  void flush_mirrors();
  void handle_shard_batch(const net::Message& message);

  // --- resharding internals (docs/SHARDING.md) -----------------------------
  void handle_handoff_freeze(const net::Message& message);
  void handle_handoff_ready(const net::Message& message);
  void handle_handoff_commit(const net::Message& message);
  void handle_handoff_abort(const net::Message& message);
  void handle_handoff_replay(const net::Message& message);
  // True when the op was parked (or consumed) by an active freeze window;
  // the caller must not process it further.
  bool stage_if_frozen(const net::Message& message);
  // True when the frame came from a subject whose vnode now lives on another
  // shard (stale-routed after a handoff): it was bounced to the owner inside
  // a replay envelope and the sender was re-pointed with kRedirect.
  bool bounce_stale_frame(const net::Message& message);
  // (Re)schedules the incoming handoff's silence watchdog (see
  // IncomingHandoff::deadline).
  void arm_incoming_deadline();
  // Writes a state slice: a record count, then one CRC frame per member,
  // profile, stored event, publish-dedup window, subscription row and
  // subscriber lease. One vnode's slice is what a handoff ships; the whole
  // server's is the snapshot's entity state (docs/SHARDING.md).
  void write_state_slice(serde::Writer& out,
                         std::optional<unsigned> vnode) const;
  // Installs one slice record, on a handoff's commit or a snapshot's apply.
  // An error when it does not decode.
  Status install_state_record(serde::FrameView record);
  // Stages the slice a kHandoffFreeze frame (or the target's kHandoffIntent
  // record) carries as the incoming handoff. False when it is damaged.
  bool stage_incoming_handoff(const serde::BufferRef& frame);
  void send_handoff_ready();
  // Commit point: logs kHandoffCommit (WAL + replication), then completes.
  void commit_outgoing_handoff();
  // Post-commit completion: local apply, commit broadcast, staged replay,
  // component redirects. Idempotent at every receiver; re-run verbatim by a
  // successor that recovered a committed-but-unfinished handoff.
  void complete_outgoing_handoff();
  void abort_outgoing_handoff(const char* why);
  // Installs the staged incoming state slice at the target.
  void install_incoming_handoff();
  // Applies a committed ownership change to the local map and sheds/repoints
  // state accordingly. Idempotent: stale epochs are ignored.
  void apply_handoff_commit(unsigned vnode, unsigned new_owner,
                            std::uint64_t epoch);
  // After promotion or cold restart: abort an uncommitted handoff, finish a
  // committed one, or re-signal readiness for a fully staged incoming one.
  void resolve_recovered_handoff();
  // Runs the probe hook, then reports whether this node is still alive (a
  // probe may have crashed it — the protocol stops exactly there).
  bool handoff_probe_step(const char* step);
  // Feeds one staged or replayed op through the normal admission path.
  void reingest_staged(StagedOp op);
  [[nodiscard]] std::vector<Guid> subjects_in_vnode(unsigned vnode) const;

  // --- materialized views (docs/VIEWS.md) ----------------------------------
  // Normalized cache key for a query after owner-relative anchoring, or ""
  // when the query is not view-cacheable (freshness contracts, context
  // pulls, subject-parameterised patterns).
  [[nodiscard]] std::string view_key(const query::Query& q) const;
  // Dependency set shared by every view of `q`: the requested type /
  // service name, plus the concrete anchor entity.
  [[nodiscard]] compose::ViewDeps view_deps_for(
      const query::Query& q, const std::vector<Guid>& consulted) const;
  void install_view(compose::ViewEntry entry);
  // Invalidation fan-in: every environment delta lands on one of these two.
  // Both run identically on primary and standby: the hooks live in the
  // shared ingest/admit paths that replay every logged record.
  void invalidate_views_for_subject(Guid subject);
  void invalidate_views_matching(const entity::Profile& profile);
  void note_view_drops(std::size_t dropped);

  // --- replication ---------------------------------------------------------
  // Mints the next index for a record, encodes it once into its
  // replication frame, and hands that frame to the replication log and its
  // record bytes to the WAL, whichever exist. Returns the index; 0 (no sync
  // wait possible) when neither exists, so the hot path costs one branch.
  std::uint64_t log_record(replicate::RecordKind kind, Guid subject,
                           std::uint64_t flag, serde::BufferRef payload);
  // Follower apply callback: replays one primary operation locally.
  void apply_record(const replicate::LogRecord& record);
  void apply_snapshot_state(const std::vector<std::byte>& blob,
                            std::uint64_t base_index);
  [[nodiscard]] std::uint64_t state_fingerprint() const;
  // Registrar + profile admission shared by handle_register (primary) and
  // apply_record (standby) so both sides mutate state identically.
  Status admit_registration(Guid component,
                            const entity::RegisterRequestBody& body);
  // Replication commit (ReplicationOptions::sync_acks): defer the admit of
  // the record at `index` — the current frame's channel ack and `reply`,
  // if any — until enough standbys applied it and it is durable.
  void hold_admit_until_committed(std::uint64_t index,
                                  std::function<void()> reply);
  // --- durability internals (docs/DURABILITY.md) ---------------------------
  // An admitted op completes (acks release) only when BOTH its replication
  // commit requirement (sync_acks) and its durability requirement
  // (ack_after_fsync) are met.
  [[nodiscard]] bool admit_complete(std::uint64_t index) const;
  void release_completed_admits();
  void init_durable_store();
  void recover_from_store();
  // Store + dispatch + trigger stage of handle_publish, shared with
  // apply_record.
  void ingest_publish(const entity::PublishBody& body);
  // Fans `event` out and retires the one-time configurations it satisfied;
  // also the redelivery step of promote().
  void dispatch(const event::Event& event);
  void remember_recent(const event::Event& event);
  void start_primary_duties();
  // Standbys, fenced instances and a server mid-WAL-replay stay silent: the
  // replayed operations already produced their sends in a past life.
  [[nodiscard]] bool passive() const {
    return config_.role == RangeConfig::Role::kStandby || fenced_ ||
           recovering_;
  }

  net::Network& network_;
  RangeConfig config_;
  RangeDirectory* directory_;
  const compose::SemanticRegistry* semantics_ = nullptr;
  const location::LocationDirectory* location_directory_;
  reliable::ReliableChannel channel_;

  Registrar registrar_;
  ProfileManager profiles_;
  EventMediator mediator_;
  ContextStore context_store_;
  LocationService locations_;
  compose::Resolver resolver_;
  compose::ConfigurationStore store_;
  std::unique_ptr<overlay::ScinetNode> scinet_;

  // A parked query: waiting on a when-trigger, a not_before time or its
  // sources.
  struct DeferredQuery {
    query::Query query;
    Guid app;
    SimTime stored_at;
    // Its expiry or not_before timer, cancelled when the query fires, is
    // cancelled, or the server is fenced/destroyed (the closure would
    // otherwise outlive us).
    sim::TimerHandle expiry;
  };
  // The primary's timer on a parked query: a trigger watch's kTimeout at
  // stored_at + expires_after (none without an expiry), or a not_before
  // query's release at its time; now, if that has passed. Each logs what it
  // changes: a kQueryCancel, and for a release the released kQuery.
  void arm_parked(DeferredQuery& parked);
  // Erases every parked query `match` accepts, from every list, timers
  // included. Returns true when anything was erased.
  bool erase_parked(const std::function<bool(const DeferredQuery&)>& match);
  // Cancels every parked query's timer (the lists stay as they are).
  void cancel_query_timers();
  // Queries waiting on a when-trigger.
  std::vector<DeferredQuery> deferred_;
  // Subscription queries that could not be resolved yet (waiting for
  // sources to arrive).
  std::vector<DeferredQuery> pending_;
  // Queries waiting for their not_before time.
  std::vector<DeferredQuery> not_before_;

  // Edge bookkeeping: share-key -> subscription id, so retired plan edges
  // can find their subscriptions.
  std::unordered_map<std::string, event::SubscriptionId> edge_subscriptions_;
  // Per-configuration application-facing subscription.
  std::unordered_map<std::uint64_t, event::SubscriptionId> app_edges_;
  // Per-configuration originating query (for recomposition).
  std::unordered_map<std::uint64_t, TrackedQuery> tracked_;

  // Materialized view table (docs/VIEWS.md); nullptr when disabled.
  std::unique_ptr<compose::ViewCache> views_;
  // Recent query outcomes for QueryHandle introspection, FIFO-bounded.
  std::map<std::pair<Guid, std::string>, QueryOutcome> query_outcomes_;
  std::deque<std::pair<Guid, std::string>> outcome_order_;
  // Shared liveness flag captured by deferred-execution closures (expiry
  // timers, not-before schedules): set false on fence()/destruction so a
  // closure that outlives this server returns instead of touching freed
  // state (the bug class of a candidacy timer outliving its follower).
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  // Registry instruments (interned once in the constructor; every increment
  // below is pointer-chased, not looked up). Counters are TwinCounters: the
  // deployment total plus this server's metrics_label_ slot.
  std::string metrics_label_;
  obs::TwinCounter m_registrations_;
  obs::TwinCounter m_departures_;
  obs::TwinCounter m_failures_;
  obs::TwinCounter m_queries_received_;
  obs::TwinCounter m_queries_forwarded_;
  obs::TwinCounter m_queries_adopted_;
  obs::TwinCounter m_queries_deferred_;
  obs::TwinCounter m_queries_answered_;
  obs::TwinCounter m_queries_failed_;
  obs::TwinCounter m_configurations_;
  obs::TwinCounter m_recompositions_;
  obs::TwinCounter m_recomposition_failures_;
  obs::TwinCounter m_events_in_;
  obs::TwinCounter m_duplicate_publishes_;
  obs::TwinCounter m_delivery_dead_letters_;
  obs::TwinCounter m_dead_letters_;
  obs::TwinCounter m_view_hits_;
  obs::TwinCounter m_view_misses_;
  obs::TwinCounter m_view_installs_;
  obs::TwinCounter m_view_invalidations_;
  obs::TwinCounter m_view_evictions_;
  obs::TwinCounter m_view_decode_failures_;
  obs::Gauge* m_view_size_ = nullptr;
  obs::Histogram* m_view_staleness_ = nullptr;
  obs::TraceBuffer* trace_ = nullptr;

  std::uint64_t next_tag_ = 1;
  std::optional<sim::PeriodicTimer> ping_timer_;
  std::optional<sim::PeriodicTimer> beacon_timer_;
  bool discovering_ = false;

  // --- durability state (docs/DURABILITY.md) -------------------------------
  std::unique_ptr<persist::ShardStore> pstore_;  // nullptr = durability off
  // The last log index minted, applied or recovered here: the one index
  // sequence of WAL and replication log alike (log_record mints above it).
  std::uint64_t log_head_ = 0;
  bool recovering_ = false;      // constructor replaying WAL — stay silent
  bool recovered_any_ = false;
  std::uint32_t recovered_epoch_ = 0;
  std::uint64_t recovered_watermark_ = 0;

  // --- replication state ---------------------------------------------------
  std::unique_ptr<replicate::ReplicationLog> repl_log_;      // primary side
  // Standby side, election included (the fencing lease lives in repl_log_).
  std::unique_ptr<replicate::ReplicationFollower> follower_;
  std::uint32_t elected_epoch_ = 0;  // epoch of the vote that promoted us
  std::set<std::uint32_t> lease_epochs_;
  // Admits held for the replication commit and the WAL fsync, in index
  // order: the held channel ack (invalid when there is none) and the reply.
  struct HeldAdmit {
    std::uint64_t index = 0;
    reliable::AckTicket ack;
    std::function<void()> reply;
  };
  std::deque<HeldAdmit> held_admits_;
  PromoteRequestHandler on_promote_requested_;
  Guid attached_as_;     // current network identity (CS node or standby node)
  bool fenced_ = false;
  // Cross-incarnation publish dedup: (source → sequence window), maintained
  // identically on primary and standby, so a publish the dead primary acked
  // and replicated is not re-dispatched when the component retransmits it to
  // the promoted standby.
  std::unordered_map<Guid, reliable::SeqDedup> publish_seen_;
  // The last kRecentEventWindow dispatched events, redelivered after
  // promotion to close the primary's in-flight delivery hole (components
  // dedup the overlap).
  std::deque<event::Event> recent_events_;
  // Owner tags harvested from the mediator's scratch matches before
  // retire_configuration can re-enter dispatch; capacity reused per publish.
  std::vector<std::uint64_t> retire_scratch_;
  // A selection-step miss's chosen entities; capacity reused per query.
  std::vector<Guid> selection_;
  obs::TwinCounter m_promotions_;
  obs::TwinCounter m_lease_rejected_;
  std::optional<SimTime> promoted_at_;

  // --- sharding state ------------------------------------------------------
  // Subscriptions this shard created whose copies live on siblings: a
  // wildcard's on every sibling, a moved one's on its producer's owner per
  // the current map. Replicated via the snapshot so a promoted standby can
  // still tear the remote copies down.
  std::map<event::SubscriptionId, event::Subscription> mirrored_subs_;
  // Sibling mirrors applied here but not yet logged, in GUID order. Held
  // only while a log exists; empty whenever reads_mirrors().
  std::set<Guid> unlogged_mirrors_;
  // Mirror rebuild: siblings yet to answer the pull tagged
  // mirror_pull_id_, and the queries parked until it is done (arrival
  // order).
  std::set<unsigned> mirror_pulls_;
  std::uint64_t mirror_pull_id_ = 0;
  // Per sibling, the pull id of the incarnation our pull was re-sent to.
  std::map<unsigned, std::uint64_t> mirror_repulls_;
  struct ParkedQuery {
    query::Query query;
    Guid app;
    serde::BufferRef wire;  // the kQuery record payload
    bool hold_until_committed = false;
    reliable::AckTicket ack;
  };
  std::vector<ParkedQuery> rebuild_parked_;
  obs::TwinCounter m_mirrors_logged_;
  obs::TwinCounter m_mirror_rebuilds_;
  obs::TwinCounter m_shard_redirects_;
  obs::TwinCounter m_shard_profile_mirrors_;
  obs::TwinCounter m_shard_sub_mirrors_;
  obs::TwinCounter m_shard_forwarded_;

  // --- resharding state (docs/SHARDING.md) ---------------------------------
  // This server's epoch-versioned ownership copy, seeded from the shared
  // RangeConfig map (or a trivial 1-shard map when unsharded) and advanced
  // by committed handoffs. The ring itself never changes.
  ShardMap map_{1};
  struct OutgoingHandoff {
    std::uint64_t id = 0;
    unsigned vnode = 0;
    unsigned target = 0;
    std::uint64_t epoch = 0;  // proposed map epoch
    bool ready = false;       // target acknowledged full staging
    bool committed = false;   // kHandoffCommit logged — point of no return
    std::vector<StagedOp> staged;
    sim::TimerHandle deadline;  // abort when the target stays silent
  };
  struct IncomingHandoff {
    std::uint64_t id = 0;
    unsigned vnode = 0;
    unsigned source = 0;
    std::uint64_t epoch = 0;
    serde::BufferRef frame;                 // the kHandoffFreeze frame
    std::size_t records = 0;                // state records in its slice
    // Re-nudges kHandoffReady at the source (or its successor) while no
    // commit or abort has come.
    sim::TimerHandle deadline;
  };
  std::optional<OutgoingHandoff> outgoing_handoff_;
  std::optional<IncomingHandoff> incoming_handoff_;
  std::uint64_t next_handoff_seq_ = 0;
  SimTime handoff_started_at_ = SimTime::zero();
  HandoffProbe handoff_probe_;
  // Publish-rate EWMA + per-vnode heat, driving Sci::rebalance_range.
  double publish_rate_ewma_ = 0.0;
  std::uint64_t publish_window_count_ = 0;
  std::unordered_map<unsigned, std::uint64_t> vnode_publishes_;
  std::optional<sim::PeriodicTimer> rate_timer_;
  // Mirror batching buffers (flush at size cap or the 1 ms timer).
  std::map<Guid, std::vector<std::pair<std::uint32_t, serde::BufferRef>>>
      mirror_buffers_;
  sim::TimerHandle mirror_flush_timer_;
  bool mirror_flush_scheduled_ = false;
  obs::TwinCounter m_mirror_batches_;
  obs::Gauge* m_publish_rate_ = nullptr;
  obs::TwinCounter m_reshard_handoffs_;
  obs::TwinCounter m_reshard_staged_;
  obs::TwinCounter m_reshard_aborts_;
  obs::Histogram* m_reshard_pause_ = nullptr;
};

}  // namespace sci::range
