// SCI — public facade.
//
// `Sci` owns one simulated deployment of the Strathclyde Context
// Infrastructure: the discrete-event simulator, the network fabric, the
// shared semantic registry and range directory, the SCINET membership of
// every range, and (once a location directory is supplied) the mobility
// world. Examples, tests and benches build everything through this type:
//
//   sci::Sci sci(/*seed=*/42);
//   sci::mobility::Building building({.floors = 2, .rooms_per_floor = 4});
//   sci.set_location_directory(&building.directory());
//   auto& level0 = *sci.create_range("level0", building.floor_path(0)).value();
//   ...
//   sci.run_for(sci::Duration::seconds(5));
//   std::string report = sci.metrics().snapshot().to_json();
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/expected.h"
#include "compose/semantics.h"
#include "entity/component.h"
#include "mobility/building.h"
#include "mobility/world.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "overlay/scinet.h"
#include "persist/storage.h"
#include "query/query.h"
#include "range/context_server.h"
#include "range/directory.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"

namespace sci {

// Everything a caller may configure about a range (README "Range options").
using RangeOptions = range::RangeOptions;

// What a Context Server instance currently is (Sci::range_role).
enum class RangeRole : std::uint8_t {
  kPrimary,  // serving the range
  kStandby,  // replicating, ready to promote
  kFenced,   // superseded ex-primary, permanently silent
};
const char* to_string(RangeRole role);

class Sci {
 public:
  explicit Sci(std::uint64_t seed = 42);
  ~Sci();

  Sci(const Sci&) = delete;
  Sci& operator=(const Sci&) = delete;

  // --- substrate access -----------------------------------------------------
  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] compose::SemanticRegistry& semantics() { return semantics_; }
  [[nodiscard]] range::RangeDirectory& directory() { return directory_; }

  // Supplies the world's location model (typically a mobility::Building's
  // directory). Must be called before create_range / world(). The pointee
  // must outlive this Sci.
  void set_location_directory(const location::LocationDirectory* directory);

  // The mobility world (requires a location directory).
  [[nodiscard]] mobility::World& world();

  // --- observability --------------------------------------------------------
  // The deployment-wide metrics registry and trace ring. Every layer
  // (simulator, fabric, overlay, mediator, context servers) records here;
  // `metrics().snapshot().to_json()` yields the full instrument catalogue.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return simulator_.metrics(); }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return simulator_.metrics();
  }
  [[nodiscard]] obs::TraceBuffer& trace() { return simulator_.trace(); }
  [[nodiscard]] const obs::TraceBuffer& trace() const {
    return simulator_.trace();
  }

  // --- ranges -----------------------------------------------------------------
  // Creates a Range governing `root`; the first range bootstraps the
  // SCINET, later ranges join through it. Runs the simulator briefly so the
  // join completes. Fails with kAlreadyExists on a duplicate range name,
  // kInvalidArgument on a name containing '#' (reserved for shards), a
  // non-positive ping period (or heartbeat/promote timeout with standbys),
  // or a sync_acks of 0 or (with standbys) above standby_count, and
  // kTimeout when the overlay join does not settle; the returned pointer
  // is owned by this Sci and lives until destruction.
  Expected<range::ContextServer*> create_range(std::string name,
                                               location::LogicalPath root,
                                               RangeOptions options = {});

  // Non-owning view over the ranges, in creation order.
  [[nodiscard]] std::vector<range::ContextServer*> ranges() const;
  [[nodiscard]] range::ContextServer* find_range(std::string_view name);

  // --- sharding (docs/SHARDING.md) -----------------------------------------
  // Every shard of the named Range, lead first ("name", "name#1", …). A
  // monolithic range returns just its one server; unknown names return {}.
  [[nodiscard]] std::vector<range::ContextServer*> shards(
      std::string_view range);
  // Index of the shard that owns `entity` under the named Range's map (0
  // for a monolithic range). kNotFound for unknown names.
  Expected<unsigned> shard_of(std::string_view range, Guid entity);
  // Load-aware elastic rebalance (docs/SHARDING.md): moves up to `max_moves`
  // hot vnodes off the busiest shard (by publish-rate EWMA) onto the least
  // loaded one, running the simulator until each freeze→ship→commit handoff
  // settles. Returns how many vnodes actually moved (0 when load is already
  // level). kNotFound for unknown names, kUnavailable for monolithic ranges.
  Expected<unsigned> rebalance_range(std::string_view range,
                                     unsigned max_moves = 1);

  // --- replication & failover (docs/REPLICATION.md) ---------------------------
  // Creates one more standby for an existing range and brings it up to date
  // (a snapshot taken now, or the log delta above a recovered watermark).
  // create_range calls this standby_count times; later calls add cold
  // standbys to a live deployment.
  Expected<range::ContextServer*> add_standby(std::string_view range);

  // Standbys currently attached to `range` (empty when none / unknown).
  [[nodiscard]] std::vector<range::ContextServer*> standbys(
      std::string_view range) const;

  // Role of the instance attached to the network as `node` — a primary's
  // server node, a standby's node, or a fenced ex-primary's last identity.
  // Live instances win the lookup when a fenced one shares the GUID.
  [[nodiscard]] Expected<RangeRole> range_role(Guid node) const;

  // Operator-fiat failover (DEBUG HOOK — docs/REPLICATION.md): fences the
  // range's current primary (it stays alive but permanently silent) and
  // promotes the standby attached as `standby_node` under the primary's
  // range/CS identities. Components keep their registrations; subscriptions
  // and configurations keep firing. Production failover goes through
  // request_election(); this bypasses the vote and is kept for tests,
  // 1-standby deployments, and operator last resort.
  Status promote(Guid standby_node);
  // Same, picking the range by name and its first standby.
  Status promote_range(std::string_view range);

  // Asks every standby of `range` to run for election now (the same path
  // the watchdog takes on primary silence). The winner promotes itself
  // through the facade; groups too small to form a majority fall back to
  // the watchdog/fiat path. kNotFound for unknown ranges, kUnavailable when
  // the range has no standbys.
  Status request_election(std::string_view range);

  // --- dead letters -----------------------------------------------------------
  // The bounded parking lot of frames `range`'s retransmit budget gave up
  // on (dest, seq, cause, age — see reliable::DeadLetter). Addresses one
  // instance: shard queues are reachable by their own names ("name#1"…).
  Expected<const reliable::DeadLetterQueue*> dead_letters(
      std::string_view range);
  // Re-sends every parked frame through the reliable path; returns how many.
  // On a partitioned range the base name covers every shard's queue.
  Expected<std::size_t> replay_dead_letters(std::string_view range);
  // Discards the parked frames, returning them for inspection. On a
  // partitioned range the base name drains every shard's queue.
  Expected<std::vector<reliable::DeadLetter>> drain_dead_letters(
      std::string_view range);

  // --- queries (docs/VIEWS.md) ----------------------------------------------
  // Value handle over a submitted Fig-6 query: cancel it wherever it left
  // state, resubmit it, and inspect how its last resolve went (answered
  // from a materialized view or recomputed). Copyable; every copy refers to
  // the same deployment-side query. Valid while the Sci and app live.
  class QueryHandle {
   public:
    [[nodiscard]] const query::Query& query() const { return query_; }
    [[nodiscard]] const std::string& id() const { return query_.id; }

    // Tears down everything the query left behind on any server —
    // composed configurations, direct subscriptions, deferred trigger
    // watches (and their expiry timers), parked retries. Returns whether
    // anything was actually cancelled.
    bool cancel();
    // Re-submits the same query document through the owning app.
    Status refresh();
    // Whether the most recent resolve was answered from a materialized
    // view (false when views are off or the query never resolved).
    [[nodiscard]] bool is_view_backed() const;
    // The most recent resolve outcome across all servers, if any.
    [[nodiscard]] std::optional<range::ContextServer::QueryOutcome>
    last_outcome() const;

   private:
    friend class Sci;
    QueryHandle(Sci* sci, entity::ContextAwareApp* app, query::Query q)
        : sci_(sci), app_(app), query_(std::move(q)) {}

    Sci* sci_;
    entity::ContextAwareApp* app_;
    query::Query query_;
  };

  // Validates `q` and submits it through `app` (which must be enrolled),
  // returning the handle. Pairs with query::Builder:
  //   auto handle = sci.submit_query(app,
  //       query::Builder("q1", app.id())
  //           .what_entity_type("printing").closest_to_me().advertisement());
  Expected<QueryHandle> submit_query(entity::ContextAwareApp& app,
                                     query::Query q);

  // --- component lifecycle ------------------------------------------------------
  // Starts `component` at (x, y), points it at `server`'s Range Service and
  // runs the simulator until the Fig 5 handshake completes (bounded wait).
  Status enroll(entity::Component& component, range::ContextServer& server,
                double x = 0.0, double y = 0.0);

  // --- durability (docs/DURABILITY.md) --------------------------------------
  // The deployment's simulated disk. Owned here so it outlives every
  // Context Server object — the precondition for honest cold restarts.
  [[nodiscard]] persist::StorageEnv& storage() { return storage_; }

  // Cold-stops the named range: destroys its primary, sibling shards and
  // attached standbys (remembering their identities), leaving only what
  // their ShardStores made durable. Deliberately no flush first — this
  // models a power cut, and with ack_after_fsync on every *acked* op is
  // durable anyway. Not compatible with world() mobility tracking of this
  // range.
  Status shutdown_range(std::string_view range);

  // Rebuilds a shut-down range from the durable store: same GUIDs, state
  // recovered from checkpoint + WAL tail, overlay re-joined. Enrolled
  // components keep their registrations and subscriptions. Standbys are not
  // resurrected automatically — add_standby() brings them back, recovering
  // their own WALs and rejoining via delta catch-up.
  Expected<range::ContextServer*> recover_range(std::string_view range);

  // Cold-stops one standby (its primary keeps serving). The standby's WAL
  // stays in storage; the next add_standby on the range reuses the slot,
  // recovers it, and rejoins shipping only the delta above its watermark.
  Status shutdown_standby(Guid standby_node);

  // --- fault injection --------------------------------------------------------
  // Schedules every event of `plan` relative to the current simulated time.
  // Range names resolve when the event fires, so a plan may reference
  // ranges created after injection. Unknown names are logged and skipped.
  void inject_faults(const sim::FaultPlan& plan);

  // --- time -------------------------------------------------------------------
  void run_for(Duration duration) {
    simulator_.run_until(simulator_.now() + duration);
  }
  [[nodiscard]] SimTime now() const { return simulator_.now(); }

  // Fresh GUID from the deployment's deterministic stream.
  Guid new_guid() { return Guid::random(rng_); }
  [[nodiscard]] Rng& rng() { return rng_; }

 private:
  // Fences the acting primary of the range and promotes the standby at
  // `it` within `list`. The fenced primary moves to the graveyard.
  Status promote_instance(
      Guid range_id,
      std::vector<std::unique_ptr<range::ContextServer>>& list,
      std::size_t index);
  // A standby's promote request (election won, or watchdog fired in a group
  // too small to elect): promote only if it won or the primary looks dead.
  void auto_promote(Guid range_id, Guid standby_node);

  sim::Simulator simulator_;
  net::Network network_;
  persist::StorageEnv storage_;
  Rng rng_;
  compose::SemanticRegistry semantics_;
  range::RangeDirectory directory_;
  const location::LocationDirectory* locations_ = nullptr;
  std::optional<mobility::World> world_;
  std::vector<std::unique_ptr<range::ContextServer>> ranges_;
  // Standbys per range id, promotion order = attach order.
  std::unordered_map<Guid, std::vector<std::unique_ptr<range::ContextServer>>>
      standbys_;
  // Fenced ex-primaries. Kept alive until teardown as witnesses (tests and
  // operators still read their metrics/epoch); fence() cancels their
  // pending simulator timers, so nothing here runs again.
  std::vector<std::unique_ptr<range::ContextServer>> graveyard_;
  // Shut-down ranges awaiting recover_range: the configs (lead shard first)
  // their successors are rebuilt from. State itself lives in storage_.
  std::unordered_map<std::string, std::vector<range::RangeConfig>> dormant_;
};

}  // namespace sci
