#include "core/sci.h"

#include <algorithm>
#include <iterator>
#include <set>

#include "common/log.h"

namespace sci {

const char* to_string(RangeRole role) {
  switch (role) {
    case RangeRole::kPrimary:
      return "primary";
    case RangeRole::kStandby:
      return "standby";
    case RangeRole::kFenced:
      return "fenced";
  }
  return "unknown";
}

Sci::Sci(std::uint64_t seed)
    : simulator_(seed),
      network_(simulator_),
      rng_(simulator_.rng().split()) {}

Sci::~Sci() {
  // Ranges reference the network and directory; drop them first (standbys
  // before the primaries they follow), in reverse creation order. Fenced
  // ex-primaries go last — live instances never reference them.
  standbys_.clear();
  while (!ranges_.empty()) ranges_.pop_back();
  while (!graveyard_.empty()) graveyard_.pop_back();
}

void Sci::set_location_directory(
    const location::LocationDirectory* directory) {
  SCI_ASSERT(directory != nullptr);
  locations_ = directory;
}

mobility::World& Sci::world() {
  SCI_ASSERT_MSG(locations_ != nullptr,
                 "set_location_directory() before world()");
  if (!world_) {
    world_.emplace(simulator_, locations_);
    world_->set_range_directory(&directory_);
    for (const auto& server : ranges_) world_->add_range(server.get());
  }
  return *world_;
}

Expected<range::ContextServer*> Sci::create_range(std::string name,
                                                  location::LogicalPath root,
                                                  RangeOptions options) {
  if (find_range(name) != nullptr) {
    return make_error(ErrorCode::kAlreadyExists,
                      "a range named '" + name + "' already exists");
  }
  if (name.find('#') != std::string::npos) {
    return make_error(ErrorCode::kInvalidArgument,
                      "'#' is reserved for shard names ('" + name + "')");
  }
  // Periods drive timers that require a positive period; reject bad input
  // here rather than abort inside them.
  const Duration zero = Duration::micros(0);
  if (options.liveness.ping_period <= zero) {
    return make_error(ErrorCode::kInvalidArgument,
                      "liveness.ping_period must be positive");
  }
  if (options.replication.standby_count > 0 &&
      options.replication.heartbeat_period <= zero) {
    return make_error(ErrorCode::kInvalidArgument,
                      "replication.heartbeat_period must be positive when "
                      "standby_count > 0");
  }
  // A record commits once sync_acks standbys applied it; more than the group
  // holds could never commit.
  const unsigned standbys = options.replication.standby_count;
  const unsigned sync_acks = options.replication.sync_acks;
  if (sync_acks == 0 || (standbys > 0 && sync_acks > standbys)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "replication.sync_acks must be at least 1 and, with "
                      "standbys, at most standby_count");
  }
  const unsigned shard_count = std::max(1u, options.sharding.shard_count);
  range::RangeConfig config;
  static_cast<RangeOptions&>(config) = std::move(options);
  config.range = new_guid();
  config.context_server = new_guid();
  config.name = std::move(name);
  config.logical_root = std::move(root);
  // With durability.enable every instance persists in storage_. store_name
  // stays empty: each defaults to its own config name, which keeps per-shard
  // stores distinct.
  config.storage = &storage_;

  // Partitioned range (docs/SHARDING.md): mint every shard's CS node up
  // front so the shared consistent-hash map names them all before any
  // server exists — the map is immutable from then on (shard CS GUIDs
  // survive failovers, so it never needs updating).
  std::vector<Guid> shard_nodes;
  if (shard_count > 1) {
    auto map = std::make_shared<range::ShardMap>(shard_count);
    shard_nodes.push_back(config.context_server);
    map->set_node(0, config.context_server);
    for (unsigned i = 1; i < shard_count; ++i) {
      shard_nodes.push_back(new_guid());
      map->set_node(i, shard_nodes[i]);
    }
    config.shard_map = std::move(map);
  }

  auto server = std::make_unique<range::ContextServer>(
      network_, std::move(config), &directory_, &semantics_, locations_);
  range::ContextServer& ref = *server;

  if (ref.config().discovery.join_by_discovery) {
    ref.join_via_discovery();
    // Listen window + join handshake.
    run_for(Duration::seconds(4));
  } else if (ranges_.empty()) {
    ref.bootstrap_overlay();
  } else {
    SCI_TRY(ref.join_overlay(ranges_.front()->id()));
    run_for(Duration::millis(100));  // let the join settle
  }
  if (!ref.overlay_ready()) {
    // The join can be slow under injected faults; give it a bounded grace
    // window before declaring the range dead on arrival.
    const SimTime deadline = simulator_.now() + Duration::seconds(2);
    while (!ref.overlay_ready() && simulator_.now() < deadline) {
      if (!simulator_.step(deadline)) break;
    }
    if (!ref.overlay_ready()) {
      return make_error(ErrorCode::kTimeout,
                        "range '" + ref.config().name +
                            "' never joined the SCINET");
    }
  }
  ranges_.push_back(std::move(server));
  if (world_) world_->add_range(&ref);
  const unsigned standby_count = ref.config().replication.standby_count;
  for (unsigned i = 0; i < standby_count; ++i) {
    SCI_TRY(add_standby(ref.config().name));
  }

  // Sibling shards: full Context Servers over the same logical root, each
  // with its own replication log, standby set and elections — but no
  // overlay node or directory entry (the lead's entry names the Range).
  for (unsigned i = 1; i < shard_count; ++i) {
    range::RangeConfig shard_config = ref.config();
    shard_config.range = new_guid();  // distinct fault-injection identity
    shard_config.context_server = shard_nodes[i];
    shard_config.name = ref.config().name + "#" + std::to_string(i);
    shard_config.shard_index = i;
    shard_config.epoch = 0;
    shard_config.store_name.clear();  // persist under the shard's own name
    auto shard = std::make_unique<range::ContextServer>(
        network_, std::move(shard_config), &directory_, &semantics_,
        locations_);
    range::ContextServer& shard_ref = *shard;
    ranges_.push_back(std::move(shard));
    for (unsigned s = 0; s < standby_count; ++s) {
      SCI_TRY(add_standby(shard_ref.config().name));
    }
  }
  return &ref;
}

std::vector<range::ContextServer*> Sci::shards(std::string_view range) {
  std::vector<range::ContextServer*> out;
  range::ContextServer* lead = find_range(range);
  if (lead == nullptr) return out;
  out.push_back(lead);
  if (!lead->sharded() || lead->shard_index() != 0) return out;
  const unsigned count = lead->config().shard_map->size();
  for (unsigned i = 1; i < count; ++i) {
    range::ContextServer* shard =
        find_range(std::string(range) + "#" + std::to_string(i));
    if (shard != nullptr) out.push_back(shard);
  }
  return out;
}

Expected<unsigned> Sci::shard_of(std::string_view range, Guid entity) {
  range::ContextServer* lead = find_range(range);
  if (lead == nullptr) {
    return make_error(ErrorCode::kNotFound,
                      "no range named '" + std::string(range) + "'");
  }
  return lead->shard_of(entity);
}

Expected<unsigned> Sci::rebalance_range(std::string_view range,
                                        unsigned max_moves) {
  std::vector<range::ContextServer*> group = shards(range);
  if (group.empty()) {
    return make_error(ErrorCode::kNotFound,
                      "no range named '" + std::string(range) + "'");
  }
  if (group.size() < 2) {
    return make_error(ErrorCode::kUnavailable,
                      "range '" + std::string(range) + "' is not partitioned");
  }
  unsigned moved = 0;
  for (unsigned i = 0; i < max_moves; ++i) {
    // Placement: hottest shard by publish-rate EWMA sheds its hottest vnode
    // to the least loaded shard. Deterministic given the metric values.
    range::ContextServer* hottest = nullptr;
    range::ContextServer* coldest = nullptr;
    for (range::ContextServer* shard : group) {
      if (hottest == nullptr || shard->publish_rate() > hottest->publish_rate())
        hottest = shard;
      if (coldest == nullptr || shard->publish_rate() < coldest->publish_rate())
        coldest = shard;
    }
    if (hottest == coldest || hottest->publish_rate() <= 0.0) break;
    const std::vector<unsigned> hot = hottest->hot_vnodes(1);
    if (hot.empty()) break;
    const std::uint64_t epoch_before = hottest->map_epoch();
    if (!hottest->begin_handoff(hot.front(), coldest->shard_index())) break;
    // Bounded settle: step until the handoff commits or aborts. An injected
    // crash mid-protocol can leave it pending for the successor — the
    // deadline keeps the facade from spinning on it.
    const SimTime deadline = simulator_.now() + Duration::seconds(10);
    while (hottest->handoff_active() && simulator_.now() < deadline) {
      if (!simulator_.step(deadline)) break;
    }
    if (hottest->map_epoch() <= epoch_before) break;  // aborted or pending
    ++moved;
  }
  return moved;
}

std::vector<range::ContextServer*> Sci::ranges() const {
  std::vector<range::ContextServer*> view;
  view.reserve(ranges_.size());
  for (const auto& server : ranges_) view.push_back(server.get());
  return view;
}

range::ContextServer* Sci::find_range(std::string_view name) {
  for (const auto& server : ranges_) {
    if (server->config().name == name) return server.get();
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// replication & failover (docs/REPLICATION.md)

Expected<range::ContextServer*> Sci::add_standby(std::string_view range) {
  range::ContextServer* primary = find_range(range);
  if (primary == nullptr) {
    return make_error(ErrorCode::kNotFound,
                      "no range named '" + std::string(range) + "'");
  }
  const Guid range_id = primary->id();
  range::RangeConfig config = primary->config();
  config.role = range::RangeConfig::Role::kStandby;
  config.standby_node = new_guid();
  config.epoch = primary->epoch();
  if (config.storage != nullptr && config.durability.enable) {
    // Standbys persist under the lowest store no live instance holds: the
    // bare range name first (free once a failed-over primary's incarnation
    // is fenced), then "<range>~sb<k>". Reusing a dead instance's store is
    // deliberate: the new standby recovers that WAL and rejoins by delta —
    // or, when the recovered lineage is a fenced epoch, by a replacing
    // snapshot that discards it (docs/DURABILITY.md).
    std::set<std::string> used;
    used.insert(primary->config().store_name);
    for (const auto& peer : standbys_[range_id]) {
      used.insert(peer->config().store_name);
    }
    config.store_name = primary->config().name;
    unsigned slot = 0;
    while (used.count(config.store_name) != 0) {
      config.store_name =
          primary->config().name + "~sb" + std::to_string(slot++);
    }
  }
  auto standby = std::make_unique<range::ContextServer>(
      network_, std::move(config), &directory_, &semantics_, locations_);
  range::ContextServer& ref = *standby;
  const Guid standby_node = ref.attached_node();
  ref.set_promote_request_handler([this, range_id, standby_node] {
    // Defer: promote() destroys the follower whose watchdog timer frame is
    // still on the stack when this fires.
    simulator_.schedule(Duration::micros(0), [this, range_id, standby_node] {
      auto_promote(range_id, standby_node);
    });
  });
  standbys_[range_id].push_back(std::move(standby));
  if (ref.recovered_from_disk()) {
    // WAL-recovered standby: present the disk's (epoch, watermark) so the
    // primary ships only the tail above it — or a replacing snapshot when
    // the recovered lineage is stale.
    primary->attach_standby(standby_node, ref.recovered_epoch(),
                            ref.recovered_watermark());
  } else {
    primary->attach_standby(standby_node);
  }
  // Catch-up completion is state-based, not time-based: run until the
  // standby holds the epoch's snapshot and has applied everything the
  // primary has logged, bounded in case loss keeps eating the tail. Under
  // normal conditions this converges in a couple of RTTs, so a live
  // deployment's pending timers shift far less than a fixed wait would.
  const replicate::ReplicationLog* log = primary->replication_log();
  const auto caught_up = [&] {
    const replicate::ReplicationFollower* follower =
        ref.replication_follower();
    return follower != nullptr && log != nullptr &&
           !follower->awaiting_snapshot() && follower->applied() >= log->head();
  };
  const SimTime deadline = simulator_.now() + Duration::seconds(2);
  while (!caught_up() && simulator_.now() < deadline) {
    if (!simulator_.step(deadline)) break;
  }
  if (!caught_up()) {
    SCI_WARN("sci", "standby for '%s' still catching up after bounded wait",
             primary->config().name.c_str());
  }
  return &ref;
}

std::vector<range::ContextServer*> Sci::standbys(
    std::string_view range) const {
  std::vector<range::ContextServer*> out;
  for (const auto& server : ranges_) {
    if (server->config().name != range) continue;
    const auto it = standbys_.find(server->id());
    if (it == standbys_.end()) break;
    out.reserve(it->second.size());
    for (const auto& standby : it->second) out.push_back(standby.get());
    break;
  }
  return out;
}

Expected<RangeRole> Sci::range_role(Guid node) const {
  for (const auto& server : ranges_) {
    if (server->attached_node() == node || server->id() == node) {
      return server->is_fenced() ? RangeRole::kFenced : RangeRole::kPrimary;
    }
  }
  for (const auto& [range_id, list] : standbys_) {
    for (const auto& standby : list) {
      if (standby->attached_node() == node) return RangeRole::kStandby;
    }
  }
  for (const auto& server : graveyard_) {
    if (server->attached_node() == node) return RangeRole::kFenced;
  }
  return make_error(ErrorCode::kNotFound,
                    "no context-server instance attached as " +
                        node.short_string());
}

Status Sci::promote(Guid standby_node) {
  for (auto& [range_id, list] : standbys_) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i]->attached_node() == standby_node) {
        return promote_instance(range_id, list, i);
      }
    }
  }
  return make_error(ErrorCode::kNotFound,
                    "no standby attached as " + standby_node.short_string());
}

Status Sci::promote_range(std::string_view range) {
  range::ContextServer* primary = find_range(range);
  if (primary == nullptr) {
    return make_error(ErrorCode::kNotFound,
                      "no range named '" + std::string(range) + "'");
  }
  const auto it = standbys_.find(primary->id());
  if (it == standbys_.end() || it->second.empty()) {
    return make_error(ErrorCode::kUnavailable,
                      "range '" + std::string(range) + "' has no standby");
  }
  return promote_instance(primary->id(), it->second, 0);
}

Status Sci::promote_instance(
    Guid range_id, std::vector<std::unique_ptr<range::ContextServer>>& list,
    std::size_t index) {
  std::size_t slot = ranges_.size();
  for (std::size_t i = 0; i < ranges_.size(); ++i) {
    if (ranges_[i]->id() == range_id) {
      slot = i;
      break;
    }
  }
  if (slot == ranges_.size()) {
    return make_error(ErrorCode::kNotFound,
                      "no primary serving the standby's range");
  }
  // Re-join through any other live range so the overlay stays connected; a
  // single-range deployment re-bootstraps instead.
  Guid join_via;
  for (const auto& server : ranges_) {
    if (server->id() != range_id && !server->is_fenced() &&
        server->overlay_ready()) {
      join_via = server->id();
      break;
    }
  }
  std::unique_ptr<range::ContextServer> successor = std::move(list[index]);
  list.erase(list.begin() + static_cast<std::ptrdiff_t>(index));
  ranges_[slot]->fence();
  graveyard_.push_back(std::move(ranges_[slot]));
  successor->promote(join_via);
  range::ContextServer* fresh = successor.get();
  ranges_[slot] = std::move(successor);
  // Surviving standbys follow the new primary: same CS node identity, new
  // epoch — the fresh snapshot resynchronises them against its log.
  for (const auto& standby : list) {
    fresh->attach_standby(standby->attached_node());
  }
  simulator_.trace().record(simulator_.now(), obs::TraceKind::kFaultInject,
                            range_id, fresh->attached_node(),
                            static_cast<std::uint64_t>(sim::FaultKind::kPromote));
  return Status::ok();
}

void Sci::auto_promote(Guid range_id, Guid standby_node) {
  range::ContextServer* primary = nullptr;
  for (const auto& server : ranges_) {
    if (server->id() == range_id) {
      primary = server.get();
      break;
    }
  }
  if (primary == nullptr) return;
  auto& list = standbys_[range_id];
  std::size_t index = list.size();
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i]->attached_node() == standby_node) {
      index = i;
      break;
    }
  }
  if (index == list.size()) return;
  // An election winner carries its own authority: a majority of the replica
  // group pledged to an epoch above the acting primary's, which also
  // guarantees the loser's fencing lease has lapsed (voters refuse lease
  // acks below their pledge). No oracle liveness check needed — this is the
  // supersession rule that replaces PR 3's facade adjudication.
  const bool superseded = list[index]->promoted_by_election() &&
                          list[index]->elected_epoch() > primary->epoch();
  if (!superseded) {
    // Fiat path (no election, or the group was too small to hold one): only
    // take over from a primary that actually looks dead — a sibling standby
    // may have completed the failover while this request was queued, in
    // which case the acting primary is the freshly promoted one.
    if (!primary->is_fenced() && !network_.is_crashed(primary->server_node())) {
      SCI_INFO("sci",
               "standby %s promote request ignored — primary of '%s' is alive",
               standby_node.short_string().c_str(),
               primary->config().name.c_str());
      return;
    }
  }
  const Status promoted = promote_instance(range_id, list, index);
  if (!promoted.is_ok()) {
    SCI_WARN("sci", "auto-promote failed: %s",
             promoted.error().message().c_str());
  }
}

Status Sci::request_election(std::string_view range) {
  range::ContextServer* primary = find_range(range);
  if (primary == nullptr) {
    return make_error(ErrorCode::kNotFound,
                      "no range named '" + std::string(range) + "'");
  }
  const auto it = standbys_.find(primary->id());
  if (it == standbys_.end() || it->second.empty()) {
    return make_error(ErrorCode::kUnavailable,
                      "range '" + std::string(range) + "' has no standby");
  }
  // Every standby runs; candidacies are staggered by GUID rank and voters
  // gate on primary silence, so against a live primary this is a no-op and
  // against a dead one exactly one majority forms.
  for (const auto& standby : it->second) standby->request_promotion();
  return Status::ok();
}

// ---------------------------------------------------------------------------
// dead letters

Expected<const reliable::DeadLetterQueue*> Sci::dead_letters(
    std::string_view range) {
  range::ContextServer* server = find_range(range);
  if (server == nullptr) {
    return make_error(ErrorCode::kNotFound,
                      "no range named '" + std::string(range) + "'");
  }
  return &server->channel().dead_letters();
}

Expected<std::size_t> Sci::replay_dead_letters(std::string_view range) {
  range::ContextServer* server = find_range(range);
  if (server == nullptr) {
    return make_error(ErrorCode::kNotFound,
                      "no range named '" + std::string(range) + "'");
  }
  // Base name of a partitioned range covers every shard's queue, so fig8/
  // fig9-style replay flows stay one call regardless of shard_count.
  // Replay in original park order ACROSS the shard queues: draining them
  // one after another would interleave by shard position instead, so two
  // causally ordered frames parked on different shards could swap. The
  // stable sort keeps each queue's own FIFO order for equal park times.
  struct Parked {
    reliable::ReliableChannel* channel;
    reliable::DeadLetter letter;
  };
  std::vector<Parked> parked;
  for (range::ContextServer* shard : shards(range)) {
    for (reliable::DeadLetter& letter : shard->channel().drain_dead_letters()) {
      parked.push_back(Parked{&shard->channel(), std::move(letter)});
    }
  }
  std::stable_sort(parked.begin(), parked.end(),
                   [](const Parked& a, const Parked& b) {
                     return a.letter.parked_at < b.letter.parked_at;
                   });
  for (Parked& entry : parked) {
    entry.channel->replay_dead_letter(std::move(entry.letter));
  }
  return parked.size();
}

Expected<std::vector<reliable::DeadLetter>> Sci::drain_dead_letters(
    std::string_view range) {
  range::ContextServer* server = find_range(range);
  if (server == nullptr) {
    return make_error(ErrorCode::kNotFound,
                      "no range named '" + std::string(range) + "'");
  }
  std::vector<reliable::DeadLetter> drained;
  for (range::ContextServer* shard : shards(range)) {
    auto letters = shard->channel().drain_dead_letters();
    drained.insert(drained.end(), std::make_move_iterator(letters.begin()),
                   std::make_move_iterator(letters.end()));
  }
  return drained;
}

// ---------------------------------------------------------------------------
// durability (docs/DURABILITY.md)

Status Sci::shutdown_range(std::string_view range) {
  range::ContextServer* lead = find_range(range);
  if (lead == nullptr) {
    return make_error(ErrorCode::kNotFound,
                      "no range named '" + std::string(range) + "'");
  }
  if (lead->durable_store() == nullptr) {
    return make_error(ErrorCode::kUnavailable,
                      "range '" + std::string(range) +
                          "' has no durable store to recover from");
  }
  const std::vector<range::ContextServer*> members = shards(range);
  std::vector<range::RangeConfig> configs;
  configs.reserve(members.size());
  for (range::ContextServer* member : members) {
    configs.push_back(member->config());
  }
  // No flush: this is a power cut. Buffered (unsynced, hence unacked) tails
  // die with the objects; everything acked is already in storage_.
  // Standbys go first — their stores stay on disk, and a later add_standby
  // reuses the slots, recovering those WALs.
  for (range::ContextServer* member : members) {
    standbys_.erase(member->id());
  }
  for (range::ContextServer* member : members) {
    const auto owned =
        std::find_if(ranges_.begin(), ranges_.end(),
                     [member](const std::unique_ptr<range::ContextServer>& r) {
                       return r.get() == member;
                     });
    SCI_ASSERT(owned != ranges_.end());
    ranges_.erase(owned);
  }
  dormant_[std::string(range)] = std::move(configs);
  return Status::ok();
}

Status Sci::shutdown_standby(Guid standby_node) {
  for (auto& [range_id, list] : standbys_) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i]->attached_node() != standby_node) continue;
      for (const auto& server : ranges_) {
        if (server->id() == range_id) {
          server->detach_standby(standby_node);
          break;
        }
      }
      list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
      return Status::ok();
    }
  }
  return make_error(ErrorCode::kNotFound,
                    "no standby attached as " + standby_node.short_string());
}

Expected<range::ContextServer*> Sci::recover_range(std::string_view range) {
  const auto it = dormant_.find(std::string(range));
  if (it == dormant_.end()) {
    return make_error(ErrorCode::kNotFound,
                      "no shut-down range named '" + std::string(range) + "'");
  }
  std::vector<range::RangeConfig> configs = std::move(it->second);
  dormant_.erase(it);

  // Any other live range re-anchors the overlay join; none → re-bootstrap.
  Guid join_via;
  for (const auto& server : ranges_) {
    if (!server->is_fenced() && server->overlay_ready()) {
      join_via = server->id();
      break;
    }
  }

  range::ContextServer* lead = nullptr;
  for (range::RangeConfig& config : configs) {
    // Same GUIDs, fresh objects: the constructor's recovery path replays
    // checkpoint + WAL tail from storage_ before any duty starts.
    auto server = std::make_unique<range::ContextServer>(
        network_, std::move(config), &directory_, &semantics_, locations_);
    range::ContextServer& ref = *server;
    ranges_.push_back(std::move(server));
    if (lead == nullptr) lead = &ref;
    if (ref.config().shard_index == 0) {  // only the lead shard joins
      if (!join_via.is_nil()) {
        SCI_TRY(ref.join_overlay(join_via));
      } else {
        ref.bootstrap_overlay();
      }
    }
  }
  run_for(Duration::millis(100));  // let joins settle, pings restart
  if (lead != nullptr && !lead->overlay_ready()) {
    const SimTime deadline = simulator_.now() + Duration::seconds(2);
    while (!lead->overlay_ready() && simulator_.now() < deadline) {
      if (!simulator_.step(deadline)) break;
    }
    if (!lead->overlay_ready()) {
      SCI_WARN("sci", "recovered range '%s' still joining the SCINET",
               lead->config().name.c_str());
    }
  }
  return lead;
}

void Sci::inject_faults(const sim::FaultPlan& plan) {
  for (const sim::FaultEvent& event : plan.events()) {
    simulator_.schedule(event.at, [this, event] {
      obs::TraceBuffer& trace = simulator_.trace();
      const auto detail = static_cast<std::uint64_t>(event.kind);
      switch (event.kind) {
        case sim::FaultKind::kCrash:
        case sim::FaultKind::kRecover: {
          range::ContextServer* range = find_range(event.target);
          if (range == nullptr) {
            SCI_WARN("sci", "fault %s targets unknown range '%s' — skipped",
                     sim::to_string(event.kind), event.target.c_str());
            return;
          }
          const bool crashed = event.kind == sim::FaultKind::kCrash;
          (void)network_.set_crashed(range->id(), crashed);
          (void)network_.set_crashed(range->server_node(), crashed);
          trace.record(simulator_.now(), obs::TraceKind::kFaultInject,
                       range->id(), Guid(), detail);
          return;
        }
        case sim::FaultKind::kPartition: {
          range::ContextServer* range = find_range(event.target);
          if (range == nullptr) {
            SCI_WARN("sci", "fault %s targets unknown range '%s' — skipped",
                     sim::to_string(event.kind), event.target.c_str());
            return;
          }
          network_.set_partition_group(range->id(), event.group);
          network_.set_partition_group(range->server_node(), event.group);
          trace.record(simulator_.now(), obs::TraceKind::kFaultInject,
                       range->id(), Guid(), detail);
          return;
        }
        case sim::FaultKind::kHeal:
          network_.heal_partitions();
          trace.record(simulator_.now(), obs::TraceKind::kFaultInject, Guid(),
                       Guid(), detail);
          return;
        case sim::FaultKind::kLossRate: {
          net::LinkModel model = network_.link_model();
          model.drop_probability = event.loss;
          network_.set_link_model(model);
          trace.record(simulator_.now(), obs::TraceKind::kFaultInject, Guid(),
                       Guid(), detail);
          return;
        }
        case sim::FaultKind::kPromote: {
          if (!event.force) {
            // Default path goes through the election: the winner (if any)
            // promotes itself, and a live primary simply retains its lease
            // (voters refuse candidacies against a talking primary).
            const Status requested = request_election(event.target);
            if (!requested.is_ok()) {
              SCI_WARN("sci", "fault promote '%s' election failed: %s",
                       event.target.c_str(),
                       requested.error().message().c_str());
            }
            return;
          }
          const Status promoted = promote_range(event.target);
          if (!promoted.is_ok()) {
            SCI_WARN("sci", "fault promote '%s' failed: %s",
                     event.target.c_str(),
                     promoted.error().message().c_str());
          }
          return;
        }
        case sim::FaultKind::kWalTorn:
        case sim::FaultKind::kWalCorrupt:
        case sim::FaultKind::kWalSyncFail:
        case sim::FaultKind::kWalShortRead: {
          // Damage every per-shard WAL of the target — live instances
          // first, else a shut-down range's remembered stores.
          std::vector<std::string> stores;
          for (range::ContextServer* shard : shards(event.target)) {
            if (!shard->config().store_name.empty()) {
              stores.push_back(shard->config().store_name);
            }
          }
          if (stores.empty()) {
            const auto dormant = dormant_.find(event.target);
            if (dormant != dormant_.end()) {
              for (const range::RangeConfig& config : dormant->second) {
                if (!config.store_name.empty()) {
                  stores.push_back(config.store_name);
                }
              }
            }
          }
          if (stores.empty()) {
            SCI_WARN("sci", "fault %s: no durable store for '%s' — skipped",
                     sim::to_string(event.kind), event.target.c_str());
            return;
          }
          for (const std::string& store : stores) {
            const std::string wal = store + ".wal";
            switch (event.kind) {
              case sim::FaultKind::kWalTorn:
                storage_.tear_tail(wal, static_cast<std::size_t>(event.group));
                break;
              case sim::FaultKind::kWalCorrupt:
                storage_.corrupt_tail(wal);
                break;
              case sim::FaultKind::kWalSyncFail:
                storage_.fail_syncs(wal, static_cast<unsigned>(event.group));
                break;
              case sim::FaultKind::kWalShortRead:
                storage_.short_reads(wal,
                                     static_cast<std::size_t>(event.group));
                break;
              default:
                break;
            }
          }
          trace.record(simulator_.now(), obs::TraceKind::kFaultInject, Guid(),
                       Guid(), detail);
          return;
        }
        case sim::FaultKind::kReshard: {
          const unsigned max_moves =
              event.group > 0 ? static_cast<unsigned>(event.group) : 1;
          const auto moved = rebalance_range(event.target, max_moves);
          if (!moved) {
            SCI_WARN("sci", "fault reshard '%s' failed: %s",
                     event.target.c_str(), moved.error().message().c_str());
            return;
          }
          trace.record(simulator_.now(), obs::TraceKind::kFaultInject, Guid(),
                       Guid(), detail);
          return;
        }
        case sim::FaultKind::kHandoffCrash:
        case sim::FaultKind::kHandoffPartition: {
          std::vector<range::ContextServer*> group = shards(event.target);
          if (group.empty()) {
            SCI_WARN("sci", "fault %s targets unknown range '%s' — skipped",
                     sim::to_string(event.kind), event.target.c_str());
            return;
          }
          // One-shot strike, armed on every live shard primary: whichever
          // handoff first reaches the named protocol step takes the hit.
          // The probe is stored inside the server, so it cannot dangle.
          const bool crash = event.kind == sim::FaultKind::kHandoffCrash;
          auto fired = std::make_shared<bool>(false);
          for (range::ContextServer* shard : group) {
            shard->set_handoff_probe(
                [this, shard, fired, crash, step = event.arg,
                 group_id = event.group](const char* at) {
                  if (*fired || step != at) return;
                  *fired = true;
                  if (crash) {
                    (void)network_.set_crashed(shard->id(), true);
                    (void)network_.set_crashed(shard->server_node(), true);
                  } else {
                    network_.set_partition_group(shard->id(), group_id);
                    network_.set_partition_group(shard->server_node(),
                                                 group_id);
                  }
                });
          }
          trace.record(simulator_.now(), obs::TraceKind::kFaultInject, Guid(),
                       Guid(), detail);
          return;
        }
      }
    });
  }
}

// ---------------------------------------------------------------------------
// queries (docs/VIEWS.md)

Expected<Sci::QueryHandle> Sci::submit_query(entity::ContextAwareApp& app,
                                             query::Query q) {
  SCI_TRY(q.validate());
  SCI_TRY(app.submit_query(q.id, q.to_xml()));
  return QueryHandle(this, &app, std::move(q));
}

bool Sci::QueryHandle::cancel() {
  bool cancelled = false;
  // A query can leave state on any shard (triggers follow the moving
  // entity); sweep every live server.
  for (const auto& server : sci_->ranges_) {
    cancelled = server->cancel_query(app_->id(), query_.id) || cancelled;
  }
  return cancelled;
}

Status Sci::QueryHandle::refresh() {
  return app_->submit_query(query_.id, query_.to_xml());
}

std::optional<range::ContextServer::QueryOutcome>
Sci::QueryHandle::last_outcome() const {
  std::optional<range::ContextServer::QueryOutcome> latest;
  for (const auto& server : sci_->ranges_) {
    const auto outcome = server->query_outcome(app_->id(), query_.id);
    if (outcome && (!latest || latest->at < outcome->at)) latest = outcome;
  }
  return latest;
}

bool Sci::QueryHandle::is_view_backed() const {
  const auto outcome = last_outcome();
  return outcome.has_value() && outcome->view_hit;
}

Status Sci::enroll(entity::Component& component, range::ContextServer& server,
                   double x, double y) {
  if (!component.is_started()) component.start(x, y);
  component.discover(server.server_node());
  // Hello → RangeInfo → Register → Ack: four one-way latencies plus
  // processing; give it a generous bounded window.
  const SimTime deadline = simulator_.now() + Duration::seconds(2);
  while (!component.is_registered() && simulator_.now() < deadline) {
    if (!simulator_.step(deadline)) break;
  }
  if (!component.is_registered())
    return make_error(ErrorCode::kTimeout,
                      component.name() + " did not complete registration");
  return Status::ok();
}

}  // namespace sci
