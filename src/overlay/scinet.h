// SCI — SCINET: the upper layer of the infrastructure (paper §3, Fig 1).
//
// A network overlay of partially connected nodes, one per Range. Nodes are
// addressed by GUID and messages are routed by key: a message for key K is
// delivered at the live node whose GUID is numerically closest to K. The
// design follows Pastry-style prefix routing (leaf set + per-digit routing
// table), which gives the O(log N) hop count and near-uniform per-node load
// the paper claims over hierarchical infrastructures (§3, ref [9]).
//
// Protocol summary:
//  * JOIN — routed toward the joiner's own id; every hop appends its routing
//    row at the current prefix level; the numerically closest node replies
//    with the accumulated rows plus its leaf set; the joiner then announces
//    itself to everyone in its new tables.
//  * ROUTED — application payload, greedily forwarded (leaf set first, then
//    routing table, then closest-known fallback) with a TTL backstop. Each
//    hop is carried over a ReliableChannel: lost frames retransmit with
//    backoff, and a hop that dead-letters is forgotten and the payload
//    re-routed around it. route_acked() additionally requests an
//    end-to-end delivery receipt from the root and re-originates until it
//    arrives (see docs/ROBUSTNESS.md).
//  * HEARTBEAT/ACK — leaf-set liveness; a node missing too many acks is
//    evicted from all state and the leaf set is repaired by pulling a
//    neighbour's leaf set. Failure-evicted peers are remembered and probed
//    round-robin so a healed partition re-converges instead of staying
//    split forever.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/expected.h"
#include "common/guid.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reliable/reliable.h"
#include "sim/simulator.h"

namespace sci::overlay {

// Application payload delivered by the overlay at the key's root node.
struct RoutedMessage {
  Guid key;        // routing key
  Guid source;     // originating node
  std::uint32_t app_type = 0;
  std::uint32_t hops = 0;
  std::uint64_t ticket = 0;  // non-zero when the source asked for a receipt
  serde::BufferRef payload;
};

// Leaf-set liveness: neighbours are probed every kHeartbeatPeriod and
// declared dead after kHeartbeatMissLimit silent periods. ROUTED/receipt
// hops ride a default-policy reliable channel.
inline constexpr Duration kHeartbeatPeriod = Duration::millis(500);
inline constexpr unsigned kHeartbeatMissLimit = 3;

// Handle for an acked route: `id` is unique per originating node.
struct RouteTicket {
  std::uint64_t id = 0;
  Guid key;
};

class ScinetNode {
 public:
  using DeliverHandler = std::function<void(const RoutedMessage&)>;

  // Attaches to `network` at (x, y). The node is not part of any overlay
  // until bootstrap() or join() is called.
  ScinetNode(net::Network& network, Guid id, double x = 0.0,
             double y = 0.0);
  ~ScinetNode();

  ScinetNode(const ScinetNode&) = delete;
  ScinetNode& operator=(const ScinetNode&) = delete;

  // Registers the handler for application payloads delivered here.
  void set_deliver_handler(DeliverHandler handler) {
    deliver_ = std::move(handler);
  }

  // Starts a brand-new overlay with this node as the only member.
  void bootstrap();

  // Joins the overlay through `bootstrap_node` (any live member). The join
  // handshake completes asynchronously; is_ready() flips once state has
  // been installed.
  Status join(Guid bootstrap_node);

  // Cleanly departs: notifies leaf-set neighbours so they repair without
  // waiting for heartbeat timeouts, then detaches from the network.
  void leave();

  // Stops local timers without notifying anyone — used to model a crash
  // (peers must discover the failure via heartbeats).
  void halt();

  // Routes `payload` toward `key`; delivery happens at the key's root.
  Status route(Guid key, std::uint32_t app_type,
               serde::BufferRef payload);

  // Called when the root's delivery receipt arrives (delivered=true) or
  // every re-origination attempt has been exhausted (delivered=false).
  using ReceiptHandler = std::function<void(const RouteTicket&, bool delivered,
                                            std::uint32_t hops)>;

  // Like route(), but the root sends an end-to-end receipt back to this
  // node; until it arrives the payload is re-originated with backoff. The
  // root deduplicates re-originations by (source, ticket), so the payload
  // is delivered to the application at most once.
  Expected<RouteTicket> route_acked(Guid key, std::uint32_t app_type,
                                    serde::BufferRef payload,
                                    ReceiptHandler on_receipt = nullptr);

  // End-to-end routes still awaiting a receipt.
  [[nodiscard]] std::size_t pending_receipts() const {
    return pending_routes_.size();
  }

  [[nodiscard]] Guid id() const { return id_; }
  [[nodiscard]] bool is_ready() const { return ready_; }

  // Introspection for tests and benches.
  [[nodiscard]] std::vector<Guid> leaf_set() const;
  [[nodiscard]] std::size_t routing_table_population() const;
  [[nodiscard]] bool knows(Guid node) const;

  // True when this node believes it is the root (numerically closest live
  // node) for `key` among everything it knows.
  [[nodiscard]] bool is_root_for(Guid key) const;

  // Message kinds on net::Message::type.
  enum MsgType : std::uint32_t {
    kRouted = 0x5C10,
    kJoin,
    kJoinReply,
    kAnnounce,
    kHeartbeat,
    kHeartbeatAck,
    kLeave,
    kLeafSetRequest,
    kLeafSetReply,
    kFailureNotice,
    kRouteReceipt,
  };

 private:
  static constexpr unsigned kRows = Guid::kDigits;
  static constexpr unsigned kCols = 16;

  void on_message(const net::Message& message);
  void on_routed(const net::Message& message);
  void on_route_receipt(const net::Message& message);
  void on_join(const net::Message& message);
  void on_join_reply(const net::Message& message);
  void on_announce(const net::Message& message);
  void on_heartbeat(const net::Message& message);
  void on_heartbeat_ack(const net::Message& message);
  void on_leave(const net::Message& message);
  void on_leaf_set_request(const net::Message& message);
  void on_leaf_set_reply(const net::Message& message);
  void on_failure_notice(const net::Message& message);

  // Picks the next hop for `key`, or nil when this node is the root.
  [[nodiscard]] Guid next_hop(Guid key) const;

  void send_join();
  void learn(Guid node);
  // Evicts `node` from all state. When `probe` is set the node is also
  // remembered for round-robin liveness probing (heartbeat failures and
  // partitions may be transient); clean departures pass probe = false.
  void forget(Guid node, bool probe = true);
  void send(Guid to, std::uint32_t type, serde::BufferRef payload);
  // Sends ROUTED/receipt traffic over the reliable channel (retransmits on
  // loss, dead-letters into on_hop_give_up).
  void send_reliable(Guid to, std::uint32_t type,
                     serde::BufferRef payload);
  void on_hop_give_up(const net::Message& message, unsigned attempts);
  void heartbeat_tick();
  void repair_leaf_set();
  void deliver_local(RoutedMessage message);
  void send_receipt(const RoutedMessage& message);
  // (Re-)transmits pending acked route `ticket` toward its key.
  void originate_acked(std::uint64_t ticket);
  void arm_receipt_timer(std::uint64_t ticket);
  void finish_acked(std::uint64_t ticket, bool delivered, std::uint32_t hops);

  // Leaf-set helpers over the sorted ring neighbours.
  void rebuild_leaf_set();
  [[nodiscard]] Guid closest_known_to(Guid key, bool include_self) const;

  net::Network& network_;
  Guid id_;
  reliable::ReliableChannel channel_;
  DeliverHandler deliver_;
  bool ready_ = false;
  bool attached_ = false;

  // All live nodes this node has learned about; the leaf set and routing
  // table are views over this set. (A real deployment bounds this; at
  // simulation scale exact bookkeeping keeps repair logic honest while the
  // *protocol traffic* — what the benches measure — still follows Pastry.)
  std::unordered_set<Guid> known_;
  std::vector<Guid> leaf_;                       // sorted ring neighbours
  std::array<std::array<Guid, kCols>, kRows> table_{};  // nil = empty

  // Liveness tracking for leaf-set members.
  std::unordered_map<Guid, unsigned> missed_heartbeats_;
  std::optional<sim::PeriodicTimer> heartbeat_timer_;

  // Failure-evicted peers, probed one per heartbeat tick so that a healed
  // partition (where both sides evicted each other) re-converges.
  std::vector<Guid> forgotten_;
  std::size_t probe_cursor_ = 0;

  // Source-side state for route_acked(): payload kept until the root's
  // receipt arrives or the re-origination budget is exhausted.
  struct PendingRoute {
    Guid key;
    std::uint32_t app_type = 0;
    serde::BufferRef payload;
    unsigned attempts = 0;
    SimTime first_sent;
    sim::TimerHandle retry;
    ReceiptHandler on_receipt;
  };
  std::unordered_map<std::uint64_t, PendingRoute> pending_routes_;
  std::uint64_t next_ticket_ = 0;

  // Root-side dedup for re-originated acked routes: (source, ticket) pairs
  // already delivered to the application (re-acked but not re-delivered).
  std::unordered_map<Guid, std::unordered_set<std::uint64_t>> seen_tickets_;

  // Join retransmission: a JOIN can black-hole through a crashed hop that
  // nobody has detected yet, so it is retried until the reply arrives.
  Guid join_bootstrap_;
  unsigned join_attempts_ = 0;
  sim::TimerHandle join_retry_;

  // Overlay instruments: overlay-wide counters plus a per-node forwarding
  // counter (labelled by node id) feeding the Fig 1 load distribution.
  obs::Counter* m_originated_ = nullptr;
  obs::Counter* m_forwarded_ = nullptr;
  obs::Counter* m_delivered_ = nullptr;
  obs::Counter* m_dropped_ttl_ = nullptr;
  obs::Counter* m_repairs_ = nullptr;
  obs::Counter* m_node_forwarded_ = nullptr;
  obs::Counter* m_hop_failovers_ = nullptr;
  obs::Counter* m_e2e_originated_ = nullptr;
  obs::Counter* m_e2e_receipts_ = nullptr;
  obs::Counter* m_e2e_retries_ = nullptr;
  obs::Counter* m_e2e_dead_letters_ = nullptr;
  obs::Counter* m_probes_ = nullptr;
  obs::Histogram* m_hops_ = nullptr;
  obs::Histogram* m_e2e_latency_ = nullptr;
  obs::TraceBuffer* trace_ = nullptr;
};

// Convenience owner for whole-overlay construction in tests and benches:
// creates N nodes, joins them one at a time through a random live member
// (standing in for local range discovery, paper §3), and runs the simulator
// until the overlay stabilises.
class Scinet {
 public:
  explicit Scinet(net::Network& network);

  // Adds a node with a random GUID at (x, y); joins through a random
  // existing member. Runs the simulator briefly to let the join complete.
  ScinetNode& add_node(double x = 0.0, double y = 0.0);
  ScinetNode& add_node_with_id(Guid id, double x = 0.0, double y = 0.0);

  // Removes a node, either cleanly (leave) or by crash.
  Status remove_node(Guid id, bool crash);

  [[nodiscard]] ScinetNode* find(Guid id);
  [[nodiscard]] const std::vector<std::unique_ptr<ScinetNode>>& nodes() const {
    return nodes_;
  }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  // Lets in-flight protocol traffic drain (joins, announcements, repairs).
  void settle(Duration window = Duration::seconds(5));

 private:
  net::Network& network_;
  Rng rng_;
  std::vector<std::unique_ptr<ScinetNode>> nodes_;
  // Crashed nodes stay attached-but-halted so the fabric keeps dropping
  // traffic addressed to them (peers detect the failure via heartbeats).
  std::vector<std::unique_ptr<ScinetNode>> graveyard_;
};

}  // namespace sci::overlay
