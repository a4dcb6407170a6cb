// SCI — reliable delivery channel over the simulated fabric.
//
// The paper claims "adaptivity to environmental changes (e.g. component
// failure)" (§2), but a raw net::Network send is fire-and-forget: crashes,
// partitions and link loss silently eat frames. ReliableChannel upgrades
// point-to-point sends to at-least-once delivery with exactly-once,
// in-order processing per (sender, epoch):
//
//  * every frame to a destination carries a per-destination sequence
//    number and is wrapped in a kRelData envelope;
//  * the receiver hands frames to the application in seq order. A frame
//    that arrives ahead of a gap waits, unacked, in a per-stream reorder
//    map of at most kMaxReordered frames (beyond it the frame is dropped
//    unacked and comes back by retransmit); an in-order arrival bypasses
//    the map. A released frame is acked (kRelAck) at once, and a
//    duplicate of it is re-acked, not delivered;
//  * every envelope also carries the sender's floor: its lowest seq still
//    pending to that destination, as in TCP's cumulative ack (RFC 9293).
//    The receiver joins a stream at the floor and skips up to it, so a
//    frame the sender gave up on, or one whose ack a previous receiver
//    incarnation sent, never wedges the frames behind it;
//  * unacked frames are retransmitted on a timer with exponential backoff
//    plus deterministic jitter; after 8 transmissions the frame becomes a
//    dead letter: it is parked in the channel's bounded DeadLetterQueue
//    (when enabled) and handed to the optional give-up handler (the overlay
//    uses the handler to re-route around dead hops).
//
// A frame the receive gate refuses is not delivered, so it also holds back
// that sender's later frames until it is admitted or given up.
//
// Incarnation epochs (docs/REPLICATION.md): every envelope additionally
// carries the sender's epoch. A node identity that is taken over by a new
// incarnation — a standby Context Server promoted under the dead primary's
// GUID — bumps its epoch; receivers restart the stream at the floor when a
// sender's epoch advances and silently drop frames from older epochs, so
// the fresh sequence space of the new incarnation is neither suppressed as
// duplicate nor confused with the old one's stale retransmissions.
//
// The channel does not own a network node: its owner stays attached and
// funnels every incoming frame through on_message(), which consumes channel
// envelopes and hands unwrapped inner frames to the supplied handler.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/expected.h"
#include "common/guid.h"
#include "common/rng.h"
#include "common/time.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "serde/buffer.h"
#include "sim/simulator.h"

namespace sci::reliable {

// Channel envelope frame types on net::Message::type. Chosen outside the
// 0xCE01 (component), 0x5C10 (overlay) and 0xF0xx/0xBEAC (range) spaces.
inline constexpr std::uint32_t kRelData = 0xAC01;
inline constexpr std::uint32_t kRelAck = 0xAC02;
// Frames per (sender, epoch) stream that may wait ahead of a gap.
inline constexpr std::size_t kMaxReordered = 256;

// The retransmit schedule is fixed (reliable.cpp): 200 ms doubled per
// attempt up to 5 s, plus up to 10% jitter; a frame dead-letters after 8
// transmissions.
struct ReliableConfig {
  // Abandoned frames are parked in the channel's DeadLetterQueue up to this
  // many entries (oldest evicted beyond it); 0 disables parking entirely.
  std::size_t dead_letter_capacity = 0;
  // When non-empty, every channel counter also increments a twin interned
  // under this label (a sharded range uses "shard=<i>", docs/SHARDING.md),
  // so per-channel families stay distinguishable in MetricsSnapshot while
  // the unlabelled totals fig8/fig9 read keep aggregating every channel.
  // The DLQ depth gauge moves to the labelled slot outright — depth is a
  // per-channel level, and distinct channels sharing one gauge would
  // overwrite each other.
  std::string metrics_label;
};

struct ChannelStats {
  std::uint64_t accepted = 0;        // send() calls
  std::uint64_t data_sent = 0;       // envelope transmissions (incl. rexmit)
  std::uint64_t retransmits = 0;
  std::uint64_t acked = 0;
  std::uint64_t delivered = 0;       // inner frames handed to the handler
  std::uint64_t dup_suppressed = 0;
  std::uint64_t reordered = 0;       // frames that waited ahead of a gap
  std::uint64_t stale_epoch = 0;     // frames from a superseded incarnation
  std::uint64_t dead_letters = 0;    // gave up after kMaxAttempts
  std::uint64_t failovers = 0;       // handed back early via fail_all()
  std::uint64_t dlq_parked = 0;      // abandoned frames parked in the DLQ
  std::uint64_t dlq_replayed = 0;    // parked frames re-sent via replay
  std::uint64_t gated = 0;           // inbound frames refused by the gate
  std::uint64_t acks_held = 0;       // acks deferred via hold_current_ack()
  std::uint64_t acks_released = 0;   // deferred acks later released
};

// Sliding dedup window over sequence numbers that may arrive out of
// order: `floor` is the highest seq below which everything has been
// accepted; `above` holds accepted seqs past a gap. The window
// self-compacts as gaps fill, so memory tracks the outstanding seqs, not
// history. The channel itself needs none (it releases in order); the
// Context Server keys one by publisher over event sequence numbers, and
// components one by subscription over delivered events — see
// docs/REPLICATION.md.
struct SeqDedup {
  std::uint64_t floor = 0;
  std::unordered_set<std::uint64_t> above;

  // Returns true the first time `seq` is seen.
  bool accept(std::uint64_t seq);

  // Snapshot and vnode-handoff wire form: the floor, then `above` sorted so
  // equal windows encode to equal bytes.
  void encode(serde::Writer& w) const;
  static Expected<SeqDedup> decode(serde::Reader& r);
};

// Why a frame ended up in the dead-letter queue.
enum class DeadLetterCause : std::uint8_t {
  kExhausted = 0,  // retransmit budget spent without an ack
  kDetached,       // destination was never attached / left for good
  kFailedOver,     // destination declared failed via fail_all()
  kMediator,       // mediator-level delivery failure (subscription lease
                   // expired with the subscriber unreachable)
};
const char* to_string(DeadLetterCause cause);

// One abandoned frame, kept intact so an operator (or a recovered
// destination) can replay what the retransmit budget could not deliver.
// `payload` shares the original send's pooled buffer — parking is a
// refcount bump, not a copy.
struct DeadLetter {
  Guid dest;
  std::uint64_t seq = 0;
  std::uint32_t inner_type = 0;
  serde::BufferRef payload;
  unsigned attempts = 0;
  SimTime first_sent;
  SimTime parked_at;
  DeadLetterCause cause = DeadLetterCause::kExhausted;

  [[nodiscard]] Duration age(SimTime now) const { return now - parked_at; }
};

// Bounded parking lot for abandoned frames (ROADMAP: "persistent dead-letter
// queue"). Oldest entries are evicted once `capacity` is reached, so memory
// stays flat under a dead destination firehose. Introspectable via
// entries(); Sci::dead_letters() surfaces it per range.
class DeadLetterQueue {
 public:
  DeadLetterQueue(std::size_t capacity, obs::Gauge* depth)
      : capacity_(capacity), depth_(depth) {}

  void park(DeadLetter letter);

  // Removes and returns every parked entry (operator inspected and
  // discarded them, or wants to re-inject through another path).
  std::vector<DeadLetter> drain();

  [[nodiscard]] const std::deque<DeadLetter>& entries() const {
    return letters_;
  }
  [[nodiscard]] std::size_t size() const { return letters_.size(); }
  [[nodiscard]] bool empty() const { return letters_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t evicted() const { return evicted_; }

 private:
  std::size_t capacity_;
  std::deque<DeadLetter> letters_;
  obs::Gauge* depth_ = nullptr;
  std::uint64_t evicted_ = 0;
};

// Handle to an ack the receiver deferred via hold_current_ack(). Opaque to
// the holder; release_ack() sends the ack (once) if it is still owed.
struct AckTicket {
  Guid from;
  std::uint32_t epoch = 0;
  std::uint64_t seq = 0;
  bool valid = false;
};

class ReliableChannel {
 public:
  // Receives the unwrapped inner frame, exactly once per (sender, seq) and
  // in seq order per (sender, epoch).
  using DeliverHandler = std::function<void(const net::Message&)>;
  // Receives the reconstructed inner frame of an abandoned send plus the
  // number of transmissions attempted.
  using GiveUpHandler = std::function<void(const net::Message&, unsigned)>;
  // Admission gate over inbound data frames: return false to refuse the
  // frame — no ack, no dedup entry, no delivery — so the sender keeps
  // retransmitting and eventually reaches whoever admits again (a fenced or
  // lease-lapsed Context Server uses this to stay byzantine-silent instead
  // of acking ops it will not apply).
  using ReceiveGate = std::function<bool(std::uint32_t inner_type)>;

  // `self` is the network identity the owner is attached as; envelopes are
  // sent from (and acked to) that node.
  ReliableChannel(net::Network& network, Guid self, ReliableConfig config = {});
  ~ReliableChannel();

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  void set_give_up_handler(GiveUpHandler handler) {
    give_up_ = std::move(handler);
  }
  void set_receive_gate(ReceiveGate gate) { gate_ = std::move(gate); }

  // --- deferred acks (synchronous replication, docs/REPLICATION.md) -------
  // Valid only inside the deliver callback: claims the in-flight frame's
  // ack, which then is NOT sent when delivery returns. Duplicate arrivals
  // of the same frame stay silent while the ack is held, so the sender's
  // retransmit loop keeps running until release_ack(). Returns an invalid
  // ticket outside a delivery (the caller treats that as nothing to hold).
  AckTicket hold_current_ack();
  // Sends the held ack. Idempotent; a ticket orphaned by halt()/rebind() or
  // a sender epoch advance releases as a no-op.
  void release_ack(const AckTicket& ticket);

  // Queues `payload` for reliable delivery of `inner_type` to `to` and
  // returns the assigned sequence number. Retransmits until acked, the
  // attempt cap is reached (dead letter + give-up callback), or the
  // destination turns out to be detached (immediate give-up). The channel
  // keeps a reference to `payload`, not a copy.
  std::uint64_t send(Guid to, std::uint32_t inner_type,
                     serde::BufferRef payload);

  // Funnel for the owner's network handler. Returns true when the frame was
  // a channel envelope (consumed): data frames are released in seq order
  // through `deliver` and acked; ack frames settle pending sends.
  bool on_message(const net::Message& message, const DeliverHandler& deliver);

  // Declares `to` failed: every pending frame to it is handed to the
  // give-up handler immediately (counted as failovers, not dead letters)
  // and parked in the dead-letter queue. Also cancels the retransmit
  // timers; the next frame to `to` carries a floor past every frame handed
  // back. Returns the number of frames handed back. `cause`
  // tags the parked entries (kMediator when a subscription-lease reaper,
  // not a failover, abandoned the destination).
  std::size_t fail_all(Guid to,
                       DeadLetterCause cause = DeadLetterCause::kFailedOver);

  // Cancels all retransmission state without callbacks (models a local
  // crash/halt of the owner).
  void halt();

  // Identity takeover: this channel now speaks for `new_self` at `epoch`.
  // Pending frames are dropped without callbacks and per-destination
  // sequence counters restart; receivers restart the stream when they see
  // the higher epoch. Used when a standby Context Server adopts the
  // failed primary's node identity.
  void rebind(Guid new_self, std::uint32_t epoch);

  void set_epoch(std::uint32_t epoch) { epoch_ = epoch; }
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }

  // The channel's bounded dead-letter queue (empty when
  // config.dead_letter_capacity == 0 — nothing is ever parked).
  [[nodiscard]] const DeadLetterQueue& dead_letters() const { return dlq_; }

  // Re-sends every parked dead letter through the normal reliable path
  // (fresh sequence numbers) and empties the queue. Returns the number of
  // frames replayed.
  std::size_t replay_dead_letters();

  // Re-sends one already-drained letter through the reliable path. Lets the
  // facade merge several channels' queues and replay in global park order
  // (Sci::replay_dead_letters on a partitioned range).
  void replay_dead_letter(DeadLetter letter);

  // Empties the queue without resending; returns the removed entries.
  std::vector<DeadLetter> drain_dead_letters();

  [[nodiscard]] std::size_t in_flight() const;
  [[nodiscard]] std::size_t in_flight_to(Guid to) const;
  [[nodiscard]] const ChannelStats& stats() const { return stats_; }
  [[nodiscard]] const ReliableConfig& config() const { return config_; }
  [[nodiscard]] Guid self() const { return self_; }

 private:
  struct Pending {
    std::uint32_t inner_type = 0;
    serde::BufferRef payload;
    // The encoded kRelData envelope, built once on first transmit and
    // shared by every retransmission. Re-encoded only when the channel
    // epoch or the peer's floor moved under it.
    serde::BufferRef envelope;
    std::uint32_t envelope_epoch = 0;
    std::uint64_t envelope_floor = 0;
    unsigned attempts = 0;
    SimTime first_sent;
    sim::TimerHandle retry;
  };

  struct Peer {
    std::uint64_t next_seq = 0;
    // Ordered so fail_all() hands frames back oldest-first.
    std::map<std::uint64_t, Pending> pending;
  };

  // Receive-side state per sender: last seen incarnation, the next seq to
  // release in it (0 until the stream is joined) and the frames that
  // arrived ahead of a gap, ready to deliver.
  struct Inbound {
    std::uint32_t epoch = 0;
    std::uint64_t next = 0;
    std::map<std::uint64_t, net::Message> ahead;
  };

  void transmit(Guid to, std::uint64_t seq);
  void arm_retry(Guid to, std::uint64_t seq, unsigned attempts);
  void give_up(Guid to, std::uint64_t seq, DeadLetterCause cause);
  void park(Guid to, std::uint64_t seq, const Pending& pending,
            DeadLetterCause cause);
  [[nodiscard]] Duration retry_delay(unsigned attempts);
  [[nodiscard]] net::Message inner_message(Guid to, const Pending& p) const;
  void send_ack(Guid to, std::uint32_t epoch, std::uint64_t seq);
  // Hands `inner`, the frame at in.next, to `deliver` and acks it unless
  // the handler held the ack.
  void deliver_next(Inbound& in, const net::Message& inner,
                    const DeliverHandler& deliver);
  // Releases the run of waiting frames that starts at in.next; those below
  // it were given up by the sender and go undelivered.
  void drain(Inbound& in, const DeliverHandler& deliver);

  net::Network& network_;
  Guid self_;
  ReliableConfig config_;
  Rng rng_;
  GiveUpHandler give_up_;
  ReceiveGate gate_;
  std::uint32_t epoch_ = 0;
  std::unordered_map<Guid, Peer> peers_;
  std::unordered_map<Guid, Inbound> inbound_;
  // Frames whose acks are held via hold_current_ack(), keyed by
  // (sender, seq); duplicates of these stay unacked until release.
  std::set<std::pair<Guid, std::uint64_t>> deferred_;
  // The frame currently inside the deliver callback (claimable ack).
  std::optional<AckTicket> rx_current_;
  bool rx_held_ = false;
  DeadLetterQueue dlq_;

  obs::TwinCounter m_accepted_;
  obs::TwinCounter m_data_sent_;
  obs::TwinCounter m_retransmits_;
  obs::TwinCounter m_acked_;
  obs::TwinCounter m_delivered_;
  obs::TwinCounter m_dup_suppressed_;
  obs::TwinCounter m_stale_epoch_;
  obs::TwinCounter m_dead_letters_;
  obs::TwinCounter m_failovers_;
  obs::TwinCounter m_dlq_parked_;
  obs::TwinCounter m_dlq_replayed_;
  obs::Gauge* m_dlq_depth_ = nullptr;
  obs::Histogram* m_ack_rtt_ms_ = nullptr;
  obs::Histogram* m_recovery_ms_ = nullptr;

  ChannelStats stats_;
};

}  // namespace sci::reliable
