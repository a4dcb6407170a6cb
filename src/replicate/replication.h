// SCI — primary/backup replication of Context Server state, the replica
// group's fencing lease and its standby elections.
//
// The paper's Range layer assumes "a single always-on Context Server" per
// range. PR 2's reliable channel makes a CS crash survivable for in-flight
// traffic, but the CS's *state* — registrar membership, profiles,
// subscriptions, active configurations, the context store — still dies with
// the node. This module ships that state to standbys so one can take over
// the range without components re-registering (docs/REPLICATION.md).
//
// Split of responsibilities:
//
//  * ReplicationLog (primary side) — ships every record the CS appends (the
//    CS mints its index and builds its kReplRecord frame once) to every
//    attached standby over the CS's ReliableChannel the moment it is
//    appended. A standby that attaches cold gets a snapshot of the state at
//    that moment (kReplSnapshot, bytes produced by a provider callback the
//    CS supplies); the log keeps no copy of it. The log keeps only a tail
//    of recent frames, smaller in bytes than the last snapshot it shipped,
//    so a WAL-recovered standby rejoins by delta only while that is the
//    cheaper transfer. Standbys ack their applied index (kReplApplied, raw,
//    epoch-stamped — acks from superseded incarnations are ignored); a
//    record commits once sync_acks standbys applied it, and the
//    `repl.lag{node=…}` gauge tracks head − min(applied).
//    The log also holds the group's fencing lease: every heartbeat is a
//    lease request, and a majority ack of one beat extends the lease to
//    that beat's send time plus promote_timeout.
//
//  * ReplicationFollower (standby side) — applies records strictly in index
//    order (the channel hands them over in send order, so it applies the
//    record at applied + 1 and drops anything else), hands snapshots
//    and records to CS-supplied callbacks, answers every current-epoch
//    heartbeat with kReplApplied (epoch, applied, beat seq) — one frame
//    that is both its progress report and its lease vote — and watches the
//    primary on one liveness clock: any record, snapshot or beat of the
//    current incarnation refreshes it. After promote_timeout of silence the
//    follower requests promotion — once per silence episode, re-armed when
//    liveness resumes and re-fired if silence persists a full further
//    timeout after an ignored request. A follower still awaiting the
//    epoch's snapshot never requests promotion: it has nothing safe to take
//    over with. The request runs a majority-vote election among the
//    standbys; a group too small to elect (< 3 members counting the dead
//    primary) falls back to the facade's liveness oracle.
//
// The election, Raft-style. A candidate picks an epoch above anything it
// has seen or voted for, votes for itself and solicits the group
// (kReplVoteRequest). Voters grant (kReplVoteGrant) only when all four
// rules hold:
//  1. the candidacy epoch is news — a sitting incarnation's epoch (or
//     older) can never be re-elected;
//  2. the primary looks dead from the voter's own seat too (its liveness
//     clock is past promote_timeout), so an impatient sibling cannot depose
//     a healthy primary;
//  3. one vote per epoch (re-grants to the same candidate are idempotent,
//     and epochs below an existing pledge are refused outright);
//  4. the candidate's applied watermark is at least the voter's — a stale
//     standby can never win, and with sync_acks >= 1 the winner provably
//     holds every client-acked op (majority ∩ majority ≠ ∅).
// Ties are broken by GUID: candidacies launch staggered by rank so the
// first-ranked live standby usually wins before a sibling even starts. The
// winner promotes through the normal path under the elected epoch.
//
// The fencing rule ties the two halves together: a voter that pledged
// epoch E answers no beat of an epoch below E (`repl.lease.acks_refused`),
// so once a majority elects a successor the deposed primary can never
// again assemble a lease majority — its lease runs out from the last
// majority-acked send and it stops admitting: the ex-primary fences
// *itself*. Two holders of the *same* epoch are impossible outright (two
// same-epoch majorities would have to intersect in a double-voting member).
//
// Every shipped frame is prefixed with the primary channel's incarnation
// epoch. A follower drops frames from superseded epochs, and when the
// epoch advances it applies nothing until the new epoch's snapshot, which
// the primary sends ahead of that epoch's records — so a standby that
// survives a failover resynchronises cleanly against the promoted primary's
// fresh log, whose indices continue from the promoted server's own head.
//
// The module deliberately knows nothing about the Context Server: state
// semantics enter only through std::function callbacks, and the CS routes
// the frame kinds here, so sci_replicate sits below sci_range in the
// dependency graph.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/expected.h"
#include "common/guid.h"
#include "common/time.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "reliable/reliable.h"
#include "sim/simulator.h"

namespace sci::replicate {

// Replication frame types on net::Message::type. kReplRecord/kReplSnapshot
// travel as inner types inside the primary's reliable channel envelopes;
// the rest are raw fire-and-forget (periodic or cumulative, so losing one
// costs one beat or one candidacy retry). A heartbeat doubles as the
// fencing-lease request, and kReplApplied answers it.
inline constexpr std::uint32_t kReplRecord = 0xAE01;
inline constexpr std::uint32_t kReplSnapshot = 0xAE02;
inline constexpr std::uint32_t kReplHeartbeat = 0xAE03;
inline constexpr std::uint32_t kReplApplied = 0xAE04;
inline constexpr std::uint32_t kReplVoteRequest = 0xAE07;
inline constexpr std::uint32_t kReplVoteGrant = 0xAE08;

// What kind of state mutation a log record carries. The payload encoding is
// owned by the Context Server; the log ships it opaquely.
enum class RecordKind : std::uint8_t {
  kRegister = 1,      // component admission (registrar + profile)
  kDeparture = 2,     // deregistration or failure eviction
  kPublish = 3,       // context event (store write + mediator dispatch)
  kProfileUpdate = 4, // profile/advertisement change
  kQuery = 6,         // externally admitted query (subscription wiring)
  kConfigRetire = 7,  // configuration teardown
  kShardProfile = 9,      // sibling shard's profile mirror (put/update)
  kShardSubscribe = 10,   // cross-shard subscription installed here
  kShardUnsubscribe = 11, // cross-shard subscription torn down
  kShardDrop = 12,        // sibling shard's departure mirror (profile + subs)
  kHandoffIntent = 14,    // vnode handoff opened (the target's: + slice)
  kHandoffStaged = 15,    // publish/profile op parked during a freeze
  kHandoffCommit = 17,    // handoff committed: map epoch bump + new owner
  kHandoffAbort = 18,     // handoff abandoned: staged ops re-ingested
  kQueryCancel = 19,      // an app withdrew a parked query (payload: its id)
};
const char* to_string(RecordKind kind);

struct LogRecord {
  std::uint64_t index = 0;  // minted by the Context Server
  RecordKind kind = RecordKind::kRegister;
  Guid subject;             // the component/entity the record is about
  std::uint64_t flag = 0;   // kind-specific scalar (e.g. failure bit)
  // Opaque CS-owned body. Shared by reference along the follower's
  // pipeline: the received frame and the WAL append hold the same pooled
  // block (docs/MEMORY.md).
  serde::BufferRef payload;

  void encode(serde::Writer& w) const;
  // The decoded payload is a zero-copy slice of `bytes`.
  static Expected<LogRecord> decode(const serde::BufferRef& bytes);
};

// Heartbeats a standby may miss before it declares the primary dead.
inline constexpr std::int64_t kMissedBeats = 4;

// Replication timing. The same period times the quorum failover: every
// heartbeat is a fencing-lease request, and one majority ack holds the
// lease for promote_timeout(), exactly the silence a voter requires before
// granting a rival's candidacy, so a held lease never overlaps a majority
// election.
struct ReplicationConfig {
  // Heartbeat cadence (records ship at append, not on the beat).
  Duration heartbeat_period = Duration::millis(500);
  // Standby declares the primary dead after this much heartbeat silence.
  [[nodiscard]] Duration promote_timeout() const {
    return heartbeat_period * kMissedBeats;
  }
};

// Cheap structural digest of the replicated state (next tag, table sizes…)
// supplied by the Context Server. The primary stamps it on heartbeats; a
// fully caught-up follower compares against its own and bumps
// `repl.state_divergence` on mismatch (docs/REPLICATION.md).
using FingerprintProvider = std::function<std::uint64_t()>;

// Primary-side log. Owned by a Context Server in the primary role with at
// least one standby attached.
class ReplicationLog {
 public:
  // Produces the full-state blob a cold standby needs; called once per
  // full catch-up, between message handlers.
  using SnapshotProvider = std::function<std::vector<std::byte>()>;

  // `channel` is the primary CS's reliable channel (envelopes carry the CS
  // node identity and epoch). `metrics_label` is the owner's label slot
  // (e.g. "node=<GUID>"), which the log's counters and `repl.lag` gauge
  // share with it. `head` is the owner's last minted index: a node that
  // logged to its WAL before any standby attached, or recovered state from
  // disk, continues that sequence.
  ReplicationLog(net::Network& network, reliable::ReliableChannel& channel,
                 std::string_view metrics_label, ReplicationConfig config,
                 SnapshotProvider snapshot,
                 FingerprintProvider fingerprint = {},
                 std::uint64_t head = 0);

  ReplicationLog(const ReplicationLog&) = delete;
  ReplicationLog& operator=(const ReplicationLog&) = delete;

  // Registers `node` as a standby and brings it up to date. A node that
  // recovered state from its local WAL (docs/DURABILITY.md) announces the
  // incarnation and index it reached as (from_epoch, from_index); when that
  // watermark lies inside this log's own index space — same epoch, and no
  // record above it trimmed from the tail — the stored frames *above* it
  // are resent (delta catch-up, `repl.catchup.delta`). Anything else (a
  // different epoch, a watermark below the tail, or the default 0/0 of a
  // cold standby) takes the full transfer: a snapshot of the state at
  // head(), taken now (`repl.catchup.full`). A standby fed that way counts
  // for the commit rule only from its first ack. The epoch check is also a
  // safety rail — a fenced ex-primary's WAL watermark names a dead index
  // space, and the snapshot *replaces* whatever it recovered, so
  // fenced-epoch ops cannot resurrect.
  void attach_standby(Guid node, std::uint32_t from_epoch = 0,
                      std::uint64_t from_index = 0);
  void detach_standby(Guid node);

  // Ships `frame` (a frame_record of the record at `index`, which must be
  // head() + 1) to every attached standby at once as a kReplRecord, and
  // keeps it for delta catch-ups. The tail drops its oldest frames while it
  // holds at least as many bytes as the last snapshot shipped, so a delta
  // is only ever served when it is the smaller transfer.
  void append(std::uint64_t index, serde::BufferRef frame);

  // Raw kReplApplied (varint epoch, varint index[, varint beat seq]) from
  // `standby`: it has applied everything through that index of that
  // incarnation. Acks against other epochs are ignored — their index space
  // does not line up with this log's. A trailing beat seq makes the ack
  // the answer to that heartbeat: a majority of the members the beat was
  // sent to (the primary counts itself) extends the lease to the beat's
  // send time plus lease_duration(), whether or not `standby` is still
  // attached.
  void on_applied(serde::FrameView payload, Guid standby);
  // Admission predicate: the log holds one lease term from construction,
  // and the extension a majority last granted has not yet run out. Purely
  // time-based, so it is precise between beats too; with no standby
  // attached every beat renews it.
  [[nodiscard]] bool holds_lease() const;
  [[nodiscard]] Duration lease_duration() const {
    return config_.promote_timeout();
  }

  // Commit rule (docs/REPLICATION.md): a record commits once n >= 1
  // standbys applied it, and the owner withholds client-visible admit acks
  // until then; `on_commit` fires with the new watermark every time it
  // rises, releasing whatever the owner was holding. While fewer than `n`
  // standbys are attached every record commits at append, so a lone
  // primary keeps serving.
  void set_sync_acks(unsigned n, std::function<void(std::uint64_t)> on_commit);
  // Highest index applied by at least sync_acks standbys (== head while the
  // group is degraded below it).
  [[nodiscard]] std::uint64_t committed() const;

  [[nodiscard]] std::uint64_t head() const { return head_; }
  // head − min(applied) over attached standbys; 0 with none attached.
  [[nodiscard]] std::uint64_t lag() const;
  [[nodiscard]] std::vector<Guid> standbys() const;
  // Bytes of the frames kept for delta catch-ups; always below the last
  // snapshot frame's size.
  [[nodiscard]] std::size_t tail_bytes() const { return tail_bytes_; }

 private:
  void trim_tail();
  void heartbeat_tick();
  void extend_lease(SimTime sent_at);
  void update_lag();
  void update_committed();

  net::Network& network_;
  reliable::ReliableChannel& channel_;
  ReplicationConfig config_;
  SnapshotProvider snapshot_;
  FingerprintProvider fingerprint_;

  std::uint64_t head_;
  // kReplRecord frames of indices head_ - tail_.size() + 1 .. head_.
  std::deque<serde::BufferRef> tail_;
  std::size_t tail_bytes_ = 0;
  std::size_t snapshot_bytes_ = 0;  // the last snapshot frame shipped
  std::unordered_map<Guid, std::uint64_t> applied_;

  // Commit watermark + rise notification.
  unsigned sync_acks_ = 1;
  std::function<void(std::uint64_t)> on_commit_;
  std::uint64_t committed_seen_ = 0;

  // Fencing lease: recent beats with the member snapshot each went to.
  struct Beat {
    SimTime sent_at;
    std::set<Guid> members;
    std::set<Guid> acks;
  };
  std::uint64_t beat_seq_ = 0;
  std::map<std::uint64_t, Beat> beats_;
  SimTime lease_until_;
  bool held_ = true;

  std::optional<sim::PeriodicTimer> heartbeat_timer_;

  // Deployment totals plus the owner's label slot.
  obs::TwinCounter m_records_appended_;
  obs::TwinCounter m_records_shipped_;  // record × standby sends
  obs::TwinCounter m_heartbeats_;
  obs::TwinCounter m_delta_catchups_;
  obs::TwinCounter m_delta_bytes_;
  obs::TwinCounter m_full_catchups_;
  obs::TwinCounter m_snapshot_bytes_;
  obs::TwinCounter m_lease_acks_;
  obs::TwinCounter m_lease_lapses_;  // held → lapsed, detected at a beat
  obs::Gauge* m_lag_ = nullptr;      // this log's labelled slot only
};

// Standby-side apply loop, failure detector, lease voter and election
// candidate. Owned by a Context Server in the standby role.
class ReplicationFollower {
 public:
  // (record, bytes): `bytes` is the record's encoding as received, which
  // the owner persists verbatim.
  using ApplyRecord =
      std::function<void(const LogRecord&, const serde::BufferRef&)>;
  // (blob, base_index): replace local state with the snapshot.
  using ApplySnapshot =
      std::function<void(const std::vector<std::byte>&, std::uint64_t)>;
  // Promote this standby. `elected_epoch` is the epoch a majority voted
  // for (stamp it on the new incarnation: voters pledged to it), or 0 for a
  // request the facade adjudicates: the group is too small to elect.
  using PromoteCallback = std::function<void(std::uint32_t elected_epoch)>;

  // `self` is the standby's own network node (acks and votes originate
  // there); `primary` is the primary CS node heartbeats come from and acks
  // go to. `epoch` is the incarnation the standby was created under: frames
  // of older epochs are dropped, and candidacies start above it.
  ReplicationFollower(net::Network& network, Guid self, Guid primary,
                      std::uint32_t epoch, ReplicationConfig config,
                      ApplyRecord apply_record, ApplySnapshot apply_snapshot,
                      PromoteCallback promote,
                      FingerprintProvider local_fingerprint = {});
  ~ReplicationFollower();

  ReplicationFollower(const ReplicationFollower&) = delete;
  ReplicationFollower& operator=(const ReplicationFollower&) = delete;

  // Inner kReplRecord frame (already unwrapped by the reliable channel).
  // Decoded records keep zero-copy slices of `payload`.
  void on_record(const serde::BufferRef& payload);
  // Inner kReplSnapshot frame.
  void on_snapshot(const serde::BufferRef& payload);
  // Raw kReplHeartbeat (epoch, head, fingerprint, beat seq, group view):
  // refreshes liveness and the group view, and answers with kReplApplied
  // unless this standby pledged a higher epoch.
  void on_heartbeat(serde::FrameView payload);
  // Raw kReplVoteRequest (epoch, applied watermark) from a candidate.
  void on_vote_request(serde::FrameView payload, Guid from);
  // Raw kReplVoteGrant (epoch) from a voter.
  void on_vote_grant(serde::FrameView payload, Guid from);

  // Run for election now (the watchdog fired, or an operator asked);
  // idempotent while a candidacy or a win is pending. Falls back to
  // promote(0) when the known group is under 3 members.
  void request_promotion();

  // Adopts locally recovered state (docs/DURABILITY.md): the follower
  // already holds everything through `applied` of incarnation `epoch`, so it
  // does not await a snapshot and expects records above that watermark. If
  // the primary's stream turns out to carry a higher epoch, accept_epoch
  // falls back to the normal await-snapshot resync and the recovered state
  // is replaced wholesale.
  void seed(std::uint32_t epoch, std::uint64_t applied);

  [[nodiscard]] std::uint64_t applied() const { return applied_; }
  // A promote request is outstanding for the current silence episode
  // (cleared when primary liveness resumes).
  [[nodiscard]] bool promote_fired() const { return promoted_; }
  // Highest incarnation epoch seen on the replication stream.
  [[nodiscard]] std::uint32_t stream_epoch() const { return stream_epoch_; }
  // Still waiting for the current epoch's snapshot before applying records.
  [[nodiscard]] bool awaiting_snapshot() const { return await_snapshot_; }
  // Highest epoch this standby voted in (its pledge).
  [[nodiscard]] std::uint32_t max_voted_epoch() const {
    return max_voted_epoch_;
  }

 private:
  // Returns false when `epoch` predates max(creation epoch, stream epoch):
  // a superseded incarnation's frame, which must neither apply nor count as
  // liveness. Otherwise the frame proves the primary alive (the one
  // liveness clock), and on an advance the follower re-enters the
  // await-snapshot state.
  bool accept_epoch(std::uint32_t epoch);
  [[nodiscard]] std::uint32_t current_epoch() const {
    return std::max(epoch_, stream_epoch_);
  }
  [[nodiscard]] bool primary_recently_alive() const;
  // kReplApplied to the primary; a non-zero `beat_seq` answers that beat.
  void ack(std::uint64_t beat_seq = 0);
  void watchdog_tick();
  // Election (election.cpp).
  bool start_candidacy();
  void launch();
  void retry_check(std::uint32_t launched_epoch);
  [[nodiscard]] bool electable() const;
  [[nodiscard]] std::size_t quorum() const {
    return (view_.size() + 1) / 2 + 1;
  }
  void send_raw(Guid to, std::uint32_t type, serde::BufferRef payload);

  net::Network& network_;
  Guid self_;
  Guid primary_;
  std::uint32_t epoch_;  // creation epoch
  ReplicationConfig config_;
  ApplyRecord apply_record_;
  ApplySnapshot apply_snapshot_;
  PromoteCallback promote_;
  FingerprintProvider fingerprint_;

  std::uint64_t applied_ = 0;
  std::uint32_t stream_epoch_ = 0;
  bool await_snapshot_ = true;  // records drop until the epoch's snapshot
  SimTime last_heard_;    // the one liveness clock, started at construction
  SimTime last_request_;  // when the outstanding promote request fired
  bool heard_once_ = false;
  bool promoted_ = false;
  bool diverged_ = false;

  // Voter state.
  std::vector<Guid> view_;  // standby nodes from the heartbeat group view
  SimTime last_grant_;      // when this standby last granted a sibling's vote
  bool granted_once_ = false;
  std::map<std::uint32_t, Guid> voted_;  // one vote per epoch
  std::uint32_t max_voted_epoch_ = 0;
  std::uint32_t epoch_floor_ = 0;  // next candidacy launches above this

  // Candidate state.
  bool launch_pending_ = false;
  bool active_ = false;
  std::uint32_t cand_epoch_ = 0;
  std::set<Guid> grants_;  // voters for cand_epoch_ (incl. self)
  bool elected_ = false;

  std::optional<sim::PeriodicTimer> watchdog_;
  // Pending one-shot callbacks (staggered launch, candidacy retry), owned
  // so the destructor can cancel them: the CS destroys the follower on
  // promote and fence while a retry_check is typically still scheduled.
  sim::TimerHandle stagger_timer_;
  sim::TimerHandle retry_timer_;

  obs::Counter* m_records_applied_ = nullptr;
  obs::Counter* m_divergence_ = nullptr;
  obs::Counter* m_candidacies_ = nullptr;
  obs::Counter* m_votes_granted_ = nullptr;
  obs::Counter* m_won_ = nullptr;
  obs::Counter* m_lease_acks_sent_ = nullptr;
  obs::Counter* m_lease_acks_refused_ = nullptr;  // pledged-epoch refusals
};

// Wire envelopes shared by log and follower. Records: varint epoch, then
// the LogRecord encoding, written once. Snapshots: varint epoch, varint
// base_index, varint blob length, raw blob.
serde::BufferRef frame_record(std::uint32_t epoch, const LogRecord& record);
// The LogRecord encoding inside a record frame, as a zero-copy slice: the
// bytes a WAL entry holds.
serde::BufferRef record_bytes(const serde::BufferRef& frame);
serde::BufferRef encode_snapshot(std::uint32_t epoch,
                                 std::uint64_t base_index,
                                 const std::vector<std::byte>& blob);

}  // namespace sci::replicate
