// SCI — quorum-based fencing leases and standby elections.
//
// PR 3's failover is operator/facade fiat: the heartbeat watchdog fires and
// the facade "just knows" whether the primary is dead, so a partitioned but
// alive primary is only fenced by oracle (docs/REPLICATION.md limitations).
// This module removes the oracle with two cooperating protocols layered on
// the existing epoch-framed replication stream:
//
//  * LeaseKeeper (primary side) — the right to admit state-mutating ops is
//    a time-bounded **fencing lease** renewed by majority acknowledgement
//    from the replica group (primary + standbys). Every heartbeat_period the
//    keeper sends kReplLeaseReq to each member; when a majority acks one
//    request, the lease extends to that request's *send* time plus
//    promote_timeout (timed from send, so the extension is conservative no
//    matter how long acks took). A partitioned primary stops hearing acks,
//    its lease lapses, and the Context Server refuses further mutating ops:
//    the ex-primary fences *itself*, no oracle required.
//
//  * ElectionAgent (standby side) — on watchdog silence, standbys run a
//    majority-vote election instead of asking the facade to adjudicate.
//    A candidate picks an epoch above anything it has seen or voted for,
//    votes for itself and solicits the group (kReplVoteRequest). Voters
//    grant (kReplVoteGrant) only when the candidacy epoch is news, the
//    primary has been silent past promote_timeout, they have not voted for
//    a different candidate in that epoch, and the candidate's applied
//    watermark is at least their own — the Raft election restriction, which
//    keeps a stale standby from winning and (with sync_acks ≥ 1) guarantees
//    the winner holds every client-acked op. Ties are broken by GUID:
//    candidacies launch staggered by GUID rank so the first-ranked live
//    standby usually wins before a sibling even starts. The winner promotes
//    through the existing promote path under the elected epoch.
//
// Safety comes from the interaction of the two halves: a voter that has
// pledged epoch E refuses lease acks for any epoch < E, so once a majority
// elects a successor the deposed primary can never again assemble a lease
// majority — its lease runs out from the last majority-acked send and stays
// lapsed. Two holders of the *same* epoch are impossible outright (two
// same-epoch majorities would have to intersect in a double-voting member).
//
// Like the rest of src/replicate, the module knows nothing about the
// Context Server: group membership, epochs and watermarks enter through
// callbacks, and the CS routes the four raw frame kinds here.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/guid.h"
#include "common/time.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "replicate/replication.h"
#include "sim/simulator.h"

namespace sci::replicate {

// Election/lease frame types, continuing the 0xAE replicate space. All four
// are raw fire-and-forget like kReplHeartbeat: lease requests are periodic
// (a lost one delays renewal by one period) and a candidate whose vote
// requests are lost simply re-launches at a higher epoch.
inline constexpr std::uint32_t kReplLeaseReq = 0xAE05;
inline constexpr std::uint32_t kReplLeaseAck = 0xAE06;
inline constexpr std::uint32_t kReplVoteRequest = 0xAE07;
inline constexpr std::uint32_t kReplVoteGrant = 0xAE08;

// Primary-side lease maintenance. Owned by a Context Server in the primary
// role whenever a replication log exists. Renews every heartbeat_period; one
// majority ack holds the lease for promote_timeout, so the primary
// self-fences on the schedule the standbys use to declare it dead, and a
// lease promise never outlives the silence a voter requires before granting
// a rival's candidacy (no held lease can overlap a majority election).
class LeaseKeeper {
 public:
  // Current replica group (standby node GUIDs; self/primary is implicit).
  using MembersProvider = std::function<std::vector<Guid>()>;
  // The primary channel's incarnation epoch stamping each request.
  using EpochProvider = std::function<std::uint32_t()>;
  // held -> lapsed: the CS closes admission until re-acquisition.
  using LapseCallback = std::function<void()>;
  // none/lapsed -> held under `epoch` (fires on every re-acquisition too, so
  // the owner can keep a per-epoch holder history).
  using AcquireCallback = std::function<void(std::uint32_t epoch)>;

  LeaseKeeper(net::Network& network, Guid self, ReplicationConfig config,
              MembersProvider members, EpochProvider epoch,
              LapseCallback on_lapse = {}, AcquireCallback on_acquire = {});
  ~LeaseKeeper();

  LeaseKeeper(const LeaseKeeper&) = delete;
  LeaseKeeper& operator=(const LeaseKeeper&) = delete;

  // Raw kReplLeaseAck from `from`.
  void on_lease_ack(serde::FrameView payload, Guid from);

  // Admission predicate: the lease extension a majority last granted has
  // not yet run out. Purely time-based — precise even between renew ticks.
  [[nodiscard]] bool holds_lease() const;
  [[nodiscard]] Duration lease_duration() const {
    return config_.promote_timeout;
  }

 private:
  void renew_tick();
  [[nodiscard]] std::size_t quorum(std::size_t group_size) const {
    return group_size / 2 + 1;
  }
  void acquired(std::uint32_t epoch);

  struct Outstanding {
    SimTime sent_at;
    std::set<Guid> members;  // group snapshot the request was sent to
    std::set<Guid> acks;
  };

  net::Network& network_;
  Guid self_;
  ReplicationConfig config_;
  MembersProvider members_;
  EpochProvider epoch_;
  LapseCallback on_lapse_;
  AcquireCallback on_acquire_;

  std::uint64_t lease_seq_ = 0;
  std::map<std::uint64_t, Outstanding> outstanding_;  // recent lease reqs
  SimTime lease_until_;
  bool held_ = false;

  std::optional<sim::PeriodicTimer> renew_timer_;

  obs::Counter* m_renewals_ = nullptr;
  obs::Counter* m_acks_ = nullptr;
  obs::Counter* m_acquisitions_ = nullptr;
  obs::Counter* m_lapses_ = nullptr;
};

// Standby-side voter + candidate. Owned by a Context Server in the standby
// role.
class ElectionAgent {
 public:
  // The follower's applied watermark (vote-grant freshness gate).
  using WatermarkProvider = std::function<std::uint64_t()>;
  // Highest incarnation epoch seen on the replication stream.
  using EpochProvider = std::function<std::uint32_t()>;
  // Won a majority at `epoch`: promote through the normal path, stamping
  // `epoch` on the new incarnation (voters pledged to it).
  using ElectedCallback = std::function<void(std::uint32_t epoch)>;

  ElectionAgent(net::Network& network, Guid self, ReplicationConfig repl,
                WatermarkProvider watermark, EpochProvider epoch,
                ElectedCallback elected);
  ~ElectionAgent();

  ElectionAgent(const ElectionAgent&) = delete;
  ElectionAgent& operator=(const ElectionAgent&) = delete;

  // Raw kReplHeartbeat (also parsed by the follower): refreshes primary
  // liveness and the replica-group view the primary appends to each beat.
  void on_heartbeat(serde::FrameView payload);
  // Raw kReplLeaseReq from the primary: ack unless pledged to a higher
  // epoch. Doubles as primary liveness.
  void on_lease_request(serde::FrameView payload, Guid from);
  // Raw kReplVoteRequest from a candidate sibling.
  void on_vote_request(serde::FrameView payload, Guid from);
  // Raw kReplVoteGrant from a voter sibling.
  void on_vote_grant(serde::FrameView payload, Guid from);
  // Replication records/snapshots also prove the primary is alive.
  void note_primary_alive();

  // Begin (or continue) a candidacy, staggered by GUID rank. Returns false
  // when the known group is too small for any majority without the dead
  // primary's vote (< 3 members) — the caller falls back to the facade
  // oracle path, which remains the only option for 1-standby deployments.
  bool start_candidacy();

  [[nodiscard]] bool elected() const { return elected_; }
  [[nodiscard]] std::uint32_t elected_epoch() const { return elected_epoch_; }
  // Replica-group view learned from heartbeats (standby nodes, incl. self).
  [[nodiscard]] const std::vector<Guid>& view() const { return view_; }
  [[nodiscard]] std::uint32_t max_voted_epoch() const {
    return max_voted_epoch_;
  }
  [[nodiscard]] bool candidacy_active() const { return active_; }

 private:
  void launch();
  void retry_check(std::uint32_t launched_epoch);
  [[nodiscard]] bool primary_recently_alive() const;
  [[nodiscard]] std::size_t quorum() const { return (view_.size() + 1) / 2 + 1; }
  void send_raw(Guid to, std::uint32_t type, serde::BufferRef payload);

  net::Network& network_;
  Guid self_;
  ReplicationConfig repl_;
  WatermarkProvider watermark_;
  EpochProvider epoch_;
  ElectedCallback elected_cb_;

  std::vector<Guid> view_;  // standby nodes from the heartbeat group view
  SimTime last_primary_heard_;
  bool heard_primary_ = false;
  SimTime last_grant_;      // when this agent last granted a sibling's vote
  bool granted_once_ = false;

  std::map<std::uint32_t, Guid> voted_;  // one vote per epoch
  std::uint32_t max_voted_epoch_ = 0;
  std::uint32_t epoch_floor_ = 0;  // next candidacy launches above this

  bool launch_pending_ = false;
  bool active_ = false;
  std::uint32_t cand_epoch_ = 0;
  std::set<Guid> grants_;   // voters for cand_epoch_ (incl. self)
  bool elected_ = false;
  std::uint32_t elected_epoch_ = 0;

  // Pending simulator callbacks (staggered launch, candidacy retry), owned
  // so ~ElectionAgent can cancel them: the CS destroys the agent on promote
  // and fence while a retry_check is typically still scheduled.
  sim::TimerHandle stagger_timer_;
  sim::TimerHandle retry_timer_;

  obs::Counter* m_candidacies_ = nullptr;
  obs::Counter* m_votes_granted_ = nullptr;
  obs::Counter* m_won_ = nullptr;
  obs::Counter* m_lease_acks_sent_ = nullptr;
  obs::Counter* m_lease_acks_refused_ = nullptr;  // pledged-epoch refusals
};

}  // namespace sci::replicate
