// SCI — quorum-based fencing leases and standby elections.
//
// Failover without an oracle: a partitioned but alive primary fences
// itself, and the standbys elect its successor by majority vote. Two
// cooperating protocols ride the epoch-framed replication stream:
//
//  * The fencing lease (primary side, held by ReplicationLog) — the right to
//    admit state-mutating ops is a time-bounded lease renewed by majority
//    acknowledgement from the replica group (primary + standbys). Every
//    kReplHeartbeat is a lease request: it carries a beat sequence number,
//    and each standby's ElectionAgent answers it with kReplLeaseAck. When a
//    majority acks one beat, the lease extends to that beat's *send* time
//    plus promote_timeout (timed from send, so the extension is conservative
//    no matter how long acks took). A partitioned primary stops hearing
//    acks, its lease lapses, and the Context Server refuses further mutating
//    ops: the ex-primary fences *itself*.
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
// Context Server: epochs and watermarks enter through callbacks, and the CS
// routes the raw frame kinds here.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/guid.h"
#include "common/time.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "replicate/replication.h"
#include "sim/simulator.h"

namespace sci::replicate {

// Election/lease frame types, continuing the 0xAE replicate space. All
// three are raw fire-and-forget like kReplHeartbeat: a lost lease ack delays
// renewal by one beat, and a candidate whose vote requests are lost simply
// re-launches at a higher epoch.
inline constexpr std::uint32_t kReplLeaseAck = 0xAE06;
inline constexpr std::uint32_t kReplVoteRequest = 0xAE07;
inline constexpr std::uint32_t kReplVoteGrant = 0xAE08;

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

  // Raw kReplHeartbeat from the primary `from` (also parsed by the
  // follower): refreshes primary liveness and the replica-group view the
  // primary appends to each beat, and acks the beat as a lease request
  // unless this agent pledged a higher epoch.
  void on_heartbeat(serde::FrameView payload, Guid from);
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
