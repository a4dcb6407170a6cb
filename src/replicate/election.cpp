#include "replicate/election.h"

#include <algorithm>
#include <utility>

#include "common/log.h"
#include "serde/buffer.h"

namespace sci::replicate {

namespace {

constexpr const char* kTag = "election";

}  // namespace

// ---------------------------------------------------------------------------
// ElectionAgent (standby)

ElectionAgent::ElectionAgent(net::Network& network, Guid self,
                             ReplicationConfig repl,
                             WatermarkProvider watermark, EpochProvider epoch,
                             ElectedCallback elected)
    : network_(network),
      self_(self),
      repl_(repl),
      watermark_(std::move(watermark)),
      epoch_(std::move(epoch)),
      elected_cb_(std::move(elected)),
      last_primary_heard_(network.simulator().now()),
      heard_primary_(true) {
  SCI_ASSERT(watermark_ != nullptr);
  SCI_ASSERT(epoch_ != nullptr);
  obs::MetricsRegistry& metrics = network_.simulator().metrics();
  m_candidacies_ = &metrics.counter("repl.election.candidacies");
  m_votes_granted_ = &metrics.counter("repl.election.votes_granted");
  m_won_ = &metrics.counter("repl.election.won");
  m_lease_acks_sent_ = &metrics.counter("repl.lease.acks_sent");
  m_lease_acks_refused_ = &metrics.counter("repl.lease.acks_refused");
}

ElectionAgent::~ElectionAgent() {
  // The CS destroys the agent on promote/fence while the staggered launch
  // or a candidacy retry is typically still scheduled; both capture `this`.
  network_.simulator().cancel(stagger_timer_);
  network_.simulator().cancel(retry_timer_);
}

bool ElectionAgent::primary_recently_alive() const {
  if (!heard_primary_) return false;
  const Duration silence = network_.simulator().now() - last_primary_heard_;
  return silence.count_micros() <= repl_.promote_timeout().count_micros();
}

void ElectionAgent::send_raw(Guid to, std::uint32_t type,
                             serde::BufferRef payload) {
  net::Message msg;
  msg.type = type;
  msg.from = self_;
  msg.to = to;
  msg.payload = std::move(payload);
  (void)network_.send(std::move(msg));
}

void ElectionAgent::note_primary_alive() {
  last_primary_heard_ = network_.simulator().now();
  heard_primary_ = true;
  // Liveness resumed: an unfinished candidacy was a false alarm.
  active_ = false;
}

void ElectionAgent::on_heartbeat(serde::FrameView payload, Guid from) {
  serde::Reader r(payload);
  const auto epoch = r.varint();
  // A superseded incarnation's beat must neither refresh liveness, nor
  // rewrite the group view, nor be acked.
  if (!epoch || static_cast<std::uint32_t>(*epoch) < epoch_()) return;
  const auto e = static_cast<std::uint32_t>(*epoch);
  if (!r.varint() || !r.varint()) return;  // skip head + fingerprint
  note_primary_alive();
  const auto seq = r.varint();
  if (!seq) return;
  if (e < max_voted_epoch_) {
    // THE fencing rule: this voter pledged a higher epoch, so the deposed
    // primary must never again assemble a lease majority through it.
    m_lease_acks_refused_->inc();
    SCI_DEBUG(kTag, "%s: refusing lease ack for epoch %u (pledged %u)",
              self_.short_string().c_str(), e, max_voted_epoch_);
  } else {
    serde::Writer w(16);
    w.varint(e);
    w.varint(*seq);
    send_raw(from, kReplLeaseAck, w.take_ref());
    m_lease_acks_sent_->inc();
  }
  // Trailing group view: the full standby list, self included.
  const auto count = r.varint();
  if (!count || *count == 0 || *count > 64) return;
  std::vector<Guid> fresh;
  fresh.reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    const auto member = r.guid();
    if (!member) return;
    fresh.push_back(*member);
  }
  view_ = std::move(fresh);
}

void ElectionAgent::on_vote_request(serde::FrameView payload,
                                    Guid from) {
  serde::Reader r(payload);
  const auto epoch = r.varint();
  if (!epoch) return;
  const auto watermark = r.varint();
  if (!watermark) return;
  const auto e = static_cast<std::uint32_t>(*epoch);
  // Grant rules, every one load-bearing:
  //  1. the candidacy epoch must be news — a sitting incarnation's epoch (or
  //     older) can never be re-elected;
  //  2. the primary must look dead from *this* voter's seat too, so an
  //     impatient sibling cannot depose a healthy primary;
  //  3. one vote per epoch (re-grants to the same candidate are idempotent,
  //     and epochs below an existing pledge are refused outright);
  //  4. the candidate's applied watermark must be at least ours — a stale
  //     standby can never win, and with sync_acks >= 1 the winner provably
  //     holds every client-acked op (majority ∩ majority ≠ ∅).
  if (e <= epoch_()) return;
  if (e < max_voted_epoch_) return;
  if (primary_recently_alive()) return;
  const auto it = voted_.find(e);
  if (it != voted_.end() && it->second != from) return;
  if (*watermark < watermark_()) {
    SCI_DEBUG(kTag, "%s: refusing vote for %s at epoch %u (watermark %llu < %llu)",
              self_.short_string().c_str(), from.short_string().c_str(), e,
              static_cast<unsigned long long>(*watermark),
              static_cast<unsigned long long>(watermark_()));
    // This voter is strictly fresher than a sibling that already believes
    // the primary dead. Counter-launch above the refused epoch right away:
    // the staler candidate has not pledged that epoch yet (its own retry is
    // a promote_timeout away), so its vote is free for the taking. Without
    // this the pair can livelock — each epoch gets self-voted by whichever
    // node launches it first, and fixed-phase retries keep the fresher one
    // perpetually second (Raft breaks the same tie with its term bump).
    epoch_floor_ = std::max(epoch_floor_, e);
    const bool electable =
        view_.size() + 1 >= 3 &&
        std::find(view_.begin(), view_.end(), self_) != view_.end();
    if (!elected_ && electable) {
      if (active_ && cand_epoch_ <= e) {
        launch();  // relaunch above the floor
      } else if (!active_ && !launch_pending_) {
        launch();
      }
    }
    return;
  }
  voted_[e] = from;
  max_voted_epoch_ = std::max(max_voted_epoch_, e);
  last_grant_ = network_.simulator().now();
  granted_once_ = true;
  m_votes_granted_->inc();
  serde::Writer w(8);
  w.varint(e);
  send_raw(from, kReplVoteGrant, w.take_ref());
}

void ElectionAgent::on_vote_grant(serde::FrameView payload,
                                  Guid from) {
  serde::Reader r(payload);
  const auto epoch = r.varint();
  if (!epoch) return;
  if (!active_ || static_cast<std::uint32_t>(*epoch) != cand_epoch_) return;
  grants_.insert(from);
  if (grants_.size() < quorum()) return;
  active_ = false;
  elected_ = true;
  elected_epoch_ = cand_epoch_;
  m_won_->inc();
  SCI_INFO(kTag, "%s: won election at epoch %u (%zu/%zu votes)",
           self_.short_string().c_str(), elected_epoch_, grants_.size(),
           view_.size() + 1);
  if (elected_cb_) elected_cb_(elected_epoch_);
}

bool ElectionAgent::start_candidacy() {
  if (elected_ || active_ || launch_pending_) return true;
  // Quorum needs a majority of (standbys + dead primary). Below three total
  // members no standby majority exists without the primary's vote, so the
  // 1-standby deployments keep the facade-oracle fallback.
  if (view_.size() + 1 < 3) return false;
  if (std::find(view_.begin(), view_.end(), self_) == view_.end())
    return false;
  // Tie-break by GUID: candidacies launch staggered by rank in the
  // descending-GUID order of the known view, so the top-ranked live standby
  // normally collects its majority before a sibling even starts.
  std::vector<Guid> ranked = view_;
  std::sort(ranked.begin(), ranked.end(),
            [](const Guid& a, const Guid& b) { return b < a; });
  const auto rank = static_cast<std::uint64_t>(
      std::find(ranked.begin(), ranked.end(), self_) - ranked.begin());
  launch_pending_ = true;
  const Duration delay =
      Duration::micros(static_cast<std::int64_t>(rank) *
                       repl_.heartbeat_period.count_micros());
  stagger_timer_ = network_.simulator().schedule(delay, [this] {
    stagger_timer_ = sim::TimerHandle();  // fired: later cancel is a no-op
    launch_pending_ = false;
    if (elected_ || active_) return;
    // Abort when the alarm went stale during the stagger: the primary came
    // back, or a better-ranked sibling's candidacy reached us for a vote.
    if (primary_recently_alive()) return;
    if (granted_once_) {
      const Duration since = network_.simulator().now() - last_grant_;
      if (since.count_micros() <= repl_.promote_timeout().count_micros())
        return;
    }
    launch();
  });
  return true;
}

void ElectionAgent::launch() {
  active_ = true;
  cand_epoch_ = std::max({epoch_(), max_voted_epoch_, epoch_floor_}) + 1;
  voted_[cand_epoch_] = self_;
  max_voted_epoch_ = cand_epoch_;
  grants_.clear();
  grants_.insert(self_);
  m_candidacies_->inc();
  SCI_INFO(kTag, "%s: candidacy at epoch %u (watermark %llu, group %zu)",
           self_.short_string().c_str(), cand_epoch_,
           static_cast<unsigned long long>(watermark_()), view_.size() + 1);
  serde::Writer w(16);
  w.varint(cand_epoch_);
  w.varint(watermark_());
  const serde::BufferRef payload = w.take_ref();
  for (const Guid member : view_) {
    if (member == self_) continue;
    send_raw(member, kReplVoteRequest, payload);
  }
  // Retry with a deterministic per-node, per-epoch jitter (Raft's
  // randomized election timeout, reproducible under the sim seed). Without
  // it two candidates with a constant phase offset livelock: each epoch is
  // self-voted by whichever launches it first, and the one whose watermark
  // the other refuses never catches a virgin epoch. Drifting phases let the
  // fresher candidate eventually launch an epoch its sibling has not yet
  // pledged — and a sibling that has not voted in that epoch grants even
  // mid-candidacy of its own.
  std::uint64_t h = self_.lo() * 0x9E3779B97F4A7C15ULL +
                    std::uint64_t{cand_epoch_} * 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 31;
  const auto period =
      static_cast<std::uint64_t>(repl_.heartbeat_period.count_micros());
  const Duration jitter =
      Duration::micros(static_cast<std::int64_t>(period == 0 ? 0 : h % period));
  const std::uint32_t launched = cand_epoch_;
  // Cancel the previous epoch's retry before arming the new one so at most
  // one retry_check is ever pending — the destructor cancels exactly that.
  network_.simulator().cancel(retry_timer_);
  retry_timer_ = network_.simulator().schedule(
      repl_.promote_timeout() + jitter,
      [this, launched] { retry_check(launched); });
}

void ElectionAgent::retry_check(std::uint32_t launched_epoch) {
  retry_timer_ = sim::TimerHandle();  // fired: later cancel is a no-op
  // Split vote or loss ate the grants: if the silence persists, go again at
  // a higher epoch rather than latch forever.
  if (!active_ || elected_ || cand_epoch_ != launched_epoch) return;
  if (primary_recently_alive()) {
    active_ = false;
    return;
  }
  launch();
}

}  // namespace sci::replicate
