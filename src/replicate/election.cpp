#include "replicate/replication.h"

#include <algorithm>
#include <utility>

#include "common/log.h"
#include "serde/buffer.h"

namespace sci::replicate {

namespace {

constexpr const char* kTag = "election";

}  // namespace

// ---------------------------------------------------------------------------
// ReplicationFollower: voter and candidate (the rules: replication.h)

bool ReplicationFollower::electable() const {
  // Quorum needs a majority of (standbys + dead primary). Below three total
  // members no standby majority exists without the primary's vote, so the
  // 1-standby deployments keep the facade-oracle fallback.
  return view_.size() + 1 >= 3 &&
         std::find(view_.begin(), view_.end(), self_) != view_.end();
}

void ReplicationFollower::on_vote_request(serde::FrameView payload,
                                          Guid from) {
  serde::Reader r(payload);
  const auto epoch = r.varint();
  if (!epoch) return;
  const auto watermark = r.varint();
  if (!watermark) return;
  const auto e = static_cast<std::uint32_t>(*epoch);
  // The four grant rules, in order (replication.h).
  if (e <= current_epoch()) return;
  if (e < max_voted_epoch_) return;
  if (primary_recently_alive()) return;
  const auto it = voted_.find(e);
  if (it != voted_.end() && it->second != from) return;
  if (*watermark < applied_) {
    SCI_DEBUG(kTag, "%s: refusing vote for %s at epoch %u (watermark %llu < %llu)",
              self_.short_string().c_str(), from.short_string().c_str(), e,
              static_cast<unsigned long long>(*watermark),
              static_cast<unsigned long long>(applied_));
    // This voter is strictly fresher than a sibling that already believes
    // the primary dead. Counter-launch above the refused epoch right away:
    // the staler candidate has not pledged that epoch yet (its own retry is
    // a promote_timeout away), so its vote is free for the taking. Without
    // this the pair can livelock — each epoch gets self-voted by whichever
    // node launches it first, and fixed-phase retries keep the fresher one
    // perpetually second (Raft breaks the same tie with its term bump).
    epoch_floor_ = std::max(epoch_floor_, e);
    if (!elected_ && electable()) {
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

void ReplicationFollower::on_vote_grant(serde::FrameView payload,
                                        Guid from) {
  serde::Reader r(payload);
  const auto epoch = r.varint();
  if (!epoch) return;
  if (!active_ || static_cast<std::uint32_t>(*epoch) != cand_epoch_) return;
  grants_.insert(from);
  if (grants_.size() < quorum()) return;
  active_ = false;
  elected_ = true;
  m_won_->inc();
  SCI_INFO(kTag, "%s: won election at epoch %u (%zu/%zu votes)",
           self_.short_string().c_str(), cand_epoch_, grants_.size(),
           view_.size() + 1);
  if (promote_) promote_(cand_epoch_);
}

bool ReplicationFollower::start_candidacy() {
  if (elected_ || active_ || launch_pending_) return true;
  if (!electable()) return false;
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
                       config_.heartbeat_period.count_micros());
  stagger_timer_ = network_.simulator().schedule(delay, [this] {
    stagger_timer_ = sim::TimerHandle();  // fired: later cancel is a no-op
    launch_pending_ = false;
    if (elected_ || active_) return;
    // Abort when the alarm went stale during the stagger: the primary came
    // back, or a better-ranked sibling's candidacy reached us for a vote.
    if (primary_recently_alive()) return;
    if (granted_once_) {
      const Duration since = network_.simulator().now() - last_grant_;
      if (since.count_micros() <= config_.promote_timeout().count_micros())
        return;
    }
    launch();
  });
  return true;
}

void ReplicationFollower::launch() {
  active_ = true;
  cand_epoch_ = std::max({current_epoch(), max_voted_epoch_, epoch_floor_}) + 1;
  voted_[cand_epoch_] = self_;
  max_voted_epoch_ = cand_epoch_;
  grants_.clear();
  grants_.insert(self_);
  m_candidacies_->inc();
  SCI_INFO(kTag, "%s: candidacy at epoch %u (watermark %llu, group %zu)",
           self_.short_string().c_str(), cand_epoch_,
           static_cast<unsigned long long>(applied_), view_.size() + 1);
  serde::Writer w(16);
  w.varint(cand_epoch_);
  w.varint(applied_);
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
      static_cast<std::uint64_t>(config_.heartbeat_period.count_micros());
  const Duration jitter =
      Duration::micros(static_cast<std::int64_t>(period == 0 ? 0 : h % period));
  const std::uint32_t launched = cand_epoch_;
  // Cancel the previous epoch's retry before arming the new one so at most
  // one retry_check is ever pending — the destructor cancels exactly that.
  network_.simulator().cancel(retry_timer_);
  retry_timer_ = network_.simulator().schedule(
      config_.promote_timeout() + jitter,
      [this, launched] { retry_check(launched); });
}

void ReplicationFollower::retry_check(std::uint32_t launched_epoch) {
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
