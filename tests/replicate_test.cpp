// Unit + integration tests for sci::replicate — primary/backup replication
// of Context Server state and the facade's failover workflow.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "core/sci.h"
#include "replicate/replication.h"
#include "serde/buffer.h"
#include "serde/frame.h"

#include "metric_counts.h"

namespace sci {
namespace {

serde::BufferRef bytes(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (int v : values) out.push_back(static_cast<std::byte>(v));
  return serde::BufferRef::copy_of(out);
}

// A raw kReplApplied payload (varint epoch, varint applied index).
serde::BufferRef epoch_frame(std::uint32_t epoch, std::uint64_t n) {
  serde::Writer w(16);
  w.varint(epoch);
  w.varint(n);
  return w.take_ref();
}

// A kReplApplied payload answering beat `seq`.
serde::BufferRef beat_ack(std::uint32_t epoch, std::uint64_t applied,
                          std::uint64_t seq) {
  serde::Writer w(24);
  w.varint(epoch);
  w.varint(applied);
  w.varint(seq);
  return w.take_ref();
}

// The metrics label a test log counts under.
constexpr std::string_view kLogLabel = "node=test-primary";

// A kReplHeartbeat payload: epoch, head, fingerprint (0 = none), beat
// sequence number and an empty group view.
serde::BufferRef beat(std::uint32_t epoch, std::uint64_t head,
                      std::uint64_t seq) {
  serde::Writer w(24);
  w.varint(epoch);
  w.varint(head);
  w.varint(0);
  w.varint(seq);
  w.varint(0);
  return w.take_ref();
}

// Appends a kPublish record (`payload_size` zero bytes) at the log's
// next index, framed under `epoch` as the Context Server frames it.
void append_next(replicate::ReplicationLog& log, std::uint32_t epoch = 0,
                 std::size_t payload_size = 0) {
  replicate::LogRecord r;
  r.index = log.head() + 1;
  r.kind = replicate::RecordKind::kPublish;
  r.payload = serde::BufferRef::copy_of(std::vector<std::byte>(payload_size));
  log.append(r.index, replicate::frame_record(epoch, r));
}

TEST(ReplicateTest, LogRecordRoundTrip) {
  Rng rng{7};
  replicate::LogRecord record;
  record.index = 41;
  record.kind = replicate::RecordKind::kProfileUpdate;
  record.subject = Guid::random(rng);
  record.flag = 9;
  record.payload = bytes({1, 2, 3, 4});

  // Through the frame: the record bytes a WAL entry holds decode back.
  const auto decoded = replicate::LogRecord::decode(
      replicate::record_bytes(replicate::frame_record(3, record)));
  ASSERT_TRUE(bool(decoded));
  EXPECT_EQ(decoded->index, record.index);
  EXPECT_EQ(decoded->kind, record.kind);
  EXPECT_EQ(decoded->subject, record.subject);
  EXPECT_EQ(decoded->flag, record.flag);
  EXPECT_EQ(decoded->payload, record.payload);
}

// The primary's channel reorders nothing it hands over: records that
// overtake the epoch's snapshot on the wire still apply after it, in index
// order, and a new incarnation restarts the stream.
TEST(ReplicateTest, FollowerAppliesInSendOrderAcrossReorderingAndEpochs) {
  sim::Simulator simulator{42};
  net::Network network{simulator};
  Rng rng{7};
  const Guid primary = Guid::random(rng);
  const Guid standby = Guid::random(rng);
  reliable::ReliableChannel out(network, primary);
  reliable::ReliableChannel in(network, standby);
  ASSERT_TRUE(network.attach(primary, [&](const net::Message& m) {
                       (void)out.on_message(m, {});
                     }).is_ok());
  std::vector<std::uint64_t> applied;
  std::vector<std::uint64_t> snapshot_bases;
  replicate::ReplicationFollower follower(
      network, standby, primary, 0, replicate::ReplicationConfig{},
      [&](const replicate::LogRecord& r, const serde::BufferRef&) {
        applied.push_back(r.index);
      },
      [&](const std::vector<std::byte>&, std::uint64_t base) {
        snapshot_bases.push_back(base);
      },
      {});
  ASSERT_TRUE(network.attach(standby, [&](const net::Message& m) {
                       (void)in.on_message(m, [&](const net::Message& inner) {
                         if (inner.type == replicate::kReplRecord)
                           follower.on_record(inner.payload);
                         if (inner.type == replicate::kReplSnapshot)
                           follower.on_snapshot(inner.payload);
                       });
                     }).is_ok());

  const auto record = [](std::uint64_t index) {
    replicate::LogRecord r;
    r.index = index;
    r.kind = replicate::RecordKind::kPublish;
    return r;
  };
  // The snapshot's first transmission is lost; the records sent behind it
  // arrive first and retransmit 200 ms later.
  const auto ship_behind_lost_snapshot = [&](std::uint32_t epoch,
                                             std::uint64_t base,
                                             std::vector<std::uint64_t> ids) {
    network.set_partition_group(standby, 1);
    out.send(standby, replicate::kReplSnapshot,
             replicate::encode_snapshot(epoch, base, {}));
    network.heal_partitions();
    for (const std::uint64_t id : ids)
      out.send(standby, replicate::kReplRecord,
               replicate::frame_record(epoch, record(id)));
  };

  ship_behind_lost_snapshot(0, 0, {1, 2});
  simulator.run_until(simulator.now() + Duration::millis(10));
  EXPECT_EQ(in.stats().reordered, 2u);
  // Nothing applies before the epoch's snapshot.
  EXPECT_TRUE(follower.awaiting_snapshot());
  EXPECT_TRUE(snapshot_bases.empty());
  EXPECT_TRUE(applied.empty());
  simulator.run_until(simulator.now() + Duration::seconds(1));
  EXPECT_EQ(snapshot_bases, (std::vector<std::uint64_t>{0}));
  EXPECT_FALSE(follower.awaiting_snapshot());
  EXPECT_EQ(applied, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(follower.applied(), 2u);

  // A duplicate is ignored.
  out.send(standby, replicate::kReplRecord,
           replicate::frame_record(0, record(2)));
  simulator.run_until(simulator.now() + Duration::seconds(1));
  EXPECT_EQ(applied.size(), 2u);

  // A higher epoch (promoted primary, first heard by its beat) resets the
  // stream: its records replay indices below what this follower reached,
  // and apply only after its snapshot.
  out.rebind(primary, 1);
  follower.on_heartbeat(beat(1, 0, 1));
  EXPECT_TRUE(follower.awaiting_snapshot());
  ship_behind_lost_snapshot(1, 0, {1});
  simulator.run_until(simulator.now() + Duration::millis(10));
  EXPECT_TRUE(follower.awaiting_snapshot());
  EXPECT_EQ(applied.size(), 2u);
  simulator.run_until(simulator.now() + Duration::seconds(1));
  EXPECT_EQ(snapshot_bases, (std::vector<std::uint64_t>{0, 0}));
  EXPECT_EQ(follower.applied(), 1u);  // reset to base, then record 1
  EXPECT_EQ(applied, (std::vector<std::uint64_t>{1, 2, 1}));

  // Stale epoch-0 stragglers are dropped.
  out.send(standby, replicate::kReplRecord,
           replicate::frame_record(0, record(2)));
  simulator.run_until(simulator.now() + Duration::seconds(1));
  EXPECT_EQ(applied.size(), 3u);
  EXPECT_EQ(out.in_flight(), 0u);
}

TEST(ReplicateTest, WatchdogGatesOnSnapshotAndRearmsAfterFalseAlarm) {
  sim::Simulator simulator{42};
  net::Network network{simulator};
  Rng rng{7};
  int promote_requests = 0;
  replicate::ReplicationConfig config;
  config.heartbeat_period = Duration::millis(75);  // promote_timeout 300 ms
  replicate::ReplicationFollower follower(
      network, Guid::random(rng), Guid::random(rng), 0, config,
      [](const replicate::LogRecord&, const serde::BufferRef&) {},
      [](const std::vector<std::byte>&, std::uint64_t) {},
      [&](std::uint32_t) { ++promote_requests; });

  const auto record = [](std::uint64_t index) {
    replicate::LogRecord r;
    r.index = index;
    r.kind = replicate::RecordKind::kPublish;
    return r;
  };
  // A record buffered ahead of the epoch's snapshot counts as liveness, but
  // a follower that never got the snapshot must not promote with empty
  // state, no matter how long the primary stays silent.
  follower.on_record(replicate::frame_record(0, record(1)));
  ASSERT_TRUE(follower.awaiting_snapshot());
  simulator.run_until(simulator.now() + Duration::seconds(2));
  EXPECT_EQ(promote_requests, 0);
  EXPECT_FALSE(follower.promote_fired());

  // With the snapshot in hand, heartbeat silence fires a promote request.
  follower.on_snapshot(replicate::encode_snapshot(0, 1, {}));
  simulator.run_until(simulator.now() + Duration::millis(500));
  EXPECT_GE(promote_requests, 1);
  EXPECT_TRUE(follower.promote_fired());
  const int after_first = promote_requests;

  // The primary was alive after all (false alarm; the facade declined the
  // request). A fresh current-epoch heartbeat re-arms the watchdog...
  follower.on_heartbeat(beat(0, 1, 1));
  EXPECT_FALSE(follower.promote_fired());

  // ...so a later *real* silence episode still gets a failover request.
  simulator.run_until(simulator.now() + Duration::millis(500));
  EXPECT_GT(promote_requests, after_first);
  EXPECT_TRUE(follower.promote_fired());

  // A current-epoch record proves the primary alive just as a beat does:
  // it clears the request and re-arms the watchdog on the same clock.
  follower.on_record(replicate::frame_record(0, record(2)));
  EXPECT_FALSE(follower.promote_fired());
  const int after_second = promote_requests;
  simulator.run_until(simulator.now() + Duration::millis(500));
  EXPECT_GT(promote_requests, after_second);
  EXPECT_TRUE(follower.promote_fired());

  // Losing a promotion race re-arms too: the sibling's new-epoch stream
  // clears the outstanding request along with the stale log state.
  follower.on_record(replicate::frame_record(1, record(1)));
  EXPECT_FALSE(follower.promote_fired());
  EXPECT_TRUE(follower.awaiting_snapshot());
}

TEST(ReplicateTest, LogIgnoresAppliedAcksFromOtherEpochs) {
  sim::Simulator simulator{42};
  net::Network network{simulator};
  Rng rng{7};
  reliable::ReliableChannel channel(network, Guid::random(rng), {});
  channel.set_epoch(1);  // this log belongs to a promoted incarnation
  replicate::ReplicationLog log(network, channel, kLogLabel,
                                replicate::ReplicationConfig{},
                                [] { return std::vector<std::byte>{}; });
  const Guid standby = Guid::random(rng);
  log.attach_standby(standby);
  for (std::uint64_t i = 0; i < 3; ++i) append_next(log, 1);
  EXPECT_EQ(log.lag(), 3u);

  // A straggler ack generated against the dead incarnation's (much higher)
  // index space must not inflate the watermark past the new head.
  log.on_applied(epoch_frame(0, 999), standby);
  EXPECT_EQ(log.lag(), 3u);

  // Current-epoch acks advance it normally.
  log.on_applied(epoch_frame(1, 3), standby);
  EXPECT_EQ(log.lag(), 0u);
}

// A record commits once sync_acks standbys applied it: the watermark is the
// nth-highest applied index, and a group with fewer standbys than that
// commits at append.
TEST(ReplicateTest, LogCommitsAtTheNthHighestAppliedIndex) {
  sim::Simulator simulator{42};
  net::Network network{simulator};
  Rng rng{7};
  reliable::ReliableChannel channel(network, Guid::random(rng), {});
  replicate::ReplicationLog log(network, channel, kLogLabel,
                                replicate::ReplicationConfig{},
                                [] { return std::vector<std::byte>{}; });
  std::vector<std::uint64_t> commits;
  log.set_sync_acks(2, [&](std::uint64_t c) { commits.push_back(c); });
  const Guid a = Guid::random(rng);
  const Guid b = Guid::random(rng);
  const Guid c = Guid::random(rng);
  log.attach_standby(a);
  for (std::uint64_t i = 0; i < 5; ++i) append_next(log);
  EXPECT_EQ(log.committed(), 5u);  // one standby, two acks asked: degraded

  log.attach_standby(b);
  log.attach_standby(c);
  log.on_applied(epoch_frame(0, 5), a);
  EXPECT_EQ(log.committed(), 0u);  // only one standby holds anything
  log.on_applied(epoch_frame(0, 2), c);
  EXPECT_EQ(log.committed(), 2u);
  log.on_applied(epoch_frame(0, 4), b);
  EXPECT_EQ(log.committed(), 4u);
  log.on_applied(epoch_frame(0, 5), c);
  EXPECT_EQ(log.committed(), 5u);
  // on_commit fires only on a rise: once per degraded append, and not again
  // while the two-standby quorum catches up to 5.
  EXPECT_EQ(commits, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

// A standby caught up by snapshot holds nothing until it says so: counting
// the snapshot's base as applied would commit records that no standby
// has acknowledged, and an admit ack released on that commit could be lost.
TEST(ReplicateTest, SnapshotCaughtUpStandbyCountsOnlyOnceAcked) {
  sim::Simulator simulator{42};
  net::Network network{simulator};
  Rng rng{7};
  reliable::ReliableChannel channel(network, Guid::random(rng), {});
  replicate::ReplicationLog log(network, channel, kLogLabel,
                                replicate::ReplicationConfig{},
                                [] { return std::vector<std::byte>(64); });
  log.set_sync_acks(1, [](std::uint64_t) {});
  const Guid s1 = Guid::random(rng);
  const Guid s2 = Guid::random(rng);
  log.attach_standby(s1);  // attached, never acks
  for (int i = 0; i < 5; ++i) append_next(log);
  simulator.run_until(simulator.now() + Duration::seconds(11));
  EXPECT_EQ(log.committed(), 0u);

  log.attach_standby(s2);
  EXPECT_EQ(log.committed(), 0u);
  simulator.run_until(simulator.now() + Duration::seconds(1));
  EXPECT_EQ(log.committed(), 0u);
  log.on_applied(epoch_frame(0, 5), s2);
  EXPECT_EQ(log.committed(), 5u);
}

// The tail is history kept for delta rejoins, and only while resending it
// is cheaper than a snapshot: it never holds as many bytes as the last
// snapshot shipped, and a rejoin older than the tail takes the full path.
TEST(ReplicateTest, DeltaOnlyWhileCheaperThanASnapshot) {
  sim::Simulator simulator{42};
  net::Network network{simulator};
  Rng rng{7};
  reliable::ReliableChannel channel(network, Guid::random(rng), {});
  replicate::ReplicationLog log(network, channel, kLogLabel,
                                replicate::ReplicationConfig{},
                                [] { return std::vector<std::byte>(200); });
  const auto count = [&](const char* name) {
    return registry_count(simulator.metrics(), name);
  };
  log.attach_standby(Guid::random(rng));  // cold: a full catch-up
  const std::uint64_t snapshot_bytes = count("repl.catchup.snapshot_bytes");
  ASSERT_GT(snapshot_bytes, 200u);

  // Several snapshots' worth of records.
  for (int i = 0; i < 40; ++i) {
    append_next(log, 0, 16);
    EXPECT_LT(log.tail_bytes(), snapshot_bytes) << "record " << i + 1;
  }
  ASSERT_EQ(log.head(), 40u);

  // Resending everything above index 1 would cost more than a snapshot.
  log.attach_standby(Guid::random(rng), 0, 1);
  EXPECT_EQ(count("repl.catchup.full"), 2u);
  EXPECT_EQ(count("repl.catchup.delta"), 0u);
  EXPECT_EQ(count("repl.catchup.snapshot_bytes"), 2 * snapshot_bytes);

  // A recent watermark gets the delta, strictly smaller than a snapshot.
  log.attach_standby(Guid::random(rng), 0, log.head() - 2);
  EXPECT_EQ(count("repl.catchup.delta"), 1u);
  EXPECT_GT(count("repl.catchup.delta_bytes"), 0u);
  EXPECT_LT(count("repl.catchup.delta_bytes"), snapshot_bytes);
  EXPECT_LT(log.tail_bytes(), snapshot_bytes);
}

TEST(ReplicateTest, VoterGatesOnLivenessWatermarkAndPledgedEpoch) {
  sim::Simulator simulator{42};
  net::Network network{simulator};
  Rng rng{7};
  const Guid voter = Guid::random(rng);
  const Guid candidate = Guid::random(rng);
  const Guid primary = Guid::random(rng);
  std::vector<net::Message> at_candidate;
  std::vector<net::Message> at_primary;
  ASSERT_TRUE(network
                  .attach(candidate,
                          [&](const net::Message& m) {
                            at_candidate.push_back(m);
                          })
                  .is_ok());
  ASSERT_TRUE(network
                  .attach(primary,
                          [&](const net::Message& m) {
                            at_primary.push_back(m);
                          })
                  .is_ok());
  ASSERT_TRUE(network.attach(voter, [](const net::Message&) {}).is_ok());

  replicate::ReplicationConfig repl;
  repl.heartbeat_period = Duration::millis(75);  // promote_timeout 300 ms
  replicate::ReplicationFollower follower(
      network, voter, primary, 0, repl,
      [](const replicate::LogRecord&, const serde::BufferRef&) {},
      [](const std::vector<std::byte>&, std::uint64_t) {},
      [](std::uint32_t) {});
  follower.seed(0, 5);  // this voter's applied watermark

  const auto vote_req = [](std::uint32_t epoch, std::uint64_t watermark) {
    serde::Writer w(16);
    w.varint(epoch);
    w.varint(watermark);
    return w.take_ref();
  };
  const auto count = [](const std::vector<net::Message>& inbox,
                        std::uint32_t type) {
    std::size_t n = 0;
    for (const auto& m : inbox)
      if (m.type == type) ++n;
    return n;
  };

  // Construction counts as hearing the primary: candidacies against a
  // recently-live primary are refused.
  follower.on_vote_request(vote_req(1, 9), candidate);
  simulator.run_until(simulator.now() + Duration::millis(50));
  EXPECT_EQ(count(at_candidate, replicate::kReplVoteGrant), 0u);

  // After promote_timeout of silence, a stale candidate (watermark below
  // this voter's) is still refused — the Raft freshness restriction.
  simulator.run_until(simulator.now() + Duration::millis(400));
  follower.on_vote_request(vote_req(1, 4), candidate);
  simulator.run_until(simulator.now() + Duration::millis(50));
  EXPECT_EQ(count(at_candidate, replicate::kReplVoteGrant), 0u);

  // A fresh-enough candidate is granted, and the pledge is recorded.
  follower.on_vote_request(vote_req(1, 5), candidate);
  simulator.run_until(simulator.now() + Duration::millis(50));
  EXPECT_EQ(count(at_candidate, replicate::kReplVoteGrant), 1u);
  EXPECT_EQ(follower.max_voted_epoch(), 1u);

  // One vote per epoch: a different same-epoch candidate is refused.
  const Guid rival = Guid::random(rng);
  ASSERT_TRUE(network.attach(rival, [](const net::Message&) {}).is_ok());
  follower.on_vote_request(vote_req(1, 99), rival);
  simulator.run_until(simulator.now() + Duration::millis(50));
  EXPECT_EQ(count(at_candidate, replicate::kReplVoteGrant), 1u);
  EXPECT_EQ(registry_count(simulator.metrics(), "repl.election.votes_granted"),
            1u);

  // The fencing half of the pledge: beats below the pledged epoch are not
  // answered, so the deposed primary can never reassemble a lease majority.
  follower.on_heartbeat(beat(0, 0, 7));
  simulator.run_until(simulator.now() + Duration::millis(50));
  EXPECT_EQ(count(at_primary, replicate::kReplApplied), 0u);
  EXPECT_EQ(registry_count(simulator.metrics(), "repl.lease.acks_refused"), 1u);
  follower.on_heartbeat(beat(1, 0, 8));
  simulator.run_until(simulator.now() + Duration::millis(50));
  EXPECT_EQ(count(at_primary, replicate::kReplApplied), 1u);
  EXPECT_EQ(registry_count(simulator.metrics(), "repl.lease.acks_sent"), 1u);
}

// The primary's replication log holds the fencing lease. Standby 1 acks
// every beat; standby 2 stays silent, so the majority (2 of group 3, the
// primary implicit) hinges on s1 alone.
TEST(ReplicateTest, LogLeaseAcquiresOnMajorityAndLapsesWithoutIt) {
  sim::Simulator simulator{42};
  net::Network network{simulator};
  Rng rng{7};
  const Guid primary = Guid::random(rng);
  const Guid s1 = Guid::random(rng);
  const Guid s2 = Guid::random(rng);
  // Primary-side ack routing: the CS normally funnels these frames; here
  // the test stands in for it (the log is constructed below).
  replicate::ReplicationLog* log_ptr = nullptr;
  ASSERT_TRUE(network
                  .attach(primary,
                          [&](const net::Message& m) {
                            if (m.type == replicate::kReplApplied &&
                                log_ptr != nullptr)
                              log_ptr->on_applied(m.payload, m.from);
                          })
                  .is_ok());
  bool s1_acks = true;
  ASSERT_TRUE(network
                  .attach(s1,
                          [&](const net::Message& m) {
                            if (m.type != replicate::kReplHeartbeat ||
                                !s1_acks)
                              return;
                            serde::Reader r(m.payload);
                            const auto epoch = r.varint();
                            (void)r.varint();  // head
                            (void)r.varint();  // fingerprint
                            const auto seq = r.varint();
                            net::Message ack;
                            ack.type = replicate::kReplApplied;
                            ack.from = s1;
                            ack.to = primary;
                            ack.payload = beat_ack(
                                static_cast<std::uint32_t>(*epoch), 0, *seq);
                            (void)network.send(std::move(ack));
                          })
                  .is_ok());
  ASSERT_TRUE(network.attach(s2, [](const net::Message&) {}).is_ok());

  reliable::ReliableChannel channel(network, primary, {});
  replicate::ReplicationConfig repl;
  repl.heartbeat_period = Duration::millis(100);  // promote_timeout 400 ms
  replicate::ReplicationLog log(network, channel, kLogLabel, repl,
                                [] { return std::vector<std::byte>{}; });
  log_ptr = &log;
  log.attach_standby(s1);
  log.attach_standby(s2);
  const auto lapses = [&] {
    return registry_count(simulator.metrics(), "repl.lease.lapses");
  };
  EXPECT_TRUE(log.holds_lease());  // the initial term

  // Majority acks keep the lease alive well past the initial term.
  simulator.run_until(simulator.now() + Duration::seconds(2));
  EXPECT_TRUE(log.holds_lease());
  EXPECT_EQ(lapses(), 0u);
  EXPECT_GT(registry_count(simulator.metrics(), "repl.lease.acks"), 0u);

  // Lose the majority: the lease runs out from the last acked send and the
  // log reports the lapse exactly once per episode.
  s1_acks = false;
  simulator.run_until(simulator.now() + Duration::seconds(2));
  EXPECT_FALSE(log.holds_lease());
  EXPECT_EQ(lapses(), 1u);

  // The majority returns: the log re-acquires.
  s1_acks = true;
  simulator.run_until(simulator.now() + Duration::seconds(1));
  EXPECT_TRUE(log.holds_lease());
  EXPECT_EQ(lapses(), 1u);
}

// The lease rides the replication timing: every heartbeat_period beat is a
// lease request, and a grant lasts promote_timeout — the silence a voter
// requires before granting a rival's candidacy, so a held lease can never
// overlap a majority election.
TEST(ReplicateTest, LogLeaseRenewsEveryHeartbeatForOnePromoteTimeout) {
  sim::Simulator simulator{42};
  net::Network network{simulator};
  Rng rng{7};
  const Guid primary = Guid::random(rng);
  const Guid s1 = Guid::random(rng);
  const Guid s2 = Guid::random(rng);
  for (const Guid g : {primary, s1, s2})
    ASSERT_TRUE(network.attach(g, [](const net::Message&) {}).is_ok());

  reliable::ReliableChannel channel(network, primary, {});
  replicate::ReplicationConfig repl;
  repl.heartbeat_period = Duration::millis(75);  // promote_timeout 300 ms
  const SimTime start = simulator.now();
  replicate::ReplicationLog log(network, channel, kLogLabel, repl,
                                [] { return std::vector<std::byte>{}; });
  log.attach_standby(s1);
  log.attach_standby(s2);
  EXPECT_EQ(log.lease_duration(), repl.promote_timeout());

  const auto beats = [&] {
    return registry_count(simulator.metrics(), "repl.heartbeats");
  };
  // One beat per member at every heartbeat_period boundary, none between.
  for (std::uint64_t tick = 1; tick <= 5; ++tick) {
    const Duration due =
        repl.heartbeat_period * static_cast<std::int64_t>(tick);
    simulator.run_until(start + (due - Duration::micros(1)));
    EXPECT_EQ(beats(), 2 * (tick - 1)) << "tick " << tick;
    // Nobody acks, so only the initial term holds: exactly one
    // promote_timeout from creation.
    EXPECT_EQ(log.holds_lease(), due <= repl.promote_timeout())
        << "tick " << tick;
    simulator.run_until(start + due);
    EXPECT_EQ(beats(), 2 * tick) << "tick " << tick;
  }
}

TEST(ReplicateTest, LeaseQuorumJudgedAgainstSendTimeMemberSnapshot) {
  sim::Simulator simulator{42};
  net::Network network{simulator};
  Rng rng{7};
  const Guid primary = Guid::random(rng);
  const Guid s1 = Guid::random(rng);
  const Guid s2 = Guid::random(rng);
  const Guid s3 = Guid::random(rng);
  const Guid s4 = Guid::random(rng);
  ASSERT_TRUE(network.attach(primary, [](const net::Message&) {}).is_ok());
  for (const Guid g : {s1, s2, s3, s4})
    ASSERT_TRUE(network.attach(g, [](const net::Message&) {}).is_ok());

  reliable::ReliableChannel channel(network, primary, {});
  replicate::ReplicationConfig repl;
  repl.heartbeat_period = Duration::millis(100);  // promote_timeout 400 ms
  replicate::ReplicationLog log(network, channel, kLogLabel, repl,
                                [] { return std::vector<std::byte>{}; });
  for (const Guid g : {s1, s2, s3, s4}) log.attach_standby(g);

  // First beat (t=100ms) goes to the 4-standby group: quorum of 5 is 3, so
  // extending needs 2 standby acks on top of the primary's implicit one.
  // Then the group shrinks to a single standby before any ack lands.
  simulator.run_until(simulator.now() + Duration::millis(150));
  for (const Guid g : {s1, s3, s4}) log.detach_standby(g);

  // A lone ack for the pre-shrink beat must be judged against the 5-member
  // snapshot it was sent to (no majority), not the live 2-member group it
  // would now dominate. s1 is detached by now, yet its answer still counts
  // toward that beat's quorum.
  log.on_applied(beat_ack(0, 0, 1), s1);
  EXPECT_EQ(registry_count(simulator.metrics(), "repl.lease.acks"), 1u);
  EXPECT_TRUE(log.holds_lease());  // initial term runs to t=400ms

  // Had the stale ack extended the lease (send time 100ms + 400ms), it
  // would still be held at t=450ms. It lapses instead: the post-shrink
  // beats never got their quorum of 2 (s2 stays silent).
  simulator.run_until(simulator.now() + Duration::millis(300));
  EXPECT_FALSE(log.holds_lease());
  EXPECT_EQ(registry_count(simulator.metrics(), "repl.lease.lapses"), 1u);

  // An ack from a node outside the beat's snapshot is ignored outright.
  const Guid stranger = Guid::random(rng);
  log.on_applied(beat_ack(0, 0, 1), stranger);
  EXPECT_EQ(registry_count(simulator.metrics(), "repl.lease.acks"), 1u);
  EXPECT_FALSE(log.holds_lease());
}

// A beat's answer carries the applied index, so a lost record ack holds the
// commit watermark (and the admit acks behind it) for at most one beat.
TEST(ReplicateTest, NextBeatRepairsALostAppliedAck) {
  sim::Simulator simulator{42};
  net::Network network{simulator};
  Rng rng{7};
  const Guid primary = Guid::random(rng);
  const Guid standby = Guid::random(rng);
  reliable::ReliableChannel primary_channel(network, primary, {});
  reliable::ReliableChannel standby_channel(network, standby, {});
  replicate::ReplicationConfig repl;
  repl.heartbeat_period = Duration::millis(100);
  replicate::ReplicationLog log(network, primary_channel, kLogLabel, repl,
                                [] { return std::vector<std::byte>{}; });
  log.set_sync_acks(1, [](std::uint64_t) {});
  replicate::ReplicationFollower follower(
      network, standby, primary, 0, repl,
      [](const replicate::LogRecord&, const serde::BufferRef&) {},
      [](const std::vector<std::byte>&, std::uint64_t) {},
      [](std::uint32_t) {});

  // The primary drops the first kReplApplied after `drop_next` is set.
  bool drop_next = false;
  int dropped = 0;
  ASSERT_TRUE(network
                  .attach(primary,
                          [&](const net::Message& m) {
                            if (primary_channel.on_message(
                                    m, [](const net::Message&) {}))
                              return;
                            if (m.type != replicate::kReplApplied) return;
                            if (drop_next) {
                              drop_next = false;
                              ++dropped;
                              return;
                            }
                            log.on_applied(m.payload, m.from);
                          })
                  .is_ok());
  ASSERT_TRUE(network
                  .attach(standby,
                          [&](const net::Message& m) {
                            const auto inner = [&](const net::Message& in) {
                              if (in.type == replicate::kReplRecord)
                                follower.on_record(in.payload);
                              if (in.type == replicate::kReplSnapshot)
                                follower.on_snapshot(in.payload);
                            };
                            if (standby_channel.on_message(m, inner)) return;
                            if (m.type == replicate::kReplHeartbeat)
                              follower.on_heartbeat(m.payload);
                          })
                  .is_ok());
  log.attach_standby(standby);
  // Settle the catch-up, then append 2 ms after a beat went out.
  simulator.run_until(simulator.now() + Duration::millis(1002));
  ASSERT_FALSE(follower.awaiting_snapshot());
  ASSERT_EQ(log.committed(), log.head());

  drop_next = true;
  append_next(log);
  simulator.run_until(simulator.now() + Duration::millis(10));
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(follower.applied(), log.head());
  EXPECT_LT(log.committed(), log.head());  // the ack was lost

  // The next beat's answer reports the applied index again.
  simulator.run_until(simulator.now() +
                      (repl.heartbeat_period - Duration::millis(10)));
  EXPECT_EQ(log.committed(), log.head());
  EXPECT_EQ(log.lag(), 0u);
}

// Advertises the "pulse" output so a pattern subscription composes onto it.
class PulseCE final : public entity::ContextEntity {
 public:
  using ContextEntity::ContextEntity;
  // Frames still waiting for their channel ack (the admit signal).
  [[nodiscard]] std::size_t unacked() { return channel().in_flight(); }

 protected:
  [[nodiscard]] std::vector<entity::TypeSig> profile_outputs() const override {
    return {{"pulse", "", "pulse"}};
  }
};

// Counts (source, sequence) pairs so duplicates are distinguishable from
// fresh deliveries, and registration handshakes so re-registration shows.
class PulseMonitor final : public entity::ContextAwareApp {
 public:
  using ContextAwareApp::ContextAwareApp;
  int unique_events = 0;
  int duplicate_events = 0;
  int registered_calls = 0;

 protected:
  void on_event(const event::Event& event, std::uint64_t) override {
    if (seen_.insert({event.source, event.sequence}).second) {
      ++unique_events;
    } else {
      ++duplicate_events;
    }
  }
  void on_registered() override { ++registered_calls; }

 private:
  std::set<std::pair<Guid, std::uint64_t>> seen_;
};

struct FailoverFixture {
  Sci sci{42};
  mobility::Building building{{.floors = 2, .rooms_per_floor = 4}};
  range::ContextServer* level_a = nullptr;
  range::ContextServer* level_b = nullptr;

  explicit FailoverFixture(unsigned standby_count) {
    sci.set_location_directory(&building.directory());
    level_a = sci.create_range("levelA", building.floor_path(0)).value();
    RangeOptions options;
    options.replication.standby_count = standby_count;
    options.replication.heartbeat_period = Duration::millis(200);
    level_b = sci.create_range("levelB", building.floor_path(1), options)
                  .value();
  }
};

// The heartbeat is the fencing-lease request: an idle primary sends each
// standby exactly one raw frame per heartbeat_period and hears one answer
// back from each.
TEST(ReplicateTest, IdlePrimarySendsOneBeatPerStandbyPerPeriod) {
  FailoverFixture f(2);
  f.sci.run_for(Duration::seconds(2));  // catch-up settles
  const auto standby_list = f.sci.standbys("levelB");
  ASSERT_EQ(standby_list.size(), 2u);
  const net::Network& network = f.sci.network();
  const Guid primary = f.level_b->attached_node();
  // Open the window half a period after a beat, once its acks are in.
  const std::uint64_t sent_settled = network.stats(primary).messages_sent;
  while (network.stats(primary).messages_sent == sent_settled)
    f.sci.run_for(Duration::millis(1));
  f.sci.run_for(Duration::millis(100));
  const net::NodeStats primary_before = network.stats(primary);
  const std::uint64_t acks_before = node_count(*f.level_b, "repl.lease.acks");
  std::vector<std::uint64_t> standby_before;
  for (const range::ContextServer* standby : standby_list) {
    standby_before.push_back(
        network.stats(standby->attached_node()).messages_received);
  }

  constexpr std::uint64_t kPeriods = 10;
  f.sci.run_for(Duration::millis(200) * static_cast<std::int64_t>(kPeriods));
  const net::NodeStats& primary_after = network.stats(primary);
  EXPECT_EQ(primary_after.messages_sent - primary_before.messages_sent,
            2 * kPeriods);
  EXPECT_EQ(primary_after.messages_received - primary_before.messages_received,
            2 * kPeriods);
  EXPECT_EQ(node_count(*f.level_b, "repl.lease.acks") - acks_before,
            2 * kPeriods);
  for (std::size_t i = 0; i < standby_list.size(); ++i) {
    EXPECT_EQ(network.stats(standby_list[i]->attached_node())
                      .messages_received -
                  standby_before[i],
              kPeriods);
  }
}

// Census of what an idle primary hears: each standby answers each beat
// with exactly one frame, and that frame is kReplApplied (the progress
// report and the lease vote in one).
TEST(ReplicateTest, IdleStandbysAnswerEachBeatWithOneAppliedAck) {
  FailoverFixture f(2);
  f.sci.run_for(Duration::seconds(2));  // catch-up settles
  const auto standby_list = f.sci.standbys("levelB");
  ASSERT_EQ(standby_list.size(), 2u);
  const net::Network& network = f.sci.network();
  const Guid primary = f.level_b->attached_node();
  // Open the window half a period after a beat, once its answers are in.
  const std::uint64_t sent_settled = network.stats(primary).messages_sent;
  while (network.stats(primary).messages_sent == sent_settled)
    f.sci.run_for(Duration::millis(1));
  f.sci.run_for(Duration::millis(100));
  const obs::TraceBuffer& trace = f.sci.trace();
  const std::uint64_t recorded_before = trace.total_recorded();
  const SimTime start = f.sci.simulator().now();

  constexpr std::uint64_t kPeriods = 10;
  f.sci.run_for(Duration::millis(200) * static_cast<std::int64_t>(kPeriods));
  // The window must still be in the ring to be counted.
  ASSERT_LT(trace.total_recorded() - recorded_before, trace.capacity());
  std::map<Guid, std::uint64_t> frames_from;
  std::uint64_t other_frames = 0;
  for (const obs::TraceRecord& record : trace.snapshot()) {
    if (record.at <= start || record.kind != obs::TraceKind::kMessageDeliver ||
        record.b != primary)
      continue;
    if (record.detail == replicate::kReplApplied) {
      ++frames_from[record.a];
    } else {
      ++other_frames;
    }
  }
  EXPECT_EQ(other_frames, 0u);
  ASSERT_EQ(frames_from.size(), standby_list.size());
  for (const range::ContextServer* standby : standby_list) {
    EXPECT_EQ(frames_from[standby->attached_node()], kPeriods);
  }
}

// A promoted server's log counts under the server's own label, so
// node_counter reads the successor's beats, and the fenced ex-primary's
// slot stops moving.
TEST(ReplicateTest, PromotedServerCountsItsLogUnderItsOwnSlot) {
  FailoverFixture f(2);
  f.sci.run_for(Duration::seconds(2));
  range::ContextServer* old_primary = f.level_b;
  ASSERT_TRUE(f.sci.network().set_crashed(old_primary->id(), true).is_ok());
  ASSERT_TRUE(
      f.sci.network().set_crashed(old_primary->server_node(), true).is_ok());
  f.sci.run_for(Duration::seconds(4));

  range::ContextServer* fresh = f.sci.find_range("levelB");
  ASSERT_NE(fresh, nullptr);
  ASSERT_NE(fresh, old_primary);
  ASSERT_TRUE(fresh->promoted_by_election());
  ASSERT_NE(fresh->node_counter("repl.heartbeats"), nullptr);
  const std::uint64_t fresh_before = node_count(*fresh, "repl.heartbeats");
  const std::uint64_t old_before = node_count(*old_primary, "repl.heartbeats");
  f.sci.run_for(Duration::seconds(2));
  // The re-attached sibling hears one beat per 200 ms period.
  EXPECT_GE(node_count(*fresh, "repl.heartbeats") - fresh_before, 9u);
  EXPECT_EQ(node_count(*old_primary, "repl.heartbeats"), old_before);
}

TEST(ReplicateTest, FailoverPreservesSubscriptionsWithoutReRegistration) {
  FailoverFixture f(1);
  PulseCE pulse(f.sci.network(), f.sci.new_guid(), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.level_b).is_ok());
  PulseMonitor monitor(f.sci.network(), f.sci.new_guid(), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.level_b).is_ok());
  ASSERT_TRUE(monitor
                  .submit_query("sub",
                                query::Builder("sub", monitor.id())
                                    .what_pattern("pulse")
                                    .mode(query::QueryMode::kEventSubscription)
                                    .to_xml())
                  .is_ok());
  f.sci.run_for(Duration::seconds(1));

  const auto standby_list = f.sci.standbys("levelB");
  ASSERT_EQ(standby_list.size(), 1u);
  EXPECT_EQ(f.sci.range_role(standby_list[0]->attached_node()).value(),
            RangeRole::kStandby);
  EXPECT_EQ(f.sci.range_role(f.level_b->attached_node()).value(),
            RangeRole::kPrimary);
  // Node slots outlive server objects: count from this incarnation's build.
  const std::uint64_t failovers_at_build =
      node_count(*standby_list[0], "repl.failovers");

  for (int i = 0; i < 5; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(1));
  EXPECT_EQ(monitor.unique_events, 5);
  EXPECT_EQ(f.level_b->replication_lag(), 0u);

  // Kill the primary. The standby's heartbeat watchdog detects the silence
  // and the facade fences + promotes it automatically.
  range::ContextServer* old_primary = f.level_b;
  ASSERT_TRUE(f.sci.network().set_crashed(old_primary->id(), true).is_ok());
  ASSERT_TRUE(
      f.sci.network().set_crashed(old_primary->server_node(), true).is_ok());
  f.sci.run_for(Duration::seconds(3));

  range::ContextServer* fresh = f.sci.find_range("levelB");
  ASSERT_NE(fresh, nullptr);
  ASSERT_NE(fresh, old_primary);
  EXPECT_TRUE(old_primary->is_fenced());
  EXPECT_EQ(fresh->role(), range::RangeConfig::Role::kPrimary);
  EXPECT_EQ(node_count(*fresh, "repl.failovers") - failovers_at_build, 1u);
  EXPECT_EQ(fresh->epoch(), old_primary->epoch() + 1);  // incarnation advanced
  EXPECT_EQ(f.sci.range_role(fresh->attached_node()).value(),
            RangeRole::kPrimary);
  EXPECT_TRUE(f.sci.standbys("levelB").empty());

  // No re-registration: the components never re-ran the Fig 5 handshake.
  EXPECT_TRUE(pulse.is_registered());
  EXPECT_TRUE(monitor.is_registered());
  EXPECT_EQ(monitor.registered_calls, 1);
  const std::uint64_t registrations_at_promotion =
      node_count(*fresh, "cs.registrations");

  // The replicated subscription keeps firing on the survivor.
  for (int i = 5; i < 10; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(5));
  EXPECT_EQ(monitor.unique_events, 10);
  EXPECT_EQ(monitor.duplicate_events, 0);
  EXPECT_EQ(node_count(*fresh, "cs.registrations"), registrations_at_promotion);
}

TEST(ReplicateTest, ColdStandbyCatchesUpAndPromotesByFiat) {
  FailoverFixture f(0);
  PulseCE pulse(f.sci.network(), f.sci.new_guid(), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.level_b).is_ok());
  PulseMonitor monitor(f.sci.network(), f.sci.new_guid(), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.level_b).is_ok());
  ASSERT_TRUE(monitor
                  .submit_query("sub",
                                query::Builder("sub", monitor.id())
                                    .what_pattern("pulse")
                                    .mode(query::QueryMode::kEventSubscription)
                                    .to_xml())
                  .is_ok());
  f.sci.run_for(Duration::seconds(1));
  for (int i = 0; i < 3; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(1));
  ASSERT_EQ(monitor.unique_events, 3);

  // A standby added to an already-running range catches up via snapshot.
  auto added = f.sci.add_standby("levelB");
  ASSERT_TRUE(bool(added));
  range::ContextServer* standby = *added;
  f.sci.run_for(Duration::seconds(1));
  ASSERT_NE(standby->replication_follower(), nullptr);
  EXPECT_FALSE(standby->replication_follower()->awaiting_snapshot());
  EXPECT_EQ(f.level_b->replication_lag(), 0u);

  // Operator-fiat promotion over a live (now fenced) primary.
  range::ContextServer* old_primary = f.level_b;
  ASSERT_TRUE(f.sci.promote(standby->attached_node()).is_ok());
  EXPECT_EQ(f.sci.find_range("levelB"), standby);
  EXPECT_TRUE(old_primary->is_fenced());
  EXPECT_EQ(f.sci.range_role(standby->attached_node()).value(),
            RangeRole::kPrimary);

  for (int i = 3; i < 5; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(5));
  EXPECT_EQ(monitor.unique_events, 5);
  EXPECT_EQ(monitor.duplicate_events, 0);
  EXPECT_TRUE(monitor.is_registered());
  EXPECT_EQ(monitor.registered_calls, 1);
}

// Records the status of every query result the app receives.
class ResultApp final : public entity::ContextAwareApp {
 public:
  using ContextAwareApp::ContextAwareApp;
  std::vector<ErrorCode> results;

 protected:
  void on_query_result(const std::string&, const Error& error,
                       const Value&) override {
    results.push_back(error.code());
  }
};

// A trigger query deferred before a cold standby joined reaches that standby
// only through its catch-up snapshot. The restored entry must keep its
// expiry: after promotion the app still gets its kTimeout, on schedule.
TEST(ReplicateTest, SnapshotRestoredDeferredQueryExpiresAfterPromotion) {
  FailoverFixture f(0);
  ResultApp app(f.sci.network(), f.sci.new_guid(), "app",
                entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(app, *f.level_b).is_ok());
  ASSERT_TRUE(app.submit_query(
                     "watch",
                     query::Builder("watch", app.id())
                         .what_entity_type("printing")
                         .when_enters(f.sci.new_guid(),
                                      f.building.room_path(1, 0))
                         .expires_after(6.0)
                         .mode(query::QueryMode::kAdvertisementRequest)
                         .to_xml())
                  .is_ok());
  f.sci.run_for(Duration::seconds(1));
  ASSERT_EQ(f.level_b->deferred_queries(), 1u);

  auto added = f.sci.add_standby("levelB");
  ASSERT_TRUE(bool(added));
  range::ContextServer* standby = *added;
  f.sci.run_for(Duration::seconds(1));
  ASSERT_NE(standby->replication_follower(), nullptr);
  ASSERT_FALSE(standby->replication_follower()->awaiting_snapshot());
  EXPECT_EQ(standby->deferred_queries(), 1u);

  ASSERT_TRUE(f.sci.promote(standby->attached_node()).is_ok());
  f.sci.run_for(Duration::seconds(2));
  EXPECT_TRUE(app.results.empty());  // not due yet (t ~ 4 s of 6)
  f.sci.run_for(Duration::seconds(6));
  ASSERT_EQ(app.results.size(), 1u);
  EXPECT_EQ(app.results[0], ErrorCode::kTimeout);
  EXPECT_EQ(standby->deferred_queries(), 0u);
}

// A not_before query parked before a cold standby joined reaches that
// standby only through its catch-up snapshot. After promotion the
// successor still runs it, once, at its due time.
TEST(ReplicateTest, SnapshotRestoredNotBeforeQueryRunsAfterPromotion) {
  FailoverFixture f(0);
  ResultApp app(f.sci.network(), f.sci.new_guid(), "app",
                entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(app, *f.level_b).is_ok());
  f.sci.run_for(Duration::seconds(1));
  const double due = f.sci.now().seconds_f() + 6.0;
  ASSERT_TRUE(app.submit_query("later", query::Builder("later", app.id())
                                            .what_entity_type("printing")
                                            .not_before(due)
                                            .advertisement()
                                            .to_xml())
                  .is_ok());
  f.sci.run_for(Duration::seconds(1));

  auto added = f.sci.add_standby("levelB");
  ASSERT_TRUE(bool(added));
  range::ContextServer* standby = *added;
  f.sci.run_for(Duration::seconds(1));
  ASSERT_NE(standby->replication_follower(), nullptr);
  ASSERT_FALSE(standby->replication_follower()->awaiting_snapshot());

  ASSERT_TRUE(f.sci.promote(standby->attached_node()).is_ok());
  f.sci.run_for(Duration::seconds(1));
  EXPECT_LT(f.sci.now().seconds_f(), due);
  EXPECT_TRUE(app.results.empty());
  f.sci.run_for(Duration::seconds(6));
  EXPECT_EQ(app.results.size(), 1u);
}

// Cancelling withdraws a query that is still waiting for its not_before
// time: it never runs.
TEST(ReplicateTest, CancelStopsANotBeforeQuery) {
  FailoverFixture f(0);
  ResultApp app(f.sci.network(), f.sci.new_guid(), "app",
                entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(app, *f.level_b).is_ok());
  f.sci.run_for(Duration::seconds(1));
  auto handle = f.sci.submit_query(
      app, query::Builder("later", app.id())
               .what_entity_type("printing")
               .not_before(f.sci.now().seconds_f() + 3.0)
               .advertisement());
  ASSERT_TRUE(bool(handle));
  f.sci.run_for(Duration::seconds(1));
  EXPECT_TRUE(handle->cancel());
  f.sci.run_for(Duration::seconds(5));
  EXPECT_TRUE(app.results.empty());
}

// A cancellation is replicated: the standby drops the withdrawn trigger
// watch too, so its promoted successor never answers it.
TEST(ReplicateTest, CancelledDeferredQueryStaysCancelledAfterPromotion) {
  FailoverFixture f(1);
  ResultApp app(f.sci.network(), f.sci.new_guid(), "app",
                entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(app, *f.level_b).is_ok());
  f.sci.run_for(Duration::seconds(1));
  const auto standby_list = f.sci.standbys("levelB");
  ASSERT_EQ(standby_list.size(), 1u);
  range::ContextServer* standby = standby_list.front();
  auto handle = f.sci.submit_query(
      app, query::Builder("watch", app.id())
               .what_entity_type("printing")
               .when_enters(f.sci.new_guid(), f.building.room_path(1, 0))
               .expires_after(4.0)
               .advertisement());
  ASSERT_TRUE(bool(handle));
  f.sci.run_for(Duration::millis(500));
  ASSERT_EQ(f.level_b->deferred_queries(), 1u);
  ASSERT_EQ(standby->deferred_queries(), 1u);

  EXPECT_TRUE(handle->cancel());
  f.sci.run_for(Duration::millis(500));
  EXPECT_EQ(f.level_b->deferred_queries(), 0u);
  EXPECT_EQ(standby->deferred_queries(), 0u);

  ASSERT_TRUE(f.sci.promote(standby->attached_node()).is_ok());
  f.sci.run_for(Duration::seconds(6));
  EXPECT_TRUE(app.results.empty());
}

// Parked queries, configuration tags and subscription ids: the replicated
// state a timer changes.
struct TimedState {
  std::size_t parked = 0;
  std::vector<std::uint64_t> configurations;
  std::vector<event::SubscriptionId> subscriptions;
};

TimedState timed_state_of(const range::ContextServer& server) {
  TimedState out;
  out.parked = server.deferred_queries() + server.pending_queries();
  out.configurations = server.configurations().all_tags();
  std::sort(out.configurations.begin(), out.configurations.end());
  for (const event::Subscription& s : server.mediator().table().all()) {
    out.subscriptions.push_back(s.id);
  }
  return out;
}

void expect_same_state(const TimedState& a, const TimedState& b,
                       const char* when) {
  EXPECT_EQ(a.parked, b.parked) << when;
  EXPECT_EQ(a.configurations, b.configurations) << when;
  EXPECT_EQ(a.subscriptions, b.subscriptions) << when;
}

// Only the primary runs timers. A standby cut off from it past four due
// points (a trigger watch's expiry, a not_before time, a bounded
// subscription's lifetime and a lease ttl) keeps its parked queries,
// configurations and subscription table until the primary's records
// arrive, and then holds exactly the primary's.
TEST(ReplicateTest, PartitionedStandbyChangesOnlyThroughThePrimarysRecords) {
  Sci sci{42};
  mobility::Building building{{.floors = 2, .rooms_per_floor = 4}};
  sci.set_location_directory(&building.directory());
  RangeOptions options;
  options.replication.standby_count = 1;
  // A 20 s promote timeout outlasts the partition: nobody runs an election.
  options.replication.heartbeat_period = Duration::seconds(5);
  options.reliability.lease_ttl = Duration::seconds(6);
  range::ContextServer* primary =
      sci.create_range("levelB", building.floor_path(1), options).value();
  const auto standby_list = sci.standbys("levelB");
  ASSERT_EQ(standby_list.size(), 1u);
  range::ContextServer* standby = standby_list.front();
  PulseCE pulse(sci.network(), sci.new_guid(), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(sci.enroll(pulse, *primary).is_ok());
  ResultApp app(sci.network(), sci.new_guid(), "app",
                entity::EntityKind::kSoftware);
  ASSERT_TRUE(sci.enroll(app, *primary).is_ok());

  const double now = sci.now().seconds_f();
  ASSERT_TRUE(bool(sci.submit_query(
      app, query::Builder("watch", app.id())
               .what_entity_type("printing")
               .when_enters(sci.new_guid(), building.room_path(1, 0))
               .expires_after(2.0)
               .advertisement())));
  ASSERT_TRUE(bool(sci.submit_query(
      app, query::Builder("later", app.id())
               .what_pattern("pulse")
               .not_before(now + 3.0)
               .subscribe())));
  ASSERT_TRUE(bool(sci.submit_query(
      app, query::Builder("bounded", app.id())
               .what_pattern("pulse")
               .expires_after(4.0)
               .subscribe())));
  // Nobody renews this lease: the reaper's 5 s tick after t = 6 s takes it.
  const event::SubscriptionId silent =
      primary->subscribe_pattern(sci.new_guid(), "lease-probe");
  sci.run_for(Duration::seconds(1));
  const TimedState before = timed_state_of(*standby);
  ASSERT_EQ(before.parked, 2u);
  ASSERT_EQ(before.configurations.size(), 1u);
  expect_same_state(timed_state_of(*primary), before, "before the partition");

  sci.network().set_partition_group(standby->attached_node(), 1);
  sci.run_for(Duration::seconds(10));
  // Every due point passed on the primary...
  const TimedState after = timed_state_of(*primary);
  EXPECT_EQ(after.parked, 0u);
  EXPECT_EQ(after.configurations.size(), 1u);
  EXPECT_NE(after.configurations, before.configurations);
  EXPECT_EQ(primary->mediator().table().find(silent), nullptr);
  // ...and none of them moved the standby.
  expect_same_state(timed_state_of(*standby), before, "during the partition");

  sci.network().heal_partitions();
  sci.run_for(Duration::seconds(10));
  ASSERT_EQ(standby->role(), range::RangeConfig::Role::kStandby);
  expect_same_state(timed_state_of(*standby), timed_state_of(*primary),
                    "after the heal");
  EXPECT_EQ(registry_count(sci.metrics(), "repl.state_divergence"), 0u);
}

// A bounded subscription admitted before a cold standby joined reaches that
// standby only through its catch-up snapshot. Its due time is snapshot
// state: after promotion the configuration still retires on schedule and
// the app gets its kTimeout.
TEST(ReplicateTest, SnapshotRestoredBoundedSubscriptionExpiresAfterPromotion) {
  FailoverFixture f(0);
  PulseCE pulse(f.sci.network(), f.sci.new_guid(), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.level_b).is_ok());
  ResultApp app(f.sci.network(), f.sci.new_guid(), "app",
                entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(app, *f.level_b).is_ok());
  ASSERT_TRUE(bool(f.sci.submit_query(
      app, query::Builder("bounded", app.id())
               .what_pattern("pulse")
               .expires_after(6.0)
               .subscribe())));
  f.sci.run_for(Duration::seconds(1));
  ASSERT_EQ(app.results, std::vector<ErrorCode>{ErrorCode::kOk});

  auto added = f.sci.add_standby("levelB");
  ASSERT_TRUE(bool(added));
  range::ContextServer* standby = *added;
  f.sci.run_for(Duration::seconds(1));
  ASSERT_NE(standby->replication_follower(), nullptr);
  ASSERT_FALSE(standby->replication_follower()->awaiting_snapshot());
  ASSERT_EQ(standby->configurations().size(), 1u);

  ASSERT_TRUE(f.sci.promote(standby->attached_node()).is_ok());
  f.sci.run_for(Duration::seconds(2));
  EXPECT_EQ(app.results.size(), 1u);  // not due yet (t ~ 4 s of 6)
  f.sci.run_for(Duration::seconds(6));
  EXPECT_EQ(app.results,
            (std::vector<ErrorCode>{ErrorCode::kOk, ErrorCode::kTimeout}));
  EXPECT_EQ(standby->configurations().size(), 0u);
}

// Lease renewals are soft state: a promoted standby starts every lease on a
// fresh ttl. A subscriber that keeps renewing keeps its subscription across
// the promotion; one that never renews is reaped one ttl after it.
TEST(ReplicateTest, PromotionStartsEveryLeaseOnAFreshTerm) {
  Sci sci{42};
  mobility::Building building{{.floors = 2, .rooms_per_floor = 4}};
  sci.set_location_directory(&building.directory());
  RangeOptions options;
  options.replication.standby_count = 1;
  options.replication.heartbeat_period = Duration::millis(200);
  // Two reaper periods, so the reap lands on a reaper tick.
  options.reliability.lease_ttl = range::kLeaseRenewPeriod * 2;
  range::ContextServer* primary =
      sci.create_range("levelB", building.floor_path(1), options).value();
  PulseCE pulse(sci.network(), sci.new_guid(), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(sci.enroll(pulse, *primary).is_ok());
  PulseMonitor monitor(sci.network(), sci.new_guid(), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(sci.enroll(monitor, *primary).is_ok());
  ASSERT_TRUE(bool(sci.submit_query(
      monitor,
      query::Builder("sub", monitor.id()).what_pattern("pulse").subscribe())));
  const event::SubscriptionId silent =
      primary->subscribe_pattern(sci.new_guid(), "lease-probe");
  sci.run_for(Duration::seconds(2));
  const auto standby_list = sci.standbys("levelB");
  ASSERT_EQ(standby_list.size(), 1u);
  range::ContextServer* standby = standby_list.front();
  ASSERT_NE(standby->mediator().table().find(silent), nullptr);

  ASSERT_TRUE(sci.promote(standby->attached_node()).is_ok());
  sci.run_for(options.reliability.lease_ttl - Duration::millis(100));
  EXPECT_NE(standby->mediator().table().find(silent), nullptr);
  sci.run_for(Duration::millis(200));
  EXPECT_EQ(standby->mediator().table().find(silent), nullptr);

  // Two more terms: the renewing monitor still hears every publish.
  sci.run_for(options.reliability.lease_ttl * 2);
  for (int i = 0; i < 3; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    sci.run_for(Duration::millis(100));
  }
  sci.run_for(Duration::seconds(1));
  EXPECT_EQ(monitor.unique_events, 3);
}

template <typename T>
std::vector<std::byte> encoded(const T& value) {
  serde::Writer w;
  value.encode(w);
  return w.view().to_vector();
}

// The state a snapshot restores, record by record. Member liveness stamps
// and lease expiries move on a primary without a record (pings, renewals),
// so members are compared without the stamps and leases by subscriber.
struct RestorableState {
  std::map<Guid, std::vector<std::byte>> members;
  std::map<Guid, std::vector<std::byte>> profiles;
  std::vector<std::vector<std::byte>> events;
  std::map<Guid, std::vector<std::byte>> dedup;
  std::vector<std::vector<std::byte>> rows;
  event::SubscriptionId next_id = 0;
  std::set<Guid> leased;
  bool operator==(const RestorableState&) const = default;
};

RestorableState restorable_state(const range::ContextServer& server) {
  RestorableState out;
  for (const Guid id : server.registrar().members()) {
    range::MemberRecord member = *server.registrar().find(id);
    member.last_seen = SimTime::zero();
    member.missed_pings = 0;
    out.members[id] = encoded(member);
  }
  for (const entity::Profile& profile : server.profiles().snapshot()) {
    out.profiles[profile.entity] =
        encoded(*server.profiles().record(profile.entity));
  }
  for (const event::Event& e : server.context_store().export_all()) {
    out.events.push_back(encoded(e));
  }
  for (const auto& [source, window] : server.publish_windows()) {
    out.dedup[source] = encoded(window);
  }
  for (const event::Subscription& s : server.mediator().table().all()) {
    out.rows.push_back(encoded(s));
  }
  out.next_id = server.mediator().table().next_id();
  for (const auto& [subscriber, expires_at] : server.mediator().leases()) {
    out.leased.insert(subscriber);
  }
  return out;
}

// A durable two-shard range whose lead holds a wildcard for a subscriber on
// the sibling, a composition, a parked not-before query, and events and
// dedup windows from a producer on each shard.
struct LoadedShardedRange {
  Sci sci{42};
  mobility::Building building{{.floors = 2, .rooms_per_floor = 4}};
  range::ContextServer* lead = nullptr;
  std::vector<std::unique_ptr<entity::Component>> components;

  LoadedShardedRange() {
    sci.set_location_directory(&building.directory());
    RangeOptions options;
    options.sharding.shard_count = 2;
    options.durability.enable = true;
    options.replication.heartbeat_period = Duration::millis(200);
    options.liveness.ping_period = Duration::seconds(60);
    lead = sci.create_range("mall", building.floor_path(0), options).value();
    auto* near = add<PulseCE>(0, "near", entity::EntityKind::kDevice);
    auto* far = add<PulseCE>(1, "far", entity::EntityKind::kDevice);
    auto* wild = add<PulseMonitor>(1, "wild", entity::EntityKind::kSoftware);
    auto* composer =
        add<PulseMonitor>(0, "composer", entity::EntityKind::kSoftware);
    auto* waiter = add<ResultApp>(0, "waiter", entity::EntityKind::kSoftware);
    sci.run_for(Duration::millis(500));
    (void)lead->subscribe_pattern(wild->id(), "pulse");
    EXPECT_TRUE(bool(sci.submit_query(
        *composer, query::Builder("sub", composer->id())
                       .what_pattern("pulse")
                       .subscribe())));
    EXPECT_TRUE(bool(sci.submit_query(
        *waiter, query::Builder("later", waiter->id())
                     .what_entity_type("printing")
                     .not_before(sci.now().seconds_f() + 60.0)
                     .advertisement())));
    sci.run_for(Duration::seconds(1));
    for (int i = 0; i < 10; ++i) {
      near->publish("pulse", Value(static_cast<std::int64_t>(i)));
      far->publish("pulse", Value(static_cast<std::int64_t>(i)));
      sci.run_for(Duration::millis(100));
    }
    sci.run_for(Duration::seconds(1));
    EXPECT_EQ(wild->unique_events, 20);
    EXPECT_EQ(lead->configurations().size(), 1u);
    EXPECT_EQ(lead->deferred_queries(), 1u);
  }

  template <typename T>
  T* add(unsigned shard, const char* name, entity::EntityKind kind) {
    Guid id = sci.new_guid();
    while (lead->shard_of(id) != shard) id = sci.new_guid();
    auto component = std::make_unique<T>(sci.network(), id, name, kind);
    T* raw = component.get();
    EXPECT_TRUE(sci.enroll(*raw, *lead).is_ok());
    components.push_back(std::move(component));
    return raw;
  }
};

// A standby caught up by snapshot holds the lead's state at the snapshot
// index, and snapshotting it again yields the bytes it was shipped (which
// it persisted as its checkpoint).
TEST(ReplicateTest, SnapshotCaughtUpStandbyHoldsThePrimarysState) {
  LoadedShardedRange r;
  const RestorableState at_snapshot = restorable_state(*r.lead);
  ASSERT_FALSE(at_snapshot.rows.empty());
  ASSERT_FALSE(at_snapshot.leased.empty());
  ASSERT_EQ(at_snapshot.dedup.size(), 1u);

  auto added = r.sci.add_standby("mall");
  ASSERT_TRUE(bool(added));
  range::ContextServer* standby = *added;
  r.sci.run_for(Duration::seconds(1));
  ASSERT_FALSE(standby->replication_follower()->awaiting_snapshot());
  EXPECT_TRUE(restorable_state(*r.lead) == at_snapshot);
  EXPECT_TRUE(restorable_state(*standby) == at_snapshot);
  EXPECT_EQ(standby->configurations().size(), 1u);
  EXPECT_EQ(standby->deferred_queries(), 1u);

  const std::vector<std::byte> file = r.sci.storage().read(
      standby->durable_store()->checkpoint_file());
  serde::FrameCursor cursor(file);
  std::vector<std::byte> payload;
  ASSERT_TRUE(cursor.next(payload));
  serde::Reader reader(payload);
  ASSERT_TRUE(reader.varint().has_value());  // epoch
  ASSERT_TRUE(reader.varint().has_value());  // base index
  const std::vector<std::byte> shipped(
      payload.end() - static_cast<std::ptrdiff_t>(reader.remaining()),
      payload.end());
  EXPECT_EQ(standby->snapshot_state(), shipped);
}

// A lead recovered from its WAL checkpoint holds the state it had when it
// went down.
TEST(ReplicateTest, CheckpointRecoveredServerHoldsThePrimarysState) {
  LoadedShardedRange r;
  // Publish on the lead until its WAL outgrows the last checkpoint: the sync
  // that crosses the bound folds the log into a checkpoint covering
  // everything above and restarts the WAL empty.
  auto& near = static_cast<PulseCE&>(*r.components.front());
  ASSERT_GT(r.sci.storage().size("mall.wal"), 0u);
  for (int i = 0; i < 1000 && r.sci.storage().size("mall.wal") > 0; ++i) {
    near.publish("pulse", Value(static_cast<std::int64_t>(i)));
    r.sci.run_for(Duration::millis(10));
  }
  ASSERT_EQ(r.sci.storage().size("mall.wal"), 0u);
  ASSERT_TRUE(r.sci.storage().exists("mall.ckpt"));
  const RestorableState at_checkpoint = restorable_state(*r.lead);

  ASSERT_TRUE(r.sci.shutdown_range("mall").is_ok());
  ASSERT_TRUE(bool(r.sci.recover_range("mall")));
  range::ContextServer* lead = r.sci.find_range("mall");
  ASSERT_NE(lead, nullptr);
  EXPECT_TRUE(restorable_state(*lead) == at_checkpoint);
  EXPECT_EQ(lead->configurations().size(), 1u);
  EXPECT_EQ(lead->deferred_queries(), 1u);
}

// An app that leaves takes its not-before queries with it: the parked
// query never runs, so nothing is wired for the departed app.
TEST(ReplicateTest, DepartedAppsNotBeforeQueryNeverRuns) {
  FailoverFixture f(0);
  PulseCE pulse(f.sci.network(), f.sci.new_guid(), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.level_b).is_ok());
  ResultApp app(f.sci.network(), f.sci.new_guid(), "app",
                entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(app, *f.level_b).is_ok());
  ASSERT_TRUE(bool(f.sci.submit_query(
      app, query::Builder("later", app.id())
               .what_pattern("pulse")
               .not_before(f.sci.now().seconds_f() + 2.0)
               .subscribe())));
  f.sci.run_for(Duration::millis(500));
  app.stop();
  f.sci.run_for(Duration::seconds(3));
  EXPECT_EQ(f.level_b->deferred_queries(), 0u);
  EXPECT_EQ(f.level_b->configurations().size(), 0u);
  EXPECT_TRUE(f.level_b->mediator().table().all().empty());
}

// ISSUE split-brain scenario: symmetric partition isolates the live primary
// (plus a publisher) from both standbys and the monitor. The minority
// primary's fencing lease lapses and it self-fences admission; the majority
// side elects a successor whose epoch supersedes the (still-alive) primary
// at the facade. After heal, every published op surfaces exactly once.
TEST(ReplicateTest, SplitBrainSingleLeaseHolderPerEpochAndNoLossAfterHeal) {
  FailoverFixture f(2);
  PulseCE pulse(f.sci.network(), f.sci.new_guid(), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.level_b).is_ok());
  PulseMonitor monitor(f.sci.network(), f.sci.new_guid(), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.level_b).is_ok());
  ASSERT_TRUE(monitor
                  .submit_query("sub",
                                query::Builder("sub", monitor.id())
                                    .what_pattern("pulse")
                                    .mode(query::QueryMode::kEventSubscription)
                                    .to_xml())
                  .is_ok());
  f.sci.run_for(Duration::seconds(2));

  for (int i = 0; i < 5; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(1));
  ASSERT_EQ(monitor.unique_events, 5);

  range::ContextServer* old_primary = f.level_b;
  const std::uint32_t old_epoch = old_primary->epoch();
  ASSERT_TRUE(old_primary->admission_open());
  ASSERT_EQ(old_primary->lease_epochs().count(old_epoch), 1u);

  // Partition the primary's machine, its CS identity, and the publisher into
  // group 1; both standby machines and the monitor stay in the connected
  // core. The primary is alive throughout — only its packets die.
  f.sci.network().set_partition_group(old_primary->id(), 1);
  f.sci.network().set_partition_group(old_primary->server_node(), 1);
  f.sci.network().set_partition_group(pulse.id(), 1);

  // Keep publishing into the minority side. Early ops are admitted but can
  // never commit (sync_acks=1 and no standby is reachable), so the client
  // ack is withheld; once the lease lapses the rest are refused outright.
  for (int i = 5; i < 10; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(400));
  }
  f.sci.run_for(Duration::seconds(3));

  range::ContextServer* fresh = f.sci.find_range("levelB");
  ASSERT_NE(fresh, nullptr);
  ASSERT_NE(fresh, old_primary);
  EXPECT_TRUE(fresh->promoted_by_election());
  EXPECT_GT(fresh->elected_epoch(), old_epoch);
  EXPECT_TRUE(old_primary->is_fenced());
  EXPECT_GE(node_count(*old_primary, "repl.lease.lapses"), 1u);
  EXPECT_GT(node_count(*old_primary, "repl.lease.rejected"), 0u);
  EXPECT_FALSE(old_primary->admission_open());

  // Heal. The publisher's reliable channel retransmits the unacked ops to
  // the successor (same CS identity, fresh dedup, replicated publish-seen
  // filter), and deliveries resume toward the monitor.
  f.sci.network().heal_partitions();
  f.sci.run_for(Duration::seconds(25));

  EXPECT_EQ(monitor.unique_events, 10);
  EXPECT_EQ(monitor.duplicate_events, 0);
  EXPECT_EQ(monitor.registered_calls, 1);

  // At most one lease holder per epoch: the deposed primary's lease epochs
  // and the successor's never intersect, and the successor re-acquired
  // under its elected epoch once the majority became reachable again.
  EXPECT_EQ(fresh->lease_epochs().count(fresh->epoch()), 1u);
  for (const std::uint32_t e : fresh->lease_epochs()) {
    EXPECT_EQ(old_primary->lease_epochs().count(e), 0u);
  }
}

// Default options commit a record once one standby applied it: with the
// only standby partitioned away, a publish is admitted but its client ack
// stays withheld until the partition heals.
TEST(ReplicateTest, DefaultOptionsWithholdAdmitAckUntilStandbyApplies) {
  Sci sci{42};
  mobility::Building building{{.floors = 1, .rooms_per_floor = 4}};
  sci.set_location_directory(&building.directory());
  RangeOptions options;
  options.replication.standby_count = 1;
  range::ContextServer* primary =
      sci.create_range("level", building.floor_path(0), options).value();
  PulseCE pulse(sci.network(), sci.new_guid(), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(sci.enroll(pulse, *primary).is_ok());
  sci.run_for(Duration::seconds(1));
  ASSERT_EQ(pulse.unacked(), 0u);
  const std::vector<range::ContextServer*> standbys = sci.standbys("level");
  ASSERT_EQ(standbys.size(), 1u);

  sci.network().set_partition_group(standbys[0]->attached_node(), 1);
  pulse.publish("pulse", Value(std::int64_t{1}));
  sci.run_for(Duration::millis(600));
  const replicate::ReplicationLog* log = primary->replication_log();
  ASSERT_NE(log, nullptr);
  EXPECT_LT(log->committed(), log->head());  // admitted, not yet committed
  EXPECT_EQ(pulse.unacked(), 1u);  // its admit ack is withheld

  sci.network().heal_partitions();
  sci.run_for(Duration::seconds(2));
  EXPECT_EQ(log->committed(), log->head());
  EXPECT_EQ(pulse.unacked(), 0u);
  EXPECT_EQ(primary->replication_lag(), 0u);
}

// Sync-mode kill/elect cycle: with sync_acks=1 the primary withholds the
// client-visible ack until a standby applied the record, and the election's
// watermark gate makes the ack set intersect the vote majority — so no
// client-acked op can be lost across the failover.
TEST(ReplicateTest, SyncModeKillElectCycleLosesNoClientAckedOps) {
  FailoverFixture f(2);
  PulseCE pulse(f.sci.network(), f.sci.new_guid(), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.level_b).is_ok());
  PulseMonitor monitor(f.sci.network(), f.sci.new_guid(), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.level_b).is_ok());
  ASSERT_TRUE(monitor
                  .submit_query("sub",
                                query::Builder("sub", monitor.id())
                                    .what_pattern("pulse")
                                    .mode(query::QueryMode::kEventSubscription)
                                    .to_xml())
                  .is_ok());
  f.sci.run_for(Duration::seconds(2));

  for (int i = 0; i < 10; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(1));
  ASSERT_EQ(monitor.unique_events, 10);

  range::ContextServer* old_primary = f.level_b;
  ASSERT_TRUE(f.sci.network().set_crashed(old_primary->id(), true).is_ok());
  ASSERT_TRUE(
      f.sci.network().set_crashed(old_primary->server_node(), true).is_ok());
  f.sci.run_for(Duration::seconds(4));

  // With two standbys the group (3 incl. the dead primary) can elect: the
  // winner carries a majority at a superseding epoch instead of relying on
  // the facade's is-it-really-dead oracle.
  range::ContextServer* fresh = f.sci.find_range("levelB");
  ASSERT_NE(fresh, nullptr);
  ASSERT_NE(fresh, old_primary);
  EXPECT_TRUE(fresh->promoted_by_election());
  EXPECT_GT(fresh->elected_epoch(), 0u);
  EXPECT_EQ(fresh->epoch(), fresh->elected_epoch());
  EXPECT_EQ(f.sci.standbys("levelB").size(), 1u);  // sibling re-attached

  for (int i = 10; i < 20; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(10));

  // Zero acked-op loss and zero duplicates across the cycle.
  EXPECT_EQ(monitor.unique_events, 20);
  EXPECT_EQ(monitor.duplicate_events, 0);
  EXPECT_EQ(monitor.registered_calls, 1);
  EXPECT_TRUE(pulse.is_registered());
  EXPECT_TRUE(monitor.is_registered());
}

// ISSUE durability scenario: kill-and-elect under sync_acks=1, then cold
// restart the fenced old primary from its own WAL. The restarted instance
// rejoins as a standby of the election winner; because its disk carries a
// fenced epoch, the winner must REPLACE its recovered state with a fresh
// snapshot — never merge the old lineage's tail — so no op the dead
// incarnation applied but failed to replicate can resurrect, and nothing is
// delivered twice.
TEST(ReplicateTest, ColdRestartedFencedPrimaryRejoinsWithoutResurrection) {
  Sci sci{42};
  mobility::Building building{{.floors = 2, .rooms_per_floor = 4}};
  sci.set_location_directory(&building.directory());
  range::ContextServer* level_a =
      sci.create_range("levelA", building.floor_path(0)).value();
  ASSERT_NE(level_a, nullptr);
  RangeOptions options;
  options.durability.enable = true;
  options.replication.standby_count = 1;
  options.replication.heartbeat_period = Duration::millis(200);
  range::ContextServer* level_b =
      sci.create_range("levelB", building.floor_path(1), options).value();

  PulseCE pulse(sci.network(), sci.new_guid(), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(sci.enroll(pulse, *level_b).is_ok());
  PulseMonitor monitor(sci.network(), sci.new_guid(), "monitor",
                       entity::EntityKind::kSoftware);
  ASSERT_TRUE(sci.enroll(monitor, *level_b).is_ok());
  ASSERT_TRUE(monitor
                  .submit_query("sub",
                                query::Builder("sub", monitor.id())
                                    .what_pattern("pulse")
                                    .mode(query::QueryMode::kEventSubscription)
                                    .to_xml())
                  .is_ok());
  sci.run_for(Duration::seconds(1));

  for (int i = 0; i < 10; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    sci.run_for(Duration::millis(100));
  }
  sci.run_for(Duration::seconds(1));
  ASSERT_EQ(monitor.unique_events, 10);

  // Kill the primary; the standby's watchdog fences and takes over.
  range::ContextServer* old_primary = level_b;
  const std::uint32_t fenced_epoch = old_primary->epoch();
  ASSERT_TRUE(sci.network().set_crashed(old_primary->id(), true).is_ok());
  ASSERT_TRUE(
      sci.network().set_crashed(old_primary->server_node(), true).is_ok());
  sci.run_for(Duration::seconds(3));

  range::ContextServer* fresh = sci.find_range("levelB");
  ASSERT_NE(fresh, nullptr);
  ASSERT_NE(fresh, old_primary);
  ASSERT_EQ(fresh->role(), range::RangeConfig::Role::kPrimary);
  ASSERT_GT(fresh->epoch(), fenced_epoch);

  // Cold-restart the dead incarnation from its WAL: the replacement standby
  // takes over the old primary's free store ("levelB") and recovers it.
  auto rejoined = sci.add_standby("levelB");
  ASSERT_TRUE(bool(rejoined));
  EXPECT_EQ((*rejoined)->config().store_name, "levelB");
  EXPECT_TRUE((*rejoined)->recovered_from_disk());
  // The disk speaks for the fenced epoch, not the winner's.
  EXPECT_EQ((*rejoined)->recovered_epoch(), fenced_epoch);
  EXPECT_GT((*rejoined)->recovered_watermark(), 0u);
  sci.run_for(Duration::seconds(1));

  // Stale lineage ⇒ the winner shipped a replacing snapshot, not a delta.
  const auto snap = sci.metrics().snapshot();
  EXPECT_EQ(snap.counter("repl.catchup.delta"), 0u);
  EXPECT_GE(snap.counter("repl.catchup.full"), 1u);
  ASSERT_NE((*rejoined)->replication_follower(), nullptr);
  EXPECT_FALSE((*rejoined)->replication_follower()->awaiting_snapshot());

  // Traffic through the new incarnation reaches the monitor exactly once —
  // nothing lost, nothing resurrected, nothing duplicated.
  for (int i = 10; i < 15; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    sci.run_for(Duration::millis(100));
  }
  sci.run_for(Duration::seconds(5));
  EXPECT_EQ(monitor.unique_events, 15);
  EXPECT_EQ(monitor.duplicate_events, 0);
  EXPECT_EQ(monitor.registered_calls, 1);
  EXPECT_EQ(fresh->replication_lag(), 0u);
}

}  // namespace
}  // namespace sci
