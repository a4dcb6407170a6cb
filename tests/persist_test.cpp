// Tests for the durable per-shard store (docs/DURABILITY.md): CRC frame
// codec, the simulated storage environment's durable-vs-volatile contract,
// ShardStore group commit / checkpoint / recovery, and the facade-level
// crash-recovery flows — cold range restart, WAL-delta standby rejoin, and
// torn/corrupt-tail fault injection.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/sci.h"
#include "persist/shard_store.h"
#include "persist/storage.h"
#include "serde/frame.h"
#include "sim/fault_plan.h"

#include "metric_counts.h"

namespace sci {
namespace {

std::vector<std::byte> bytes(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

// The same bytes as a pooled frame (what records and sends carry).
serde::BufferRef frame(std::initializer_list<int> values) {
  return serde::BufferRef::copy_of(bytes(values));
}

// ---------------------------------------------------------------------------
// serde/frame.h — CRC-framed WAL records

TEST(PersistTest, FrameRoundTripWalksCleanly) {
  std::vector<std::byte> buf;
  serde::append_frame(buf, bytes({1, 2, 3}));
  serde::append_frame(buf, bytes({}));  // empty payloads are legal
  serde::append_frame(buf, bytes({9, 8, 7, 6, 5}));

  serde::FrameCursor cursor(buf);
  std::vector<std::byte> payload;
  ASSERT_TRUE(cursor.next(payload));
  EXPECT_EQ(payload, bytes({1, 2, 3}));
  ASSERT_TRUE(cursor.next(payload));
  EXPECT_TRUE(payload.empty());
  ASSERT_TRUE(cursor.next(payload));
  EXPECT_EQ(payload, bytes({9, 8, 7, 6, 5}));
  EXPECT_FALSE(cursor.next(payload));
  EXPECT_EQ(cursor.stop(), serde::FrameStop::kClean);
  EXPECT_EQ(cursor.stop_offset(), buf.size());
  EXPECT_EQ(cursor.frames_read(), 3u);
}

TEST(PersistTest, FrameCursorStopsAtTornTail) {
  std::vector<std::byte> buf;
  serde::append_frame(buf, bytes({1, 2, 3}));
  const std::size_t intact = buf.size();
  serde::append_frame(buf, bytes({4, 5, 6, 7}));
  buf.resize(buf.size() - 2);  // torn write: last sectors never landed

  serde::FrameCursor cursor(buf);
  std::vector<std::byte> payload;
  ASSERT_TRUE(cursor.next(payload));
  EXPECT_EQ(payload, bytes({1, 2, 3}));
  EXPECT_FALSE(cursor.next(payload));
  EXPECT_EQ(cursor.stop(), serde::FrameStop::kTruncated);
  // The truncate point is the start of the damaged frame, not of the file.
  EXPECT_EQ(cursor.stop_offset(), intact);
}

TEST(PersistTest, FrameCursorStopsOnCorruptPayload) {
  std::vector<std::byte> buf;
  serde::append_frame(buf, bytes({1, 2, 3}));
  const std::size_t intact = buf.size();
  serde::append_frame(buf, bytes({4, 5, 6, 7}));
  buf.back() ^= std::byte{0x40};  // bit rot inside the last payload

  serde::FrameCursor cursor(buf);
  std::vector<std::byte> payload;
  ASSERT_TRUE(cursor.next(payload));
  EXPECT_FALSE(cursor.next(payload));
  EXPECT_EQ(cursor.stop(), serde::FrameStop::kBadCrc);
  EXPECT_EQ(cursor.stop_offset(), intact);
}

// ---------------------------------------------------------------------------
// persist::StorageEnv — written != durable

TEST(PersistTest, StorageAppendsAreVolatileUntilSync) {
  persist::StorageEnv env;
  env.append("f", bytes({1, 2, 3}));
  EXPECT_EQ(env.size("f"), 3u);
  EXPECT_EQ(env.durable_size("f"), 0u);
  EXPECT_TRUE(env.read("f").empty());  // a crash now loses everything

  ASSERT_TRUE(env.sync("f"));
  EXPECT_EQ(env.durable_size("f"), 3u);
  EXPECT_EQ(env.read("f"), bytes({1, 2, 3}));

  // New appends extend the volatile size only; reads stay at the watermark.
  env.append("f", bytes({4}));
  EXPECT_EQ(env.size("f"), 4u);
  EXPECT_EQ(env.read("f"), bytes({1, 2, 3}));
}

TEST(PersistTest, StorageFailedSyncHoldsWatermark) {
  persist::StorageEnv env;
  env.append("f", bytes({1, 2}));
  env.fail_syncs("f", 1);
  EXPECT_FALSE(env.sync("f"));
  EXPECT_EQ(env.durable_size("f"), 0u);
  EXPECT_TRUE(env.sync("f"));  // injection consumed; retry succeeds
  EXPECT_EQ(env.durable_size("f"), 2u);
  EXPECT_EQ(env.stats().sync_failures, 1u);
}

TEST(PersistTest, StorageWriteAtomicIsAllOrNothing) {
  persist::StorageEnv env;
  ASSERT_TRUE(env.write_atomic("c", bytes({1, 1, 1})));
  EXPECT_EQ(env.read("c"), bytes({1, 1, 1}));

  env.fail_syncs("c", 1);
  EXPECT_FALSE(env.write_atomic("c", bytes({2, 2})));
  // Never a half-written file: the old content survives untouched.
  EXPECT_EQ(env.read("c"), bytes({1, 1, 1}));
  ASSERT_TRUE(env.write_atomic("c", bytes({2, 2})));
  EXPECT_EQ(env.read("c"), bytes({2, 2}));
}

TEST(PersistTest, StorageFaultHooksTearCapAndClear) {
  persist::StorageEnv env;
  env.append("f", bytes({1, 2, 3, 4, 5}));
  ASSERT_TRUE(env.sync("f"));

  env.tear_tail("f", 2);  // fsync acked, sectors gone anyway
  EXPECT_EQ(env.durable_size("f"), 3u);
  EXPECT_EQ(env.read("f"), bytes({1, 2, 3}));

  env.short_reads("f", 1);
  EXPECT_EQ(env.read("f"), bytes({1}));
  env.clear_read_faults("f");
  EXPECT_EQ(env.read("f"), bytes({1, 2, 3}));
  EXPECT_GE(env.stats().faults_injected, 2u);
}

// ---------------------------------------------------------------------------
// persist::ShardStore — group commit, checkpoint, recovery

struct StoreFixture {
  sim::Simulator simulator{42};
  persist::StorageEnv env;
  std::vector<std::uint64_t> durable_marks;

  persist::DurabilityConfig config() {
    persist::DurabilityConfig c;
    c.enable = true;
    return c;
  }

  // Virtual time the sync of everything written to `store`'s WAL so far
  // but not yet durable takes.
  Duration pending_sync_cost(const persist::ShardStore& store) {
    return persist::StorageEnv::sync_cost(
        env.size(store.wal_file()) - env.durable_size(store.wal_file()));
  }

  void advance(Duration d) { simulator.run_until(simulator.now() + d); }

  std::uint64_t counter(const char* name) {
    return simulator.metrics().snapshot().counter(name);
  }

  std::unique_ptr<persist::ShardStore> make(const std::string& name,
                                            persist::DurabilityConfig c) {
    auto store = std::make_unique<persist::ShardStore>(simulator, env, name, c);
    store->set_durable_callback(
        [this](std::uint64_t mark) { durable_marks.push_back(mark); });
    return store;
  }
};

TEST(PersistTest, SyncCostIsFixedLatencyPlusPerKiB) {
  EXPECT_EQ(persist::StorageEnv::sync_cost(0), Duration::millis(1));
  EXPECT_EQ(persist::StorageEnv::sync_cost(1023), Duration::millis(1));
  EXPECT_EQ(persist::StorageEnv::sync_cost(1024), Duration::micros(1002));
  EXPECT_EQ(persist::StorageEnv::sync_cost(64 * 1024),
            Duration::micros(1128));
}

// Idle disk: an append goes out at once, and becomes durable exactly when
// its sync completes — one sync, one callback.
TEST(PersistTest, StoreSyncsAsSoonAsTheDiskIsIdle) {
  StoreFixture f;
  auto store = f.make("s", f.config());
  store->append(1, 1, frame({10}));
  EXPECT_EQ(store->buffered(), 0u);  // written at once: the disk was idle
  EXPECT_TRUE(store->sync_in_flight());
  EXPECT_EQ(store->durable_index(), 0u);  // write-behind: not synced yet
  const Duration cost = f.pending_sync_cost(*store);

  f.advance(cost - Duration::micros(1));
  EXPECT_EQ(store->durable_index(), 0u);
  EXPECT_TRUE(f.durable_marks.empty());

  f.advance(Duration::micros(1));
  EXPECT_EQ(store->durable_index(), 1u);
  EXPECT_FALSE(store->sync_in_flight());
  EXPECT_EQ(f.env.stats().syncs, 1u);
  EXPECT_EQ(f.durable_marks, (std::vector<std::uint64_t>{1}));
}

// Busy disk: everything appended while a sync is in flight leaves together
// in exactly one follow-up batch — the group commit grows with the load.
TEST(PersistTest, StoreGroupCommitsAppendsMadeDuringAnInFlightSync) {
  StoreFixture f;
  auto store = f.make("s", f.config());
  store->append(1, 1, frame({1}));
  const Duration first = f.pending_sync_cost(*store);
  for (std::uint64_t i = 2; i <= 6; ++i) {
    store->append(1, i, frame({int(i)}));
  }
  EXPECT_EQ(store->buffered(), 5u);
  EXPECT_EQ(store->durable_index(), 0u);
  EXPECT_EQ(f.env.stats().appends, 1u);  // the follow-up batch waits

  f.advance(first);
  EXPECT_EQ(store->durable_index(), 1u);
  // The completion sent the whole buffer out as one file append.
  EXPECT_EQ(store->buffered(), 0u);
  EXPECT_TRUE(store->sync_in_flight());
  EXPECT_EQ(f.env.stats().appends, 2u);
  const Duration second = f.pending_sync_cost(*store);

  f.advance(second);
  EXPECT_EQ(store->durable_index(), 6u);
  EXPECT_FALSE(store->sync_in_flight());
  EXPECT_EQ(f.env.stats().syncs, 2u);
  EXPECT_EQ(f.durable_marks, (std::vector<std::uint64_t>{1, 6}));
  EXPECT_EQ(f.counter("persist.appends"), 6u);
  EXPECT_EQ(f.counter("persist.flushes"), 2u);
}

// flush() is the synchronous barrier: it supersedes the in-flight sync and
// makes every append durable before it returns.
TEST(PersistTest, StoreFlushIsASynchronousBarrier) {
  StoreFixture f;
  auto store = f.make("s", f.config());
  store->append(1, 1, frame({1}));
  store->append(1, 2, frame({2}));
  store->append(1, 3, frame({3}));
  EXPECT_EQ(store->durable_index(), 0u);
  EXPECT_EQ(store->buffered(), 2u);

  EXPECT_TRUE(store->flush());
  EXPECT_EQ(store->durable_index(), 3u);
  EXPECT_EQ(store->buffered(), 0u);
  EXPECT_FALSE(store->sync_in_flight());
  EXPECT_EQ(f.durable_marks, (std::vector<std::uint64_t>{3}));

  // The cancelled completion never lands: no second sync, no second mark.
  f.advance(Duration::millis(10));
  EXPECT_EQ(f.env.stats().syncs, 1u);
  EXPECT_EQ(f.durable_marks, (std::vector<std::uint64_t>{3}));
}

TEST(PersistTest, StoreFailedSyncHoldsAcksAndRetries) {
  StoreFixture f;
  auto store = f.make("s", f.config());
  f.env.fail_syncs(store->wal_file(), 1);
  store->append(1, 1, frame({1}));
  const Duration cost = f.pending_sync_cost(*store);

  f.advance(cost);
  // The fsync failed: watermark (and the acks behind it) must not move.
  EXPECT_EQ(store->durable_index(), 0u);
  EXPECT_TRUE(f.durable_marks.empty());
  EXPECT_EQ(f.counter("persist.sync_failures"), 1u);
  // The retry went out from the failed completion, over the same bytes.
  EXPECT_TRUE(store->sync_in_flight());
  EXPECT_EQ(f.pending_sync_cost(*store), cost);

  f.advance(cost);  // two sync costs after the append
  EXPECT_EQ(store->durable_index(), 1u);
  EXPECT_EQ(f.durable_marks, (std::vector<std::uint64_t>{1}));
}

// Power cut mid-sync: the store dies with its completion pending, so the
// in-flight batch never becomes durable and recovery returns the old mark.
TEST(PersistTest, StorePowerCutMidSyncKeepsTheOldWatermark) {
  StoreFixture f;
  {
    auto store = f.make("s", f.config());
    store->append(1, 1, frame({1}));
    store->append(1, 2, frame({2}));
    ASSERT_TRUE(store->flush());
    store->append(1, 3, frame({3}));
    store->append(1, 4, frame({4}));
    ASSERT_TRUE(store->sync_in_flight());
    EXPECT_GT(f.env.size(store->wal_file()),
              f.env.durable_size(store->wal_file()));
  }
  f.advance(Duration::millis(10));  // the cancelled completion never runs

  auto revived = f.make("s", f.config());
  const persist::RecoveredState rec = revived->recover();
  ASSERT_TRUE(rec.any);
  EXPECT_EQ(rec.watermark, 2u);
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_EQ(revived->durable_index(), 2u);
  EXPECT_FALSE(rec.tail_truncated);  // the unsynced suffix simply vanished
}

// A checkpoint supersedes the records an in-flight sync covers: the sync is
// cancelled, so its completion cannot resurrect the removed WAL.
TEST(PersistTest, StoreCheckpointDuringInFlightSyncKeepsWalRemoved) {
  StoreFixture f;
  auto store = f.make("s", f.config());
  store->append(2, 1, frame({1}));
  store->append(2, 2, frame({2}));
  ASSERT_TRUE(store->sync_in_flight());

  ASSERT_TRUE(store->checkpoint_with(2, 2, bytes({7, 7})));
  EXPECT_FALSE(store->sync_in_flight());
  EXPECT_FALSE(f.env.exists(store->wal_file()));
  EXPECT_EQ(store->durable_index(), 2u);

  f.advance(Duration::millis(10));
  EXPECT_FALSE(f.env.exists(store->wal_file()));
  EXPECT_EQ(f.env.stats().syncs, 1u);  // only the checkpoint's atomic write
  EXPECT_EQ(f.durable_marks, (std::vector<std::uint64_t>{2}));
}

TEST(PersistTest, StoreCheckpointSupersedesWalAndRecoverReplays) {
  StoreFixture f;
  {
    auto store = f.make("s", f.config());
    store->set_snapshot_provider([] { return bytes({9, 9, 9}); });
    for (std::uint64_t i = 1; i <= 5; ++i) {
      store->append(3, i, frame({int(i)}));
    }
    ASSERT_TRUE(store->checkpoint(3));
    EXPECT_FALSE(f.env.exists(store->wal_file()));  // log restarted empty
    store->append(3, 6, frame({6}));
    store->append(3, 7, frame({7}));
    ASSERT_TRUE(store->flush());
  }  // node object dies; only the durable files survive

  auto revived = f.make("s", f.config());
  const persist::RecoveredState rec = revived->recover();
  ASSERT_TRUE(rec.any);
  EXPECT_EQ(rec.epoch, 3u);
  EXPECT_EQ(rec.base_index, 5u);
  EXPECT_EQ(rec.snapshot, bytes({9, 9, 9}));
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_EQ(rec.records[0].index, 6u);
  EXPECT_EQ(rec.records[1].index, 7u);
  EXPECT_EQ(rec.records[1].bytes, bytes({7}));
  EXPECT_EQ(rec.watermark, 7u);
  EXPECT_FALSE(rec.tail_truncated);
  EXPECT_EQ(revived->durable_index(), 7u);
}

TEST(PersistTest, StoreRecoverTruncatesTornTail) {
  StoreFixture f;
  {
    auto store = f.make("s", f.config());
    for (std::uint64_t i = 1; i <= 4; ++i) {
      store->append(1, i, frame({int(i)}));
    }
    ASSERT_TRUE(store->flush());
  }
  f.env.tear_tail("s.wal", 3);  // last frame loses its tail

  auto revived = f.make("s", f.config());
  const persist::RecoveredState rec = revived->recover();
  ASSERT_TRUE(rec.any);
  EXPECT_TRUE(rec.tail_truncated);
  EXPECT_NE(rec.stop, serde::FrameStop::kClean);
  ASSERT_EQ(rec.records.size(), 3u);
  EXPECT_EQ(rec.watermark, 3u);

  // The damaged tail was cut, so appending and re-recovering is clean.
  revived->append(1, 4, frame({4}));
  ASSERT_TRUE(revived->flush());
  auto third = f.make("s", f.config());
  const persist::RecoveredState again = third->recover();
  EXPECT_FALSE(again.tail_truncated);
  EXPECT_EQ(again.watermark, 4u);
}

TEST(PersistTest, StoreRecoverSurvivesCorruptionAndShortReads) {
  StoreFixture f;
  {
    auto store = f.make("s", f.config());
    for (std::uint64_t i = 1; i <= 3; ++i) {
      store->append(1, i, frame({int(i), 0, 0, 0, 0, 0, 0, 0}));
    }
    ASSERT_TRUE(store->flush());
  }
  f.env.corrupt_tail("s.wal");  // bit rot inside the last frame

  auto revived = f.make("s", f.config());
  const persist::RecoveredState rec = revived->recover();
  EXPECT_TRUE(rec.tail_truncated);
  EXPECT_EQ(rec.stop, serde::FrameStop::kBadCrc);
  EXPECT_EQ(rec.watermark, 2u);

  // A capped read is indistinguishable from a shorter file: recovery still
  // succeeds (lower watermark) and clears the fault for the write side.
  persist::StorageEnv env2;
  sim::Simulator sim2{7};
  {
    persist::ShardStore store(sim2, env2, "t", f.config());
    for (std::uint64_t i = 1; i <= 3; ++i) {
      store.append(1, i, frame({int(i)}));
    }
    ASSERT_TRUE(store.flush());
  }
  env2.short_reads("t.wal", 16);
  persist::ShardStore partial(sim2, env2, "t", f.config());
  const persist::RecoveredState short_rec = partial.recover();
  ASSERT_TRUE(short_rec.any);
  EXPECT_LT(short_rec.watermark, 3u);
  EXPECT_GE(short_rec.watermark, 1u);
}

// ---------------------------------------------------------------------------
// Facade-level durability: cold restart, delta rejoin, fault plans

// Advertises the "pulse" output so a pattern subscription composes onto it.
class PulseCE final : public entity::ContextEntity {
 public:
  using ContextEntity::ContextEntity;

  // Acks this client has received: an acked publish must survive a crash.
  [[nodiscard]] std::uint64_t acks_received() {
    return channel().stats().acked;
  }

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

struct DurableFixture {
  Sci sci{42};
  mobility::Building building{{.floors = 2, .rooms_per_floor = 4}};
  range::ContextServer* level_a = nullptr;
  range::ContextServer* level_b = nullptr;

  explicit DurableFixture(unsigned standby_count = 0,
                          unsigned shard_count = 1) {
    sci.set_location_directory(&building.directory());
    level_a = sci.create_range("levelA", building.floor_path(0)).value();
    RangeOptions options;
    options.durability.enable = true;
    options.sharding.shard_count = shard_count;
    options.replication.standby_count = standby_count;
    options.replication.heartbeat_period = Duration::millis(200);
    level_b =
        sci.create_range("levelB", building.floor_path(1), options).value();
  }
};

TEST(PersistTest, ColdRestartRecoversAckedOpsAndSubscriptions) {
  DurableFixture f;
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

  for (int i = 0; i < 10; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(1));  // every op acked + group-committed
  ASSERT_EQ(monitor.unique_events, 10);

  // Power cut: the Context Server objects die without any flush; the only
  // survivor is what the write-behind store already made durable.
  ASSERT_TRUE(f.sci.shutdown_range("levelB").is_ok());
  EXPECT_EQ(f.sci.find_range("levelB"), nullptr);
  EXPECT_TRUE(f.sci.storage().exists("levelB.ckpt") ||
              f.sci.storage().exists("levelB.wal"));

  auto revived = f.sci.recover_range("levelB");
  ASSERT_TRUE(bool(revived));
  f.sci.run_for(Duration::seconds(1));

  const auto snapshot = f.sci.metrics().snapshot();
  EXPECT_GE(snapshot.counter("persist.recoveries"), 1u);
  EXPECT_EQ(snapshot.counter("view.snapshot_decode_failures"), 0u);

  // Registrations and the subscription came back from disk: new publishes
  // flow to the monitor without any re-registration handshake.
  for (int i = 10; i < 15; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(2));
  EXPECT_EQ(monitor.unique_events, 15);
  EXPECT_EQ(monitor.duplicate_events, 0);
  EXPECT_EQ(monitor.registered_calls, 1);
}

// Power cut while the WAL is busy: publishes arrive faster than the disk
// syncs, so the cut lands with a batch in flight and acks still held. Every
// op the client saw acked is in the recovered state; the unacked rest come
// back by client retransmission.
TEST(PersistTest, PowerCutWithSyncsInFlightLosesNoAckedOp) {
  DurableFixture f;
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

  constexpr int kPublishes = 12;
  const std::uint64_t acks_before = pulse.acks_received();
  for (int i = 0; i < kPublishes; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::micros(300));
  }
  ASSERT_TRUE(f.level_b->durable_store()->sync_in_flight());
  const std::uint64_t acked = pulse.acks_received() - acks_before;
  ASSERT_GT(acked, 0u);
  ASSERT_LT(acked, static_cast<std::uint64_t>(kPublishes));

  ASSERT_TRUE(f.sci.shutdown_range("levelB").is_ok());
  ASSERT_TRUE(bool(f.sci.recover_range("levelB")));
  // Before any retransmission can arrive, the recovered server already
  // holds every acked publish — and none of the in-flight batch.
  const std::size_t recovered =
      f.sci.find_range("levelB")
          ->context_store()
          .history(pulse.id(), "pulse", kPublishes)
          .size();
  EXPECT_GE(recovered, acked);
  EXPECT_LT(recovered, static_cast<std::size_t>(kPublishes));

  f.sci.run_for(Duration::seconds(3));
  EXPECT_GE(pulse.acks_received() - acks_before,
            static_cast<std::uint64_t>(kPublishes));
  EXPECT_EQ(monitor.unique_events, kPublishes);
  EXPECT_EQ(monitor.registered_calls, 1);
}

// Mints a guid owned by the given shard of levelB.
Guid guid_owned_by(Sci& sci, range::ContextServer* lead, unsigned shard) {
  for (int i = 0; i < 4096; ++i) {
    const Guid g = sci.new_guid();
    if (lead->shard_of(g) == shard) return g;
  }
  ADD_FAILURE() << "no guid hashed to shard " << shard;
  return Guid();
}

TEST(PersistTest, ShardedColdRestartRecoversEveryShardStore) {
  DurableFixture f(0, /*shard_count=*/2);
  // One owned entity per shard, so each shard logs records of its own.
  PulseCE pulse(f.sci.network(), guid_owned_by(f.sci, f.level_b, 0), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.level_b).is_ok());
  PulseMonitor monitor(f.sci.network(), guid_owned_by(f.sci, f.level_b, 1),
                       "monitor", entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.level_b).is_ok());
  ASSERT_TRUE(monitor
                  .submit_query("sub",
                                query::Builder("sub", monitor.id())
                                    .what_pattern("pulse")
                                    .mode(query::QueryMode::kEventSubscription)
                                    .to_xml())
                  .is_ok());
  f.sci.run_for(Duration::seconds(1));
  for (int i = 0; i < 6; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(1));
  ASSERT_EQ(monitor.unique_events, 6);

  // Each shard persists under its own store: lead "levelB", sibling
  // "levelB#1".
  EXPECT_TRUE(f.sci.storage().exists("levelB.wal") ||
              f.sci.storage().exists("levelB.ckpt"));
  EXPECT_TRUE(f.sci.storage().exists("levelB#1.wal") ||
              f.sci.storage().exists("levelB#1.ckpt"));

  ASSERT_TRUE(f.sci.shutdown_range("levelB").is_ok());
  auto revived = f.sci.recover_range("levelB");
  ASSERT_TRUE(bool(revived));
  ASSERT_EQ(f.sci.shards("levelB").size(), 2u);
  f.sci.run_for(Duration::seconds(1));

  for (int i = 6; i < 10; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(2));
  EXPECT_EQ(monitor.unique_events, 10);
  EXPECT_EQ(monitor.duplicate_events, 0);
  EXPECT_EQ(monitor.registered_calls, 1);
}

TEST(PersistTest, StandbyRejoinsViaDeltaSmallerThanSnapshot) {
  DurableFixture f;
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
  // Build real state first so the initial full snapshot has weight.
  for (int i = 0; i < 20; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(50));
  }
  f.sci.run_for(Duration::seconds(1));

  auto first = f.sci.add_standby("levelB");
  ASSERT_TRUE(bool(first));
  f.sci.run_for(Duration::seconds(1));
  {
    const auto snap = f.sci.metrics().snapshot();
    ASSERT_GE(snap.counter("repl.catchup.full"), 1u);
    ASSERT_GT(snap.counter("repl.catchup.snapshot_bytes"), 0u);
    ASSERT_EQ(snap.counter("repl.catchup.delta"), 0u);
  }

  // Cold-stop the standby; its WAL stays behind in the storage env.
  const Guid standby_node = (*first)->attached_node();
  ASSERT_TRUE(f.sci.shutdown_standby(standby_node).is_ok());
  ASSERT_TRUE(f.sci.standbys("levelB").empty());

  // A little more traffic: the delta the rejoin must fetch.
  for (int i = 20; i < 25; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(50));
  }
  f.sci.run_for(Duration::seconds(1));

  // The replacement takes the dead standby's slot, recovers its WAL, and
  // presents the recovered (epoch, watermark): the primary ships only the
  // tail above it instead of a second full snapshot.
  auto second = f.sci.add_standby("levelB");
  ASSERT_TRUE(bool(second));
  EXPECT_TRUE((*second)->recovered_from_disk());
  f.sci.run_for(Duration::seconds(1));

  const auto snap = f.sci.metrics().snapshot();
  EXPECT_EQ(snap.counter("repl.catchup.delta"), 1u);
  EXPECT_EQ(snap.counter("repl.catchup.full"), 1u);  // no second snapshot
  EXPECT_GT(snap.counter("repl.catchup.delta_bytes"), 0u);
  EXPECT_LT(snap.counter("repl.catchup.delta_bytes"),
            snap.counter("repl.catchup.snapshot_bytes"));
  ASSERT_NE((*second)->replication_follower(), nullptr);
  EXPECT_FALSE((*second)->replication_follower()->awaiting_snapshot());
  EXPECT_EQ(f.level_b->replication_lag(), 0u);
}

TEST(PersistTest, TornAndCorruptWalRecoveryNeverPanics) {
  DurableFixture f;
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
  for (int i = 0; i < 8; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(1));
  ASSERT_EQ(monitor.unique_events, 8);

  ASSERT_TRUE(f.sci.shutdown_range("levelB").is_ok());

  // Damage the dormant WAL through the declarative fault plan: tear the
  // durable tail AND flip a byte further in. Recovery must truncate at the
  // first bad frame and carry on — never panic, never refuse.
  sim::FaultPlan plan;
  plan.wal_torn(Duration::millis(0), "levelB", 5)
      .wal_corrupt(Duration::millis(1), "levelB");
  f.sci.inject_faults(plan);
  f.sci.run_for(Duration::millis(10));

  auto revived = f.sci.recover_range("levelB");
  ASSERT_TRUE(bool(revived));
  f.sci.run_for(Duration::seconds(1));
  const auto snap = f.sci.metrics().snapshot();
  EXPECT_GE(snap.counter("persist.truncated_tails"), 1u);
  EXPECT_GE(snap.counter("persist.recoveries"), 1u);

  // Ops inside the damaged tail may be gone (the fault chopped durable
  // bytes), but the recovered server keeps serving: new publishes still
  // reach the monitor's recovered subscription.
  const int before = monitor.unique_events + monitor.duplicate_events;
  for (int i = 8; i < 12; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(2));
  EXPECT_GE(monitor.unique_events + monitor.duplicate_events, before + 4);
  EXPECT_EQ(monitor.registered_calls, 1);
}

// --- elastic resharding durability (docs/SHARDING.md crash matrix) ---------

// A committed vnode handoff must survive a power cut: both shards cold-
// restart onto the bumped map epoch, the moved membership and subscription
// live on the new owner, and delivery resumes exactly-once.
TEST(PersistTest, ResharpedTopologySurvivesColdRestart) {
  DurableFixture f(0, /*shard_count=*/2);
  PulseCE pulse(f.sci.network(), guid_owned_by(f.sci, f.level_b, 0), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.level_b).is_ok());
  PulseMonitor monitor(f.sci.network(), guid_owned_by(f.sci, f.level_b, 1),
                       "monitor", entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.level_b).is_ok());
  ASSERT_TRUE(monitor
                  .submit_query("sub",
                                query::Builder("sub", monitor.id())
                                    .what_named(pulse.id())
                                    .mode(query::QueryMode::kEventSubscription)
                                    .to_xml())
                  .is_ok());
  f.sci.run_for(Duration::seconds(1));

  const unsigned vnode = f.level_b->shard_map().vnode_of(pulse.id());
  ASSERT_TRUE(f.level_b->begin_handoff(vnode, 1));
  f.sci.run_for(Duration::seconds(2));
  ASSERT_EQ(f.level_b->map_epoch(), 1u);
  ASSERT_EQ(f.level_b->shard_map().owner_of_vnode(vnode), 1u);

  for (int i = 0; i < 5; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(1));  // acked + group-committed
  ASSERT_EQ(monitor.unique_events, 5);

  ASSERT_TRUE(f.sci.shutdown_range("levelB").is_ok());
  auto revived = f.sci.recover_range("levelB");
  ASSERT_TRUE(bool(revived));
  f.sci.run_for(Duration::seconds(1));

  // The recovered topology routes at the committed epoch on every shard.
  range::ContextServer* lead = f.sci.find_range("levelB");
  range::ContextServer* sibling = f.sci.find_range("levelB#1");
  ASSERT_NE(lead, nullptr);
  ASSERT_NE(sibling, nullptr);
  EXPECT_EQ(lead->map_epoch(), 1u);
  EXPECT_EQ(sibling->map_epoch(), 1u);
  EXPECT_EQ(lead->shard_map().owner_of_vnode(vnode), 1u);
  EXPECT_EQ(sibling->shard_map().owner_of_vnode(vnode), 1u);
  EXPECT_EQ(lead->registrar().find(pulse.id()), nullptr);
  EXPECT_NE(sibling->registrar().find(pulse.id()), nullptr);

  for (int i = 5; i < 10; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(2));
  EXPECT_EQ(monitor.unique_events, 10);
  EXPECT_EQ(monitor.duplicate_events, 0);
  EXPECT_EQ(monitor.registered_calls, 1);
}

// Crash matrix, post-commit-point row: the source machine dies right after
// the commit record reaches its WAL but before any sibling heard. A cold
// restart must COMPLETE the move from recorded state — the commit record
// is the point of no return.
TEST(PersistTest, ColdRestartCompletesCommittedHandoff) {
  DurableFixture f(0, /*shard_count=*/2);
  PulseCE pulse(f.sci.network(), guid_owned_by(f.sci, f.level_b, 0), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.level_b).is_ok());
  PulseMonitor monitor(f.sci.network(), guid_owned_by(f.sci, f.level_b, 1),
                       "monitor", entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.level_b).is_ok());
  ASSERT_TRUE(monitor
                  .submit_query("sub",
                                query::Builder("sub", monitor.id())
                                    .what_named(pulse.id())
                                    .mode(query::QueryMode::kEventSubscription)
                                    .to_xml())
                  .is_ok());
  f.sci.run_for(Duration::seconds(1));

  const unsigned vnode = f.level_b->shard_map().vnode_of(pulse.id());
  const Guid crash_id = f.level_b->id();
  const Guid crash_node = f.level_b->server_node();
  f.level_b->set_handoff_probe([&](const char* step) {
    if (std::string(step) == "broadcast") {
      (void)f.sci.network().set_crashed(crash_id, true);
      (void)f.sci.network().set_crashed(crash_node, true);
    }
  });
  ASSERT_TRUE(f.level_b->begin_handoff(vnode, 1));
  // The network died at the broadcast step, but the machine's write-behind
  // store keeps group-committing: the logged commit record reaches the WAL.
  f.sci.run_for(Duration::millis(300));
  EXPECT_EQ(f.sci.find_range("levelB")->map_epoch(), 0u);  // nobody heard

  ASSERT_TRUE(f.sci.shutdown_range("levelB").is_ok());
  (void)f.sci.network().set_crashed(crash_id, false);
  (void)f.sci.network().set_crashed(crash_node, false);
  auto revived = f.sci.recover_range("levelB");
  ASSERT_TRUE(bool(revived));
  f.sci.run_for(Duration::seconds(2));

  // resolve_recovered_handoff finished the move from the WAL's commit
  // record; the target (re)heard the commit and installed its staged slice.
  range::ContextServer* lead = f.sci.find_range("levelB");
  range::ContextServer* sibling = f.sci.find_range("levelB#1");
  ASSERT_NE(lead, nullptr);
  ASSERT_NE(sibling, nullptr);
  EXPECT_EQ(lead->map_epoch(), 1u);
  EXPECT_EQ(sibling->map_epoch(), 1u);
  EXPECT_EQ(lead->shard_map().owner_of_vnode(vnode), 1u);
  EXPECT_EQ(sibling->shard_map().owner_of_vnode(vnode), 1u);
  EXPECT_NE(sibling->registrar().find(pulse.id()), nullptr);

  for (int i = 0; i < 8; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(2));
  EXPECT_EQ(monitor.unique_events, 8);
  EXPECT_EQ(monitor.duplicate_events, 0);
}

// Crash matrix, pre-commit row: the source dies while shipping state. No
// commit record exists, so the cold restart must ABORT: ownership rolls
// back to the pre-handoff map and the vnode keeps serving from the source.
TEST(PersistTest, ColdRestartAbortsUncommittedHandoff) {
  DurableFixture f(0, /*shard_count=*/2);
  PulseCE pulse(f.sci.network(), guid_owned_by(f.sci, f.level_b, 0), "pulse",
                entity::EntityKind::kDevice);
  ASSERT_TRUE(f.sci.enroll(pulse, *f.level_b).is_ok());
  PulseMonitor monitor(f.sci.network(), guid_owned_by(f.sci, f.level_b, 0),
                       "monitor", entity::EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(monitor, *f.level_b).is_ok());
  ASSERT_TRUE(monitor
                  .submit_query("sub",
                                query::Builder("sub", monitor.id())
                                    .what_named(pulse.id())
                                    .mode(query::QueryMode::kEventSubscription)
                                    .to_xml())
                  .is_ok());
  f.sci.run_for(Duration::seconds(1));

  const unsigned vnode = f.level_b->shard_map().vnode_of(pulse.id());
  const Guid crash_id = f.level_b->id();
  const Guid crash_node = f.level_b->server_node();
  f.level_b->set_handoff_probe([&](const char* step) {
    if (std::string(step) == "ship") {
      (void)f.sci.network().set_crashed(crash_id, true);
      (void)f.sci.network().set_crashed(crash_node, true);
    }
  });
  ASSERT_TRUE(f.level_b->begin_handoff(vnode, 1));
  f.sci.run_for(Duration::millis(300));  // intent record group-commits
  // The node's slot outlives this incarnation: count the restart's aborts.
  const std::uint64_t aborts_before_restart =
      node_count(*f.level_b, "reshard.aborts");

  ASSERT_TRUE(f.sci.shutdown_range("levelB").is_ok());
  (void)f.sci.network().set_crashed(crash_id, false);
  (void)f.sci.network().set_crashed(crash_node, false);
  auto revived = f.sci.recover_range("levelB");
  ASSERT_TRUE(bool(revived));
  f.sci.run_for(Duration::seconds(2));

  range::ContextServer* lead = f.sci.find_range("levelB");
  range::ContextServer* sibling = f.sci.find_range("levelB#1");
  ASSERT_NE(lead, nullptr);
  ASSERT_NE(sibling, nullptr);
  EXPECT_FALSE(lead->handoff_active());
  EXPECT_EQ(lead->map_epoch(), 0u);
  EXPECT_EQ(sibling->map_epoch(), 0u);
  EXPECT_EQ(lead->shard_map().owner_of_vnode(vnode), 0u);
  EXPECT_NE(lead->registrar().find(pulse.id()), nullptr);
  EXPECT_GE(node_count(*lead, "reshard.aborts") - aborts_before_restart, 1u);

  for (int i = 0; i < 8; ++i) {
    pulse.publish("pulse", Value(static_cast<std::int64_t>(i)));
    f.sci.run_for(Duration::millis(100));
  }
  f.sci.run_for(Duration::seconds(2));
  EXPECT_EQ(monitor.unique_events, 8);
  EXPECT_EQ(monitor.duplicate_events, 0);
}

// Facade DLQ replay must preserve the original park order ACROSS shard
// queues (docs/RELIABLE.md): draining queue-by-queue would reorder two
// causally ordered frames that parked on different shards.
TEST(PersistTest, DeadLetterReplayPreservesCrossShardParkOrder) {
  Sci sci{42};
  mobility::Building building{{.floors = 2, .rooms_per_floor = 4}};
  sci.set_location_directory(&building.directory());
  RangeOptions options;
  options.sharding.shard_count = 4;
  range::ContextServer* lead =
      sci.create_range("mall", building.floor_path(0), options).value();
  ASSERT_NE(lead, nullptr);
  sci.run_for(Duration::millis(300));

  const auto shards = sci.shards("mall");
  ASSERT_EQ(shards.size(), 4u);

  // Sends to a never-attached node park immediately, stamping parked_at
  // with the current sim time — so this interleaving is the ground truth.
  Rng rng{99};
  const Guid ghost = Guid::random(rng);
  const std::vector<unsigned> park_order = {2, 0, 3, 1};
  for (unsigned shard : park_order) {
    shards[shard]->channel().send(ghost, 0x42, frame({int(shard)}));
    sci.run_for(Duration::millis(5));
  }
  ASSERT_EQ(sci.dead_letters("mall").value()->size() +
                shards[1]->channel().dead_letters().size() +
                shards[2]->channel().dead_letters().size() +
                shards[3]->channel().dead_letters().size(),
            4u);

  // Replaying to the still-unknown ghost gives up synchronously, so the
  // give-up hooks observe the facade's replay order directly.
  std::vector<unsigned> replayed;
  for (unsigned i = 0; i < shards.size(); ++i) {
    shards[i]->channel().set_give_up_handler(
        [&replayed, i](const net::Message&, unsigned) {
          replayed.push_back(i);
        });
  }
  EXPECT_EQ(sci.replay_dead_letters("mall").value(), 4u);
  EXPECT_EQ(replayed, park_order);
}

}  // namespace
}  // namespace sci
