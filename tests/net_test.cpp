// Unit tests for sci::net — the simulated network fabric.
#include <gtest/gtest.h>

#include "net/network.h"

namespace sci::net {
namespace {

struct Fixture {
  sim::Simulator simulator{42};
  Network network{simulator};
  Rng rng{7};

  Guid attach_counter(int* counter, double x = 0.0, double y = 0.0) {
    const Guid id = Guid::random(rng);
    EXPECT_TRUE(network
                    .attach(
                        id, [counter](const Message&) { ++*counter; }, x, y)
                    .is_ok());
    return id;
  }

  Message frame(Guid from, Guid to, std::uint32_t type = 1) {
    Message m;
    m.type = type;
    m.from = from;
    m.to = to;
    return m;
  }
};

TEST(NetworkTest, AttachRejectsDuplicatesAndNil) {
  Fixture f;
  int count = 0;
  const Guid id = f.attach_counter(&count);
  EXPECT_EQ(f.network.attach(id, [](const Message&) {}).error().code(),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(f.network.attach(Guid(), [](const Message&) {}).error().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(
      f.network.attach(Guid::random(f.rng), nullptr).error().code(),
      ErrorCode::kInvalidArgument);
}

TEST(NetworkTest, DeliversAfterModelLatency) {
  Fixture f;
  int received = 0;
  const Guid a = f.attach_counter(&received);
  const Guid b = f.attach_counter(&received);
  LinkModel model;
  model.base_latency = Duration::millis(5);
  model.jitter = Duration::micros(0);
  model.latency_per_unit_distance = 0.0;
  f.network.set_link_model(model);

  EXPECT_TRUE(f.network.send(f.frame(a, b)).is_ok());
  f.simulator.run_until(SimTime::from_micros(4'999));
  EXPECT_EQ(received, 0);  // not yet
  f.simulator.run_all();
  EXPECT_EQ(received, 1);
}

TEST(NetworkTest, DistanceAddsLatency) {
  Fixture f;
  int received = 0;
  const Guid a = f.attach_counter(&received, 0, 0);
  const Guid b = f.attach_counter(&received, 100, 0);
  LinkModel model;
  model.base_latency = Duration::micros(100);
  model.jitter = Duration::micros(0);
  model.latency_per_unit_distance = 10.0;  // 100 units → 1000us extra
  f.network.set_link_model(model);

  EXPECT_TRUE(f.network.send(f.frame(a, b)).is_ok());
  f.simulator.run_until(SimTime::from_micros(1'099));
  EXPECT_EQ(received, 0);
  f.simulator.run_all();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(f.simulator.now().micros(), 1'100);
}

TEST(NetworkTest, SendToUnknownDestinationFails) {
  Fixture f;
  int received = 0;
  const Guid a = f.attach_counter(&received);
  const auto status = f.network.send(f.frame(a, Guid::random(f.rng)));
  EXPECT_EQ(status.error().code(), ErrorCode::kNotFound);
}

TEST(NetworkTest, CrashedNodesDropSilently) {
  Fixture f;
  int received = 0;
  const Guid a = f.attach_counter(&received);
  const Guid b = f.attach_counter(&received);
  ASSERT_TRUE(f.network.set_crashed(b, true).is_ok());
  EXPECT_TRUE(f.network.is_crashed(b));
  EXPECT_TRUE(f.network.send(f.frame(a, b)).is_ok());  // sender can't tell
  f.simulator.run_all();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(f.network.total_dropped(), 1u);

  ASSERT_TRUE(f.network.set_crashed(b, false).is_ok());
  EXPECT_TRUE(f.network.send(f.frame(a, b)).is_ok());
  f.simulator.run_all();
  EXPECT_EQ(received, 1);
}

TEST(NetworkTest, CrashInFlightDropsDelivery) {
  Fixture f;
  int received = 0;
  const Guid a = f.attach_counter(&received);
  const Guid b = f.attach_counter(&received);
  EXPECT_TRUE(f.network.send(f.frame(a, b)).is_ok());
  ASSERT_TRUE(f.network.set_crashed(b, true).is_ok());  // after send
  f.simulator.run_all();
  EXPECT_EQ(received, 0);
}

TEST(NetworkTest, PartitionsBlockCrossGroupTraffic) {
  Fixture f;
  int received = 0;
  const Guid a = f.attach_counter(&received);
  const Guid b = f.attach_counter(&received);
  const Guid c = f.attach_counter(&received);
  f.network.set_partition_group(b, 1);

  EXPECT_TRUE(f.network.send(f.frame(a, b)).is_ok());  // cross-partition
  EXPECT_TRUE(f.network.send(f.frame(a, c)).is_ok());  // same partition
  f.simulator.run_all();
  EXPECT_EQ(received, 1);

  f.network.heal_partitions();
  EXPECT_TRUE(f.network.send(f.frame(a, b)).is_ok());
  f.simulator.run_all();
  EXPECT_EQ(received, 2);
}

TEST(NetworkTest, LossyLinkDropsRoughlyTheConfiguredFraction) {
  Fixture f;
  int received = 0;
  const Guid a = f.attach_counter(&received);
  const Guid b = f.attach_counter(&received);
  LinkModel model;
  model.drop_probability = 0.3;
  model.jitter = Duration::micros(0);
  f.network.set_link_model(model);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_TRUE(f.network.send(f.frame(a, b)).is_ok());
  }
  f.simulator.run_all();
  EXPECT_NEAR(received, 1400, 100);
  EXPECT_EQ(f.network.total_sent(), 2000u);
  EXPECT_EQ(f.network.total_delivered() + f.network.total_dropped(), 2000u);
}

TEST(NetworkTest, StatsCountMessagesAndBytes) {
  Fixture f;
  int received = 0;
  const Guid a = f.attach_counter(&received);
  const Guid b = f.attach_counter(&received);
  Message m = f.frame(a, b);
  m.payload = serde::BufferRef::copy_of(std::vector<std::byte>(100));
  const std::size_t size = m.wire_size();
  EXPECT_TRUE(f.network.send(std::move(m)).is_ok());
  f.simulator.run_all();
  EXPECT_EQ(f.network.stats(a).messages_sent, 1u);
  EXPECT_EQ(f.network.stats(a).bytes_sent, size);
  EXPECT_EQ(f.network.stats(b).messages_received, 1u);
  EXPECT_EQ(f.network.stats(b).bytes_received, size);
  f.network.reset_stats();
  EXPECT_EQ(f.network.stats(a).messages_sent, 0u);
}

TEST(NetworkTest, DetachRemovesNode) {
  Fixture f;
  int received = 0;
  const Guid a = f.attach_counter(&received);
  const Guid b = f.attach_counter(&received);
  EXPECT_TRUE(f.network.detach(b).is_ok());
  EXPECT_FALSE(f.network.is_attached(b));
  EXPECT_EQ(f.network.send(f.frame(a, b)).error().code(),
            ErrorCode::kNotFound);
  EXPECT_FALSE(f.network.detach(b).is_ok());
}

TEST(NetworkTest, DetachInFlightDropsDelivery) {
  Fixture f;
  int received = 0;
  const Guid a = f.attach_counter(&received);
  const Guid b = f.attach_counter(&received);
  EXPECT_TRUE(f.network.send(f.frame(a, b)).is_ok());
  EXPECT_TRUE(f.network.detach(b).is_ok());
  f.simulator.run_all();  // must not crash
  EXPECT_EQ(received, 0);
}

TEST(NetworkTest, BroadcastReachesOnlyNodesInRadius) {
  Fixture f;
  int near_count = 0;
  int far_count = 0;
  int self_count = 0;
  const Guid sender = Guid::random(f.rng);
  ASSERT_TRUE(f.network
                  .attach(sender, [&](const Message&) { ++self_count; }, 0, 0)
                  .is_ok());
  const Guid near = Guid::random(f.rng);
  ASSERT_TRUE(f.network
                  .attach(near, [&](const Message&) { ++near_count; }, 3, 4)
                  .is_ok());  // distance 5
  const Guid far = Guid::random(f.rng);
  ASSERT_TRUE(f.network
                  .attach(far, [&](const Message&) { ++far_count; }, 100, 0)
                  .is_ok());

  Message beacon;
  beacon.type = 9;
  beacon.from = sender;
  EXPECT_EQ(f.network.broadcast(std::move(beacon), /*radius=*/10.0), 1u);
  f.simulator.run_all();
  EXPECT_EQ(near_count, 1);
  EXPECT_EQ(far_count, 0);
  EXPECT_EQ(self_count, 0);  // sender excluded
}

TEST(NetworkTest, BroadcastRespectsCrashesAndUnknownSender) {
  Fixture f;
  int received = 0;
  const Guid sender = f.attach_counter(&received);
  const Guid other = f.attach_counter(&received);
  ASSERT_TRUE(f.network.set_crashed(other, true).is_ok());
  Message beacon;
  beacon.type = 9;
  beacon.from = sender;
  // Crashed recipients are dropped at send time and no longer counted in
  // the scheduled total.
  EXPECT_EQ(f.network.broadcast(std::move(beacon), 1e9), 0u);
  f.simulator.run_all();
  EXPECT_EQ(received, 0);

  Message orphan;
  orphan.type = 9;
  orphan.from = Guid::random(f.rng);  // never attached
  EXPECT_EQ(f.network.broadcast(std::move(orphan), 1e9), 0u);
}

TEST(NetworkTest, LiveNodesExcludesCrashed) {
  Fixture f;
  int received = 0;
  const Guid a = f.attach_counter(&received);
  const Guid b = f.attach_counter(&received);
  ASSERT_TRUE(f.network.set_crashed(b, true).is_ok());
  const auto live = f.network.live_nodes();
  EXPECT_EQ(live.size(), 1u);
  EXPECT_EQ(live.front(), a);
  EXPECT_EQ(f.network.node_count(), 2u);
}

}  // namespace
}  // namespace sci::net
