// Tests for sci::overlay — SCINET prefix routing and the hierarchical
// baseline, including the property suite: for random memberships and seeds,
// every node can route to every other node's exact id.
#include <gtest/gtest.h>

#include <map>
#include <unordered_map>

#include "overlay/hierarchical.h"
#include "overlay/scinet.h"

#include "metric_counts.h"

namespace sci::overlay {
namespace {

struct Deployment {
  explicit Deployment(std::uint64_t seed)
      : simulator(seed), network(simulator), scinet(network) {
    net::LinkModel model;
    model.base_latency = Duration::micros(200);
    model.jitter = Duration::micros(50);
    network.set_link_model(model);
  }

  sim::Simulator simulator;
  net::Network network;
  Scinet scinet;

  void grow(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) scinet.add_node();
    scinet.settle(Duration::seconds(3));
  }
};

TEST(ScinetTest, SingleNodeDeliversToItself) {
  Deployment d(1);
  d.grow(1);
  ScinetNode& node = *d.scinet.nodes().front();
  int delivered = 0;
  node.set_deliver_handler([&](const RoutedMessage& m) {
    ++delivered;
    EXPECT_EQ(m.hops, 0u);
  });
  EXPECT_TRUE(node.route(node.id(), 1, {}).is_ok());
  EXPECT_TRUE(node.route(Guid(123, 456), 1, {}).is_ok());  // any key → self
  // Bounded run: the node's heartbeat timer keeps the queue non-empty
  // forever, so run_all() would never return.
  d.scinet.settle();
  EXPECT_EQ(delivered, 2);
}

TEST(ScinetTest, RouteBeforeJoinFails) {
  Deployment d(1);
  ScinetNode node(d.network, Guid::random(d.simulator.rng()));
  EXPECT_EQ(node.route(Guid(1, 2), 1, {}).error().code(),
            ErrorCode::kUnavailable);
}

TEST(ScinetTest, PayloadSurvivesRouting) {
  Deployment d(2);
  d.grow(8);
  auto& nodes = d.scinet.nodes();
  ScinetNode& target = *nodes.back();
  std::vector<std::byte> seen;
  std::uint32_t seen_type = 0;
  target.set_deliver_handler([&](const RoutedMessage& m) {
    seen = m.payload.to_vector();
    seen_type = m.app_type;
  });
  std::vector<std::byte> payload{std::byte{0xDE}, std::byte{0xAD},
                                 std::byte{0xBE}, std::byte{0xEF}};
  EXPECT_TRUE(
      nodes.front()
          ->route(target.id(), 0x77, serde::BufferRef::copy_of(payload))
          .is_ok());
  d.scinet.settle();
  EXPECT_EQ(seen, payload);
  EXPECT_EQ(seen_type, 0x77u);
}

// Property: all-pairs exact-id routing delivers at the named node.
class ScinetRoutingProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(ScinetRoutingProperty, AllPairsExactIdDelivery) {
  const auto [count, seed] = GetParam();
  Deployment d(seed);
  d.grow(count);

  std::unordered_map<Guid, int> delivered_at;
  for (const auto& node : d.scinet.nodes()) {
    ScinetNode* raw = node.get();
    raw->set_deliver_handler([&, raw](const RoutedMessage& m) {
      EXPECT_EQ(m.key, raw->id()) << "delivered at the wrong node";
      ++delivered_at[raw->id()];
    });
  }
  std::size_t sent = 0;
  for (const auto& from : d.scinet.nodes()) {
    for (const auto& to : d.scinet.nodes()) {
      ASSERT_TRUE(from->route(to->id(), 1, {}).is_ok());
      ++sent;
    }
  }
  d.scinet.settle(Duration::seconds(10));
  std::size_t received = 0;
  for (const auto& [id, n] : delivered_at) {
    received += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(received, sent);
  for (const auto& node : d.scinet.nodes()) {
    EXPECT_EQ(delivered_at[node->id()], static_cast<int>(count))
        << "node " << node->id().short_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ScinetRoutingProperty,
    ::testing::Values(std::tuple<std::size_t, std::uint64_t>{2, 1},
                      std::tuple<std::size_t, std::uint64_t>{5, 2},
                      std::tuple<std::size_t, std::uint64_t>{16, 3},
                      std::tuple<std::size_t, std::uint64_t>{16, 4},
                      std::tuple<std::size_t, std::uint64_t>{40, 5},
                      std::tuple<std::size_t, std::uint64_t>{64, 6}));

TEST(ScinetTest, HopCountGrowsSublinearly) {
  Deployment d(7);
  d.grow(64);
  std::uint64_t total_hops = 0;
  std::uint64_t deliveries = 0;
  for (const auto& node : d.scinet.nodes()) {
    node->set_deliver_handler([&](const RoutedMessage& m) {
      total_hops += m.hops;
      ++deliveries;
    });
  }
  Rng rng(99);
  const auto& nodes = d.scinet.nodes();
  for (int i = 0; i < 500; ++i) {
    const auto& from = nodes[rng.next_below(nodes.size())];
    const auto& to = nodes[rng.next_below(nodes.size())];
    ASSERT_TRUE(from->route(to->id(), 1, {}).is_ok());
  }
  d.scinet.settle(Duration::seconds(10));
  ASSERT_EQ(deliveries, 500u);
  const double mean_hops =
      static_cast<double>(total_hops) / static_cast<double>(deliveries);
  // log16(64) = 1.5; allow generous slack over the ideal but far below N.
  EXPECT_LT(mean_hops, 8.0);
}

TEST(ScinetTest, CleanLeaveRepairsRouting) {
  Deployment d(8);
  d.grow(12);
  const Guid victim = d.scinet.nodes()[5]->id();
  ASSERT_TRUE(d.scinet.remove_node(victim, /*crash=*/false).is_ok());
  d.scinet.settle(Duration::seconds(5));

  int delivered = 0;
  for (const auto& node : d.scinet.nodes()) {
    node->set_deliver_handler([&](const RoutedMessage&) { ++delivered; });
  }
  for (const auto& from : d.scinet.nodes()) {
    for (const auto& to : d.scinet.nodes()) {
      ASSERT_TRUE(from->route(to->id(), 1, {}).is_ok());
    }
  }
  d.scinet.settle(Duration::seconds(10));
  EXPECT_EQ(delivered, 11 * 11);
}

TEST(ScinetTest, CrashIsDetectedByHeartbeatsAndRoutedAround) {
  Deployment d(9);
  d.grow(12);
  const Guid victim = d.scinet.nodes()[3]->id();
  ASSERT_TRUE(d.scinet.remove_node(victim, /*crash=*/true).is_ok());
  // Allow several heartbeat rounds for detection + repair (detection alone
  // takes kHeartbeatMissLimit + 1 periods).
  d.scinet.settle(Duration::seconds(25));

  for (const auto& node : d.scinet.nodes()) {
    EXPECT_FALSE(node->knows(victim))
        << node->id().short_string() << " still references the crashed node";
  }
  int delivered = 0;
  for (const auto& node : d.scinet.nodes()) {
    node->set_deliver_handler([&](const RoutedMessage&) { ++delivered; });
  }
  for (const auto& from : d.scinet.nodes()) {
    for (const auto& to : d.scinet.nodes()) {
      ASSERT_TRUE(from->route(to->id(), 1, {}).is_ok());
    }
  }
  d.scinet.settle(Duration::seconds(10));
  EXPECT_EQ(delivered, 11 * 11);
}

// A guid-list count near 2^60 used to wrap the frame-size guard (count * 16
// overflowed to 0), after which reserve() threw and aborted the process. A
// malformed kLeave or kLeafSetReply must be dropped and the node route on.
TEST(ScinetTest, HostileGuidListCountIsDropped) {
  Deployment d(5);
  d.grow(4);
  ScinetNode& target = *d.scinet.nodes().front();
  const Guid rogue(0xBAD, 0xBAD);
  ASSERT_TRUE(d.network.attach(rogue, [](const net::Message&) {}).is_ok());
  serde::Writer w;
  w.varint(std::uint64_t{1} << 60);
  const serde::BufferRef hostile = w.take_ref();
  for (const std::uint32_t type :
       {ScinetNode::kLeave, ScinetNode::kLeafSetReply}) {
    net::Message message;
    message.type = type;
    message.from = rogue;
    message.to = target.id();
    message.payload = hostile;
    ASSERT_TRUE(d.network.send(std::move(message)).is_ok());
  }
  d.scinet.settle();

  int delivered = 0;
  for (const auto& node : d.scinet.nodes()) {
    node->set_deliver_handler([&](const RoutedMessage&) { ++delivered; });
  }
  for (const auto& to : d.scinet.nodes()) {
    ASSERT_TRUE(target.route(to->id(), 1, {}).is_ok());
  }
  d.scinet.settle();
  EXPECT_EQ(delivered, 4);
}

TEST(ScinetTest, PartitionHealReconverges) {
  Deployment d(12);
  d.grow(10);
  const Guid victim = d.scinet.nodes()[4]->id();

  d.network.set_partition_group(victim, 1);
  d.scinet.settle(Duration::seconds(12));
  // Heartbeat misses evicted the partitioned node from the connected side.
  for (const auto& node : d.scinet.nodes()) {
    if (node->id() == victim) continue;
    EXPECT_FALSE(node->knows(victim))
        << node->id().short_string() << " still references the partitioned node";
  }

  d.network.heal_partitions();
  // Forgotten-peer probing reinstalls the victim (and vice versa) without
  // any explicit re-join.
  d.scinet.settle(Duration::seconds(25));

  std::unordered_map<Guid, int> delivered_at;
  for (const auto& node : d.scinet.nodes()) {
    ScinetNode* raw = node.get();
    raw->set_deliver_handler(
        [&, raw](const RoutedMessage&) { ++delivered_at[raw->id()]; });
  }
  for (const auto& from : d.scinet.nodes()) {
    for (const auto& to : d.scinet.nodes()) {
      ASSERT_TRUE(from->route(to->id(), 1, {}).is_ok());
    }
  }
  d.scinet.settle(Duration::seconds(10));
  for (const auto& node : d.scinet.nodes()) {
    EXPECT_EQ(delivered_at[node->id()], 10)
        << "node " << node->id().short_string();
  }
}

TEST(ScinetTest, RouteAckedSurvivesLossExactlyOnce) {
  Deployment d(13);
  d.grow(8);
  net::LinkModel lossy;
  lossy.base_latency = Duration::micros(200);
  lossy.jitter = Duration::micros(50);
  lossy.drop_probability = 0.3;
  d.network.set_link_model(lossy);

  auto& nodes = d.scinet.nodes();
  ScinetNode& source = *nodes.front();
  ScinetNode& target = *nodes.back();
  int delivered = 0;
  target.set_deliver_handler([&](const RoutedMessage&) { ++delivered; });
  int receipts = 0;
  for (int i = 0; i < 5; ++i) {
    auto ticket = source.route_acked(
        target.id(), 0x55, {},
        [&](const RouteTicket&, bool ok, std::uint32_t) {
          EXPECT_TRUE(ok);
          ++receipts;
        });
    ASSERT_TRUE(bool(ticket));
  }
  d.scinet.settle(Duration::seconds(30));

  // Hop retransmission plus end-to-end re-origination got everything
  // through; receiver-side ticket dedup kept each payload exactly-once.
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(receipts, 5);
  EXPECT_EQ(source.pending_receipts(), 0u);
  EXPECT_EQ(registry_count(d.simulator.metrics(), "scinet.e2e.dead_letters"),
            0u);
}

TEST(ScinetTest, RouteAckedDeliversDespiteMidFlightCrash) {
  Deployment d(14);
  d.grow(12);
  auto& nodes = d.scinet.nodes();
  const Guid victim = nodes[6]->id();
  ScinetNode& source = *nodes.front();
  ASSERT_NE(source.id(), victim);

  ASSERT_TRUE(d.scinet.remove_node(victim, /*crash=*/true).is_ok());
  // Route to the crashed node's id before anyone has detected the crash:
  // hop give-ups and receipt-driven re-origination must steer the message
  // to the numerically-closest survivor.
  bool acked = false;
  auto ticket = source.route_acked(
      victim, 1, {},
      [&](const RouteTicket&, bool ok, std::uint32_t) {
        acked = ok;
      });
  ASSERT_TRUE(bool(ticket));
  d.scinet.settle(Duration::seconds(40));

  EXPECT_TRUE(acked);
  EXPECT_EQ(source.pending_receipts(), 0u);
  EXPECT_EQ(registry_count(d.simulator.metrics(), "scinet.e2e.dead_letters"),
            0u);
}

TEST(ScinetTest, KeyRoutingDeliversAtNumericallyClosestNode) {
  Deployment d(10);
  d.grow(16);
  // Pick an arbitrary key; find the globally closest node.
  const Guid key(0x1234567890ABCDEFULL, 0xFEDCBA0987654321ULL);
  const ScinetNode* expected = nullptr;
  std::pair<std::uint64_t, std::uint64_t> best{~0ULL, ~0ULL};
  for (const auto& node : d.scinet.nodes()) {
    const auto dist = node->id().ring_distance(key);
    if (expected == nullptr || dist < best) {
      best = dist;
      expected = node.get();
    }
  }
  Guid delivered_at;
  for (const auto& node : d.scinet.nodes()) {
    ScinetNode* raw = node.get();
    raw->set_deliver_handler(
        [&, raw](const RoutedMessage&) { delivered_at = raw->id(); });
  }
  ASSERT_TRUE(d.scinet.nodes().front()->route(key, 1, {}).is_ok());
  d.scinet.settle();
  EXPECT_EQ(delivered_at, expected->id());
}

TEST(ScinetTest, StatsCountRoutingActivity) {
  Deployment d(11);
  d.grow(8);
  auto& from = *d.scinet.nodes().front();
  auto& to = *d.scinet.nodes().back();
  int delivered_at_to = 0;
  to.set_deliver_handler([&](const RoutedMessage&) { ++delivered_at_to; });
  const obs::MetricsRegistry& metrics = d.simulator.metrics();
  const std::uint64_t originated =
      registry_count(metrics, "scinet.routed.originated");
  const std::uint64_t delivered =
      registry_count(metrics, "scinet.routed.delivered");
  ASSERT_TRUE(from.route(to.id(), 1, {}).is_ok());
  d.scinet.settle();
  // The one route() is the only routed traffic, and it lands at `to`.
  EXPECT_EQ(registry_count(metrics, "scinet.routed.originated") - originated,
            1u);
  EXPECT_EQ(registry_count(metrics, "scinet.routed.delivered") - delivered,
            1u);
  EXPECT_EQ(delivered_at_to, 1);
}

TEST(ScinetTest, JoinRetransmitsThroughALossyFabric) {
  Deployment d(33);
  d.grow(6);
  // 50% loss: a 4-way join handshake rarely survives one attempt.
  net::LinkModel lossy;
  lossy.base_latency = Duration::micros(200);
  lossy.jitter = Duration::micros(50);
  lossy.drop_probability = 0.5;
  d.network.set_link_model(lossy);

  overlay::ScinetNode late(d.network, Guid::random(d.simulator.rng()), {});
  ASSERT_TRUE(late.join(d.scinet.nodes().front()->id()).is_ok());
  d.simulator.run_until(d.simulator.now() + Duration::seconds(15));
  EXPECT_TRUE(late.is_ready());
}

// ------------------------------------------------------------ hierarchical

TEST(HierTest, AllPairsDelivery) {
  sim::Simulator simulator(21);
  net::Network network(simulator);
  Rng rng(5);
  HierTree tree(network, 15, 2, rng);

  std::map<Guid, int> delivered;
  for (std::size_t i = 0; i < tree.size(); ++i) {
    HierNode* node = &tree.node(i);
    node->set_deliver_handler([&, node](const HierMessage& m) {
      EXPECT_EQ(m.destination, node->id());
      ++delivered[node->id()];
    });
  }
  for (std::size_t i = 0; i < tree.size(); ++i) {
    for (std::size_t j = 0; j < tree.size(); ++j) {
      ASSERT_TRUE(tree.node(i).send(tree.node(j).id(), 1, {}).is_ok());
    }
  }
  simulator.run_all();
  for (std::size_t i = 0; i < tree.size(); ++i) {
    EXPECT_EQ(delivered[tree.node(i).id()], 15);
  }
}

TEST(HierTest, RootCarriesCrossSubtreeTraffic) {
  sim::Simulator simulator(22);
  net::Network network(simulator);
  Rng rng(6);
  HierTree tree(network, 31, 2, rng);  // 5 levels
  for (std::size_t i = 0; i < tree.size(); ++i) {
    tree.node(i).set_deliver_handler([](const HierMessage&) {});
  }
  // Leaves of the left subtree message leaves of the right subtree: every
  // message must transit the root.
  const std::size_t kLeafStart = 15;
  int messages = 0;
  for (std::size_t i = kLeafStart; i < 23; ++i) {
    for (std::size_t j = 23; j < 31; ++j) {
      ASSERT_TRUE(tree.node(i).send(tree.node(j).id(), 1, {}).is_ok());
      ++messages;
    }
  }
  simulator.run_all();
  EXPECT_EQ(tree.root().stats().forwarded, static_cast<std::uint64_t>(messages));
}

TEST(HierTest, HopsMatchTreeDepth) {
  sim::Simulator simulator(23);
  net::Network network(simulator);
  Rng rng(8);
  HierTree tree(network, 7, 2, rng);  // depth 2
  std::uint32_t hops = 0;
  tree.node(6).set_deliver_handler(
      [&](const HierMessage& m) { hops = m.hops; });
  // node 3 (leaf of left subtree) → node 6 (leaf of right subtree):
  // 3 → 1 → 0 → 2 → 6 = 4 network hops.
  ASSERT_TRUE(tree.node(3).send(tree.node(6).id(), 1, {}).is_ok());
  simulator.run_all();
  EXPECT_EQ(hops, 4u);
}

}  // namespace
}  // namespace sci::overlay
