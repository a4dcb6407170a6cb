// Unit tests for sci::event — typed events, filters, subscription table.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "event/event.h"
#include "event/subscription.h"

namespace sci::event {
namespace {

Event make_event(std::string type, Guid source, Value payload,
                 std::uint64_t seq = 1) {
  Event e;
  e.sequence = seq;
  e.type = std::move(type);
  e.source = source;
  e.timestamp = SimTime::from_micros(1000);
  e.payload = std::move(payload);
  return e;
}

TEST(EventTest, EncodeDecodeRoundTrip) {
  Rng rng(1);
  const Event original = make_event(
      "location.update", Guid::random(rng),
      vmap({{"entity", Guid::random(rng)}, {"place", 7}, {"x", 1.5}}), 42);
  serde::Writer w;
  original.encode(w);
  serde::Reader r(w.view());
  const auto decoded = Event::decode(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->sequence, 42u);
  EXPECT_EQ(decoded->type, "location.update");
  EXPECT_EQ(decoded->source, original.source);
  EXPECT_EQ(decoded->timestamp, original.timestamp);
  EXPECT_EQ(decoded->payload, original.payload);
}

TEST(FieldConstraintTest, AllOperators) {
  const Value payload = vmap({{"n", 5}, {"s", "abc"}, {"d", 2.5}});
  const auto matches = [&](std::string key, FilterOp op, Value operand) {
    return FieldConstraint{std::move(key), op, std::move(operand)}.matches(
        payload);
  };
  EXPECT_TRUE(matches("n", FilterOp::kEquals, 5));
  EXPECT_FALSE(matches("n", FilterOp::kEquals, 6));
  EXPECT_TRUE(matches("n", FilterOp::kNotEquals, 6));
  EXPECT_TRUE(matches("n", FilterOp::kLess, 6));
  EXPECT_FALSE(matches("n", FilterOp::kLess, 5));
  EXPECT_TRUE(matches("n", FilterOp::kLessOrEqual, 5));
  EXPECT_TRUE(matches("n", FilterOp::kGreater, 4));
  EXPECT_TRUE(matches("n", FilterOp::kGreaterOrEqual, 5));
  EXPECT_TRUE(matches("s", FilterOp::kExists, {}));
  EXPECT_FALSE(matches("zz", FilterOp::kExists, {}));
  // Mixed numeric comparison: int field vs double operand.
  EXPECT_TRUE(matches("n", FilterOp::kLess, 5.5));
  EXPECT_TRUE(matches("d", FilterOp::kGreater, 2));
  // Non-numeric fields never satisfy ordering comparisons.
  EXPECT_FALSE(matches("s", FilterOp::kLess, 10));
  // Missing field fails ordering comparisons.
  EXPECT_FALSE(matches("zz", FilterOp::kLess, 10));
}

TEST(EventFilterTest, SourceAndConjunction) {
  Rng rng(2);
  const Guid source = Guid::random(rng);
  const Guid other = Guid::random(rng);
  EventFilter filter;
  filter.source = source;
  filter.fields.push_back({"n", FilterOp::kGreater, 3});
  filter.fields.push_back({"n", FilterOp::kLess, 10});

  EXPECT_TRUE(filter.matches(make_event("t", source, vmap({{"n", 5}}))));
  EXPECT_FALSE(filter.matches(make_event("t", other, vmap({{"n", 5}}))));
  EXPECT_FALSE(filter.matches(make_event("t", source, vmap({{"n", 11}}))));
  EXPECT_TRUE(EventFilter{}.matches(make_event("t", other, Value())));
}

TEST(EventFilterTest, EncodeDecodeRoundTrip) {
  Rng rng(3);
  EventFilter filter;
  filter.source = Guid::random(rng);
  filter.fields.push_back({"config", FilterOp::kEquals, 9});
  serde::Writer w;
  filter.encode(w);
  serde::Reader r(w.view());
  const auto decoded = EventFilter::decode(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->source, filter.source);
  ASSERT_EQ(decoded->fields.size(), 1u);
  EXPECT_EQ(decoded->fields[0].key, "config");
  EXPECT_EQ(decoded->fields[0].operand, Value(9));
}

// -------------------------------------------------------- SubscriptionTable

struct TableFixture {
  Rng rng{5};
  SubscriptionTable table;
  Guid app = Guid::random(rng);
  Guid sensor1 = Guid::random(rng);
  Guid sensor2 = Guid::random(rng);

  std::vector<MatchRef> match(const Event& event) {
    std::vector<MatchRef> out;
    table.collect_matches_into(event, out);
    return out;
  }
};

TEST(SubscriptionTableTest, TypeAndProducerMatching) {
  TableFixture f;
  f.table.add(f.app, f.sensor1, "temp", {});
  f.table.add(f.app, std::nullopt, "temp", {});
  f.table.add(f.app, std::nullopt, "humidity", {});

  auto matched = f.match(make_event("temp", f.sensor1, Value()));
  EXPECT_EQ(matched.size(), 2u);  // specific + wildcard

  matched = f.match(make_event("temp", f.sensor2, Value()));
  EXPECT_EQ(matched.size(), 1u);  // wildcard only

  matched = f.match(make_event("other", f.sensor1, Value()));
  EXPECT_TRUE(matched.empty());
}

TEST(SubscriptionTableTest, FiltersGateDelivery) {
  TableFixture f;
  EventFilter filter;
  filter.fields.push_back({"v", FilterOp::kGreater, 10});
  f.table.add(f.app, std::nullopt, "temp", filter);
  EXPECT_TRUE(
      f.match(make_event("temp", f.sensor1, vmap({{"v", 5}}))).empty());
  EXPECT_EQ(f.match(make_event("temp", f.sensor1, vmap({{"v", 15}}))).size(),
            1u);
}

TEST(SubscriptionTableTest, OneTimeAutoCancels) {
  TableFixture f;
  f.table.add(f.app, std::nullopt, "temp", {}, /*one_time=*/true);
  EXPECT_EQ(f.table.size(), 1u);
  auto matched = f.match(make_event("temp", f.sensor1, Value()));
  ASSERT_EQ(matched.size(), 1u);
  EXPECT_TRUE(matched[0].one_time);
  EXPECT_EQ(f.table.size(), 0u);
  EXPECT_TRUE(f.match(make_event("temp", f.sensor1, Value())).empty());
}

TEST(SubscriptionTableTest, RemoveById) {
  TableFixture f;
  const SubscriptionId id = f.table.add(f.app, std::nullopt, "temp", {});
  EXPECT_TRUE(f.table.remove(id).is_ok());
  EXPECT_FALSE(f.table.remove(id).is_ok());
  EXPECT_EQ(f.table.size(), 0u);
}

TEST(SubscriptionTableTest, RemoveSubscriberAndProducer) {
  TableFixture f;
  Guid app2 = Guid::random(f.rng);
  f.table.add(f.app, f.sensor1, "temp", {});
  f.table.add(f.app, std::nullopt, "temp", {});
  f.table.add(app2, f.sensor1, "temp", {});

  EXPECT_EQ(f.table.remove_subscriber(f.app), 2u);
  EXPECT_EQ(f.table.size(), 1u);
  // remove_producer only drops subscriptions naming the producer.
  f.table.add(app2, std::nullopt, "temp", {});
  EXPECT_EQ(f.table.remove_producer(f.sensor1), 1u);
  EXPECT_EQ(f.table.size(), 1u);
}

TEST(SubscriptionTableTest, RemoveOwnerTagTearsDownConfiguration) {
  TableFixture f;
  f.table.add(f.app, f.sensor1, "a", {}, false, /*owner_tag=*/7);
  f.table.add(f.app, f.sensor2, "b", {}, false, /*owner_tag=*/7);
  f.table.add(f.app, f.sensor2, "c", {}, false, /*owner_tag=*/8);
  EXPECT_EQ(f.table.remove_owner(7), 2u);
  EXPECT_EQ(f.table.size(), 1u);
  EXPECT_EQ(f.table.remove_owner(0), 0u);  // tag 0 is "untagged"
}

TEST(SubscriptionTableTest, DeliveryCountersAccumulate) {
  TableFixture f;
  const SubscriptionId id = f.table.add(f.app, std::nullopt, "temp", {});
  for (int i = 0; i < 5; ++i) {
    f.match(make_event("temp", f.sensor1, Value()));
  }
  const Subscription* subscription = f.table.find(id);
  ASSERT_NE(subscription, nullptr);
  EXPECT_EQ(subscription->delivered, 5u);
  EXPECT_EQ(f.table.total_delivered(), 5u);
}

TEST(SubscriptionTableTest, IdsForSubscriberSorted) {
  TableFixture f;
  const auto id1 = f.table.add(f.app, std::nullopt, "a", {});
  const auto id2 = f.table.add(f.app, std::nullopt, "b", {});
  f.table.add(Guid::random(f.rng), std::nullopt, "c", {});
  EXPECT_EQ(f.table.ids_for_subscriber(f.app),
            (std::vector<SubscriptionId>{id1, id2}));
}

}  // namespace
}  // namespace sci::event
