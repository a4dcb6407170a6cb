// Unit tests for sci::reliable — the acked retransmission channel.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "reliable/reliable.h"

namespace sci::reliable {
namespace {

serde::BufferRef bytes(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (int v : values) out.push_back(static_cast<std::byte>(v));
  return serde::BufferRef::copy_of(out);
}

// A network node whose handler funnels everything through a ReliableChannel,
// recording both raw wire frames and unwrapped deliveries.
struct Endpoint {
  Guid id;
  ReliableChannel channel;
  std::vector<net::Message> delivered;
  std::vector<net::Message> raw;

  Endpoint(net::Network& network, Guid guid, ReliableConfig config = {})
      : id(guid), channel(network, guid, config) {
    EXPECT_TRUE(network
                    .attach(id,
                            [this](const net::Message& m) {
                              raw.push_back(m);
                              (void)channel.on_message(
                                  m, [this](const net::Message& inner) {
                                    delivered.push_back(inner);
                                  });
                            })
                    .is_ok());
  }

  [[nodiscard]] std::size_t raw_count(std::uint32_t type) const {
    std::size_t n = 0;
    for (const auto& m : raw)
      if (m.type == type) ++n;
    return n;
  }
};

struct Fixture {
  sim::Simulator simulator{42};
  net::Network network{simulator};
  Rng rng{7};

  void set_loss(double probability) {
    net::LinkModel model = network.link_model();
    model.jitter = Duration::micros(0);
    model.drop_probability = probability;
    network.set_link_model(model);
  }
};

TEST(ReliableTest, CleanLinkDeliversOnceAndSettles) {
  Fixture f;
  Endpoint a(f.network, Guid::random(f.rng));
  Endpoint b(f.network, Guid::random(f.rng));

  const std::uint64_t seq = a.channel.send(b.id, 0x42, bytes({1, 2, 3}));
  EXPECT_EQ(seq, 1u);
  EXPECT_EQ(a.channel.in_flight(), 1u);
  f.simulator.run_all();

  ASSERT_EQ(b.delivered.size(), 1u);
  EXPECT_EQ(b.delivered[0].type, 0x42u);
  EXPECT_EQ(b.delivered[0].from, a.id);
  EXPECT_EQ(b.delivered[0].to, b.id);
  EXPECT_EQ(b.delivered[0].payload, bytes({1, 2, 3}));
  EXPECT_EQ(a.channel.in_flight(), 0u);
  EXPECT_EQ(a.channel.stats().acked, 1u);
  EXPECT_EQ(a.channel.stats().retransmits, 0u);
  EXPECT_EQ(b.channel.stats().delivered, 1u);
  EXPECT_EQ(b.channel.stats().dup_suppressed, 0u);
}

TEST(ReliableTest, RetransmitsThroughLossExactlyOnce) {
  Fixture f;
  f.set_loss(0.25);
  Endpoint a(f.network, Guid::random(f.rng));
  Endpoint b(f.network, Guid::random(f.rng));

  constexpr int kFrames = 12;
  for (int i = 0; i < kFrames; ++i)
    a.channel.send(b.id, 0x42, bytes({i}));
  f.simulator.run_all();

  // Every frame reached the handler exactly once despite the lossy link.
  ASSERT_EQ(b.delivered.size(), static_cast<std::size_t>(kFrames));
  std::vector<bool> seen(kFrames, false);
  for (const auto& m : b.delivered) {
    const int i = static_cast<int>(std::to_integer<int>(m.payload.data()[0]));
    EXPECT_FALSE(seen[static_cast<std::size_t>(i)]);
    seen[static_cast<std::size_t>(i)] = true;
  }
  EXPECT_GT(a.channel.stats().retransmits, 0u);
  EXPECT_EQ(a.channel.stats().dead_letters, 0u);
  EXPECT_EQ(a.channel.in_flight(), 0u);
}

TEST(ReliableTest, DuplicateDataFrameSuppressedAndReAcked) {
  Fixture f;
  Endpoint a(f.network, Guid::random(f.rng));
  Endpoint b(f.network, Guid::random(f.rng));

  a.channel.send(b.id, 0x42, bytes({7}));
  f.simulator.run_all();
  ASSERT_EQ(b.raw_count(kRelData), 1u);

  // Replay the captured envelope — as a retransmission racing the ack would.
  net::Message replay = b.raw.front();
  EXPECT_TRUE(f.network.send(std::move(replay)).is_ok());
  f.simulator.run_all();

  EXPECT_EQ(b.delivered.size(), 1u);  // still exactly once
  EXPECT_EQ(b.channel.stats().dup_suppressed, 1u);
  // The duplicate was re-acked (the original ack may have been lost).
  EXPECT_EQ(a.raw_count(kRelAck), 2u);
}

TEST(ReliableTest, GivesUpAfterMaxAttempts) {
  Fixture f;
  Endpoint a(f.network, Guid::random(f.rng));
  Endpoint b(f.network, Guid::random(f.rng));
  ASSERT_TRUE(f.network.set_crashed(b.id, true).is_ok());

  std::vector<std::pair<net::Message, unsigned>> abandoned;
  a.channel.set_give_up_handler(
      [&](const net::Message& inner, unsigned attempts) {
        abandoned.emplace_back(inner, attempts);
      });
  a.channel.send(b.id, 0x42, bytes({9}));
  f.simulator.run_all();

  ASSERT_EQ(abandoned.size(), 1u);
  EXPECT_EQ(abandoned[0].first.type, 0x42u);
  EXPECT_EQ(abandoned[0].first.to, b.id);
  EXPECT_EQ(abandoned[0].first.payload, bytes({9}));
  EXPECT_EQ(abandoned[0].second, 8u);  // all attempts spent
  EXPECT_EQ(a.channel.stats().dead_letters, 1u);
  EXPECT_EQ(a.channel.stats().failovers, 0u);
  EXPECT_EQ(a.channel.in_flight(), 0u);
  EXPECT_TRUE(b.delivered.empty());
}

TEST(ReliableTest, FailAllHandsBackPendingOldestFirst) {
  Fixture f;
  Endpoint a(f.network, Guid::random(f.rng));
  Endpoint b(f.network, Guid::random(f.rng));
  ASSERT_TRUE(f.network.set_crashed(b.id, true).is_ok());

  std::vector<net::Message> abandoned;
  a.channel.set_give_up_handler(
      [&](const net::Message& inner, unsigned) { abandoned.push_back(inner); });
  for (int i = 0; i < 3; ++i) a.channel.send(b.id, 0x42, bytes({i}));
  EXPECT_EQ(a.channel.in_flight_to(b.id), 3u);

  EXPECT_EQ(a.channel.fail_all(b.id), 3u);
  ASSERT_EQ(abandoned.size(), 3u);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(abandoned[static_cast<std::size_t>(i)].payload, bytes({i}));
  EXPECT_EQ(a.channel.stats().failovers, 3u);
  EXPECT_EQ(a.channel.stats().dead_letters, 0u);
  EXPECT_EQ(a.channel.in_flight(), 0u);
}

TEST(ReliableTest, UnknownDestinationDeadLettersImmediately) {
  Fixture f;
  Endpoint a(f.network, Guid::random(f.rng));
  const Guid ghost = Guid::random(f.rng);  // never attached

  unsigned give_ups = 0;
  a.channel.set_give_up_handler(
      [&](const net::Message&, unsigned) { ++give_ups; });
  a.channel.send(ghost, 0x42, bytes({1}));

  EXPECT_EQ(give_ups, 1u);
  EXPECT_EQ(a.channel.stats().dead_letters, 1u);
  EXPECT_EQ(a.channel.in_flight(), 0u);
}

TEST(ReliableTest, DeadLetterQueueParksAbandonedFrames) {
  Fixture f;
  ReliableConfig config;
  config.dead_letter_capacity = 8;
  Endpoint a(f.network, Guid::random(f.rng), config);
  Endpoint b(f.network, Guid::random(f.rng));
  ASSERT_TRUE(f.network.set_crashed(b.id, true).is_ok());

  a.channel.send(b.id, 0x42, bytes({5}));
  f.simulator.run_all();

  const DeadLetterQueue& dlq = a.channel.dead_letters();
  ASSERT_EQ(dlq.size(), 1u);
  const DeadLetter& letter = dlq.entries().front();
  EXPECT_EQ(letter.dest, b.id);
  EXPECT_EQ(letter.inner_type, 0x42u);
  EXPECT_EQ(letter.payload, bytes({5}));
  EXPECT_EQ(letter.cause, DeadLetterCause::kExhausted);
  EXPECT_EQ(letter.attempts, 8u);
  EXPECT_GE(letter.age(f.simulator.now()).count_micros(), 0);
  EXPECT_EQ(a.channel.stats().dlq_parked, 1u);
}

TEST(ReliableTest, DeadLetterReplayRoundTrip) {
  Fixture f;
  ReliableConfig config;
  config.dead_letter_capacity = 8;
  Endpoint a(f.network, Guid::random(f.rng), config);
  Endpoint b(f.network, Guid::random(f.rng));
  ASSERT_TRUE(f.network.set_crashed(b.id, true).is_ok());

  for (int i = 0; i < 3; ++i) a.channel.send(b.id, 0x42, bytes({i}));
  f.simulator.run_all();
  ASSERT_EQ(a.channel.dead_letters().size(), 3u);
  EXPECT_TRUE(b.delivered.empty());

  // Destination comes back; replay pushes every parked frame through the
  // normal reliable path with fresh sequence numbers.
  ASSERT_TRUE(f.network.set_crashed(b.id, false).is_ok());
  EXPECT_EQ(a.channel.replay_dead_letters(), 3u);
  EXPECT_TRUE(a.channel.dead_letters().empty());
  f.simulator.run_all();

  // All three frames arrive exactly once. Link jitter may reorder the
  // simultaneous replays, so compare as a multiset.
  ASSERT_EQ(b.delivered.size(), 3u);
  std::multiset<int> payloads;
  for (const auto& d : b.delivered) {
    ASSERT_EQ(d.payload.size(), 1u);
    payloads.insert(std::to_integer<int>(d.payload.data()[0]));
  }
  EXPECT_EQ(payloads, (std::multiset<int>{0, 1, 2}));
  EXPECT_EQ(a.channel.stats().dlq_replayed, 3u);
  EXPECT_EQ(a.channel.in_flight(), 0u);
}

TEST(ReliableTest, DeadLetterQueueEvictsOldestBeyondCapacity) {
  Fixture f;
  ReliableConfig config;
  config.dead_letter_capacity = 2;
  Endpoint a(f.network, Guid::random(f.rng), config);
  Endpoint b(f.network, Guid::random(f.rng));
  ASSERT_TRUE(f.network.set_crashed(b.id, true).is_ok());

  // Retransmit jitter adds at most 2.12 s over a frame's eight attempts, so
  // sends 3 s apart park in send order.
  for (int i = 0; i < 5; ++i) {
    a.channel.send(b.id, 0x42, bytes({i}));
    f.simulator.run_until(f.simulator.now() + Duration::seconds(3));
  }
  f.simulator.run_all();

  const DeadLetterQueue& dlq = a.channel.dead_letters();
  ASSERT_EQ(dlq.size(), 2u);
  EXPECT_EQ(dlq.evicted(), 3u);
  // The two newest survive.
  EXPECT_EQ(dlq.entries()[0].payload, bytes({3}));
  EXPECT_EQ(dlq.entries()[1].payload, bytes({4}));
}

TEST(ReliableTest, DrainEmptiesWithoutResending) {
  Fixture f;
  ReliableConfig config;
  config.dead_letter_capacity = 4;
  Endpoint a(f.network, Guid::random(f.rng), config);
  Endpoint b(f.network, Guid::random(f.rng));
  ASSERT_TRUE(f.network.set_crashed(b.id, true).is_ok());
  a.channel.send(b.id, 0x42, bytes({1}));
  f.simulator.run_all();

  auto drained = a.channel.drain_dead_letters();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].cause, DeadLetterCause::kExhausted);
  EXPECT_TRUE(a.channel.dead_letters().empty());
  ASSERT_TRUE(f.network.set_crashed(b.id, false).is_ok());
  f.simulator.run_all();
  EXPECT_TRUE(b.delivered.empty());  // drained frames are discarded
}

TEST(ReliableTest, FailAllFlushesRetransmitTimersAndParks) {
  Fixture f;
  ReliableConfig config;
  config.dead_letter_capacity = 8;
  Endpoint a(f.network, Guid::random(f.rng), config);
  Endpoint b(f.network, Guid::random(f.rng));
  ASSERT_TRUE(f.network.set_crashed(b.id, true).is_ok());

  for (int i = 0; i < 2; ++i) a.channel.send(b.id, 0x42, bytes({i}));
  // Let at least one retransmit fire (the first timeout is 200 ms plus up
  // to 10% jitter) so backoff timers are armed.
  f.simulator.run_until(f.simulator.now() + Duration::millis(300));
  EXPECT_EQ(a.channel.fail_all(b.id), 2u);

  // Parked as failovers, and no armed timer fires a stale retransmission.
  ASSERT_EQ(a.channel.dead_letters().size(), 2u);
  EXPECT_EQ(a.channel.dead_letters().entries()[0].cause,
            DeadLetterCause::kFailedOver);
  const std::uint64_t sent_before = a.channel.stats().data_sent;
  f.simulator.run_all();
  EXPECT_EQ(a.channel.stats().data_sent, sent_before);
  EXPECT_EQ(a.channel.in_flight(), 0u);
}

TEST(ReliableTest, FailAllKeepsSameEpochDedupWindow) {
  Fixture f;
  Endpoint a(f.network, Guid::random(f.rng));
  Endpoint b(f.network, Guid::random(f.rng));

  a.channel.send(b.id, 0x42, bytes({1}));
  f.simulator.run_all();
  ASSERT_EQ(b.delivered.size(), 1u);

  // b wrongly suspects a failed (missed pings under loss). The suspicion
  // must not forget what b already accepted from a...
  b.channel.fail_all(a.id);

  // ...so a same-epoch resend of seq 1 (a retransmit whose ack was lost)
  // stays suppressed instead of double-delivering.
  a.channel.rebind(a.id, 0);  // same identity + epoch: seq space restarts
  a.channel.send(b.id, 0x42, bytes({1}));
  f.simulator.run_all();
  EXPECT_EQ(b.delivered.size(), 1u);
  EXPECT_EQ(b.channel.stats().dup_suppressed, 1u);

  // A genuinely new incarnation announces a higher epoch and is accepted.
  a.channel.rebind(a.id, 1);
  a.channel.send(b.id, 0x42, bytes({2}));
  f.simulator.run_all();
  ASSERT_EQ(b.delivered.size(), 2u);
  EXPECT_EQ(b.delivered[1].payload, bytes({2}));
}

TEST(ReliableTest, RebindResetsReceiverDedupForNewIncarnation) {
  Fixture f;
  Endpoint a(f.network, Guid::random(f.rng));
  Endpoint b(f.network, Guid::random(f.rng));

  // Old incarnation of b sends seq 1 to a.
  b.channel.send(a.id, 0x42, bytes({1}));
  f.simulator.run_all();
  ASSERT_EQ(a.delivered.size(), 1u);

  // b's identity is taken over at a higher epoch; the sequence space
  // restarts at 1, which a must NOT suppress as a duplicate.
  b.channel.rebind(b.id, 1);
  b.channel.send(a.id, 0x42, bytes({2}));
  f.simulator.run_all();
  ASSERT_EQ(a.delivered.size(), 2u);
  EXPECT_EQ(a.delivered[1].payload, bytes({2}));
  EXPECT_EQ(a.channel.stats().dup_suppressed, 0u);
}

TEST(ReliableTest, StaleEpochFramesDroppedWithoutAck) {
  Fixture f;
  Endpoint a(f.network, Guid::random(f.rng));
  Endpoint b(f.network, Guid::random(f.rng));

  b.channel.send(a.id, 0x42, bytes({1}));
  f.simulator.run_all();
  ASSERT_EQ(a.raw_count(kRelData), 1u);
  const net::Message old_frame = a.raw.front();
  const std::size_t acks_before = b.raw_count(kRelAck);

  // The new incarnation announces itself first…
  b.channel.rebind(b.id, 1);
  b.channel.send(a.id, 0x42, bytes({2}));
  f.simulator.run_all();
  ASSERT_EQ(a.delivered.size(), 2u);

  // …then a stale epoch-0 retransmission limps in: dropped, no ack.
  net::Message replay = old_frame;
  EXPECT_TRUE(f.network.send(std::move(replay)).is_ok());
  f.simulator.run_all();
  EXPECT_EQ(a.delivered.size(), 2u);
  EXPECT_EQ(a.channel.stats().stale_epoch, 1u);
  EXPECT_EQ(b.raw_count(kRelAck), acks_before + 1u);  // only the epoch-1 ack
}

TEST(ReliableTest, HaltCancelsWithoutCallbacks) {
  Fixture f;
  Endpoint a(f.network, Guid::random(f.rng));
  Endpoint b(f.network, Guid::random(f.rng));
  ASSERT_TRUE(f.network.set_crashed(b.id, true).is_ok());

  unsigned give_ups = 0;
  a.channel.set_give_up_handler(
      [&](const net::Message&, unsigned) { ++give_ups; });
  a.channel.send(b.id, 0x42, bytes({1}));
  a.channel.halt();
  f.simulator.run_all();

  EXPECT_EQ(give_ups, 0u);
  EXPECT_EQ(a.channel.in_flight(), 0u);
  EXPECT_TRUE(b.delivered.empty());
}

TEST(ReliableTest, ReceiveGateRefusesWithoutAckOrDedupEntry) {
  Fixture f;
  Endpoint a(f.network, Guid::random(f.rng));
  Endpoint b(f.network, Guid::random(f.rng));

  // Gate closed for 0x42: no ack, no dedup entry, no delivery — the sender
  // keeps retransmitting (a lease-lapsed CS refusing mutating ops).
  bool open = false;
  b.channel.set_receive_gate(
      [&open](std::uint32_t inner_type) { return inner_type != 0x42 || open; });
  a.channel.send(b.id, 0x42, bytes({1}));
  f.simulator.run_until(f.simulator.now() + Duration::seconds(1));
  EXPECT_TRUE(b.delivered.empty());
  EXPECT_GT(b.channel.stats().gated, 0u);
  EXPECT_GT(a.channel.stats().retransmits, 0u);
  EXPECT_EQ(a.channel.stats().acked, 0u);
  EXPECT_EQ(a.channel.in_flight(), 1u);

  // Admission reopens: the next retransmission is delivered fresh (it never
  // entered the dedup window) and finally acked.
  open = true;
  f.simulator.run_all();
  ASSERT_EQ(b.delivered.size(), 1u);
  EXPECT_EQ(b.delivered[0].payload, bytes({1}));
  EXPECT_EQ(a.channel.stats().acked, 1u);
  EXPECT_EQ(a.channel.in_flight(), 0u);
}

TEST(ReliableTest, HeldAckDefersSettlementUntilRelease) {
  Fixture f;
  Endpoint a(f.network, Guid::random(f.rng));

  // The receiver claims the ack during delivery (a primary waiting for
  // standby acks before admitting), so a keeps the frame in flight and
  // retransmits — but duplicates of the held frame stay silent.
  AckTicket held;
  std::size_t deliveries = 0;
  ReliableChannel holder(f.network, Guid::random(f.rng), {});
  const Guid holder_id = holder.self();
  ASSERT_TRUE(f.network
                  .attach(holder_id,
                          [&](const net::Message& m) {
                            (void)holder.on_message(
                                m, [&](const net::Message&) {
                                  ++deliveries;
                                  held = holder.hold_current_ack();
                                });
                          })
                  .is_ok());

  a.channel.send(holder_id, 0x42, bytes({9}));
  f.simulator.run_until(f.simulator.now() + Duration::seconds(1));
  EXPECT_EQ(deliveries, 1u);  // duplicates stay suppressed AND silent
  EXPECT_TRUE(held.valid);
  EXPECT_GT(a.channel.stats().retransmits, 0u);
  EXPECT_EQ(a.channel.stats().acked, 0u);
  EXPECT_EQ(a.channel.in_flight(), 1u);
  EXPECT_EQ(holder.stats().acks_held, 1u);

  // Release sends the (single) deferred ack; the sender settles.
  holder.release_ack(held);
  holder.release_ack(held);  // idempotent
  f.simulator.run_all();
  EXPECT_EQ(a.channel.stats().acked, 1u);
  EXPECT_EQ(a.channel.in_flight(), 0u);
  EXPECT_EQ(holder.stats().acks_released, 1u);
  EXPECT_EQ(deliveries, 1u);
}

TEST(ReliableTest, MediatorFailAllParksWithMediatorCause) {
  Fixture f;
  ReliableConfig config;
  config.dead_letter_capacity = 8;
  Endpoint a(f.network, Guid::random(f.rng), config);
  Endpoint b(f.network, Guid::random(f.rng));
  ASSERT_TRUE(f.network.set_crashed(b.id, true).is_ok());

  a.channel.send(b.id, 0x42, bytes({1}));
  a.channel.send(b.id, 0x43, bytes({2}));
  f.simulator.run_until(f.simulator.now() + Duration::millis(50));
  EXPECT_EQ(a.channel.fail_all(b.id, DeadLetterCause::kMediator), 2u);

  ASSERT_EQ(a.channel.dead_letters().size(), 2u);
  for (const DeadLetter& letter : a.channel.dead_letters().entries()) {
    EXPECT_EQ(letter.cause, DeadLetterCause::kMediator);
  }
  EXPECT_STREQ(to_string(DeadLetterCause::kMediator), "mediator");
  // Mediator parks count as failovers (handed back early), not exhausted
  // dead letters.
  EXPECT_EQ(a.channel.stats().failovers, 2u);
  EXPECT_EQ(a.channel.stats().dead_letters, 0u);
}

// --- ordered delivery per (sender, epoch) -----------------------------------

std::vector<int> payload_values(const std::vector<net::Message>& frames) {
  std::vector<int> out;
  for (const auto& m : frames) {
    EXPECT_EQ(m.payload.size(), 1u);
    out.push_back(std::to_integer<int>(m.payload.data()[0]));
  }
  return out;
}

// Sends one frame from `a` to `b` that the link loses (its first
// transmission only: the retransmit 200 ms later gets through).
void send_lost(Fixture& f, Endpoint& a, const Endpoint& b, int value) {
  f.network.set_partition_group(b.id, 1);
  a.channel.send(b.id, 0x42, bytes({value}));
  f.network.heal_partitions();
}

TEST(ReliableTest, OvertakingFrameWaitsUnackedUntilReleasedInOrder) {
  Fixture f;
  Endpoint a(f.network, Guid::random(f.rng));
  Endpoint b(f.network, Guid::random(f.rng));

  send_lost(f, a, b, 1);
  a.channel.send(b.id, 0x42, bytes({2}));
  f.simulator.run_until(f.simulator.now() + Duration::millis(10));
  // Frame 2 arrived first: it waits for frame 1, and is not acked yet.
  EXPECT_TRUE(b.delivered.empty());
  EXPECT_EQ(b.channel.stats().reordered, 1u);
  EXPECT_EQ(a.raw_count(kRelAck), 0u);
  EXPECT_EQ(a.channel.in_flight(), 2u);

  f.simulator.run_all();
  EXPECT_EQ(payload_values(b.delivered), (std::vector<int>{1, 2}));
  EXPECT_EQ(a.channel.stats().acked, 2u);
  EXPECT_EQ(a.channel.in_flight(), 0u);
}

TEST(ReliableTest, AbandonedFramesDoNotWedgeTheFramesBehindThem) {
  Fixture f;
  Endpoint a(f.network, Guid::random(f.rng));
  Endpoint b(f.network, Guid::random(f.rng));
  b.channel.set_receive_gate(
      [](std::uint32_t inner_type) { return inner_type != 0x41; });

  a.channel.send(b.id, 0x42, bytes({1}));
  f.simulator.run_all();
  ASSERT_EQ(b.delivered.size(), 1u);

  // Seq 2 is refused on every attempt and dead-letters after kMaxAttempts;
  // seq 3 carries a floor past it and is delivered.
  a.channel.send(b.id, 0x41, bytes({2}));
  f.simulator.run_all();
  EXPECT_EQ(a.channel.stats().dead_letters, 1u);
  a.channel.send(b.id, 0x42, bytes({3}));
  f.simulator.run_all();
  EXPECT_EQ(payload_values(b.delivered), (std::vector<int>{1, 3}));

  // Seq 4 is refused and seq 5 waits behind it; fail_all hands both back,
  // and seq 6 is delivered, not stuck behind them.
  a.channel.send(b.id, 0x41, bytes({4}));
  a.channel.send(b.id, 0x42, bytes({5}));
  f.simulator.run_until(f.simulator.now() + Duration::millis(10));
  EXPECT_EQ(b.channel.stats().reordered, 1u);
  EXPECT_EQ(a.channel.fail_all(b.id), 2u);
  a.channel.send(b.id, 0x42, bytes({6}));
  f.simulator.run_all();
  EXPECT_EQ(payload_values(b.delivered), (std::vector<int>{1, 3, 6}));
  EXPECT_EQ(a.channel.in_flight(), 0u);
}

TEST(ReliableTest, ReceiverWithNoStateJoinsTheStreamAtTheFloor) {
  Fixture f;
  Endpoint a(f.network, Guid::random(f.rng));
  const Guid b_id = Guid::random(f.rng);
  {
    Endpoint predecessor(f.network, b_id);
    a.channel.send(b_id, 0x42, bytes({1}));
    a.channel.send(b_id, 0x42, bytes({2}));
    f.simulator.run_all();
    ASSERT_EQ(predecessor.delivered.size(), 2u);
    ASSERT_TRUE(f.network.detach(b_id).is_ok());
  }
  // A successor under the same identity (a promoted standby) has no state
  // for `a`: seq 3 carries floor 3, so it is delivered without waiting for
  // seqs 1 and 2, which the predecessor acked.
  Endpoint successor(f.network, b_id);
  a.channel.send(b_id, 0x42, bytes({3}));
  f.simulator.run_all();
  EXPECT_EQ(payload_values(successor.delivered), (std::vector<int>{3}));
  EXPECT_EQ(a.channel.in_flight(), 0u);
}

TEST(ReliableTest, DuplicateIsReAckedOnlyOnceReleased) {
  Fixture f;
  Endpoint a(f.network, Guid::random(f.rng));
  Endpoint b(f.network, Guid::random(f.rng));

  send_lost(f, a, b, 1);
  a.channel.send(b.id, 0x42, bytes({2}));
  f.simulator.run_until(f.simulator.now() + Duration::millis(10));
  ASSERT_EQ(b.raw_count(kRelData), 1u);
  const net::Message second = b.raw.front();

  // A duplicate of frame 2 while it waits in the reorder map: no ack.
  net::Message replay = second;
  EXPECT_TRUE(f.network.send(std::move(replay)).is_ok());
  f.simulator.run_until(f.simulator.now() + Duration::millis(10));
  EXPECT_EQ(b.channel.stats().dup_suppressed, 1u);
  EXPECT_EQ(a.raw_count(kRelAck), 0u);

  // Once released it is acked, and a later duplicate is re-acked (a held
  // ack stays silent instead: HeldAckDefersSettlementUntilRelease).
  f.simulator.run_all();
  ASSERT_EQ(payload_values(b.delivered), (std::vector<int>{1, 2}));
  const std::size_t acks = a.raw_count(kRelAck);
  const std::uint64_t dups = b.channel.stats().dup_suppressed;
  replay = second;
  EXPECT_TRUE(f.network.send(std::move(replay)).is_ok());
  f.simulator.run_all();
  EXPECT_EQ(b.delivered.size(), 2u);
  EXPECT_EQ(b.channel.stats().dup_suppressed, dups + 1);
  EXPECT_EQ(a.raw_count(kRelAck), acks + 1);
}

TEST(ReliableTest, FrameBeyondTheReorderBoundComesBackByRetransmit) {
  Fixture f;
  Endpoint a(f.network, Guid::random(f.rng));
  Endpoint b(f.network, Guid::random(f.rng));

  // Behind one lost frame, one more frame than the reorder map holds.
  const int frames = static_cast<int>(kMaxReordered) + 2;
  send_lost(f, a, b, 0);
  for (int i = 1; i < frames; ++i) a.channel.send(b.id, 0x42, bytes({i}));
  f.simulator.run_until(f.simulator.now() + Duration::millis(10));
  EXPECT_TRUE(b.delivered.empty());
  EXPECT_EQ(b.channel.stats().reordered, kMaxReordered);
  EXPECT_EQ(a.raw_count(kRelAck), 0u);

  f.simulator.run_all();
  std::vector<int> expected(static_cast<std::size_t>(frames));
  for (int i = 0; i < frames; ++i)
    expected[static_cast<std::size_t>(i)] = i & 0xFF;
  EXPECT_EQ(payload_values(b.delivered), expected);
  EXPECT_EQ(a.channel.stats().dead_letters, 0u);
  EXPECT_EQ(a.channel.in_flight(), 0u);
}

}  // namespace
}  // namespace sci::reliable
