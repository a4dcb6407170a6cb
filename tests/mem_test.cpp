// Tests for the zero-copy hot path (docs/MEMORY.md): the size-classed
// BufferArena pool, refcounted BufferRef sharing, borrowing FrameViews,
// decode robustness against truncated/corrupt frames, buffer lifetime
// across retransmission and dead-letter replay, and the steady-state
// no-allocation contract of the pooled encode→share→release cycle.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <new>
#include <set>
#include <vector>

#include "entity/protocol.h"
#include "event/event.h"
#include "mem/arena.h"
#include "obs/metrics.h"
#include "reliable/reliable.h"
#include "serde/buffer.h"
#include "serde/value.h"
#include "sim/simulator.h"

// ---------------------------------------------------------------------------
// Allocation counting: replacement global operator new so the pool tests can
// prove the steady-state encode→share→release cycle never touches the heap.

namespace {
std::uint64_t g_allocations = 0;
}  // namespace

// GCC pairs the replacement operator delete's std::free against its builtin
// operator new and warns; the pairing here is in fact malloc/free on both
// sides.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sci {
namespace {

std::vector<std::byte> bytes(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

// ------------------------------------------------------------------- arena

TEST(ArenaTest, SizeClassesRoundUpToPowersOfTwo) {
  EXPECT_EQ(mem::BufferArena::class_for(1), 0u);
  EXPECT_EQ(mem::BufferArena::class_for(64), 0u);
  EXPECT_EQ(mem::BufferArena::class_for(65), 1u);
  EXPECT_EQ(mem::BufferArena::class_for(128), 1u);
  EXPECT_EQ(mem::BufferArena::class_bytes(0), 64u);
  EXPECT_EQ(mem::BufferArena::class_bytes(10), 64u * 1024u);
}

TEST(ArenaTest, ReleasedBlocksAreReused) {
  mem::BufferArena arena;
  auto* first = arena.acquire(100);
  ASSERT_NE(first, nullptr);
  EXPECT_GE(first->capacity, 100u);
  EXPECT_EQ(first->refs, 1u);
  EXPECT_EQ(arena.stats().block_allocs, 1u);

  mem::BufferArena::unref(first);  // last ref: parks on the 128 B freelist
  EXPECT_EQ(arena.stats().pooled_free, 1u);

  // Same class comes back off the freelist — same block, no fresh alloc.
  auto* second = arena.acquire(90);
  EXPECT_EQ(second, first);
  EXPECT_EQ(arena.stats().block_allocs, 1u);
  EXPECT_EQ(arena.stats().reuses, 1u);

  // A different class misses and allocates.
  auto* big = arena.acquire(5000);
  EXPECT_NE(big, second);
  EXPECT_EQ(arena.stats().block_allocs, 2u);
  mem::BufferArena::unref(second);
  mem::BufferArena::unref(big);
  arena.trim();
  EXPECT_EQ(arena.stats().pooled_free, 0u);
}

TEST(ArenaTest, OversizeRequestsBypassThePool) {
  mem::BufferArena arena;
  const std::size_t huge =
      mem::BufferArena::class_bytes(mem::BufferArena::kClassCount - 1) + 1;
  auto* block = arena.acquire(huge);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->size_class, mem::BufferArena::kUnpooled);
  EXPECT_EQ(arena.stats().oversize, 1u);
  mem::BufferArena::unref(block);
  EXPECT_EQ(arena.stats().pooled_free, 0u);  // freed, not parked
}

// --------------------------------------------------------------- BufferRef

TEST(BufferRefTest, CopyIsRefcountAndSliceKeepsBlockAlive) {
  serde::Writer w;
  for (int i = 0; i < 32; ++i) w.u8(static_cast<std::uint8_t>(i));
  serde::BufferRef whole = w.take_ref();
  ASSERT_EQ(whole.size(), 32u);

  serde::BufferRef copy = whole;  // refcount bump
  EXPECT_EQ(copy.data(), whole.data());

  serde::BufferRef tail = whole.slice(24, 8);
  EXPECT_EQ(tail.size(), 8u);
  EXPECT_EQ(tail.data(), whole.data() + 24);

  // Dropping every other handle leaves the slice's bytes intact: the slice
  // holds the whole block alive.
  whole = serde::BufferRef();
  copy = serde::BufferRef();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(std::to_integer<int>(tail.data()[i]), 24 + i);
  }
}

TEST(BufferRefTest, SliceClampsOutOfRangeRequests) {
  serde::Writer w;
  w.u32(0xDEADBEEF);
  const serde::BufferRef ref = w.take_ref();
  EXPECT_EQ(ref.slice(100, 5).size(), 0u);    // offset past the end
  EXPECT_EQ(ref.slice(2, 100).size(), 2u);    // length clamped to the tail
  EXPECT_EQ(ref.slice(4, 1).size(), 0u);      // offset == size
  const serde::FrameView view = ref;
  EXPECT_EQ(view.subview(100, 5).size(), 0u);
  EXPECT_EQ(view.subview(1, 100).size(), 3u);
}

TEST(BufferRefTest, CloneDeepCopiesAndEqualityComparesBytes) {
  const std::vector<std::byte> original = bytes({1, 2, 3, 4, 5});
  const serde::BufferRef a = serde::BufferRef::copy_of(original);
  const serde::BufferRef b = serde::BufferRef::copy_of(a.data(), a.size());
  EXPECT_NE(a.data(), b.data());
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.to_vector(), original);
}

// ---------------------------------------------------------- serde round-trip

TEST(FrameViewTest, WriterRoundTripThroughRefAndView) {
  serde::Writer w;
  w.varint(123456789);
  w.string("zero-copy");
  w.f64(2.5);
  const serde::BufferRef ref = w.take_ref();

  // Reader over the owning ref and over a borrowing view agree.
  for (int pass = 0; pass < 2; ++pass) {
    serde::Reader r = pass == 0 ? serde::Reader(ref)
                                : serde::Reader(serde::FrameView(ref));
    EXPECT_EQ(r.varint().value_or(0), 123456789u);
    EXPECT_EQ(r.string().value_or(""), "zero-copy");
    EXPECT_DOUBLE_EQ(r.f64().value_or(0), 2.5);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(FrameViewTest, EventViewParsesHeaderWithoutMaterializing) {
  event::Event e;
  e.sequence = 42;
  e.type = "location.update";
  e.source = Guid(7, 9);
  e.timestamp = SimTime::from_micros(1234);
  ValueMap fields;
  fields.emplace("x", static_cast<std::int64_t>(3));
  e.payload = Value(std::move(fields));
  serde::Writer w;
  e.encode(w);
  const serde::BufferRef frame = w.take_ref();

  const auto view = event::EventView::parse(frame);
  ASSERT_TRUE(bool(view));
  EXPECT_EQ(view->sequence(), 42u);
  EXPECT_EQ(view->type(), "location.update");
  EXPECT_EQ(view->source(), Guid(7, 9));
  EXPECT_EQ(view->timestamp().micros(), 1234);
  // The type view aliases the frame, not a copy.
  EXPECT_GE(reinterpret_cast<const std::byte*>(view->type().data()),
            frame.data());
  EXPECT_LT(reinterpret_cast<const std::byte*>(view->type().data()),
            frame.data() + frame.size());

  const auto full = view->materialize();
  ASSERT_TRUE(bool(full));
  EXPECT_EQ(full->type, e.type);
  EXPECT_EQ(full->payload.at("x").as_int().value_or(0), 3);
}

// ------------------------------------------------------- corrupt-frame fuzz

TEST(FrameViewTest, TruncatedAndCorruptFramesFailCleanly) {
  event::Event e;
  e.sequence = 7;
  e.type = "pulse";
  e.source = Guid(1, 2);
  e.timestamp = SimTime::from_micros(55);
  e.payload = Value(std::string(40, 'x'));
  serde::Writer w;
  e.encode(w);
  const serde::BufferRef frame = w.take_ref();

  // Every truncation point either parses to a prefix or errors — never a
  // crash or an out-of-bounds read (this binary runs under ASan in CI).
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    const serde::FrameView view(frame.data(), cut);
    const auto parsed = event::EventView::parse(view);
    if (parsed) {
      (void)parsed->materialize();  // payload may still be truncated
    }
    (void)entity::DeliverBody::decode(view);
    (void)entity::PublishBody::decode(view);
  }

  // Single-byte corruption at every position: decode must never walk
  // outside the frame, whatever the mutated length prefixes claim.
  Rng rng{99};
  for (std::size_t pos = 0; pos < frame.size(); ++pos) {
    std::vector<std::byte> mutated = frame.to_vector();
    mutated[pos] = static_cast<std::byte>(rng.next_u64() & 0xFF);
    const auto parsed = event::EventView::parse(mutated);
    if (parsed) (void)parsed->materialize();
    (void)entity::PublishBody::decode(mutated);
  }
}

// -------------------------------------------- lifetime across retransmit/DLQ

TEST(MemReliableTest, PayloadSurvivesRetransmitSharing) {
  sim::Simulator simulator{42};
  net::Network network{simulator};
  net::LinkModel model = network.link_model();
  model.jitter = Duration::micros(0);
  model.drop_probability = 0.4;
  network.set_link_model(model);
  Rng rng{7};

  const Guid a_id = Guid::random(rng);
  const Guid b_id = Guid::random(rng);
  reliable::ReliableChannel a(network, a_id, {});
  reliable::ReliableChannel b(network, b_id, {});
  ASSERT_TRUE(network.attach(a_id, [&](const net::Message& m) {
    (void)a.on_message(m, [](const net::Message&) {});
  }).is_ok());

  std::vector<std::vector<std::byte>> received;
  ASSERT_TRUE(network.attach(b_id, [&](const net::Message& m) {
    (void)b.on_message(m, [&](const net::Message& inner) {
      received.push_back(inner.payload.to_vector());
    });
  }).is_ok());

  // The sender's handle dies immediately after send(); the Pending entry's
  // shared reference must keep the bytes alive across every retransmit.
  for (int i = 0; i < 20; ++i) {
    serde::Writer w;
    w.u8(static_cast<std::uint8_t>(i));
    for (int j = 0; j < 64; ++j) w.u8(0xAB);
    a.send(b_id, 0x42, w.take_ref());
  }
  simulator.run_all();

  ASSERT_EQ(received.size(), 20u);
  std::set<int> seen;
  for (const auto& payload : received) {
    ASSERT_EQ(payload.size(), 65u);
    seen.insert(std::to_integer<int>(payload[0]));
    for (std::size_t j = 1; j < payload.size(); ++j) {
      ASSERT_EQ(std::to_integer<int>(payload[j]), 0xAB);
    }
  }
  EXPECT_EQ(seen.size(), 20u);
  EXPECT_GT(a.stats().retransmits, 0u);
}

TEST(MemReliableTest, PayloadSurvivesDeadLetterParkAndReplay) {
  sim::Simulator simulator{42};
  net::Network network{simulator};
  Rng rng{7};

  const Guid a_id = Guid::random(rng);
  const Guid b_id = Guid::random(rng);
  reliable::ReliableConfig config;
  config.dead_letter_capacity = 8;
  reliable::ReliableChannel a(network, a_id, config);
  reliable::ReliableChannel b(network, b_id, {});
  ASSERT_TRUE(network.attach(a_id, [&](const net::Message& m) {
    (void)a.on_message(m, [](const net::Message&) {});
  }).is_ok());

  // The destination is absent: both frames exhaust their attempts and park
  // in the DLQ. Their payload blocks must stay alive while parked.
  a.send(b_id, 0x42, serde::BufferRef::copy_of(bytes({10, 11, 12})));
  a.send(b_id, 0x43, serde::BufferRef::copy_of(bytes({20, 21, 22})));
  simulator.run_all();
  ASSERT_EQ(a.dead_letters().entries().size(), 2u);
  EXPECT_EQ(a.dead_letters().entries()[0].payload.to_vector(),
            bytes({10, 11, 12}));

  // Destination comes up; replay re-sends the parked bytes intact.
  std::vector<std::vector<std::byte>> received;
  ASSERT_TRUE(network.attach(b_id, [&](const net::Message& m) {
    (void)b.on_message(m, [&](const net::Message& inner) {
      received.push_back(inner.payload.to_vector());
    });
  }).is_ok());
  EXPECT_EQ(a.replay_dead_letters(), 2u);
  simulator.run_all();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0], bytes({10, 11, 12}));
  EXPECT_EQ(received[1], bytes({20, 21, 22}));
}

// ------------------------------------------------------ no-allocation cycle

TEST(MemAllocationTest, SteadyStateEncodeShareReleaseDoesNotAllocate) {
  // Warm the pool: the first cycles may fault fresh blocks in.
  auto cycle = [](int tag) {
    serde::Writer w;
    w.varint(static_cast<std::uint64_t>(tag));
    for (int i = 0; i < 100; ++i) w.u8(static_cast<std::uint8_t>(i));
    serde::BufferRef frame = w.take_ref();
    // Share it the way the fan-out does: header writers raw-appending the
    // same frame, slices standing in for retained payloads.
    serde::BufferRef kept;
    for (int s = 0; s < 8; ++s) {
      serde::Writer h;
      h.varint(static_cast<std::uint64_t>(s));
      h.raw(frame.data(), frame.size());
      serde::BufferRef body = h.take_ref();
      kept = body.slice(1, body.size() - 1);
    }
    return kept.size();
  };
  for (int i = 0; i < 16; ++i) (void)cycle(i);

  const std::uint64_t before = g_allocations;
  std::size_t sink = 0;
  for (int i = 0; i < 1000; ++i) sink += cycle(i);
  EXPECT_GT(sink, 0u);
  EXPECT_EQ(g_allocations, before)
      << "pooled encode→share→release cycles must not touch the heap";
}

// ------------------------------------------------------------------ metrics

TEST(MemMetricsTest, SnapshotMirrorsPoolCountersIntoMemGauges) {
  sim::Simulator simulator(1);
  // Drive some pool traffic so the mirrored counters are visibly nonzero.
  for (int i = 0; i < 4; ++i) {
    serde::Writer w;
    w.varint(static_cast<std::uint64_t>(i));
    serde::BufferRef frame = w.take_ref();
    EXPECT_FALSE(frame.empty());
  }
  const mem::ArenaStats& stats = mem::BufferArena::global().stats();
  const obs::MetricsSnapshot snap = simulator.metrics().snapshot();
  EXPECT_EQ(snap.gauge("mem.pool.block_allocs"),
            static_cast<double>(stats.block_allocs));
  EXPECT_EQ(snap.gauge("mem.pool.reuses"), static_cast<double>(stats.reuses));
  EXPECT_EQ(snap.gauge("mem.pool.free"),
            static_cast<double>(stats.pooled_free));
  EXPECT_EQ(snap.gauge("mem.pool.bytes_reserved"),
            static_cast<double>(stats.bytes_reserved));
  EXPECT_GT(snap.gauge("mem.pool.releases"), 0.0);
}

}  // namespace
}  // namespace sci
