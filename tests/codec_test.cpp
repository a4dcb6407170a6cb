// Tests for the shared state-record codecs: every record the Context Server
// ships (shard mirrors, replication log, snapshots, vnode handoff) has one
// encode and one decode. Each case checks that encode → decode → encode is
// byte-identical and that every strict prefix of a valid encoding is
// rejected rather than misread.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "compose/resolver.h"
#include "entity/profile.h"
#include "entity/protocol.h"
#include "event/subscription.h"
#include "range/context_server.h"
#include "range/registrar.h"
#include "reliable/reliable.h"
#include "serde/buffer.h"

namespace sci {
namespace {

using Bytes = std::vector<std::byte>;

struct CodecCase {
  std::string name;
  // Encodes the case's fixed sample.
  std::function<Bytes()> encode;
  // Decodes `bytes` and re-encodes the result; nullopt on a decode error.
  // `consumed` reports whether the decode read every byte.
  std::function<std::optional<Bytes>(serde::FrameView bytes, bool* consumed)>
      reencode;
};

void PrintTo(const CodecCase& c, std::ostream* os) { *os << c.name; }

template <typename T>
void encode_one(serde::Writer& w, const T& value) {
  if constexpr (std::is_same_v<T, Guid>) {
    w.guid(value);
  } else {
    value.encode(w);
  }
}

template <typename T>
Expected<T> decode_one(serde::Reader& r) {
  if constexpr (std::is_same_v<T, Guid>) {
    return r.guid();
  } else {
    return T::decode(r);
  }
}

template <typename T>
CodecCase codec_case(std::string name, T sample) {
  CodecCase c;
  c.name = std::move(name);
  c.encode = [sample] {
    serde::Writer w;
    encode_one(w, sample);
    return w.view().to_vector();
  };
  c.reencode = [](serde::FrameView bytes,
                  bool* consumed) -> std::optional<Bytes> {
    serde::Reader r(bytes);
    auto decoded = decode_one<T>(r);
    if (!decoded) return std::nullopt;
    *consumed = r.at_end();
    serde::Writer w;
    encode_one(w, *decoded);
    return w.view().to_vector();
  };
  return c;
}

const Guid kSubscriber(0x0123456789abcdefULL, 0xfedcba9876543210ULL);
const Guid kProducer(0x1111111111111111ULL, 0x2222222222222222ULL);
const Guid kFilterSource(0x3333333333333333ULL, 0x4444444444444444ULL);

// The fixed subscription whose kShardSubscribe bytes are pinned below.
event::Subscription pinned_subscription() {
  event::Subscription s;
  s.id = 7;
  s.subscriber = kSubscriber;
  s.producer = kProducer;
  s.event_type = "temperature";
  s.filter.source = kFilterSource;
  s.filter.fields.push_back(
      event::FieldConstraint{"room", event::FilterOp::kEquals, Value("lab")});
  s.owner_tag = 42;
  return s;
}

event::Subscription wildcard_subscription() {
  event::Subscription s;
  s.id = 300;  // two-byte varint
  s.subscriber = kSubscriber;
  s.event_type = "location";
  s.filter.fields.push_back(event::FieldConstraint{
      "floor", event::FilterOp::kGreaterOrEqual, Value(2)});
  s.one_time = true;
  s.owner_tag = 1ULL << 40;
  return s;
}

range::MemberRecord member_record() {
  return range::MemberRecord{kSubscriber, true, SimTime::from_micros(1'000'000),
                             SimTime::from_micros(2'500'000), 3};
}

reliable::SeqDedup dedup_window() {
  reliable::SeqDedup dedup;
  dedup.floor = 41;
  dedup.above = {300, 44, 47};
  return dedup;
}

entity::ProfileRecord profile_record(bool with_advertisement) {
  entity::ProfileRecord record;
  record.profile.entity = kProducer;
  record.profile.name = "Printer P1";
  record.profile.kind = entity::EntityKind::kDevice;
  record.profile.inputs = {{"job", "", "print-job"}};
  record.profile.outputs = {{"status", "", ""}, {"pages", "count", ""}};
  record.profile.metadata = Value(ValueMap{{"floor", Value(2)}});
  record.profile.location = location::LocRef::from_point({1.5, 2.0});
  record.profile.version = 9;
  if (with_advertisement) {
    entity::Advertisement ad;
    ad.service = "printing";
    ad.methods = {{"print", {"document", "copies"}}, {"cancel", {}}};
    ad.attributes = Value(ValueMap{{"ppm", Value(30)}});
    record.advertisement = std::move(ad);
  }
  return record;
}

range::StagedOp staged_op() {
  const Bytes payload{std::byte{0xDE}, std::byte{0xAD}, std::byte{0xBE},
                      std::byte{0xEF}};
  return range::StagedOp{kProducer, entity::kPublish,
                         serde::BufferRef::copy_of(payload)};
}

compose::ConfigurationPlan configuration_plan() {
  compose::ConfigurationPlan plan;
  plan.tag = 9;
  plan.sink = kSubscriber;
  plan.sink_type = "path";
  plan.entities = {kSubscriber, kProducer};
  compose::PlanEdge edge;
  edge.producer = kProducer;
  edge.consumer = kSubscriber;
  edge.event_type = "location";
  edge.filter.source = kProducer;
  plan.edges.push_back(std::move(edge));
  plan.params.emplace(kSubscriber,
                      Value(ValueMap{{"from", Value(kProducer)}}));
  plan.depth_ = 2;
  return plan;
}

class CodecTest : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecTest, EncodeDecodeEncodeIsByteIdentical) {
  const Bytes encoded = GetParam().encode();
  ASSERT_FALSE(encoded.empty());
  bool consumed = false;
  const auto again = GetParam().reencode(encoded, &consumed);
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(consumed);
  EXPECT_EQ(*again, encoded);
}

TEST_P(CodecTest, EveryStrictPrefixIsRejected) {
  const Bytes encoded = GetParam().encode();
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    bool consumed = false;
    EXPECT_FALSE(GetParam()
                     .reencode(serde::FrameView(encoded.data(), len),
                               &consumed)
                     .has_value())
        << "prefix of " << len << " of " << encoded.size() << " bytes";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Records, CodecTest,
    ::testing::Values(
        codec_case("guid", kSubscriber),
        codec_case("subscription", pinned_subscription()),
        codec_case("wildcard_subscription", wildcard_subscription()),
        codec_case("member_record", member_record()),
        codec_case("seq_dedup", dedup_window()),
        codec_case("profile_record", profile_record(true)),
        codec_case("profile_record_without_ad", profile_record(false)),
        codec_case("staged_op", staged_op()),
        codec_case("configuration_plan", configuration_plan())),
    [](const ::testing::TestParamInfo<CodecCase>& param) {
      return param.param.name;
    });

std::string hex(serde::FrameView bytes) {
  std::string out;
  char digits[3];
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::snprintf(digits, sizeof digits, "%02x",
                  std::to_integer<unsigned>(bytes.data()[i]));
    out += digits;
  }
  return out;
}

// The kShardSubscribe payload sibling mirrors and vnode handoff put on the
// wire, pinned to the bytes the hand-written mirror encoder produced for
// this subscription before the codec moved into event::Subscription.
TEST(CodecWireTest, ShardSubscribeBytesArePinned) {
  serde::Writer w;
  pinned_subscription().encode(w);
  EXPECT_EQ(hex(w.view()),
            "07"                                // id
            "efcdab89674523011032547698badcfe"  // subscriber
            "01"                                // has producer
            "11111111111111112222222222222222"  // producer
            "0b74656d7065726174757265"          // "temperature"
            "01"                                // filter has source
            "33333333333333334444444444444444"  // filter source
            "01"                                // one field constraint
            "04726f6f6d00"                      // "room", kEquals
            "04036c6162"                        // Value "lab"
            "00"                                // one_time
            "2a");                              // owner tag
}

// A mirror never carries delivery counts: decode leaves them at 0, so a
// copy counts only the deliveries it makes itself.
TEST(CodecWireTest, SubscriptionDecodeLeavesCountAtZero) {
  event::Subscription s = pinned_subscription();
  s.delivered = 12;
  serde::Writer w;
  s.encode(w);
  serde::Reader r(w.view());
  const auto decoded = event::Subscription::decode(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->delivered, 0u);
  EXPECT_EQ(decoded->producer, kProducer);
  EXPECT_EQ(decoded->owner_tag, 42u);
}

}  // namespace
}  // namespace sci
