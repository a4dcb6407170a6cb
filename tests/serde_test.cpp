// Unit tests for sci::serde — binary buffers, Value trees, the XML subset.
#include <gtest/gtest.h>

#include <cstddef>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "serde/buffer.h"
#include "serde/frame.h"
#include "serde/value.h"
#include "serde/xml.h"

namespace sci {
namespace {

// ---------------------------------------------------------------- buffer

// Every copy into a pooled frame is spelled BufferRef::copy_of at its call
// site; an implicit conversion from a vector would hide one per send.
static_assert(!std::is_convertible_v<std::vector<std::byte>, serde::BufferRef>);
static_assert(
    !std::is_convertible_v<const std::vector<std::byte>&, serde::BufferRef>);

TEST(BufferTest, PrimitivesRoundTrip) {
  serde::Writer w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.f64(3.14159);
  w.boolean(true);
  w.boolean(false);
  w.string("hello, range");

  serde::Reader r(w.view());
  EXPECT_EQ(*r.u8(), 0xAB);
  EXPECT_EQ(*r.u16(), 0x1234);
  EXPECT_EQ(*r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(*r.f64(), 3.14159);
  EXPECT_TRUE(*r.boolean());
  EXPECT_FALSE(*r.boolean());
  EXPECT_EQ(*r.string(), "hello, range");
  EXPECT_TRUE(r.at_end());
}

TEST(BufferTest, VarintBoundaryValues) {
  const std::uint64_t cases[] = {0,    1,        127,        128,
                                 300,  16383,    16384,      UINT32_MAX,
                                 UINT64_MAX};
  for (const std::uint64_t v : cases) {
    serde::Writer w;
    w.varint(v);
    serde::Reader r(w.view());
    EXPECT_EQ(*r.varint(), v) << v;
  }
}

TEST(BufferTest, SignedVarintZigZag) {
  const std::int64_t cases[] = {0, 1, -1, 63, -64, 1000000, -1000000,
                                INT64_MAX, INT64_MIN};
  for (const std::int64_t v : cases) {
    serde::Writer w;
    w.svarint(v);
    serde::Reader r(w.view());
    EXPECT_EQ(*r.svarint(), v) << v;
  }
}

TEST(BufferTest, TruncatedReadsFailCleanly) {
  serde::Writer w;
  w.u64(42);
  {
    serde::Reader r(w.view().data(), 3);  // cut mid-word
    const auto v = r.u64();
    ASSERT_FALSE(v.has_value());
    EXPECT_EQ(v.error().code(), ErrorCode::kParseError);
  }
  {
    serde::Writer sw;
    sw.string("a long string that gets cut");
    serde::Reader r(sw.view().data(), 4);
    const auto s = r.string();
    ASSERT_FALSE(s.has_value());
    EXPECT_EQ(s.error().code(), ErrorCode::kParseError);
  }
}

TEST(BufferTest, EmptyReaderFailsEverything) {
  serde::Reader r(nullptr, 0);
  EXPECT_FALSE(r.u8().has_value());
  EXPECT_FALSE(r.varint().has_value());
  EXPECT_FALSE(r.string().has_value());
  EXPECT_TRUE(r.at_end());
}

TEST(BufferTest, MalformedVarintTooLong) {
  std::vector<std::byte> bytes(11, std::byte{0x80});  // never terminates
  serde::Reader r(bytes);
  const auto v = r.varint();
  ASSERT_FALSE(v.has_value());
}

TEST(BufferTest, BooleanRejectsNonBinaryByte) {
  serde::Writer w;
  w.u8(2);
  serde::Reader r(w.view());
  EXPECT_FALSE(r.boolean().has_value());
}

TEST(BufferTest, SkipBoundsChecked) {
  serde::Writer w;
  w.u32(1);
  serde::Reader r(w.view());
  EXPECT_TRUE(r.skip(4).is_ok());
  EXPECT_FALSE(r.skip(1).is_ok());
}

// ----------------------------------------------------------------- frame

std::string hex(const std::byte* data, std::size_t size) {
  static const char* const kDigits = "0123456789abcdef";
  std::string out;
  for (std::size_t i = 0; i < size; ++i) {
    const auto b = static_cast<unsigned>(data[i]);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xFU]);
  }
  return out;
}

// The WAL's on-disk bytes are a compatibility surface: a frame written by
// one build must recover under the next. These literals pin the layout
// [u32 crc LE][varint len][payload], with the CRC over varint + payload.
TEST(FrameTest, AppendFrameBytesArePinned) {
  std::vector<std::byte> out{std::byte{0xEE}};  // appends, never overwrites
  const std::vector<std::byte> payload{std::byte{1}, std::byte{2},
                                       std::byte{3}, std::byte{'s'},
                                       std::byte{'c'}, std::byte{'i'}};
  serde::append_frame(out, payload);
  EXPECT_EQ(hex(out.data(), out.size()), "eefef29c7106010203736369");

  // A two-byte length varint (200 = 0xc8 0x01) is covered by the CRC too.
  std::vector<std::byte> big;
  for (int i = 0; i < 200; ++i) {
    big.push_back(static_cast<std::byte>(i % 251));
  }
  std::vector<std::byte> framed;
  serde::append_frame(framed, big);
  ASSERT_EQ(framed.size(), 206U);
  EXPECT_EQ(hex(framed.data(), 6), "8a2b3aa7c801");
  EXPECT_EQ(std::vector<std::byte>(framed.begin() + 6, framed.end()), big);
}

// ----------------------------------------------------------------- Value

Value random_value(Rng& rng, int depth) {
  const auto pick = depth >= 3 ? rng.next_below(6) : rng.next_below(8);
  switch (pick) {
    case 0:
      return Value();
    case 1:
      return Value(rng.next_bool(0.5));
    case 2:
      return Value(rng.next_int(INT64_MIN / 2, INT64_MAX / 2));
    case 3:
      return Value(rng.next_double(-1e9, 1e9));
    case 4: {
      std::string s;
      const auto len = rng.next_below(20);
      for (std::uint64_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>('a' + rng.next_below(26)));
      }
      return Value(std::move(s));
    }
    case 5:
      return Value(Guid::random(rng));
    case 6: {
      ValueList list;
      const auto n = rng.next_below(5);
      for (std::uint64_t i = 0; i < n; ++i) {
        list.push_back(random_value(rng, depth + 1));
      }
      return Value(std::move(list));
    }
    default: {
      ValueMap map;
      const auto n = rng.next_below(5);
      for (std::uint64_t i = 0; i < n; ++i) {
        map.emplace("k" + std::to_string(i), random_value(rng, depth + 1));
      }
      return Value(std::move(map));
    }
  }
}

class ValueRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ValueRoundTripTest, ArbitraryTreesSurviveEncodeDecode) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const Value original = random_value(rng, 0);
    serde::Writer w;
    original.encode(w);
    serde::Reader r(w.view());
    const auto decoded = Value::decode(r);
    ASSERT_TRUE(decoded.has_value()) << decoded.error().to_string();
    EXPECT_EQ(*decoded, original);
    EXPECT_TRUE(r.at_end());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueRoundTripTest,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 99, 12345));

TEST(ValueTest, AccessorsAndCoercions) {
  const Value v = vmap({{"n", 42},
                        {"d", 2.5},
                        {"s", "text"},
                        {"b", true},
                        {"list", vlist({1, 2, 3})}});
  EXPECT_EQ(v.at("n").get_int(), 42);
  EXPECT_TRUE(v.contains("d"));
  EXPECT_FALSE(v.contains("missing"));
  EXPECT_TRUE(v.at("missing").is_null());
  EXPECT_DOUBLE_EQ(v.at("n").number_or(0), 42.0);
  EXPECT_DOUBLE_EQ(v.at("d").number_or(0), 2.5);
  EXPECT_DOUBLE_EQ(v.at("s").number_or(-1), -1.0);
  EXPECT_EQ(v.at("s").string_or("x"), "text");
  EXPECT_EQ(v.at("n").string_or("x"), "x");
  ASSERT_TRUE(v.at("n").as_double().has_value());  // int → double widening
  EXPECT_FALSE(v.at("s").as_double().has_value());
  EXPECT_FALSE(v.at("n").as_bool().has_value());
  EXPECT_EQ(v.at("list").get_list().size(), 3u);
}

TEST(ValueTest, SubscriptCreatesMapEntries) {
  Value v;
  v["a"] = Value(1);
  v["b"] = Value("two");
  EXPECT_EQ(v.kind(), Value::Kind::kMap);
  EXPECT_EQ(v.at("a").get_int(), 1);
  EXPECT_EQ(v.at("b").get_string(), "two");
}

TEST(ValueTest, DecodeRejectsUnknownTag) {
  serde::Writer w;
  w.u8(200);
  serde::Reader r(w.view());
  EXPECT_FALSE(Value::decode(r).has_value());
}

TEST(ValueTest, DecodeRejectsOverlongContainerCount) {
  serde::Writer w;
  w.u8(static_cast<std::uint8_t>(Value::Kind::kList));
  w.varint(1'000'000);  // count exceeds remaining bytes
  serde::Reader r(w.view());
  EXPECT_FALSE(Value::decode(r).has_value());
}

TEST(ValueTest, DecodeRejectsExcessiveNesting) {
  serde::Writer w;
  for (int i = 0; i < 100; ++i) {
    w.u8(static_cast<std::uint8_t>(Value::Kind::kList));
    w.varint(1);
  }
  w.u8(static_cast<std::uint8_t>(Value::Kind::kNull));
  serde::Reader r(w.view());
  EXPECT_FALSE(Value::decode(r).has_value());
}

TEST(ValueTest, ToStringIsStable) {
  const Value v = vmap({{"b", true}, {"a", 1}});
  EXPECT_EQ(v.to_string(), "{\"a\":1,\"b\":true}");  // map keys sorted
  EXPECT_EQ(Value().to_string(), "null");
  EXPECT_EQ(vlist({1, "x"}).to_string(), "[1,\"x\"]");
}

// ------------------------------------------------------------------- XML

TEST(XmlTest, ParsesTheFig6QueryShape) {
  const char* text = R"(
    <query>
      <query_id>q1</query_id>
      <owner_id>00000000000000000000000000000001</owner_id>
      <what><entity type="printer"/></what>
      <where explicit="campus/tower/level10"/>
      <when/>
      <which policy="closest"><require key="has_paper" equals="true"/></which>
      <mode>advertisement</mode>
    </query>)";
  const auto doc = xml::parse(text);
  ASSERT_TRUE(doc.has_value()) << doc.error().to_string();
  EXPECT_EQ(doc->name, "query");
  EXPECT_EQ(doc->child_text("query_id"), "q1");
  const xml::Element* what = doc->child("what");
  ASSERT_NE(what, nullptr);
  ASSERT_NE(what->child("entity"), nullptr);
  EXPECT_EQ(what->child("entity")->attribute_or("type", ""), "printer");
  const xml::Element* which = doc->child("which");
  ASSERT_NE(which, nullptr);
  EXPECT_EQ(which->children_named("require").size(), 1u);
}

TEST(XmlTest, SerializeParseRoundTrip) {
  xml::Element root;
  root.name = "config";
  root.attributes.emplace("version", "1.0");
  xml::Element child;
  child.name = "item";
  child.text = "a < b & c > d \"quoted\"";
  child.attributes.emplace("id", "x'y");
  root.children.push_back(child);
  root.children.push_back(xml::Element{"empty", {}, "", {}});

  const std::string text = xml::serialize(root);
  const auto reparsed = xml::parse(text);
  ASSERT_TRUE(reparsed.has_value()) << reparsed.error().to_string();
  EXPECT_EQ(reparsed->name, "config");
  EXPECT_EQ(reparsed->attribute_or("version", ""), "1.0");
  ASSERT_EQ(reparsed->children.size(), 2u);
  EXPECT_EQ(reparsed->children[0].text, "a < b & c > d \"quoted\"");
  EXPECT_EQ(reparsed->children[0].attribute_or("id", ""), "x'y");
}

TEST(XmlTest, EntitiesDecode) {
  const auto doc =
      xml::parse("<a>&lt;&gt;&amp;&quot;&apos;&#65;</a>");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->text, "<>&\"'A");
}

TEST(XmlTest, CommentsAndDeclarationsAreSkipped) {
  const auto doc = xml::parse(
      "<?xml version=\"1.0\"?><!-- header --><a><!-- inner --><b/></a>");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->children.size(), 1u);
}

struct MalformedCase {
  const char* name;
  const char* text;
};

// Print the case name, not gtest's default byte dump: the dump shows the
// pointer values, so every build would list the cases under new names.
void PrintTo(const MalformedCase& c, std::ostream* os) { *os << c.name; }

class XmlMalformedTest : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(XmlMalformedTest, IsRejectedWithParseError) {
  const auto doc = xml::parse(GetParam().text);
  ASSERT_FALSE(doc.has_value()) << GetParam().name;
  EXPECT_EQ(doc.error().code(), ErrorCode::kParseError);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, XmlMalformedTest,
    ::testing::Values(
        MalformedCase{"empty", ""},
        MalformedCase{"no_root", "   "},
        MalformedCase{"unterminated", "<a><b></b>"},
        MalformedCase{"mismatched", "<a></b>"},
        MalformedCase{"bad_attr", "<a x=1/>"},
        MalformedCase{"dup_attr", "<a x=\"1\" x=\"2\"/>"},
        MalformedCase{"trailing", "<a/><b/>"},
        MalformedCase{"bad_entity", "<a>&nosuch;</a>"},
        MalformedCase{"unterminated_entity", "<a>&lt</a>"},
        MalformedCase{"unterminated_attr", "<a x=\"1/>"},
        MalformedCase{"bare_text", "just text"}),
    [](const ::testing::TestParamInfo<MalformedCase>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(XmlTest, DeepNestingIsBounded) {
  std::string text;
  for (int i = 0; i < 80; ++i) text += "<a>";
  for (int i = 0; i < 80; ++i) text += "</a>";
  EXPECT_FALSE(xml::parse(text).has_value());
}

TEST(XmlTest, EscapeCoversAllSpecials) {
  EXPECT_EQ(xml::escape("<>&\"'"), "&lt;&gt;&amp;&quot;&apos;");
  EXPECT_EQ(xml::escape("plain"), "plain");
}

}  // namespace
}  // namespace sci
