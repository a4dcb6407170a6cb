// Unit tests for sci::query — the Fig 6 query model and its XML wire form.
#include <gtest/gtest.h>

#include <ostream>

#include "common/rng.h"
#include "query/query.h"

namespace sci::query {
namespace {

Guid guid_of(std::uint64_t n) { return Guid(0, n); }

TEST(QueryXmlTest, MinimalSubscriptionRoundTrips) {
  const Query original = Builder("q1", guid_of(1))
                             .what_pattern("temperature")
                             .unit("celsius")
                             .subscribe();
  const auto reparsed = Query::parse(original.to_xml());
  ASSERT_TRUE(reparsed.has_value()) << reparsed.error().to_string();
  EXPECT_EQ(reparsed->id, "q1");
  EXPECT_EQ(reparsed->owner, guid_of(1));
  EXPECT_EQ(reparsed->what.kind, WhatKind::kPattern);
  EXPECT_EQ(reparsed->what.type, "temperature");
  EXPECT_EQ(reparsed->what.unit, "celsius");
  EXPECT_EQ(reparsed->mode, QueryMode::kEventSubscription);
  EXPECT_TRUE(reparsed->where.is_empty());
  EXPECT_TRUE(reparsed->when.is_immediate());
}

TEST(QueryXmlTest, FullCapaQueryRoundTrips) {
  const auto office = *location::LogicalPath::parse("campus/tower/l10/room1");
  const Query original = Builder("q-print", guid_of(2))
                             .what_entity_type("printing")
                             .in(office)
                             .when_enters(guid_of(3), office)
                             .expires_after(120.0)
                             .select(SelectPolicy::kClosest)
                             .require("has_paper", Value(true))
                             .require("queue_length", Value(std::int64_t{0}))
                             .check_access()
                             .advertisement();
  const auto reparsed = Query::parse(original.to_xml());
  ASSERT_TRUE(reparsed.has_value()) << reparsed.error().to_string();
  EXPECT_EQ(reparsed->what.kind, WhatKind::kEntityType);
  EXPECT_EQ(reparsed->what.entity_type, "printing");
  ASSERT_TRUE(reparsed->where.explicit_path.has_value());
  EXPECT_EQ(reparsed->where.explicit_path->to_string(),
            "campus/tower/l10/room1");
  ASSERT_TRUE(reparsed->when.trigger.has_value());
  EXPECT_EQ(reparsed->when.trigger->entity, guid_of(3));
  EXPECT_EQ(reparsed->when.trigger->place.to_string(),
            "campus/tower/l10/room1");
  EXPECT_DOUBLE_EQ(reparsed->when.expires_after_seconds, 120.0);
  EXPECT_EQ(reparsed->which.policy, SelectPolicy::kClosest);
  ASSERT_EQ(reparsed->which.require.size(), 2u);
  EXPECT_EQ(reparsed->which.require[0].key, "has_paper");
  EXPECT_EQ(reparsed->which.require[0].equals, Value(true));
  EXPECT_EQ(reparsed->which.require[1].equals, Value(std::int64_t{0}));
  EXPECT_TRUE(reparsed->which.check_access);
  EXPECT_EQ(reparsed->mode, QueryMode::kAdvertisementRequest);
}

TEST(QueryXmlTest, NamedEntityAndSubjectRoundTrip) {
  const Query original =
      Builder("q2", guid_of(4)).what_named(guid_of(5)).profile();
  const auto reparsed = Query::parse(original.to_xml());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->what.kind, WhatKind::kNamedEntity);
  EXPECT_EQ(reparsed->what.named, guid_of(5));

  const Query pattern = Builder("q3", guid_of(4))
                            .what_pattern("path.update")
                            .semantic("route")
                            .about(guid_of(6))
                            .relative_to(guid_of(7))
                            .subscribe();
  const auto reparsed2 = Query::parse(pattern.to_xml());
  ASSERT_TRUE(reparsed2.has_value());
  EXPECT_EQ(reparsed2->what.semantic, "route");
  ASSERT_TRUE(reparsed2->what.subject.has_value());
  EXPECT_EQ(*reparsed2->what.subject, guid_of(6));
  ASSERT_TRUE(reparsed2->where.relative_to.has_value());
  EXPECT_EQ(*reparsed2->where.relative_to, guid_of(7));
  EXPECT_FALSE(reparsed2->where.closest);
}

TEST(QueryXmlTest, AllModesRoundTrip) {
  for (const QueryMode mode :
       {QueryMode::kProfileRequest, QueryMode::kEventSubscription,
        QueryMode::kOneTimeSubscription, QueryMode::kAdvertisementRequest}) {
    // The escape hatch for code that carries the mode as a value.
    const Query q =
        Builder("q", guid_of(1)).what_pattern("t").mode(mode).build();
    const auto reparsed = Query::parse(q.to_xml());
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(reparsed->mode, mode);
  }
}

TEST(QueryXmlTest, NotBeforeAndRangeTargetRoundTrip) {
  const Query q = Builder("q", guid_of(1))
                      .what_pattern("t")
                      .not_before(12.5)
                      .in_range(guid_of(9))
                      .subscribe();
  const auto reparsed = Query::parse(q.to_xml());
  ASSERT_TRUE(reparsed.has_value());
  ASSERT_TRUE(reparsed->when.not_before_seconds.has_value());
  EXPECT_DOUBLE_EQ(*reparsed->when.not_before_seconds, 12.5);
  ASSERT_TRUE(reparsed->where.range.has_value());
  EXPECT_EQ(*reparsed->where.range, guid_of(9));
}

struct BadQueryCase {
  const char* name;
  const char* xml;
};

// Print the case name, not gtest's default byte dump: the dump shows the
// pointer values, so every build would list the cases under new names.
void PrintTo(const BadQueryCase& c, std::ostream* os) { *os << c.name; }

class QueryParseErrorTest : public ::testing::TestWithParam<BadQueryCase> {};

TEST_P(QueryParseErrorTest, IsRejected) {
  const auto q = Query::parse(GetParam().xml);
  EXPECT_FALSE(q.has_value()) << GetParam().name;
}

constexpr const char* kOwner = "00000000000000000000000000000001";

INSTANTIATE_TEST_SUITE_P(
    Cases, QueryParseErrorTest,
    ::testing::Values(
        BadQueryCase{"not_xml", "hello"},
        BadQueryCase{"wrong_root", "<q><query_id>1</query_id></q>"},
        BadQueryCase{"missing_id",
                     "<query><owner_id>00000000000000000000000000000001"
                     "</owner_id><what><pattern type=\"t\"/></what>"
                     "<mode>subscribe</mode></query>"},
        BadQueryCase{"missing_owner",
                     "<query><query_id>1</query_id><what><pattern "
                     "type=\"t\"/></what><mode>subscribe</mode></query>"},
        BadQueryCase{"bad_owner",
                     "<query><query_id>1</query_id><owner_id>zzz</owner_id>"
                     "<what><pattern type=\"t\"/></what>"
                     "<mode>subscribe</mode></query>"},
        BadQueryCase{"missing_what",
                     "<query><query_id>1</query_id><owner_id>"
                     "00000000000000000000000000000001</owner_id>"
                     "<mode>subscribe</mode></query>"},
        BadQueryCase{"empty_what",
                     "<query><query_id>1</query_id><owner_id>"
                     "00000000000000000000000000000001</owner_id><what/>"
                     "<mode>subscribe</mode></query>"},
        BadQueryCase{"pattern_without_type_or_semantic",
                     "<query><query_id>1</query_id><owner_id>"
                     "00000000000000000000000000000001</owner_id>"
                     "<what><pattern unit=\"c\"/></what>"
                     "<mode>subscribe</mode></query>"},
        BadQueryCase{"missing_mode",
                     "<query><query_id>1</query_id><owner_id>"
                     "00000000000000000000000000000001</owner_id>"
                     "<what><pattern type=\"t\"/></what></query>"},
        BadQueryCase{"bad_mode",
                     "<query><query_id>1</query_id><owner_id>"
                     "00000000000000000000000000000001</owner_id>"
                     "<what><pattern type=\"t\"/></what>"
                     "<mode>sometimes</mode></query>"},
        BadQueryCase{"bad_not_before",
                     "<query><query_id>1</query_id><owner_id>"
                     "00000000000000000000000000000001</owner_id>"
                     "<what><pattern type=\"t\"/></what>"
                     "<when not_before=\"soon\"/>"
                     "<mode>subscribe</mode></query>"},
        BadQueryCase{"bad_policy",
                     "<query><query_id>1</query_id><owner_id>"
                     "00000000000000000000000000000001</owner_id>"
                     "<what><pattern type=\"t\"/></what>"
                     "<which policy=\"best\"/>"
                     "<mode>subscribe</mode></query>"},
        BadQueryCase{"require_without_key",
                     "<query><query_id>1</query_id><owner_id>"
                     "00000000000000000000000000000001</owner_id>"
                     "<what><pattern type=\"t\"/></what>"
                     "<which><require equals=\"1\"/></which>"
                     "<mode>subscribe</mode></query>"}),
    [](const ::testing::TestParamInfo<BadQueryCase>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(QueryValidateTest, RejectsSemanticGaps) {
  Query q = Builder("q", guid_of(1)).what_pattern("t").subscribe();
  EXPECT_TRUE(q.validate().is_ok());
  q.which.policy = SelectPolicy::kMinAttr;  // needs attr_key
  EXPECT_FALSE(q.validate().is_ok());
  q.which.attr_key = "queue_length";
  EXPECT_TRUE(q.validate().is_ok());

  Query empty_owner = Builder("q", Guid()).what_pattern("t").subscribe();
  EXPECT_FALSE(empty_owner.validate().is_ok());

  Query named_nil = Builder("q", guid_of(1)).what_named(Guid()).profile();
  EXPECT_FALSE(named_nil.validate().is_ok());

  Query negative_expiry =
      Builder("q", guid_of(1)).what_pattern("t").expires_after(-1).subscribe();
  EXPECT_FALSE(negative_expiry.validate().is_ok());
}

TEST(QueryXmlTest, RequirementValueTypesInferredFromAttr) {
  const std::string xml = std::string(
      "<query><query_id>1</query_id><owner_id>") + kOwner +
      "</owner_id><what><pattern type=\"t\"/></what><which>"
      "<require key=\"b\" equals=\"true\"/>"
      "<require key=\"i\" equals=\"42\"/>"
      "<require key=\"d\" equals=\"2.5\"/>"
      "<require key=\"s\" equals=\"text\"/>"
      "</which><mode>subscribe</mode></query>";
  const auto q = Query::parse(xml);
  ASSERT_TRUE(q.has_value()) << q.error().to_string();
  ASSERT_EQ(q->which.require.size(), 4u);
  EXPECT_EQ(q->which.require[0].equals, Value(true));
  EXPECT_EQ(q->which.require[1].equals, Value(std::int64_t{42}));
  EXPECT_EQ(q->which.require[2].equals, Value(2.5));
  EXPECT_EQ(q->which.require[3].equals, Value("text"));
}

TEST(QueryBuilderTest, TerminalsStampTheMode) {
  const Builder b = Builder("q", guid_of(1)).what_pattern("t");
  EXPECT_EQ(b.subscribe().mode, QueryMode::kEventSubscription);
  EXPECT_EQ(b.once().mode, QueryMode::kOneTimeSubscription);
  EXPECT_EQ(b.profile().mode, QueryMode::kProfileRequest);
  EXPECT_EQ(b.advertisement().mode, QueryMode::kAdvertisementRequest);
  // Terminals don't consume the builder: each call re-stamps a copy.
  EXPECT_EQ(b.build().what.type, "t");
}

TEST(QueryBuilderTest, SemanticAloneSelectsPatternKind) {
  const Query q = Builder("q", guid_of(1)).semantic("route").subscribe();
  EXPECT_EQ(q.what.kind, WhatKind::kPattern);
  EXPECT_EQ(q.what.semantic, "route");
  EXPECT_TRUE(q.what.type.empty());
  EXPECT_TRUE(q.validate().is_ok());
}

TEST(QueryBuilderTest, ClosestToSetsAnchorAndFlag) {
  const Query q = Builder("q", guid_of(1))
                      .what_entity_type("printing")
                      .closest_to(guid_of(8))
                      .fresh_within(30.0)
                      .min_confidence(0.5)
                      .advertisement();
  EXPECT_TRUE(q.where.closest);
  ASSERT_TRUE(q.where.relative_to.has_value());
  EXPECT_EQ(*q.where.relative_to, guid_of(8));
  EXPECT_DOUBLE_EQ(q.which.fresh_within_seconds, 30.0);
  EXPECT_DOUBLE_EQ(q.which.min_confidence, 0.5);
}

// The mode()/build() escape hatch for generic code must produce the same
// document as the matching terminal.
TEST(QueryBuilderTest, ModeBuildMatchesTerminal) {
  const Builder b = Builder("q", guid_of(2))
                        .what_pattern("temperature")
                        .unit("celsius")
                        .semantic("ambient")
                        .closest_to_me()
                        .expires_after(60.0);
  Builder copy = b;
  const Query via_mode = copy.mode(QueryMode::kOneTimeSubscription).build();
  EXPECT_EQ(via_mode.to_xml(), b.once().to_xml());
}

}  // namespace
}  // namespace sci::query
