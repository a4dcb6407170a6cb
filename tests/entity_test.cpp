// Unit tests for sci::entity — profile/advertisement codecs, the protocol
// body codecs, and concrete CE behaviour driven directly.
#include <gtest/gtest.h>

#include "core/sci.h"
#include "entity/printer.h"
#include "entity/profile.h"
#include "entity/protocol.h"
#include "entity/sensors.h"
#include "mobility/building.h"

#include "metric_counts.h"

namespace sci::entity {
namespace {

Guid guid_of(std::uint64_t n) { return Guid(0, n); }

TEST(EntityKindTest, StringRoundTrip) {
  for (const EntityKind kind :
       {EntityKind::kPerson, EntityKind::kSoftware, EntityKind::kPlace,
        EntityKind::kDevice, EntityKind::kArtifact}) {
    const auto parsed = entity_kind_from_string(to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(entity_kind_from_string("robot").has_value());
}

TEST(TypeSigTest, ToStringAndCodec) {
  const TypeSig sig{"temperature", "celsius", "ambient-temperature"};
  EXPECT_EQ(sig.to_string(), "temperature[celsius]{ambient-temperature}");
  EXPECT_EQ((TypeSig{"t", "", ""}).to_string(), "t");
  serde::Writer w;
  sig.encode(w);
  serde::Reader r(w.view());
  const auto decoded = TypeSig::decode(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, sig);
}

TEST(ProfileTest, CodecRoundTripWithLocationAndMetadata) {
  Profile p;
  p.entity = guid_of(7);
  p.name = "Printer P1";
  p.kind = EntityKind::kDevice;
  p.inputs.push_back({"a", "", ""});
  p.outputs.push_back({"printer.status", "", "device-status"});
  p.metadata = vmap({{"queue_length", 2}, {"has_paper", true}});
  p.location = location::LocRef::from_place(5);

  serde::Writer w;
  p.encode(w);
  serde::Reader r(w.view());
  const auto decoded = Profile::decode(r);
  ASSERT_TRUE(decoded.has_value()) << decoded.error().to_string();
  EXPECT_EQ(decoded->entity, p.entity);
  EXPECT_EQ(decoded->name, p.name);
  EXPECT_EQ(decoded->kind, p.kind);
  EXPECT_EQ(decoded->inputs, p.inputs);
  EXPECT_EQ(decoded->outputs, p.outputs);
  EXPECT_EQ(decoded->metadata, p.metadata);
  EXPECT_EQ(decoded->location.place, 5u);
}

TEST(ProfileTest, ProducesConsumesLookups) {
  Profile p;
  p.inputs.push_back({"in.a", "", ""});
  p.outputs.push_back({"out.b", "", ""});
  EXPECT_TRUE(p.consumes("in.a"));
  EXPECT_FALSE(p.consumes("out.b"));
  EXPECT_TRUE(p.produces("out.b"));
  EXPECT_FALSE(p.produces("in.a"));
  EXPECT_NE(p.output_named("out.b"), nullptr);
  EXPECT_EQ(p.output_named("zzz"), nullptr);
}

TEST(AdvertisementTest, CodecAndMethodLookup) {
  Advertisement ad;
  ad.service = "printing";
  ad.methods.push_back({"print", {"document", "pages"}});
  ad.methods.push_back({"status", {}});
  ad.attributes = vmap({{"pages_per_minute", 12.0}});
  serde::Writer w;
  ad.encode(w);
  serde::Reader r(w.view());
  const auto decoded = Advertisement::decode(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->service, "printing");
  ASSERT_EQ(decoded->methods.size(), 2u);
  EXPECT_EQ(decoded->methods[0].params.size(), 2u);
  EXPECT_NE(decoded->method("print"), nullptr);
  EXPECT_EQ(decoded->method("nothing"), nullptr);
  EXPECT_EQ(decoded->attributes, ad.attributes);
}

TEST(ProtocolTest, AllBodiesRoundTrip) {
  {
    const HelloBody b{true, "CAPA"};
    const auto d = HelloBody::decode(b.encode());
    ASSERT_TRUE(d.has_value());
    EXPECT_TRUE(d->is_app);
    EXPECT_EQ(d->name, "CAPA");
  }
  {
    const RangeInfoBody b{guid_of(1), guid_of(2)};
    const auto d = RangeInfoBody::decode(b.encode());
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->range, guid_of(1));
    EXPECT_EQ(d->registrar, guid_of(2));
  }
  {
    Profile p;
    p.entity = guid_of(3);
    p.name = "x";
    Advertisement ad;
    ad.service = "svc";
    const RegisterRequestBody b{false, p, ad};
    const auto d = RegisterRequestBody::decode(b.encode());
    ASSERT_TRUE(d.has_value());
    EXPECT_FALSE(d->is_app);
    EXPECT_EQ(d->profile.entity, guid_of(3));
    ASSERT_TRUE(d->advertisement.has_value());
    EXPECT_EQ(d->advertisement->service, "svc");
    // Without advertisement.
    const RegisterRequestBody b2{true, p, std::nullopt};
    const auto d2 = RegisterRequestBody::decode(b2.encode());
    ASSERT_TRUE(d2.has_value());
    EXPECT_FALSE(d2->advertisement.has_value());
  }
  {
    RegisterAckBody b;
    b.accepted = true;
    b.range = guid_of(4);
    b.context_server = guid_of(5);
    b.event_mediator = guid_of(5);
    const auto d = RegisterAckBody::decode(b.encode());
    ASSERT_TRUE(d.has_value());
    EXPECT_TRUE(d->accepted);
    EXPECT_EQ(d->event_mediator, guid_of(5));
  }
  {
    event::Event e;
    e.type = "t";
    e.source = guid_of(6);
    e.payload = vmap({{"v", 1}});
    const PublishBody b{e};
    const auto d = PublishBody::decode(b.encode());
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->event.type, "t");

    const DeliverBody db{9, 42, e};
    const auto dd = DeliverBody::decode(db.encode());
    ASSERT_TRUE(dd.has_value());
    EXPECT_EQ(dd->subscription, 9u);
    EXPECT_EQ(dd->owner_tag, 42u);
  }
  {
    const ConfigureBody b{7, vmap({{"from", guid_of(8)}})};
    const auto d = ConfigureBody::decode(b.encode());
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->config_tag, 7u);
    EXPECT_EQ(d->params.at("from"), Value(guid_of(8)));
  }
  {
    const QuerySubmitBody b{"q1", "<query/>"};
    const auto d = QuerySubmitBody::decode(b.encode());
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->query_id, "q1");
    EXPECT_EQ(d->xml, "<query/>");

    QueryResultBody rb;
    rb.query_id = "q1";
    rb.status = static_cast<std::uint8_t>(ErrorCode::kTimeout);
    rb.message = "expired";
    const auto rd = QueryResultBody::decode(rb.encode());
    ASSERT_TRUE(rd.has_value());
    EXPECT_EQ(rd->status, static_cast<std::uint8_t>(ErrorCode::kTimeout));
  }
  {
    const ServiceInvokeBody b{3, "print", vmap({{"pages", 2}})};
    const auto d = ServiceInvokeBody::decode(b.encode());
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->method, "print");

    ServiceReplyBody rb;
    rb.invoke_id = 3;
    rb.result = Value("ok");
    const auto rd = ServiceReplyBody::decode(rb.encode());
    ASSERT_TRUE(rd.has_value());
    EXPECT_EQ(rd->invoke_id, 3u);
  }
  // Truncated bodies error instead of crashing.
  {
    const HelloBody b{true, "CAPA"};
    auto bytes = b.encode().to_vector();
    bytes.resize(1);
    EXPECT_FALSE(HelloBody::decode(bytes).has_value());
  }
}

// ------------------------------------------------- concrete CE behaviour

struct CeFixture {
  Sci sci{5};
  mobility::Building building{{.floors = 1, .rooms_per_floor = 3}};
  range::ContextServer* range = nullptr;

  CeFixture() {
    sci.set_location_directory(&building.directory());
    range = sci.create_range("r", building.building_path()).value();
  }
};

TEST(DoorSensorTest, PublishesTransitEventsWithEndpoints) {
  CeFixture f;
  DoorSensorCE door(f.sci.network(), f.sci.new_guid(), "door",
                    f.building.corridor(0), f.building.room(0, 0));
  ASSERT_TRUE(f.sci.enroll(door, *f.range).is_ok());
  door.sense_transit(guid_of(1), f.building.corridor(0),
                     f.building.room(0, 0));
  f.sci.run_for(Duration::millis(100));
  EXPECT_EQ(door.stats().events_published, 1u);
  EXPECT_EQ(node_count(*f.range, "cs.events_in"), 1u);
}

TEST(ObjectLocationTest, TracksEntitiesFromTransits) {
  CeFixture f;
  ObjectLocationCE locator(f.sci.network(), f.sci.new_guid(), "loc",
                           &f.building.directory());
  EXPECT_EQ(locator.last_place(guid_of(1)), location::kNoPlace);
  locator.seed(guid_of(1), f.building.room(0, 0));
  EXPECT_EQ(locator.last_place(guid_of(1)), f.building.room(0, 0));
}

TEST(PrinterTest, QueueAndCompletionLifecycle) {
  CeFixture f;
  PrinterCE printer(f.sci.network(), f.sci.new_guid(), "P",
                    f.building.room(0, 0), /*pages_per_minute=*/60.0);
  ASSERT_TRUE(f.sci.enroll(printer, *f.range).is_ok());
  EXPECT_FALSE(printer.is_busy());
  EXPECT_EQ(printer.located_in(), f.building.room(0, 0));

  // Drive the service interface through the component message path by
  // enqueuing via a second component.
  ContextAwareApp app(f.sci.network(), f.sci.new_guid(), "app",
                      EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(app, *f.range).is_ok());
  app.invoke_service(printer.id(), "print",
                     vmap({{"document", "a"},
                           {"pages", 2},
                           {"owner", guid_of(1)}}));
  app.invoke_service(printer.id(), "print",
                     vmap({{"document", "b"},
                           {"pages", 2},
                           {"owner", guid_of(1)}}));
  f.sci.run_for(Duration::millis(200));
  EXPECT_TRUE(printer.is_busy());
  EXPECT_EQ(printer.queue_length(), 1u);  // one printing, one queued
  // 2 pages at 60ppm = 2s each.
  f.sci.run_for(Duration::seconds(5));
  EXPECT_FALSE(printer.is_busy());
  EXPECT_EQ(printer.jobs_completed(), 2u);
}

TEST(PrinterTest, RefusalsAndAccessControl) {
  CeFixture f;
  PrinterCE printer(f.sci.network(), f.sci.new_guid(), "P",
                    f.building.room(0, 0));
  ASSERT_TRUE(f.sci.enroll(printer, *f.range).is_ok());

  struct ReplyApp final : ContextAwareApp {
    using ContextAwareApp::ContextAwareApp;
    std::vector<Error> errors;
    void on_service_reply(std::uint64_t, const Error& error,
                          const Value&) override {
      errors.push_back(error);
    }
  };
  ReplyApp app(f.sci.network(), f.sci.new_guid(), "app",
               EntityKind::kSoftware);
  ASSERT_TRUE(f.sci.enroll(app, *f.range).is_ok());

  // Let each invocation land before mutating printer state again (the
  // invoke frames are in flight on the simulated network).
  printer.set_paper(false);
  app.invoke_service(printer.id(), "print",
                     vmap({{"document", "a"}, {"owner", guid_of(1)}}));
  f.sci.run_for(Duration::millis(100));
  printer.set_paper(true);
  printer.set_locked(true);
  app.invoke_service(printer.id(), "print",
                     vmap({{"document", "a"}, {"owner", guid_of(1)}}));
  f.sci.run_for(Duration::millis(100));
  printer.add_keyholder(guid_of(1));
  app.invoke_service(printer.id(), "print",
                     vmap({{"document", "a"}, {"owner", guid_of(1)}}));
  f.sci.run_for(Duration::millis(300));
  ASSERT_EQ(app.errors.size(), 3u);
  EXPECT_EQ(app.errors[0].code(), ErrorCode::kUnavailable);
  EXPECT_EQ(app.errors[1].code(), ErrorCode::kPermissionDenied);
  EXPECT_TRUE(app.errors[2].ok());
}

TEST(TemperatureSensorTest, PublishesPeriodicallyOnlyWhileRegistered) {
  CeFixture f;
  TemperatureSensorCE sensor(f.sci.network(), f.sci.new_guid(), "s",
                             "celsius", Duration::seconds(1));
  ASSERT_TRUE(f.sci.enroll(sensor, *f.range).is_ok());
  f.sci.run_for(Duration::millis(3500));
  const auto published = sensor.stats().events_published;
  EXPECT_EQ(published, 3u);
  sensor.stop();
  f.sci.run_for(Duration::seconds(3));
  EXPECT_EQ(sensor.stats().events_published, published);
}

TEST(ComponentTest, PublishWhileUnregisteredIsDropped) {
  CeFixture f;
  DoorSensorCE door(f.sci.network(), f.sci.new_guid(), "door",
                    f.building.corridor(0), f.building.room(0, 0));
  door.start();
  door.sense_transit(guid_of(1), f.building.corridor(0),
                     f.building.room(0, 0));
  f.sci.run_for(Duration::millis(100));
  EXPECT_EQ(door.stats().events_published, 0u);
  EXPECT_EQ(registry_count(f.sci.metrics(), "cs.events_in"), 0u);
}

TEST(ComponentTest, SubmitQueryWhileUnregisteredFails) {
  CeFixture f;
  ContextAwareApp app(f.sci.network(), f.sci.new_guid(), "app",
                      EntityKind::kSoftware);
  app.start();
  EXPECT_EQ(app.submit_query("q", "<query/>").error().code(),
            ErrorCode::kUnavailable);
}

}  // namespace
}  // namespace sci::entity
