#include "entity/protocol.h"

namespace sci::entity {

serde::BufferRef HelloBody::encode() const {
  serde::Writer w;
  w.boolean(is_app);
  w.string(name);
  return w.take_ref();
}

Expected<HelloBody> HelloBody::decode(serde::FrameView bytes) {
  serde::Reader r(bytes);
  HelloBody b;
  SCI_TRY_ASSIGN(is_app, r.boolean());
  b.is_app = is_app;
  SCI_TRY_ASSIGN(name, r.string());
  b.name = std::move(name);
  return b;
}

serde::BufferRef RangeInfoBody::encode() const {
  serde::Writer w;
  w.guid(range);
  w.guid(registrar);
  return w.take_ref();
}

Expected<RangeInfoBody> RangeInfoBody::decode(
    serde::FrameView bytes) {
  serde::Reader r(bytes);
  RangeInfoBody b;
  SCI_TRY_ASSIGN(range, r.guid());
  b.range = range;
  SCI_TRY_ASSIGN(registrar, r.guid());
  b.registrar = registrar;
  return b;
}

serde::BufferRef RegisterRequestBody::encode() const {
  serde::Writer w;
  // is_app, then the ProfileRecord wire form.
  w.boolean(is_app);
  profile.encode(w);
  w.boolean(advertisement.has_value());
  if (advertisement) advertisement->encode(w);
  return w.take_ref();
}

Expected<RegisterRequestBody> RegisterRequestBody::decode(
    serde::FrameView bytes) {
  serde::Reader r(bytes);
  RegisterRequestBody b;
  SCI_TRY_ASSIGN(is_app, r.boolean());
  b.is_app = is_app;
  SCI_TRY_ASSIGN(record, ProfileRecord::decode(r));
  b.profile = std::move(record.profile);
  b.advertisement = std::move(record.advertisement);
  return b;
}

serde::BufferRef RegisterAckBody::encode() const {
  serde::Writer w;
  w.boolean(accepted);
  w.string(reason);
  w.guid(range);
  w.guid(context_server);
  w.guid(event_mediator);
  w.varint(lease_renew_micros);
  return w.take_ref();
}

Expected<RegisterAckBody> RegisterAckBody::decode(
    serde::FrameView bytes) {
  serde::Reader r(bytes);
  RegisterAckBody b;
  SCI_TRY_ASSIGN(accepted, r.boolean());
  b.accepted = accepted;
  SCI_TRY_ASSIGN(reason, r.string());
  b.reason = std::move(reason);
  SCI_TRY_ASSIGN(range, r.guid());
  b.range = range;
  SCI_TRY_ASSIGN(cs, r.guid());
  b.context_server = cs;
  SCI_TRY_ASSIGN(em, r.guid());
  b.event_mediator = em;
  SCI_TRY_ASSIGN(lease_renew, r.varint());
  b.lease_renew_micros = lease_renew;
  return b;
}

serde::BufferRef PublishBody::encode() const {
  serde::Writer w;
  event.encode(w);
  return w.take_ref();
}

Expected<PublishBody> PublishBody::decode(
    serde::FrameView bytes) {
  serde::Reader r(bytes);
  PublishBody b;
  SCI_TRY_ASSIGN(event, event::Event::decode(r));
  b.event = std::move(event);
  return b;
}

serde::BufferRef DeliverBody::encode() const {
  serde::Writer w;
  w.varint(subscription);
  w.varint(owner_tag);
  event.encode(w);
  return w.take_ref();
}

Expected<DeliverBody> DeliverBody::decode(
    serde::FrameView bytes) {
  serde::Reader r(bytes);
  DeliverBody b;
  SCI_TRY_ASSIGN(subscription, r.varint());
  b.subscription = subscription;
  SCI_TRY_ASSIGN(owner_tag, r.varint());
  b.owner_tag = owner_tag;
  SCI_TRY_ASSIGN(event, event::Event::decode(r));
  b.event = std::move(event);
  return b;
}

serde::BufferRef ConfigureBody::encode() const {
  serde::Writer w;
  w.varint(config_tag);
  params.encode(w);
  return w.take_ref();
}

Expected<ConfigureBody> ConfigureBody::decode(
    serde::FrameView bytes) {
  serde::Reader r(bytes);
  ConfigureBody b;
  SCI_TRY_ASSIGN(config_tag, r.varint());
  b.config_tag = config_tag;
  SCI_TRY_ASSIGN(params, Value::decode(r));
  b.params = std::move(params);
  return b;
}

serde::BufferRef QuerySubmitBody::encode() const {
  serde::Writer w;
  w.string(query_id);
  w.string(xml);
  return w.take_ref();
}

Expected<QuerySubmitBody> QuerySubmitBody::decode(
    serde::FrameView bytes) {
  serde::Reader r(bytes);
  QuerySubmitBody b;
  SCI_TRY_ASSIGN(query_id, r.string());
  b.query_id = std::move(query_id);
  SCI_TRY_ASSIGN(xml, r.string());
  b.xml = std::move(xml);
  return b;
}

serde::BufferRef QueryResultBody::encode() const {
  serde::Writer w;
  w.string(query_id);
  w.u8(status);
  w.string(message);
  result.encode(w);
  return w.take_ref();
}

Expected<QueryResultBody> QueryResultBody::decode(
    serde::FrameView bytes) {
  serde::Reader r(bytes);
  QueryResultBody b;
  SCI_TRY_ASSIGN(query_id, r.string());
  b.query_id = std::move(query_id);
  SCI_TRY_ASSIGN(status, r.u8());
  b.status = status;
  SCI_TRY_ASSIGN(message, r.string());
  b.message = std::move(message);
  SCI_TRY_ASSIGN(result, Value::decode(r));
  b.result = std::move(result);
  return b;
}

serde::BufferRef ServiceInvokeBody::encode() const {
  serde::Writer w;
  w.varint(invoke_id);
  w.string(method);
  args.encode(w);
  return w.take_ref();
}

Expected<ServiceInvokeBody> ServiceInvokeBody::decode(
    serde::FrameView bytes) {
  serde::Reader r(bytes);
  ServiceInvokeBody b;
  SCI_TRY_ASSIGN(invoke_id, r.varint());
  b.invoke_id = invoke_id;
  SCI_TRY_ASSIGN(method, r.string());
  b.method = std::move(method);
  SCI_TRY_ASSIGN(args, Value::decode(r));
  b.args = std::move(args);
  return b;
}

serde::BufferRef ServiceReplyBody::encode() const {
  serde::Writer w;
  w.varint(invoke_id);
  w.u8(status);
  w.string(message);
  result.encode(w);
  return w.take_ref();
}

Expected<ServiceReplyBody> ServiceReplyBody::decode(
    serde::FrameView bytes) {
  serde::Reader r(bytes);
  ServiceReplyBody b;
  SCI_TRY_ASSIGN(invoke_id, r.varint());
  b.invoke_id = invoke_id;
  SCI_TRY_ASSIGN(status, r.u8());
  b.status = status;
  SCI_TRY_ASSIGN(message, r.string());
  b.message = std::move(message);
  SCI_TRY_ASSIGN(result, Value::decode(r));
  b.result = std::move(result);
  return b;
}

serde::BufferRef ProfileUpdateBody::encode() const {
  serde::Writer w;
  profile.encode(w);
  return w.take_ref();
}

Expected<ProfileUpdateBody> ProfileUpdateBody::decode(
    serde::FrameView bytes) {
  serde::Reader r(bytes);
  ProfileUpdateBody b;
  SCI_TRY_ASSIGN(profile, Profile::decode(r));
  b.profile = std::move(profile);
  return b;
}

serde::BufferRef RedirectBody::encode() const {
  serde::Writer w;
  w.guid(context_server);
  w.guid(event_mediator);
  return w.take_ref();
}

Expected<RedirectBody> RedirectBody::decode(
    serde::FrameView bytes) {
  serde::Reader r(bytes);
  RedirectBody b;
  SCI_TRY_ASSIGN(cs, r.guid());
  b.context_server = cs;
  SCI_TRY_ASSIGN(em, r.guid());
  b.event_mediator = em;
  return b;
}

}  // namespace sci::entity
