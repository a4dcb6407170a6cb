#include "entity/profile.h"

#include <algorithm>

namespace sci::entity {

std::string_view to_string(EntityKind kind) {
  switch (kind) {
    case EntityKind::kPerson:
      return "person";
    case EntityKind::kSoftware:
      return "software";
    case EntityKind::kPlace:
      return "place";
    case EntityKind::kDevice:
      return "device";
    case EntityKind::kArtifact:
      return "artifact";
  }
  return "unknown";
}

Expected<EntityKind> entity_kind_from_string(std::string_view text) {
  if (text == "person") return EntityKind::kPerson;
  if (text == "software") return EntityKind::kSoftware;
  if (text == "place") return EntityKind::kPlace;
  if (text == "device") return EntityKind::kDevice;
  if (text == "artifact") return EntityKind::kArtifact;
  return make_error(ErrorCode::kParseError,
                    "unknown entity kind '" + std::string(text) + "'");
}

std::string TypeSig::to_string() const {
  std::string out = name;
  if (!unit.empty()) out += "[" + unit + "]";
  if (!semantic.empty()) out += "{" + semantic + "}";
  return out;
}

void TypeSig::encode(serde::Writer& w) const {
  w.string(name);
  w.string(unit);
  w.string(semantic);
}

Expected<TypeSig> TypeSig::decode(serde::Reader& r) {
  TypeSig sig;
  SCI_TRY_ASSIGN(name, r.string());
  sig.name = std::move(name);
  SCI_TRY_ASSIGN(unit, r.string());
  sig.unit = std::move(unit);
  SCI_TRY_ASSIGN(semantic, r.string());
  sig.semantic = std::move(semantic);
  return sig;
}

bool Profile::produces(std::string_view type_name) const {
  return output_named(type_name) != nullptr;
}

bool Profile::consumes(std::string_view type_name) const {
  return std::any_of(inputs.begin(), inputs.end(),
                     [&](const TypeSig& sig) { return sig.name == type_name; });
}

const TypeSig* Profile::output_named(std::string_view type_name) const {
  for (const TypeSig& sig : outputs) {
    if (sig.name == type_name) return &sig;
  }
  return nullptr;
}

namespace {

void encode_sig_list(serde::Writer& w, const std::vector<TypeSig>& sigs) {
  w.varint(sigs.size());
  for (const TypeSig& sig : sigs) sig.encode(w);
}

Expected<std::vector<TypeSig>> decode_sig_list(serde::Reader& r) {
  SCI_TRY_ASSIGN(count, r.varint());
  if (count > r.remaining())
    return make_error(ErrorCode::kParseError, "signature list exceeds frame");
  std::vector<TypeSig> sigs;
  sigs.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    SCI_TRY_ASSIGN(sig, TypeSig::decode(r));
    sigs.push_back(std::move(sig));
  }
  return sigs;
}

}  // namespace

void Profile::encode(serde::Writer& w) const {
  w.guid(entity);
  w.string(name);
  w.u8(static_cast<std::uint8_t>(kind));
  encode_sig_list(w, inputs);
  encode_sig_list(w, outputs);
  metadata.encode(w);
  location.to_value().encode(w);
  w.varint(version);
}

Expected<Profile> Profile::decode(serde::Reader& r) {
  Profile profile;
  SCI_TRY_ASSIGN(entity, r.guid());
  profile.entity = entity;
  SCI_TRY_ASSIGN(name, r.string());
  profile.name = std::move(name);
  SCI_TRY_ASSIGN(kind, r.u8());
  if (kind > static_cast<std::uint8_t>(EntityKind::kArtifact))
    return make_error(ErrorCode::kParseError, "bad entity kind");
  profile.kind = static_cast<EntityKind>(kind);
  SCI_TRY_ASSIGN(inputs, decode_sig_list(r));
  profile.inputs = std::move(inputs);
  SCI_TRY_ASSIGN(outputs, decode_sig_list(r));
  profile.outputs = std::move(outputs);
  SCI_TRY_ASSIGN(metadata, Value::decode(r));
  profile.metadata = std::move(metadata);
  SCI_TRY_ASSIGN(loc_value, Value::decode(r));
  SCI_TRY_ASSIGN(loc, location::LocRef::from_value(loc_value));
  profile.location = std::move(loc);
  SCI_TRY_ASSIGN(version, r.varint());
  profile.version = version;
  return profile;
}

const MethodDesc* Advertisement::method(std::string_view method_name) const {
  for (const MethodDesc& m : methods) {
    if (m.name == method_name) return &m;
  }
  return nullptr;
}

void MethodDesc::encode(serde::Writer& w) const {
  w.string(name);
  w.varint(params.size());
  for (const std::string& param : params) w.string(param);
}

Expected<MethodDesc> MethodDesc::decode(serde::Reader& r) {
  MethodDesc m;
  SCI_TRY_ASSIGN(name, r.string());
  m.name = std::move(name);
  SCI_TRY_ASSIGN(count, r.varint());
  if (count > r.remaining())
    return make_error(ErrorCode::kParseError, "param list exceeds frame");
  for (std::uint64_t i = 0; i < count; ++i) {
    SCI_TRY_ASSIGN(param, r.string());
    m.params.push_back(std::move(param));
  }
  return m;
}

void Advertisement::encode(serde::Writer& w) const {
  w.string(service);
  w.varint(methods.size());
  for (const MethodDesc& m : methods) m.encode(w);
  attributes.encode(w);
}

Expected<Advertisement> Advertisement::decode(serde::Reader& r) {
  Advertisement ad;
  SCI_TRY_ASSIGN(service, r.string());
  ad.service = std::move(service);
  SCI_TRY_ASSIGN(count, r.varint());
  if (count > r.remaining())
    return make_error(ErrorCode::kParseError, "method list exceeds frame");
  for (std::uint64_t i = 0; i < count; ++i) {
    SCI_TRY_ASSIGN(m, MethodDesc::decode(r));
    ad.methods.push_back(std::move(m));
  }
  SCI_TRY_ASSIGN(attributes, Value::decode(r));
  ad.attributes = std::move(attributes);
  return ad;
}

void ProfileRecord::encode(serde::Writer& w) const {
  profile.encode(w);
  w.boolean(advertisement.has_value());
  if (advertisement) advertisement->encode(w);
}

Expected<ProfileRecord> ProfileRecord::decode(serde::Reader& r) {
  ProfileRecord record;
  SCI_TRY_ASSIGN(profile, Profile::decode(r));
  record.profile = std::move(profile);
  SCI_TRY_ASSIGN(has_ad, r.boolean());
  if (has_ad) {
    SCI_TRY_ASSIGN(ad, Advertisement::decode(r));
    record.advertisement = std::move(ad);
  }
  return record;
}

}  // namespace sci::entity
