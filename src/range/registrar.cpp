#include "range/registrar.h"

#include <algorithm>

namespace sci::range {

void MemberRecord::encode(serde::Writer& w) const {
  w.guid(entity);
  w.boolean(is_app);
  w.svarint(registered_at.micros());
  w.svarint(last_seen.micros());
  w.varint(missed_pings);
}

Expected<MemberRecord> MemberRecord::decode(serde::Reader& r) {
  MemberRecord record;
  SCI_TRY_ASSIGN(entity, r.guid());
  record.entity = entity;
  SCI_TRY_ASSIGN(is_app, r.boolean());
  record.is_app = is_app;
  SCI_TRY_ASSIGN(registered_at, r.svarint());
  record.registered_at = SimTime::from_micros(registered_at);
  SCI_TRY_ASSIGN(last_seen, r.svarint());
  record.last_seen = SimTime::from_micros(last_seen);
  SCI_TRY_ASSIGN(missed, r.varint());
  record.missed_pings = static_cast<unsigned>(missed);
  return record;
}

Status Registrar::add(Guid entity, bool is_app, SimTime now) {
  if (entity.is_nil())
    return make_error(ErrorCode::kInvalidArgument, "nil entity guid");
  const auto [it, inserted] = members_.emplace(
      entity, MemberRecord{entity, is_app, now, now, 0});
  (void)it;
  if (!inserted)
    return make_error(ErrorCode::kAlreadyExists,
                      "entity already registered: " + entity.short_string());
  return Status::ok();
}

Status Registrar::remove(Guid entity) {
  if (members_.erase(entity) == 0)
    return make_error(ErrorCode::kNotFound,
                      "entity not registered: " + entity.short_string());
  return Status::ok();
}

const MemberRecord* Registrar::find(Guid entity) const {
  const auto it = members_.find(entity);
  return it == members_.end() ? nullptr : &it->second;
}

void Registrar::touch(Guid entity, SimTime now) {
  const auto it = members_.find(entity);
  if (it == members_.end()) return;
  it->second.last_seen = now;
  it->second.missed_pings = 0;
}

unsigned Registrar::record_missed_ping(Guid entity) {
  const auto it = members_.find(entity);
  if (it == members_.end()) return 0;
  return ++it->second.missed_pings;
}

void Registrar::clear_missed_pings(Guid entity) {
  const auto it = members_.find(entity);
  if (it != members_.end()) it->second.missed_pings = 0;
}

namespace {

std::vector<Guid> sorted(std::vector<Guid> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace

std::vector<Guid> Registrar::members() const {
  std::vector<Guid> ids;
  ids.reserve(members_.size());
  for (const auto& [id, record] : members_) ids.push_back(id);
  return sorted(std::move(ids));
}

std::vector<Guid> Registrar::entities() const {
  std::vector<Guid> ids;
  for (const auto& [id, record] : members_) {
    if (!record.is_app) ids.push_back(id);
  }
  return sorted(std::move(ids));
}

std::vector<Guid> Registrar::applications() const {
  std::vector<Guid> ids;
  for (const auto& [id, record] : members_) {
    if (record.is_app) ids.push_back(id);
  }
  return sorted(std::move(ids));
}

void ProfileManager::put(const entity::Profile& profile,
                         std::optional<entity::Advertisement> advertisement) {
  profiles_[profile.entity] =
      entity::ProfileRecord{profile, std::move(advertisement)};
  ++updates_;
}

Status ProfileManager::update(const entity::Profile& profile) {
  const auto it = profiles_.find(profile.entity);
  if (it == profiles_.end())
    return make_error(ErrorCode::kNotFound,
                      "no profile for " + profile.entity.short_string());
  // Discard older versions. The channel orders each sender's frames, but
  // after a vnode moves, the old owner's replay of a staged update and the
  // component's newer one reach the new owner from two senders.
  if (profile.version < it->second.profile.version) return Status::ok();
  it->second.profile = profile;
  ++updates_;
  return Status::ok();
}

Status ProfileManager::update_location(Guid entity, location::LocRef loc) {
  const auto it = profiles_.find(entity);
  if (it == profiles_.end())
    return make_error(ErrorCode::kNotFound,
                      "no profile for " + entity.short_string());
  it->second.profile.location = std::move(loc);
  ++updates_;
  return Status::ok();
}

Status ProfileManager::remove(Guid entity) {
  if (profiles_.erase(entity) == 0)
    return make_error(ErrorCode::kNotFound,
                      "no profile for " + entity.short_string());
  return Status::ok();
}

const entity::Profile* ProfileManager::profile(Guid entity) const {
  const auto it = profiles_.find(entity);
  return it == profiles_.end() ? nullptr : &it->second.profile;
}

const entity::Advertisement* ProfileManager::advertisement(Guid entity) const {
  const auto it = profiles_.find(entity);
  if (it == profiles_.end() || !it->second.advertisement) return nullptr;
  return &*it->second.advertisement;
}

const entity::ProfileRecord* ProfileManager::record(Guid entity) const {
  const auto it = profiles_.find(entity);
  return it == profiles_.end() ? nullptr : &it->second;
}

std::vector<entity::Profile> ProfileManager::snapshot() const {
  std::vector<entity::Profile> out;
  out.reserve(profiles_.size());
  for (const auto& [id, entry] : profiles_) out.push_back(entry.profile);
  std::sort(out.begin(), out.end(),
            [](const entity::Profile& a, const entity::Profile& b) {
              return a.entity < b.entity;
            });
  return out;
}

std::vector<entity::Profile> ProfileManager::snapshot_of(
    const std::vector<Guid>& ids) const {
  std::vector<entity::Profile> out;
  out.reserve(ids.size());
  for (const Guid id : ids) {
    if (const entity::Profile* p = profile(id); p != nullptr)
      out.push_back(*p);
  }
  return out;
}

}  // namespace sci::range
