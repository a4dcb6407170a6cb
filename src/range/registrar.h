// SCI — Registrar and Profile Manager (two of the core Context Utilities,
// paper §3.1).
//
//   Registrar:       "maintains an accurate view of all entities within the
//                     current Range" — membership, liveness, arrival order.
//   Profile Manager: "provides access and update abilities to Context
//                     Entities Profiles" — the authoritative profile and
//                     advertisement store the Query Resolver matches
//                     against.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/expected.h"
#include "common/guid.h"
#include "common/time.h"
#include "entity/profile.h"
#include "serde/buffer.h"

namespace sci::range {

struct MemberRecord {
  Guid entity;
  bool is_app = false;
  SimTime registered_at;
  SimTime last_seen;     // refreshed by pings/publishes
  unsigned missed_pings = 0;

  // Snapshot and vnode-handoff wire form.
  void encode(serde::Writer& w) const;
  static Expected<MemberRecord> decode(serde::Reader& r);
};

class Registrar {
 public:
  Status add(Guid entity, bool is_app, SimTime now);
  Status remove(Guid entity);

  [[nodiscard]] bool contains(Guid entity) const {
    return members_.contains(entity);
  }
  [[nodiscard]] const MemberRecord* find(Guid entity) const;
  [[nodiscard]] std::size_t size() const { return members_.size(); }

  void touch(Guid entity, SimTime now);
  // Increments the miss counter; returns the new count (0 if unknown).
  unsigned record_missed_ping(Guid entity);
  void clear_missed_pings(Guid entity);

  // All member ids (GUID order — deterministic).
  [[nodiscard]] std::vector<Guid> members() const;
  [[nodiscard]] std::vector<Guid> entities() const;  // non-apps only
  [[nodiscard]] std::vector<Guid> applications() const;

  // Replication support: reinstate a membership record verbatim from a
  // snapshot (docs/REPLICATION.md).
  void restore(const MemberRecord& record) { members_[record.entity] = record; }
  void clear() { members_.clear(); }

 private:
  std::unordered_map<Guid, MemberRecord> members_;
};

class ProfileManager {
 public:
  void put(const entity::Profile& profile,
           std::optional<entity::Advertisement> advertisement);
  Status update(const entity::Profile& profile);
  Status update_location(Guid entity, location::LocRef loc);
  Status remove(Guid entity);

  [[nodiscard]] const entity::Profile* profile(Guid entity) const;
  [[nodiscard]] const entity::Advertisement* advertisement(Guid entity) const;
  [[nodiscard]] const entity::ProfileRecord* record(Guid entity) const;

  // Snapshot of all profiles (optionally restricted to the given ids) —
  // what the resolver composes over.
  [[nodiscard]] std::vector<entity::Profile> snapshot() const;
  [[nodiscard]] std::vector<entity::Profile> snapshot_of(
      const std::vector<Guid>& ids) const;

  [[nodiscard]] std::size_t size() const { return profiles_.size(); }
  [[nodiscard]] std::uint64_t updates() const { return updates_; }
  void clear() { profiles_.clear(); }

 private:
  std::unordered_map<Guid, entity::ProfileRecord> profiles_;
  std::uint64_t updates_ = 0;
};

}  // namespace sci::range
