#include "compose/views.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace sci::compose {

void ViewDeps::encode(serde::Writer& w) const {
  w.varint(subjects.size());
  for (const Guid& g : subjects) w.guid(g);
  w.varint(types.size());
  for (const RequestedType& t : types) {
    w.string(t.type);
    w.string(t.unit);
    w.string(t.semantic);
  }
  w.varint(entity_types.size());
  for (const std::string& s : entity_types) w.string(s);
}

Expected<ViewDeps> ViewDeps::decode(serde::Reader& r) {
  ViewDeps deps;
  SCI_TRY_ASSIGN(n_subjects, r.varint());
  for (std::uint64_t i = 0; i < n_subjects; ++i) {
    SCI_TRY_ASSIGN(g, r.guid());
    deps.subjects.push_back(g);
  }
  SCI_TRY_ASSIGN(n_types, r.varint());
  for (std::uint64_t i = 0; i < n_types; ++i) {
    RequestedType t;
    SCI_TRY_ASSIGN(type, r.string());
    t.type = std::move(type);
    SCI_TRY_ASSIGN(unit, r.string());
    t.unit = std::move(unit);
    SCI_TRY_ASSIGN(semantic, r.string());
    t.semantic = std::move(semantic);
    deps.types.push_back(std::move(t));
  }
  SCI_TRY_ASSIGN(n_entity_types, r.varint());
  for (std::uint64_t i = 0; i < n_entity_types; ++i) {
    SCI_TRY_ASSIGN(s, r.string());
    deps.entity_types.push_back(std::move(s));
  }
  return deps;
}

void ViewEntry::encode(serde::Writer& w) const {
  w.string(key);
  w.varint(selection.size());
  for (const Guid& g : selection) w.guid(g);
  w.boolean(plan.has_value());
  if (plan.has_value()) plan->encode(w);
  deps.encode(w);
  w.svarint(built_at.micros());
  w.u64(hits);
}

Expected<ViewEntry> ViewEntry::decode(serde::Reader& r) {
  ViewEntry entry;
  SCI_TRY_ASSIGN(key, r.string());
  entry.key = std::move(key);
  SCI_TRY_ASSIGN(n_selection, r.varint());
  for (std::uint64_t i = 0; i < n_selection; ++i) {
    SCI_TRY_ASSIGN(g, r.guid());
    entry.selection.push_back(g);
  }
  SCI_TRY_ASSIGN(has_plan, r.boolean());
  if (has_plan) {
    SCI_TRY_ASSIGN(plan, ConfigurationPlan::decode(r));
    entry.plan = std::move(plan);
  }
  SCI_TRY_ASSIGN(deps, ViewDeps::decode(r));
  entry.deps = std::move(deps);
  SCI_TRY_ASSIGN(built_micros, r.svarint());
  entry.built_at = SimTime::from_micros(built_micros);
  SCI_TRY_ASSIGN(hits, r.u64());
  entry.hits = hits;
  return entry;
}

const ViewEntry* ViewCache::lookup(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  it->second.last_used = ++clock_;
  ++it->second.hits;
  return &it->second;
}

bool ViewCache::install(ViewEntry entry) {
  if (capacity_ == 0) return false;
  const bool evicts =
      !entries_.contains(entry.key) && entries_.size() >= capacity_;
  if (evicts) evict_lru();
  entry.last_used = ++clock_;
  std::string key = entry.key;
  entries_.insert_or_assign(std::move(key), std::move(entry));
  return evicts;
}

std::size_t ViewCache::invalidate_subject(const Guid& subject, SimTime now) {
  std::vector<std::string> doomed;
  for (const auto& [key, entry] : entries_) {
    if (std::find(entry.deps.subjects.begin(), entry.deps.subjects.end(),
                  subject) != entry.deps.subjects.end()) {
      doomed.push_back(key);
    }
  }
  for (const std::string& key : doomed) drop_entry(key, now);
  return doomed.size();
}

std::size_t ViewCache::invalidate_matching(const entity::Profile& profile,
                                           const entity::Advertisement* ad,
                                           const SemanticRegistry& registry,
                                           SimTime now) {
  std::vector<std::string> doomed;
  for (const auto& [key, entry] : entries_) {
    const ViewDeps& deps = entry.deps;
    bool hit = std::find(deps.subjects.begin(), deps.subjects.end(),
                         profile.entity) != deps.subjects.end();
    for (std::size_t i = 0; !hit && i < deps.types.size(); ++i) {
      for (const entity::TypeSig& sig : profile.outputs) {
        if (registry.matches(deps.types[i], sig)) {
          hit = true;
          break;
        }
      }
    }
    if (!hit && !deps.entity_types.empty()) {
      const std::string service =
          profile.metadata.at("service").string_or("");
      for (const std::string& wanted : deps.entity_types) {
        if ((ad != nullptr && ad->service == wanted) || service == wanted ||
            entity::to_string(profile.kind) == wanted) {
          hit = true;
          break;
        }
      }
    }
    if (hit) doomed.push_back(key);
  }
  for (const std::string& key : doomed) drop_entry(key, now);
  return doomed.size();
}

void ViewCache::clear() { entries_.clear(); }

void ViewCache::drop_entry(const std::string& key, SimTime now) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  if (staleness_observer_) {
    staleness_observer_((now - it->second.built_at).seconds_f());
  }
  entries_.erase(it);
}

void ViewCache::evict_lru() {
  auto victim = entries_.end();
  std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->second.last_used < oldest) {
      oldest = it->second.last_used;
      victim = it;
    }
  }
  if (victim != entries_.end()) entries_.erase(victim);
}

void ViewCache::encode(serde::Writer& w) const {
  // Deterministic order: sorted by key, so primary and standby snapshots of
  // identical tables are byte-identical.
  std::vector<const ViewEntry*> ordered;
  ordered.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) ordered.push_back(&entry);
  std::sort(ordered.begin(), ordered.end(),
            [](const ViewEntry* a, const ViewEntry* b) {
              return a->key < b->key;
            });
  w.varint(ordered.size());
  for (const ViewEntry* entry : ordered) entry->encode(w);
}

Status ViewCache::decode(serde::Reader& r) {
  entries_.clear();
  SCI_TRY_ASSIGN(count, r.varint());
  for (std::uint64_t i = 0; i < count; ++i) {
    SCI_TRY_ASSIGN(entry, ViewEntry::decode(r));
    if (capacity_ == 0) continue;
    if (entries_.size() >= capacity_) evict_lru();
    entry.last_used = ++clock_;
    std::string key = entry.key;
    entries_.insert_or_assign(std::move(key), std::move(entry));
  }
  return Status::ok();
}

}  // namespace sci::compose
