#include "compose/resolver.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/log.h"

namespace sci::compose {

namespace {

constexpr const char* kTag = "resolver";

struct ResolveContext {
  const SemanticRegistry* registry = nullptr;
  const ResolveRequest* request = nullptr;
  const std::vector<entity::Profile>* live = nullptr;
};

// Returns candidates (in GUID order) whose outputs satisfy `requested`.
std::vector<const entity::Profile*> producers_of(
    const ResolveContext& ctx, const RequestedType& requested) {
  std::vector<const entity::Profile*> out;
  for (const entity::Profile& profile : *ctx.live) {
    for (const entity::TypeSig& sig : profile.outputs) {
      if (ctx.registry->matches(requested, sig,
                                ctx.request->strict_syntactic)) {
        out.push_back(&profile);
        break;
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const entity::Profile* a, const entity::Profile* b) {
              return a->entity < b->entity;
            });
  return out;
}

// The concrete event type `producer` emits for `requested` (first matching
// output signature).
const entity::TypeSig* matching_output(const ResolveContext& ctx,
                                       const entity::Profile& producer,
                                       const RequestedType& requested) {
  for (const entity::TypeSig& sig : producer.outputs) {
    if (ctx.registry->matches(requested, sig, ctx.request->strict_syntactic))
      return &sig;
  }
  return nullptr;
}

// Least-fixpoint viability: an entity is viable when every one of its
// inputs has at least one *other* viable producer; sources (no inputs) seed
// the fixpoint. Computing from below makes mutually-dependent cycles
// correctly non-viable while entities fed by genuine sources always
// qualify — the backtracking-DFS formulation this replaces could leave
// rolled-back subtrees marked viable (caught by the resolver property
// suite).
std::unordered_set<Guid> compute_viable(const ResolveContext& ctx) {
  std::unordered_set<Guid> viable;
  const std::size_t limit =
      std::min<std::size_t>(ctx.live->size(),
                            static_cast<std::size_t>(ctx.request->max_depth) *
                                ctx.live->size() + 1);
  bool changed = true;
  std::size_t rounds = 0;
  while (changed && rounds++ <= limit) {
    changed = false;
    for (const entity::Profile& candidate : *ctx.live) {
      if (viable.contains(candidate.entity)) continue;
      bool ok = true;
      for (const entity::TypeSig& input : candidate.inputs) {
        bool fed = false;
        for (const entity::Profile* producer :
             producers_of(ctx, RequestedType::from_sig(input))) {
          if (producer->entity == candidate.entity) continue;  // no self-feed
          if (viable.contains(producer->entity)) {
            fed = true;
            break;
          }
        }
        if (!fed) {
          ok = false;
          break;
        }
      }
      if (ok) {
        viable.insert(candidate.entity);
        changed = true;
      }
    }
  }
  return viable;
}

}  // namespace

std::string PlanEdge::share_key() const {
  return producer.to_string() + "->" +
         (consumer.is_nil() ? std::string("app") : consumer.to_string()) +
         ":" + event_type;
}

void ConfigurationPlan::encode(serde::Writer& w) const {
  w.varint(tag);
  w.guid(sink);
  w.string(sink_type);
  w.varint(entities.size());
  for (const Guid e : entities) w.guid(e);
  w.varint(edges.size());
  for (const PlanEdge& edge : edges) {
    w.guid(edge.producer);
    w.guid(edge.consumer);
    w.string(edge.event_type);
    edge.filter.encode(w);
  }
  w.varint(params.size());
  for (const auto& [entity, value] : params) {
    w.guid(entity);
    value.encode(w);
  }
  w.varint(depth_);
}

Expected<ConfigurationPlan> ConfigurationPlan::decode(serde::Reader& r) {
  ConfigurationPlan plan;
  SCI_TRY_ASSIGN(tag, r.varint());
  plan.tag = tag;
  SCI_TRY_ASSIGN(sink, r.guid());
  plan.sink = sink;
  SCI_TRY_ASSIGN(sink_type, r.string());
  plan.sink_type = std::move(sink_type);
  SCI_TRY_ASSIGN(n_entities, r.varint());
  for (std::uint64_t i = 0; i < n_entities; ++i) {
    SCI_TRY_ASSIGN(e, r.guid());
    plan.entities.push_back(e);
  }
  SCI_TRY_ASSIGN(n_edges, r.varint());
  for (std::uint64_t i = 0; i < n_edges; ++i) {
    PlanEdge edge;
    SCI_TRY_ASSIGN(producer, r.guid());
    edge.producer = producer;
    SCI_TRY_ASSIGN(consumer, r.guid());
    edge.consumer = consumer;
    SCI_TRY_ASSIGN(event_type, r.string());
    edge.event_type = std::move(event_type);
    SCI_TRY_ASSIGN(filter, event::EventFilter::decode(r));
    edge.filter = std::move(filter);
    plan.edges.push_back(std::move(edge));
  }
  SCI_TRY_ASSIGN(n_params, r.varint());
  for (std::uint64_t i = 0; i < n_params; ++i) {
    SCI_TRY_ASSIGN(entity, r.guid());
    SCI_TRY_ASSIGN(value, Value::decode(r));
    plan.params.emplace(entity, std::move(value));
  }
  SCI_TRY_ASSIGN(depth, r.varint());
  plan.depth_ = static_cast<std::size_t>(depth);
  return plan;
}

std::string ConfigurationPlan::to_string() const {
  std::string out = "plan#" + std::to_string(tag) + " sink=" +
                    sink.short_string() + " type=" + sink_type + " entities=" +
                    std::to_string(entities.size()) + " edges=[";
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i > 0) out += ", ";
    out += edges[i].producer.short_string() + "->" +
           (edges[i].consumer.is_nil() ? "app"
                                       : edges[i].consumer.short_string());
  }
  return out + "]";
}

Expected<ConfigurationPlan> Resolver::resolve(
    const ResolveRequest& request, const std::vector<entity::Profile>& live) {
  ++stats_.resolutions;
  stats_.profiles_scanned += live.size();

  ResolveContext ctx;
  ctx.registry = registry_;
  ctx.request = &request;
  ctx.live = &live;

  // Phase 1: which entities can be grounded at all.
  const std::unordered_set<Guid> viable = compute_viable(ctx);

  // Phase 2: pick the sink — first viable producer of the requested type in
  // GUID order (deterministic choice).
  const auto sinks = producers_of(ctx, request.requested);
  const entity::Profile* sink = nullptr;
  for (const entity::Profile* candidate : sinks) {
    if (viable.contains(candidate->entity)) {
      sink = candidate;
      break;
    }
  }
  if (sink == nullptr) {
    ++stats_.failures;
    return make_error(ErrorCode::kUnresolvable,
                      "no grounded configuration provides " +
                          request.requested.to_string() + " (considered " +
                          std::to_string(sinks.size()) + " sinks over " +
                          std::to_string(live.size()) + " profiles)");
  }

  // Phase 3: breadth-first edge construction from the sink, wiring every
  // input of every included entity to all of its viable producers (the
  // paper's "subscribe to all events emanating from door sensors" fan-in).
  ConfigurationPlan plan;
  plan.tag = request.tag;
  plan.sink = sink->entity;
  const entity::TypeSig* sink_sig =
      matching_output(ctx, *sink, request.requested);
  SCI_ASSERT(sink_sig != nullptr);
  plan.sink_type = sink_sig->name;

  std::unordered_set<Guid> visited{sink->entity};
  std::vector<std::pair<const entity::Profile*, unsigned>> queue{{sink, 0}};
  std::size_t max_depth = 0;
  for (std::size_t cursor = 0; cursor < queue.size(); ++cursor) {
    const auto [profile, depth] = queue[cursor];
    if (depth > request.max_depth) {
      ++stats_.failures;
      return make_error(ErrorCode::kUnresolvable,
                        "configuration exceeds the depth bound of " +
                            std::to_string(request.max_depth));
    }
    max_depth = std::max<std::size_t>(max_depth, depth);
    plan.entities.push_back(profile->entity);
    for (const entity::TypeSig& input : profile->inputs) {
      const RequestedType needed = RequestedType::from_sig(input);
      for (const entity::Profile* producer : producers_of(ctx, needed)) {
        if (producer->entity == profile->entity) continue;
        if (!viable.contains(producer->entity)) continue;
        const entity::TypeSig* sig = matching_output(ctx, *producer, needed);
        SCI_ASSERT(sig != nullptr);
        plan.edges.push_back(
            PlanEdge{producer->entity, profile->entity, sig->name, {}});
        if (visited.insert(producer->entity).second) {
          queue.emplace_back(producer, depth + 1);
        }
      }
    }
  }
  plan.depth_ = max_depth + 1;
  if (request.sink_params) {
    plan.params.emplace(sink->entity, *request.sink_params);
  }
  stats_.edges_planned += plan.edges.size();
  SCI_DEBUG(kTag, "resolved %s: %s", request.requested.to_string().c_str(),
            plan.to_string().c_str());
  return plan;
}

}  // namespace sci::compose
