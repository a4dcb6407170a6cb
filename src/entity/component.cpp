#include "entity/component.h"

#include "common/log.h"

namespace sci::entity {

namespace {
constexpr const char* kTag = "component";
}

Component::Component(net::Network& network, Guid id, std::string name,
                     EntityKind kind)
    : network_(network),
      id_(id),
      channel_(network, id),
      name_(std::move(name)),
      kind_(kind) {
  SCI_ASSERT(!id.is_nil());
}

Component::~Component() {
  // Cancel the discovery retransmission timer before `this` goes away.
  network_.simulator().cancel(discover_retry_);
  if (started_ && network_.is_attached(id_)) {
    (void)network_.detach(id_);
  }
}

void Component::start(double x, double y) {
  if (started_) return;
  x_ = x;
  y_ = y;
  const Status attached = network_.attach(
      id_, [this](const net::Message& m) { handle_message(m); }, x, y);
  SCI_ASSERT_MSG(attached.is_ok(), "component id collision on network");
  started_ = true;
}

void Component::stop() {
  if (!started_) return;
  simulator().cancel(discover_retry_);
  discover_retry_ = sim::TimerHandle();
  lease_timer_.reset();
  channel_.halt();
  pending_rs_ = Guid();
  pending_registrar_ = Guid();
  if (registered_) {
    send(registration_.context_server, kDeregister, {});
    registered_ = false;
    on_deregistered();
  }
  (void)network_.detach(id_);
  started_ = false;
}

void Component::discover(Guid range_service) {
  if (!started_) {
    SCI_WARN(kTag, "%s: discover() before start()", name_.c_str());
    return;
  }
  pending_rs_ = range_service;
  pending_registrar_ = Guid();
  discover_attempts_ = 0;
  simulator().cancel(discover_retry_);
  send_hello();
}

void Component::send_hello() {
  if (!started_ || discovery_satisfied()) return;
  ++discover_attempts_;
  HelloBody hello{is_app(), name_};
  send(pending_rs_, kHello, hello.encode());
  if (discover_attempts_ < discover_max_attempts_) {
    discover_retry_ = simulator().schedule(discover_retry_interval_, [this] {
      if (!discovery_satisfied()) send_hello();
    });
  }
}

Profile Component::profile() const {
  Profile p;
  p.entity = id_;
  p.name = name_;
  p.kind = kind_;
  p.inputs = profile_inputs();
  p.outputs = profile_outputs();
  p.metadata = metadata_;
  p.location = location_;
  p.version = profile_version_;
  return p;
}

void Component::set_location(location::LocRef loc) {
  location_ = std::move(loc);
  ++profile_version_;
  if (registered_) {
    ProfileUpdateBody body{profile()};
    send_reliable(registration_.context_server, kProfileUpdate, body.encode());
  }
}

void Component::set_metadata(Value metadata) {
  metadata_ = std::move(metadata);
  ++profile_version_;
  if (registered_) {
    ProfileUpdateBody body{profile()};
    send_reliable(registration_.context_server, kProfileUpdate, body.encode());
  }
}

Expected<Value> Component::on_invoke(const std::string& method,
                                     const Value& args) {
  (void)args;
  return make_error(ErrorCode::kNotFound,
                    "no such method '" + method + "' on " + name_);
}

void Component::publish(std::string type, Value payload) {
  if (!registered_) {
    SCI_DEBUG(kTag, "%s: publish(%s) while unregistered — dropped",
              name_.c_str(), type.c_str());
    return;
  }
  event::Event e;
  e.sequence = ++event_sequence_;
  e.type = std::move(type);
  e.source = id_;
  e.timestamp = now();
  e.payload = std::move(payload);
  ++stats_.events_published;
  PublishBody body{std::move(e)};
  send_reliable(registration_.event_mediator, kPublish, body.encode());
}

Status Component::submit_query(const std::string& query_id,
                               const std::string& xml) {
  if (!registered_)
    return make_error(ErrorCode::kUnavailable,
                      name_ + " is not registered with any range");
  QuerySubmitBody body{query_id, xml};
  ++stats_.queries_submitted;
  send_reliable(registration_.context_server, kQuerySubmit, body.encode());
  return Status::ok();
}

std::uint64_t Component::invoke_service(Guid provider, std::string method,
                                        Value args) {
  const std::uint64_t invoke_id = next_invoke_id_++;
  ServiceInvokeBody body{invoke_id, std::move(method), std::move(args)};
  send_reliable(provider, kServiceInvoke, body.encode());
  return invoke_id;
}

void Component::send(Guid to, std::uint32_t type,
                     serde::BufferRef payload) {
  net::Message message;
  message.type = type;
  message.from = id_;
  message.to = to;
  message.payload = std::move(payload);
  const Status sent = network_.send(std::move(message));
  if (!sent.is_ok()) {
    SCI_DEBUG(kTag, "%s: send type=0x%x failed: %s", name_.c_str(), type,
              sent.error().message().c_str());
  }
}

void Component::send_reliable(Guid to, std::uint32_t type,
                              serde::BufferRef payload) {
  channel_.send(to, type, std::move(payload));
}

void Component::handle_message(const net::Message& message) {
  // Reliable envelopes first: data frames recurse with the inner message.
  if (channel_.on_message(message, [this](const net::Message& inner) {
        handle_message(inner);
      })) {
    return;
  }
  switch (message.type) {
    case kRangeInfo: {
      auto body = RangeInfoBody::decode(message.payload);
      if (!body) return;
      // Figure 5 step 3: contact the Registrar (on a partitioned Range this
      // may be a different shard's node than the one we helloed).
      pending_registrar_ = body->registrar;
      RegisterRequestBody request{is_app(), profile(), advertisement()};
      send(body->registrar, kRegisterRequest, request.encode());
      return;
    }
    case kRegisterAck: {
      auto body = RegisterAckBody::decode(message.payload);
      if (!body) return;
      if (!body->accepted) {
        SCI_WARN(kTag, "%s: registration rejected: %s", name_.c_str(),
                 body->reason.c_str());
        return;
      }
      registration_ =
          RegistrationInfo{body->range, body->context_server,
                           body->event_mediator};
      registered_ = true;
      lease_timer_.reset();
      if (body->lease_renew_micros > 0) {
        // The range runs subscription leases: keep ours alive. A plain
        // periodic send suffices — renewals are idempotent and the lease
        // ttl tolerates several lost ones.
        const Duration period = Duration::micros(
            static_cast<std::int64_t>(body->lease_renew_micros));
        lease_timer_.emplace(simulator(), period, [this] {
          if (registered_) {
            send(registration_.context_server, kLeaseRenew, {});
          }
        });
        lease_timer_->start();
      }
      on_registered();
      return;
    }
    case kDeregister: {
      // The Range Service evicted us (departure detected remotely).
      lease_timer_.reset();
      if (registered_) {
        registered_ = false;
        on_deregistered();
      }
      return;
    }
    case kDeliver: {
      auto body = DeliverBody::decode(message.payload);
      if (!body) return;
      // A promoted Context Server replays its recent-event window, so the
      // same (subscription, source, sequence) delivery can arrive from both
      // incarnations. Events without a sequence bypass the window.
      if (body->event.sequence != 0 &&
          !delivery_seen_[{body->subscription, body->event.source}].accept(
              body->event.sequence)) {
        ++stats_.duplicate_deliveries;
        return;
      }
      ++stats_.events_received;
      on_event(body->event, body->owner_tag);
      return;
    }
    case kConfigure: {
      auto body = ConfigureBody::decode(message.payload);
      if (!body) return;
      on_configure(body->config_tag, body->params);
      return;
    }
    case kUnconfigure: {
      auto body = ConfigureBody::decode(message.payload);
      if (!body) return;
      on_unconfigure(body->config_tag);
      return;
    }
    case kQueryResult: {
      auto body = QueryResultBody::decode(message.payload);
      if (!body) return;
      ++stats_.results_received;
      const Error error(static_cast<ErrorCode>(body->status), body->message);
      on_query_result(body->query_id, error, body->result);
      return;
    }
    case kServiceInvoke: {
      auto body = ServiceInvokeBody::decode(message.payload);
      if (!body) return;
      ++stats_.invokes_handled;
      auto result = on_invoke(body->method, body->args);
      ServiceReplyBody reply;
      reply.invoke_id = body->invoke_id;
      if (result) {
        reply.status = static_cast<std::uint8_t>(ErrorCode::kOk);
        reply.result = std::move(*result);
      } else {
        reply.status = static_cast<std::uint8_t>(result.error().code());
        reply.message = result.error().message();
      }
      send_reliable(message.from, kServiceReply, reply.encode());
      return;
    }
    case kServiceReply: {
      auto body = ServiceReplyBody::decode(message.payload);
      if (!body) return;
      const Error error(static_cast<ErrorCode>(body->status), body->message);
      on_service_reply(body->invoke_id, error, body->result);
      return;
    }
    case kPing: {
      send(message.from, kPong, {});
      return;
    }
    case kRedirect: {
      // Our subject moved to a different shard (vnode handoff committed):
      // future publishes/queries go to the new owner. Idempotent — the old
      // owner re-sends this on every stale-routed frame it sees.
      auto body = RedirectBody::decode(message.payload);
      if (!body || !registered_) return;
      if (registration_.context_server == body->context_server &&
          registration_.event_mediator == body->event_mediator) {
        return;
      }
      registration_.context_server = body->context_server;
      registration_.event_mediator = body->event_mediator;
      ++stats_.redirects_followed;
      SCI_DEBUG(kTag, "%s: followed reshard redirect to %s", name_.c_str(),
                body->context_server.short_string().c_str());
      return;
    }
    default:
      SCI_DEBUG(kTag, "%s: unhandled message type 0x%x", name_.c_str(),
                message.type);
  }
}

}  // namespace sci::entity
