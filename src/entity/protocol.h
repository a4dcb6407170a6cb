// SCI — wire protocol between components (CEs/CAAs) and range
// infrastructure (Context Server and its utilities).
//
// Message sequence for discovery/registration follows Figure 5:
//   component --kHello--> Range Service
//   component <--kRangeInfo-- Range Service (registrar details)
//   component --kRegisterRequest--> Registrar
//   component <--kRegisterAck-- Registrar (CS details for a CAA,
//                                          Event Mediator details for a CE)
// Thereafter CEs publish events to the Event Mediator (kPublish) and
// receive configuration wiring (kConfigure) plus event deliveries
// (kDeliver); CAAs submit queries (kQuerySubmit, Fig 6 XML on the wire) and
// receive results (kQueryResult) and deliveries. Service traffic
// (kServiceInvoke/kServiceReply) flows point-to-point between CAA and CE —
// the paper's hybrid communication model (§4).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/expected.h"
#include "common/guid.h"
#include "entity/profile.h"
#include "event/event.h"
#include "serde/buffer.h"

namespace sci::entity {

enum ComponentMsg : std::uint32_t {
  kHello = 0xCE01,
  kRangeInfo,
  kRegisterRequest,
  kRegisterAck,
  kDeregister,
  kPublish,
  kDeliver,
  kConfigure,
  kUnconfigure,
  kQuerySubmit,
  kQueryResult,
  kServiceInvoke,
  kServiceReply,
  kProfileUpdate,
  kPing,   // liveness probe from the Range Service
  kPong,
  kLeaseRenew,  // keep-alive for subscription leases (empty body)
  kRedirect,    // ownership moved (resharding): re-point CS/mediator guids
};

struct HelloBody {
  bool is_app = false;
  std::string name;

  [[nodiscard]] serde::BufferRef encode() const;
  static Expected<HelloBody> decode(serde::FrameView bytes);
};

struct RangeInfoBody {
  Guid range;
  Guid registrar;  // network address (node) of the registrar

  [[nodiscard]] serde::BufferRef encode() const;
  static Expected<RangeInfoBody> decode(serde::FrameView bytes);
};

struct RegisterRequestBody {
  bool is_app = false;
  Profile profile;
  std::optional<Advertisement> advertisement;

  [[nodiscard]] serde::BufferRef encode() const;
  static Expected<RegisterRequestBody> decode(serde::FrameView bytes);
};

struct RegisterAckBody {
  bool accepted = false;
  std::string reason;  // when rejected
  Guid range;
  Guid context_server;
  Guid event_mediator;
  // When non-zero the range runs subscription leases: the component must
  // send kLeaseRenew at this cadence or its subscriptions are reaped.
  std::uint64_t lease_renew_micros = 0;

  [[nodiscard]] serde::BufferRef encode() const;
  static Expected<RegisterAckBody> decode(serde::FrameView bytes);
};

struct PublishBody {
  event::Event event;

  [[nodiscard]] serde::BufferRef encode() const;
  static Expected<PublishBody> decode(serde::FrameView bytes);
};

struct DeliverBody {
  std::uint64_t subscription = 0;
  std::uint64_t owner_tag = 0;  // configuration / query handle
  event::Event event;

  [[nodiscard]] serde::BufferRef encode() const;
  static Expected<DeliverBody> decode(serde::FrameView bytes);
};

// Per-configuration parameters handed to a CE when the Context Server wires
// it into a configuration (e.g. which two entities a path CE should track).
struct ConfigureBody {
  std::uint64_t config_tag = 0;
  Value params;

  [[nodiscard]] serde::BufferRef encode() const;
  static Expected<ConfigureBody> decode(serde::FrameView bytes);
};

struct QuerySubmitBody {
  std::string query_id;
  std::string xml;  // the Figure 6 document

  [[nodiscard]] serde::BufferRef encode() const;
  static Expected<QuerySubmitBody> decode(serde::FrameView bytes);
};

struct QueryResultBody {
  std::string query_id;
  std::uint8_t status = 0;  // ErrorCode
  std::string message;
  Value result;

  [[nodiscard]] serde::BufferRef encode() const;
  static Expected<QueryResultBody> decode(serde::FrameView bytes);
};

struct ServiceInvokeBody {
  std::uint64_t invoke_id = 0;
  std::string method;
  Value args;

  [[nodiscard]] serde::BufferRef encode() const;
  static Expected<ServiceInvokeBody> decode(serde::FrameView bytes);
};

struct ServiceReplyBody {
  std::uint64_t invoke_id = 0;
  std::uint8_t status = 0;  // ErrorCode
  std::string message;
  Value result;

  [[nodiscard]] serde::BufferRef encode() const;
  static Expected<ServiceReplyBody> decode(serde::FrameView bytes);
};

struct ProfileUpdateBody {
  Profile profile;

  [[nodiscard]] serde::BufferRef encode() const;
  static Expected<ProfileUpdateBody> decode(serde::FrameView bytes);
};

// Sent by a (former) owner shard after a vnode handoff commits: the
// component's subject moved to a new shard, so publishes and queries must
// go to these addresses from now on. Fire-and-forget — a lost redirect is
// repaired by the old owner re-sending it on every stale-routed frame.
struct RedirectBody {
  Guid context_server;
  Guid event_mediator;

  [[nodiscard]] serde::BufferRef encode() const;
  static Expected<RedirectBody> decode(serde::FrameView bytes);
};

}  // namespace sci::entity
