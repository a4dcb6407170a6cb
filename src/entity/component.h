// SCI — component model (paper §4.1, Fig 4).
//
// "Both entities share the RegisterInterface in order to facilitate
// communication with a Range Service, while CAAs include the
// ConsumeInterface for dealing with events. The ServiceInterface,
// implemented by the CE, represents the 'well known' Advertisement
// interface. At the concrete level, CE or CAA developers need only deal
// with the service they provide or the events they receive — integrating
// components, query submission and event distribution is handled internally
// by the infrastructure."
//
// Component implements that split: the protocol handshakes (discovery,
// registration, delivery decode, service dispatch) live here; subclasses
// override the small set of virtual hooks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/expected.h"
#include "common/guid.h"
#include "entity/profile.h"
#include "entity/protocol.h"
#include "event/event.h"
#include "net/network.h"
#include "reliable/reliable.h"
#include "sim/simulator.h"

namespace sci::entity {

// Details handed back by the Registrar on successful registration.
struct RegistrationInfo {
  Guid range;
  Guid context_server;
  Guid event_mediator;
};

struct ComponentStats {
  std::uint64_t events_published = 0;
  std::uint64_t events_received = 0;
  std::uint64_t duplicate_deliveries = 0;  // suppressed failover replays
  std::uint64_t redirects_followed = 0;    // resharding re-points applied
  std::uint64_t queries_submitted = 0;
  std::uint64_t results_received = 0;
  std::uint64_t invokes_handled = 0;
};

class Component {
 public:
  Component(net::Network& network, Guid id, std::string name, EntityKind kind);
  virtual ~Component();

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  // --- RegisterInterface ------------------------------------------------
  // Attaches to the network at (x, y). The component is idle until a Range
  // Service discovers it (discover()) or it is pointed at one directly.
  void start(double x = 0.0, double y = 0.0);

  // Deregisters (when registered) and detaches.
  void stop();

  // Kicks off the Figure 5 sequence: send kHello to the given Range
  // Service; the rest of the handshake is automatic. The hello is
  // retransmitted (bounded) until registration with that Range Service
  // completes, so a lost frame on a lossy segment does not strand the
  // component.
  void discover(Guid range_service);

  // Retransmission policy for the discovery handshake.
  void set_discovery_retry(Duration interval, unsigned max_attempts) {
    discover_retry_interval_ = interval;
    discover_max_attempts_ = max_attempts;
  }

  [[nodiscard]] bool is_started() const { return started_; }
  [[nodiscard]] bool is_registered() const { return registered_; }
  [[nodiscard]] const RegistrationInfo& registration() const {
    return registration_;
  }

  [[nodiscard]] Guid id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] EntityKind kind() const { return kind_; }
  [[nodiscard]] const ComponentStats& stats() const { return stats_; }

  // Current profile as reported to the Context Server.
  [[nodiscard]] Profile profile() const;

  // Updates the advertised location and pushes a profile update when
  // registered (the Profile Manager keeps the authoritative copy).
  void set_location(location::LocRef loc);
  [[nodiscard]] const location::LocRef& location() const { return location_; }

  // Free-form metadata attached to the profile.
  void set_metadata(Value metadata);

 protected:
  // --- hooks for subclasses ----------------------------------------------
  [[nodiscard]] virtual bool is_app() const = 0;
  // Typed inputs/outputs for the profile (empty by default).
  [[nodiscard]] virtual std::vector<TypeSig> profile_inputs() const {
    return {};
  }
  [[nodiscard]] virtual std::vector<TypeSig> profile_outputs() const {
    return {};
  }
  [[nodiscard]] virtual std::optional<Advertisement> advertisement() const {
    return std::nullopt;
  }

  virtual void on_registered() {}
  virtual void on_deregistered() {}
  // ConsumeInterface: a subscribed event arrived (owner_tag identifies the
  // configuration or query that created the subscription).
  virtual void on_event(const event::Event& event, std::uint64_t owner_tag) {
    (void)event;
    (void)owner_tag;
  }
  // ServiceInterface: a CAA invoked an advertised method.
  virtual Expected<Value> on_invoke(const std::string& method,
                                    const Value& args);
  // Configuration parameters wired in by the Context Server.
  virtual void on_configure(std::uint64_t config_tag, const Value& params) {
    (void)config_tag;
    (void)params;
  }
  virtual void on_unconfigure(std::uint64_t config_tag) { (void)config_tag; }
  // Query result for a CAA.
  virtual void on_query_result(const std::string& query_id, const Error& error,
                               const Value& result) {
    (void)query_id;
    (void)error;
    (void)result;
  }
  virtual void on_service_reply(std::uint64_t invoke_id, const Error& error,
                                const Value& result) {
    (void)invoke_id;
    (void)error;
    (void)result;
  }

  // --- actions available to subclasses ------------------------------------
  // Publishes a typed event through the range's Event Mediator. No-op with
  // a warning when unregistered (sensor with no infrastructure in reach).
  void publish(std::string type, Value payload);

  // Submits a Figure 6 query document to the Context Server.
  Status submit_query(const std::string& query_id, const std::string& xml);

  // Invokes an advertised method on another CE point-to-point; the reply
  // arrives via on_service_reply.
  std::uint64_t invoke_service(Guid provider, std::string method, Value args);

  void send(Guid to, std::uint32_t type, serde::BufferRef payload);

  // Sends over the reliable channel: retransmitted with backoff until the
  // receiver acks, deduplicated there. Used for the frames that must not
  // vanish on a lossy segment (publishes, queries, service traffic).
  void send_reliable(Guid to, std::uint32_t type,
                     serde::BufferRef payload);

  [[nodiscard]] reliable::ReliableChannel& channel() { return channel_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] sim::Simulator& simulator() { return network_.simulator(); }
  [[nodiscard]] SimTime now() const { return network_.simulator().now(); }

 private:
  void handle_message(const net::Message& message);
  void send_hello();
  [[nodiscard]] bool discovery_satisfied() const {
    // A partitioned Range may answer the hello with a different shard's
    // Registrar (docs/SHARDING.md); registering with the named redirect
    // satisfies discovery as much as the node we first helloed.
    return registered_ && (registration_.context_server == pending_rs_ ||
                           (!pending_registrar_.is_nil() &&
                            registration_.context_server ==
                                pending_registrar_));
  }

  net::Network& network_;
  Guid id_;
  reliable::ReliableChannel channel_;
  std::string name_;
  EntityKind kind_;
  Value metadata_;
  location::LocRef location_;
  bool started_ = false;
  bool registered_ = false;
  RegistrationInfo registration_;
  std::uint64_t event_sequence_ = 0;
  std::uint64_t next_invoke_id_ = 1;
  std::uint64_t profile_version_ = 0;
  double x_ = 0.0;
  double y_ = 0.0;
  // Discovery retransmission state.
  Guid pending_rs_;
  // Registrar the last kRangeInfo pointed at (the owner shard's CS on a
  // partitioned Range; pending_rs_ itself otherwise).
  Guid pending_registrar_;
  unsigned discover_attempts_ = 0;
  Duration discover_retry_interval_ = Duration::seconds(1);
  unsigned discover_max_attempts_ = 5;
  sim::TimerHandle discover_retry_;
  // Subscription-lease keep-alive, armed when the RegisterAck carries a
  // non-zero renew cadence.
  std::optional<sim::PeriodicTimer> lease_timer_;
  // Delivery dedup keyed (subscription, producing source) over the event
  // sequence: a promoted standby Context Server replays its recent-event
  // window after failover, so a delivery may legitimately arrive twice
  // (docs/REPLICATION.md). Subscription ids survive failover verbatim.
  std::map<std::pair<std::uint64_t, Guid>, reliable::SeqDedup> delivery_seen_;
  ComponentStats stats_;
};

// Context Entity: produces (and possibly consumes) typed events and may
// advertise a service interface. Subclasses define concrete sensors,
// aggregators and service providers.
class ContextEntity : public Component {
 public:
  using Component::Component;
  using Component::publish;  // CEs publish; expose for drivers (the world)

 protected:
  [[nodiscard]] bool is_app() const final { return false; }
};

// Context Aware Application: submits queries and consumes deliveries.
class ContextAwareApp : public Component {
 public:
  using Component::Component;
  using Component::invoke_service;
  using Component::submit_query;

 protected:
  [[nodiscard]] bool is_app() const final { return true; }
};

}  // namespace sci::entity
