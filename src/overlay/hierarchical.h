// SCI — hierarchical routing baseline (paper §3, Fig 1 discussion).
//
// The paper argues that "routing through an overlay network avoids any
// bottlenecks created when using hierarchical infrastructures whilst
// achieving comparable performance". This module implements the thing being
// argued against: a tree of nodes where each parent keeps a directory of
// every descendant, cross-subtree traffic climbs to the lowest common
// ancestor, and the root therefore carries O(N) of the forwarding load.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/expected.h"
#include "common/guid.h"
#include "net/network.h"

namespace sci::overlay {

struct HierMessage {
  Guid destination;
  Guid source;
  std::uint32_t app_type = 0;
  std::uint32_t hops = 0;
  serde::BufferRef payload;
};

struct HierNodeStats {
  std::uint64_t forwarded = 0;
  std::uint64_t delivered = 0;
};

class HierNode {
 public:
  using DeliverHandler = std::function<void(const HierMessage&)>;

  HierNode(net::Network& network, Guid id, double x = 0.0, double y = 0.0);
  ~HierNode();

  HierNode(const HierNode&) = delete;
  HierNode& operator=(const HierNode&) = delete;

  void set_deliver_handler(DeliverHandler handler) {
    deliver_ = std::move(handler);
  }

  // Tree wiring (done by HierTree at construction; static thereafter, which
  // is itself part of the critique — the hierarchy cannot adapt).
  void set_parent(Guid parent) { parent_ = parent; }
  // Registers `descendant` as reachable through `child`.
  void add_descendant(Guid descendant, Guid child) {
    descendant_via_[descendant] = child;
  }

  Status send(Guid destination, std::uint32_t app_type,
              serde::BufferRef payload);

  [[nodiscard]] Guid id() const { return id_; }
  [[nodiscard]] const HierNodeStats& stats() const { return stats_; }

 private:
  enum MsgType : std::uint32_t { kHierRouted = 0x4E10 };

  void on_message(const net::Message& message);
  void forward(HierMessage message);

  net::Network& network_;
  Guid id_;
  Guid parent_;  // nil at the root
  std::unordered_map<Guid, Guid> descendant_via_;
  DeliverHandler deliver_;
  HierNodeStats stats_;
};

// Builds a complete `fanout`-ary tree over `count` nodes and wires the
// descendant directories. Nodes are placed on the same network/coordinate
// model as the overlay so latency comparisons are fair.
class HierTree {
 public:
  HierTree(net::Network& network, std::size_t count, std::size_t fanout,
           Rng& rng);

  [[nodiscard]] HierNode& node(std::size_t index) { return *nodes_[index]; }
  [[nodiscard]] const HierNode& node(std::size_t index) const {
    return *nodes_[index];
  }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] HierNode& root() { return *nodes_[0]; }

 private:
  std::vector<std::unique_ptr<HierNode>> nodes_;
};

}  // namespace sci::overlay
