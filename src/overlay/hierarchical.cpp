#include "overlay/hierarchical.h"

#include <algorithm>

#include "common/log.h"
#include "serde/buffer.h"

namespace sci::overlay {

namespace {

serde::BufferRef encode(const HierMessage& m) {
  serde::Writer w(m.payload.size() + 48);
  w.guid(m.destination);
  w.guid(m.source);
  w.u32(m.app_type);
  w.u32(m.hops);
  w.varint(m.payload.size());
  w.raw(m.payload.data(), m.payload.size());
  return w.take_ref();
}

// The payload is a zero-copy slice of `bytes`.
Expected<HierMessage> decode(const serde::BufferRef& bytes) {
  serde::Reader r(bytes);
  HierMessage m;
  SCI_TRY_ASSIGN(destination, r.guid());
  m.destination = destination;
  SCI_TRY_ASSIGN(source, r.guid());
  m.source = source;
  SCI_TRY_ASSIGN(app_type, r.u32());
  m.app_type = app_type;
  SCI_TRY_ASSIGN(hops, r.u32());
  m.hops = hops;
  SCI_TRY_ASSIGN(len, r.varint());
  if (len > r.remaining())
    return make_error(ErrorCode::kParseError, "hier payload truncated");
  m.payload = bytes.slice(r.position(), static_cast<std::size_t>(len));
  return m;
}

}  // namespace

HierNode::HierNode(net::Network& network, Guid id, double x, double y)
    : network_(network), id_(id) {
  const Status attached = network_.attach(
      id_, [this](const net::Message& m) { on_message(m); }, x, y);
  SCI_ASSERT_MSG(attached.is_ok(), "hier node id collision on network");
}

HierNode::~HierNode() {
  if (network_.is_attached(id_)) (void)network_.detach(id_);
}

Status HierNode::send(Guid destination, std::uint32_t app_type,
                      serde::BufferRef payload) {
  forward(HierMessage{destination, id_, app_type, 0, std::move(payload)});
  return Status::ok();
}

void HierNode::on_message(const net::Message& message) {
  if (message.type != kHierRouted) return;
  auto decoded = decode(message.payload);
  if (!decoded) {
    SCI_WARN("hier", "dropping malformed frame: %s",
             decoded.error().message().c_str());
    return;
  }
  decoded->hops += 1;
  forward(std::move(*decoded));
}

void HierNode::forward(HierMessage message) {
  if (message.destination == id_) {
    ++stats_.delivered;
    if (deliver_) deliver_(message);
    return;
  }
  Guid next;
  const auto it = descendant_via_.find(message.destination);
  if (it != descendant_via_.end()) {
    next = it->second;  // descend toward the destination's subtree
  } else if (!parent_.is_nil()) {
    next = parent_;  // climb toward the lowest common ancestor
  } else {
    SCI_WARN("hier", "root has no route to %s — dropping",
             message.destination.short_string().c_str());
    return;
  }
  if (message.source != id_) ++stats_.forwarded;
  net::Message frame;
  frame.type = kHierRouted;
  frame.from = id_;
  frame.to = next;
  frame.payload = encode(message);
  (void)network_.send(std::move(frame));
}

HierTree::HierTree(net::Network& network, std::size_t count,
                   std::size_t fanout, Rng& rng) {
  SCI_ASSERT(count > 0);
  SCI_ASSERT(fanout >= 2);
  nodes_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    nodes_.push_back(std::make_unique<HierNode>(
        network, Guid::random(rng), rng.next_double(0, 1000),
        rng.next_double(0, 1000)));
  }
  // Complete fanout-ary tree by index: parent(i) = (i-1)/fanout.
  for (std::size_t i = 1; i < count; ++i) {
    const std::size_t parent = (i - 1) / fanout;
    nodes_[i]->set_parent(nodes_[parent]->id());
  }
  // Every ancestor learns which of its children leads to each node.
  for (std::size_t i = 1; i < count; ++i) {
    std::size_t child = i;
    std::size_t ancestor = (i - 1) / fanout;
    for (;;) {
      nodes_[ancestor]->add_descendant(nodes_[i]->id(), nodes_[child]->id());
      if (ancestor == 0) break;
      child = ancestor;
      ancestor = (ancestor - 1) / fanout;
    }
  }
}

}  // namespace sci::overlay
