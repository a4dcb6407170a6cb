// SCI — structured message/event tracing.
//
// A fixed-capacity ring buffer of typed trace records covering the
// middleware's observable transitions: network send/deliver/drop, overlay
// route hops and repairs, subscription establish/teardown, recomposition,
// and the query lifecycle. Recording writes into a pre-allocated slot —
// no allocation, safe on the event-delivery hot path — and the ring
// overwrites oldest-first, so the buffer always holds the most recent
// window of activity (total_recorded() keeps the true count).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/guid.h"
#include "common/time.h"
#include "serde/value.h"

namespace sci::obs {

enum class TraceKind : std::uint8_t {
  kMessageSend = 0,   // a=from, b=to, detail=frame type
  kMessageDeliver,    // a=from, b=to, detail=frame type
  kMessageDrop,       // a=from, b=to, detail=DropCause
  kRouteHop,          // a=this node, b=next hop, detail=hop count so far
  kRouteDeliver,      // a=root node, b=source, detail=total hops
  kRouteDropTtl,      // a=dropping node, b=source
  kOverlayRepair,     // a=repairing node
  kSubscribe,         // a=subscriber, b=producer (nil=any), detail=sub id
  kUnsubscribe,       // a=subscriber, b=producer (nil=any), detail=sub id
  kRecompose,         // a=range, b=triggering entity, detail=RecomposeCause
  kQuerySubmit,       // a=app, b=range, detail=query mode
  kQueryForward,      // a=origin range, b=target range key
  kQueryAnswer,       // a=range, b=app, detail=1 ok / 0 failed
  kArrival,           // a=range, b=component
  kDeparture,         // a=range, b=component, detail=1 when failure-detected
  kLeaseExpire,       // a=subscriber, b=nil, detail=rows removed
  kFaultInject,       // a=target node (nil for fabric-wide), detail=FaultKind
  kViewDecodeFail,    // a=context server, b=range: view snapshot tail lost
};

std::string_view to_string(TraceKind kind);

// detail codes for kMessageDrop. Send-time faults are attributed to their
// concrete cause so chaos runs can tell injected crashes from partitions
// from plain link loss.
enum class DropCause : std::uint64_t {
  kCrash = 0,      // sender or destination crashed at send time
  kPartition = 1,  // endpoints sit in different partition groups
  kLoss = 2,       // iid link loss roll
  kStale = 3,      // destination departed or crashed in flight
};

// detail codes for kRecompose.
enum class RecomposeCause : std::uint64_t {
  kLoss = 0,       // component departure or detected failure
  kArrival = 1,    // rebind-on-arrival found a better source
};

struct TraceRecord {
  SimTime at;
  TraceKind kind = TraceKind::kMessageSend;
  Guid a;                     // subject (see per-kind comments above)
  Guid b;                     // object; nil when unused
  std::uint64_t detail = 0;   // kind-specific payload

  [[nodiscard]] Value to_json() const;
};

class TraceBuffer {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit TraceBuffer(std::size_t capacity = kDefaultCapacity) {
    ring_.resize(capacity);
  }

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  // Hot path: one slot write, no allocation.
  void record(SimTime at, TraceKind kind, Guid a, Guid b = Guid(),
              std::uint64_t detail = 0) {
    if (!enabled_ || ring_.empty()) return;
    TraceRecord& slot = ring_[next_];
    slot.at = at;
    slot.kind = kind;
    slot.a = a;
    slot.b = b;
    slot.detail = detail;
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
    ++total_;
  }

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  // Re-allocates the ring and clears retained records.
  void set_capacity(std::size_t capacity) {
    ring_.assign(capacity, TraceRecord{});
    next_ = 0;
    total_ = 0;
  }

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  // Records currently retained (≤ capacity).
  [[nodiscard]] std::size_t size() const {
    return total_ < ring_.size() ? static_cast<std::size_t>(total_)
                                 : ring_.size();
  }
  // Every record() call ever made, including overwritten ones.
  [[nodiscard]] std::uint64_t total_recorded() const { return total_; }
  [[nodiscard]] std::uint64_t overwritten() const {
    return total_ - size();
  }

  void clear() {
    next_ = 0;
    total_ = 0;
  }

  // Retained window, oldest → newest.
  [[nodiscard]] std::vector<TraceRecord> snapshot() const;

  // The newest `limit` records as a serde::Value list (oldest first).
  [[nodiscard]] Value to_json(std::size_t limit = 256) const;

 private:
  std::vector<TraceRecord> ring_;
  std::size_t next_ = 0;
  std::uint64_t total_ = 0;
  bool enabled_ = true;
};

}  // namespace sci::obs
