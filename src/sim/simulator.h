// SCI — discrete-event simulation kernel.
//
// The paper evaluated SCI as a Java prototype on a live network; this
// reproduction runs the identical middleware logic over a deterministic
// discrete-event scheduler instead (see DESIGN.md §2). Components never
// block: they schedule callbacks at future virtual instants, and the kernel
// executes them in (time, sequence) order, so every run with the same seed
// is bit-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "common/assert.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/time.h"
#include "mem/arena.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sci::sim {

using Task = std::function<void()>;

// Handle for cancelling a scheduled event: the event's queue slot plus the
// slot's generation when the event was scheduled. The slot's generation
// moves on once the event leaves the queue, so a handle to a fired or
// cancelled event goes stale and cancelling it again touches nothing.
class TimerHandle {
 public:
  TimerHandle() = default;
  [[nodiscard]] bool valid() const { return slot_plus_one_ != 0; }

 private:
  friend class Simulator;
  TimerHandle(std::uint32_t slot, std::uint32_t generation)
      : slot_plus_one_(slot + 1), generation_(generation) {}
  std::uint32_t slot_plus_one_ = 0;
  std::uint32_t generation_ = 0;
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed)
      : rng_(seed) {
    Logger::instance().set_clock(&now_);
    // Kernel metrics are interned once here; updates on the run loop are
    // pointer increments only.
    executed_counter_ = &metrics_.counter("sim.events.executed");
    scheduled_counter_ = &metrics_.counter("sim.events.scheduled");
    cancelled_counter_ = &metrics_.counter("sim.events.cancelled");
    queue_depth_gauge_ = &metrics_.gauge("sim.queue.depth");
    // Pool health (docs/MEMORY.md): the process-wide buffer arena has no
    // registry of its own, so its counters are mirrored into `mem.*`
    // gauges whenever a snapshot is taken. Note the arena is shared by
    // every deployment in the process; these gauges describe the pool,
    // not this simulator alone.
    mem_block_allocs_ = &metrics_.gauge("mem.pool.block_allocs");
    mem_reuses_ = &metrics_.gauge("mem.pool.reuses");
    mem_oversize_ = &metrics_.gauge("mem.pool.oversize");
    mem_releases_ = &metrics_.gauge("mem.pool.releases");
    mem_outstanding_ = &metrics_.gauge("mem.pool.outstanding");
    mem_pooled_free_ = &metrics_.gauge("mem.pool.free");
    mem_bytes_reserved_ = &metrics_.gauge("mem.pool.bytes_reserved");
    metrics_.set_snapshot_hook([this] { sync_pool_gauges(); });
  }

  ~Simulator() { Logger::instance().set_clock(nullptr); }

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  // Deployment-scoped observability: one registry and one trace ring per
  // simulated deployment. Every layer built over this simulator (network,
  // overlay, ranges) registers its instruments here.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }
  [[nodiscard]] obs::TraceBuffer& trace() { return trace_; }
  [[nodiscard]] const obs::TraceBuffer& trace() const { return trace_; }

  // Schedules `task` to run at now() + delay (delay >= 0). Events scheduled
  // for the same instant run in scheduling order.
  TimerHandle schedule(Duration delay, Task task) {
    return schedule_at(now_ + delay, std::move(task));
  }

  TimerHandle schedule_at(SimTime when, Task task) {
    SCI_ASSERT_MSG(when >= now_, "cannot schedule into the past");
    std::uint32_t slot = 0;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    slots_[slot].task = std::move(task);
    queue_.push(Entry{when, ++next_id_, slot});
    ++scheduled_count_;
    scheduled_counter_->inc();
    return TimerHandle(slot, slots_[slot].generation);
  }

  // Cancels a pending event in O(1): the entry stays queued and is dropped
  // when it reaches the front (lazy deletion). Cancelling an already-fired
  // or already cancelled handle is a no-op that leaves no state behind.
  void cancel(TimerHandle handle) {
    if (!handle.valid()) return;
    cancelled_counter_->inc();
    const std::uint32_t slot = handle.slot_plus_one_ - 1;
    if (slot < slots_.size() &&
        slots_[slot].generation == handle.generation_) {
      slots_[slot].cancelled = true;
    }
  }

  // Runs until the queue is empty or `until` is reached, whichever is first.
  // Returns the number of events executed.
  std::uint64_t run_until(SimTime until);

  // Drains the queue completely (use with care: recurring timers must have a
  // termination condition).
  std::uint64_t run_all() { return run_until(SimTime::infinity()); }

  // Executes exactly one event, if any. Returns false when the queue is
  // empty or the next event is after `until`.
  bool step(SimTime until = SimTime::infinity());

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const {
    return executed_count_;
  }
  [[nodiscard]] std::uint64_t scheduled_events() const {
    return scheduled_count_;
  }

 private:
  void sync_pool_gauges() {
    const mem::ArenaStats& s = mem::BufferArena::global().stats();
    mem_block_allocs_->set(static_cast<double>(s.block_allocs));
    mem_reuses_->set(static_cast<double>(s.reuses));
    mem_oversize_->set(static_cast<double>(s.oversize));
    mem_releases_->set(static_cast<double>(s.releases));
    mem_outstanding_->set(static_cast<double>(s.outstanding));
    mem_pooled_free_->set(static_cast<double>(s.pooled_free));
    mem_bytes_reserved_->set(static_cast<double>(s.bytes_reserved));
  }

  // The heap holds only the ordering key; the task waits in its slot, so a
  // sift moves a few words instead of a std::function.
  struct Entry {
    SimTime when;
    std::uint64_t id;    // scheduling order: ties at `when` run in id order
    std::uint32_t slot;  // index into slots_, owned until the entry pops

    // Min-heap via std::priority_queue (which is a max-heap): invert.
    bool operator<(const Entry& other) const {
      if (when != other.when) return when > other.when;
      return id > other.id;
    }
  };

  // Per-entry task and cancellation state, one slot per queued entry and
  // recycled when the entry pops, so it is bounded by the peak queue depth.
  struct Slot {
    std::uint32_t generation = 0;
    bool cancelled = false;
    Task task;  // moved out when the entry pops
  };

  // Frees the slot of the entry leaving the queue (stale-ing its handle) and
  // reports whether the entry was cancelled.
  bool release(std::uint32_t slot);

  SimTime now_ = SimTime::zero();
  Rng rng_;
  obs::MetricsRegistry metrics_;
  obs::TraceBuffer trace_;
  obs::Counter* executed_counter_ = nullptr;
  obs::Counter* scheduled_counter_ = nullptr;
  obs::Counter* cancelled_counter_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Gauge* mem_block_allocs_ = nullptr;
  obs::Gauge* mem_reuses_ = nullptr;
  obs::Gauge* mem_oversize_ = nullptr;
  obs::Gauge* mem_releases_ = nullptr;
  obs::Gauge* mem_outstanding_ = nullptr;
  obs::Gauge* mem_pooled_free_ = nullptr;
  obs::Gauge* mem_bytes_reserved_ = nullptr;
  std::priority_queue<Entry> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_id_ = 0;
  std::uint64_t executed_count_ = 0;
  std::uint64_t scheduled_count_ = 0;
};

// Repeating timer helper built on Simulator::schedule. Owned by the
// component that needs the heartbeat; stops when destroyed or stop()ped.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& simulator, Duration period, Task task)
      : simulator_(simulator), period_(period), task_(std::move(task)) {
    SCI_ASSERT(period.count_micros() > 0);
  }

  ~PeriodicTimer() { stop(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start() {
    if (running_) return;
    running_ = true;
    arm();
  }

  void stop() {
    running_ = false;
    simulator_.cancel(handle_);
    handle_ = TimerHandle();
  }

  [[nodiscard]] bool running() const { return running_; }

 private:
  void arm() {
    handle_ = simulator_.schedule(period_, [this] {
      if (!running_) return;
      task_();
      if (running_) arm();
    });
  }

  Simulator& simulator_;
  Duration period_;
  Task task_;
  TimerHandle handle_;
  bool running_ = false;
};

}  // namespace sci::sim
