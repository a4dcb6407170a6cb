#include "sim/simulator.h"

namespace sci::sim {

bool Simulator::release(std::uint32_t slot) {
  Slot& state = slots_[slot];
  const bool cancelled = state.cancelled;
  state.cancelled = false;
  ++state.generation;
  free_slots_.push_back(slot);
  return cancelled;
}

bool Simulator::step(SimTime until) {
  while (!queue_.empty()) {
    const Entry top = queue_.top();
    if (top.when > until) return false;
    queue_.pop();
    Task task = std::move(slots_[top.slot].task);
    if (release(top.slot)) continue;
    now_ = top.when;
    ++executed_count_;
    executed_counter_->inc();
    queue_depth_gauge_->set(static_cast<double>(queue_.size()));
    task();
    return true;
  }
  return false;
}

std::uint64_t Simulator::run_until(SimTime until) {
  std::uint64_t executed = 0;
  while (step(until)) ++executed;
  // Advance the clock to the horizon so repeated bounded runs make progress
  // even through quiet periods.
  if (!until.is_infinite() && until > now_) now_ = until;
  return executed;
}

}  // namespace sci::sim
