// SCI — deployment-scoped metrics registry.
//
// Runtime introspection for the middleware (ROADMAP: manageability is the
// recurring gap in context middlewares). Every layer — simulator kernel,
// network fabric, SCINET overlay, event mediator, context servers — exposes
// named counters, gauges and histograms through one registry owned by the
// deployment's Simulator, so a single snapshot describes a whole run.
//
// Hot-path contract: metric *registration* interns the name (and optional
// label) into a symbol table and may allocate; metric *updates* never do.
// Instrumented components intern once at construction, keep the returned
// pointer, and increment through it:
//
//   obs::Counter* sent = &simulator.metrics().counter("net.sent");
//   ...
//   sent->inc();                     // one add, no lookup, no allocation
//
// Labels give per-instance families sharing a name ("scinet.node.forwarded"
// labelled by node id) which MetricsSnapshot can aggregate (sum/max) — this
// is how the Fig 1 per-node load distribution is measured. A TwinCounter
// keeps an unlabelled deployment total and one instance's labelled slot in
// lockstep ("rel.*" per shard, "cs.*" per node; docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "serde/value.h"

namespace sci::obs {

// Interned-string handle; dense indices into the registry's symbol table.
using Symbol = std::uint32_t;

// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

// A registry counter plus its optional labelled twin: inc() bumps both, so
// the global total and the per-instance family advance together.
struct TwinCounter {
  Counter* global = nullptr;
  Counter* labeled = nullptr;  // nullptr: the global alone
  void inc(std::uint64_t n = 1) {
    global->inc(n);
    if (labeled != nullptr) labeled->inc(n);
  }
};

// Point-in-time level (queue depth, table population).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double delta) { value_ += delta; }
  [[nodiscard]] double value() const { return value_; }
  void reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

// Streaming distribution (Welford accumulator: count/mean/stddev/min/max).
class Histogram {
 public:
  void observe(double x) { stats_.add(x); }
  [[nodiscard]] const RunningStats& stats() const { return stats_; }
  void reset() { stats_ = RunningStats{}; }

 private:
  RunningStats stats_;
};

// Immutable copy of every registered metric, taken with
// MetricsRegistry::snapshot(). Entries keep registration order.
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    std::string label;  // empty for unlabelled metrics
    std::uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    std::string label;
    double value = 0.0;
  };
  struct HistogramEntry {
    std::string name;
    std::string label;
    std::uint64_t count = 0;
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;

  // Value of one counter (0 when absent).
  [[nodiscard]] std::uint64_t counter(std::string_view name,
                                      std::string_view label = {}) const;
  // Aggregates over every counter sharing `name` (a labelled family).
  [[nodiscard]] std::uint64_t counter_sum(std::string_view name) const;
  [[nodiscard]] std::uint64_t counter_max(std::string_view name) const;
  [[nodiscard]] std::size_t counter_family_size(std::string_view name) const;

  [[nodiscard]] double gauge(std::string_view name,
                             std::string_view label = {}) const;
  // nullptr when absent.
  [[nodiscard]] const HistogramEntry* histogram(
      std::string_view name, std::string_view label = {}) const;

  // Serializes the whole snapshot as a serde::Value tree:
  //   { "counters":   { name: value, ... },
  //     "counter_families":   { name: { label: value, ... } },
  //     "gauges":     { ... }, "gauge_families": { ... },
  //     "histograms": { name: {count,mean,stddev,min,max} },
  //     "histogram_families": { ... } }
  // Render to text with serde::to_json() for machine-readable BENCH output.
  [[nodiscard]] Value to_json() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Interns (name, label) and returns the metric slot. The same pair always
  // yields the same slot; references stay valid for the registry's
  // lifetime. Intern at setup, update through the pointer on hot paths.
  Counter& counter(std::string_view name, std::string_view label = {});
  Gauge& gauge(std::string_view name, std::string_view label = {});
  Histogram& histogram(std::string_view name, std::string_view label = {});
  // The unlabelled `name` plus, when `label` is non-empty, its (name, label)
  // twin.
  TwinCounter twin(std::string_view name, std::string_view label);

  // The counter registered under (name, label), or nullptr when that pair
  // was never registered. Unlike counter() this never interns.
  [[nodiscard]] const Counter* find_counter(std::string_view name,
                                            std::string_view label = {}) const;

  // Symbol table (exposed for diagnostics/tests).
  Symbol intern(std::string_view text);
  [[nodiscard]] std::string_view name_of(Symbol symbol) const;
  [[nodiscard]] std::size_t symbol_count() const { return symbols_.size(); }

  [[nodiscard]] std::size_t counter_count() const { return counters_.size(); }
  [[nodiscard]] std::size_t gauge_count() const { return gauges_.size(); }
  [[nodiscard]] std::size_t histogram_count() const {
    return histograms_.size();
  }

  // Runs just before every snapshot() copies the metrics out. Lets an owner
  // mirror state that lives outside the registry — the Simulator installs
  // one that publishes the buffer arena's pool counters as `mem.*` gauges —
  // without putting a dependency on that state into every update path.
  using SnapshotHook = std::function<void()>;
  void set_snapshot_hook(SnapshotHook hook) { snapshot_hook_ = std::move(hook); }

  [[nodiscard]] MetricsSnapshot snapshot() const;

  // Zeroes every metric; registrations (and cached pointers) stay valid.
  void reset();

 private:
  struct Key {
    Symbol name;
    Symbol label;
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  template <typename T>
  struct Slot {
    Key key;
    T metric;
  };

  template <typename T>
  T& get_slot(std::deque<Slot<T>>& slots, std::map<Key, T*>& index,
              std::string_view name, std::string_view label);

  std::vector<std::string> symbols_;
  std::map<std::string, Symbol, std::less<>> symbol_index_;

  // std::deque: stable element addresses across growth.
  std::deque<Slot<Counter>> counters_;
  std::deque<Slot<Gauge>> gauges_;
  std::deque<Slot<Histogram>> histograms_;
  std::map<Key, Counter*> counter_index_;
  std::map<Key, Gauge*> gauge_index_;
  std::map<Key, Histogram*> histogram_index_;
  SnapshotHook snapshot_hook_;
};

}  // namespace sci::obs
