#include "obs/metrics.h"

#include <algorithm>

#include "common/assert.h"

namespace sci::obs {

Symbol MetricsRegistry::intern(std::string_view text) {
  const auto it = symbol_index_.find(text);
  if (it != symbol_index_.end()) return it->second;
  const auto symbol = static_cast<Symbol>(symbols_.size());
  symbols_.emplace_back(text);
  symbol_index_.emplace(symbols_.back(), symbol);
  return symbol;
}

std::string_view MetricsRegistry::name_of(Symbol symbol) const {
  SCI_ASSERT(symbol < symbols_.size());
  return symbols_[symbol];
}

template <typename T>
T& MetricsRegistry::get_slot(std::deque<Slot<T>>& slots,
                             std::map<Key, T*>& index, std::string_view name,
                             std::string_view label) {
  const Key key{intern(name), intern(label)};
  const auto it = index.find(key);
  if (it != index.end()) return *it->second;
  slots.push_back(Slot<T>{key, T{}});
  T& metric = slots.back().metric;
  index.emplace(key, &metric);
  return metric;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view label) {
  return get_slot(counters_, counter_index_, name, label);
}

TwinCounter MetricsRegistry::twin(std::string_view name,
                                  std::string_view label) {
  return TwinCounter{&counter(name),
                     label.empty() ? nullptr : &counter(name, label)};
}

const Counter* MetricsRegistry::find_counter(std::string_view name,
                                             std::string_view label) const {
  const auto n = symbol_index_.find(name);
  const auto l = symbol_index_.find(label);
  if (n == symbol_index_.end() || l == symbol_index_.end()) return nullptr;
  const auto it = counter_index_.find(Key{n->second, l->second});
  return it == counter_index_.end() ? nullptr : it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view label) {
  return get_slot(gauges_, gauge_index_, name, label);
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view label) {
  return get_slot(histograms_, histogram_index_, name, label);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  if (snapshot_hook_) snapshot_hook_();
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& slot : counters_) {
    snap.counters.push_back({std::string(name_of(slot.key.name)),
                             std::string(name_of(slot.key.label)),
                             slot.metric.value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& slot : gauges_) {
    snap.gauges.push_back({std::string(name_of(slot.key.name)),
                           std::string(name_of(slot.key.label)),
                           slot.metric.value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& slot : histograms_) {
    const RunningStats& s = slot.metric.stats();
    snap.histograms.push_back({std::string(name_of(slot.key.name)),
                               std::string(name_of(slot.key.label)), s.count(),
                               s.mean(), s.stddev(), s.min(), s.max()});
  }
  return snap;
}

void MetricsRegistry::reset() {
  for (auto& slot : counters_) slot.metric.reset();
  for (auto& slot : gauges_) slot.metric.reset();
  for (auto& slot : histograms_) slot.metric.reset();
}

std::uint64_t MetricsSnapshot::counter(std::string_view name,
                                       std::string_view label) const {
  for (const auto& entry : counters) {
    if (entry.name == name && entry.label == label) return entry.value;
  }
  return 0;
}

std::uint64_t MetricsSnapshot::counter_sum(std::string_view name) const {
  std::uint64_t sum = 0;
  for (const auto& entry : counters) {
    if (entry.name == name) sum += entry.value;
  }
  return sum;
}

std::uint64_t MetricsSnapshot::counter_max(std::string_view name) const {
  std::uint64_t max = 0;
  for (const auto& entry : counters) {
    if (entry.name == name) max = std::max(max, entry.value);
  }
  return max;
}

std::size_t MetricsSnapshot::counter_family_size(std::string_view name) const {
  std::size_t n = 0;
  for (const auto& entry : counters) {
    if (entry.name == name) ++n;
  }
  return n;
}

double MetricsSnapshot::gauge(std::string_view name,
                              std::string_view label) const {
  for (const auto& entry : gauges) {
    if (entry.name == name && entry.label == label) return entry.value;
  }
  return 0.0;
}

const MetricsSnapshot::HistogramEntry* MetricsSnapshot::histogram(
    std::string_view name, std::string_view label) const {
  for (const auto& entry : histograms) {
    if (entry.name == name && entry.label == label) return &entry;
  }
  return nullptr;
}

namespace {

Value histogram_value(const MetricsSnapshot::HistogramEntry& entry) {
  ValueMap map;
  map.emplace("count", static_cast<std::int64_t>(entry.count));
  map.emplace("mean", entry.mean);
  map.emplace("stddev", entry.stddev);
  map.emplace("min", entry.min);
  map.emplace("max", entry.max);
  return Value(std::move(map));
}

}  // namespace

Value MetricsSnapshot::to_json() const {
  ValueMap plain_counters;
  ValueMap counter_families;
  for (const auto& entry : counters) {
    if (entry.label.empty()) {
      plain_counters.emplace(entry.name,
                             static_cast<std::int64_t>(entry.value));
    } else {
      counter_families[entry.name][entry.label] =
          Value(static_cast<std::int64_t>(entry.value));
    }
  }
  ValueMap plain_gauges;
  ValueMap gauge_families;
  for (const auto& entry : gauges) {
    if (entry.label.empty()) {
      plain_gauges.emplace(entry.name, entry.value);
    } else {
      gauge_families[entry.name][entry.label] = Value(entry.value);
    }
  }
  ValueMap plain_histograms;
  ValueMap histogram_families;
  for (const auto& entry : histograms) {
    if (entry.label.empty()) {
      plain_histograms.emplace(entry.name, histogram_value(entry));
    } else {
      histogram_families[entry.name][entry.label] = histogram_value(entry);
    }
  }
  ValueMap root;
  root.emplace("counters", Value(std::move(plain_counters)));
  root.emplace("counter_families", Value(std::move(counter_families)));
  root.emplace("gauges", Value(std::move(plain_gauges)));
  root.emplace("gauge_families", Value(std::move(gauge_families)));
  root.emplace("histograms", Value(std::move(plain_histograms)));
  root.emplace("histogram_families", Value(std::move(histogram_families)));
  return Value(std::move(root));
}

}  // namespace sci::obs
