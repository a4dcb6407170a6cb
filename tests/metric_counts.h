// Test-side reads of metrics-registry counters.
//
// MetricsSnapshot::counter reads an absent metric as 0, so a mistyped name
// would pass an `== 0u` check. These reads fail the test instead when the
// (name, label) pair was never registered.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "obs/metrics.h"
#include "range/context_server.h"

namespace sci {

namespace detail {
inline std::uint64_t value_or_fail(const obs::Counter* counter,
                                   std::string_view name,
                                   std::string_view label) {
  if (counter == nullptr) {
    ADD_FAILURE() << "counter " << name << "{" << label
                  << "} was never registered";
    return 0;
  }
  return counter->value();
}
}  // namespace detail

// The counter (name, label); 0 plus a test failure when it is absent.
inline std::uint64_t registry_count(const obs::MetricsRegistry& metrics,
                                    std::string_view name,
                                    std::string_view label = {}) {
  return detail::value_or_fail(metrics.find_counter(name, label), name, label);
}

// `server`'s slot of the node-labelled family `name`: everything counted on
// the server's node since the registry was created, so a cold restart on the
// same node continues it.
inline std::uint64_t node_count(const range::ContextServer& server,
                                std::string_view name) {
  return detail::value_or_fail(server.node_counter(name), name,
                               server.metrics_label());
}

}  // namespace sci
