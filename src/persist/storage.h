// SCI — simulated durable storage environment.
//
// The discrete-event deployment has no real disk, but durability semantics
// are exactly what the persist tier must get right, so StorageEnv models the
// part of a filesystem that matters for crash recovery: named append-only
// files where *written* and *durable* are different states. Writes extend a
// file's volatile size; only sync() advances the durable watermark, and a
// crash (or simply recovery, which reads the durable prefix) discards the
// unsynced suffix — precisely the contract of write(2) + fsync(2).
//
// A sync is not free: sync_cost() is the virtual time one fsync takes, a
// fixed device latency plus a per-KiB transfer term. The env itself stays
// instantaneous; ShardStore schedules the sync's completion that far ahead
// and calls sync() only when it lands, so a crash in between loses the
// batch exactly as a power cut mid-fsync would.
//
// StorageEnv is owned by the facade (Sci) and deliberately outlives every
// ContextServer object, so "cold restart" is honest: the server objects are
// destroyed, new ones are built, and the only state that survives the gap is
// what a ShardStore managed to make durable here.
//
// Fault injection (sim::FaultPlan → Sci::inject_faults → these hooks) models
// the classic WAL failure modes:
//   * tear_tail      — chop N durable bytes off the end (torn write: the
//                      kernel acked the fsync but the last sectors are gone);
//   * corrupt_tail   — flip one byte inside the last durable frame (bit rot);
//   * fail_syncs     — the next N sync()/write_atomic() calls fail, leaving
//                      the durable watermark where it was (full disk, dying
//                      controller) — callers must keep acks held;
//   * short_reads    — read() returns at most N bytes until cleared (a
//                      recovery that sees a partial file must still succeed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/time.h"

namespace sci::persist {

// Disk model: one fsync costs kSyncLatency plus kSyncMicrosPerKiB for every
// KiB it makes durable.
inline constexpr Duration kSyncLatency = Duration::millis(1);
inline constexpr std::int64_t kSyncMicrosPerKiB = 2;

struct StorageStats {
  std::uint64_t appends = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t syncs = 0;
  std::uint64_t sync_failures = 0;
  std::uint64_t atomic_writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t faults_injected = 0;
};

class StorageEnv {
 public:
  // Virtual time one sync() of `bytes` unsynced bytes takes.
  [[nodiscard]] static constexpr Duration sync_cost(std::size_t bytes) {
    return kSyncLatency +
           Duration::micros(kSyncMicrosPerKiB *
                            static_cast<std::int64_t>(bytes / 1024));
  }

  // Appends `data` to the (created-on-first-touch) file. The bytes are
  // volatile until the next successful sync().
  void append(const std::string& name, const std::vector<std::byte>& data);

  // Makes every appended byte durable. Returns false (watermark unchanged)
  // while a fail_syncs() injection is armed.
  [[nodiscard]] bool sync(const std::string& name);

  // Atomic replace: models write-to-temp + fsync + rename. On success the
  // new content is fully durable; on injected failure the old content (and
  // its durable watermark) is untouched — never a half-written file.
  [[nodiscard]] bool write_atomic(const std::string& name,
                                  std::vector<std::byte> data);

  // Returns the durable prefix (what survives a crash), truncated further by
  // an armed short_reads() injection. Missing files read as empty.
  [[nodiscard]] std::vector<std::byte> read(const std::string& name) const;

  // Discards everything past `size` — both volatile and durable. Recovery
  // uses this to drop a torn tail before appending fresh records.
  void truncate(const std::string& name, std::size_t size);

  void remove(const std::string& name);
  [[nodiscard]] bool exists(const std::string& name) const;
  [[nodiscard]] std::size_t size(const std::string& name) const;
  [[nodiscard]] std::size_t durable_size(const std::string& name) const;
  // Names of all files sharing `prefix` (recover_range enumerates per-shard
  // stores this way).
  [[nodiscard]] std::vector<std::string> list(const std::string& prefix) const;

  // --- fault injection --------------------------------------------------
  void tear_tail(const std::string& name, std::size_t bytes);
  void corrupt_tail(const std::string& name);
  void fail_syncs(const std::string& name, unsigned count);
  void short_reads(const std::string& name, std::size_t limit);
  void clear_read_faults(const std::string& name);

  [[nodiscard]] const StorageStats& stats() const { return stats_; }

 private:
  struct File {
    std::vector<std::byte> bytes;
    std::size_t durable = 0;
    unsigned fail_syncs = 0;
    std::size_t short_read_limit = 0;  // 0 = no limit
  };

  // Ordered so list() is deterministic regardless of creation order.
  std::map<std::string, File> files_;
  mutable StorageStats stats_;  // read() is logically const but counted
};

}  // namespace sci::persist
