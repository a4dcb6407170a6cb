// SCI — per-shard write-behind durable store (docs/DURABILITY.md).
//
// One ShardStore backs one Context Server node (a shard primary or a
// standby). It persists the node's applied replication records into an
// append-only, CRC-framed write-ahead log (serde/frame.h) plus a periodic
// checkpoint, both living in the facade-owned StorageEnv that survives the
// node object itself:
//
//   <name>.ckpt   one atomic frame: [epoch][base_index][snapshot blob]
//   <name>.wal    frames of [epoch][index][record bytes], indices > base
//
// Writes are write-behind with leader-style group commit: append() only
// buffers, and whenever the disk is idle the buffered batch goes out as one
// file append plus one sync whose completion lands StorageEnv::sync_cost()
// later. Records appended while that sync is in flight wait in the buffer
// and leave together the moment it completes, so the batch size follows the
// load and the publish hot path never waits on a timer. The durable
// watermark — the highest index known to have survived a crash — advances
// only on a completed sync or checkpoint, and the owner's durable callback
// fires then: under DurabilityConfig::ack_after_fsync the Context Server
// keeps client admit-acks held (the same held-ack tickets sync_acks uses)
// until the op is both replicated and durable, which is what makes the
// zero-acked-op-loss claim of fig12 true rather than probabilistic.
//
// A failed sync (fault injection: dying disk) leaves the watermark — and
// therefore the held acks — exactly where they were; the store retries from
// the failed sync's completion. Destroying the store with a sync in flight
// is a power cut: the completion never lands and nothing in that batch
// becomes durable. A checkpoint supersedes the whole log tail: once the
// atomic checkpoint write succeeds, everything up to its base index is
// durable by definition and the WAL is restarted empty.
//
// recover() is the read side: parse checkpoint, then walk the WAL with a
// FrameCursor, stopping at the first torn/corrupt frame and truncating the
// file there (truncate-at-first-bad-frame). Recovery never fails — a damaged
// tail just yields a lower watermark, and the replication tier fetches the
// missing delta from a peer (ReplicationLog::attach_standby watermark
// negotiation).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "persist/storage.h"
#include "serde/buffer.h"
#include "serde/frame.h"
#include "sim/simulator.h"

namespace sci::persist {

struct DurabilityConfig {
  bool enable = false;
  // Hold client admit-acks until the op's index is durable (in addition to
  // any sync_acks replication requirement). Off = acks follow replication
  // only and a torn tail may lose acked ops on a whole-range restart.
  bool ack_after_fsync = true;
};

// Everything recover() could reconstruct from the durable files.
struct RecoveredState {
  std::uint32_t epoch = 0;       // highest epoch seen on disk
  std::uint64_t base_index = 0;  // checkpoint coverage
  std::vector<std::byte> snapshot;  // empty when no checkpoint existed
  // WAL tail in append order: (epoch, index, record bytes), index > base.
  struct TailRecord {
    std::uint32_t epoch = 0;
    std::uint64_t index = 0;
    std::vector<std::byte> bytes;
  };
  std::vector<TailRecord> records;
  std::uint64_t watermark = 0;  // highest recovered index (== base if none)
  bool tail_truncated = false;  // hit a damaged frame and cut the file there
  serde::FrameStop stop = serde::FrameStop::kClean;
  bool any = false;  // false when neither file held a single usable byte
};

class ShardStore {
 public:
  // Fires when the durable watermark advances (argument = new watermark).
  using DurableCallback = std::function<void(std::uint64_t)>;
  // Supplies the full-state snapshot blob for checkpoints (the same encoding
  // ReplicationLog ships to standbys).
  using SnapshotProvider = std::function<std::vector<std::byte>()>;

  ShardStore(sim::Simulator& sim, StorageEnv& env, std::string name,
             DurabilityConfig config);
  ~ShardStore();

  ShardStore(const ShardStore&) = delete;
  ShardStore& operator=(const ShardStore&) = delete;

  void set_durable_callback(DurableCallback cb) { durable_ = std::move(cb); }
  void set_snapshot_provider(SnapshotProvider p) {
    snapshot_provider_ = std::move(p);
  }

  // Buffers one applied record for group commit, and starts a sync at once
  // if none is in flight. Indices must be handed in ascending order (the
  // apply order of the owning node). The store keeps a reference to
  // `record_bytes` until its batch is written — the WAL buffer shares the
  // replication pipeline's block rather than copying it.
  void append(std::uint32_t epoch, std::uint64_t index,
              serde::BufferRef record_bytes);

  // Synchronous barrier: writes the buffered batch and syncs every unsynced
  // byte now, superseding any in-flight sync. Returns true when the durable
  // watermark caught up to every append.
  bool flush();

  // Takes a snapshot via the provider, writes it atomically and restarts the
  // WAL. No-op without a provider; returns false on injected sync failure.
  bool checkpoint(std::uint32_t epoch);

  // Checkpoint from an externally supplied snapshot covering everything
  // through `base` (a standby persisting the blob the primary just shipped
  // it). Same atomic-write + WAL-restart semantics; an in-flight sync is
  // cancelled, since the checkpoint supersedes the records it covered.
  bool checkpoint_with(std::uint32_t epoch, std::uint64_t base,
                       const std::vector<std::byte>& snapshot);

  // Reads checkpoint + WAL back from the environment, truncating a damaged
  // tail. Safe to call on a missing store (returns any=false).
  RecoveredState recover();

  [[nodiscard]] std::uint64_t durable_index() const { return durable_index_; }
  [[nodiscard]] std::uint64_t appended_index() const {
    return appended_index_;
  }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const DurabilityConfig& config() const { return config_; }
  [[nodiscard]] const std::string& wal_file() const { return wal_file_; }
  [[nodiscard]] const std::string& checkpoint_file() const {
    return checkpoint_file_;
  }
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }
  [[nodiscard]] bool sync_in_flight() const { return sync_timer_.valid(); }

  // Arms the periodic checkpoint timer (caller supplies the epoch source via
  // the provider's closure; the timer re-reads it each tick).
  void start_checkpoint_timer(std::function<std::uint32_t()> epoch_source);

 private:
  // Frames the buffered records into batch_ and appends them to the WAL
  // file. The one write path of flush() and the async commit loop.
  void write_batch();
  // One env sync over every written byte: advances the watermark (and fires
  // the durable callback) on success, counts a failure otherwise.
  bool sync_written();
  // Writes the buffered batch and schedules its sync, unless one is already
  // in flight or nothing is left to sync.
  void start_sync();
  void cancel_sync();

  sim::Simulator& sim_;
  StorageEnv& env_;
  std::string name_;
  std::string wal_file_;
  std::string checkpoint_file_;
  DurabilityConfig config_;

  DurableCallback durable_;
  SnapshotProvider snapshot_provider_;
  std::function<std::uint32_t()> epoch_source_;

  struct Buffered {
    std::uint32_t epoch = 0;
    std::uint64_t index = 0;
    serde::BufferRef bytes;
  };
  std::vector<Buffered> buffer_;
  std::vector<std::byte> batch_;  // reused framing buffer for write_batch()
  std::uint64_t appended_index_ = 0;  // highest index handed to append()
  std::uint64_t durable_index_ = 0;   // highest index known durable
  std::uint64_t written_index_ = 0;   // highest index written to the WAL
  std::uint64_t wal_records_ = 0;     // records in the current WAL file
  std::size_t unsynced_bytes_ = 0;    // written to the WAL, not yet synced

  sim::TimerHandle sync_timer_;  // the in-flight sync's completion
  sim::TimerHandle checkpoint_timer_;

  obs::Counter* m_appends_ = nullptr;
  obs::Counter* m_flushes_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_syncs_ = nullptr;
  obs::Counter* m_sync_failures_ = nullptr;
  obs::Counter* m_checkpoints_ = nullptr;
  obs::Counter* m_checkpoint_bytes_ = nullptr;
  obs::Counter* m_checkpoint_failures_ = nullptr;
  obs::Counter* m_recoveries_ = nullptr;
  obs::Counter* m_recovered_records_ = nullptr;
  obs::Counter* m_truncated_tails_ = nullptr;
};

}  // namespace sci::persist
