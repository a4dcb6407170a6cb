#include "persist/shard_store.h"

#include <utility>

#include "serde/buffer.h"

namespace sci::persist {
namespace {

// WAL frame payload: [varint epoch][varint index][record bytes to end].
serde::BufferRef encode_wal_payload(std::uint32_t epoch, std::uint64_t index,
                                    const serde::BufferRef& rec) {
  serde::Writer w(rec.size() + 12);
  w.varint(epoch);
  w.varint(index);
  w.raw(rec.data(), rec.size());
  return w.take_ref();
}

// Checkpoint frame payload: [varint epoch][varint base][snapshot to end].
serde::BufferRef encode_ckpt_payload(std::uint32_t epoch, std::uint64_t base,
                                     const std::vector<std::byte>& snap) {
  serde::Writer w(snap.size() + 12);
  w.varint(epoch);
  w.varint(base);
  w.raw(snap.data(), snap.size());
  return w.take_ref();
}

// Checkpoint cadence. A checkpoint also fires on promote() so each
// incarnation's WAL holds only its own epoch's records.
constexpr Duration kCheckpointInterval = Duration::seconds(5);
// Skip a timed checkpoint when the WAL tail is shorter than this many
// records — rewriting the full snapshot to save a tiny tail is wasted IO.
constexpr std::uint64_t kCheckpointMinRecords = 16;

}  // namespace

ShardStore::ShardStore(sim::Simulator& sim, StorageEnv& env, std::string name,
                       DurabilityConfig config)
    : sim_(sim),
      env_(env),
      name_(std::move(name)),
      wal_file_(name_ + ".wal"),
      checkpoint_file_(name_ + ".ckpt"),
      config_(config) {
  obs::MetricsRegistry& m = sim_.metrics();
  m_appends_ = &m.counter("persist.appends");
  m_flushes_ = &m.counter("persist.flushes");
  m_bytes_ = &m.counter("persist.wal_bytes");
  m_syncs_ = &m.counter("persist.syncs");
  m_sync_failures_ = &m.counter("persist.sync_failures");
  m_checkpoints_ = &m.counter("persist.checkpoints");
  m_checkpoint_bytes_ = &m.counter("persist.checkpoint_bytes");
  m_checkpoint_failures_ = &m.counter("persist.checkpoint_failures");
  m_recoveries_ = &m.counter("persist.recoveries");
  m_recovered_records_ = &m.counter("persist.recovered_records");
  m_truncated_tails_ = &m.counter("persist.truncated_tails");
}

ShardStore::~ShardStore() {
  // A sync still in flight dies with the store: a power cut mid-fsync.
  sim_.cancel(sync_timer_);
  sim_.cancel(checkpoint_timer_);
}

void ShardStore::append(std::uint32_t epoch, std::uint64_t index,
                        serde::BufferRef record_bytes) {
  buffer_.push_back({epoch, index, std::move(record_bytes)});
  if (index > appended_index_) appended_index_ = index;
  m_appends_->inc();
  start_sync();
}

bool ShardStore::flush() {
  // The barrier's own sync covers every byte the in-flight one would have.
  cancel_sync();
  write_batch();
  if (unsynced_bytes_ > 0) {
    m_flushes_->inc();
    // Disk refused the fsync: the watermark (and every held ack behind it)
    // stays put, and the commit loop retries one sync_cost later.
    if (!sync_written()) start_sync();
  }
  return durable_index_ >= appended_index_;
}

void ShardStore::write_batch() {
  if (buffer_.empty()) return;
  batch_.clear();
  for (const Buffered& b : buffer_) {
    serde::append_frame(batch_, encode_wal_payload(b.epoch, b.index, b.bytes));
    if (b.index > written_index_) written_index_ = b.index;
  }
  env_.append(wal_file(), batch_);
  m_bytes_->inc(batch_.size());
  unsynced_bytes_ += batch_.size();
  wal_records_ += buffer_.size();
  buffer_.clear();
}

bool ShardStore::sync_written() {
  m_syncs_->inc();
  if (!env_.sync(wal_file())) {
    m_sync_failures_->inc();
    return false;
  }
  unsynced_bytes_ = 0;
  if (written_index_ > durable_index_) {
    durable_index_ = written_index_;
    if (durable_) durable_(durable_index_);
  }
  return true;
}

void ShardStore::start_sync() {
  if (sync_timer_.valid()) return;  // the completion picks the buffer up
  write_batch();
  if (unsynced_bytes_ == 0) return;
  m_flushes_->inc();
  sync_timer_ = sim_.schedule(StorageEnv::sync_cost(unsynced_bytes_), [this] {
    sync_timer_ = sim::TimerHandle{};
    // Success or failure, the disk is idle again: the next batch (or the
    // retry of this one) goes out at once.
    (void)sync_written();
    start_sync();
  });
}

void ShardStore::cancel_sync() {
  sim_.cancel(sync_timer_);
  sync_timer_ = sim::TimerHandle{};
}

bool ShardStore::checkpoint(std::uint32_t epoch) {
  if (!snapshot_provider_) return false;
  // Fold any buffered tail into the WAL first so a failed checkpoint write
  // still leaves the log complete.
  flush();
  return checkpoint_with(epoch, appended_index_, snapshot_provider_());
}

bool ShardStore::checkpoint_with(std::uint32_t epoch, std::uint64_t base,
                                 const std::vector<std::byte>& snapshot) {
  std::vector<std::byte> file;
  serde::append_frame(file, encode_ckpt_payload(epoch, base, snapshot));
  const std::size_t file_size = file.size();
  if (!env_.write_atomic(checkpoint_file(), std::move(file))) {
    m_checkpoint_failures_->inc();
    return false;
  }
  m_checkpoints_->inc();
  m_checkpoint_bytes_->inc(file_size);
  // The checkpoint supersedes the log: restart it empty. The snapshot also
  // *defines* the index space from here on (a standby adopting another
  // incarnation's snapshot may move to a lower base), so the write-side
  // watermarks re-seat on it rather than merely ratchet.
  cancel_sync();
  env_.remove(wal_file());
  buffer_.clear();
  unsynced_bytes_ = 0;
  wal_records_ = 0;
  const bool rose = base > durable_index_;
  appended_index_ = base;
  written_index_ = base;
  durable_index_ = base;
  if (rose && durable_) durable_(durable_index_);
  return true;
}

RecoveredState ShardStore::recover() {
  RecoveredState out;
  m_recoveries_->inc();

  // Checkpoint first: one frame, or nothing usable.
  const std::vector<std::byte> ckpt = env_.read(checkpoint_file());
  if (!ckpt.empty()) {
    serde::FrameCursor cursor(ckpt);
    std::vector<std::byte> payload;
    if (cursor.next(payload)) {
      serde::Reader r(payload);
      auto epoch = r.varint();
      auto base = r.varint();
      if (epoch && base) {
        out.epoch = static_cast<std::uint32_t>(epoch.value());
        out.base_index = base.value();
        out.snapshot.assign(payload.begin() +
                                static_cast<std::ptrdiff_t>(payload.size() -
                                                            r.remaining()),
                            payload.end());
        out.any = true;
      }
    }
    // A damaged checkpoint is treated as absent: the WAL alone (or a peer
    // snapshot) must carry recovery.
  }

  // WAL tail: ordered frames above the checkpoint base, stop at first damage.
  const std::vector<std::byte> wal = env_.read(wal_file());
  serde::FrameCursor cursor(wal);
  std::vector<std::byte> payload;
  while (cursor.next(payload)) {
    serde::Reader r(payload);
    auto epoch = r.varint();
    auto index = r.varint();
    if (!epoch || !index) break;  // framed but malformed — treat as damage
    RecoveredState::TailRecord rec;
    rec.epoch = static_cast<std::uint32_t>(epoch.value());
    rec.index = index.value();
    rec.bytes.assign(
        payload.begin() +
            static_cast<std::ptrdiff_t>(payload.size() - r.remaining()),
        payload.end());
    if (rec.index <= out.base_index) continue;  // superseded by checkpoint
    if (rec.epoch > out.epoch) out.epoch = rec.epoch;
    out.records.push_back(std::move(rec));
    out.any = true;
  }
  if (cursor.stop() != serde::FrameStop::kClean) {
    out.tail_truncated = true;
    out.stop = cursor.stop();
    m_truncated_tails_->inc();
  }
  // Cut the file back to its intact, durable prefix: the damaged tail (and
  // any unsynced suffix a crash discarded) must not pollute future appends.
  env_.truncate(wal_file(), cursor.stop_offset());
  env_.clear_read_faults(wal_file());

  out.watermark = out.base_index;
  for (const auto& rec : out.records) {
    if (rec.index > out.watermark) out.watermark = rec.index;
  }
  m_recovered_records_->inc(out.records.size());

  // Re-seat the write side on the recovered image.
  appended_index_ = out.watermark;
  durable_index_ = out.watermark;
  written_index_ = out.watermark;
  wal_records_ = out.records.size();
  buffer_.clear();
  unsynced_bytes_ = 0;
  return out;
}

void ShardStore::start_checkpoint_timer(
    std::function<std::uint32_t()> epoch_source) {
  if (epoch_source) epoch_source_ = std::move(epoch_source);
  sim_.cancel(checkpoint_timer_);
  checkpoint_timer_ = sim_.schedule(kCheckpointInterval, [this] {
    if (wal_records_ + buffer_.size() >= kCheckpointMinRecords) {
      checkpoint(epoch_source_ ? epoch_source_() : 0);
    }
    start_checkpoint_timer({});
  });
}

}  // namespace sci::persist
