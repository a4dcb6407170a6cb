// SCI — size-classed slab pool for hot-path byte buffers (docs/MEMORY.md).
//
// Every frame crossing the simulated fabric is held by several layers at
// once (mediator → reliable envelope → network → retransmit map →
// replication → WAL). BufferArena backs those frames with a pool of
// reference-counted blocks drawn from intrusive per-size-class freelists
// (the snmalloc slab/freelist idiom, scaled down to a single-threaded
// discrete-event simulation), so no boundary copies or frees a frame:
//
//  * acquire() rounds the request up to a power-of-two size class
//    (64 B … 64 KiB) and pops the class freelist; only a cold class — or
//    an oversize request — touches the heap.
//  * Blocks are reference counted. serde::BufferRef (serde/buffer.h) is
//    the owning handle; copying one is a counter increment, so the same
//    encoded frame can sit in the mediator fan-out, a retransmit map, the
//    replication tail and the WAL buffer simultaneously without a byte
//    moving.
//  * When the last reference drops the block returns to its freelist.
//    Steady state therefore performs zero heap allocations on the
//    publish→deliver path — the property bench/fig2_range_components
//    measures and CI gates (allocs_per_delivered_event == 0).
//
// Threading: the whole simulation is single-threaded by design (DESIGN.md
// §2), so reference counts and freelists are deliberately unsynchronised.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sci::mem {

// Aggregate pool counters, mirrored into the `mem.*` gauge family
// (docs/OBSERVABILITY.md) by the Simulator whenever a metrics snapshot is
// taken.
struct ArenaStats {
  std::uint64_t block_allocs = 0;   // freelist misses: fresh heap blocks
  std::uint64_t reuses = 0;         // freelist hits
  std::uint64_t oversize = 0;       // requests above the largest class
  std::uint64_t releases = 0;       // blocks whose last reference dropped
  std::uint64_t outstanding = 0;    // live (referenced) blocks right now
  std::uint64_t pooled_free = 0;    // blocks parked on freelists right now
  std::uint64_t bytes_reserved = 0; // capacity held live + on freelists
};

class BufferArena {
 public:
  // Size classes are 64 << c for c in [0, kClassCount): 64 B … 64 KiB.
  static constexpr std::size_t kClassCount = 11;
  static constexpr std::size_t kMinClassBytes = 64;
  static constexpr std::uint32_t kUnpooled = 0xFFFFFFFFu;

  // One pooled allocation. The byte payload follows the header; BufferRef
  // handles hold a Block* and manage `refs`.
  struct alignas(alignof(std::max_align_t)) Block {
    BufferArena* arena = nullptr;  // owner; nullptr once the arena died
    Block* next_free = nullptr;    // intrusive freelist link (free blocks)
    std::size_t capacity = 0;
    std::uint32_t refs = 0;
    std::uint32_t size_class = kUnpooled;

    [[nodiscard]] std::byte* data() {
      return reinterpret_cast<std::byte*>(this + 1);
    }
    [[nodiscard]] const std::byte* data() const {
      return reinterpret_cast<const std::byte*>(this + 1);
    }
  };

  BufferArena() = default;
  ~BufferArena();

  BufferArena(const BufferArena&) = delete;
  BufferArena& operator=(const BufferArena&) = delete;

  // Returns a block with capacity >= min_capacity and refs == 1.
  Block* acquire(std::size_t min_capacity);

  // Reference management for handle types. unref() returns the block to
  // its freelist (or the heap) when the last reference drops.
  static void ref(Block* block) { ++block->refs; }
  static void unref(Block* block);

  // Frees every freelist block (tests; also bounds a long-lived process).
  void trim();

  [[nodiscard]] const ArenaStats& stats() const { return stats_; }

  // The process-wide pool every serde::Writer and BufferRef draws from.
  static BufferArena& global();

  [[nodiscard]] static std::size_t class_for(std::size_t n);
  [[nodiscard]] static std::size_t class_bytes(std::size_t cls) {
    return kMinClassBytes << cls;
  }

 private:
  void release(Block* block);

  Block* free_[kClassCount] = {};
  ArenaStats stats_;
};

}  // namespace sci::mem
