#include "mem/arena.h"

#include <cstdlib>
#include <new>

namespace sci::mem {

namespace {

BufferArena::Block* heap_block(std::size_t capacity) {
  void* raw = ::operator new(sizeof(BufferArena::Block) + capacity);
  auto* block = new (raw) BufferArena::Block();
  block->capacity = capacity;
  block->refs = 1;
  return block;
}

void heap_free(BufferArena::Block* block) {
  block->~Block();
  ::operator delete(static_cast<void*>(block));
}

}  // namespace

// Live blocks must not outlive their arena (the intrusive freelist can't
// reach them to disown them). In practice every handle draws from
// global(), whose lifetime is the process.
BufferArena::~BufferArena() { trim(); }

std::size_t BufferArena::class_for(std::size_t n) {
  std::size_t cls = 0;
  while (cls < kClassCount && class_bytes(cls) < n) ++cls;
  return cls;  // kClassCount means oversize
}

BufferArena::Block* BufferArena::acquire(std::size_t min_capacity) {
  if (min_capacity == 0) min_capacity = 1;
  const std::size_t cls = class_for(min_capacity);
  if (cls >= kClassCount) {
    ++stats_.oversize;
    ++stats_.outstanding;
    stats_.bytes_reserved += min_capacity;
    Block* block = heap_block(min_capacity);
    block->arena = this;
    return block;
  }
  ++stats_.outstanding;
  if (Block* block = free_[cls]) {
    free_[cls] = block->next_free;
    block->next_free = nullptr;
    block->refs = 1;
    ++stats_.reuses;
    --stats_.pooled_free;
    return block;
  }
  ++stats_.block_allocs;
  stats_.bytes_reserved += class_bytes(cls);
  Block* block = heap_block(class_bytes(cls));
  block->arena = this;
  block->size_class = static_cast<std::uint32_t>(cls);
  return block;
}

void BufferArena::unref(Block* block) {
  if (--block->refs != 0) return;
  if (BufferArena* arena = block->arena) {
    arena->release(block);
    return;
  }
  heap_free(block);
}

void BufferArena::release(Block* block) {
  ++stats_.releases;
  --stats_.outstanding;
  if (block->size_class >= kClassCount) {
    // Oversize: never parked.
    stats_.bytes_reserved -= block->capacity;
    heap_free(block);
    return;
  }
  block->next_free = free_[block->size_class];
  free_[block->size_class] = block;
  ++stats_.pooled_free;
}

void BufferArena::trim() {
  for (std::size_t cls = 0; cls < kClassCount; ++cls) {
    while (Block* block = free_[cls]) {
      free_[cls] = block->next_free;
      stats_.bytes_reserved -= block->capacity;
      --stats_.pooled_free;
      heap_free(block);
    }
  }
}

BufferArena& BufferArena::global() {
  static BufferArena arena;
  return arena;
}

}  // namespace sci::mem
