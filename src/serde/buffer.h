// SCI — binary wire format primitives.
//
// Every message crossing the simulated network is serialized through these
// writers/readers, so the benches measure real encode/decode work rather
// than pointer passing. Format: little-endian fixed ints, LEB128 varints,
// zigzag for signed varints, length-prefixed strings and containers.
//
// Zero-copy layer (docs/MEMORY.md): Writer encodes into a pooled
// mem::BufferArena block and hands the finished frame out as a refcounted
// BufferRef via take_ref(). A BufferRef is an immutable byte range whose
// copies share the block — the mediator fan-out, the reliable retransmit
// map, the replication tail and the WAL buffer all hold the *same* encoded
// frame. FrameView is the borrowing, non-owning counterpart used by decode
// paths that only read. BufferRef has no implicit conversion from
// std::vector: the few places that must hold bytes in a vector (disk
// images, snapshot blobs) copy explicitly through to_vector()/copy_of(),
// so every copy on the data path is visible at its call site.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/expected.h"
#include "common/guid.h"
#include "mem/arena.h"

namespace sci::serde {

// Immutable, refcounted view of a contiguous encoded frame. Copying shares
// the underlying pool block; slice() carves a sub-range that keeps the
// whole block alive (frames are small, so retaining the block for a slice
// is the right trade). An empty BufferRef owns nothing.
class BufferRef {
 public:
  BufferRef() = default;

  BufferRef(const BufferRef& other)
      : block_(other.block_), data_(other.data_), size_(other.size_) {
    if (block_ != nullptr) mem::BufferArena::ref(block_);
  }
  BufferRef(BufferRef&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)),
        data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  BufferRef& operator=(const BufferRef& other) {
    BufferRef copy(other);
    swap(copy);
    return *this;
  }
  BufferRef& operator=(BufferRef&& other) noexcept {
    BufferRef moved(std::move(other));
    swap(moved);
    return *this;
  }
  ~BufferRef() {
    if (block_ != nullptr) mem::BufferArena::unref(block_);
  }

  // Takes ownership of the caller's reference to `block` (no extra ref).
  static BufferRef adopt(mem::BufferArena::Block* block, std::size_t size) {
    BufferRef ref;
    ref.block_ = block;
    ref.data_ = block != nullptr ? block->data() : nullptr;
    ref.size_ = size;
    return ref;
  }

  // Copies raw bytes into a fresh pooled block.
  static BufferRef copy_of(const void* data, std::size_t size) {
    if (size == 0) return BufferRef();
    auto* block = mem::BufferArena::global().acquire(size);
    std::memcpy(block->data(), data, size);
    return adopt(block, size);
  }
  static BufferRef copy_of(const std::vector<std::byte>& bytes) {
    return copy_of(bytes.data(), bytes.size());
  }

  [[nodiscard]] const std::byte* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  // Sub-range sharing the same block. Out-of-range requests clamp to the
  // frame rather than read past it.
  [[nodiscard]] BufferRef slice(std::size_t offset, std::size_t len) const {
    if (offset > size_) offset = size_;
    if (len > size_ - offset) len = size_ - offset;
    BufferRef sub(*this);
    sub.data_ += offset;
    sub.size_ = len;
    return sub;
  }

  [[nodiscard]] std::vector<std::byte> to_vector() const {
    return std::vector<std::byte>(data_, data_ + size_);
  }

  friend bool operator==(const BufferRef& a, const BufferRef& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data_, b.data_, a.size_) == 0);
  }

  void swap(BufferRef& other) noexcept {
    std::swap(block_, other.block_);
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
  }

 private:
  mem::BufferArena::Block* block_ = nullptr;
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

// Borrowed, non-owning view of an encoded frame — the argument type for
// decode paths that only read. Implicitly constructible from the owning
// forms so `X::decode(message.payload)` and `X::decode(vec)` both work;
// the caller keeps the backing bytes alive for the view's lifetime.
class FrameView {
 public:
  constexpr FrameView() = default;
  constexpr FrameView(const std::byte* data, std::size_t size)
      : data_(data), size_(size) {}
  FrameView(const BufferRef& ref)  // NOLINT(google-explicit-constructor)
      : data_(ref.data()), size_(ref.size()) {}
  FrameView(const std::vector<std::byte>& bytes)  // NOLINT(google-explicit-constructor)
      : data_(bytes.data()), size_(bytes.size()) {}

  [[nodiscard]] constexpr const std::byte* data() const { return data_; }
  [[nodiscard]] constexpr std::size_t size() const { return size_; }
  [[nodiscard]] constexpr bool empty() const { return size_ == 0; }

  // Clamped sub-view (no ownership — see BufferRef::slice for the
  // lifetime-extending variant).
  [[nodiscard]] constexpr FrameView subview(std::size_t offset,
                                            std::size_t len) const {
    if (offset > size_) offset = size_;
    if (len > size_ - offset) len = size_ - offset;
    return FrameView(data_ + offset, len);
  }

  [[nodiscard]] std::vector<std::byte> to_vector() const {
    return std::vector<std::byte>(data_, data_ + size_);
  }

 private:
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

// Encoder over a pooled arena block. Steady state allocates nothing: the
// block comes off a freelist and returns there when the last BufferRef
// drops. take_ref() is the only way a finished frame leaves the Writer.
class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t reserve) { ensure(reserve); }

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  ~Writer() {
    if (block_ != nullptr) mem::BufferArena::unref(block_);
  }

  void u8(std::uint8_t v) {
    ensure(1);
    block_->data()[size_++] = std::byte{v};
  }
  void u16(std::uint16_t v) { fixed(&v, sizeof v); }
  void u32(std::uint32_t v) { fixed(&v, sizeof v); }
  void u64(std::uint64_t v) { fixed(&v, sizeof v); }
  void f64(double v) { fixed(&v, sizeof v); }

  // Unsigned LEB128.
  void varint(std::uint64_t v) {
    ensure(10);
    std::byte* out = block_->data() + size_;
    while (v >= 0x80) {
      *out++ = std::byte{static_cast<std::uint8_t>(v | 0x80U)};
      v >>= 7;
    }
    *out++ = std::byte{static_cast<std::uint8_t>(v)};
    size_ = static_cast<std::size_t>(out - block_->data());
  }

  // ZigZag-encoded signed varint.
  void svarint(std::int64_t v) {
    varint((static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63));
  }

  void boolean(bool v) { u8(v ? 1 : 0); }

  // 16-byte GUID: u64 hi then u64 lo. The one GUID wire form.
  void guid(Guid g) {
    u64(g.hi());
    u64(g.lo());
  }

  void string(std::string_view s) {
    varint(s.size());
    raw(s.data(), s.size());
  }

  void raw(const void* data, std::size_t size) {
    if (size == 0) return;
    ensure(size);
    std::memcpy(block_->data() + size_, data, size);
    size_ += size;
  }

  // Zero-copy handoff: the finished frame leaves with the block; the
  // Writer resets and re-acquires lazily on the next write.
  [[nodiscard]] BufferRef take_ref() {
    if (block_ == nullptr) return BufferRef();
    const std::size_t n = size_;
    auto* block = std::exchange(block_, nullptr);
    size_ = 0;
    capacity_ = 0;
    return BufferRef::adopt(block, n);
  }

  [[nodiscard]] FrameView view() const {
    return block_ == nullptr ? FrameView()
                             : FrameView(block_->data(), size_);
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  void fixed(const void* v, std::size_t n) { raw(v, n); }

  void ensure(std::size_t extra) {
    if (capacity_ - size_ >= extra) return;
    std::size_t want = size_ + extra;
    if (want < 2 * capacity_) want = 2 * capacity_;
    auto* grown = mem::BufferArena::global().acquire(want);
    if (block_ != nullptr) {
      std::memcpy(grown->data(), block_->data(), size_);
      mem::BufferArena::unref(block_);
    }
    block_ = grown;
    capacity_ = grown->capacity;
  }

  mem::BufferArena::Block* block_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

// Bounds-checked reader over a borrowed byte span. All accessors return
// Expected so truncated/corrupt frames surface as kParseError, never UB.
class Reader {
 public:
  Reader(const std::byte* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::byte>& bytes)
      : Reader(bytes.data(), bytes.size()) {}
  // A Reader borrows its bytes; reading a temporary vector would dangle.
  explicit Reader(std::vector<std::byte>&&) = delete;
  explicit Reader(FrameView view) : Reader(view.data(), view.size()) {}
  explicit Reader(const BufferRef& ref) : Reader(ref.data(), ref.size()) {}

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == size_; }
  [[nodiscard]] std::size_t position() const { return pos_; }

  Expected<std::uint8_t> u8() {
    if (remaining() < 1) return truncated("u8");
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  Expected<std::uint16_t> u16() { return fixed<std::uint16_t>("u16"); }
  Expected<std::uint32_t> u32() { return fixed<std::uint32_t>("u32"); }
  Expected<std::uint64_t> u64() { return fixed<std::uint64_t>("u64"); }
  Expected<double> f64() { return fixed<double>("f64"); }

  Expected<std::uint64_t> varint() {
    std::uint64_t result = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      SCI_TRY_ASSIGN(byte, u8());
      result |= static_cast<std::uint64_t>(byte & 0x7FU) << shift;
      if ((byte & 0x80U) == 0) return result;
    }
    return make_error(ErrorCode::kParseError, "varint longer than 10 bytes");
  }

  Expected<std::int64_t> svarint() {
    SCI_TRY_ASSIGN(raw, varint());
    return static_cast<std::int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
  }

  Expected<bool> boolean() {
    SCI_TRY_ASSIGN(byte, u8());
    if (byte > 1)
      return make_error(ErrorCode::kParseError, "boolean byte not 0/1");
    return byte == 1;
  }

  Expected<Guid> guid() {
    SCI_TRY_ASSIGN(hi, u64());
    SCI_TRY_ASSIGN(lo, u64());
    return Guid(hi, lo);
  }

  Expected<std::string> string() {
    SCI_TRY_ASSIGN(len, varint());
    if (len > remaining()) return truncated("string body");
    std::string out(reinterpret_cast<const char*>(data_ + pos_),
                    static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return out;
  }

  // Zero-copy variant: the returned view borrows the Reader's backing
  // bytes, so it is only valid while they live.
  Expected<std::string_view> string_view() {
    SCI_TRY_ASSIGN(len, varint());
    if (len > remaining()) return truncated("string body");
    std::string_view out(reinterpret_cast<const char*>(data_ + pos_),
                         static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return out;
  }

  Status skip(std::size_t n) {
    if (n > remaining())
      return make_error(ErrorCode::kParseError, "skip past end of frame");
    pos_ += n;
    return Status::ok();
  }

 private:
  template <typename T>
  Expected<T> fixed(const char* what) {
    if (remaining() < sizeof(T)) return truncated(what);
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  Error truncated(const char* what) const {
    return make_error(ErrorCode::kParseError,
                      std::string("frame truncated reading ") + what);
  }

  const std::byte* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace sci::serde
