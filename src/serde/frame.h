// SCI — CRC-framed record codec for the durable write-ahead log.
//
// The persist tier (docs/DURABILITY.md) appends replication records to an
// append-only file. A crash can stop the file mid-write, and the fault plan
// deliberately tears and corrupts tails, so every record travels inside a
// self-validating frame:
//
//   [u32 crc][varint len][payload: len bytes]
//
// `crc` is CRC-32 (IEEE 802.3, reflected) over the serialized varint length
// followed by the payload bytes, so a frame whose length field itself was
// torn fails the checksum instead of sending the cursor off into garbage.
// FrameCursor implements the recovery read side: it yields payloads in order
// and stops — cleanly, never with an error that aborts recovery — at the
// first frame that is short, truncated, or checksum-invalid. The byte offset
// where it stopped is the truncate point: everything before it is intact,
// everything at/after it never finished reaching the platter and is treated
// as if the crash ate it (truncate-at-first-bad-frame semantics).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serde/buffer.h"

namespace sci::serde {

// CRC-32 (IEEE, polynomial 0xEDB88320) over `data`. Table-driven, computed
// once at first use.
[[nodiscard]] std::uint32_t crc32(const std::byte* data, std::size_t size);
[[nodiscard]] inline std::uint32_t crc32(const std::vector<std::byte>& data) {
  return crc32(data.data(), data.size());
}

// Appends one framed record to `out`.
void append_frame(std::vector<std::byte>& out, FrameView payload);

// Why the cursor stopped. kClean means the last frame ended exactly at the
// end of the buffer; everything else names the defect found at stop_offset()
// (all of them are handled identically by recovery: truncate there).
enum class FrameStop : std::uint8_t {
  kClean = 0,      // consumed the whole buffer
  kShortHeader,    // fewer than 5 bytes left — torn mid-header
  kTruncated,      // length field promises more bytes than remain
  kBadCrc,         // checksum mismatch — bit rot or a torn interior
  kOversized,      // length field exceeds the sanity cap (garbage header)
};

const char* to_string(FrameStop stop);

// Forward-only reader over a buffer of concatenated frames.
class FrameCursor {
 public:
  FrameCursor(const std::byte* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit FrameCursor(const std::vector<std::byte>& data)
      : FrameCursor(data.data(), data.size()) {}

  // Yields the next intact payload, or false when the buffer is exhausted or
  // the next frame is damaged (inspect stop() to tell which).
  bool next(std::vector<std::byte>& payload);

  [[nodiscard]] FrameStop stop() const { return stop_; }
  // Offset of the first byte not covered by an intact frame — the truncate
  // point after a damaged tail, == buffer size after a clean walk.
  [[nodiscard]] std::size_t stop_offset() const { return offset_; }
  [[nodiscard]] std::size_t frames_read() const { return frames_; }

 private:
  const std::byte* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
  std::size_t frames_ = 0;
  FrameStop stop_ = FrameStop::kClean;
};

}  // namespace sci::serde
