#include "serde/frame.h"

#include <array>

namespace sci::serde {
namespace {

// A single frame may not claim more than this many payload bytes. WAL
// payloads are individual replication records (well under a megabyte even
// with a snapshot blob inside); a larger length field is a corrupted header,
// and rejecting it keeps a garbage frame from making the cursor "skip" to a
// random offset that happens to checksum clean.
constexpr std::uint64_t kMaxFramePayload = 64ull * 1024 * 1024;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

// LEB128, mirroring Writer::varint.
void put_varint(std::vector<std::byte>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(std::byte{static_cast<std::uint8_t>(v | 0x80u)});
    v >>= 7;
  }
  out.push_back(std::byte{static_cast<std::uint8_t>(v)});
}

}  // namespace

std::uint32_t crc32(const std::byte* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ static_cast<std::uint8_t>(data[i])) & 0xFFu] ^
          (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void append_frame(std::vector<std::byte>& out, FrameView payload) {
  // Build the frame in place: reserve the CRC slot, write the body after
  // it, then checksum the body where it lies.
  const std::size_t start = out.size();
  out.resize(start + 4);
  put_varint(out, payload.size());
  out.insert(out.end(), payload.data(), payload.data() + payload.size());
  const std::size_t body = start + 4;
  const std::uint32_t crc = crc32(out.data() + body, out.size() - body);
  // Little-endian u32, matching Writer::u32.
  for (std::size_t i = 0; i < 4; ++i) {
    out[start + i] = std::byte{static_cast<std::uint8_t>(crc >> (8 * i))};
  }
}

const char* to_string(FrameStop stop) {
  switch (stop) {
    case FrameStop::kClean:
      return "clean";
    case FrameStop::kShortHeader:
      return "short_header";
    case FrameStop::kTruncated:
      return "truncated";
    case FrameStop::kBadCrc:
      return "bad_crc";
    case FrameStop::kOversized:
      return "oversized";
  }
  return "unknown";
}

bool FrameCursor::next(std::vector<std::byte>& payload) {
  if (stop_ != FrameStop::kClean) return false;
  const std::size_t remaining = size_ - offset_;
  if (remaining == 0) return false;
  if (remaining < 5) {  // u32 crc + at least one varint byte
    stop_ = FrameStop::kShortHeader;
    return false;
  }
  const std::byte* p = data_ + offset_;
  const std::uint32_t expect =
      static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[0])) |
      static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[1])) << 8 |
      static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[2])) << 16 |
      static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[3])) << 24;
  // Decode the varint length without trusting it past the buffer edge.
  std::size_t cursor = 4;
  std::uint64_t len = 0;
  int shift = 0;
  bool complete = false;
  while (cursor < remaining && shift < 64) {
    const auto byte = static_cast<std::uint8_t>(p[cursor++]);
    len |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) {
      complete = true;
      break;
    }
    shift += 7;
  }
  if (!complete) {
    stop_ = shift >= 64 ? FrameStop::kOversized : FrameStop::kShortHeader;
    return false;
  }
  if (len > kMaxFramePayload) {
    stop_ = FrameStop::kOversized;
    return false;
  }
  if (len > remaining - cursor) {
    stop_ = FrameStop::kTruncated;
    return false;
  }
  const std::size_t body_size = cursor - 4 + static_cast<std::size_t>(len);
  if (crc32(p + 4, body_size) != expect) {
    stop_ = FrameStop::kBadCrc;
    return false;
  }
  payload.assign(p + cursor, p + cursor + static_cast<std::size_t>(len));
  offset_ += 4 + body_size;
  ++frames_;
  return true;
}

}  // namespace sci::serde
