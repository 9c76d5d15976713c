// Outer wire framing for the socket transport (DESIGN.md §16).
//
// A TCP stream carries no message boundaries, so every transport message is
// wrapped in a fixed 16-byte header followed by the payload bytes:
//
//   [u32 magic "PSMF"][u32 from][u32 to][u32 len][len payload bytes]
//
// The payload is opaque to this layer — for SMR batches it is the codec-v2
// byte layout (smr::encode_batch), whose own magic/version/truncation checks
// run AFTER reassembly. This layer only restores boundaries: FrameReader
// accumulates arbitrary read() chunks (short reads, frames split across
// reads, many frames per read) and re-emits whole frames.
//
// Error model: a magic mismatch or an absurd declared length is a PROTOCOL
// error — the stream is out of sync and nothing after the bad header can be
// trusted, so the reader latches the error and the connection must be torn
// down (the peer reconnects and the outer retry/dedup path re-covers
// whatever was in flight). Truncation is NOT an error: a partial frame
// simply stays buffered until more bytes arrive (or the connection dies,
// discarding it — again legal on a fair-lossy link).
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <optional>
#include <span>
#include <vector>

namespace psmr::net {

using FramePayload = std::vector<std::uint8_t>;

constexpr std::uint32_t kFrameMagic = 0x50534d46;  // "PSMF"

/// Hard ceiling on a frame's declared payload length. Anything above this is
/// treated as stream corruption, not a large message: the biggest legitimate
/// payload (a full batch of kMaxCommands) stays far below it, and accepting
/// arbitrary lengths would let one corrupt header allocate unbounded memory.
constexpr std::uint32_t kMaxFramePayload = 1u << 26;  // 64 MiB

constexpr std::size_t kFrameHeaderBytes = 16;

/// One reassembled frame: routing envelope + payload bytes.
struct Frame {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  FramePayload payload;
};

/// Writes the kFrameHeaderBytes header of a frame carrying `len` payload
/// bytes to `p` — for senders that write the payload from its own buffer.
inline void write_frame_header(std::uint8_t* p, std::uint32_t from, std::uint32_t to,
                               std::uint32_t len) {
  std::memcpy(p + 0, &kFrameMagic, 4);
  std::memcpy(p + 4, &from, 4);
  std::memcpy(p + 8, &to, 4);
  std::memcpy(p + 12, &len, 4);
}

/// Appends the framed encoding of (from, to, payload) to `out` — the send
/// side of the protocol. The caller owns batching frames into one write.
inline void append_frame(std::vector<std::uint8_t>& out, std::uint32_t from,
                         std::uint32_t to, std::span<const std::uint8_t> payload) {
  const std::size_t base = out.size();
  out.resize(base + kFrameHeaderBytes + payload.size());
  std::uint8_t* p = out.data() + base;
  write_frame_header(p, from, to, static_cast<std::uint32_t>(payload.size()));
  if (!payload.empty()) std::memcpy(p + 16, payload.data(), payload.size());
}

/// Incremental frame reassembler for one byte stream. feed() accepts read()
/// chunks of any size; next() yields completed frames in order. Once a
/// protocol error is observed the reader is poisoned: feed() is a no-op and
/// next() returns nothing — the owner must drop the connection.
class FrameReader {
 public:
  /// Buffers `bytes` and extracts every frame completed by them. Returns
  /// false on a protocol error (bad magic / oversized declared length);
  /// the connection must be closed.
  bool feed(std::span<const std::uint8_t> bytes) {
    if (broken_) return false;
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
    while (buf_.size() - pos_ >= kFrameHeaderBytes) {
      const std::uint8_t* h = buf_.data() + pos_;
      std::uint32_t magic = 0, from = 0, to = 0, len = 0;
      std::memcpy(&magic, h + 0, 4);
      std::memcpy(&from, h + 4, 4);
      std::memcpy(&to, h + 8, 4);
      std::memcpy(&len, h + 12, 4);
      if (magic != kFrameMagic || len > kMaxFramePayload) {
        broken_ = true;
        return false;
      }
      if (buf_.size() - pos_ < kFrameHeaderBytes + len) break;  // short read
      Frame f;
      f.from = from;
      f.to = to;
      f.payload.assign(h + kFrameHeaderBytes, h + kFrameHeaderBytes + len);
      ready_.push_back(std::move(f));
      pos_ += kFrameHeaderBytes + len;
    }
    // Compact once the consumed prefix dominates, so a long-lived
    // connection does not grow its buffer with dead bytes.
    if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > (1u << 16))) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
      pos_ = 0;
    }
    return true;
  }

  /// Next completed frame, or nullopt when none is pending.
  std::optional<Frame> next() {
    if (ready_.empty()) return std::nullopt;
    Frame f = std::move(ready_.front());
    ready_.pop_front();
    return f;
  }

  /// True once a protocol error was observed (reader is unusable).
  bool broken() const noexcept { return broken_; }

  /// Bytes buffered but not yet emitted as frames (diagnostics/tests).
  std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  std::deque<Frame> ready_;
  bool broken_ = false;
};

}  // namespace psmr::net
