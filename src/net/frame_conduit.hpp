// FrameConduit: the transport-agnostic seam between the v2 frame protocol
// and any byte stream (TCP, a simulated link, a pipe).
//
// The sync layer (sync/engine.hpp, sync/sharded.hpp) speaks in whole frames;
// byte-stream transports deliver arbitrary fragments and accept arbitrary
// partial writes. The conduit bridges the two directions independently:
//
//   inbound:  feed(bytes) reassembles `uvarint length | frame` records
//             across any fragmentation (a single byte at a time decodes
//             identically to whole-record delivery) and hands out complete
//             frames. A length claim above the frame-size bound throws
//             ProtocolError BEFORE any allocation -- a hostile 2^40-byte
//             header cannot take the process down -- and poisons the
//             conduit (a byte stream is unrecoverable once framing desyncs;
//             the transport must close the connection).
//
//   outbound: send(frame) enqueues the length prefix and the frame body as
//             a scatter list without copying the frame into a contiguous
//             staging buffer. Transports drain it writev-style via
//             gather()/consume(); pending_bytes() is the send-buffer
//             fullness that ServingCore maps the shard workers' blocking
//             sink backpressure onto.
//
// Buffer reuse: buffers retired by consume() (transmitted prefixes and
// frame bodies) park in a small bounded pool and are handed back out for
// future length prefixes and reassembled inbound frames, so the per-frame
// emit hot path stops paying a heap alloc/free pair per frame (measured in
// bench/micro_core.cpp BM_FrameConduitEmit, pooled vs heap). The pool is
// capped in count and per-buffer capacity so a burst of maximum-size
// frames cannot pin megabytes.
#pragma once

#include <cstdint>
#include <cstddef>
#include <deque>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/varint.hpp"
#include "sync/error.hpp"

namespace ribltx::net {

class FrameConduit {
 public:
  /// Frames above this are a protocol violation on both paths. SYMBOLS
  /// payloads are budget-bounded (~KBs); 16 MiB leaves two orders of
  /// magnitude of headroom while keeping a hostile length claim harmless.
  static constexpr std::size_t kDefaultMaxFrame = 16u << 20;

  /// `pool_buffers` false disables retired-buffer reuse (the heap baseline
  /// the micro benchmark compares against).
  explicit FrameConduit(std::size_t max_frame = kDefaultMaxFrame,
                        bool pool_buffers = true)
      : max_frame_(max_frame), pool_buffers_(pool_buffers) {}

  [[nodiscard]] std::size_t max_frame() const noexcept { return max_frame_; }

  // ------------------------------------------------------------- inbound

  /// Appends received bytes to the reassembly buffer and extracts every
  /// complete frame into the inbox. Throws ProtocolError on a length claim
  /// above max_frame() (before allocating) and on any use after poisoning.
  void feed(std::span<const std::byte> bytes) {
    if (poisoned_) {
      throw sync::ProtocolError("FrameConduit: stream already poisoned");
    }
    in_.insert(in_.end(), bytes.begin(), bytes.end());
    for (;;) {
      std::size_t pos = in_pos_;
      std::uint64_t len = 0;
      if (!try_uvarint(pos, len)) break;  // incomplete prefix: wait
      if (len > max_frame_) {
        poisoned_ = true;
        throw sync::ProtocolError("FrameConduit: frame length exceeds bound");
      }
      if (in_.size() - pos < len) break;  // incomplete body: wait
      std::vector<std::byte> frame = take_pooled();
      frame.assign(in_.begin() + static_cast<std::ptrdiff_t>(pos),
                   in_.begin() + static_cast<std::ptrdiff_t>(pos + len));
      inbox_.push_back(std::move(frame));
      in_pos_ = pos + static_cast<std::size_t>(len);
      compact();
    }
  }

  /// Next fully reassembled frame, oldest first; nullopt when none pending.
  [[nodiscard]] std::optional<std::vector<std::byte>> next_frame() {
    if (inbox_.empty()) return std::nullopt;
    std::vector<std::byte> out = std::move(inbox_.front());
    inbox_.pop_front();
    return out;
  }

  [[nodiscard]] std::size_t frames_pending() const noexcept {
    return inbox_.size();
  }

  /// Bytes buffered that do not yet form a complete frame.
  [[nodiscard]] std::size_t reassembly_bytes() const noexcept {
    return in_.size() - in_pos_;
  }

  /// True once a framing violation made the stream unrecoverable.
  [[nodiscard]] bool poisoned() const noexcept { return poisoned_; }

  // ------------------------------------------------------------ outbound

  /// Enqueues one frame (prefix + body) on the scatter output queue. The
  /// frame buffer is kept, not copied. Oversized frames are a caller bug on
  /// this side: ProtocolError, nothing queued.
  void send(std::vector<std::byte> frame) {
    if (frame.size() > max_frame_) {
      throw sync::ProtocolError("FrameConduit: refusing to send oversized frame");
    }
    std::vector<std::byte> prefix = take_pooled();
    put_uvarint(prefix, frame.size());
    pending_out_ += prefix.size() + frame.size();
    out_.push_back(std::move(prefix));
    out_.push_back(std::move(frame));
  }

  /// Bytes queued for transmission (the send-buffer fullness signal).
  [[nodiscard]] std::size_t pending_bytes() const noexcept {
    return pending_out_;
  }

  [[nodiscard]] bool has_output() const noexcept { return pending_out_ != 0; }

  /// Fills `out` with up to out.size() spans of queued bytes, writev-style
  /// (the first span starts at the current drain offset). Returns the span
  /// count. The spans stay valid until the next send()/consume().
  [[nodiscard]] std::size_t gather(
      std::span<std::span<const std::byte>> out) const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < out_.size() && n < out.size(); ++i) {
      std::span<const std::byte> chunk = out_[i];
      if (i == 0) chunk = chunk.subspan(out_offset_);
      if (chunk.empty()) continue;
      out[n++] = chunk;
    }
    return n;
  }

  /// Marks `n` queued bytes as transmitted (a short writev consumes a
  /// prefix; buffers are released as they complete).
  void consume(std::size_t n) {
    if (n > pending_out_) {
      throw std::logic_error("FrameConduit: consuming more than pending");
    }
    pending_out_ -= n;
    while (n != 0) {
      const std::size_t left = out_.front().size() - out_offset_;
      if (n < left) {
        out_offset_ += n;
        return;
      }
      n -= left;
      recycle(std::move(out_.front()));
      out_.pop_front();
      out_offset_ = 0;
    }
  }

 private:
  static constexpr std::size_t kPoolMaxBuffers = 32;
  /// Buffers above this capacity are released, not pooled: one hostile-
  /// large (but legal) frame must not pin max_frame-sized capacity.
  static constexpr std::size_t kPoolMaxCapacity = 256u << 10;

  /// A cleared buffer from the pool, or a fresh one when the pool is dry.
  [[nodiscard]] std::vector<std::byte> take_pooled() {
    if (pool_.empty()) return {};
    std::vector<std::byte> out = std::move(pool_.back());
    pool_.pop_back();
    out.clear();
    return out;
  }

  /// Parks a retired buffer for reuse (bounded count and capacity).
  void recycle(std::vector<std::byte>&& buf) {
    if (pool_buffers_ && pool_.size() < kPoolMaxBuffers &&
        buf.capacity() != 0 && buf.capacity() <= kPoolMaxCapacity) {
      pool_.push_back(std::move(buf));
    }
  }

  /// Decodes a uvarint at `pos` without consuming; false when the buffer
  /// ends mid-varint. Mirrors common/varint.hpp's bounds (a >10-byte prefix
  /// means a length that cannot fit max_frame_ anyway).
  [[nodiscard]] bool try_uvarint(std::size_t& pos, std::uint64_t& value) {
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      if (pos >= in_.size()) return false;
      const auto b = static_cast<std::uint8_t>(in_[pos++]);
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        value = v;
        return true;
      }
    }
    poisoned_ = true;
    throw sync::ProtocolError("FrameConduit: malformed length prefix");
  }

  /// Reclaims consumed reassembly bytes once they dominate the buffer.
  void compact() {
    if (in_pos_ > 4096 && in_pos_ * 2 >= in_.size()) {
      in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(in_pos_));
      in_pos_ = 0;
    }
  }

  std::size_t max_frame_;
  std::vector<std::byte> in_;  ///< reassembly buffer
  std::size_t in_pos_ = 0;     ///< consumed prefix of in_
  std::deque<std::vector<std::byte>> inbox_;
  std::deque<std::vector<std::byte>> out_;  ///< scatter list: prefix, body, ...
  std::size_t out_offset_ = 0;  ///< drain offset into out_.front()
  std::size_t pending_out_ = 0;
  bool poisoned_ = false;
  bool pool_buffers_;
  std::vector<std::vector<std::byte>> pool_;  ///< retired buffers for reuse
};

}  // namespace ribltx::net
