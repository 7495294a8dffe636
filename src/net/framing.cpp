#include "net/framing.h"

namespace rnt::net {

// --------------------------------------------------------------------------
// LineFramer
// --------------------------------------------------------------------------

void LineFramer::append(const char* data, std::size_t n) {
  compact();
  buffer_.append(data, n);
}

void LineFramer::compact() {
  // Only safe while no frame view is outstanding — callers append after
  // they are done with the previous frame, per the interface contract.
  if (start_ > 0 && (start_ >= 4096 || start_ == buffer_.size())) {
    buffer_.erase(0, start_);
    start_ = 0;
  }
}

FrameStatus LineFramer::next_frame(std::string_view& frame) {
  if (poisoned_) return FrameStatus::kOversized;
  for (;;) {
    const std::size_t newline = buffer_.find('\n', start_);
    if (newline == std::string::npos) {
      // An unterminated tail past the cap is a peer buffering without
      // bound.
      if (buffer_.size() - start_ > max_frame_bytes_) {
        poisoned_ = true;
        return FrameStatus::kOversized;
      }
      compact();
      return FrameStatus::kNeedMore;
    }
    std::string_view line(buffer_.data() + start_, newline - start_);
    start_ = newline + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;  // Blank lines are keep-alive noise.
    if (line.size() > max_frame_bytes_) {
      poisoned_ = true;
      return FrameStatus::kOversized;
    }
    frame = line;
    return FrameStatus::kFrame;
  }
}

// --------------------------------------------------------------------------
// LengthPrefixFramer
// --------------------------------------------------------------------------

void LengthPrefixFramer::append(const char* data, std::size_t n) {
  compact();
  buffer_.append(data, n);
}

void LengthPrefixFramer::compact() {
  if (start_ > 0 && (start_ >= 4096 || start_ == buffer_.size())) {
    buffer_.erase(0, start_);
    start_ = 0;
  }
}

FrameStatus LengthPrefixFramer::next_frame(std::string_view& frame) {
  if (poisoned_) return FrameStatus::kOversized;
  if (buffer_.size() - start_ < kHeaderBytes) {
    compact();
    return FrameStatus::kNeedMore;
  }
  const auto* head =
      reinterpret_cast<const unsigned char*>(buffer_.data() + start_);
  const std::uint32_t length = static_cast<std::uint32_t>(head[0]) |
                               (static_cast<std::uint32_t>(head[1]) << 8) |
                               (static_cast<std::uint32_t>(head[2]) << 16) |
                               (static_cast<std::uint32_t>(head[3]) << 24);
  // Reject a hostile declared length before buffering a single payload
  // byte for it.
  if (length > max_frame_bytes_) {
    poisoned_ = true;
    return FrameStatus::kOversized;
  }
  if (buffer_.size() - start_ - kHeaderBytes < length) {
    compact();
    return FrameStatus::kNeedMore;
  }
  frame = std::string_view(buffer_.data() + start_ + kHeaderBytes, length);
  start_ += kHeaderBytes + length;
  return FrameStatus::kFrame;
}

std::string length_prefix_encode(std::string_view payload) {
  const auto length = static_cast<std::uint32_t>(payload.size());
  std::string wire;
  wire.reserve(LengthPrefixFramer::kHeaderBytes + payload.size());
  wire.push_back(static_cast<char>(length & 0xff));
  wire.push_back(static_cast<char>((length >> 8) & 0xff));
  wire.push_back(static_cast<char>((length >> 16) & 0xff));
  wire.push_back(static_cast<char>((length >> 24) & 0xff));
  wire.append(payload);
  return wire;
}

std::unique_ptr<Framer> make_framer(FramingMode mode,
                                    std::size_t max_frame_bytes) {
  if (mode == FramingMode::kLengthPrefix) {
    return std::make_unique<LengthPrefixFramer>(max_frame_bytes);
  }
  return std::make_unique<LineFramer>(max_frame_bytes);
}

}  // namespace rnt::net
