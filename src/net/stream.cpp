#include "net/stream.hpp"

namespace ddp::net {

void StreamDecoder::feed(std::span<const std::uint8_t> data) {
  if (failed_ || data.empty()) return;
  compact();
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void StreamDecoder::compact() {
  // Drop the consumed prefix before growing the buffer; amortised O(1)
  // because each byte is moved at most once after being decoded.
  if (read_ == 0) return;
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(read_));
  read_ = 0;
}

StreamResult StreamDecoder::next() {
  StreamResult res;
  if (failed_) {
    res.status = StreamStatus::kError;
    res.error = fail_status_;
    res.detail = fail_detail_;
    return res;
  }
  const std::span<const std::uint8_t> pending(buf_.data() + read_,
                                              buf_.size() - read_);
  DecodeResult dr = decode_ex(pending);
  switch (dr.status) {
    case DecodeStatus::kOk:
      read_ += dr.consumed;
      if (buffered() == 0) compact();
      ++decoded_;
      res.status = StreamStatus::kMessage;
      res.message = std::move(dr.message);
      return res;
    case DecodeStatus::kShortHeader:
    case DecodeStatus::kTruncatedPayload:
      // Framing intact, frame incomplete. decode_ex validates the type
      // byte and the declared length before reporting truncation, so a
      // frame we wait on is one that can actually complete — unless the
      // caller wedged the buffer past its cap, which cannot resolve.
      if (buffered() > max_buffered_) {
        failed_ = true;
        fail_status_ = DecodeStatus::kOversizedPayload;
        fail_detail_ = "buffered bytes exceed decoder cap";
        res.status = StreamStatus::kError;
        res.error = fail_status_;
        res.detail = fail_detail_;
        return res;
      }
      res.status = StreamStatus::kNeedMore;
      return res;
    case DecodeStatus::kUnknownType:
    case DecodeStatus::kOversizedPayload:
    case DecodeStatus::kMalformedBody:
      // No resync marker exists in the wire format: once a frame is bad,
      // every later byte offset is guesswork. Latch the failure.
      failed_ = true;
      fail_status_ = dr.status;
      fail_detail_ = std::move(dr.detail);
      res.status = StreamStatus::kError;
      res.error = fail_status_;
      res.detail = fail_detail_;
      return res;
  }
  res.status = StreamStatus::kError;
  res.error = dr.status;
  return res;
}

}  // namespace ddp::net
