#include "net/protocol.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "common/wire.hpp"
#include "serve/wal.hpp"

namespace mfpa::net {

void append_record_frame(std::string& buf, std::uint64_t seq,
                         std::uint64_t drive_id, int vendor,
                         const sim::DailyRecord& record) {
  wire::append_frame(buf, kNetFrameMagic, seq, [&](std::string& out) {
    wire::put_u8(out, static_cast<std::uint8_t>(MessageType::kRecord));
    serve::append_wal_payload(out, drive_id, vendor, record);
  });
}

void append_control_frame(std::string& buf, std::uint64_t seq,
                          MessageType type) {
  wire::append_frame(buf, kNetFrameMagic, seq, [type](std::string& out) {
    wire::put_u8(out, static_cast<std::uint8_t>(type));
  });
}

void append_flush_ack_frame(std::string& buf, std::uint64_t seq,
                            const FlushAck& ack) {
  wire::append_frame(buf, kNetFrameMagic, seq, [&](std::string& out) {
    wire::put_u8(out, static_cast<std::uint8_t>(MessageType::kFlushAck));
    wire::put_u64(out, ack.records_processed);
    wire::put_u64(out, ack.alerts);
    wire::put_u64(out, ack.shed);
  });
}

void append_hello_frame(std::string& buf, std::uint64_t seq, MessageType type,
                        const Hello& hello) {
  if (type != MessageType::kHello && type != MessageType::kHelloAck) {
    throw std::invalid_argument(
        "append_hello_frame: type must be kHello or kHelloAck");
  }
  wire::append_frame(buf, kNetFrameMagic, seq, [&](std::string& out) {
    wire::put_u8(out, static_cast<std::uint8_t>(type));
    wire::put_u32(out, hello.shard_index);
    wire::put_u32(out, hello.shard_count);
    wire::put_u32(out, hello.model_version);
  });
}

const char* Hello::mismatch(const Hello& server) const noexcept {
  if (shard_index != kAnyShard && server.shard_index != kAnyShard &&
      shard_index != server.shard_index) {
    return "shard_mismatch";
  }
  if (shard_count != 0 && server.shard_count != 0 &&
      shard_count != server.shard_count) {
    return "topology_mismatch";
  }
  if (model_version != 0 && server.model_version != 0 &&
      model_version != server.model_version) {
    return "version_mismatch";
  }
  return nullptr;
}

const char* error_name(DecodeError error) noexcept {
  switch (error) {
    case DecodeError::kNone: return "none";
    case DecodeError::kBadMagic: return "bad_magic";
    case DecodeError::kOversized: return "oversized";
    case DecodeError::kBadDigest: return "bad_digest";
    case DecodeError::kBadMessage: return "bad_message";
  }
  return "unknown";
}

void FrameDecoder::feed(const char* data, std::size_t n) {
  // Compact the consumed prefix before growing; keeps the buffer bounded
  // by (one partial frame + one read chunk) regardless of stream length.
  if (off_ > 0 && off_ == buf_.size()) {
    buf_.clear();
    off_ = 0;
  } else if (off_ >= 4096) {
    buf_.erase(0, off_);
    off_ = 0;
  }
  buf_.append(data, n);
}

FrameDecoder::Status FrameDecoder::next(NetMessage& out) {
  if (error_ != DecodeError::kNone) return Status::kError;
  // The length field is validated from the header alone: a hostile or
  // corrupt size never causes a proportional allocation — the buffer only
  // ever holds bytes the peer actually sent.
  wire::Frame frame;
  const auto max_payload = static_cast<std::uint32_t>(
      std::min<std::size_t>(max_payload_, 0xFFFFFFFFU));
  switch (wire::read_frame(std::string_view(buf_).substr(off_), kNetFrameMagic,
                           max_payload, frame)) {
    case wire::FrameStatus::kOk: break;
    case wire::FrameStatus::kNeedMore: return Status::kNeedMore;
    case wire::FrameStatus::kBadMagic: error_ = DecodeError::kBadMagic; break;
    case wire::FrameStatus::kOversized: error_ = DecodeError::kOversized; break;
    case wire::FrameStatus::kBadChecksum:
      error_ = DecodeError::kBadDigest;
      break;
  }
  if (error_ != DecodeError::kNone) return Status::kError;
  off_ += frame.bytes;

  // The payload views buf_, which stays untouched until the next feed().
  const std::string_view payload = frame.payload;
  if (payload.empty()) {
    error_ = DecodeError::kBadMessage;
    return Status::kError;
  }
  out = NetMessage{};
  out.seq = frame.seq;
  const auto type = static_cast<MessageType>(
      static_cast<std::uint8_t>(payload[0]));
  const std::string_view body = payload.substr(1);
  try {
    switch (type) {
      case MessageType::kRecord: {
        const serve::WalEntry entry = serve::decode_wal_payload(frame.seq, body);
        out.type = MessageType::kRecord;
        out.drive_id = entry.drive_id;
        out.vendor = entry.vendor;
        out.record = entry.record;
        return Status::kMessage;
      }
      case MessageType::kFlush:
      case MessageType::kGoodbye: {
        if (!body.empty()) break;
        out.type = type;
        return Status::kMessage;
      }
      case MessageType::kFlushAck: {
        wire::ByteReader r(body, "net flush-ack");
        out.type = MessageType::kFlushAck;
        out.ack.records_processed = r.u64();
        out.ack.alerts = r.u64();
        out.ack.shed = r.u64();
        r.expect_done();
        return Status::kMessage;
      }
      case MessageType::kHello:
      case MessageType::kHelloAck: {
        wire::ByteReader r(body, "net hello");
        out.type = type;
        out.hello.shard_index = r.u32();
        out.hello.shard_count = r.u32();
        out.hello.model_version = r.u32();
        r.expect_done();
        return Status::kMessage;
      }
    }
  } catch (const std::runtime_error&) {
    // Fall through: short/overlong body under a valid checksum.
  }
  error_ = DecodeError::kBadMessage;
  return Status::kError;
}

}  // namespace mfpa::net
