// Little-endian fixed-width byte packing and the one record frame shared by
// every binary format in the tree: the WAL and alert-log segments
// (serve/wal), the durable checkpoint file (serve/checkpoint) and the
// network ingestion protocol (net/protocol). The durable formats are
// host-local (written and recovered on the same machine) and the wire
// format is loopback-first, but pinning the byte order keeps each format
// well-defined, portable across mixed client/server builds, and lets tests
// craft exact corruption.
//
// Writers append to a std::string (cheap, append-only, reusable buffer).
// ByteReader walks a payload view with bounds checks and throws
// std::runtime_error naming the caller's context on a short or overlong
// payload — the shared "refuse, don't misparse" discipline.
//
// Record frame (append_frame / read_frame):
//
//   u32 magic   one value per format; marks a frame boundary
//   u32 size    payload bytes
//   u64 seq     sequence number (WAL LSN, alert ordinal, MFNP seq, ...)
//   u8  payload[size]
//   u32 crc     CRC32C over (size, seq, payload)
//
// The payload is written straight into the destination buffer and read
// back as a view over the source buffer: no per-record allocation or copy.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

namespace mfpa::wire {

namespace detail {

template <typename T>
void store_le(char* out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

template <typename T>
T load_le(const char* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<T>(static_cast<unsigned char>(p[i]))
                        << (8 * i));
  }
  return v;
}

template <typename T>
void append_le(std::string& buf, T v) {
  char bytes[sizeof(T)];
  store_le(bytes, v);
  buf.append(bytes, sizeof(T));
}

/// Appends `values` little-endian, growing `buf` once for the whole array
/// (`Bits` is the unsigned integer of the element's width).
template <typename Bits, typename T>
void append_le_array(std::string& buf, std::span<const T> values) {
  static_assert(sizeof(Bits) == sizeof(T));
  const std::size_t off = buf.size();
  buf.resize(off + sizeof(T) * values.size());
  char* out = buf.data() + off;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, values.data(), sizeof(T) * values.size());
  } else {
    for (std::size_t i = 0; i < values.size(); ++i) {
      store_le(out + sizeof(T) * i, std::bit_cast<Bits>(values[i]));
    }
  }
}

}  // namespace detail

inline void put_u8(std::string& buf, std::uint8_t v) {
  buf.push_back(static_cast<char>(v));
}

inline void put_u16(std::string& buf, std::uint16_t v) {
  detail::append_le(buf, v);
}

inline void put_u32(std::string& buf, std::uint32_t v) {
  detail::append_le(buf, v);
}

inline void put_u64(std::string& buf, std::uint64_t v) {
  detail::append_le(buf, v);
}

inline void put_i32(std::string& buf, std::int32_t v) {
  put_u32(buf, static_cast<std::uint32_t>(v));
}

inline void put_f32(std::string& buf, float v) {
  put_u32(buf, std::bit_cast<std::uint32_t>(v));
}

inline void put_f64(std::string& buf, double v) {
  put_u64(buf, std::bit_cast<std::uint64_t>(v));
}

/// Array forms of put_u16/put_f32/put_f64: one buffer growth per array.
inline void put_u16s(std::string& buf, std::span<const std::uint16_t> values) {
  detail::append_le_array<std::uint16_t>(buf, values);
}

inline void put_f32s(std::string& buf, std::span<const float> values) {
  detail::append_le_array<std::uint32_t>(buf, values);
}

inline void put_f64s(std::string& buf, std::span<const double> values) {
  detail::append_le_array<std::uint64_t>(buf, values);
}

/// Appends a u32 length prefix followed by the bytes of `s`.
inline void put_str(std::string& buf, std::string_view s) {
  put_u32(buf, static_cast<std::uint32_t>(s.size()));
  buf.append(s);
}

/// Reads fixed-width little-endian values at an arbitrary byte offset
/// (no bounds check — the caller has already sized the buffer).
inline std::uint32_t read_u32_at(const char* bytes, std::size_t off) {
  return detail::load_le<std::uint32_t>(bytes + off);
}

inline std::uint64_t read_u64_at(const char* bytes, std::size_t off) {
  return detail::load_le<std::uint64_t>(bytes + off);
}

/// Sequential bounds-checked reader over one payload. `what` names the
/// payload kind in diagnostics ("wal record", "net frame", ...). The reader
/// only views the bytes: they must outlive it.
class ByteReader {
 public:
  ByteReader(std::string_view bytes, const char* what)
      : bytes_(bytes), what_(what) {}

  std::uint8_t u8() { return detail::load_le<std::uint8_t>(take(1)); }
  std::uint16_t u16() { return detail::load_le<std::uint16_t>(take(2)); }
  std::uint32_t u32() { return detail::load_le<std::uint32_t>(take(4)); }
  std::uint64_t u64() { return detail::load_le<std::uint64_t>(take(8)); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  float f32() { return std::bit_cast<float>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// Bulk counterpart of put_f64s: fills `out` with one bounds check.
  void f64s(std::span<double> out) {
    const char* p = take(8 * out.size());
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out.data(), p, 8 * out.size());
    } else {
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] =
            std::bit_cast<double>(detail::load_le<std::uint64_t>(p + 8 * i));
      }
    }
  }

  /// Reads a put_str string; the length is checked against the bytes left
  /// before anything is copied.
  std::string_view str() {
    const std::uint32_t n = u32();
    return {take(n), n};
  }

  /// Reads a u64 element count and refuses it unless `count * min_bytes`
  /// more bytes are left (`min_bytes` >= 1: the smallest encoded element),
  /// so a lying count fails before the caller allocates.
  std::uint64_t count(std::size_t min_bytes) {
    const std::uint64_t n = u64();
    if (n > remaining() / min_bytes) {
      throw std::runtime_error(std::string(what_) + ": count " +
                               std::to_string(n) +
                               " exceeds the remaining payload");
    }
    return n;
  }

  std::size_t remaining() const noexcept { return bytes_.size() - off_; }

  void expect_done() const {
    if (off_ != bytes_.size()) {
      throw std::runtime_error(std::string(what_) + ": trailing payload bytes");
    }
  }

 private:
  const char* take(std::size_t n) {
    if (n > remaining()) {
      throw std::runtime_error(std::string(what_) + ": short payload");
    }
    const char* p = bytes_.data() + off_;
    off_ += n;
    return p;
  }

  std::string_view bytes_;
  const char* what_;
  std::size_t off_ = 0;
};

// --- CRC32C ----------------------------------------------------------------

/// CRC32C (Castagnoli, the iSCSI/ext4 checksum) of `bytes`. Uses the SSE4.2
/// `crc32` instruction on x86-64 when the CPU has it (probed once, at the
/// first call), and slice-by-8 tables otherwise (every other architecture
/// included) or when built with MFPA_FORCE_SCALAR.
std::uint32_t crc32c(std::string_view bytes) noexcept;

/// The path crc32c() dispatches to: "sse4.2" or "portable".
const char* crc32c_path() noexcept;

namespace detail {
/// The portable slice-by-8 implementation, exposed so hosts with the
/// hardware path can check the two agree.
std::uint32_t crc32c_portable(std::string_view bytes) noexcept;
}  // namespace detail

// --- record frame ----------------------------------------------------------

inline constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 8;  // magic, size, seq
inline constexpr std::size_t kFrameTrailerBytes = 4;         // crc32c
inline constexpr std::size_t kFrameOverheadBytes =
    kFrameHeaderBytes + kFrameTrailerBytes;

/// Appends one frame to `buf`; `write_payload(buf)` appends the payload in
/// place. A payload over 4 GiB does not fit the u32 size field: the frame
/// is taken back off `buf` and std::runtime_error is thrown.
template <typename WritePayload>
  requires std::invocable<WritePayload&, std::string&>
void append_frame(std::string& buf, std::uint32_t magic, std::uint64_t seq,
                  WritePayload&& write_payload) {
  const std::size_t start = buf.size();
  put_u32(buf, magic);
  put_u32(buf, 0);  // size, patched below
  put_u64(buf, seq);
  write_payload(buf);
  const std::size_t size = buf.size() - start - kFrameHeaderBytes;
  if (size > std::numeric_limits<std::uint32_t>::max()) {
    buf.resize(start);
    throw std::runtime_error("wire: frame payload over 4 GiB");
  }
  detail::store_le(buf.data() + start + 4, static_cast<std::uint32_t>(size));
  const std::uint32_t crc =
      crc32c(std::string_view(buf.data() + start + 4, buf.size() - start - 4));
  put_u32(buf, crc);
}

/// One frame read by read_frame(); `payload` views the bytes it was read
/// from.
struct Frame {
  std::uint64_t seq = 0;
  std::string_view payload;
  std::size_t bytes = 0;  ///< the whole frame, magic to crc
};

enum class FrameStatus {
  kOk,
  kNeedMore,     ///< `bytes` ends inside the frame
  kBadMagic,     ///< the first four bytes are not `magic`
  kOversized,    ///< size field over `max_payload` (checked from the header)
  kBadChecksum,  ///< CRC32C mismatch
};

/// Reads the frame at the front of `bytes`. The size field is checked
/// against `max_payload` before anything past the header is needed, so a
/// hostile length never makes a caller wait for (or buffer) that much.
inline FrameStatus read_frame(std::string_view bytes, std::uint32_t magic,
                              std::uint32_t max_payload, Frame& out) noexcept {
  if (bytes.size() < 4) return FrameStatus::kNeedMore;
  if (detail::load_le<std::uint32_t>(bytes.data()) != magic) {
    return FrameStatus::kBadMagic;
  }
  if (bytes.size() < kFrameHeaderBytes) return FrameStatus::kNeedMore;
  const std::uint32_t size = detail::load_le<std::uint32_t>(bytes.data() + 4);
  if (size > max_payload) return FrameStatus::kOversized;
  const std::size_t total = kFrameOverheadBytes + std::size_t{size};
  if (bytes.size() < total) return FrameStatus::kNeedMore;
  const std::uint32_t want =
      detail::load_le<std::uint32_t>(bytes.data() + kFrameHeaderBytes + size);
  if (crc32c(bytes.substr(4, 4 + 8 + std::size_t{size})) != want) {
    return FrameStatus::kBadChecksum;
  }
  out.seq = detail::load_le<std::uint64_t>(bytes.data() + 8);
  out.payload = bytes.substr(kFrameHeaderBytes, size);
  out.bytes = total;
  return FrameStatus::kOk;
}

}  // namespace mfpa::wire
