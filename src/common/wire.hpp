// Little-endian fixed-width byte packing shared by every binary format in
// the tree: the WAL / alert-log frames (serve/wal), the durable checkpoint
// images (serve/checkpoint), and the network ingestion protocol
// (net/protocol). The durable formats are host-local (written and recovered
// on the same machine) and the wire format is loopback-first, but pinning
// the byte order keeps each framing well-defined, portable across mixed
// client/server builds, and lets tests craft exact corruption.
//
// Writers append to a std::string (cheap, append-only, reusable buffer);
// the bulk put_f64s grows the buffer once per array instead of byte by
// byte. ByteReader walks a payload view with bounds checks and throws
// std::runtime_error naming the caller's context on a short or overlong
// payload — the shared "refuse, don't misparse" discipline.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
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

/// Appends `values` as raw f64 bits, growing `buf` once for the whole array.
inline void put_f64s(std::string& buf, std::span<const double> values) {
  const std::size_t off = buf.size();
  buf.resize(off + 8 * values.size());
  char* out = buf.data() + off;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, values.data(), 8 * values.size());
  } else {
    for (std::size_t i = 0; i < values.size(); ++i) {
      detail::store_le(out + 8 * i, std::bit_cast<std::uint64_t>(values[i]));
    }
  }
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

}  // namespace mfpa::wire
