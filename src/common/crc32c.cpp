// CRC32C for the record frame (common/wire.hpp): a portable slice-by-8
// implementation and an SSE4.2 one for x86-64, picked once at run time.
// Both compute the same function: reflected Castagnoli polynomial
// 0x82F63B78, initial value and final XOR 0xFFFFFFFF. Other architectures
// (aarch64 included) use the portable path.
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/wire.hpp"

#if !defined(MFPA_FORCE_SCALAR) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define MFPA_CRC32C_SSE42 1
#endif

namespace mfpa::wire {
namespace {

constexpr std::uint32_t kPolynomial = 0x82F63B78U;

/// kTables[0] is the byte-at-a-time table; kTables[k][i] is the CRC of byte
/// i followed by k zero bytes, so eight lookups fold eight bytes at once.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ (kPolynomial & (0U - (c & 1U)));
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr auto kTables = make_tables();

// Each kernel takes and returns the raw (pre-inverted) register.
using Kernel = std::uint32_t (*)(const char*, std::size_t,
                                 std::uint32_t) noexcept;

std::uint32_t portable_kernel(const char* p, std::size_t n,
                              std::uint32_t crc) noexcept {
  const auto& t = kTables;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint64_t word =
        detail::load_le<std::uint64_t>(p) ^ std::uint64_t{crc};
    crc = t[7][word & 0xFF] ^ t[6][(word >> 8) & 0xFF] ^
          t[5][(word >> 16) & 0xFF] ^ t[4][(word >> 24) & 0xFF] ^
          t[3][(word >> 32) & 0xFF] ^ t[2][(word >> 40) & 0xFF] ^
          t[1][(word >> 48) & 0xFF] ^ t[0][word >> 56];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ t[0][(crc ^ static_cast<unsigned char>(*p)) & 0xFF];
  }
  return crc;
}

#if defined(MFPA_CRC32C_SSE42)
__attribute__((target("sse4.2"))) std::uint32_t sse42_kernel(
    const char* p, std::size_t n, std::uint32_t crc) noexcept {
  std::uint64_t c = crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) {
    c32 = _mm_crc32_u8(c32, static_cast<unsigned char>(*p));
  }
  return c32;
}
#endif

struct Dispatch {
  Kernel kernel;
  const char* name;
};

Dispatch choose() noexcept {
#if defined(MFPA_CRC32C_SSE42)
  if (__builtin_cpu_supports("sse4.2")) return {sse42_kernel, "sse4.2"};
#endif
  return {portable_kernel, "portable"};
}

const Dispatch& dispatch() noexcept {
  static const Dispatch chosen = choose();
  return chosen;
}

}  // namespace

std::uint32_t crc32c(std::string_view bytes) noexcept {
  return ~dispatch().kernel(bytes.data(), bytes.size(), 0xFFFFFFFFU);
}

const char* crc32c_path() noexcept { return dispatch().name; }

namespace detail {
std::uint32_t crc32c_portable(std::string_view bytes) noexcept {
  return ~portable_kernel(bytes.data(), bytes.size(), 0xFFFFFFFFU);
}
}  // namespace detail

}  // namespace mfpa::wire
