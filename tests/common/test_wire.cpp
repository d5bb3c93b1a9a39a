// CRC32C known answers and hardware/portable agreement, and the shared
// record frame: round trip, in-place payloads, and every way read_frame
// refuses bytes.
#include "common/wire.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace mfpa::wire {
namespace {

constexpr std::uint32_t kMagic = 0x5453454DU;  // "MEST"

TEST(Crc32c, Rfc3720KnownAnswers) {
  // RFC 3720 §B.4 test vectors, plus the customary "123456789" check.
  const std::string zeros(32, '\0');
  const std::string ones(32, '\xFF');
  std::string ascending(32, '\0');
  for (std::size_t i = 0; i < 32; ++i) ascending[i] = static_cast<char>(i);
  for (const auto crc : {crc32c, detail::crc32c_portable}) {
    EXPECT_EQ(crc(zeros), 0x8A9136AAU);
    EXPECT_EQ(crc(ones), 0x62A8AB43U);
    EXPECT_EQ(crc(ascending), 0x46DD794EU);
    EXPECT_EQ(crc("123456789"), 0xE3069283U);
    EXPECT_EQ(crc(""), 0U);
  }
}

TEST(Crc32c, HardwareAndPortablePathsAgree) {
  // Every length 0-1,024 at every start offset 0-7, so both the 8-byte
  // main loop and the byte tail run at every alignment.
  Rng rng(20260);
  std::vector<char> buf(1024 + 8);
  for (char& c : buf) c = static_cast<char>(rng.uniform_int(0, 255));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const std::string_view bytes(buf.data() + offset, len);
      ASSERT_EQ(crc32c(bytes), detail::crc32c_portable(bytes))
          << "offset " << offset << " length " << len << " on "
          << crc32c_path();
    }
  }
}

TEST(Crc32c, DispatchMatchesTheBuild) {
  const std::string_view path = crc32c_path();
#if defined(MFPA_FORCE_SCALAR)
  EXPECT_EQ(path, "portable");
#elif defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  EXPECT_EQ(path, __builtin_cpu_supports("sse4.2") ? "sse4.2" : "portable");
#else
  EXPECT_EQ(path, "portable");
#endif
}

TEST(RecordFrame, RoundTripsAndViewsThePayload) {
  std::string buf = "prefix";
  append_frame(buf, kMagic, 42, [](std::string& out) {
    put_u8(out, 7);
    put_u32(out, 0xDEADBEEFU);
    put_f64(out, 0.5);
  });
  append_frame(buf, kMagic, 43, [](std::string& out) { out += "tail"; });
  ASSERT_EQ(buf.size(), 6 + 2 * kFrameOverheadBytes + 13 + 4);

  const std::string_view bytes(buf);
  Frame frame;
  ASSERT_EQ(read_frame(bytes.substr(6), kMagic, 1024, frame),
            FrameStatus::kOk);
  EXPECT_EQ(frame.seq, 42u);
  EXPECT_EQ(frame.bytes, kFrameOverheadBytes + 13);
  EXPECT_EQ(frame.payload.data(), buf.data() + 6 + kFrameHeaderBytes);
  ByteReader r(frame.payload, "test frame");
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFU);
  EXPECT_EQ(r.f64(), 0.5);
  r.expect_done();

  Frame second;
  ASSERT_EQ(read_frame(bytes.substr(6 + frame.bytes), kMagic, 1024, second),
            FrameStatus::kOk);
  EXPECT_EQ(second.seq, 43u);
  EXPECT_EQ(second.payload, "tail");
}

TEST(RecordFrame, RefusesEveryDamagedFrame) {
  std::string good;
  append_frame(good, kMagic, 9,
               [](std::string& out) { out += "payload bytes"; });
  Frame frame;

  // Every strict prefix past the magic is incomplete, never an error.
  for (std::size_t len = 4; len < good.size(); ++len) {
    EXPECT_EQ(read_frame(std::string_view(good).substr(0, len), kMagic, 1024,
                         frame),
              FrameStatus::kNeedMore)
        << len;
  }
  EXPECT_EQ(read_frame(good, kMagic + 1, 1024, frame), FrameStatus::kBadMagic);
  EXPECT_EQ(read_frame(good, kMagic, 12, frame), FrameStatus::kOversized);
  // A single bit flip anywhere after the magic changes the size (more bytes
  // wanted, or the checksum lands elsewhere) or fails the checksum.
  for (std::size_t pos = 4; pos < good.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = good;
      bad[pos] = static_cast<char>(bad[pos] ^ (1 << bit));
      EXPECT_NE(read_frame(bad, kMagic, 1u << 20, frame), FrameStatus::kOk)
          << "byte " << pos << " bit " << bit;
    }
  }
}

}  // namespace
}  // namespace mfpa::wire
