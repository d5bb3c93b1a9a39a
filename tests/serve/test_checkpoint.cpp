#include "serve/checkpoint.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/wire.hpp"
#include "core/preprocess.hpp"
#include "core/streaming.hpp"
#include "ml/checksum.hpp"
#include "obs/metrics.hpp"
#include "serve/drive_state_store.hpp"
#include "serve/model_registry.hpp"
#include "serve/replay.hpp"
#include "serve/scoring_engine.hpp"
#include "serve/wal.hpp"
#include "sim/fleet.hpp"

namespace mfpa::serve {
namespace {
namespace fs = std::filesystem;

sim::DailyRecord make_record(DayIndex day, float base) {
  sim::DailyRecord rec;
  rec.day = day;
  for (std::size_t i = 0; i < rec.smart.size(); ++i) {
    rec.smart[i] = base + static_cast<float>(i);
  }
  rec.w[0] = static_cast<std::uint16_t>(day);
  rec.b[1] = 2;
  return rec;
}

std::string store_image(const DriveStateStore& store) {
  std::string image;
  store.save_state(image);
  return image;
}

StoreConfig store_config(std::size_t shards = 2) {
  StoreConfig config;
  config.shards = shards;
  return config;
}

/// `drives` drives with `days` records each, interleaved day by day.
void fill_store(DriveStateStore& store, int drives, int days) {
  std::vector<PendingRow> rows;
  for (int day = 0; day < days; ++day) {
    for (int d = 0; d < drives; ++d) {
      store.ingest(static_cast<std::uint64_t>(10 * d + 3), d % 2,
                   make_record(day, 1.25f + static_cast<float>(d)), rows);
    }
  }
}

std::string read_bytes(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  // A fresh file, not a truncated one: some filesystems flush a file that
  // was truncated and rewritten when it is closed, which makes the sweeps
  // below wait on the disk.
  fs::remove(path);
  std::ofstream os(path, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Overwrites sizeof(T) bytes at `off` with `v`, little-endian.
template <typename T>
void put_at(std::string& bytes, std::size_t off, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    bytes[off + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

// Checkpoint v3 layout (serve/checkpoint.hpp): an 8-byte file header, then
// one record frame — magic u32, payload size u32, lsn u64, the payload
// (alert count u64, model version i32, store image) and a CRC32C u32 over
// everything from the size field to the end of the payload.
constexpr std::size_t kHeaderBytes = 8 + 16;
constexpr std::size_t kPayloadBytesOffset = 12;
constexpr std::size_t kChecksumBytes = 4;
constexpr std::size_t kStoreOffset = kHeaderBytes + 8 + 4;
// Store image: three u64 counters, then the u64 drive count.
constexpr std::size_t kDriveCountOffset = kStoreOffset + 3 * 8;
// First drive: 37-byte drive header, then its ingestor: the sanitizer (13
// u64 counters, u64 diagnostics count, optional day, 6 f32 raw values, 6
// f64 offsets, f32 last-good values), counters, optional day, w/b arrays,
// and the u64 segment count.
constexpr std::size_t kFirstDiagnosticsCountOffset =
    kDriveCountOffset + 8 + 37 + 13 * 8;
constexpr std::size_t kFirstSegmentCountOffset =
    kFirstDiagnosticsCountOffset + 8 + 1 + 4 + 6 * 4 + 6 * 8 +
    sim::kNumSmartAttrs * 4 + 8 + 4 + 1 + 4 + sim::kNumWindowsEvents * 8 +
    sim::kNumBsodCodes * 8;
// First record: day i32, synthetic u8, then the u32 firmware length.
constexpr std::size_t kFirstFirmwareLengthOffset =
    kFirstSegmentCountOffset + 8 + 4 + 1;

// The same field, counted from the start of a bare store image.
constexpr std::size_t kImageFirstSegmentCountOffset =
    kFirstSegmentCountOffset - kStoreOffset;

/// True for the days a gappy drive skips: gaps of 2 and 3 days, all filled.
bool skipped_day(int day) {
  return day % 7 == 3 || day % 11 == 5 || day % 11 == 6;
}

/// Feeds drives 3 and 13 their gappy series over days [from, to).
std::vector<PendingRow> feed_gappy(DriveStateStore& store, int from, int to) {
  std::vector<PendingRow> rows;
  for (int day = from; day < to; ++day) {
    if (skipped_day(day)) continue;
    for (int d = 0; d < 2; ++d) {
      store.ingest(static_cast<std::uint64_t>(10 * d + 3), d,
                   make_record(day, 4.5f + static_cast<float>(d)), rows);
    }
  }
  return rows;
}

void expect_same_rows(const std::vector<PendingRow>& got,
                      const std::vector<PendingRow>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].drive_id, want[i].drive_id) << i;
    EXPECT_EQ(got[i].vendor, want[i].vendor) << i;
    EXPECT_EQ(got[i].segment, want[i].segment) << i;
    EXPECT_EQ(got[i].record.day, want[i].record.day) << i;
    EXPECT_EQ(got[i].record.synthetic, want[i].record.synthetic) << i;
    EXPECT_EQ(got[i].record.firmware, want[i].record.firmware) << i;
    EXPECT_EQ(got[i].record.smart, want[i].record.smart) << i;
    EXPECT_EQ(got[i].record.w_cum, want[i].record.w_cum) << i;
    EXPECT_EQ(got[i].record.b_cum, want[i].record.b_cum) << i;
  }
}

/// Recomputes the trailing CRC32C so a doctored payload passes the checksum.
void redigest(std::string& bytes) {
  const std::size_t end = bytes.size() - kChecksumBytes;
  put_at<std::uint32_t>(
      bytes, end,
      wire::crc32c(std::string_view(bytes).substr(
          kPayloadBytesOffset, end - kPayloadBytesOffset)));
}

/// A checkpoint file with its first drive appended a second time. The drive
/// count, payload length and checksum are fixed up, so the file passes every
/// file-level check and only the store loader can reject it, after it has
/// decoded every other drive.
std::string with_first_drive_duplicated(std::string file) {
  constexpr std::size_t kFirstDrive = kDriveCountOffset + 8;
  wire::ByteReader r(std::string_view(file).substr(kFirstDrive), "drive");
  const std::uint64_t id = r.u64();
  const int vendor = r.i32();
  r.u64();  // the rest of the 37-byte drive header
  r.i32();
  r.u8();
  r.i32();
  r.i32();
  r.i32();
  core::StreamingIngestor(id, vendor).decode(r);
  const std::size_t drive_bytes = file.size() - kFirstDrive - r.remaining();
  wire::ByteReader count(std::string_view(file).substr(kDriveCountOffset),
                         "drive count");
  const std::uint64_t drives = count.u64();
  file.resize(file.size() - kChecksumBytes);
  file += file.substr(kFirstDrive, drive_bytes);
  put_at<std::uint64_t>(file, kDriveCountOffset, drives + 1);
  put_at<std::uint32_t>(file, kPayloadBytesOffset,
                        static_cast<std::uint32_t>(file.size() - kHeaderBytes));
  file.append(kChecksumBytes, '\0');
  redigest(file);
  return file;
}

/// One "drive day score" line per alert, scores at round-trip precision.
std::string alert_bytes(const std::vector<core::Alert>& alerts) {
  std::ostringstream out;
  out.precision(17);
  for (const auto& alert : alerts) {
    out << alert.drive_id << ' ' << alert.day << ' ' << alert.score << '\n';
  }
  return out.str();
}

/// The full restore path: verify the file, then decode its store image.
void load_into(const std::string& path, DriveStateStore& store) {
  const CheckpointImage image = load_checkpoint_file(path);
  store.load_state(image.store_state());
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("mfpa_ckpt_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  DurabilityConfig durability_config() const {
    DurabilityConfig config;
    config.dir = dir_.string();
    config.wal_shards = 2;
    config.fsync = false;  // throwaway tmpdir
    config.checkpoint_interval_records = 0;  // explicit checkpoints only
    return config;
  }

  /// Feeds `n` records for `drives` drives through both the manager's WAL
  /// and the store — the engine's WAL-before-apply discipline in miniature.
  static void feed(DurabilityManager& manager, DriveStateStore& store,
                   int drives, int n, DayIndex day0) {
    std::vector<PendingRow> rows;
    for (int day = 0; day < n; ++day) {
      for (int d = 0; d < drives; ++d) {
        const std::uint64_t id = static_cast<std::uint64_t>(d + 1);
        const sim::DailyRecord rec = make_record(day0 + day, 1.5f + d);
        manager.append(id, 0, rec);
        store.ingest(id, 0, rec, rows);
      }
    }
  }

  fs::path dir_;
};

TEST_F(CheckpointTest, CheckpointFileRoundTrips) {
  DriveStateStore store(store_config());
  std::vector<PendingRow> rows;
  for (int day = 0; day < 12; ++day) {
    store.ingest(7, 0, make_record(day, 2.0f), rows);
  }
  const std::string path = (dir_ / "ckpt-42.mfc").string();
  write_checkpoint_file(path, store, 42, 5, 3, /*fsync=*/false);

  const CheckpointImage image = load_checkpoint_file(path);
  EXPECT_EQ(image.lsn, 42u);
  EXPECT_EQ(image.alert_count, 5u);
  EXPECT_EQ(image.model_version, 3);
  EXPECT_EQ(image.store_state(), store_image(store));

  DriveStateStore restored(store_config());
  restored.load_state(image.store_state());
  EXPECT_EQ(store_image(restored), store_image(store));
}

TEST_F(CheckpointTest, StoreImageIsIndependentOfStripeCount) {
  std::vector<std::string> images;
  for (const std::size_t shards : {1u, 2u, 7u}) {
    DriveStateStore store(store_config(shards));
    fill_store(store, /*drives=*/9, /*days=*/20);
    images.push_back(store_image(store));
  }
  ASSERT_FALSE(images[0].empty());
  EXPECT_EQ(images[1], images[0]);
  EXPECT_EQ(images[2], images[0]);

  // Each image restores into a different stripe count and re-saves to the
  // same bytes.
  const std::size_t restore_shards[] = {7, 1, 2};
  for (std::size_t i = 0; i < images.size(); ++i) {
    DriveStateStore restored(store_config(restore_shards[i]));
    restored.load_state(images[i]);
    EXPECT_EQ(restored.stats().drives_tracked, 9u);
    EXPECT_EQ(store_image(restored), images[0]);
  }
}

TEST_F(CheckpointTest, DuplicateDriveInImageThrows) {
  DriveStateStore store(store_config());
  fill_store(store, /*drives=*/1, /*days=*/3);
  std::string image = store_image(store);
  // Append the one drive's record a second time and bump the count.
  const std::size_t drive_count_at = 3 * 8;
  image += image.substr(drive_count_at + 8);
  put_at<std::uint64_t>(image, drive_count_at, 2);
  DriveStateStore restored(store_config());
  EXPECT_THROW(restored.load_state(image), std::runtime_error);
}

TEST_F(CheckpointTest, RejectedImageLeavesTheStoreEmpty) {
  auto isolated = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride scope(*isolated);
  obs::Gauge& tracked = isolated->gauge("mfpa_store_drives_tracked");
  DriveStateStore source(store_config());
  fill_store(source, /*drives=*/4, /*days=*/3);
  const std::string good = store_image(source);
  // Every drive a second time (the loader inserts all four, then meets a
  // duplicate), and a cut inside the last drive.
  const std::size_t drive_count_at = 3 * 8;
  std::string doubled = good + good.substr(drive_count_at + 8);
  put_at<std::uint64_t>(doubled, drive_count_at, 8);
  const std::string truncated = good.substr(0, good.size() - 5);
  for (const std::string& bad : {doubled, truncated}) {
    DriveStateStore restored(store_config());
    EXPECT_THROW(restored.load_state(bad), std::runtime_error);
    const StoreStats stats = restored.stats();
    EXPECT_EQ(stats.drives_tracked, 0u);
    EXPECT_EQ(stats.records_ingested, 0u);
    EXPECT_EQ(stats.rows_emitted, 0u);
    EXPECT_DOUBLE_EQ(tracked.value(), 4.0);  // the source's drives only
    // The emptied store takes a valid image afterwards.
    restored.load_state(good);
    EXPECT_EQ(store_image(restored), good);
    EXPECT_DOUBLE_EQ(tracked.value(), 8.0);
  }
}

TEST_F(CheckpointTest, TextCheckpointFromOlderBuildIsRefused) {
  const fs::path path = dir_ / "ckpt-7.mfc";
  // A well-formed v1 file: its digest matches, so only the version refuses.
  const std::string body = "checkpoint 1 7 0 1\nstore 2 0 0 0\ndrives 0\n";
  const std::string header = "mfpa_ckpt 1 " + std::to_string(body.size()) +
                             " " + ml::checksum_hex(ml::fnv1a(body)) + "\n";
  write_bytes(path, header + body);
  try {
    load_checkpoint_file(path.string());
    FAIL() << "a version-1 text checkpoint loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported checkpoint version"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointTest, VersionTwoCheckpointFromOlderBuildIsRefused) {
  // A well-formed v2 file: 24-byte header (magic, version 2, payload length
  // u64, FNV-1a-64 of the payload), then lsn u64, alert count u64, model
  // version i32 and the store image. Its digest matches, so only the
  // version refuses it.
  DriveStateStore store(store_config());
  fill_store(store, /*drives=*/2, /*days=*/4);
  std::string payload;
  wire::put_u64(payload, 9);
  wire::put_u64(payload, 0);
  wire::put_i32(payload, 1);
  store.save_state(payload);
  std::string file;
  wire::put_u32(file, 0x4B43464DU);  // "MFCK"
  wire::put_u32(file, 2);
  wire::put_u64(file, payload.size());
  wire::put_u64(file, ml::fnv1a(payload));
  file += payload;

  DurabilityManager manager(durability_config());
  const fs::path path = dir_ / "ckpt" / "ckpt-9.mfc";
  write_bytes(path, file);
  try {
    load_checkpoint_file(path.string());
    FAIL() << "a version-2 checkpoint loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported checkpoint version 2"),
              std::string::npos)
        << e.what();
  }
  // A durable directory holding only older checkpoints refuses to resume
  // instead of starting empty.
  DriveStateStore restored(store_config());
  try {
    manager.recover(restored, 1);
    FAIL() << "recovery resumed from a version-2 directory";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no valid checkpoint"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(restored.stats().drives_tracked, 0u);
}

TEST_F(CheckpointTest, CorruptionSweepAlwaysThrows) {
  DriveStateStore store(store_config());
  fill_store(store, /*drives=*/2, /*days=*/4);
  const fs::path good = dir_ / "ckpt-9.mfc";
  write_checkpoint_file(good.string(), store, 9, 1, 2, /*fsync=*/false);
  const std::string bytes = read_bytes(good);
  ASSERT_GT(bytes.size(), kFirstFirmwareLengthOffset);

  const fs::path bad = dir_ / "bad.mfc";
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_bytes(bad, bytes.substr(0, len));
    EXPECT_THROW(load_checkpoint_file(bad.string()), std::runtime_error)
        << "truncated to " << len << " bytes";
  }
  for (std::size_t off = 0; off < bytes.size(); ++off) {
    std::string flipped = bytes;
    flipped[off] = static_cast<char>(flipped[off] ^ (1 << (off % 8)));
    write_bytes(bad, flipped);
    EXPECT_THROW(load_checkpoint_file(bad.string()), std::runtime_error)
        << "bit flipped at offset " << off;
  }
}

TEST_F(CheckpointTest, LyingCountsThrowBeforeAllocating) {
  DriveStateStore store(store_config());
  fill_store(store, /*drives=*/2, /*days=*/4);
  const fs::path good = dir_ / "ckpt-9.mfc";
  write_checkpoint_file(good.string(), store, 9, 1, 2, /*fsync=*/false);
  const std::string bytes = read_bytes(good);
  // The offsets below point where the layout says they do.
  ASSERT_EQ(wire::read_u64_at(bytes.data(), kDriveCountOffset), 2u);
  ASSERT_EQ(wire::read_u64_at(bytes.data(), kFirstDiagnosticsCountOffset), 0u);
  ASSERT_EQ(wire::read_u64_at(bytes.data(), kFirstSegmentCountOffset), 1u);
  ASSERT_EQ(wire::read_u32_at(bytes.data(), kFirstFirmwareLengthOffset),
            core::firmware_version_string(0, 0).size());
  {
    DriveStateStore restored(store_config());
    load_into(good.string(), restored);  // the undoctored file is fine
  }

  const fs::path bad = dir_ / "bad.mfc";
  const auto expect_refused = [&](std::string doctored, const char* what) {
    redigest(doctored);
    write_bytes(bad, doctored);
    DriveStateStore restored(store_config());
    EXPECT_THROW(load_into(bad.string(), restored), std::runtime_error)
        << what;
  };
  // A 2^40 count that reached a reservation would throw std::length_error
  // or std::bad_alloc, not std::runtime_error.
  const std::uint64_t huge = std::uint64_t{1} << 40;
  std::string doctored = bytes;
  put_at<std::uint64_t>(doctored, kDriveCountOffset, huge);
  expect_refused(doctored, "drive count 2^40");

  for (const std::uint64_t n : {std::uint64_t{bytes.size()}, huge}) {
    doctored = bytes;
    put_at<std::uint64_t>(doctored, kFirstSegmentCountOffset, n);
    expect_refused(doctored, "segment length past the end");
  }

  doctored = bytes;
  put_at<std::uint64_t>(doctored, kFirstDiagnosticsCountOffset, huge);
  expect_refused(doctored, "diagnostics count 2^40");

  doctored = bytes;
  put_at<std::uint32_t>(doctored, kFirstFirmwareLengthOffset, 1u << 20);
  expect_refused(doctored, "firmware length 1 MB");
}

TEST_F(CheckpointTest, ImageHoldsTheGapFillAnchorAndResumes) {
  DriveStateStore live(store_config());
  feed_gappy(live, 0, 30);
  const fs::path path = dir_ / "ckpt-30.mfc";
  write_checkpoint_file(path.string(), live, 30, 0, 1, /*fsync=*/false);
  const std::string bytes = read_bytes(path);
  EXPECT_EQ(wire::read_u64_at(bytes.data(), kFirstSegmentCountOffset), 1u);

  DriveStateStore restored(store_config());
  load_into(path.string(), restored);
  // The restored store continues exactly like the one that never stopped.
  expect_same_rows(feed_gappy(restored, 30, 45), feed_gappy(live, 30, 45));
  EXPECT_EQ(store_image(restored), store_image(live));
}

TEST_F(CheckpointTest, ImageWithSixteenRetainedRecordsResumes) {
  // Older builds kept the newest 16 records of every emitted drive. The
  // byte layout is unchanged, so such an image restores and its first
  // emission compacts it.
  DriveStateStore reference(store_config());
  feed_gappy(reference, 0, 30);
  const StoreStats stats = reference.stats();
  std::string image;
  wire::put_u64(image, stats.records_ingested);
  wire::put_u64(image, stats.rows_emitted);
  wire::put_u64(image, stats.segments_restarted);
  wire::put_u64(image, 2);
  for (int d = 0; d < 2; ++d) {
    core::StreamingIngestor ingestor(static_cast<std::uint64_t>(10 * d + 3), d);
    for (int day = 0; day < 30; ++day) {
      if (!skipped_day(day)) {
        ingestor.ingest(make_record(day, 4.5f + static_cast<float>(d)));
      }
    }
    ASSERT_GT(ingestor.segment().size(), 16u);
    ingestor.compact(16);
    // Drive header: id, vendor, emitted (the whole retained segment),
    // segments seen, quarantine flag, and the alert registers of a drive
    // never scored (consecutive, last alert, alert segment).
    wire::put_u64(image, ingestor.drive_id());
    wire::put_i32(image, ingestor.vendor());
    wire::put_u64(image, ingestor.segment().size());
    wire::put_i32(image, ingestor.segments_started());
    wire::put_u8(image, 0);
    wire::put_i32(image, 0);
    wire::put_i32(image, std::numeric_limits<DayIndex>::min());
    wire::put_i32(image, 0);
    ingestor.encode(image);
  }
  ASSERT_EQ(wire::read_u64_at(image.data(), kImageFirstSegmentCountOffset),
            16u);

  DriveStateStore restored(store_config());
  restored.load_state(image);
  EXPECT_EQ(store_image(restored), image);  // restores as written
  expect_same_rows(feed_gappy(restored, 30, 45),
                   feed_gappy(reference, 30, 45));
  const std::string compacted = store_image(restored);
  EXPECT_EQ(compacted, store_image(reference));
  EXPECT_EQ(wire::read_u64_at(compacted.data(), kImageFirstSegmentCountOffset),
            1u);
}

TEST_F(CheckpointTest, EveryCheckpointWriteIsCountedAndTimed) {
  obs::MetricsRegistry reg;
  obs::ScopedMetricsOverride scoped(reg);
  DriveStateStore store(store_config());
  DurabilityManager manager(durability_config());
  manager.recover(store, 1);
  manager.finish_recovery(store, 1);  // the recovery seal is a write too
  feed(manager, store, 2, 3, 0);
  manager.checkpoint_now(store, 1);

  std::uint64_t file_bytes = 0;
  for (const auto& [lsn, path] : list_checkpoints(dir_.string())) {
    file_bytes += fs::file_size(path);
  }
  EXPECT_EQ(reg.counter("mfpa_ckpt_writes_total").value(), 2u);
  EXPECT_EQ(reg.counter("mfpa_ckpt_bytes_total").value(), file_bytes);
  EXPECT_EQ(reg.histogram("mfpa_ckpt_write_seconds", 0.0, 2.0, 512).count(),
            2u);
}

TEST_F(CheckpointTest, CorruptPayloadIsRejected) {
  DriveStateStore store(store_config());
  const std::string path = (dir_ / "ckpt-1.mfc").string();
  write_checkpoint_file(path, store, 1, 0, 1, /*fsync=*/false);

  std::string bytes = read_bytes(path);
  bytes[bytes.size() / 2] ^= 0x04;
  write_bytes(path, bytes);
  EXPECT_THROW(load_checkpoint_file(path), std::runtime_error);
}

TEST_F(CheckpointTest, ListCheckpointsSortsByLsnNumerically) {
  DriveStateStore store(store_config());
  fs::create_directories(dir_ / "ckpt");
  for (const std::uint64_t lsn : {512u, 4096u, 40u}) {
    write_checkpoint_file((dir_ / "ckpt" / ("ckpt-" + std::to_string(lsn) +
                                            ".mfc")).string(),
                          store, lsn, 0, 1, false);
  }
  const auto listed = list_checkpoints(dir_.string());
  ASSERT_EQ(listed.size(), 3u);
  EXPECT_EQ(listed[0].first, 40u);   // lexicographic would put 4096 first
  EXPECT_EQ(listed[1].first, 512u);
  EXPECT_EQ(listed[2].first, 4096u);
}

TEST_F(CheckpointTest, FullCycleCheckpointThenRecover) {
  std::string live_image;
  {
    DriveStateStore store(store_config());
    DurabilityManager manager(durability_config());
    const auto fresh = manager.recover(store, 1);
    EXPECT_FALSE(fresh.checkpoint_loaded);
    EXPECT_TRUE(fresh.tail.empty());
    manager.finish_recovery(store, 1);

    feed(manager, store, /*drives=*/3, /*n=*/10, /*day0=*/0);
    manager.append_alert({2, 8, 0.91});
    manager.checkpoint_now(store, 1);
    feed(manager, store, 3, 4, 10);  // post-checkpoint tail, flushed not ckpted
    manager.flush();
    live_image = store_image(store);
    EXPECT_EQ(manager.last_lsn(), 42u);
  }
  // "Crash": nothing sealed after the flush. A fresh manager must land the
  // checkpoint plus a 12-record WAL tail.
  DriveStateStore store(store_config());
  DurabilityManager manager(durability_config());
  const auto recovered = manager.recover(store, 1);
  EXPECT_TRUE(recovered.checkpoint_loaded);
  EXPECT_EQ(recovered.checkpoint_lsn, 30u);
  EXPECT_EQ(recovered.model_version, 1);
  ASSERT_EQ(recovered.tail.size(), 12u);
  EXPECT_EQ(recovered.tail.front().lsn, 31u);
  EXPECT_EQ(recovered.durable_records, 42u);
  ASSERT_EQ(recovered.alerts.size(), 1u);
  EXPECT_EQ(recovered.alerts.front().drive_id, 2u);

  // Re-applying the tail through the store reproduces the live state.
  std::vector<PendingRow> rows;
  for (const auto& entry : recovered.tail) {
    store.ingest(entry.drive_id, entry.vendor, entry.record, rows);
  }
  EXPECT_EQ(store_image(store), live_image);
  manager.finish_recovery(store, 1);
  EXPECT_EQ(manager.last_lsn(), 42u);
}

TEST_F(CheckpointTest, RecoveryIsIdempotent) {
  {
    DriveStateStore store(store_config());
    DurabilityManager manager(durability_config());
    manager.recover(store, 2);
    manager.finish_recovery(store, 2);
    feed(manager, store, 2, 6, 0);
    manager.checkpoint_now(store, 2);
  }
  std::string first_image;
  for (int round = 0; round < 2; ++round) {
    // Recover, seal, and crash again without appending anything: every
    // round must land on the identical state and LSN.
    DriveStateStore store(store_config());
    DurabilityManager manager(durability_config());
    const auto recovered = manager.recover(store, 2);
    EXPECT_TRUE(recovered.checkpoint_loaded);
    EXPECT_TRUE(recovered.tail.empty());
    EXPECT_EQ(recovered.durable_records, 12u);
    manager.finish_recovery(store, 2);
    if (round == 0) {
      first_image = store_image(store);
    } else {
      EXPECT_EQ(store_image(store), first_image);
    }
  }
}

TEST_F(CheckpointTest, FallsBackToOlderCheckpointWhenNewestIsCorrupt) {
  {
    DriveStateStore store(store_config());
    DurabilityManager manager(durability_config());
    manager.recover(store, 1);
    manager.finish_recovery(store, 1);
    feed(manager, store, 2, 5, 0);
    manager.checkpoint_now(store, 1);  // ckpt @ 10
    feed(manager, store, 2, 5, 5);
    manager.checkpoint_now(store, 1);  // ckpt @ 20
  }
  // Corrupt the newest checkpoint; the WAL retains segments back to the
  // previous one, so recovery replays LSNs 11..20 over it instead.
  const auto ckpts = list_checkpoints(dir_.string());
  ASSERT_GE(ckpts.size(), 2u);
  {
    std::fstream f(ckpts.back().second,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(30);
    f.put('\x7f');
  }
  DriveStateStore store(store_config());
  DurabilityManager manager(durability_config());
  const auto recovered = manager.recover(store, 1);
  EXPECT_TRUE(recovered.checkpoint_loaded);
  EXPECT_EQ(recovered.checkpoint_lsn, 10u);
  EXPECT_EQ(recovered.checkpoints_skipped, 1u);
  ASSERT_EQ(recovered.tail.size(), 10u);
  EXPECT_EQ(recovered.durable_records, 20u);
}

TEST_F(CheckpointTest, FallsBackWhenTheStoreRejectsTheNewestImage) {
  sim::FleetSimulator fleet(sim::tiny_scenario(7));
  const auto telemetry = fleet.generate_telemetry();
  ModelRegistry registry((dir_ / "registry").string());
  core::MfpaConfig train;
  train.seed = 7;
  train_and_publish(registry, train, telemetry, fleet.tickets());
  const FleetReplayer replayer(telemetry);

  std::string uninterrupted;
  {
    ScoringEngine engine(registry, EngineConfig{});
    uninterrupted = alert_bytes(replayer.replay(engine).alerts);
  }
  ASSERT_FALSE(uninterrupted.empty());

  EngineConfig durable;
  durable.durability = durability_config();
  durable.durability.checkpoint_interval_records = 3000;
  {
    // A clean stop part-way: the shutdown checkpoint is the newest, a
    // periodic one the older.
    volatile std::sig_atomic_t cut = 0;
    const DayIndex cut_day =
        replayer.first_day() + (replayer.last_day() - replayer.first_day()) / 2;
    ReplayOptions options;
    options.on_day = [&](DayIndex day) { cut = day >= cut_day; };
    options.cancel = &cut;
    ScoringEngine engine(registry, durable);
    ASSERT_TRUE(replayer.replay(engine, options).interrupted);
  }
  const auto ckpts = list_checkpoints(dir_.string());
  ASSERT_EQ(ckpts.size(), 2u);
  const auto& [newest_lsn, newest_path] = ckpts.back();
  write_bytes(newest_path,
              with_first_drive_duplicated(read_bytes(newest_path)));
  ASSERT_NO_THROW(load_checkpoint_file(newest_path));

  auto isolated = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride scope(*isolated);
  ScoringEngine engine(registry, durable);
  ASSERT_TRUE(engine.recovery().has_value());
  const RecoveryResult& recovered = *engine.recovery();
  EXPECT_TRUE(recovered.checkpoint_loaded);
  EXPECT_EQ(recovered.checkpoint_lsn, ckpts.front().first);
  EXPECT_EQ(recovered.checkpoints_skipped, 1u);
  EXPECT_EQ(isolated->counter("mfpa_ckpt_fallbacks_total").value(), 1u);
  EXPECT_EQ(engine.durable_resume_records(), newest_lsn);

  ReplayOptions resume;
  resume.skip_records = engine.durable_resume_records();
  const ReplayReport report = replayer.replay(engine, resume);
  EXPECT_EQ(alert_bytes(report.alerts), uninterrupted);
  EXPECT_DOUBLE_EQ(isolated->gauge("mfpa_store_drives_tracked").value(),
                   static_cast<double>(report.store.drives_tracked));
}

TEST_F(CheckpointTest, RefusesWhenEveryCheckpointIsCorrupt) {
  {
    DriveStateStore store(store_config());
    DurabilityManager manager(durability_config());
    manager.recover(store, 1);
    manager.finish_recovery(store, 1);
    feed(manager, store, 1, 4, 0);
    manager.checkpoint_now(store, 1);
  }
  for (const auto& [lsn, path] : list_checkpoints(dir_.string())) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(25);
    f.put('\x7f');
  }
  DriveStateStore store(store_config());
  DurabilityManager manager(durability_config());
  EXPECT_THROW(manager.recover(store, 1), std::runtime_error);
}

TEST_F(CheckpointTest, ModelVersionMismatchRefusesLoudly) {
  {
    DriveStateStore store(store_config());
    DurabilityManager manager(durability_config());
    manager.recover(store, 4);
    manager.finish_recovery(store, 4);
    feed(manager, store, 1, 3, 0);
    manager.checkpoint_now(store, 4);
  }
  DriveStateStore store(store_config());
  DurabilityManager manager(durability_config());
  EXPECT_THROW(manager.recover(store, 5), std::runtime_error);
}

TEST_F(CheckpointTest, WalOnlyStartReplaysEverything) {
  {
    // A writer that never checkpoints: the durable state is the WAL alone.
    WalWriterConfig config;
    config.dir = dir_.string();
    config.shards = 2;
    config.fsync = false;
    WalWriter writer(config);
    writer.open_generation(0);
    for (int i = 0; i < 9; ++i) {
      writer.append(static_cast<std::uint64_t>(i % 2 + 1), 0,
                    make_record(i / 2, 3.0f));
    }
    writer.flush();
  }
  DriveStateStore store(store_config());
  DurabilityManager manager(durability_config());
  const auto recovered = manager.recover(store, 1);
  EXPECT_FALSE(recovered.checkpoint_loaded);
  EXPECT_EQ(recovered.tail.size(), 9u);
  EXPECT_EQ(recovered.durable_records, 9u);
}

TEST_F(CheckpointTest, RetainsOnlyTwoNewestCheckpoints) {
  DriveStateStore store(store_config());
  DurabilityManager manager(durability_config());
  manager.recover(store, 1);
  manager.finish_recovery(store, 1);
  for (int round = 0; round < 5; ++round) {
    feed(manager, store, 1, 2, round * 2);
    manager.checkpoint_now(store, 1);
  }
  const auto ckpts = list_checkpoints(dir_.string());
  ASSERT_EQ(ckpts.size(), 2u);
  EXPECT_EQ(ckpts.back().first, manager.last_lsn());
}

TEST_F(CheckpointTest, AppendBeforeFinishRecoveryIsAContractViolation) {
  DriveStateStore store(store_config());
  DurabilityManager manager(durability_config());
  manager.recover(store, 1);
  EXPECT_THROW(manager.append(1, 0, make_record(0, 1.0f)), std::logic_error);
}

TEST_F(CheckpointTest, EmptyDirConfigIsRejected) {
  EXPECT_THROW(DurabilityManager{DurabilityConfig{}}, std::invalid_argument);
}

}  // namespace
}  // namespace mfpa::serve
