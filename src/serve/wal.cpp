#include "serve/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/wire.hpp"
#include "serve/drive_state_store.hpp"

namespace mfpa::serve {
namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kMaxFramePayload = 1u << 24;  // sanity bound

/// The frame at `off`, or nullopt when the bytes there are not a complete,
/// checksum-valid WAL frame.
std::optional<DecodedFrame> try_frame_at(std::string_view bytes,
                                         std::size_t off) {
  wire::Frame frame;
  if (wire::read_frame(bytes.substr(off), kWalFrameMagic, kMaxFramePayload,
                       frame) != wire::FrameStatus::kOk) {
    return std::nullopt;
  }
  return DecodedFrame{frame.seq, frame.payload, off + frame.bytes};
}

std::vector<char> read_whole_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) {
    throw std::runtime_error("wal: cannot open " + path);
  }
  const std::streamoff size = f.tellg();
  std::vector<char> bytes(size > 0 ? static_cast<std::size_t>(size) : 0);
  f.seekg(0);
  if (size < 0 ||
      !f.read(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
    throw std::runtime_error("wal: cannot read " + path);
  }
  return bytes;
}

void fsync_fd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) {
    throw std::runtime_error("wal: fsync failed for " + path);
  }
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // best effort; the data fsync is the real barrier
  ::fsync(fd);
  ::close(fd);
}

std::string shard_segment_name(std::size_t shard, std::uint64_t base_lsn) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "shard-%03zu.c%llu.wal", shard,
                static_cast<unsigned long long>(base_lsn));
  return buf;
}

/// Parses "shard-012.c42.wal" -> (12, 42); nullopt for other names.
std::optional<std::pair<std::size_t, std::uint64_t>> parse_segment_name(
    const std::string& name) {
  if (!name.starts_with("shard-") || !name.ends_with(".wal")) {
    return std::nullopt;
  }
  const std::size_t dot = name.find(".c");
  if (dot == std::string::npos) return std::nullopt;
  try {
    const std::size_t shard = std::stoul(name.substr(6, dot - 6));
    const std::uint64_t base =
        std::stoull(name.substr(dot + 2, name.size() - 4 - (dot + 2)));
    return std::make_pair(shard, base);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

FrameScan scan_frames(const std::string& path) {
  FrameScan scan;
  scan.bytes = read_whole_file(path);
  const std::string_view bytes(scan.bytes.data(), scan.bytes.size());
  std::size_t off = 0;
  while (off < bytes.size()) {
    auto frame = try_frame_at(bytes, off);
    if (frame.has_value()) {
      off = frame->end_offset;
      scan.valid_bytes = off;
      scan.frames.push_back(*frame);
      continue;
    }
    // Corrupt or incomplete bytes at `off`. If any complete valid frame
    // exists later in the file, this is mid-stream corruption: refuse.
    for (std::size_t probe = off + 1; probe + 1 < bytes.size(); ++probe) {
      if (try_frame_at(bytes, probe).has_value()) {
        throw std::runtime_error(
            "wal: mid-stream corruption in " + path + " at byte " +
            std::to_string(off) + " (valid frame follows at byte " +
            std::to_string(probe) + "); refusing to recover past a hole");
      }
    }
    scan.torn_tail = true;
    scan.torn_bytes = bytes.size() - off;
    break;
  }
  return scan;
}

void append_wal_payload(std::string& buf, std::uint64_t drive_id, int vendor,
                        const sim::DailyRecord& record) {
  wire::put_u64(buf, drive_id);
  wire::put_i32(buf, vendor);
  wire::put_i32(buf, record.day);
  wire::put_u32(buf, record.firmware_index);
  wire::put_f32s(buf, record.smart);
  wire::put_u16s(buf, record.w);
  wire::put_u16s(buf, record.b);
}

WalEntry decode_wal_payload(std::uint64_t lsn, std::string_view payload) {
  wire::ByteReader r(payload, "wal record");
  WalEntry entry;
  entry.lsn = lsn;
  entry.drive_id = r.u64();
  entry.vendor = r.i32();
  entry.record.day = r.i32();
  entry.record.firmware_index = static_cast<std::uint8_t>(r.u32());
  for (auto& v : entry.record.smart) v = r.f32();
  for (auto& v : entry.record.w) v = r.u16();
  for (auto& v : entry.record.b) v = r.u16();
  r.expect_done();
  return entry;
}

void append_alert_payload(std::string& buf, const core::Alert& alert) {
  wire::put_u64(buf, alert.drive_id);
  wire::put_i32(buf, alert.day);
  wire::put_f64(buf, alert.score);
}

core::Alert decode_alert_payload(std::string_view payload) {
  wire::ByteReader r(payload, "alert record");
  core::Alert alert;
  alert.drive_id = r.u64();
  alert.day = r.i32();
  alert.score = r.f64();
  r.expect_done();
  return alert;
}

// --- WalWriter -------------------------------------------------------------

WalWriter::WalWriter(WalWriterConfig config) : config_(std::move(config)) {
  if (config_.shards == 0) config_.shards = 1;
  fs::create_directories(fs::path(config_.dir) / "wal");
  auto& reg = obs::registry();
  metrics_.appends = &reg.counter("mfpa_wal_appends_total");
  metrics_.bytes = &reg.counter("mfpa_wal_bytes_total");
  metrics_.fsyncs = &reg.counter("mfpa_wal_fsyncs_total");
  metrics_.rotations = &reg.counter("mfpa_wal_rotations_total");
}

WalWriter::~WalWriter() {
  try {
    flush();
  } catch (...) {
    // Destructor: nothing sane to do; the tail is torn, recovery handles it.
  }
  close_segments();
}

void WalWriter::close_segments() {
  for (auto& seg : segments_) {
    if (seg.fd >= 0) ::close(seg.fd);
  }
  segments_.clear();
}

void WalWriter::open_generation(std::uint64_t base_lsn) {
  close_segments();
  generation_ = base_lsn;
  const fs::path wal_dir = fs::path(config_.dir) / "wal";
  segments_.resize(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    Segment& seg = segments_[s];
    seg.path = (wal_dir / shard_segment_name(s, base_lsn)).string();
    seg.fd = ::open(seg.path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (seg.fd < 0) {
      throw std::runtime_error("wal: cannot create segment " + seg.path);
    }
  }
  sync_wal_dir();
}

std::uint64_t WalWriter::append(std::uint64_t drive_id, int vendor,
                                const sim::DailyRecord& record) {
  if (segments_.empty()) {
    throw std::logic_error("WalWriter: append before open_generation");
  }
  const std::uint64_t lsn = next_lsn_++;
  // Same Fibonacci spread as DriveStateStore's lock stripes — one drive's
  // records stay within one segment file.
  Segment& seg = segments_[drive_shard(drive_id, segments_.size())];
  const std::size_t before = seg.pending.size();
  wire::append_frame(seg.pending, kWalFrameMagic, lsn, [&](std::string& buf) {
    append_wal_payload(buf, drive_id, vendor, record);
  });
  metrics_.appends->inc();
  metrics_.bytes->inc(seg.pending.size() - before);
  ++unsynced_records_;
  if (config_.group_commit_records > 0 &&
      unsynced_records_ >= config_.group_commit_records) {
    flush();
  }
  return lsn;
}

void WalWriter::write_out(Segment& seg) {
  if (seg.pending.empty()) return;
  const char* data = seg.pending.data();
  std::size_t left = seg.pending.size();
  while (left > 0) {
    const ssize_t n = ::write(seg.fd, data, left);
    if (n < 0) {
      throw std::runtime_error("wal: write failed for " + seg.path);
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  seg.pending.clear();
  seg.dirty = true;
}

void WalWriter::flush() {
  for (auto& seg : segments_) {
    write_out(seg);
    if (seg.dirty && config_.fsync) {
      fsync_fd(seg.fd, seg.path);
      metrics_.fsyncs->inc();
    }
    seg.dirty = false;
  }
  unsynced_records_ = 0;
}

void WalWriter::rotate(std::uint64_t ckpt_lsn, std::uint64_t keep_from_lsn) {
  flush();
  open_generation(ckpt_lsn);
  const fs::path wal_dir = fs::path(config_.dir) / "wal";
  for (const auto& entry : fs::directory_iterator(wal_dir)) {
    const auto parsed = parse_segment_name(entry.path().filename().string());
    if (parsed.has_value() && parsed->second < keep_from_lsn) {
      fs::remove(entry.path());
    }
  }
  sync_wal_dir();
  metrics_.rotations->inc();
}

void WalWriter::sync_wal_dir() {
  if (!config_.fsync) return;
  fsync_dir((fs::path(config_.dir) / "wal").string());
  metrics_.fsyncs->inc();
}

void WalWriter::reset(std::uint64_t base_lsn) {
  close_segments();
  const fs::path wal_dir = fs::path(config_.dir) / "wal";
  if (fs::exists(wal_dir)) {
    for (const auto& entry : fs::directory_iterator(wal_dir)) {
      if (entry.path().extension() == ".wal") fs::remove(entry.path());
    }
  }
  next_lsn_ = base_lsn + 1;
  open_generation(base_lsn);
}

// --- recovery --------------------------------------------------------------

std::vector<WalEntry> recover_wal(const std::string& dir,
                                  std::uint64_t after_lsn,
                                  WalRecoveryStats* stats) {
  WalRecoveryStats local;
  WalRecoveryStats& st = stats ? *stats : local;
  const fs::path wal_dir = fs::path(dir) / "wal";

  // The segments' bytes stay in `scans` until the tail is decoded; the
  // merge only holds views into them.
  std::vector<FrameScan> scans;
  struct PendingFrame {
    std::uint64_t lsn;
    std::string_view payload;
  };
  std::vector<PendingFrame> merged;

  if (fs::exists(wal_dir)) {
    // Generations ascending, shards within a generation ascending, so the
    // in-file duplicate check below sees originals before replayed copies.
    std::vector<std::pair<std::pair<std::uint64_t, std::size_t>, std::string>>
        files;
    for (const auto& entry : fs::directory_iterator(wal_dir)) {
      const std::string name = entry.path().filename().string();
      const auto parsed = parse_segment_name(name);
      if (!parsed.has_value()) continue;
      files.push_back(
          {{parsed->second, parsed->first}, entry.path().string()});
    }
    std::sort(files.begin(), files.end());
    scans.reserve(files.size());

    // lsn -> payload of every frame accepted into the merge so far; an
    // in-file LSN regression is legal only as an exact replay of one of
    // these (a duplicated segment), never as new bytes.
    std::unordered_map<std::uint64_t, std::string_view> seen;
    for (const auto& [key, path] : files) {
      ++st.segments_scanned;
      const FrameScan& scan = scans.emplace_back(scan_frames(path));
      if (scan.torn_tail) ++st.torn_tails;
      std::uint64_t last_in_file = 0;
      bool any_in_file = false;
      for (const DecodedFrame& frame : scan.frames) {
        if (any_in_file && frame.lsn <= last_in_file) {
          const auto it = seen.find(frame.lsn);
          if (it == seen.end() || it->second != frame.payload) {
            throw std::runtime_error(
                "wal: LSN regression in " + path + " (lsn " +
                std::to_string(frame.lsn) + " after " +
                std::to_string(last_in_file) +
                " with novel bytes); refusing to recover");
          }
          ++st.records_skipped_duplicate;
          continue;
        }
        any_in_file = true;
        last_in_file = frame.lsn;
        const auto it = seen.find(frame.lsn);
        if (it != seen.end()) {
          if (it->second != frame.payload) {
            throw std::runtime_error(
                "wal: conflicting frames for lsn " + std::to_string(frame.lsn) +
                " (latest in " + path + "); refusing to recover");
          }
          ++st.records_skipped_duplicate;
          continue;
        }
        seen.emplace(frame.lsn, frame.payload);
        merged.push_back({frame.lsn, frame.payload});
      }
    }
  }

  std::sort(merged.begin(), merged.end(),
            [](const PendingFrame& a, const PendingFrame& b) {
              return a.lsn < b.lsn;
            });

  std::vector<WalEntry> tail;
  std::uint64_t expected = after_lsn + 1;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    const PendingFrame& frame = merged[i];
    if (frame.lsn <= after_lsn) {
      ++st.records_skipped_applied;
      continue;
    }
    if (frame.lsn != expected) {
      // A hole in the durable prefix: everything past it was never
      // acknowledged and will be re-delivered by the feed.
      st.records_skipped_gap = merged.size() - i;
      break;
    }
    tail.push_back(decode_wal_payload(frame.lsn, frame.payload));
    ++expected;
  }
  st.records_replayable = tail.size();

  auto& reg = obs::registry();
  reg.counter("mfpa_wal_recovery_replayed_total").inc(st.records_replayable);
  reg.counter("mfpa_wal_recovery_skipped_total")
      .inc(st.records_skipped_duplicate + st.records_skipped_gap);
  reg.counter("mfpa_wal_recovery_torn_tails_total").inc(st.torn_tails);
  return tail;
}

// --- AlertLog --------------------------------------------------------------

namespace {
std::string alert_log_path(const std::string& dir) {
  return (fs::path(dir) / "alerts.log").string();
}
}  // namespace

AlertLog::AlertLog(std::string dir, bool fsync)
    : dir_(std::move(dir)), fsync_(fsync) {
  fs::create_directories(dir_);
}

AlertLog::~AlertLog() {
  try {
    flush();
  } catch (...) {
  }
  if (fd_ >= 0) ::close(fd_);
}

void AlertLog::open(std::uint64_t count) {
  if (fd_ >= 0) ::close(fd_);
  const std::string path = alert_log_path(dir_);
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("wal: cannot open alert log " + path);
  }
  count_ = count;
}

void AlertLog::append(const core::Alert& alert) {
  if (fd_ < 0) throw std::logic_error("AlertLog: append before open");
  wire::append_frame(pending_, kWalFrameMagic, ++count_, [&](std::string& buf) {
    append_alert_payload(buf, alert);
  });
}

void AlertLog::flush() {
  if (fd_ < 0 || pending_.empty()) {
    return;
  }
  const char* data = pending_.data();
  std::size_t left = pending_.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, data, left);
    if (n < 0) {
      throw std::runtime_error("wal: write failed for alert log in " + dir_);
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  pending_.clear();
  if (fsync_) fsync_fd(fd_, alert_log_path(dir_));
}

std::vector<core::Alert> recover_alert_log(const std::string& dir,
                                           std::uint64_t durable_count) {
  const std::string path = alert_log_path(dir);
  if (!fs::exists(path)) {
    if (durable_count != 0) {
      throw std::runtime_error(
          "wal: alert log missing but checkpoint records " +
          std::to_string(durable_count) + " durable alerts (" + path + ")");
    }
    return {};
  }
  const FrameScan scan = scan_frames(path);
  if (scan.frames.size() < durable_count) {
    throw std::runtime_error(
        "wal: alert log " + path + " holds " +
        std::to_string(scan.frames.size()) + " alerts but the checkpoint " +
        "records " + std::to_string(durable_count) +
        " durable; the alert stream has a hole replay cannot patch");
  }
  std::vector<core::Alert> alerts;
  alerts.reserve(durable_count);
  std::size_t keep_bytes = 0;
  for (std::size_t i = 0; i < durable_count; ++i) {
    const DecodedFrame& frame = scan.frames[i];
    if (frame.lsn != i + 1) {
      throw std::runtime_error("wal: alert log " + path +
                               " ordinal mismatch at frame " +
                               std::to_string(i + 1));
    }
    alerts.push_back(decode_alert_payload(frame.payload));
    keep_bytes = frame.end_offset;
  }
  // Drop the post-checkpoint tail (torn or healthy): the WAL replay
  // regenerates those alerts and re-appends them.
  if (::truncate(path.c_str(), static_cast<off_t>(keep_bytes)) != 0) {
    throw std::runtime_error("wal: cannot truncate alert log " + path);
  }
  return alerts;
}

}  // namespace mfpa::serve
