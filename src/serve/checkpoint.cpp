#include "serve/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/wire.hpp"

namespace mfpa::serve {
namespace fs = std::filesystem;

namespace {

fs::path ckpt_dir(const std::string& dir) { return fs::path(dir) / "ckpt"; }

std::string ckpt_name(std::uint64_t lsn) {
  return "ckpt-" + std::to_string(lsn) + ".mfc";
}

/// Parses "ckpt-42.mfc" -> 42; nullopt for other names.
std::optional<std::uint64_t> parse_ckpt_name(const std::string& name) {
  if (!name.starts_with("ckpt-") || !name.ends_with(".mfc")) {
    return std::nullopt;
  }
  try {
    std::size_t used = 0;
    const std::string digits = name.substr(5, name.size() - 9);
    const std::uint64_t lsn = std::stoull(digits, &used);
    if (used != digits.size()) return std::nullopt;
    return lsn;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

constexpr std::uint32_t kCheckpointMagic = 0x4B43464DU;  // "MFCK"
constexpr std::uint32_t kCheckpointVersion = 3;
constexpr std::uint32_t kCheckpointFrameMagic = 0x5343464DU;  // "MFCS"
constexpr std::size_t kFileHeaderBytes = 4 + 4;  // magic, version

void fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

std::size_t write_checkpoint_file(const std::string& path,
                                  const DriveStateStore& store,
                                  std::uint64_t lsn, std::uint64_t alert_count,
                                  int model_version, bool fsync) {
  std::string file;
  wire::put_u32(file, kCheckpointMagic);
  wire::put_u32(file, kCheckpointVersion);
  wire::append_frame(file, kCheckpointFrameMagic, lsn, [&](std::string& out) {
    wire::put_u64(out, alert_count);
    wire::put_i32(out, model_version);
    store.save_state(out);
  });

  const fs::path final_path(path);
  const fs::path tmp = final_path.parent_path() /
                       ("." + final_path.filename().string() + ".tmp");
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("checkpoint: cannot create " + tmp.string());
    }
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
    out.flush();
    if (!out) {
      throw std::runtime_error("checkpoint: write failed for " + tmp.string());
    }
  }
  if (fsync) fsync_path(tmp.string());
  std::error_code ec;
  fs::rename(tmp, final_path, ec);
  if (ec) {
    throw std::runtime_error("checkpoint: cannot publish " + path + ": " +
                             ec.message());
  }
  if (fsync) fsync_path(final_path.parent_path().string());
  return file.size();
}

CheckpointImage load_checkpoint_file(const std::string& path) {
  CheckpointImage image;
  {
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    if (!f) {
      throw std::runtime_error("checkpoint: cannot open " + path);
    }
    const std::streamoff size = f.tellg();
    if (size < 0) {
      throw std::runtime_error("checkpoint: cannot read " + path);
    }
    image.file.resize(static_cast<std::size_t>(size));
    f.seekg(0);
    if (!f.read(image.file.data(),
                static_cast<std::streamsize>(image.file.size()))) {
      throw std::runtime_error("checkpoint: cannot read " + path);
    }
  }
  const std::string_view bytes = image.file;
  if (bytes.starts_with("mfpa_ckpt ")) {
    throw std::runtime_error(
        "checkpoint: unsupported checkpoint version 1 (text) in " + path);
  }
  if (bytes.size() < kFileHeaderBytes) {
    throw std::runtime_error("checkpoint: truncated header in " + path);
  }
  wire::ByteReader header(bytes.substr(0, kFileHeaderBytes),
                          "checkpoint header");
  if (header.u32() != kCheckpointMagic) {
    throw std::runtime_error("checkpoint: bad magic in " + path);
  }
  const std::uint32_t version = header.u32();
  if (version != kCheckpointVersion) {
    throw std::runtime_error("checkpoint: unsupported checkpoint version " +
                             std::to_string(version) + " in " + path);
  }
  const std::string_view framed = bytes.substr(kFileHeaderBytes);
  wire::Frame frame;
  switch (wire::read_frame(framed, kCheckpointFrameMagic, 0xFFFFFFFFU, frame)) {
    case wire::FrameStatus::kOk:
      break;
    case wire::FrameStatus::kNeedMore:
      throw std::runtime_error("checkpoint: " + path +
                               " is shorter than its header declares");
    case wire::FrameStatus::kBadMagic:
      throw std::runtime_error("checkpoint: bad frame magic in " + path);
    case wire::FrameStatus::kOversized:  // no bound is set: unreachable
    case wire::FrameStatus::kBadChecksum:
      throw std::runtime_error("checkpoint: checksum mismatch in " + path);
  }
  if (frame.bytes != framed.size()) {
    throw std::runtime_error("checkpoint: " + path + " holds " +
                             std::to_string(framed.size() - frame.bytes) +
                             " bytes past its frame (trailing garbage)");
  }
  wire::ByteReader r(frame.payload, "checkpoint payload");
  image.lsn = frame.seq;
  image.alert_count = r.u64();
  image.model_version = r.i32();
  image.store_size = r.remaining();
  image.store_offset = kFileHeaderBytes + wire::kFrameHeaderBytes +
                       (frame.payload.size() - image.store_size);
  return image;
}

std::vector<std::pair<std::uint64_t, std::string>> list_checkpoints(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  const fs::path d = ckpt_dir(dir);
  if (!fs::exists(d)) return out;
  for (const auto& entry : fs::directory_iterator(d)) {
    const auto lsn = parse_ckpt_name(entry.path().filename().string());
    if (lsn.has_value()) out.emplace_back(*lsn, entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --- DurabilityManager -----------------------------------------------------

namespace {

/// Rejecting the empty dir here, before the member initializers run, keeps
/// WalWriter/AlertLog from creating stray `wal/` dirs relative to the cwd.
DurabilityConfig validated(DurabilityConfig config) {
  if (!config.enabled()) {
    throw std::invalid_argument("DurabilityManager: empty durable dir");
  }
  return config;
}

}  // namespace

DurabilityManager::DurabilityManager(DurabilityConfig config)
    : config_(validated(std::move(config))),
      wal_(WalWriterConfig{config_.dir, config_.wal_shards,
                           config_.group_commit_records, config_.fsync}),
      alerts_(config_.dir, config_.fsync) {
  fs::create_directories(ckpt_dir(config_.dir));
  auto& reg = obs::registry();
  metrics_.writes = &reg.counter("mfpa_ckpt_writes_total");
  metrics_.bytes = &reg.counter("mfpa_ckpt_bytes_total");
  metrics_.loads = &reg.counter("mfpa_ckpt_loads_total");
  metrics_.fallbacks = &reg.counter("mfpa_ckpt_fallbacks_total");
  metrics_.pruned = &reg.counter("mfpa_ckpt_pruned_total");
  metrics_.last_lsn = &reg.gauge("mfpa_ckpt_last_lsn");
  // ~4 ms bins: a checkpoint of the `small` fleet takes tens of ms.
  metrics_.write_seconds =
      &reg.histogram("mfpa_ckpt_write_seconds", 0.0, 2.0, 512);
}

RecoveryResult DurabilityManager::recover(DriveStateStore& store,
                                          int current_model_version) {
  RecoveryResult result;

  // A crash mid-publish leaves a dot-temp behind; it was never the durable
  // truth, so clear it before selecting a checkpoint.
  for (const auto& entry : fs::directory_iterator(ckpt_dir(config_.dir))) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with(".") && name.ends_with(".tmp")) {
      fs::remove(entry.path());
    }
  }

  auto candidates = list_checkpoints(config_.dir);
  std::optional<CheckpointImage> image;
  std::string failure;
  // A corrupt newest checkpoint falls back one generation (the WAL keeps
  // segments that far); anything beyond that is unrecoverable below.
  const auto skip = [&](const std::exception& e) {
    ++result.checkpoints_skipped;
    metrics_.fallbacks->inc();
    if (failure.empty()) failure = e.what();
  };
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    CheckpointImage candidate;
    try {
      candidate = load_checkpoint_file(it->second);
    } catch (const std::exception& e) {
      skip(e);
      continue;
    }
    if (candidate.model_version != current_model_version) {
      throw std::runtime_error(
          "checkpoint: pinned to model version " +
          std::to_string(candidate.model_version) +
          " but the registry's current version is " +
          std::to_string(current_model_version) +
          "; replaying under a different model would fabricate alerts");
    }
    try {
      // All or nothing: a rejected image leaves the store empty for the
      // next candidate. (A non-empty store is a logic_error and escapes.)
      store.load_state(candidate.store_state());
    } catch (const std::runtime_error& e) {
      skip(e);
      continue;
    }
    image = std::move(candidate);
    break;
  }
  if (!image.has_value() && !candidates.empty()) {
    throw std::runtime_error(
        "checkpoint: no valid checkpoint among " +
        std::to_string(candidates.size()) +
        " candidates; refusing to rebuild state over a hole (first error: " +
        failure + ")");
  }

  std::uint64_t after_lsn = 0;
  std::uint64_t durable_alerts = 0;
  if (image.has_value()) {
    result.checkpoint_loaded = true;
    result.checkpoint_lsn = image->lsn;
    result.model_version = image->model_version;
    after_lsn = image->lsn;
    durable_alerts = image->alert_count;
    metrics_.loads->inc();
  }

  result.alerts = recover_alert_log(config_.dir, durable_alerts);
  alerts_.open(durable_alerts);
  result.tail = recover_wal(config_.dir, after_lsn, &result.wal);
  result.durable_records = after_lsn + result.tail.size();
  wal_.set_next_lsn(result.durable_records + 1);
  last_checkpoint_lsn_ = after_lsn;
  prev_checkpoint_lsn_ = after_lsn;
  return result;
}

void DurabilityManager::finish_recovery(const DriveStateStore& store,
                                        int model_version) {
  // Seal the replayed state: checkpoint it, then restart the WAL from a
  // clean generation (the old segments are fully covered by the snapshot).
  alerts_.flush();
  const std::uint64_t lsn = wal_.last_lsn();
  write_checkpoint(store, lsn, model_version);
  prev_checkpoint_lsn_ = last_checkpoint_lsn_;
  last_checkpoint_lsn_ = lsn;
  wal_.reset(lsn);
  prune_checkpoints();
  records_since_checkpoint_ = 0;
  recovered_ = true;
}

std::uint64_t DurabilityManager::append(std::uint64_t drive_id, int vendor,
                                        const sim::DailyRecord& record) {
  if (!recovered_) {
    throw std::logic_error("DurabilityManager: append before finish_recovery");
  }
  ++records_since_checkpoint_;
  return wal_.append(drive_id, vendor, record);
}

void DurabilityManager::append_alert(const core::Alert& alert) {
  alerts_.append(alert);
}

void DurabilityManager::on_batch_end(const DriveStateStore& store,
                                     int model_version) {
  if (config_.checkpoint_interval_records > 0 &&
      records_since_checkpoint_ >= config_.checkpoint_interval_records) {
    checkpoint_now(store, model_version);
  }
}

void DurabilityManager::checkpoint_now(const DriveStateStore& store,
                                       int model_version) {
  // Everything appended so far must be durable before the snapshot claims
  // to cover it (WAL-then-checkpoint ordering).
  wal_.flush();
  alerts_.flush();
  const std::uint64_t lsn = wal_.last_lsn();
  write_checkpoint(store, lsn, model_version);
  if (lsn != last_checkpoint_lsn_) {
    prev_checkpoint_lsn_ = last_checkpoint_lsn_;
    last_checkpoint_lsn_ = lsn;
  }
  // Keep WAL generations back to the fallback checkpoint, no further.
  wal_.rotate(lsn, prev_checkpoint_lsn_);
  prune_checkpoints();
  records_since_checkpoint_ = 0;
}

void DurabilityManager::write_checkpoint(const DriveStateStore& store,
                                         std::uint64_t lsn,
                                         int model_version) {
  std::size_t bytes = 0;
  {
    obs::ScopedTimer timer(*metrics_.write_seconds);
    bytes = write_checkpoint_file(
        (ckpt_dir(config_.dir) / ckpt_name(lsn)).string(), store, lsn,
        alerts_.count(), model_version, config_.fsync);
  }
  metrics_.writes->inc();
  metrics_.bytes->inc(bytes);
  metrics_.last_lsn->set(static_cast<double>(lsn));
}

void DurabilityManager::flush() {
  wal_.flush();
  alerts_.flush();
}

void DurabilityManager::prune_checkpoints() {
  auto checkpoints = list_checkpoints(config_.dir);
  if (checkpoints.size() <= 2) return;
  for (std::size_t i = 0; i + 2 < checkpoints.size(); ++i) {
    fs::remove(checkpoints[i].second);
    metrics_.pruned->inc();
  }
}

}  // namespace mfpa::serve
