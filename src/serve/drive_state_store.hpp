// Shard-per-core, lock-striped store of per-drive incremental state.
//
// The batch Preprocessor recomputes a drive's cleaned history from scratch;
// at fleet scale the scoring service instead keeps one StreamingIngestor per
// drive (cumulative WindowsEvent/BSOD counters, short-gap fill, long-gap
// cut, lenient-mode sanitation) so the features for a newly arrived record
// cost O(window), not O(history). Drives hash onto independently locked
// shards, so concurrent ingest for different drives contends only when two
// drives share a stripe; per-drive delivery order is the caller's contract
// (the ScoringEngine's single drain loop preserves queue order).
//
// Emission contract (what keeps the service's alerts equal to the batch
// MfpaPipeline + OnlinePredictor replay): a drive's records are withheld
// until its current segment is usable (min_records real observations, not
// quarantined) and then emitted in order — the catch-up burst first, every
// subsequent cleaned record (synthetic gap-fills included) as it arrives. A
// long gap starts a fresh segment: emission state and alert hysteresis reset
// exactly like the batch path, which would never have seen the old segment.
//
// Retention: served rows are flat (one record each) and are copied into
// PendingRow when emitted, and gap filling reads only the newest record, so
// once a usable drive's rows are out its segment is compacted to that one
// record, the gap-fill anchor. Records of a segment that is not yet usable
// are withheld and kept until it becomes usable.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/online_predictor.hpp"
#include "core/preprocess.hpp"
#include "core/streaming.hpp"
#include "obs/metrics.hpp"
#include "sim/telemetry.hpp"

namespace mfpa::serve {

/// Shard index for a drive id under `shards` shards. The Fibonacci-hash
/// spread is shared by the store's lock stripes, the WAL's per-shard
/// segment files, and the net-layer ShardRouter, so "one drive, one shard"
/// holds across all three layers by construction.
inline std::size_t drive_shard(std::uint64_t drive_id,
                               std::size_t shards) noexcept {
  return static_cast<std::size_t>((drive_id * 0x9E3779B97F4A7C15ULL) % shards);
}

struct StoreConfig {
  core::PreprocessConfig preprocess;
  /// Lock stripes; 0 = one per hardware core.
  std::size_t shards = 0;
};

/// One cleaned record ready for feature extraction + scoring.
struct PendingRow {
  std::uint64_t drive_id = 0;
  int vendor = 0;
  core::ProcessedRecord record;
  /// Segment generation the row belongs to. Alert hysteresis resets when a
  /// drive's scored rows cross into a new segment — carried on the row (not
  /// applied at ingest time) so the reset lands between the right two
  /// *scored* rows even when ingestion runs ahead of scoring within a
  /// micro-batch.
  int segment = 0;
};

/// Aggregate store accounting (snapshot).
struct StoreStats {
  std::size_t drives_tracked = 0;
  std::size_t drives_quarantined = 0;
  std::size_t records_ingested = 0;   ///< raw records fed in
  std::size_t rows_emitted = 0;       ///< cleaned rows handed to scoring
  std::size_t segments_restarted = 0; ///< long-gap cuts across the fleet
  IngestStats ingest;                 ///< merged sanitizer accounting
};

class DriveStateStore {
 public:
  explicit DriveStateStore(StoreConfig config);
  /// Takes the drives this store tracked off `mfpa_store_drives_tracked`.
  ~DriveStateStore();
  DriveStateStore(const DriveStateStore&) = delete;
  DriveStateStore& operator=(const DriveStateStore&) = delete;

  const StoreConfig& config() const noexcept { return config_; }
  std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Feeds one raw record, appending any rows that became ready for scoring
  /// to `out` (in per-drive day order). Strict mode propagates the
  /// sanitizer's std::invalid_argument on day-order violations; lenient mode
  /// absorbs them into the drive's ingest accounting.
  void ingest(std::uint64_t drive_id, int vendor,
              const sim::DailyRecord& record, std::vector<PendingRow>& out);

  /// Applies the alert policy (consecutive-crossing hysteresis + cooldown)
  /// for one scored row, mirroring OnlinePredictor's state machine. Must be
  /// called in the same order rows were emitted, with each row's `segment`;
  /// a segment change resets the hysteresis exactly like the batch path
  /// restarting on the new segment. Returns true when an alert should be
  /// raised.
  bool should_alert(std::uint64_t drive_id, DayIndex day, int segment,
                    bool crossed, const core::AlertPolicy& policy);

  /// Merged accounting across all shards (takes every stripe briefly).
  StoreStats stats() const;

  /// Appends every tracked drive's full state (ingestor, emission cursor,
  /// alert hysteresis) plus the aggregate counters to `out` as one binary
  /// little-endian image (common/wire.hpp), drives ordered by id so the
  /// image is deterministic regardless of shard count or hash-map
  /// iteration order. load_state() rebuilds the fleet into the *current*
  /// shard layout (aggregate counters land on shard 0), so a checkpoint
  /// taken with N shards restores correctly under M; it decodes straight
  /// from the caller's bytes, checks every count and length against the
  /// bytes left before allocating, and throws std::runtime_error on a
  /// malformed image or a duplicate drive, leaving the store empty (and
  /// `mfpa_store_drives_tracked` as it was). Not thread-safe against
  /// concurrent ingest — call from the single drain thread or before start.
  void save_state(std::string& out) const;
  void load_state(std::string_view image);

 private:
  struct DriveState {
    explicit DriveState(std::uint64_t id, int vendor,
                        const core::PreprocessConfig& config)
        : ingestor(id, vendor, config) {}
    core::StreamingIngestor ingestor;
    std::size_t emitted = 0;  ///< segment records already handed out
    int segments_seen = 0;
    bool quarantine_counted = false;  ///< metrics: transition seen
    // Alert-policy state (OnlinePredictor's loop variables, kept per drive).
    // `alert_segment` is the segment generation the state belongs to — it
    // trails `segments_seen` while already-emitted rows of the old segment
    // are still being scored, which is why the reset cannot happen at
    // ingest time (it would be batch-boundary dependent).
    int consecutive = 0;
    DayIndex last_alert = std::numeric_limits<DayIndex>::min();
    int alert_segment = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, DriveState> drives;
    std::size_t records_ingested = 0;
    std::size_t rows_emitted = 0;
    std::size_t segments_restarted = 0;
  };

  StoreConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Fleet-level registry instruments (mfpa_store_*). The per-shard counters
  // above stay authoritative for StoreStats (per-store accounting); these
  // mirror the same events into the process-wide registry for exporters.
  struct Metrics {
    obs::Counter* records_ingested = nullptr;
    obs::Counter* rows_emitted = nullptr;
    obs::Counter* segments_restarted = nullptr;
    obs::Counter* drives_quarantined = nullptr;
    obs::Gauge* drives_tracked = nullptr;
  };
  Metrics metrics_;

  Shard& shard_for(std::uint64_t drive_id) const;
};

}  // namespace mfpa::serve
