#include "serve/drive_state_store.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/wire.hpp"
#include "ml/parallel_for.hpp"

namespace mfpa::serve {

DriveStateStore::DriveStateStore(StoreConfig config) : config_(config) {
  const std::size_t n = ml::resolve_threads(config_.shards);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  auto& reg = obs::registry();
  metrics_.records_ingested = &reg.counter("mfpa_store_records_ingested_total");
  metrics_.rows_emitted = &reg.counter("mfpa_store_rows_emitted_total");
  metrics_.segments_restarted =
      &reg.counter("mfpa_store_segments_restarted_total");
  metrics_.drives_quarantined =
      &reg.counter("mfpa_store_drives_quarantined_total");
  metrics_.drives_tracked = &reg.gauge("mfpa_store_drives_tracked");
}

DriveStateStore::Shard& DriveStateStore::shard_for(
    std::uint64_t drive_id) const {
  // Fibonacci hash spreads sequential drive ids across stripes.
  return *shards_[drive_shard(drive_id, shards_.size())];
}

void DriveStateStore::ingest(std::uint64_t drive_id, int vendor,
                             const sim::DailyRecord& record,
                             std::vector<PendingRow>& out) {
  Shard& shard = shard_for(drive_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto [it, inserted] = shard.drives.try_emplace(
      drive_id, drive_id, vendor, config_.preprocess);
  if (inserted) metrics_.drives_tracked->add(1.0);
  DriveState& state = it->second;
  ++shard.records_ingested;
  metrics_.records_ingested->inc();
  state.ingestor.ingest(record);

  if (!state.quarantine_counted && state.ingestor.quarantined()) {
    state.quarantine_counted = true;
    metrics_.drives_quarantined->inc();
  }

  if (state.ingestor.segments_started() != state.segments_seen) {
    // Long gap cut the segment: the batch path would only ever see the new
    // segment, so emission restarts from zero. Alert hysteresis restarts
    // too, but NOT here — rows of the old segment may still be queued for
    // scoring, so the reset is carried on the emitted rows' `segment` tag
    // and applied by should_alert() when scoring crosses the boundary.
    state.segments_seen = state.ingestor.segments_started();
    state.emitted = 0;
    ++shard.segments_restarted;
    metrics_.segments_restarted->inc();
  }

  if (!state.ingestor.usable()) return;

  const auto& segment = state.ingestor.segment();
  if (segment.size() > state.emitted) {
    metrics_.rows_emitted->inc(segment.size() - state.emitted);
  }
  for (std::size_t i = state.emitted; i < segment.size(); ++i) {
    out.push_back({drive_id, vendor, segment[i], state.segments_seen});
    ++shard.rows_emitted;
  }
  state.emitted = segment.size();

  if (config_.max_records_per_drive > 0 &&
      segment.size() > config_.max_records_per_drive) {
    state.emitted -= state.ingestor.compact(config_.max_records_per_drive);
  }
}

bool DriveStateStore::should_alert(std::uint64_t drive_id, DayIndex day,
                                   int segment, bool crossed,
                                   const core::AlertPolicy& policy) {
  Shard& shard = shard_for(drive_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.drives.find(drive_id);
  if (it == shard.drives.end()) {
    throw std::logic_error("DriveStateStore: should_alert for unknown drive " +
                           std::to_string(drive_id));
  }
  DriveState& state = it->second;
  if (segment != state.alert_segment) {
    // First scored row of a new segment: hysteresis restarts exactly like
    // the batch path, which never saw the old segment.
    state.alert_segment = segment;
    state.consecutive = 0;
    state.last_alert = std::numeric_limits<DayIndex>::min();
  }
  if (!crossed) {
    state.consecutive = 0;
    return false;
  }
  ++state.consecutive;
  if (state.consecutive < policy.min_consecutive) return false;
  if (policy.cooldown_days > 0 &&
      state.last_alert > std::numeric_limits<DayIndex>::min() &&
      day - state.last_alert < policy.cooldown_days) {
    return false;
  }
  state.last_alert = day;
  return true;
}

namespace {

/// Per-drive header: id, vendor, emitted, segments_seen, quarantine flag,
/// consecutive, last_alert, alert_segment.
constexpr std::size_t kDriveHeaderBytes = 8 + 4 + 8 + 4 + 1 + 4 + 4 + 4;

}  // namespace

void DriveStateStore::save_state(std::string& out) const {
  std::size_t records_ingested = 0;
  std::size_t rows_emitted = 0;
  std::size_t segments_restarted = 0;
  std::vector<std::pair<std::uint64_t, const DriveState*>> ordered;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    records_ingested += shard->records_ingested;
    rows_emitted += shard->rows_emitted;
    segments_restarted += shard->segments_restarted;
    for (const auto& [id, state] : shard->drives) {
      ordered.emplace_back(id, &state);
    }
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  wire::put_u64(out, records_ingested);
  wire::put_u64(out, rows_emitted);
  wire::put_u64(out, segments_restarted);
  wire::put_u64(out, ordered.size());
  for (const auto& [id, state] : ordered) {
    wire::put_u64(out, id);
    wire::put_i32(out, state->ingestor.vendor());
    wire::put_u64(out, state->emitted);
    wire::put_i32(out, state->segments_seen);
    wire::put_u8(out, state->quarantine_counted ? 1 : 0);
    wire::put_i32(out, state->consecutive);
    wire::put_i32(out, state->last_alert);
    wire::put_i32(out, state->alert_segment);
    state->ingestor.encode(out);
  }
}

void DriveStateStore::load_state(std::string_view image) {
  wire::ByteReader r(image, "DriveStateStore image");
  const std::uint64_t records_ingested = r.u64();
  const std::uint64_t rows_emitted = r.u64();
  const std::uint64_t segments_restarted = r.u64();
  const std::uint64_t n = r.count(kDriveHeaderBytes);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (!shard->drives.empty()) {
      throw std::logic_error("DriveStateStore: load_state into non-empty store");
    }
    shard->records_ingested = 0;
    shard->rows_emitted = 0;
    shard->segments_restarted = 0;
  }
  // The checkpoint's shard layout is irrelevant: drives re-hash into this
  // store's stripes; the aggregate counters land on shard 0.
  shards_[0]->records_ingested = records_ingested;
  shards_[0]->rows_emitted = rows_emitted;
  shards_[0]->segments_restarted = segments_restarted;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t id = r.u64();
    const int vendor = r.i32();
    Shard& shard = shard_for(id);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto [it, inserted] =
        shard.drives.try_emplace(id, id, vendor, config_.preprocess);
    if (!inserted) {
      throw std::runtime_error("DriveStateStore: duplicate drive " +
                               std::to_string(id) + " in checkpoint");
    }
    DriveState& state = it->second;
    state.emitted = r.u64();
    state.segments_seen = r.i32();
    state.quarantine_counted = r.u8() != 0;
    state.consecutive = r.i32();
    state.last_alert = r.i32();
    state.alert_segment = r.i32();
    state.ingestor.decode(r);
    metrics_.drives_tracked->add(1.0);
  }
  r.expect_done();
}

StoreStats DriveStateStore::stats() const {
  StoreStats out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.drives_tracked += shard->drives.size();
    out.records_ingested += shard->records_ingested;
    out.rows_emitted += shard->rows_emitted;
    out.segments_restarted += shard->segments_restarted;
    for (const auto& [id, state] : shard->drives) {
      (void)id;
      if (state.ingestor.quarantined()) ++out.drives_quarantined;
      out.ingest.merge(state.ingestor.ingest_stats());
    }
  }
  return out;
}

}  // namespace mfpa::serve
