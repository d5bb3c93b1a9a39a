#include "core/robust_ingest.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace mfpa::core {
namespace {

/// A SMART float at/above this is a saturated/overflowed upload, not data
/// (the largest legitimate counter in the catalog is orders of magnitude
/// smaller).
constexpr float kSaturationThreshold = 1e30f;

bool bad_smart_value(float v) noexcept {
  return !std::isfinite(v) || v < 0.0f || v >= kSaturationThreshold;
}

}  // namespace

const std::array<sim::SmartAttr, 6>& monotone_smart_attrs() noexcept {
  static const std::array<sim::SmartAttr, 6> kAttrs = {
      sim::SmartAttr::kPowerOnHours,  sim::SmartAttr::kPowerCycles,
      sim::SmartAttr::kDataUnitsRead, sim::SmartAttr::kDataUnitsWritten,
      sim::SmartAttr::kMediaErrors,   sim::SmartAttr::kErrorLogEntries,
  };
  return kAttrs;
}

RecordSanitizer::RecordSanitizer(RobustnessConfig config) : config_(config) {
  auto& reg = obs::registry();
  metrics_.records = &reg.counter("mfpa_ingest_records_total");
  metrics_.rows_repaired = &reg.counter("mfpa_ingest_rows_repaired_total");
  metrics_.rows_dropped = &reg.counter("mfpa_ingest_rows_dropped_total");
  metrics_.duplicate_days =
      &reg.counter("mfpa_ingest_faults_total", {{"cause", "duplicate_day"}});
  metrics_.clock_rollbacks =
      &reg.counter("mfpa_ingest_faults_total", {{"cause", "clock_rollback"}});
  metrics_.counter_resets = &reg.counter(
      "mfpa_ingest_faults_total", {{"cause", "counter_reset_rebased"}});
  metrics_.values_repaired =
      &reg.counter("mfpa_ingest_faults_total", {{"cause", "value_repaired"}});
}

void RecordSanitizer::reset() {
  stats_ = IngestStats{};
  last_day_.reset();
  last_raw_.fill(0.0f);
  rebase_offset_.fill(0.0);
  last_good_.fill(0.0f);
}

bool RecordSanitizer::quarantined(std::size_t min_delivered) const noexcept {
  return config_.lenient() && stats_.rows_read >= min_delivered &&
         static_cast<double>(stats_.rows_dropped) >
             config_.quarantine_bad_fraction *
                 static_cast<double>(stats_.rows_read);
}

std::optional<sim::DailyRecord> RecordSanitizer::sanitize(
    const sim::DailyRecord& raw) {
  ++stats_.rows_read;
  metrics_.records->inc();

  // Day-order policy. Strict keeps the historical fail-fast contract;
  // lenient treats a re-delivered day as an idempotent retry and a rollback
  // as clock skew, dropping the record either way.
  if (last_day_.has_value() && raw.day <= *last_day_) {
    if (!config_.lenient()) {
      throw std::invalid_argument(
          "records must arrive in strictly increasing day order (day " +
          std::to_string(raw.day) + " after day " + std::to_string(*last_day_) +
          ")");
    }
    ++stats_.rows_dropped;
    metrics_.rows_dropped->inc();
    if (raw.day == *last_day_) {
      ++stats_.duplicate_days;
      metrics_.duplicate_days->inc();
      stats_.note("day " + std::to_string(raw.day) + ": duplicate upload",
                  config_.max_diagnostics);
    } else {
      ++stats_.clock_rollbacks;
      metrics_.clock_rollbacks->inc();
      stats_.note("day " + std::to_string(raw.day) + ": clock rollback past " +
                      std::to_string(*last_day_),
                  config_.max_diagnostics);
    }
    return std::nullopt;
  }
  last_day_ = raw.day;
  if (!config_.lenient()) return raw;

  sim::DailyRecord rec = raw;
  const std::size_t values_before = stats_.values_repaired;
  bool repaired = false;

  // Monotone counters first: re-base resets on the raw scale, then repair
  // garbage on the effective scale so output stays monotone.
  std::array<bool, sim::kNumSmartAttrs> handled{};
  if (config_.rebase_counter_resets) {
    const auto& monotone = monotone_smart_attrs();
    for (std::size_t m = 0; m < monotone.size(); ++m) {
      const auto a = static_cast<std::size_t>(monotone[m]);
      handled[a] = true;
      float& v = rec.smart[a];
      if (config_.repair_bad_values && bad_smart_value(v)) {
        v = last_good_[a];
        ++stats_.values_repaired;
        repaired = true;
        continue;  // a garbage value must not shift the re-basing state
      }
      if (v + 1e-3f < last_raw_[m]) {
        // Counter restarted (firmware update / controller reset): carry the
        // pre-reset total forward so deltas stay meaningful.
        rebase_offset_[m] += static_cast<double>(last_raw_[m]);
        ++stats_.counter_resets_rebased;
        metrics_.counter_resets->inc();
        stats_.note("day " + std::to_string(rec.day) + ": counter reset (" +
                        sim::smart_attr_names()[a] + " " +
                        std::to_string(last_raw_[m]) + " -> " +
                        std::to_string(v) + "), re-based",
                    config_.max_diagnostics);
        repaired = true;
      }
      last_raw_[m] = v;
      v = static_cast<float>(static_cast<double>(v) + rebase_offset_[m]);
      last_good_[a] = v;
    }
  }

  if (config_.repair_bad_values) {
    for (std::size_t a = 0; a < sim::kNumSmartAttrs; ++a) {
      if (handled[a]) continue;
      float& v = rec.smart[a];
      if (bad_smart_value(v)) {
        v = last_good_[a];
        ++stats_.values_repaired;
        repaired = true;
      } else {
        last_good_[a] = v;
      }
    }
    // Saturated daily event counts are transport artifacts, not activity:
    // zero them rather than pollute the cumulative W/B features.
    for (auto& v : rec.w) {
      if (v == std::numeric_limits<std::uint16_t>::max()) {
        v = 0;
        ++stats_.values_repaired;
        repaired = true;
      }
    }
    for (auto& v : rec.b) {
      if (v == std::numeric_limits<std::uint16_t>::max()) {
        v = 0;
        ++stats_.values_repaired;
        repaired = true;
      }
    }
  }

  metrics_.values_repaired->inc(stats_.values_repaired - values_before);
  if (repaired) {
    ++stats_.rows_repaired;
    metrics_.rows_repaired->inc();
  }
  return rec;
}

void RecordSanitizer::encode(std::string& buf) const {
  stats_.encode(buf);
  wire::put_u8(buf, last_day_.has_value() ? 1 : 0);
  wire::put_i32(buf, last_day_.value_or(0));
  for (const float v : last_raw_) wire::put_f32(buf, v);
  wire::put_f64s(buf, rebase_offset_);
  for (const float v : last_good_) wire::put_f32(buf, v);
}

void RecordSanitizer::decode(wire::ByteReader& r) {
  stats_.decode(r);
  const bool has_day = r.u8() != 0;
  const DayIndex day = r.i32();
  last_day_ = has_day ? std::optional<DayIndex>(day) : std::nullopt;
  for (float& v : last_raw_) v = r.f32();
  r.f64s(rebase_offset_);
  for (float& v : last_good_) v = r.f32();
}

}  // namespace mfpa::core
