#include "core/streaming.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mfpa::core {

StreamingIngestor::StreamingIngestor(std::uint64_t drive_id, int vendor,
                                     PreprocessConfig config)
    : drive_id_(drive_id),
      vendor_(vendor),
      config_(config),
      sanitizer_(config.robustness) {
  auto& reg = obs::registry();
  metrics_.rows_real =
      &reg.counter("mfpa_stream_rows_total", {{"kind", "real"}});
  metrics_.rows_synthetic =
      &reg.counter("mfpa_stream_rows_total", {{"kind", "synthetic"}});
  metrics_.segments_restarted =
      &reg.counter("mfpa_stream_segments_restarted_total");
}

ProcessedRecord StreamingIngestor::convert(const sim::DailyRecord& raw) {
  // Mirrors the batch Preprocessor's to_processed exactly.
  ProcessedRecord rec;
  rec.day = raw.day;
  for (std::size_t a = 0; a < sim::kNumSmartAttrs; ++a) {
    rec.smart[a] = static_cast<double>(raw.smart[a]);
  }
  rec.firmware = firmware_version_string(vendor_, raw.firmware_index);
  for (std::size_t i = 0; i < sim::kNumWindowsEvents; ++i) {
    w_cum_[i] += static_cast<double>(raw.w[i]);
  }
  for (std::size_t i = 0; i < sim::kNumBsodCodes; ++i) {
    b_cum_[i] += static_cast<double>(raw.b[i]);
  }
  rec.w_cum = w_cum_;
  rec.b_cum = b_cum_;
  return rec;
}

std::vector<ProcessedRecord> StreamingIngestor::ingest(
    const sim::DailyRecord& raw) {
  // The sanitizer enforces the day-order contract (strict: throws; lenient:
  // idempotent duplicate / rollback drops) and repairs values; the gap
  // logic below then sees exactly what the batch Preprocessor would.
  std::optional<sim::DailyRecord> sanitized;
  try {
    sanitized = sanitizer_.sanitize(raw);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("StreamingIngestor: ") + e.what());
  }
  if (!sanitized.has_value()) return {};
  const sim::DailyRecord& record = *sanitized;

  std::vector<ProcessedRecord> produced;
  const bool first = !last_day_.has_value();
  const int gap = first ? 1 : record.day - *last_day_;
  last_day_ = record.day;

  if (!first && gap >= config_.drop_gap) {
    // Long gap: the accumulated segment is unusable going forward; start
    // fresh (counters included), exactly like the batch segment cut.
    segment_.clear();
    real_records_ = 0;
    w_cum_.fill(0.0);
    b_cum_.fill(0.0);
    ++segments_started_;
    metrics_.segments_restarted->inc();
  } else if (!first && gap >= 2 && gap <= config_.fill_gap &&
             !segment_.empty()) {
    const ProcessedRecord prev = segment_.back();
    ProcessedRecord next_actual = convert(record);
    for (int d = 1; d < gap; ++d) {
      const double t = static_cast<double>(d) / static_cast<double>(gap);
      ProcessedRecord fill;
      fill.day = prev.day + d;
      fill.synthetic = true;
      fill.firmware = prev.firmware;
      for (std::size_t a = 0; a < sim::kNumSmartAttrs; ++a) {
        fill.smart[a] = prev.smart[a] + t * (next_actual.smart[a] - prev.smart[a]);
      }
      for (std::size_t w = 0; w < sim::kNumWindowsEvents; ++w) {
        fill.w_cum[w] = prev.w_cum[w] + t * (next_actual.w_cum[w] - prev.w_cum[w]);
      }
      for (std::size_t b = 0; b < sim::kNumBsodCodes; ++b) {
        fill.b_cum[b] = prev.b_cum[b] + t * (next_actual.b_cum[b] - prev.b_cum[b]);
      }
      segment_.push_back(fill);
      produced.push_back(std::move(fill));
      metrics_.rows_synthetic->inc();
    }
    segment_.push_back(next_actual);
    ++real_records_;
    metrics_.rows_real->inc();
    produced.push_back(std::move(next_actual));
    return produced;
  }

  ProcessedRecord rec = convert(record);
  segment_.push_back(rec);
  ++real_records_;
  metrics_.rows_real->inc();
  produced.push_back(std::move(rec));
  return produced;
}

std::size_t StreamingIngestor::compact(std::size_t max_records) {
  max_records = std::max<std::size_t>(1, max_records);
  if (segment_.size() <= max_records) return 0;
  const std::size_t drop = segment_.size() - max_records;
  segment_.erase(segment_.begin(),
                 segment_.begin() + static_cast<std::ptrdiff_t>(drop));
  return drop;
}

bool StreamingIngestor::usable() const noexcept {
  return real_records_ >= static_cast<std::size_t>(config_.min_records) &&
         !quarantined();
}

bool StreamingIngestor::quarantined() const noexcept {
  return sanitizer_.quarantined(static_cast<std::size_t>(config_.min_records));
}

ProcessedDrive StreamingIngestor::snapshot() const {
  ProcessedDrive out;
  out.drive_id = drive_id_;
  out.vendor = vendor_;
  out.records = segment_;
  return out;
}

namespace {

/// Smallest encoded segment record: day, synthetic flag, firmware length
/// prefix and the three value arrays.
constexpr std::size_t kMinRecordBytes =
    4 + 1 + 4 +
    8 * (sim::kNumSmartAttrs + sim::kNumWindowsEvents + sim::kNumBsodCodes);

}  // namespace

void StreamingIngestor::encode(std::string& buf) const {
  sanitizer_.encode(buf);
  wire::put_u64(buf, real_records_);
  wire::put_i32(buf, segments_started_);
  wire::put_u8(buf, last_day_.has_value() ? 1 : 0);
  wire::put_i32(buf, last_day_.value_or(0));
  wire::put_f64s(buf, w_cum_);
  wire::put_f64s(buf, b_cum_);
  wire::put_u64(buf, segment_.size());
  for (const auto& rec : segment_) {
    wire::put_i32(buf, rec.day);
    wire::put_u8(buf, rec.synthetic ? 1 : 0);
    wire::put_str(buf, rec.firmware);
    wire::put_f64s(buf, rec.smart);
    wire::put_f64s(buf, rec.w_cum);
    wire::put_f64s(buf, rec.b_cum);
  }
}

void StreamingIngestor::decode(wire::ByteReader& r) {
  sanitizer_.decode(r);
  real_records_ = r.u64();
  segments_started_ = r.i32();
  const bool has_day = r.u8() != 0;
  const DayIndex day = r.i32();
  last_day_ = has_day ? std::optional<DayIndex>(day) : std::nullopt;
  r.f64s(w_cum_);
  r.f64s(b_cum_);
  const std::uint64_t n = r.count(kMinRecordBytes);
  segment_.clear();
  segment_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ProcessedRecord& rec = segment_.emplace_back();
    rec.day = r.i32();
    rec.synthetic = r.u8() != 0;
    rec.firmware = r.str();
    r.f64s(rec.smart);
    r.f64s(rec.w_cum);
    r.f64s(rec.b_cum);
  }
}

}  // namespace mfpa::core
