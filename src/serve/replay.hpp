// Fleet replay: streams simulated telemetry through the ScoringEngine in
// arrival order (day by day, drive id within a day) the way a production
// ingestion tier would, measures sustained throughput and latency, and
// scores the resulting alert stream against the simulator's ground truth.
// Shared by the `serve-replay` CLI subcommand, perfbench, and the streaming
// example.
#pragma once

#include <csignal>
#include <cstddef>
#include <functional>
#include <vector>

#include "core/mfpa.hpp"
#include "core/online_predictor.hpp"
#include "serve/model_registry.hpp"
#include "serve/scoring_engine.hpp"
#include "sim/telemetry.hpp"

namespace mfpa::serve {

/// Everything the replay measured, ready for a table or a JSON bench row.
struct ReplayReport {
  double wall_seconds = 0.0;
  double records_per_sec = 0.0;   ///< submitted / wall_seconds
  std::size_t days_replayed = 0;
  std::size_t records_skipped = 0;   ///< resumed past (already durable)
  std::size_t records_submitted = 0; ///< submitted by this run
  bool interrupted = false;          ///< cancel flag stopped the feed early
  EngineStats engine;
  StoreStats store;
  std::vector<core::Alert> alerts;
  core::DriveLevelMetrics drives;  ///< vs simulator ground truth
};

/// Called at the start of each replay day (before that day's records are
/// submitted) — the hook hot-swap demos and mid-replay retraining use.
using DayHook = std::function<void(DayIndex day)>;

/// Knobs for a single replay pass.
struct ReplayOptions {
  DayHook on_day;
  /// Records of the deterministic arrival order to skip before submitting —
  /// a resuming process sets this to the engine's durable_resume_records()
  /// so the feed re-delivers exactly the not-yet-durable suffix.
  std::size_t skip_records = 0;
  /// Raise SIGKILL after submitting this many records (0 = never). The
  /// crash-recovery tests use this to die mid-stream deterministically,
  /// with no flush or destructor running — as close to power loss as a
  /// process can get.
  std::size_t kill_after_records = 0;
  /// Graceful-shutdown flag (a signal handler sets it): checked between
  /// submissions; when set the feed stops, the queue drains, and the
  /// report is marked interrupted.
  const volatile std::sig_atomic_t* cancel = nullptr;
};

/// Trains an MfpaPipeline on the given telemetry/tickets and publishes the
/// fitted model (classifier + firmware vocabulary + tuned threshold) to the
/// registry. Returns the published version.
int train_and_publish(ModelRegistry& registry, const core::MfpaConfig& config,
                      const std::vector<sim::DriveTimeSeries>& telemetry,
                      const std::vector<sim::TroubleTicket>& tickets);

class FleetReplayer {
 public:
  /// One record of the deterministic arrival order: day-major, drive id
  /// ascending within a day — the order a collection front end would see a
  /// fleet's daily uploads. Exposed so alternative feeds (the net layer's
  /// sharded replay, the loopback client driver) deliver the identical
  /// stream the single-engine replay does.
  struct Arrival {
    DayIndex day = 0;
    std::uint64_t drive_id = 0;
    int vendor = 0;
    const sim::DailyRecord* record = nullptr;
  };

  /// Borrows the telemetry (must outlive the replayer); flattens it into
  /// the deterministic arrival order once.
  explicit FleetReplayer(const std::vector<sim::DriveTimeSeries>& telemetry);

  const std::vector<Arrival>& arrivals() const noexcept { return order_; }
  const std::vector<sim::DriveTimeSeries>& telemetry() const noexcept {
    return *telemetry_;
  }

  std::size_t total_records() const noexcept { return order_.size(); }
  DayIndex first_day() const noexcept { return first_day_; }
  DayIndex last_day() const noexcept { return last_day_; }

  /// Streams every record through the engine at maximum rate, flushes, and
  /// snapshots the engine/store accounting. The engine's alert stream is
  /// evaluated drive-level against the simulator's failure flags.
  ReplayReport replay(ScoringEngine& engine, const DayHook& on_day = {}) const;

  /// Same, with resume / crash-injection / graceful-cancel knobs.
  ReplayReport replay(ScoringEngine& engine, const ReplayOptions& options) const;

  /// Drive-level verdicts for an alert stream against simulator truth: a
  /// failed drive is detected if it has any alert; a healthy drive with any
  /// alert is a false alarm.
  static core::DriveLevelMetrics drive_level(
      const std::vector<core::Alert>& alerts,
      const std::vector<sim::DriveTimeSeries>& telemetry);

 private:
  const std::vector<sim::DriveTimeSeries>* telemetry_;
  std::vector<Arrival> order_;
  DayIndex first_day_ = 0;
  DayIndex last_day_ = 0;
};

}  // namespace mfpa::serve
