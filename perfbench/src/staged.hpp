// Staged replay: the traced run behind the per-layer ledger.
//
// Feeds an arrival sequence in the engine's batch size, on one thread,
// through the same public calls ScoringEngine::process_batch makes, in the
// same order — DurabilityManager::append, DriveStateStore::ingest,
// SampleBuilder::features_of, Classifier::predict_proba,
// DriveStateStore::should_alert (+ DurabilityManager::append_alert),
// DurabilityManager::on_batch_end — and records one span per stage per
// batch. Alerts do not depend on batch boundaries, so the staged alert
// stream must equal the engine's: the fidelity check that the ledger timed
// the same work.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "serve/checkpoint.hpp"
#include "serve/model_registry.hpp"
#include "serve/replay.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using Arrival = mfpa::serve::FleetReplayer::Arrival;

/// Nanoseconds since `epoch`.
inline std::int64_t ns_since(Clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

/// The six drain stages, in process_batch order (shares are taken over
/// these only, so other spans can share the ledger).
inline const std::vector<std::string>& drain_stages() {
  static const std::vector<std::string> kStages = {
      "wal", "store_ingest", "features", "predict", "alerts", "checkpoint"};
  return kStages;
}

struct StagedConfig {
  mfpa::serve::StoreConfig store;
  mfpa::core::AlertPolicy policy;
  std::size_t max_batch = 256;
  /// Durable root for the staged run; empty = durability off.
  mfpa::serve::DurabilityConfig durability;
};

struct StagedResult {
  std::vector<mfpa::core::Alert> alerts;
  std::uint64_t records = 0;
  std::uint64_t rows = 0;
  std::uint64_t batches = 0;
  std::uint64_t predict_calls = 0;
  std::uint64_t checkpoints = 0;       ///< written by the cadence + final seal
  std::uint64_t checkpoint_bytes = 0;  ///< their size on disk
  double wall_s = 0.0;
};

/// Replays `arrivals` through the staged calls, appending spans (batch ids
/// from `first_batch`) to `ledger`, timed against `epoch`.
StagedResult staged_replay(const std::vector<const Arrival*>& arrivals,
                           const mfpa::serve::ServedModel& model,
                           const StagedConfig& config, SpanLedger& ledger,
                           Clock::time_point epoch);

struct StagedRecovery {
  double load_ms = 0.0;    ///< DurabilityManager::recover
  double replay_ms = 0.0;  ///< WAL tail through ingest..alerts
  std::uint64_t tail_records = 0;
};

/// Recovers a crashed durable directory through the staged calls (the
/// engine constructor's sequence: recover, re-apply the tail without WAL
/// appends or checkpoint cadence, finish_recovery).
StagedRecovery staged_recovery(const mfpa::serve::ServedModel& model,
                               const StagedConfig& config, SpanLedger& ledger,
                               Clock::time_point epoch);

}  // namespace perfbench
