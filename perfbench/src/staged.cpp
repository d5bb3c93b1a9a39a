#include "staged.hpp"

#include <memory>
#include <stdexcept>

#include "data/matrix.hpp"
#include "obs/metrics.hpp"

namespace perfbench {
namespace {

namespace serve = mfpa::serve;

struct Item {
  std::uint64_t drive_id;
  int vendor;
  const mfpa::sim::DailyRecord* record;
};

/// One ScoringEngine::process_batch, as public calls. `recovering` skips
/// the WAL append and the checkpoint cadence, like the engine's recovery.
class StagedDrain {
 public:
  StagedDrain(const serve::ServedModel& model, const StagedConfig& config,
              serve::DriveStateStore& store, serve::DurabilityManager* durability,
              SpanLedger& ledger, Clock::time_point epoch)
      : model_(model),
        builder_(model.make_builder()),
        config_(config),
        store_(store),
        durability_(durability),
        ledger_(ledger),
        epoch_(epoch) {}

  void process(const std::vector<Item>& batch, bool recovering,
               StagedResult& out) {
    const std::uint64_t id = out.batches++;
    const int version = model_.manifest.version;
    if (durability_ != nullptr && !recovering) {
      const auto t0 = ns_since(epoch_);
      for (const auto& item : batch) {
        durability_->append(item.drive_id, item.vendor, *item.record);
      }
      ledger_.add({"wal", id, t0, ns_since(epoch_), batch.size()});
    }

    rows_.clear();
    auto t0 = ns_since(epoch_);
    for (const auto& item : batch) {
      try {
        store_.ingest(item.drive_id, item.vendor, *item.record, rows_);
      } catch (const std::invalid_argument&) {
        // Rejected, as the engine counts it; nothing to score.
      }
    }
    ledger_.add({"store_ingest", id, t0, ns_since(epoch_), batch.size()});
    out.records += batch.size();

    if (!rows_.empty()) {
      t0 = ns_since(epoch_);
      mfpa::data::Matrix X(0, 0);
      for (const auto& row : rows_) X.add_row(builder_.features_of(row.record));
      ledger_.add({"features", id, t0, ns_since(epoch_), rows_.size()});

      t0 = ns_since(epoch_);
      const std::vector<double> scores = model_.classifier->predict_proba(X);
      ledger_.add({"predict", id, t0, ns_since(epoch_), 1});
      ++out.predict_calls;

      t0 = ns_since(epoch_);
      for (std::size_t i = 0; i < rows_.size(); ++i) {
        const serve::PendingRow& row = rows_[i];
        const bool crossed = scores[i] >= model_.manifest.threshold;
        if (store_.should_alert(row.drive_id, row.record.day, row.segment,
                                crossed, config_.policy)) {
          const mfpa::core::Alert alert{row.drive_id, row.record.day, scores[i]};
          out.alerts.push_back(alert);
          if (durability_ != nullptr) durability_->append_alert(alert);
        }
      }
      ledger_.add({"alerts", id, t0, ns_since(epoch_), rows_.size()});
      out.rows += rows_.size();
    }

    if (durability_ != nullptr && !recovering) {
      t0 = ns_since(epoch_);
      durability_->on_batch_end(store_, version);
      ledger_.add({"checkpoint", id, t0, ns_since(epoch_), 1});
    }
  }

 private:
  const serve::ServedModel& model_;
  mfpa::core::SampleBuilder builder_;
  const StagedConfig& config_;
  serve::DriveStateStore& store_;
  serve::DurabilityManager* durability_;
  SpanLedger& ledger_;
  Clock::time_point epoch_;
  std::vector<serve::PendingRow> rows_;
};

/// Checkpoint instruments of the process registry (the DurabilityManager
/// exposes no per-instance count).
struct CheckpointCounters {
  std::uint64_t writes;
  std::uint64_t bytes;
  static CheckpointCounters read() {
    auto& reg = mfpa::obs::registry();
    return {reg.counter("mfpa_ckpt_writes_total").value(),
            reg.counter("mfpa_ckpt_bytes_total").value()};
  }
};

}  // namespace

StagedResult staged_replay(const std::vector<const Arrival*>& arrivals,
                           const serve::ServedModel& model,
                           const StagedConfig& config, SpanLedger& ledger,
                           Clock::time_point epoch) {
  StagedResult out;
  serve::DriveStateStore store(config.store);
  std::unique_ptr<serve::DurabilityManager> durability;
  const int version = model.manifest.version;
  if (config.durability.enabled()) {
    // The engine constructor's start-up on an empty directory.
    durability = std::make_unique<serve::DurabilityManager>(config.durability);
    durability->recover(store, version);
    durability->finish_recovery(store, version);
  }
  StagedDrain drain(model, config, store, durability.get(), ledger, epoch);
  const auto before = CheckpointCounters::read();
  const auto start = Clock::now();

  std::vector<Item> batch;
  batch.reserve(config.max_batch);
  for (const Arrival* a : arrivals) {
    batch.push_back({a->drive_id, a->vendor, a->record});
    if (batch.size() == config.max_batch) {
      drain.process(batch, false, out);
      batch.clear();
    }
  }
  if (!batch.empty()) drain.process(batch, false, out);
  if (durability) {
    // ScoringEngine::stop seals the durable state with a final checkpoint.
    const auto t0 = ns_since(epoch);
    durability->checkpoint_now(store, version);
    ledger.add({"checkpoint", out.batches, t0, ns_since(epoch), 1});
  }

  out.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  const auto after = CheckpointCounters::read();
  out.checkpoints = after.writes - before.writes;
  out.checkpoint_bytes = after.bytes - before.bytes;
  return out;
}

StagedRecovery staged_recovery(const serve::ServedModel& model,
                               const StagedConfig& config, SpanLedger& ledger,
                               Clock::time_point epoch) {
  if (!config.durability.enabled()) {
    throw std::invalid_argument("staged_recovery needs a durable directory");
  }
  StagedRecovery out;
  serve::DriveStateStore store(config.store);
  serve::DurabilityManager durability(config.durability);
  const int version = model.manifest.version;

  auto t0 = ns_since(epoch);
  serve::RecoveryResult recovered = durability.recover(store, version);
  auto t1 = ns_since(epoch);
  ledger.add({"recovery.load", 0, t0, t1, 1});
  out.load_ms = static_cast<double>(t1 - t0) / 1e6;
  out.tail_records = recovered.tail.size();

  // The tail's per-stage spans stay out of the ledger: its shares describe
  // the serving drain, not recovery.
  StagedResult replayed;
  SpanLedger tail_spans;
  StagedDrain drain(model, config, store, &durability, tail_spans, epoch);
  t0 = ns_since(epoch);
  std::vector<Item> batch;
  batch.reserve(config.max_batch);
  for (const serve::WalEntry& entry : recovered.tail) {
    batch.push_back({entry.drive_id, entry.vendor, &entry.record});
    if (batch.size() == config.max_batch) {
      drain.process(batch, true, replayed);
      batch.clear();
    }
  }
  if (!batch.empty()) drain.process(batch, true, replayed);
  t1 = ns_since(epoch);
  ledger.add({"recovery.replay", 0, t0, t1, recovered.tail.size()});
  out.replay_ms = static_cast<double>(t1 - t0) / 1e6;
  durability.finish_recovery(store, version);
  return out;
}

}  // namespace perfbench
