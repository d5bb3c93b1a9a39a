#include "serve/drive_state_store.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/streaming.hpp"
#include "obs/metrics.hpp"
#include "sim/catalog.hpp"

namespace mfpa::serve {
namespace {

sim::DailyRecord raw_record(DayIndex day, float poh = 0.0f) {
  sim::DailyRecord r;
  r.day = day;
  r.smart[static_cast<std::size_t>(sim::SmartAttr::kPowerOnHours)] = poh;
  r.w[0] = 1;
  return r;
}

StoreConfig small_config(std::size_t shards = 2) {
  StoreConfig config;
  config.shards = shards;
  return config;
}

TEST(DriveStateStore, WithholdsRowsUntilSegmentUsable) {
  DriveStateStore store(small_config());
  std::vector<PendingRow> out;
  store.ingest(7, 0, raw_record(10), out);
  store.ingest(7, 0, raw_record(11), out);
  EXPECT_TRUE(out.empty());  // min_records = 3 not reached
  store.ingest(7, 0, raw_record(12), out);
  ASSERT_EQ(out.size(), 3u);  // catch-up burst, in day order
  EXPECT_EQ(out[0].record.day, 10);
  EXPECT_EQ(out[2].record.day, 12);
  EXPECT_EQ(out[0].drive_id, 7u);
}

TEST(DriveStateStore, EmitsIncrementallyAfterCatchUp) {
  DriveStateStore store(small_config());
  std::vector<PendingRow> out;
  for (DayIndex day = 10; day <= 12; ++day) store.ingest(7, 0, raw_record(day), out);
  out.clear();
  store.ingest(7, 0, raw_record(13), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].record.day, 13);
  EXPECT_FALSE(out[0].record.synthetic);
}

TEST(DriveStateStore, GapFillRowsAreEmitted) {
  DriveStateStore store(small_config());
  std::vector<PendingRow> out;
  for (DayIndex day = 10; day <= 12; ++day) store.ingest(7, 0, raw_record(day), out);
  out.clear();
  store.ingest(7, 0, raw_record(15), out);  // 2-day gap -> mean fill
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[0].record.synthetic);
  EXPECT_EQ(out[0].record.day, 13);
  EXPECT_TRUE(out[1].record.synthetic);
  EXPECT_FALSE(out[2].record.synthetic);
  EXPECT_EQ(out[2].record.day, 15);
}

TEST(DriveStateStore, LongGapRestartsSegmentAndEmission) {
  DriveStateStore store(small_config());
  std::vector<PendingRow> out;
  for (DayIndex day = 10; day <= 13; ++day) store.ingest(7, 0, raw_record(day), out);
  out.clear();
  // >= drop_gap days of silence: the batch path would discard the old
  // segment, so the store must restart emission from scratch.
  store.ingest(7, 0, raw_record(40), out);
  store.ingest(7, 0, raw_record(41), out);
  EXPECT_TRUE(out.empty());
  store.ingest(7, 0, raw_record(42), out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].record.day, 40);
  EXPECT_EQ(store.stats().segments_restarted, 1u);
}

TEST(DriveStateStore, CumulativeCountersSurviveCompaction) {
  DriveStateStore store(small_config());
  std::vector<PendingRow> out;
  for (DayIndex day = 10; day < 40; ++day) store.ingest(7, 0, raw_record(day), out);
  // Every raw record emitted exactly once although the store retains only
  // the newest record after each emission.
  ASSERT_EQ(out.size(), 30u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].record.day, 10 + static_cast<DayIndex>(i));
    // w[0] = 1 every day, so the cumulative counter keeps climbing across
    // compactions.
    EXPECT_DOUBLE_EQ(out[i].record.w_cum[0], static_cast<double>(i + 1));
  }
}

TEST(DriveStateStore, EmitsWhatAnUncompactedIngestorProduces) {
  // 30 days with 2- and 3-day gaps (both filled): the store compacts to the
  // gap-fill anchor after every emission, yet its rows are exactly what an
  // ingestor that keeps its whole segment produces.
  DriveStateStore store(small_config());
  core::StreamingIngestor reference(7, 1);
  std::vector<PendingRow> out;
  std::vector<core::ProcessedRecord> expected;
  for (DayIndex day = 10; day < 40; ++day) {
    if (day % 7 == 3 || day % 11 == 5 || day % 11 == 6) continue;
    const sim::DailyRecord raw = raw_record(day, 100.0f + 3.0f * day);
    store.ingest(7, 1, raw, out);
    const auto produced = reference.ingest(raw);
    expected.insert(expected.end(), produced.begin(), produced.end());
  }
  ASSERT_EQ(reference.segment().size(), expected.size());
  ASSERT_EQ(out.size(), expected.size());
  std::size_t synthetic = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const core::ProcessedRecord& got = out[i].record;
    EXPECT_EQ(out[i].drive_id, 7u);
    EXPECT_EQ(out[i].vendor, 1);
    EXPECT_EQ(got.day, expected[i].day) << i;
    EXPECT_EQ(got.synthetic, expected[i].synthetic) << i;
    EXPECT_EQ(got.firmware, expected[i].firmware) << i;
    EXPECT_EQ(got.smart, expected[i].smart) << i;
    EXPECT_EQ(got.w_cum, expected[i].w_cum) << i;
    EXPECT_EQ(got.b_cum, expected[i].b_cum) << i;
    if (got.synthetic) ++synthetic;
  }
  EXPECT_GE(synthetic, 4u);  // both gap lengths were filled
}

TEST(DriveStateStore, DrivesTrackedGaugeFollowsLiveStores) {
  auto isolated = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride scope(*isolated);
  obs::Gauge& tracked = isolated->gauge("mfpa_store_drives_tracked");
  std::string image;
  {
    DriveStateStore store(small_config());
    std::vector<PendingRow> out;
    for (std::uint64_t drive = 0; drive < 5; ++drive) {
      store.ingest(drive, 0, raw_record(10), out);
      EXPECT_DOUBLE_EQ(tracked.value(),
                       static_cast<double>(store.stats().drives_tracked));
    }
    store.ingest(3, 0, raw_record(11), out);  // a known drive adds nothing
    EXPECT_DOUBLE_EQ(tracked.value(), 5.0);
    store.save_state(image);
  }
  EXPECT_DOUBLE_EQ(tracked.value(), 0.0);
  {
    // An in-process restart: a second store restores the first one's drives.
    DriveStateStore restored(small_config());
    restored.load_state(image);
    EXPECT_DOUBLE_EQ(tracked.value(),
                     static_cast<double>(restored.stats().drives_tracked));
    EXPECT_DOUBLE_EQ(tracked.value(), 5.0);
  }
  EXPECT_DOUBLE_EQ(tracked.value(), 0.0);
}

TEST(DriveStateStore, ShardsAreIndependent) {
  DriveStateStore store(small_config(4));
  EXPECT_EQ(store.shard_count(), 4u);
  std::vector<PendingRow> out;
  for (std::uint64_t drive = 0; drive < 32; ++drive) {
    for (DayIndex day = 10; day <= 12; ++day) {
      store.ingest(drive, 0, raw_record(day), out);
    }
  }
  EXPECT_EQ(out.size(), 32u * 3u);
  const auto stats = store.stats();
  EXPECT_EQ(stats.drives_tracked, 32u);
  EXPECT_EQ(stats.records_ingested, 32u * 3u);
  EXPECT_EQ(stats.rows_emitted, 32u * 3u);
}

TEST(DriveStateStore, StrictModePropagatesDayOrderViolations) {
  DriveStateStore store(small_config());
  std::vector<PendingRow> out;
  store.ingest(7, 0, raw_record(10), out);
  EXPECT_THROW(store.ingest(7, 0, raw_record(10), out), std::invalid_argument);
}

TEST(DriveStateStore, LenientModeAbsorbsAndAccounts) {
  StoreConfig config = small_config();
  config.preprocess.robustness.mode = IngestMode::kLenient;
  DriveStateStore store(config);
  std::vector<PendingRow> out;
  store.ingest(7, 0, raw_record(10), out);
  EXPECT_NO_THROW(store.ingest(7, 0, raw_record(10), out));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(store.stats().ingest.duplicate_days, 1u);
}

TEST(DriveStateStore, AlertHysteresisMatchesPolicy) {
  DriveStateStore store(small_config());
  std::vector<PendingRow> out;
  for (DayIndex day = 10; day <= 12; ++day) store.ingest(7, 0, raw_record(day), out);
  core::AlertPolicy policy;
  policy.min_consecutive = 2;
  const int seg = out.front().segment;
  // First crossing arms, second fires.
  EXPECT_FALSE(store.should_alert(7, 10, seg, true, policy));
  EXPECT_TRUE(store.should_alert(7, 11, seg, true, policy));
  // A miss resets the consecutive counter.
  EXPECT_FALSE(store.should_alert(7, 12, seg, false, policy));
  EXPECT_FALSE(store.should_alert(7, 13, seg, true, policy));
  EXPECT_TRUE(store.should_alert(7, 14, seg, true, policy));
}

TEST(DriveStateStore, SegmentChangeResetsHysteresisAtScoringTime) {
  DriveStateStore store(small_config());
  std::vector<PendingRow> out;
  for (DayIndex day = 10; day <= 12; ++day) {
    store.ingest(7, 0, raw_record(day), out);
  }
  core::AlertPolicy policy;
  policy.min_consecutive = 2;
  const int seg = out.front().segment;
  // The streak arms on the old segment...
  EXPECT_FALSE(store.should_alert(7, 10, seg, true, policy));
  EXPECT_TRUE(store.should_alert(7, 11, seg, true, policy));
  EXPECT_TRUE(store.should_alert(7, 12, seg, true, policy));  // no cooldown
  // ...and a row tagged with a newer segment restarts it from zero, no
  // matter how ingestion was batched relative to scoring.
  EXPECT_FALSE(store.should_alert(7, 40, seg + 1, true, policy));
  EXPECT_TRUE(store.should_alert(7, 41, seg + 1, true, policy));
}

TEST(DriveStateStore, AlertCooldownSilencesRepeats) {
  DriveStateStore store(small_config());
  std::vector<PendingRow> out;
  for (DayIndex day = 10; day <= 12; ++day) store.ingest(7, 0, raw_record(day), out);
  core::AlertPolicy policy;
  policy.cooldown_days = 5;
  const int seg = out.front().segment;
  EXPECT_TRUE(store.should_alert(7, 10, seg, true, policy));
  EXPECT_FALSE(store.should_alert(7, 12, seg, true, policy));  // in cooldown
  EXPECT_TRUE(store.should_alert(7, 15, seg, true, policy));   // cooldown over
}

TEST(DriveStateStore, ShouldAlertForUnknownDriveThrows) {
  DriveStateStore store(small_config());
  EXPECT_THROW(store.should_alert(99, 10, 1, true, core::AlertPolicy{}),
               std::logic_error);
}

}  // namespace
}  // namespace mfpa::serve
