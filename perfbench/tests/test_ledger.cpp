// Unit tests of the benchmark's own bookkeeping: the alert digest, the
// percentile and sample-count rules, and open-loop lateness accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace perfbench {
namespace {

using mfpa::core::Alert;

TEST(AlertsDigest, EmptyStreamIsTheFnvOffsetBasis) {
  EXPECT_EQ(alerts_digest({}), 0xcbf29ce484222325ULL);
}

TEST(AlertsDigest, HashesTheCanonicalTextLines) {
  // FNV-1a 64 of "3 7 0.5\n", computed byte by byte.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : std::string("3 7 0.5\n")) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  EXPECT_EQ(alerts_digest({Alert{7, 3, 0.5}}), h);
}

TEST(AlertsDigest, IndependentOfEmissionOrder) {
  const std::vector<Alert> a = {{5, 10, 0.9}, {2, 10, 0.7}, {9, 3, 0.8}};
  std::vector<Alert> b = {a[2], a[0], a[1]};
  EXPECT_EQ(alerts_digest(a), alerts_digest(b));
}

TEST(AlertsDigest, SensitiveToTheLastScoreDigit) {
  const double s = 0.73;
  const double next = std::nextafter(s, 1.0);
  EXPECT_NE(alerts_digest({Alert{1, 2, s}}), alerts_digest({Alert{1, 2, next}}));
  EXPECT_NE(alerts_digest({Alert{1, 2, s}}), alerts_digest({Alert{1, 3, s}}));
  EXPECT_NE(alerts_digest({Alert{1, 2, s}}), alerts_digest({Alert{4, 2, s}}));
  EXPECT_NE(alerts_digest({Alert{1, 2, s}}),
            alerts_digest({Alert{1, 2, s}, Alert{1, 2, s}}));
}

TEST(AlertsDigest, HexIsSixteenDigits) {
  EXPECT_EQ(hex64(0xabcULL), "0000000000000abc");
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(quantile_sorted(v, 0.5), 50.0);
  EXPECT_EQ(quantile_sorted(v, 0.99), 99.0);
  EXPECT_EQ(quantile_sorted(v, 1.0), 100.0);
  EXPECT_EQ(quantile_sorted({4.0}, 0.99), 4.0);
  EXPECT_THROW(quantile_sorted({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile_sorted(v, 0.0), std::invalid_argument);
}

TEST(Percentile, SamplesBeyondAndSupport) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_TRUE(quantile_supported(1000, 0.99));
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_FALSE(quantile_supported(999, 0.99));
  EXPECT_TRUE(quantile_supported(20, 0.5));
  EXPECT_FALSE(quantile_supported(0, 0.5));
}

TEST(Percentile, Median) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Percentile, ChunkQuantilesPerWindow) {
  // Two windows of 1000, in arrival order: 2000..1001, then 1000..1.
  std::vector<double> v;
  for (int i = 2000; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(chunk_quantiles(v, 2, 0.99), (std::vector<double>{1990.0, 990.0}));
  EXPECT_EQ(chunk_quantiles(v, 1, 0.5), (std::vector<double>{1000.0}));
  // Three windows of ~667 cannot support p99 (fewer than ten beyond).
  EXPECT_THROW(chunk_quantiles(v, 3, 0.99), std::invalid_argument);
  EXPECT_THROW(chunk_quantiles(v, 0, 0.5), std::invalid_argument);
}

TEST(OpenLoop, LatencyRunsFromTheDueTime) {
  // Records due every 10 us; the generator runs on time for the first two,
  // then stalls and sends the rest at 100 us. All complete at 120 us.
  OpenLoopLedger ledger({0, 10'000, 20'000, 30'000});
  ledger.sent(0, 0);
  ledger.sent(1, 10'000);
  ledger.completed(2, 15'000);
  ledger.sent(2, 100'000);
  ledger.sent(3, 100'000);
  ledger.completed(4, 120'000);
  const auto latency = ledger.latency_us();
  EXPECT_EQ(latency, (std::vector<double>{15.0, 5.0, 100.0, 90.0}));
  const auto lag = ledger.lag_us();
  EXPECT_EQ(lag, (std::vector<double>{0.0, 0.0, 80.0, 70.0}));
}

TEST(OpenLoop, CompletionsKeepTheirFirstTime) {
  OpenLoopLedger ledger({0, 0, 0});
  for (std::size_t i = 0; i < 3; ++i) ledger.sent(i, 0);
  ledger.completed(2, 1'000);
  ledger.completed(1, 5'000);  // a stale, smaller count changes nothing
  ledger.completed(9, 3'000);  // clamped to the phase size
  EXPECT_EQ(ledger.completed_count(), 3u);
  EXPECT_EQ(ledger.latency_us(), (std::vector<double>{1.0, 1.0, 3.0}));
}

TEST(OpenLoop, IncompletePhaseRefusesLatencies) {
  OpenLoopLedger ledger({0, 1});
  ledger.sent(0, 0);
  ledger.completed(1, 5);
  EXPECT_THROW(ledger.latency_us(), std::logic_error);
  EXPECT_THROW(ledger.lag_us(), std::logic_error);
}

TEST(OpenLoop, EarlySendIsNoLag) {
  OpenLoopLedger ledger({1'000});
  ledger.sent(0, 400);
  ledger.completed(1, 2'000);
  EXPECT_EQ(ledger.lag_us(), (std::vector<double>{0.0}));
  EXPECT_EQ(ledger.latency_us(), (std::vector<double>{1.0}));
}

TEST(OpenLoop, PoissonScheduleIsSeededAndAtRate) {
  const auto a = poisson_schedule(7, 50'000.0, 100'000);
  EXPECT_EQ(a, poisson_schedule(7, 50'000.0, 100'000));
  EXPECT_NE(a, poisson_schedule(8, 50'000.0, 100'000));
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  // 100k arrivals at 50k/s span about two seconds.
  EXPECT_NEAR(static_cast<double>(a.back()) / 1e9, 2.0, 0.05);
}

TEST(SpanLedgerTest, TotalsAndChromeTrace) {
  SpanLedger ledger;
  ledger.add({"ingest", 0, 1'000, 3'000, 256});
  ledger.add({"predict", 0, 3'000, 7'000, 1});
  ledger.add({"ingest", 1, 8'000, 9'000, 100});
  EXPECT_EQ(ledger.total_ns("ingest"), 3'000);
  EXPECT_EQ(ledger.calls("ingest"), 356u);
  EXPECT_EQ(ledger.total_ns("absent"), 0);
  const std::string json = ledger.chrome_trace_json("test");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.000,\"dur\":2.000"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"batch\":1,\"calls\":100}"), std::string::npos);
  // One named track per stage.
  EXPECT_NE(json.find("\"args\":{\"name\":\"predict\"}"), std::string::npos);
}

TEST(Result, NumbersKeepAllDigits) {
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
  EXPECT_EQ(json_number(12.0), "12");
}

}  // namespace
}  // namespace perfbench
