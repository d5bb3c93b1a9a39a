// Pins the product's absolute output. The parity suites compare serving
// variants with each other, so a change that moves every variant the same
// way passes them; these tests pin the alert stream itself. They run
// `serve-replay` and `fleet-replay --shards=4` on the tiny scenario at a
// fixed seed and check the canonical alert digest and the drive-level
// TPR/FPR. The digest is FNV-1a over "day drive %.17g" lines in (day, drive,
// score) order, the same digest perfbench reports as `alerts_digest`.
//
// A change that moves a pinned value must say why in CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "core/online_predictor.hpp"
#include "ml/checksum.hpp"
#include "serve/replay.hpp"
#include "sim/fleet.hpp"

namespace mfpa::cli {
namespace {
namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 7;
constexpr std::uint64_t kGoldenDigest = 0x2cb2cfce00f55b5fULL;
constexpr std::size_t kGoldenAlerts = 473;
constexpr double kGoldenTpr = 3.0 / 6.0;    // failed drives alerted
constexpr double kGoldenFpr = 22.0 / 72.0;  // healthy drives alerted

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::uint64_t canonical_digest(std::vector<core::Alert> alerts) {
  std::sort(alerts.begin(), alerts.end(),
            [](const core::Alert& a, const core::Alert& b) {
              if (a.day != b.day) return a.day < b.day;
              if (a.drive_id != b.drive_id) return a.drive_id < b.drive_id;
              return a.score < b.score;
            });
  std::ostringstream lines;
  lines.precision(17);  // "%.17g"
  for (const auto& alert : alerts) {
    lines << alert.day << ' ' << alert.drive_id << ' ' << alert.score << '\n';
  }
  return ml::fnv1a(lines.str());
}

/// Reads an `--alerts-out` file: "drive day score" per line.
std::vector<core::Alert> read_alerts(const fs::path& path) {
  std::ifstream in(path);
  std::vector<core::Alert> alerts;
  core::Alert alert{};
  while (in >> alert.drive_id >> alert.day >> alert.score) {
    alerts.push_back(alert);
  }
  return alerts;
}

class GoldenAlertStream : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs discovered tests as parallel processes.
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("mfpa_golden_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Runs `command` on the tiny scenario and checks its alert stream
  /// against the pinned values.
  void expect_golden(std::vector<std::string> command) {
    const fs::path alerts_path = dir_ / "out.alerts";
    command.push_back("--scenario=tiny");
    command.push_back("--seed=" + std::to_string(kSeed));
    command.push_back("--registry=" + (dir_ / "registry").string());
    command.push_back("--alerts-out=" + alerts_path.string());
    std::ostringstream out;
    std::ostringstream err;
    ASSERT_EQ(run_command(parse_command_line(command), out, err), 0)
        << err.str();

    const auto alerts = read_alerts(alerts_path);
    EXPECT_EQ(alerts.size(), kGoldenAlerts);
    EXPECT_EQ(hex64(canonical_digest(alerts)), hex64(kGoldenDigest));

    sim::FleetSimulator fleet(sim::scenario_by_name("tiny", kSeed));
    const auto drives =
        serve::FleetReplayer::drive_level(alerts, fleet.generate_telemetry());
    EXPECT_DOUBLE_EQ(drives.drive_tpr(), kGoldenTpr);
    EXPECT_DOUBLE_EQ(drives.drive_fpr(), kGoldenFpr);
  }

  fs::path dir_;
};

TEST_F(GoldenAlertStream, ServeReplayTiny) {
  expect_golden({"serve-replay"});
}

TEST_F(GoldenAlertStream, FleetReplayFourShardsTiny) {
  expect_golden({"fleet-replay", "--shards=4"});
}

}  // namespace
}  // namespace mfpa::cli
