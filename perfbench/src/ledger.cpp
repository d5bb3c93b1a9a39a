#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <stdexcept>
#include <thread>

#include "ml/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::uint64_t alerts_digest(std::vector<mfpa::core::Alert> alerts) {
  std::sort(alerts.begin(), alerts.end(),
            [](const mfpa::core::Alert& a, const mfpa::core::Alert& b) {
              if (a.day != b.day) return a.day < b.day;
              if (a.drive_id != b.drive_id) return a.drive_id < b.drive_id;
              return a.score < b.score;
            });
  std::uint64_t h = 0xcbf29ce484222325ULL;
  char line[96];
  for (const auto& alert : alerts) {
    const int len = std::snprintf(line, sizeof(line), "%d %llu %.17g\n",
                                  static_cast<int>(alert.day),
                                  static_cast<unsigned long long>(alert.drive_id),
                                  alert.score);
    for (int i = 0; i < len; ++i) {
      h ^= static_cast<unsigned char>(line[i]);
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) throw std::invalid_argument("quantile of an empty sample");
  if (!(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("quantile q must be in (0, 1]");
  }
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double quantile_sorted(const std::vector<double>& sorted, double q) {
  return sorted[nearest_rank(sorted.size(), q) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n - nearest_rank(n, q);
}

bool quantile_supported(std::size_t n, double q, std::size_t min_beyond) {
  return n > 0 && samples_beyond(n, q) >= min_beyond;
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::vector<double> chunk_quantiles(const std::vector<double>& values,
                                    std::size_t chunks, double q) {
  if (chunks == 0) throw std::invalid_argument("chunk_quantiles: no chunks");
  std::vector<double> out;
  for (std::size_t c = 0; c < chunks; ++c) {
    std::vector<double> window(values.begin() + static_cast<std::ptrdiff_t>(c * values.size() / chunks),
                               values.begin() + static_cast<std::ptrdiff_t>((c + 1) * values.size() / chunks));
    if (!quantile_supported(window.size(), q)) {
      throw std::invalid_argument("window of " + std::to_string(window.size()) +
                                  " samples cannot support the quantile");
    }
    std::sort(window.begin(), window.end());
    out.push_back(quantile_sorted(window, q));
  }
  return out;
}

OpenLoopLedger::OpenLoopLedger(std::vector<std::int64_t> due_ns)
    : due_ns_(std::move(due_ns)),
      sent_ns_(due_ns_.size(), -1),
      done_ns_(due_ns_.size(), -1) {}

void OpenLoopLedger::sent(std::size_t i, std::int64_t t_ns) {
  sent_ns_.at(i) = t_ns;
}

void OpenLoopLedger::completed(std::size_t count, std::int64_t t_ns) {
  count = std::min(count, due_ns_.size());
  for (; completed_ < count; ++completed_) done_ns_[completed_] = t_ns;
}

std::vector<double> OpenLoopLedger::latency_us() const {
  if (completed_ != due_ns_.size()) {
    throw std::logic_error("open-loop phase has incomplete records");
  }
  std::vector<double> out(due_ns_.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<double>(done_ns_[i] - due_ns_[i]) / 1000.0;
  }
  return out;
}

std::vector<double> OpenLoopLedger::lag_us() const {
  std::vector<double> out(due_ns_.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (sent_ns_[i] < 0) throw std::logic_error("open-loop record never sent");
    out[i] =
        static_cast<double>(std::max<std::int64_t>(0, sent_ns_[i] - due_ns_[i])) /
        1000.0;
  }
  return out;
}

std::vector<std::int64_t> poisson_schedule(std::uint64_t seed, double rate,
                                           std::size_t n) {
  if (!(rate > 0.0)) throw std::invalid_argument("rate must be positive");
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<std::int64_t> due(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += gap(rng);
    due[i] = static_cast<std::int64_t>(t * 1e9);
  }
  return due;
}

std::int64_t SpanLedger::total_ns(const std::string& stage) const {
  std::int64_t total = 0;
  for (const auto& s : spans_) {
    if (stage == s.stage) total += s.end_ns - s.start_ns;
  }
  return total;
}

std::uint64_t SpanLedger::calls(const std::string& stage) const {
  std::uint64_t total = 0;
  for (const auto& s : spans_) {
    if (stage == s.stage) total += s.calls;
  }
  return total;
}

std::string SpanLedger::chrome_trace_json(const std::string& process_name) const {
  std::vector<std::string> tracks;
  auto track_of = [&tracks](const char* stage) {
    const auto it = std::find(tracks.begin(), tracks.end(), stage);
    if (it != tracks.end()) return static_cast<std::size_t>(it - tracks.begin());
    tracks.emplace_back(stage);
    return tracks.size() - 1;
  };
  std::string events;
  char buf[256];
  for (const auto& s : spans_) {
    const std::size_t tid = track_of(s.stage) + 1;
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"%s\",\"cat\":\"stage\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"batch\":%llu,"
                  "\"calls\":%llu}}",
                  s.stage, tid, static_cast<double>(s.start_ns) / 1000.0,
                  static_cast<double>(s.end_ns - s.start_ns) / 1000.0,
                  static_cast<unsigned long long>(s.batch),
                  static_cast<unsigned long long>(s.calls));
    events += buf;
  }
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"" +
         process_name + "\"}}";
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(i + 1) + ",\"args\":{\"name\":\"" + tracks[i] + "\"}}";
  }
  out += events;
  out += "\n]}\n";
  return out;
}

Fingerprint machine_fingerprint() {
  Fingerprint fp;
  fp.nproc = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        fp.cpu_model = line.substr(line.find_first_not_of(" \t", colon + 1));
      }
      break;
    }
  }
  if (fp.cpu_model.empty()) fp.cpu_model = "unknown";
  fp.simd = std::string(mfpa::ml::to_string(mfpa::ml::active_simd_level()));
  fp.build_type = PERFBENCH_BUILD_TYPE;
  return fp;
}

std::string to_json(const Fingerprint& fp) {
  std::string model;
  for (const char c : fp.cpu_model) {
    if (c == '"' || c == '\\') model += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) model += c;
  }
  return "{\"nproc\": " + std::to_string(fp.nproc) + ", \"cpu_model\": \"" +
         model + "\", \"simd\": \"" + fp.simd + "\", \"build_type\": \"" +
         fp.build_type + "\"}";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace perfbench
