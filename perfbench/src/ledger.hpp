// Measurement primitives of the serving benchmark: the canonical alert
// digest, percentiles with their sample-count rule, open-loop lateness
// accounting, the staged-replay span ledger (with Chrome trace-event
// export), and the machine fingerprint stamped on every result.
//
// Everything here is pure bookkeeping over numbers the workloads hand in,
// so the unit tests in perfbench/tests drive it with synthetic times.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/online_predictor.hpp"

namespace perfbench {

// --- output check ----------------------------------------------------------

/// FNV-1a 64 over the canonical alert stream: alerts sorted by (day, drive
/// id, score), each hashed as the text line "<day> <drive> <%.17g score>\n".
/// Emission order differs between topologies (catch-up bursts, shard
/// merges); the canonical order and the exact score text do not.
std::uint64_t alerts_digest(std::vector<mfpa::core::Alert> alerts);

/// 16 lower-case hex digits.
std::string hex64(std::uint64_t value);

// --- percentiles -------------------------------------------------------------

/// Nearest-rank quantile of an ascending-sorted sample: the value at rank
/// ceil(q * n). Throws std::invalid_argument on an empty sample or q
/// outside (0, 1].
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Samples strictly above the nearest-rank q-quantile: n - ceil(q * n).
std::size_t samples_beyond(std::size_t n, double q);

/// A quantile is reported only when at least `min_beyond` samples lie
/// beyond it (the rule the benchmark applies to p99).
bool quantile_supported(std::size_t n, double q, std::size_t min_beyond = 10);

/// Median of an unsorted sample (mean of the middle two for even sizes).
double median(std::vector<double> values);

/// Splits `values` into `chunks` consecutive, nearly equal windows and
/// returns each window's q-quantile. Throws std::invalid_argument when a
/// window cannot support q.
std::vector<double> chunk_quantiles(const std::vector<double>& values,
                                    std::size_t chunks, double q);

// --- open-loop accounting ----------------------------------------------------

/// Lateness ledger of one open-loop phase. Record i is due at due_ns[i]
/// (offsets from the phase start). The generator reports when it actually
/// sent each record, and the observer reports completions as a running
/// count (records complete in send order). A record's latency runs from
/// its due time — not its send time — so a stalled generator or service
/// charges the wait to every record that queued behind it.
class OpenLoopLedger {
 public:
  explicit OpenLoopLedger(std::vector<std::int64_t> due_ns);

  std::size_t size() const noexcept { return due_ns_.size(); }
  std::int64_t due(std::size_t i) const { return due_ns_.at(i); }

  /// Generator sent record i at `t_ns`.
  void sent(std::size_t i, std::int64_t t_ns);

  /// The first `count` records were seen complete at `t_ns`. Counts never
  /// go backwards; records already completed keep their first time.
  void completed(std::size_t count, std::int64_t t_ns);

  std::size_t completed_count() const noexcept { return completed_; }

  /// Per-record latency (completion - due) and generator lag
  /// (send - due, clamped at 0), in microseconds. Throws std::logic_error
  /// if any record is not yet complete.
  std::vector<double> latency_us() const;
  std::vector<double> lag_us() const;

 private:
  std::vector<std::int64_t> due_ns_;
  std::vector<std::int64_t> sent_ns_;
  std::vector<std::int64_t> done_ns_;
  std::size_t completed_ = 0;
};

/// Poisson arrival schedule: `n` due offsets (ns) at `rate` records/s,
/// exponential gaps drawn from a generator seeded with `seed`.
std::vector<std::int64_t> poisson_schedule(std::uint64_t seed, double rate,
                                           std::size_t n);

// --- staged-replay ledger ----------------------------------------------------

/// One timed call (or loop of per-record calls) into a module.
struct Span {
  const char* stage = "";   ///< ledger stage name
  std::uint64_t batch = 0;  ///< request id: the replay batch
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t calls = 0;  ///< public-function calls the span covers
};

class SpanLedger {
 public:
  void add(const Span& span) { spans_.push_back(span); }
  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Summed duration and calls of one stage (0 for an unknown stage).
  std::int64_t total_ns(const std::string& stage) const;
  std::uint64_t calls(const std::string& stage) const;

  /// Chrome trace-event JSON ("X" complete events, microsecond times, one
  /// track per stage, batch id and call count as args) — opens offline in
  /// Perfetto or chrome://tracing.
  std::string chrome_trace_json(const std::string& process_name) const;

 private:
  std::vector<Span> spans_;
};

// --- machine fingerprint -----------------------------------------------------

struct Fingerprint {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string simd;
  std::string build_type;
};

/// nproc, /proc/cpuinfo model name, resolved SIMD tier, build type.
Fingerprint machine_fingerprint();
std::string to_json(const Fingerprint& fp);

// --- result formatting -------------------------------------------------------

/// A metric value as JSON: %.17g, so every measured digit survives.
std::string json_number(double value);

}  // namespace perfbench
