// Serving benchmark: replays the simulated fleet through the serving stack
// and prints one JSON result line (see perfbench/README.md).
//
//   perfbench --workload replay-memory|replay-durable|fleet-multiproc
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Scratch state (registry, durable dirs, shard files) lives in DIR; the
// result file and the Chrome trace are written beside it.
//
// Every workload replays a fixed fleet (scenario seed 42), so its alert
// stream is pinned to one golden digest; --seed drives the load instead:
// the Poisson arrival times of the open-loop phase, and the shard
// fleet-multiproc restarts and stage-replays.
//
// A run repeats rounds — set-up, one pass, restarts — until --seconds
// have gone by (at least the workload's min_rounds), so every metric
// samples the whole run. A pass is a closed-loop phase over the stream's
// prefix, in segments that each end at a flush()/sync() barrier, followed
// by an open-loop phase over the stream's tail at the workload's fixed
// offered rate.
// --trace 1 runs the same rounds, then the staged replay, and reports the
// per-layer ledger instead of the end-to-end metrics.
#include <malloc.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ledger.hpp"
#include "net/fleet_replay.hpp"
#include "net/protocol.hpp"
#include "net/sharded_client.hpp"
#include "net/supervisor.hpp"
#include "obs/metrics.hpp"
#include "serve/model_registry.hpp"
#include "serve/replay.hpp"
#include "serve/scoring_engine.hpp"
#include "sim/fleet.hpp"
#include "staged.hpp"

#ifndef PERFBENCH_CLI_BINARY
#error "PERFBENCH_CLI_BINARY must point at the mfpa executable"
#endif

namespace fs = std::filesystem;
namespace serve = mfpa::serve;
namespace net = mfpa::net;
namespace sim = mfpa::sim;
using namespace perfbench;

namespace {

constexpr std::uint64_t kScenarioSeed = 42;
constexpr std::size_t kMaxBatch = 256;

struct Workload {
  std::string name;
  std::string scenario;
  /// Offered rate of the open-loop phase (records/s) and its length.
  double open_rate;
  double open_seconds;
  /// Open-loop latency quantiles are taken per window of this length and
  /// reported as the median over windows: short windows where stalls are
  /// host noise, one window per pass where they are the workload's own
  /// checkpoints (replay-durable checkpoints every ~1.6 s).
  double latency_window_s;
  /// Records per closed-loop segment.
  std::size_t segment;
  /// Scoring-pool threads per engine and store lock stripes. Generator
  /// threads plus serving threads fit a 4-core host.
  std::size_t score_threads;
  std::size_t store_shards;
  bool durable;
  /// Shard processes (0 = one in-process engine).
  std::size_t processes;
  /// Restarts timed after each round's pass.
  int restarts_per_round;
  /// Rounds a run makes at least, however short --seconds is.
  int min_rounds;
  /// Expected canonical alert digest of the full stream.
  std::uint64_t golden;
};

const std::vector<Workload>& workloads() {
  // replay-memory: 1 generator + 1 drain thread that also scores.
  // replay-durable: the same, with WAL + checkpoints on; 2,500 rec/s keeps
  // a checkpoint stall and its backlog well under half the open loop. Its
  // pass rate moves by a fifth either way from pass to pass on a shared
  // host, so it makes six short rounds (2-s open loop, two restarts).
  // fleet-multiproc: 1 generator + 3 shard processes (a drain thread that
  // also scores, and a socket thread, each).
  static const std::vector<Workload> kWorkloads = {
      {"replay-memory", "default", 50000.0, 2.0, 0.25, 32768, 1, 4, false, 0, 10, 3,
       0xb83099e26af4438dULL},
      {"replay-durable", "small", 2500.0, 2.0, 2.0, 8192, 1, 4, true, 0, 2, 6,
       0x29e3593f76cf1f11ULL},
      {"fleet-multiproc", "fleet", 80000.0, 2.0, 0.25, 32768, 1, 1, false, 3, 5, 3,
       0xab520864cbda2658ULL},
  };
  return kWorkloads;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      std::size_t used = 0;
      args.seed = std::stoull(value, &used);
      if (used != value.size()) throw std::invalid_argument("bad --seed");
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace is 0 or 1");
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (argc % 2 != 1) throw std::invalid_argument("options take one value each");
  if (!have_seed || args.work_dir.empty() || !(args.seconds > 0.0)) {
    throw std::invalid_argument(
        "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
        "--work-dir DIR");
  }
  return args;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- memory accounting -------------------------------------------------------

/// A "Vm...:" line of a /proc status file, in kB (0 when absent).
double status_kb(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr);
    }
  }
  return 0.0;
}

/// Heap bytes handed out and not yet freed, over all malloc arenas, in MB.
/// Unlike RSS, this does not depend on how fragmented earlier rounds left
/// the heap.
double heap_in_use_mb() {
  const struct mallinfo2 m = mallinfo2();
  return static_cast<double>(m.uordblks + m.hblkhd) / (1024.0 * 1024.0);
}

/// Summed peak RSS (kB) of this process's live children.
double children_peak_kb() {
  const pid_t self = getpid();
  double total = 0.0;
  for (const auto& entry : fs::directory_iterator("/proc")) {
    const std::string pid = entry.path().filename().string();
    if (pid.empty() || !std::all_of(pid.begin(), pid.end(), ::isdigit)) continue;
    std::ifstream stat(entry.path() / "stat");
    std::string text;
    std::getline(stat, text);
    const auto close = text.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(text.substr(close + 2));
    char state = 0;
    long ppid = 0;
    fields >> state >> ppid;
    if (ppid == self) total += status_kb((entry.path() / "status").string(), "VmHWM");
  }
  return total;
}

// --- world (the set-up) ------------------------------------------------------

struct World {
  std::vector<sim::DriveTimeSeries> telemetry;
  std::unique_ptr<serve::FleetReplayer> replayer;
  std::string registry_dir;
  std::unique_ptr<serve::ModelRegistry> registry;
  int version = 0;
  std::unique_ptr<net::ShardProcessSupervisor> shards;  // fleet-multiproc
  std::vector<std::string> shard_alert_files;
  std::vector<std::string> shard_metrics;
};

struct SetupTimes {
  double total = 0, generate = 0, train = 0, spawn = 0;
};

/// `mfpa shard-serve` for shard k; its files are <dir>/<tag>.*.
net::ShardProcessSpec shard_spec(const Workload& w, const World& world, std::size_t k,
                                 const std::string& dir, const std::string& tag) {
  net::ShardProcessSpec spec;
  spec.port_file = dir + "/" + tag + ".port";
  spec.log_file = dir + "/" + tag + ".log";
  spec.argv = {PERFBENCH_CLI_BINARY,
               "shard-serve",
               "--shard-index=" + std::to_string(k),
               "--shard-count=" + std::to_string(w.processes),
               "--registry=" + world.registry_dir,
               "--port-file=" + spec.port_file,
               "--batch=" + std::to_string(kMaxBatch),
               "--threads=" + std::to_string(w.score_threads),
               "--alerts-out=" + dir + "/" + tag + ".alerts",
               "--metrics-out=" + dir + "/" + tag + ".metrics.json"};
  return spec;
}

/// Spawns the shard-serve topology for a round and waits until every shard
/// is ready.
void spawn_shards(const Workload& w, World& world, const std::string& dir) {
  world.shards.reset();
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::vector<net::ShardProcessSpec> specs;
  world.shard_alert_files.clear();
  world.shard_metrics.clear();
  for (std::size_t k = 0; k < w.processes; ++k) {
    const std::string tag = "shard-" + std::to_string(k);
    specs.push_back(shard_spec(w, world, k, dir, tag));
    world.shard_alert_files.push_back(dir + "/" + tag + ".alerts");
    world.shard_metrics.push_back(dir + "/" + tag + ".metrics.json");
  }
  world.shards = std::make_unique<net::ShardProcessSupervisor>(std::move(specs));
  world.shards->wait_ready(std::chrono::minutes(2));
}

SetupTimes build_world(const Workload& w, World& world, const std::string& work) {
  SetupTimes t;
  world.shards.reset();
  const auto t0 = Clock::now();
  auto scenario = sim::scenario_by_name(w.scenario, kScenarioSeed);
  sim::FleetSimulator fleet(scenario);
  // One generation thread: the fleet is the same for any thread count, and
  // a single thread leaves the allocator in the same state every run.
  world.telemetry = fleet.generate_telemetry(/*threads=*/1);
  std::vector<sim::DriveTimeSeries> train_telemetry;
  std::vector<sim::TroubleTicket> train_tickets;
  const std::vector<sim::DriveTimeSeries>* train_on = &world.telemetry;
  if (w.processes > 0) {
    // As `mfpa fleet-replay` does: the model trains on a down-scaled twin
    // of the fleet (same seed, catalog and drift).
    auto twin = scenario;
    twin.fleet_scale = 0.02;
    sim::FleetSimulator twin_fleet(twin);
    train_telemetry = twin_fleet.generate_telemetry(1);
    train_tickets = twin_fleet.tickets();
    train_on = &train_telemetry;
  } else {
    train_tickets = fleet.tickets();
  }
  world.replayer = std::make_unique<serve::FleetReplayer>(world.telemetry);
  const auto t1 = Clock::now();

  world.registry_dir = work + "/registry";
  world.registry.reset();
  fs::remove_all(world.registry_dir);
  world.registry = std::make_unique<serve::ModelRegistry>(world.registry_dir,
                                                          w.score_threads);
  mfpa::core::MfpaConfig config;
  config.seed = kScenarioSeed;
  world.version =
      serve::train_and_publish(*world.registry, config, *train_on, train_tickets);
  const auto t2 = Clock::now();
  if (w.processes > 0) spawn_shards(w, world, work + "/procs");
  const auto t3 = Clock::now();
  t.generate = std::chrono::duration<double>(t1 - t0).count();
  t.train = std::chrono::duration<double>(t2 - t1).count();
  t.spawn = std::chrono::duration<double>(t3 - t2).count();
  t.total = std::chrono::duration<double>(t3 - t0).count();
  return t;
}

// --- passes ------------------------------------------------------------------

serve::EngineConfig engine_config(const Workload& w, const std::string& label,
                                  const std::string& durable_dir) {
  serve::EngineConfig config;
  config.max_batch = kMaxBatch;
  config.store.shards = w.store_shards;
  config.instance_label = label;
  config.durability.dir = durable_dir;
  // The workload's crash is a SIGKILL, which the page cache survives, so
  // fsync adds nothing the benchmark checks, only the shared disk's
  // latency, which follows other tenants' I/O rather than the code. The
  // price: a change to fsync policy does not show here. Checkpoints and
  // the WAL are still written in full.
  config.durability.fsync = false;
  return config;
}

serve::TelemetryUpdate update_of(const Arrival& a) {
  return {a.drive_id, a.vendor, *a.record};
}

struct PassResult {
  std::size_t segments = 0;            ///< closed loop, each ended by a barrier
  double closed_records = 0;
  double closed_seconds = 0;
  double send_seconds = 0;             ///< fleet-multiproc: in send_record
  std::vector<double> sync_ms;         ///< fleet-multiproc: per barrier
  std::vector<double> latency_us, lag_us;
  double submit_ns_total = 0;          ///< open loop, in submit()
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double peak_rss_mb = 0;
  std::vector<mfpa::core::Alert> alerts;
  std::vector<double> shard_records;   ///< fleet-multiproc: per-shard acks
  double batch_size_mean = 0, queue_depth_p50 = 0;
  std::string problem;                 ///< first failed check, if any
};

/// Drives an open-loop phase: sends record i once its due time has come
/// (however late), then asks `seen` how many have completed. `send(i)`
/// returns nothing; `seen(sent)` returns the completed count.
template <typename Send, typename Seen>
void drive_open_loop(OpenLoopLedger& ledger, Send&& send, Seen&& seen,
                     double& submit_ns_total) {
  const auto epoch = Clock::now();
  std::size_t next = 0;
  const std::size_t n = ledger.size();
  while (ledger.completed_count() < n) {
    std::int64_t t = ns_since(epoch);
    while (next < n && ledger.due(next) <= t) {
      ledger.sent(next, t);
      send(next);
      const std::int64_t after = ns_since(epoch);
      submit_ns_total += static_cast<double>(after - t);
      t = after;
      ++next;
    }
    const std::size_t done = seen(next);
    if (done > ledger.completed_count()) ledger.completed(done, ns_since(epoch));
  }
}

/// One in-process pass (replay-memory, replay-durable).
PassResult run_engine_pass(const Workload& w, World& world, std::uint64_t seed,
                           int pass, const std::string& durable_dir) {
  PassResult r;
  const auto& arrivals = world.replayer->arrivals();
  const std::size_t n = arrivals.size();
  const auto open_n = static_cast<std::size_t>(w.open_rate * w.open_seconds);
  const std::size_t open_begin = n - std::min(open_n, n / 2);
  const std::string label = "perfbench-" + std::to_string(pass);

  OpenLoopLedger ledger(poisson_schedule(seed * 1000 + static_cast<std::uint64_t>(pass),
                                         w.open_rate, n - open_begin));
  if (!durable_dir.empty()) fs::remove_all(durable_dir);
  // The serving side's own memory: heap in use at each barrier, less what
  // the process already held (telemetry, replayer, model, the ledger above).
  const double heap_base_mb = heap_in_use_mb();
  double heap_peak_mb = heap_base_mb;
  serve::ScoringEngine engine(*world.registry,
                              engine_config(w, label, durable_dir));

  for (std::size_t begin = 0; begin < open_begin; begin += w.segment) {
    const std::size_t end = std::min(open_begin, begin + w.segment);
    const auto t0 = Clock::now();
    for (std::size_t i = begin; i < end; ++i) engine.submit(update_of(arrivals[i]));
    engine.flush();
    const double dt = seconds_since(t0);
    heap_peak_mb = std::max(heap_peak_mb, heap_in_use_mb());
    ++r.segments;
    r.closed_records += static_cast<double>(end - begin);
    r.closed_seconds += dt;
  }

  // Completion is observed through the engine's own registry counters:
  // records leave the queue in FIFO order, so a processed count of c means
  // the first c records of the phase are scored. process_batch bumps the
  // counter before it decides the batch's alerts and before on_batch_end,
  // so latency ends there: a checkpoint stall is paid by the records
  // queued behind it, not by the batch that runs it.
  auto& reg = mfpa::obs::registry();
  const mfpa::obs::Labels labels = {{"engine", label}};
  const auto& processed = reg.counter("mfpa_serve_records_processed_total", labels);
  const auto& rejected = reg.counter("mfpa_serve_rejected_total", labels);
  const std::uint64_t base = processed.value() + rejected.value();
  drive_open_loop(
      ledger,
      [&](std::size_t i) { engine.submit(update_of(arrivals[open_begin + i])); },
      [&](std::size_t) {
        return static_cast<std::size_t>(processed.value() + rejected.value() - base);
      },
      r.submit_ns_total);
  engine.flush();
  const serve::EngineStats s = engine.stats();
  r.peak_rss_mb = std::max(heap_peak_mb, heap_in_use_mb()) - heap_base_mb;
  engine.stop();
  r.alerts = engine.alerts();
  r.latency_us = ledger.latency_us();
  r.lag_us = ledger.lag_us();

  r.attempted = n;
  const std::uint64_t accounted = s.records_processed + s.shed + s.rejected;
  r.failed = s.shed + s.rejected + (n > accounted ? n - accounted : 0);
  if (s.submitted != n || s.submitted != accounted) {
    r.problem = "engine conservation: submitted " + std::to_string(s.submitted) +
                " != processed " + std::to_string(s.records_processed) + " + shed " +
                std::to_string(s.shed) + " + rejected " + std::to_string(s.rejected);
  }
  r.batch_size_mean = s.batches == 0 ? 0.0
                                     : static_cast<double>(accounted) /
                                           static_cast<double>(s.batches);
  r.queue_depth_p50 = s.queue_depth.quantile(0.5);
  return r;
}

/// Reads "<key>": <number> from a metrics JSON line.
double json_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const auto pos = line.find(needle);
  return pos == std::string::npos ? 0.0
                                  : std::strtod(line.c_str() + pos + needle.size(),
                                                nullptr);
}

/// One multi-process pass (fleet-multiproc): a ShardedClient feeds the
/// shard-serve processes spawned for it.
PassResult run_multiproc_pass(const Workload& w, World& world, std::uint64_t seed,
                              int pass) {
  PassResult r;
  const auto& arrivals = world.replayer->arrivals();
  const std::size_t n = arrivals.size();
  const auto open_n = static_cast<std::size_t>(w.open_rate * w.open_seconds);
  const std::size_t open_begin = n - std::min(open_n, n / 2);

  net::ShardedClientConfig client_config;
  client_config.ports = world.shards->ports();
  client_config.model_version = static_cast<std::uint32_t>(world.version);
  net::ShardedClient client(client_config);

  net::FlushAck ack;
  for (std::size_t begin = 0; begin < open_begin; begin += w.segment) {
    const std::size_t end = std::min(open_begin, begin + w.segment);
    const auto t0 = Clock::now();
    for (std::size_t i = begin; i < end; ++i) {
      const Arrival& a = arrivals[i];
      client.send_record(a.drive_id, a.vendor, *a.record);
    }
    const auto t1 = Clock::now();
    client.flush_buffers();
    ack = client.sync();
    const auto t2 = Clock::now();
    const double dt = std::chrono::duration<double>(t2 - t0).count();
    ++r.segments;
    r.closed_records += static_cast<double>(end - begin);
    r.closed_seconds += dt;
    r.send_seconds += std::chrono::duration<double>(t1 - t0).count();
    r.sync_ms.push_back(std::chrono::duration<double, std::milli>(t2 - t1).count());
  }

  // Completion is only observable through the kFlush barrier: whenever
  // records are outstanding the generator syncs, and every record sent
  // before that barrier counts as scored when its ack arrives.
  OpenLoopLedger ledger(poisson_schedule(seed * 1000 + static_cast<std::uint64_t>(pass),
                                         w.open_rate, n - open_begin));
  std::size_t acked = 0;
  drive_open_loop(
      ledger,
      [&](std::size_t i) {
        const Arrival& a = arrivals[open_begin + i];
        client.send_record(a.drive_id, a.vendor, *a.record);
      },
      [&](std::size_t sent) {
        if (sent > acked) {
          client.flush_buffers();
          ack = client.sync();
          acked = sent;
        }
        return acked;
      },
      r.submit_ns_total);
  ack = client.sync();
  r.latency_us = ledger.latency_us();
  r.lag_us = ledger.lag_us();
  const std::uint64_t sent = client.records_sent();
  client.close();
  r.peak_rss_mb = children_peak_kb() / 1024.0;
  world.shards->terminate_all();

  // Per-shard accounting from each shard's metrics snapshot, written at
  // its graceful exit.
  std::uint64_t shard_sum = 0, protocol_errors = 0;
  double batch_sum = 0, batch_count = 0;
  std::vector<double> depth_p50;
  for (std::size_t k = 0; k < w.processes; ++k) {
    if (world.shards->exit_status(k) != 0) {
      r.problem = "shard " + std::to_string(k) + " exited " +
                  std::to_string(world.shards->exit_status(k));
    }
    std::ifstream in(world.shard_metrics[k]);
    std::string line;
    double processed = 0;
    while (std::getline(in, line)) {
      if (line.find("\"mfpa_serve_records_processed_total\"") != std::string::npos) {
        processed += json_field(line, "value");
      } else if (line.find("\"mfpa_net_protocol_errors_total\"") != std::string::npos) {
        protocol_errors += static_cast<std::uint64_t>(json_field(line, "value"));
      } else if (line.find("\"mfpa_serve_batch_size\"") != std::string::npos) {
        batch_sum += json_field(line, "sum");
        batch_count += json_field(line, "count");
      } else if (line.find("\"mfpa_serve_queue_depth\"") != std::string::npos) {
        depth_p50.push_back(json_field(line, "p50"));
      }
    }
    r.shard_records.push_back(processed);
    shard_sum += static_cast<std::uint64_t>(processed);
  }
  r.batch_size_mean = batch_count > 0 ? batch_sum / batch_count : 0.0;
  r.queue_depth_p50 = depth_p50.empty() ? 0.0 : median(depth_p50);
  r.alerts = net::merge_alert_files(world.shard_alert_files);

  r.attempted = n;
  const std::uint64_t processed = ack.records_processed;
  r.failed = ack.shed + protocol_errors + (n > processed + ack.shed ? n - processed - ack.shed : 0);
  if (sent != n || processed + ack.shed != sent || shard_sum != sent) {
    r.problem = "multiproc conservation: sent " + std::to_string(sent) +
                ", acked " + std::to_string(processed) + " + shed " +
                std::to_string(ack.shed) + ", per-shard sum " +
                std::to_string(shard_sum);
  }
  return r;
}

// --- crash, restart and recovery -----------------------------------------------

/// Forks a child that serves the durable stream and is SIGKILLed mid-stream
/// after `kill_after` records have been drained. Returns the child's
/// shell-style exit status (137 expected).
int crash_child(const Workload& w, World& world, const std::string& dir,
                std::size_t kill_after) {
  fs::remove_all(dir);
  std::cout.flush();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    try {
      serve::ScoringEngine engine(*world.registry,
                                  engine_config(w, "perfbench-crash", dir));
      const auto& arrivals = world.replayer->arrivals();
      for (std::size_t i = 0; i < kill_after; ++i) engine.submit(update_of(arrivals[i]));
      engine.flush();
      raise(SIGKILL);
    } catch (...) {
    }
    _exit(3);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFSIGNALED(status) ? 128 + WTERMSIG(status) : WEXITSTATUS(status);
}

/// Restarts the in-process serving side: reopens the registry (loading
/// and compiling the model) and constructs an engine — on a fresh copy of
/// `crash_dir` when given, so construction recovers it. Returns seconds
/// until the engine is ready. With `resumed_digest`, the engine then takes
/// the rest of the stream from where its durable state ends and the full
/// alert stream's digest is stored there.
double restart_engine(const Workload& w, const World& world, const std::string& crash_dir,
                      const std::string& copy, std::uint64_t* resumed_digest) {
  static int restarts = 0;
  const std::string label = "perfbench-restart-" + std::to_string(restarts++);
  if (!crash_dir.empty()) {
    fs::remove_all(copy);
    fs::copy(crash_dir, copy, fs::copy_options::recursive);
  }
  const auto t0 = Clock::now();
  serve::ModelRegistry registry(world.registry_dir, w.score_threads);
  serve::ScoringEngine engine(registry,
                              engine_config(w, label, crash_dir.empty() ? "" : copy));
  const double ready = seconds_since(t0);
  if (resumed_digest != nullptr) {
    const auto& arrivals = world.replayer->arrivals();
    const std::size_t resume = engine.durable_resume_records();
    for (std::size_t j = resume; j < arrivals.size(); ++j) {
      engine.submit(update_of(arrivals[j]));
    }
    engine.stop();
    *resumed_digest = alerts_digest(engine.alerts());
    std::cout << "recovered " << resume << " durable records, resumed "
              << (arrivals.size() - resume) << ", digest " << hex64(*resumed_digest)
              << "\n";
  }
  return ready;
}

/// Spawns shard-serve `k` alone and returns seconds until its port file
/// appears (polled every 200 us; the supervisor's own wait polls at 10 ms).
double restart_shard_process(const Workload& w, const World& world, std::size_t k,
                             const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const net::ShardProcessSpec spec = shard_spec(w, world, k, dir, "restart");
  const auto t0 = Clock::now();
  net::ShardProcessSupervisor restarted({spec});
  while (!fs::exists(spec.port_file) && restarted.alive(0) && seconds_since(t0) < 60.0) {
    restarted.poll_exits();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  restarted.wait_ready(std::chrono::seconds(60));
  const double ready = seconds_since(t0);
  restarted.terminate_all();
  return ready;
}

// --- result --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

double ns_per(double total_ns, double count) {
  return count > 0 ? total_ns / count : 0.0;
}

int run(const Args& args) {
  const Workload* found = nullptr;
  for (const auto& w : workloads()) {
    if (w.name == args.workload) found = &w;
  }
  if (found == nullptr) throw std::invalid_argument("unknown workload " + args.workload);
  const Workload& w = *found;
  const Fingerprint fp = machine_fingerprint();
  std::cout << "fingerprint " << to_json(fp) << "\n";
  std::cout << "workload " << w.name << " (scenario " << w.scenario
            << ", scenario seed " << kScenarioSeed << ", load seed " << args.seed
            << ", " << args.seconds << " s, trace " << args.trace << ")\n";

  const std::string work = args.work_dir;
  fs::create_directories(work);
  std::vector<std::string> problems;
  auto check = [&problems](bool ok, const std::string& what) {
    if (!ok) {
      problems.push_back(what);
      std::cout << "CHECK FAILED: " << what << "\n";
    }
  };

  // Rounds of set-up, pass and restarts until --seconds have gone by (and
  // at least min_rounds), so every metric samples the whole run.
  World world;
  std::vector<PassResult> passes;
  std::vector<double> setup_total, setup_gen, setup_train, setup_spawn, recovery;
  std::mt19937_64 rng(args.seed);
  // fleet-multiproc: the shard process restarted and stage-replayed.
  const std::size_t chosen_shard = w.processes > 0 ? rng() % w.processes : 0;
  std::string crash_dir;
  const auto measure_start = Clock::now();
  for (int round = 0;
       round < w.min_rounds || seconds_since(measure_start) < args.seconds; ++round) {
    const SetupTimes t = build_world(w, world, work);
    setup_total.push_back(t.total);
    setup_gen.push_back(t.generate);
    setup_train.push_back(t.train);
    setup_spawn.push_back(t.spawn);

    passes.push_back(w.processes > 0
                         ? run_multiproc_pass(w, world, args.seed, round)
                         : run_engine_pass(w, world, args.seed, round,
                                           w.durable ? work + "/durable" : ""));
    const auto& p = passes.back();
    std::cout << "round " << round << ": set-up " << t.total << " s, closed loop "
              << static_cast<long long>(p.closed_records / p.closed_seconds)
              << " rec/s over " << p.segments << " segments, open loop "
              << p.latency_us.size() << " records, digest "
              << hex64(alerts_digest(p.alerts)) << ", serving memory " << p.peak_rss_mb
              << " MB\n";
    if (!p.problem.empty()) check(false, p.problem);

    if (w.durable && round == 0) {
      // Crash 60% into the stream, half-way between two checkpoints, so
      // the checkpoint recovery loads and the WAL tail it re-applies are
      // the same size in every run.
      const std::size_t interval = serve::DurabilityConfig{}.checkpoint_interval_records;
      const std::size_t kill_after =
          world.replayer->total_records() * 6 / 10 / interval * interval + interval / 2;
      crash_dir = work + "/crashed";
      const int status = crash_child(w, world, crash_dir, kill_after);
      check(status == 137, "crash child exited " + std::to_string(status) + ", not 137");
      std::cout << "crashed a child after " << kill_after << " records (exit "
                << status << ")\n";
    }
    for (int i = 0; i < w.restarts_per_round; ++i) {
      if (w.processes > 0) {
        recovery.push_back(restart_shard_process(w, world, chosen_shard, work + "/restart"));
      } else {
        recovery.push_back(restart_engine(w, world, crash_dir, work + "/recover", nullptr));
      }
    }
  }
  const std::size_t n = world.replayer->total_records();
  std::cout << "set-up: " << world.telemetry.size() << " drives, " << n
            << " records, model v" << world.version << "\n";

  std::uint64_t attempted = 0, failed = 0;
  // records_per_sec: closed-loop records over closed-loop time per pass,
  // median over passes, which a host stall during one pass does not move.
  // Latency: quantiles per window of each pass, median over all windows.
  std::vector<double> rate, lag, p50, p99, rss;
  std::size_t latency_samples = 0;
  const auto windows = static_cast<std::size_t>(
      std::max(1.0, std::round(w.open_seconds / w.latency_window_s)));
  for (const auto& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    rate.push_back(p.closed_records / p.closed_seconds);
    lag.insert(lag.end(), p.lag_us.begin(), p.lag_us.end());
    const auto w50 = chunk_quantiles(p.latency_us, windows, 0.5);
    const auto w99 = chunk_quantiles(p.latency_us, windows, 0.99);
    p50.insert(p50.end(), w50.begin(), w50.end());
    p99.insert(p99.end(), w99.begin(), w99.end());
    latency_samples += p.latency_us.size();
    rss.push_back(p.peak_rss_mb);
  }
  const double records_per_sec = median(rate);

  // Output checks: every pass (and the recovered run) reproduces the golden
  // alert stream of the workload's fixed fleet.
  const std::uint64_t digest = alerts_digest(passes.front().alerts);
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const std::uint64_t d = alerts_digest(passes[i].alerts);
    check(d == w.golden, "pass " + std::to_string(i) + " alerts_digest " + hex64(d) +
                             " != reference " + hex64(w.golden));
  }
  if (w.durable) {
    // One more restart, which resumes the feed where the durable state
    // ends; the full alert stream must equal the uncrashed one.
    std::uint64_t d = 0;
    recovery.push_back(restart_engine(w, world, crash_dir, work + "/recover", &d));
    check(d == w.golden,
          "recovered alerts_digest " + hex64(d) + " != reference " + hex64(w.golden));
  }
  const auto drives = serve::FleetReplayer::drive_level(passes.front().alerts,
                                                        world.telemetry);

  std::vector<Metric> metrics;
  const double failed_fraction =
      attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  std::cout << "failed_fraction " << failed_fraction << " (" << failed << " of "
            << attempted << " records attempted)\n";
  std::cout << "recovery: median " << median(recovery) << " s over " << recovery.size()
            << " restarts\n";
  std::sort(lag.begin(), lag.end());
  std::cout << "open loop: " << latency_samples << " latency samples in "
            << p99.size() << " windows of " << latency_samples / p99.size() << " ("
            << samples_beyond(latency_samples / p99.size(), 0.99)
            << " beyond p99 in each)\n";

  if (!args.trace) {
    metrics = {
        {"records_per_sec", records_per_sec, "1/s"},
        {"setup_s", median(setup_total), "s"},
        {"peak_rss_mb", median(rss), "MB"},
        {"drive_tpr", drives.drive_tpr(), "ratio"},
        {"drive_fpr", drives.drive_fpr(), "ratio"},
    };
  } else {
    // The staged replay: per-layer ledger, fidelity check, trace output.
    SpanLedger ledger;
    const auto epoch = Clock::now();
    const auto model = world.registry->current();
    StagedConfig staged;
    staged.store.shards = w.store_shards;
    staged.max_batch = kMaxBatch;
    std::vector<const Arrival*> stream;
    const auto& arrivals = world.replayer->arrivals();
    if (w.processes > 0) {
      for (const auto& a : arrivals) {
        if (serve::drive_shard(a.drive_id, w.processes) == chosen_shard) stream.push_back(&a);
      }
    } else {
      for (const auto& a : arrivals) stream.push_back(&a);
    }
    if (w.durable) {
      staged.durability = engine_config(w, "", work + "/staged").durability;
      fs::remove_all(staged.durability.dir);
    }
    const StagedResult sr = staged_replay(stream, *model, staged, ledger, epoch);
    const std::uint64_t staged_digest = alerts_digest(sr.alerts);
    const std::uint64_t engine_digest =
        w.processes > 0
            ? alerts_digest(net::merge_alert_files({world.shard_alert_files[chosen_shard]}))
            : digest;
    check(staged_digest == engine_digest,
          "staged replay alerts_digest " + hex64(staged_digest) + " != engine " +
              hex64(engine_digest));
    std::cout << "staged replay: " << sr.records << " records"
              << (w.processes > 0 ? " (shard " + std::to_string(chosen_shard) + ")" : "")
              << " in " << sr.wall_s << " s, digest " << hex64(staged_digest) << "\n";

    StagedRecovery rec;
    if (w.durable) {
      StagedConfig rc = staged;
      rc.durability.dir = work + "/staged-recover";
      fs::remove_all(rc.durability.dir);
      fs::copy(crash_dir, rc.durability.dir, fs::copy_options::recursive);
      rec = staged_recovery(*model, rc, ledger, epoch);
    }

    // MFNP encode/decode of the whole stream, one batch at a time: the
    // wire cost of this stream, measured on every workload.
    double encode_ns = 0, decode_ns = 0, bytes = 0;
    {
      std::string buf;
      net::FrameDecoder decoder;
      net::NetMessage msg;
      std::uint64_t decoded = 0, seq = 1, batch_id = 0;
      for (std::size_t begin = 0; begin < n; begin += kMaxBatch, ++batch_id) {
        const std::size_t end = std::min(n, begin + kMaxBatch);
        buf.clear();
        auto t0 = ns_since(epoch);
        for (std::size_t i = begin; i < end; ++i) {
          const Arrival& a = arrivals[i];
          net::append_record_frame(buf, seq++, a.drive_id, a.vendor, *a.record);
        }
        auto t1 = ns_since(epoch);
        ledger.add({"net.encode", batch_id, t0, t1, end - begin});
        encode_ns += static_cast<double>(t1 - t0);
        bytes += static_cast<double>(buf.size());
        t0 = ns_since(epoch);
        decoder.feed(buf.data(), buf.size());
        while (decoder.next(msg) == net::FrameDecoder::Status::kMessage) ++decoded;
        t1 = ns_since(epoch);
        ledger.add({"net.decode", batch_id, t0, t1, end - begin});
        decode_ns += static_cast<double>(t1 - t0);
      }
      check(decoded == n && decoder.error() == net::DecodeError::kNone,
            "MFNP round trip decoded " + std::to_string(decoded) + " of " +
                std::to_string(n));
    }

    // Fig-20-style table of the drain stages.
    double stage_sum = 0;
    for (const auto& s : drain_stages()) stage_sum += static_cast<double>(ledger.total_ns(s));
    auto share = [&](const std::string& s) {
      return stage_sum > 0 ? static_cast<double>(ledger.total_ns(s)) / stage_sum : 0.0;
    };
    const double recs = static_cast<double>(sr.records);
    const double rows = static_cast<double>(sr.rows);
    std::printf("\n%-14s %12s %14s %8s\n", "stage", "calls", "ns/record", "share");
    for (const auto& s : drain_stages()) {
      std::printf("%-14s %12llu %14.1f %7.1f%%\n", s.c_str(),
                  static_cast<unsigned long long>(ledger.calls(s)),
                  ns_per(static_cast<double>(ledger.total_ns(s)), recs), 100.0 * share(s));
    }
    std::printf("%-14s %12s %14.1f %7.1f%%\n\n", "total", "",
                ns_per(stage_sum, recs), 100.0);

    const std::string trace_path = work + "/../trace-" + w.name + "-seed" +
                                   std::to_string(args.seed) + ".json";
    std::ofstream(trace_path) << ledger.chrome_trace_json("perfbench " + w.name);
    std::cout << "trace: " << fs::weakly_canonical(trace_path).string() << " ("
              << ledger.spans().size() << " spans)\n";

    const auto& p0 = passes.front();
    double open_records = 0, submit_ns = 0, send_s = 0, closed = 0;
    std::vector<double> sync_ms;
    for (const auto& p : passes) {
      open_records += static_cast<double>(p.latency_us.size());
      submit_ns += p.submit_ns_total;
      send_s += p.send_seconds;
      closed += p.closed_records;
      sync_ms.insert(sync_ms.end(), p.sync_ms.begin(), p.sync_ms.end());
    }
    double skew = 0;
    if (!p0.shard_records.empty()) {
      double sum = 0, mx = 0;
      for (const double v : p0.shard_records) {
        sum += v;
        mx = std::max(mx, v);
      }
      skew = sum > 0 ? mx / (sum / static_cast<double>(p0.shard_records.size())) : 0.0;
    }
    const double untraced_ns_per_record = 1e9 / records_per_sec;
    const double ckpts = static_cast<double>(sr.checkpoints);
    metrics = {
        {"serve.submit_ns_per_record", w.processes > 0 ? 0.0 : ns_per(submit_ns, open_records), "ns"},
        {"serve.batch_size_mean", p0.batch_size_mean, "count"},
        {"serve.queue_depth_p50", p0.queue_depth_p50, "count"},
        {"store.ingest_ns_per_record", ns_per(static_cast<double>(ledger.total_ns("store_ingest")), recs), "ns"},
        {"store.alert_ns_per_row", ns_per(static_cast<double>(ledger.total_ns("alerts")), rows), "ns"},
        {"store.rows_per_record", recs > 0 ? rows / recs : 0.0, "count"},
        {"core.features_ns_per_row", ns_per(static_cast<double>(ledger.total_ns("features")), rows), "ns"},
        {"ml.predict_ns_per_row", ns_per(static_cast<double>(ledger.total_ns("predict")), rows), "ns"},
        {"ml.rows_per_call", sr.predict_calls > 0 ? rows / static_cast<double>(sr.predict_calls) : 0.0, "count"},
        {"wal.append_ns_per_record", ns_per(static_cast<double>(ledger.total_ns("wal")), recs), "ns"},
        {"checkpoint.count", ckpts, "count"},
        {"checkpoint.ms_mean", ckpts > 0 ? static_cast<double>(ledger.total_ns("checkpoint")) / 1e6 / ckpts : 0.0, "ms"},
        {"checkpoint.bytes_mean", ckpts > 0 ? static_cast<double>(sr.checkpoint_bytes) / ckpts : 0.0, "bytes"},
        {"recovery.load_ms", rec.load_ms, "ms"},
        {"recovery.tail_records", static_cast<double>(rec.tail_records), "count"},
        {"recovery.replay_ms", rec.replay_ms, "ms"},
        {"net.encode_ns_per_record", ns_per(encode_ns, static_cast<double>(n)), "ns"},
        {"net.decode_ns_per_record", ns_per(decode_ns, static_cast<double>(n)), "ns"},
        {"net.bytes_per_record", bytes / static_cast<double>(n), "bytes"},
        {"net.send_ns_per_record", w.processes > 0 ? ns_per(send_s * 1e9, closed) : 0.0, "ns"},
        {"net.sync_ms", sync_ms.empty() ? 0.0 : median(sync_ms), "ms"},
        {"net.shard_skew", skew, "ratio"},
        {"setup.generate_s", median(setup_gen), "s"},
        {"setup.train_s", median(setup_train), "s"},
        {"setup.spawn_s", median(setup_spawn), "s"},
        {"recovery_s", median(recovery), "s"},
        {"latency_p50_us", median(p50), "us"},
        {"latency_p99_us", median(p99), "us"},
        {"gen.lag_p99_us", quantile_sorted(lag, 0.99), "us"},
        {"trace.overhead", ns_per(sr.wall_s * 1e9, recs) / untraced_ns_per_record, "ratio"},
        {"store_ingest.share", share("store_ingest"), "ratio"},
        {"features.share", share("features"), "ratio"},
        {"predict.share", share("predict"), "ratio"},
        {"alerts.share", share("alerts"), "ratio"},
        {"wal.share", share("wal"), "ratio"},
        {"checkpoint.share", share("checkpoint"), "ratio"},
        {"failed_fraction", failed_fraction, "ratio"},
    };
  }

  world.shards.reset();
  const bool correct = problems.empty();
  const std::string line = result_line(correct, attempted, failed, metrics);
  std::ofstream(work + "/../result-" + w.name + "-seed" + std::to_string(args.seed) +
                "-trace" + (args.trace ? "1" : "0") + ".json")
      << "{\"fingerprint\": " << to_json(fp) << ", \"alerts_digest\": \""
      << hex64(digest) << "\", \"passes\": " << passes.size()
      << ", \"latency_samples\": " << latency_samples << ", \"result\": " << line
      << "}\n";
  std::cout << line << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
