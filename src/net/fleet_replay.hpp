// Sharded fleet replay: drives the ShardRouter with the same deterministic
// arrival stream serve::FleetReplayer delivers to a single engine — either
// in-process (replay_sharded: the `serve-replay --shards=N` path and the
// alert-parity tests) or over the loopback binary protocol
// (replay_over_loopback: the `fleet-replay` CLI mode, exercising the full
// encode → TCP → decode → route chain).
//
// Resume protocol: each shard recovers independently, so "how much is
// already durable" is a per-shard count, not a single stream offset. The
// feed computes every arrival's owning shard and skips it while that
// shard's resume budget is unspent — re-delivering exactly each shard's
// not-yet-durable suffix. This works because routing is a pure function of
// drive id and shard count; a resume must therefore use the same --shards
// value as the crashed run (the CLI enforces this by reading the shard
// directories present under the durable root).
#pragma once

#include <csignal>
#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "net/shard_router.hpp"
#include "net/sharded_client.hpp"
#include "serve/replay.hpp"
#include "sim/fleet.hpp"

namespace mfpa::net {

/// Knobs for one sharded replay pass (superset semantics of
/// serve::ReplayOptions, with the per-shard resume counts).
struct ShardedReplayOptions {
  serve::DayHook on_day;
  /// Per-shard records to skip (index = shard). Empty means none; otherwise
  /// the size must equal the router's shard count. Pass
  /// ShardRouter::resume_records() when resuming.
  std::vector<std::size_t> skip_records;
  /// Raise SIGKILL after submitting this many records (0 = never) —
  /// crash-recovery harness, same contract as serve::ReplayOptions.
  std::size_t kill_after_records = 0;
  /// Graceful-shutdown flag; checked between submissions.
  const volatile std::sig_atomic_t* cancel = nullptr;
};

/// What a sharded replay measured. `replay` aggregates across shards;
/// alerts are in the canonical fleet order (day, drive id).
struct ShardedReplayReport {
  serve::ReplayReport replay;          ///< merged totals + merged alerts
  RouterStats router;                  ///< per-shard accounting
  std::uint64_t protocol_errors = 0;   ///< loopback runs only
};

/// Streams the replayer's arrival order through the router in-process.
ShardedReplayReport replay_sharded(ShardRouter& router,
                                   const serve::FleetReplayer& replayer,
                                   const ShardedReplayOptions& options = {});

/// Same stream, but encoded through a TelemetryClient into an IngestServer
/// bound to an ephemeral loopback port in front of the router. The client
/// syncs (kFlush barrier) at the end; the report's totals come from the
/// router after the barrier.
ShardedReplayReport replay_over_loopback(
    ShardRouter& router, const serve::FleetReplayer& replayer,
    const ShardedReplayOptions& options = {});

/// Knobs for the streamed full-fleet replay (the `fleet-replay` CLI mode).
struct StreamedFleetOptions {
  /// Tracked drives generated per chunk; bounds peak telemetry memory to
  /// one chunk regardless of fleet size. Must be >= 1.
  std::size_t chunk_drives = 4096;
  /// Telemetry-generation threads per chunk (0 = hardware concurrency).
  std::size_t generation_threads = 1;
  /// Per-shard resume skips (ShardRouter::resume_records()). A resume must
  /// use the same shard count AND the same chunk_drives as the crashed run
  /// — both change the deterministic delivery order the skips index into.
  std::vector<std::size_t> skip_records;
  /// Feed through the loopback binary protocol instead of in-process calls.
  bool over_loopback = false;
  std::size_t kill_after_records = 0;
  const volatile std::sig_atomic_t* cancel = nullptr;
};

/// Streamed replay result: ShardedReplayReport totals plus stream shape.
struct StreamedFleetReport {
  ShardedReplayReport sharded;
  std::size_t drives_tracked = 0;  ///< tracked subset size (pre-chunking)
  std::size_t chunks = 0;          ///< generation chunks consumed
};

/// Replays an entire (possibly full-scale) fleet scenario through the
/// router with bounded memory: tracked drives are generated in chunks of
/// `chunk_drives`, fed in the per-chunk deterministic arrival order, and
/// freed before the next chunk. Per-drive record order is chunk-invariant,
/// so the alert stream matches an unchunked replay of the same scenario;
/// only the interleaving across drives (and therefore resume offsets)
/// depends on chunk_drives.
StreamedFleetReport replay_fleet_streamed(ShardRouter& router,
                                          sim::FleetSimulator& fleet,
                                          const StreamedFleetOptions& options);

/// Knobs for the multi-process replay (`fleet-replay --processes`): the
/// same chunked deterministic stream, but fed through a ShardedClient into
/// per-shard `mfpa shard-serve` processes the caller supervises.
struct MultiprocReplayOptions {
  std::size_t chunk_drives = 4096;
  std::size_t generation_threads = 1;
  /// Per-GLOBAL-shard resume skips (the children's published
  /// resume_records). Same shard-count/chunk_drives caveats as
  /// StreamedFleetOptions.
  std::vector<std::size_t> skip_records;
  /// Shards in the fleet topology (0 = the client's connection count).
  /// Must be set explicitly when feeding through a router endpoint — the
  /// client then has one connection but skips still index by the global
  /// drive hash.
  std::size_t topology_shards = 0;
  /// Crash injection: after this many submitted records (0 = never),
  /// invoke `on_kill` once — the caller SIGKILLs one shard process — and
  /// stop feeding. The uninterrupted record prefix is therefore exact,
  /// which is what makes the resume-and-compare harness deterministic.
  std::size_t kill_after_records = 0;
  std::function<void()> on_kill;
  const volatile std::sig_atomic_t* cancel = nullptr;
};

/// What the multi-process feed measured. Totals come from the final
/// kFlush barrier across every shard (zeroed when the feed was
/// interrupted — a killed topology cannot barrier); alerts live in the
/// children's per-shard alert files, merged after they exit (see
/// merge_alert_files).
struct MultiprocReplayReport {
  FlushAck totals;
  std::size_t records_submitted = 0;
  std::size_t records_skipped = 0;
  std::size_t days_replayed = 0;  ///< per-chunk day passes, not unique days
  std::size_t drives_tracked = 0;
  std::size_t chunks = 0;
  double wall_seconds = 0.0;
  double records_per_sec = 0.0;
  bool interrupted = false;
  /// (drive id, failed) ground truth for drive-level verdicts, resolved by
  /// the caller once the merged alert stream exists.
  std::vector<std::pair<std::uint64_t, bool>> drive_flags;
};

/// Streams the fleet scenario through a shard-aware client into external
/// shard processes. The client must already be connected and handshaken;
/// skip_records.size() must be empty or equal its shard count.
MultiprocReplayReport replay_fleet_multiproc(
    ShardedClient& client, sim::FleetSimulator& fleet,
    const MultiprocReplayOptions& options);

/// Parses and merges per-shard alert files (the `write_alerts_file` CLI
/// format: "<drive_id> <day> <score>" per line) into the canonical fleet
/// order (day, drive id). Scores survive the %.17g round-trip exactly, so
/// re-serializing the merge is byte-identical to a single-process run's
/// alert file. Throws std::runtime_error on an unreadable or malformed
/// file.
std::vector<core::Alert> merge_alert_files(
    const std::vector<std::string>& paths);

}  // namespace mfpa::net
