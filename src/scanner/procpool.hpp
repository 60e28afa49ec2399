// spinscope/scanner/procpool.hpp
//
// Multi-process campaign execution: a supervisor that forks N worker
// processes, each scanning leased chunks into one shared journal directory
// (DESIGN.md §11).
//
// PR 5's in-process supervision survives a chunk whose scan THROWS; it
// cannot survive the failures that dominate week-long full-machine sweeps —
// OOM kills, segfaults, wedged processes. The process pool adds that layer:
// workers are disposable OS processes, their only durable output is
// atomically-published per-chunk record files, and the supervisor's job is
// liveness (heartbeats, kill-on-hang, restart-with-backoff) and lease
// hygiene. Because chunk scans are pure functions of the campaign options
// (DESIGN.md §9) and record publication is an atomic rename, `kill -9` of
// any worker at any instant changes nothing about the eventual output —
// Campaign::reduce folds whatever set of records survived, rescans the
// rest, and produces a byte-identical result to a single-process run.
//
// Division of labour:
//   run_procs()        parent: lease/scan/publish every chunk (the "map")
//   Campaign::reduce   parent, afterwards: ordered merge (the "reduce")
//
// Leases (`chunk-NNNNN.lease`) are an efficiency and liveness mechanism,
// not a correctness one: they stop live workers from duplicating work, and
// their pid + fencing token lets the supervisor re-lease a dead worker's
// chunks without ever sweeping away a live worker's claim. A worker that
// cannot find claimable work waits for its peers; a worker whose process
// keeps dying on the same chunk gets that chunk quarantined by the
// supervisor after a bounded number of incarnations.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "faults/retry_policy.hpp"
#include "scanner/campaign.hpp"
#include "util/time.hpp"

namespace spinscope::scanner {

/// Knobs of one multi-process map pass. All durations are WALL clock — this
/// is host supervision, not simulation.
struct ProcPoolOptions {
    /// Worker processes to fork (>= 1).
    unsigned procs = 2;
    /// Start from a wiped map journal (a fresh campaign). With false, an
    /// existing map journal for the SAME campaign is continued — chunks with
    /// published records are skipped — which is how a killed supervisor's
    /// campaign is picked back up.
    bool fresh = true;
    /// Chunks a worker leases per claim round (>= 1). Larger batches
    /// amortize directory traffic; a worker that trips its soft RSS budget
    /// degrades its batch to 1 instead of dying.
    std::size_t lease_batch = 4;
    /// Worker heartbeat cadence; also the supervisor's poll granularity.
    util::Duration heartbeat_interval = util::Duration::millis(20);
    /// Silence longer than this marks a worker hung: SIGKILL + restart.
    util::Duration hang_deadline = util::Duration::seconds(30);
    /// A lease older than this is stale regardless of its owner pid —
    /// belt-and-braces against pid reuse after a crashed earlier campaign.
    util::Duration lease_ttl = util::Duration::seconds(300);
    /// Process incarnations a single chunk may burn before the supervisor
    /// quarantines it (>= 1): its record is then published as quarantined
    /// placeholders, attributing the repeated worker deaths to the chunk.
    std::uint64_t chunk_attempts = 3;
    /// Restart-with-backoff schedule per worker SLOT: max_attempts is the
    /// total number of process incarnations of one slot (1 = never re-fork).
    /// Backoff jitter draws from RetryPolicy::restart_stream(campaign seed,
    /// slot), so supervision never touches any domain's scan stream.
    faults::RetryPolicy proc_restart{3, util::Duration::millis(10), 2.0,
                                     util::Duration::millis(200), true};
    /// Soft per-worker RSS budget in bytes (0 = off): a worker observing
    /// itself above it shrinks its lease batch to 1 (graceful degradation)
    /// instead of growing until the kernel kills it.
    std::uint64_t rss_soft_budget = 0;
    /// Hard per-worker address-space rlimit in bytes (0 = off). Crossing it
    /// makes allocation fail in the worker — which then dies and is
    /// restarted — rather than taking the whole machine down.
    std::uint64_t rss_hard_limit = 0;
    /// TEST hook: invoked IN THE WORKER PROCESS at lifecycle points —
    /// phase is "claim" (right after a lease is claimed), "scanned" (chunk
    /// scanned, record not yet published) or "published" (record on disk,
    /// lease not yet released). The chaos kill-sweep raises SIGKILL from
    /// here. Keep null in production.
    std::function<void(unsigned slot, const char* phase, std::size_t chunk)>
        worker_event_hook;

    /// Throws std::invalid_argument on nonsensical knobs.
    void validate() const;
};

/// What the supervisor observed across one map pass.
struct ProcPoolReport {
    unsigned procs = 0;
    /// Worker process re-forks (beyond each slot's first incarnation).
    std::uint64_t proc_restarts = 0;
    /// Workers SIGKILLed for missing their hang deadline (subset of the
    /// deaths that produced proc_restarts).
    std::uint64_t hang_kills = 0;
    /// Thread-level scan restarts inside workers (reported over the
    /// heartbeat channel; the in-worker run_supervised analogue).
    std::uint64_t worker_thread_restarts = 0;
    /// Chunks the SUPERVISOR quarantined after chunk_attempts process
    /// incarnations died on them.
    std::uint64_t chunks_quarantined = 0;
    /// Chunks the supervisor scanned inline because every worker slot had
    /// exhausted its restart budget (last-resort completion).
    std::uint64_t chunks_scanned_inline = 0;
    /// Chunk records present in the map journal when the pass finished.
    std::uint64_t chunks_recorded = 0;
    std::uint64_t chunks_total = 0;
    /// Storage-level I/O failures workers reported over the heartbeat
    /// channel (lease claims and record publishes that failed for a real
    /// reason, not a lost race). Nonzero with a complete map pass means the
    /// retry/restart machinery absorbed the faults.
    std::uint64_t io_errors = 0;
    /// The most recent worker-reported I/O failure, with its errno cause —
    /// attribution for postmortems when io_errors > 0.
    std::string last_io_error;
};

/// Runs the map pass: forks `options.procs` workers that lease and scan
/// every chunk of `campaign` into the journal at
/// ScanOptions::journal_dir, supervising them until every chunk has a
/// published record. The campaign's metrics registry (if attached) receives
/// process-level observability — campaign.restarted_procs,
/// campaign.restarted_workers, obs.proc.* gauges — and its trace recorder
/// (if attached) gets wall-clock worker-incarnation lanes; neither perturbs
/// deterministic output (both prefixes are excluded from
/// telemetry::deterministic_csv). Returns once the journal is complete.
///
/// Holds the journal.lock while running. Call Campaign::reduce afterwards
/// for the merged result. Throws std::invalid_argument on bad options or an
/// empty journal_dir, std::runtime_error on supervision failures or on
/// platforms without fork().
ProcPoolReport run_procs(const Campaign& campaign, const ProcPoolOptions& options);

}  // namespace spinscope::scanner
