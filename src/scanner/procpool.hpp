// spinscope/scanner/procpool.hpp
//
// Multi-process campaign execution (DESIGN.md §11): a supervisor forks N
// worker processes, hands each one chunk at a time to scan, and journals the
// records they send back.
//
// Campaign::scan_chunk survives a chunk whose scan THROWS; the process pool
// adds the layer for OOM kills, segfaults and wedged processes. Workers are
// disposable and touch no file; the supervisor is the only scheduler and the
// journal's only writer. Each worker talks to it over one socketpair: `scan
// <c>` out; `start <c>`, then `record <c> <restarts> <rss> <allocs> <alloc
// bytes>` and the chunk's journal frame (frame_record bytes) back. Records
// go through one MapBatchWriter into the same batch files run() writes. A
// worker that dies after `start <c>` before a complete, CRC-valid record of
// c arrived charges c once; at chunk_attempts charges c's quarantine
// placeholder is journaled like any other record. Chunk scans are pure
// (DESIGN.md §9), so `kill -9` of any worker at any instant changes nothing:
// Campaign::reduce afterwards folds the journal into output byte-identical
// to a single-process run. A worker exits on EOF on its channel and, on
// Linux, dies with its supervisor.

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
    /// published records are skipped and the gaps are filled — which is how
    /// a killed campaign is picked back up.
    bool fresh = true;
    /// Silence longer than this from a worker with a chunk in flight marks it
    /// hung: SIGKILL + restart. An idle worker is never hang-killed.
    util::Duration hang_deadline = util::Duration::seconds(30);
    /// Worker deaths mid-scan a single chunk may cause before the supervisor
    /// quarantines it (>= 1): its record is then journaled as quarantined
    /// placeholders, attributing the repeated worker deaths to the chunk.
    std::uint64_t chunk_attempts = 3;
    /// Restart-with-backoff schedule per worker SLOT: max_attempts is the
    /// total number of process incarnations of one slot (1 = never re-fork).
    /// Backoff jitter draws from RetryPolicy::restart_stream(campaign seed,
    /// slot), so supervision never touches any domain's scan stream.
    faults::RetryPolicy proc_restart{3, util::Duration::millis(10), 2.0,
                                     util::Duration::millis(200), true};
    /// TEST hook: invoked IN THE WORKER PROCESS at lifecycle points —
    /// phase is "claim" (chunk assigned, scan not yet started), "scanned"
    /// (chunk scanned, record not yet sent) or "sent" (record written to the
    /// channel). The chaos kill-sweep raises SIGKILL from here. Keep null in
    /// production.
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
    /// Thread-level scan restarts inside workers and the inline pass
    /// (Campaign::scan_chunk's restarts, reported with each record).
    std::uint64_t worker_thread_restarts = 0;
    /// Chunks the SUPERVISOR quarantined after chunk_attempts workers died
    /// mid-scan on them.
    std::uint64_t chunks_quarantined = 0;
    /// Chunks the supervisor scanned inline because every worker slot had
    /// exhausted its restart budget (last-resort completion).
    std::uint64_t chunks_scanned_inline = 0;
    /// Heap allocations and bytes the workers made scanning the chunks whose
    /// records were committed, as each worker reported them with the record
    /// (0 without the allocation probe, telemetry/alloc_interpose.hpp).
    std::uint64_t worker_allocs = 0;
    std::uint64_t worker_alloc_bytes = 0;
    /// Chunk records present in the map journal when the pass finished.
    std::uint64_t chunks_recorded = 0;
    std::uint64_t chunks_total = 0;
    /// Failed batch-file write attempts, retried ones included. Nonzero with
    /// a complete map pass means ScanOptions::journal_retry absorbed the
    /// faults; a failure past the retries refuses the pass.
    std::uint64_t io_errors = 0;
    /// The most recent failed write, with its batch and errno cause —
    /// attribution for postmortems when io_errors > 0.
    std::string last_io_error;
};

/// Runs the map pass: forks `options.procs` workers, hands them every chunk
/// of `campaign` to scan, and journals the records they send back at
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
/// empty journal_dir, std::runtime_error on supervision failures, on a
/// batch publish that fails past ScanOptions::journal_retry (with its errno
/// cause) or on platforms without fork().
ProcPoolReport run_procs(const Campaign& campaign, const ProcPoolOptions& options);

}  // namespace spinscope::scanner
