// spinscope/scanner/campaign.hpp
//
// The measurement campaign driver — spinscope's zgrab2 equivalent (paper
// §3.2): issue an HTTP/3-mini request to every target domain, follow up to
// three redirects, and capture a qlog trace per connection.
//
// Each connection attempt runs on its own discrete-event simulator with a
// path sampled from the target's organization profile, a client endpoint
// configured like the paper's adapted quic-go (spin always on), and a server
// endpoint whose spin policy, webserver stack, think times and response
// behaviour come from the population model.

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bytes/bytes.hpp"
#include "core/constrained_monitor.hpp"
#include "faults/faults.hpp"
#include "faults/retry_policy.hpp"
#include "qlog/trace.hpp"
#include "quic/connection.hpp"
#include "scanner/http3_mini.hpp"
#include "telemetry/metrics.hpp"
#include "util/io.hpp"
#include "web/population.hpp"

namespace spinscope::telemetry {
class TraceRecorder;
}

namespace spinscope::scanner {

/// Knobs of one scan sweep.
struct ScanOptions {
    bool ipv6 = false;
    /// Campaign week (0-based, CW 15/2022 == 0); drives longitudinal churn.
    int week = 0;
    int max_redirects = 3;
    std::uint64_t seed = 0x5ca7;
    /// Per-packet, per-direction network impairments (calibrated so that
    /// R-vs-S spin results differ for ~0.3 % of connections, §5.2).
    double loss_rate = 0.0004;
    double reorder_rate = 0.0015;
    /// The scanner client spins unconditionally (lottery off), mirroring the
    /// paper's measurement client; what is measured is the server's policy.
    quic::SpinConfig client_spin{quic::SpinPolicy::spin, 0, quic::SpinPolicy::always_zero};
    /// Safety bound per connection attempt (simulated time).
    util::Duration attempt_deadline = util::Duration::seconds(60);
    /// Watchdog budget per DOMAIN (simulated time across all of its hops,
    /// retries and backoffs). A domain whose simulations exceed it is cut
    /// off: the running attempt ends with outcome watchdog_cancelled and no
    /// further attempts are made. The default is far above any legitimate
    /// scan (worst hostile-retry schedules stay under ~15 minutes), so it
    /// only ever fires on genuinely hung simulations.
    util::Duration domain_deadline = util::Duration::seconds(3600);
    /// Cap on per-domain attempt records (and their traces). Overflow is
    /// counted in DomainScan::attempts_truncated instead of growing the scan
    /// without bound; unreachable under sane retry/redirect settings.
    std::size_t max_attempt_records = 256;
    /// Adversarial network fault plan, attached to both directions of every
    /// attempt's path. nullopt attaches nothing; an engaged-but-empty plan
    /// attaches an idle injector, which draws no randomness and therefore
    /// yields byte-identical campaign results.
    std::optional<faults::FaultPlan> fault_plan;
    /// Per-hop retry schedule. The default (single attempt, no retries) is
    /// byte-identical to the pre-retry scanner.
    faults::RetryPolicy retry{};
    /// Worker threads for run(); 0 = one per hardware thread. Every
    /// per-domain observable is derived from domain-keyed RNG sub-streams
    /// (util::derive_stream_seed), so stats, scan streams and deterministic
    /// telemetry are byte-identical for every thread count (DESIGN.md §9).
    unsigned threads = 1;
    /// Domains per shard work chunk (>= 1). Changing it never changes scan
    /// results; only histogram `sum` telemetry may drift in the last ulp
    /// because partial sums regroup (see telemetry::deterministic_csv).
    std::size_t chunk_domains = 16;
    /// Crash-safe journal directory (DESIGN.md §11); empty disables
    /// journaling. run() starts a FRESH journal here (removing a previous
    /// one); reduce() folds what a killed run or a run_procs map pass left
    /// behind and scans the rest.
    std::string journal_dir;
    /// Storage seam for every journal write (DESIGN.md §16): record
    /// publishes, leases, locks. nullptr means the real disk; tests inject
    /// faults::FaultIo. Not owned; must be thread-safe and outlive the
    /// campaign run.
    util::Io* io = nullptr;
    /// Retry schedule for TRANSIENT journal storage errors (wall-clock
    /// backoff; see util::classify_io_error). Non-transient failures degrade
    /// the journal instead of killing the sweep.
    faults::RetryPolicy journal_retry{3, util::Duration::millis(1), 4.0,
                                      util::Duration::millis(20), true};
    /// Supervisor restart schedule for a chunk whose scan crashed outside
    /// the per-domain isolation: max_attempts is the TOTAL number of scan
    /// executions per chunk before it is quarantined (1 = quarantine on the
    /// first crash). Backoffs are real wall-clock sleeps on the worker, kept
    /// small by default.
    faults::RetryPolicy worker_restart{2, util::Duration::millis(10), 2.0,
                                       util::Duration::millis(100), true};
    /// Optional constrained on-path observer (DESIGN.md §14): when engaged,
    /// every attempt's server→client direction is tapped by a per-DOMAIN
    /// core::ConstrainedMonitor and its table counters are published as
    /// observer.* telemetry after the domain completes. Per-domain scope
    /// keeps the counters a pure function of the domain's own packet stream,
    /// so they merge deterministically at every thread/chunk/process count
    /// and may appear in telemetry::deterministic_csv (the golden fixture
    /// pins them).
    std::optional<core::ConstrainedConfig> observer;
    /// TEST/FAULT hook: invoked on the worker thread at the start of every
    /// chunk scan execution (with the global chunk index), OUTSIDE the
    /// per-domain isolation — a throw crashes the whole chunk and exercises
    /// the supervisor (restart, then quarantine). Must be thread-safe; keep
    /// null in production.
    std::function<void(std::size_t chunk)> chunk_fault_hook;

    /// Sanitizes the knobs in place: NaN probabilities, a negative redirect
    /// budget, a non-positive deadline and invalid retry/fault-plan settings
    /// throw std::invalid_argument; finite out-of-range probabilities are
    /// clamped into [0, 1]. Campaign's constructor applies this to its copy.
    void validate();
};

/// Everything recorded about one domain in one sweep.
struct DomainScan {
    /// Error taxonomy of one connection attempt (one entry per trace in
    /// `connections`, same order).
    struct AttemptRecord {
        int redirect_hop = 0;  ///< 0 = landing page, n = nth redirect target
        int retry = 0;         ///< 0 = first try at this hop
        qlog::ConnectionOutcome outcome = qlog::ConnectionOutcome::aborted;
        /// Simulated-time backoff the retry policy waited before this attempt.
        util::Duration backoff = util::Duration::zero();
        /// Server fault active during this attempt (none when healthy).
        faults::ServerFaultMode server_fault = faults::ServerFaultMode::none;
    };

    std::uint32_t domain_id = 0;
    bool resolved = false;  ///< DNS yielded an address of the scanned family
    /// One trace per connection attempt (retries and followed redirects).
    std::vector<qlog::Trace> connections;
    /// Per-attempt taxonomy, parallel to `connections`.
    std::vector<AttemptRecord> attempts;
    /// Parsed response of the final connection, if any.
    std::optional<ResponseInfo> final_response;
    std::uint32_t redirects_followed = 0;
    std::uint64_t retries = 0;  ///< attempts beyond the first, any hop
    /// A hop whose first try failed later succeeded on a retry.
    bool recovered_by_retry = false;
    /// Attempts made but not recorded because ScanOptions::max_attempt_records
    /// was reached (0 for every sane scan).
    std::uint64_t attempts_truncated = 0;
    /// Total simulated time this domain consumed (every attempt plus every
    /// retry backoff — the watchdog's accounting). Journaled, so a reduce
    /// over a killed run rebuilds the exact flight-recorder timeline.
    util::Duration sim_time = util::Duration::zero();
    /// Set when scanning this domain threw; the domain was skipped, the
    /// sweep continued (graceful degradation). Quarantined chunks produce
    /// placeholder scans with a "chunk quarantined:" prefix here.
    std::string error;

    /// True if any connection completed the QUIC handshake.
    [[nodiscard]] bool quic_ok() const noexcept;
};

/// Aggregate snapshot of one sweep — what the scanner actually did (the
/// paper's §3.2-3.3 operational view). Returned by Campaign::run and handed
/// to the periodic progress callback mid-sweep.
struct CampaignStats {
    std::uint64_t domains_scanned = 0;
    std::uint64_t domains_resolved = 0;
    std::uint64_t domains_quic_ok = 0;
    std::uint64_t connections = 0;  ///< attempts incl. retries and redirects
    std::uint64_t redirects_followed = 0;
    std::uint64_t retries = 0;  ///< attempts beyond the first at some hop
    std::uint64_t domains_recovered_by_retry = 0;
    std::uint64_t domains_errored = 0;  ///< scan threw; skipped, not fatal
    /// Chunks the supervisor quarantined after exhausting restarts (their
    /// domains are counted in domains_quarantined AND domains_errored).
    std::uint64_t chunks_quarantined = 0;
    std::uint64_t domains_quarantined = 0;
    /// Crashed-chunk scan re-executions performed by the in-process
    /// supervisor (thread-level restarts, run_supervised).
    std::uint64_t worker_restarts = 0;
    /// Worker PROCESS re-forks performed by the multi-process supervisor
    /// (scanner::run_procs). Always 0 for in-process runs; stitched in by
    /// the caller after a run_procs + reduce pair (reduce itself cannot
    /// observe process deaths — they happened in an earlier pass).
    std::uint64_t proc_restarts = 0;
    /// Chunk records this run published to the journal so far (0 without
    /// journaling).
    std::uint64_t journal_records_appended = 0;
    /// The journal hit a non-transient storage error mid-sweep and publishing
    /// stopped while scanning continued — the sweep's OUTPUT is complete and
    /// correct, but the journal on disk holds only the chunks published
    /// before the error (a later reduce rescans the rest). Also surfaced as
    /// `campaign.journal.degraded` telemetry.
    bool journal_degraded = false;
    /// The attributed cause of the degrade (empty when not degraded).
    std::string journal_degraded_error;
    /// Connection attempts by qlog::ConnectionOutcome (index via the enum).
    std::array<std::uint64_t, qlog::kConnectionOutcomeCount> outcomes{};
    /// Connection attempts by active faults::ServerFaultMode (index 0 =
    /// healthy server).
    std::array<std::uint64_t, faults::kServerFaultModeCount> server_faults{};
    /// Host wall-clock seconds spent in run() so far.
    double wall_seconds = 0.0;

    [[nodiscard]] std::uint64_t outcome(qlog::ConnectionOutcome o) const noexcept {
        return outcomes[static_cast<std::size_t>(o)];
    }
    /// Scan throughput; 0 before any wall time elapsed.
    [[nodiscard]] double domains_per_sec() const noexcept {
        return wall_seconds > 0.0 ? static_cast<double>(domains_scanned) / wall_seconds : 0.0;
    }
    /// Share of resolved domains where some connection completed QUIC.
    [[nodiscard]] double quic_ok_rate() const noexcept {
        return domains_resolved > 0
                   ? static_cast<double>(domains_quic_ok) / static_cast<double>(domains_resolved)
                   : 0.0;
    }

    /// Aligned-table rendering (throughput, rates, outcome breakdown).
    [[nodiscard]] std::string render() const;
};

/// One chunk's worth of scan output in journal-ready form: the scans of the
/// chunk's domains in domain-id order plus the chunk-private telemetry
/// snapshot (empty when the campaign has no registry attached). This is what
/// a multi-process worker publishes as one journal record
/// (scanner::run_procs) and what Campaign::reduce folds back together.
struct ScannedChunk {
    std::vector<DomainScan> scans;
    std::string telemetry_snapshot;
};

/// Scans the domains of a population.
///
/// The campaign is driven by a web::PopulationModel, not a materialized
/// domain vector: workers regenerate their own chunk's domains on demand
/// (web::PopulationModel::materialize) and discard them once the chunk is
/// merged, so a sweep's RSS is bounded by the chunk size and thread count —
/// never by the universe size. An eager web::Population is accepted for
/// convenience and used only through its model.
class Campaign {
public:
    /// Throws std::invalid_argument when `options` fails validation (see
    /// ScanOptions::validate); clampable knobs are sanitized silently.
    Campaign(const web::PopulationModel& model, ScanOptions options)
        : model_{&model}, options_{std::move(options)} {
        options_.validate();
    }

    /// Convenience overload for callers that hold an eager Population; the
    /// campaign never touches the materialized domains, only the model.
    Campaign(const web::Population& population, ScanOptions options)
        : Campaign{population.model(), std::move(options)} {}

    /// Attaches a metrics registry: every attempt then publishes simulator,
    /// link and connection telemetry plus scanner phase timings into it
    /// (pass nullptr to detach). The registry must outlive the campaign
    /// runs; it is written to even from const scan methods.
    void set_metrics(telemetry::MetricsRegistry* registry) noexcept { metrics_ = registry; }

    /// Attaches a flight recorder: run()/reduce() then record the campaign
    /// timeline into it (pass nullptr to detach; must outlive the runs).
    /// Simulated-time events — chunk spans at cumulative sim offsets plus
    /// retry/watchdog/quarantine instants — are recorded only on the merge
    /// thread and are byte-identical for every thread count and across
    /// kill/reduce (replayed chunks re-drive identical spans, flagged
    /// `"replayed":1`). Wall-clock worker/merge/journal spans land in the
    /// recorder's wall sidecar. The campaign only records; the owner calls
    /// TraceRecorder::write after the run.
    void set_trace(telemetry::TraceRecorder* trace) noexcept { trace_ = trace; }

    /// Number of domains a run() will scan (progress/ETA sizing).
    [[nodiscard]] std::size_t domain_count() const { return model_->domain_count(); }

    /// Installs a progress callback fired every `every_n` scanned domains
    /// during run() (0 disables). The callback always runs on the thread
    /// that called run() (the merge thread) — never on a shard worker — and
    /// sees a monotonic point-in-time CampaignStats snapshot: every field,
    /// including wall_seconds, is non-decreasing across consecutive firings,
    /// and domains_scanned counts in merge (domain-id) order.
    void set_progress(std::uint64_t every_n,
                      std::function<void(const CampaignStats&)> callback) {
        progress_every_ = every_n;
        progress_ = std::move(callback);
    }

    /// Number of work chunks a run() will process (chunk geometry is a pure
    /// function of domain_count and ScanOptions::chunk_domains).
    [[nodiscard]] std::size_t chunk_count() const;

    /// Domain ids of one global chunk in scan order — what quarantine
    /// placeholder records need. Throws std::out_of_range past chunk_count().
    [[nodiscard]] std::vector<std::uint32_t> chunk_domain_ids(std::size_t chunk_index) const;

    /// Scans a single domain (resolution, connection, redirects).
    [[nodiscard]] DomainScan scan_domain(const web::Domain& domain) const;

    /// Scans one GLOBAL chunk into journal-ready form: the chunk scan run()
    /// merges, with its chunk-private telemetry registry snapshotted (only
    /// when a registry is attached to the campaign) — byte-identical to what
    /// run() produces and journals for the same chunk. This is the unit of
    /// work a multi-process worker executes under a lease (DESIGN.md §11).
    /// ScanOptions::chunk_fault_hook fires at entry with the global chunk
    /// index, OUTSIDE the per-domain isolation. Throws std::out_of_range for
    /// an index past chunk_count().
    [[nodiscard]] ScannedChunk scan_chunk(std::size_t chunk_index) const;

    /// Scans every domain, streaming results to `sink` in domain-id order
    /// (traces are large; aggregate, then drop them). Returns the sweep's
    /// aggregate stats.
    ///
    /// Sharded execution: domains are chunked (ScanOptions::chunk_domains)
    /// and scanned by ScanOptions::threads workers, each attempt on its own
    /// single-owner netsim::Simulator with telemetry captured into a
    /// per-chunk registry; the calling thread merges chunks strictly in
    /// domain-id order — stats accumulation, telemetry merge_from, sink and
    /// progress all happen there. wall_seconds is aggregated once at merge
    /// time, not per domain. With ScanOptions::journal_dir set, the run
    /// starts a fresh journal there and group-commits every
    /// kMapBatchChunks consecutive chunk records into one file BEFORE
    /// merging them, so a killed run continues with reduce().
    CampaignStats run(const std::function<void(const web::Domain&, DomainScan&&)>& sink) const;

    /// Folds the journal at ScanOptions::journal_dir — the record files a
    /// killed run() or a run_procs map pass published — into one merged
    /// result: replaying recorded chunks and scanning missing ones in strict
    /// ascending chunk order through the exact merge loop run() uses, so the
    /// sink stream, stats and deterministic telemetry are byte-identical to
    /// an uninterrupted run(). Chunks it scans are published back into the
    /// journal first (journal-before-merge, idempotent), so a killed reduce
    /// is rerunnable; a file that fails validation is rescanned and
    /// republished. An empty or headerless directory degenerates to a full
    /// scan that builds the journal. Holds the journal.lock for the
    /// duration; throws std::invalid_argument when journal_dir is empty or
    /// the journal belongs to a different campaign, std::runtime_error when
    /// the directory is locked by a live campaign.
    CampaignStats reduce(
        const std::function<void(const web::Domain&, DomainScan&&)>& sink) const;

    [[nodiscard]] const ScanOptions& options() const noexcept { return options_; }
    /// The attached instrumentation sinks (nullptr when detached) — read by
    /// the multi-process supervisor, which publishes its own process-level
    /// observations (obs.proc.*, campaign.restarted_procs) into the same
    /// registry and recorder the campaign uses.
    [[nodiscard]] telemetry::MetricsRegistry* metrics() const noexcept { return metrics_; }
    [[nodiscard]] telemetry::TraceRecorder* trace() const noexcept { return trace_; }

private:
    struct AttemptOutcome {
        qlog::Trace trace;
        std::optional<ResponseInfo> response;
        faults::ServerFaultMode server_fault = faults::ServerFaultMode::none;
        /// Simulated time the attempt consumed (watchdog accounting).
        util::Duration sim_elapsed = util::Duration::zero();
    };

    /// One scanned chunk as the merge loop receives it: the scans in
    /// domain-id order and the chunk-private telemetry registry (null when
    /// the campaign has no registry), handed over in memory.
    struct ChunkScan {
        std::vector<DomainScan> scans;
        std::unique_ptr<telemetry::MetricsRegistry> metrics;
    };

    /// The chunk scan behind scan_chunk() and every run()/reduce() worker:
    /// per-domain fault isolation over a freshly materialized block, with a
    /// chunk-private registry and buffer pool. Fires chunk_fault_hook first.
    [[nodiscard]] ChunkScan scan_chunk_into(std::size_t chunk_index) const;

    /// scan_domain with telemetry routed into an explicit registry (the
    /// worker's chunk-private one; nullptr disables), so shard workers never
    /// share a registry. `pool` is the chunk-private datagram buffer pool:
    /// like the registry it is owned by exactly one worker at a time, so no
    /// locking — and unlike the registry it may be null only for callers
    /// that accept per-datagram heap traffic. scan_domain() delegates here
    /// with metrics_ and a transient local pool.
    [[nodiscard]] DomainScan scan_domain_into(const web::Domain& domain,
                                              telemetry::MetricsRegistry* metrics,
                                              bytes::BufferPool* pool) const;

    /// `deadline` is the effective simulated-time bound for this attempt:
    /// min(attempt_deadline, remaining domain watchdog budget). When the
    /// budget (not the per-attempt deadline) is what cut the simulation
    /// short, the outcome is watchdog_cancelled instead of attempt_timeout.
    /// `observer` is the domain's constrained monitor (nullptr when
    /// ScanOptions::observer is disengaged); it taps the return link.
    [[nodiscard]] AttemptOutcome run_attempt(const web::Domain& domain,
                                             const std::string& host, int redirect_hop,
                                             int retry, bool serve_redirect,
                                             util::Duration deadline,
                                             telemetry::MetricsRegistry* metrics,
                                             bytes::BufferPool* pool,
                                             core::ConstrainedMonitor* observer) const;

    /// The one merge loop: replays the journal's recorded chunks
    /// (`reuse_journal`, reduce) or starts it fresh (run), scans every chunk
    /// not recorded, and publishes when journaling.
    CampaignStats run_impl(const std::function<void(const web::Domain&, DomainScan&&)>& sink,
                           bool reuse_journal) const;

    const web::PopulationModel* model_;
    ScanOptions options_;
    /// Not owned; written to from const scan methods (instrumentation sink,
    /// not campaign state).
    telemetry::MetricsRegistry* metrics_ = nullptr;
    /// Not owned; recorded into from const run methods (same sink contract
    /// as metrics_).
    telemetry::TraceRecorder* trace_ = nullptr;
    std::uint64_t progress_every_ = 0;
    std::function<void(const CampaignStats&)> progress_;
};

}  // namespace spinscope::scanner
