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
#include <optional>
#include <string>
#include <vector>

#include "bytes/bytes.hpp"
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

/// Redirects a scan follows past the landing page (paper §3.2). A domain
/// makes one attempt per hop, so its scan holds at most kMaxRedirects + 1
/// attempts.
inline constexpr int kMaxRedirects = 3;

/// Knobs of one scan sweep.
struct ScanOptions {
    bool ipv6 = false;
    /// Campaign week (0-based, CW 15/2022 == 0); drives longitudinal churn.
    int week = 0;
    std::uint64_t seed = 0x5ca7;
    /// Safety bound per connection attempt (simulated time); a domain's scan
    /// then takes at most (kMaxRedirects + 1) * attempt_deadline.
    util::Duration attempt_deadline = util::Duration::seconds(60);
    /// Adversarial network fault plan, attached to both directions of every
    /// attempt's path. nullopt attaches nothing; an engaged-but-empty plan
    /// attaches an idle injector, which draws no randomness and therefore
    /// yields byte-identical campaign results.
    std::optional<faults::FaultPlan> fault_plan;
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
    /// publishes and locks. nullptr means the real disk; tests inject
    /// faults::FaultIo. Not owned; must be thread-safe and outlive the
    /// campaign run.
    util::Io* io = nullptr;
    /// Retry schedule for TRANSIENT journal storage errors (wall-clock
    /// backoff; see util::classify_io_error). Non-transient failures degrade
    /// the journal instead of killing the sweep.
    faults::RetryPolicy journal_retry{3, util::Duration::millis(1), 4.0,
                                      util::Duration::millis(20), true};
    /// TEST/FAULT hook: invoked on the worker thread at the start of every
    /// chunk scan execution (with the global chunk index), OUTSIDE the
    /// per-domain isolation — a throw crashes the whole chunk and exercises
    /// Campaign::scan_chunk's restart-then-quarantine. Must be thread-safe;
    /// keep null in production.
    std::function<void(std::size_t chunk)> chunk_fault_hook;

    /// Sanitizes the knobs in place: a non-positive deadline, a zero chunk
    /// size and invalid journal-retry/fault-plan settings
    /// throw std::invalid_argument; finite out-of-range fault-plan
    /// probabilities are clamped into [0, 1]. Campaign's constructor applies
    /// this to its copy.
    void validate();
};

/// Everything recorded about one domain in one sweep.
struct DomainScan {
    std::uint32_t domain_id = 0;
    bool resolved = false;  ///< DNS yielded an address of the scanned family
    /// One trace per connection attempt, in hop order: index 0 is the landing
    /// page, index n the nth redirect target. Each trace carries its
    /// attempt's outcome (qlog::Trace::outcome).
    std::vector<qlog::Trace> connections;
    /// Server fault active during each attempt, indexed like `connections`
    /// (none when healthy, and past the last connection).
    std::array<faults::ServerFaultMode, kMaxRedirects + 1> server_faults{};
    /// Parsed response of the final connection, if any.
    std::optional<ResponseInfo> final_response;
    /// Total simulated time this domain's attempts consumed. Journaled, so a
    /// reduce over a killed run rebuilds the exact flight-recorder timeline.
    util::Duration sim_time = util::Duration::zero();
    /// Set when scanning this domain threw; the domain was skipped, the
    /// sweep continued (graceful degradation). Quarantined chunks produce
    /// placeholder scans with a "chunk quarantined:" prefix here.
    std::string error;

    /// True if any connection completed the QUIC handshake.
    [[nodiscard]] bool quic_ok() const noexcept;
    /// Redirects followed: every connection past the landing page.
    [[nodiscard]] std::uint32_t redirects_followed() const noexcept {
        return connections.empty() ? 0 : static_cast<std::uint32_t>(connections.size() - 1);
    }
};

/// Aggregate snapshot of one sweep — what the scanner actually did (the
/// paper's §3.2-3.3 operational view). Returned by Campaign::run and handed
/// to the periodic progress callback mid-sweep.
struct CampaignStats {
    std::uint64_t domains_scanned = 0;
    std::uint64_t domains_resolved = 0;
    std::uint64_t domains_quic_ok = 0;
    std::uint64_t connections = 0;  ///< attempts incl. redirects
    std::uint64_t redirects_followed = 0;
    std::uint64_t domains_errored = 0;  ///< scan threw; skipped, not fatal
    /// Chunks quarantined after exhausting their restarts (their domains
    /// are counted in domains_quarantined AND domains_errored).
    std::uint64_t chunks_quarantined = 0;
    std::uint64_t domains_quarantined = 0;
    /// Crashed-chunk scan re-executions this run performed (thread-level
    /// restarts inside Campaign::scan_chunk).
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

/// One scanned work chunk: the scans of its domains in domain-id order, the
/// chunk-private telemetry snapshot (telemetry::snapshot form; empty when the
/// campaign has no registry attached or the chunk was quarantined), and for a
/// quarantined chunk the failure note (its scans are then
/// Campaign::quarantine_scans). The one form a chunk takes from
/// Campaign::scan_chunk to the merge, over the run_procs worker channel and
/// in the journal (serialize_chunk_record).
struct ChunkRecord {
    std::size_t chunk_index = 0;
    bool quarantined = false;
    std::string quarantine_error;
    std::vector<DomainScan> scans;
    std::string telemetry_snapshot;
    /// Scan executions that crashed outside the per-domain isolation and
    /// were re-executed. In memory only: not journaled, so a replayed record
    /// reads 0.
    int restarts = 0;
};

/// The older name of ChunkRecord, kept for callers that still use it.
using ScannedChunk = ChunkRecord;

/// Scans the domains of a population.
///
/// The campaign is driven by a web::PopulationModel, not a materialized
/// domain vector: workers regenerate their own chunk's domains on demand
/// (web::PopulationModel::materialize) and discard them once the chunk is
/// merged, so a sweep's RSS is bounded by the chunk size and thread count —
/// never by the universe size.
class Campaign {
public:
    /// Throws std::invalid_argument when `options` fails validation (see
    /// ScanOptions::validate); clampable knobs are sanitized silently.
    Campaign(const web::PopulationModel& model, ScanOptions options)
        : model_{&model}, options_{std::move(options)} {
        options_.validate();
    }

    /// Attaches a metrics registry: every attempt then publishes simulator,
    /// link and connection telemetry plus scanner phase timings into it
    /// (pass nullptr to detach). The registry must outlive the campaign
    /// runs; it is written to even from const scan methods.
    void set_metrics(telemetry::MetricsRegistry* registry) noexcept { metrics_ = registry; }

    /// Attaches a flight recorder: run()/reduce() then record the campaign
    /// timeline into it (pass nullptr to detach; must outlive the runs).
    /// Simulated-time events — chunk spans at cumulative sim offsets plus
    /// quarantine instants — are recorded only on the merge thread and are
    /// byte-identical for every thread count and across kill/reduce
    /// (replayed chunks re-drive identical spans, flagged `"replayed":1`).
    /// Wall-clock worker/merge/journal spans land in the recorder's wall
    /// sidecar. The campaign only records; the owner calls
    /// TraceRecorder::write after the run.
    void set_trace(telemetry::TraceRecorder* trace) noexcept { trace_ = trace; }

    /// The universe this campaign scans (its seed is part of the journal's
    /// campaign identity).
    [[nodiscard]] const web::PopulationModel& population() const noexcept { return *model_; }

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

    /// The quarantine placeholders of one global chunk: one scan per domain,
    /// in domain-id order, whose error is "chunk quarantined: <error>".
    /// Throws std::out_of_range past chunk_count().
    [[nodiscard]] std::vector<DomainScan> quarantine_scans(std::size_t chunk_index,
                                                           const std::string& error) const;

    /// Scans a single domain (resolution, connection, redirects).
    [[nodiscard]] DomainScan scan_domain(const web::Domain& domain) const;

    /// Scans one GLOBAL chunk into journal-ready form: its domains scanned
    /// with per-domain fault isolation over a freshly materialized block,
    /// and its chunk-private telemetry registry snapshotted into the record
    /// (only when a registry is attached to the campaign). This is the unit
    /// of work of every run()/reduce() worker and of the run_procs
    /// supervisor (DESIGN.md §11).
    ///
    /// The one chunk supervisor: an execution that throws OUTSIDE the
    /// per-domain isolation (ScanOptions::chunk_fault_hook fires at entry
    /// with the global chunk index) is re-executed after a jittered backoff
    /// drawn from faults::RetryPolicy::restart_stream(seed, chunk), and a
    /// chunk whose every execution crashed comes back quarantined (see
    /// ChunkRecord) instead of throwing. Throws std::out_of_range for an
    /// index past chunk_count().
    [[nodiscard]] ChunkRecord scan_chunk(std::size_t chunk_index) const;

    /// Scans every domain, streaming results to `sink` in domain-id order
    /// (traces are large; aggregate, then drop them). Returns the sweep's
    /// aggregate stats. The sink contract, shared with reduce(): a scan is
    /// valid until the sink returns; a sink that keeps one moves from it.
    ///
    /// Sharded execution: domains are chunked (ScanOptions::chunk_domains)
    /// and scanned by ScanOptions::threads workers (scan_chunk), each
    /// attempt on its own single-owner netsim::Simulator with telemetry
    /// captured into a per-chunk registry that travels as the record's
    /// snapshot; the calling thread merges chunks strictly in domain-id
    /// order — stats accumulation, telemetry merge_from, sink and progress
    /// all happen there. wall_seconds is aggregated once at merge
    /// time, not per domain. With ScanOptions::journal_dir set, the run
    /// starts a fresh journal there and group-commits each kMapBatchChunks
    /// window of chunk records into one file (scanner::MapBatchWriter)
    /// BEFORE merging them, so a killed run continues with reduce().
    CampaignStats run(const std::function<void(const web::Domain&, DomainScan&&)>& sink) const;

    /// Folds the journal at ScanOptions::journal_dir — the batch files a
    /// killed run() or a run_procs map pass published — into one merged
    /// result: replaying recorded chunks and scanning missing ones in strict
    /// ascending chunk order through the exact merge loop run() uses, so the
    /// sink stream, stats and deterministic telemetry are byte-identical to
    /// an uninterrupted run(). Every recorded chunk is decoded in place into
    /// one reused ChunkRecord (parse_chunk_record), so its scans hand the
    /// sink storage that the next chunk's decode overwrites — run()'s sink
    /// contract: valid until the sink returns, moved from to keep.
    /// Chunks it scans are published back into the journal first
    /// (journal-before-merge, idempotent), so a killed reduce is rerunnable;
    /// a file whose frames fail validation is rescanned whole, and one whose
    /// record fails to parse is rescanned from that record on, then
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
        /// Simulated time the attempt consumed.
        util::Duration sim_elapsed = util::Duration::zero();
    };

    /// scan_domain with telemetry routed into an explicit registry (the
    /// worker's chunk-private one; nullptr disables), so shard workers never
    /// share a registry. scan_domain() delegates here with metrics_.
    [[nodiscard]] DomainScan scan_domain_into(const web::Domain& domain,
                                              telemetry::MetricsRegistry* metrics) const;

    [[nodiscard]] AttemptOutcome run_attempt(const web::Domain& domain,
                                             const std::string& host, int redirect_hop,
                                             bool serve_redirect,
                                             telemetry::MetricsRegistry* metrics) const;

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
