// Multi-process campaign suite (DESIGN.md §11): chunk leases and fencing
// tokens, the shared journal, journal.lock ownership, the fork-based
// worker pool, and the chaos kill-sweep.
//
// The contract under test: `kill -9` of any worker at any instant changes
// nothing about the output — Campaign::reduce over the shared map journal
// produces sink streams, stats and deterministic telemetry byte-identical to
// a single-process Campaign::run, at every worker and thread count.

#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "golden.hpp"
#include "scanner/campaign.hpp"
#include "scanner/journal.hpp"
#include "scanner/procpool.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "util/atomic_file.hpp"
#include "util/proc.hpp"
#include "web/population.hpp"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace spinscope::scanner {
namespace {

using spinscope::testing::render_scan_stream;

// ~110 domains at seed 1 — 7 chunks at the default chunk_domains=16, enough
// chunks for a meaningful kill sweep while each pass stays fast.
web::Population tiny_population() { return web::Population{{2'000'000.0, 1}}; }

class ProcPoolTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("spinscope_procpool_test_" +
                std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::filesystem::path dir_;
};

CampaignHeader sample_header() {
    CampaignHeader header;
    header.seed = 0xbee5;
    header.week = 2;
    header.ipv6 = false;
    header.chunk_domains = 16;
    header.domain_count = 110;
    header.has_telemetry = true;
    return header;
}

struct SweepResult {
    std::string stream;                ///< concatenated render_scan_stream, sink order
    std::vector<std::uint32_t> order;  ///< domain ids in sink order
    CampaignStats stats;
    std::string telemetry;  ///< telemetry::deterministic_csv
};

void expect_same_stats(const CampaignStats& a, const CampaignStats& b) {
    EXPECT_EQ(a.domains_scanned, b.domains_scanned);
    EXPECT_EQ(a.domains_resolved, b.domains_resolved);
    EXPECT_EQ(a.domains_quic_ok, b.domains_quic_ok);
    EXPECT_EQ(a.connections, b.connections);
    EXPECT_EQ(a.redirects_followed, b.redirects_followed);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.domains_recovered_by_retry, b.domains_recovered_by_retry);
    EXPECT_EQ(a.domains_errored, b.domains_errored);
    EXPECT_EQ(a.outcomes, b.outcomes);
    EXPECT_EQ(a.server_faults, b.server_faults);
}

SweepResult run_single_process(const web::Population& population,
                               const ScanOptions& options) {
    Campaign campaign{population, options};
    telemetry::MetricsRegistry registry;
    campaign.set_metrics(&registry);
    SweepResult result;
    result.stats = campaign.run([&](const web::Domain& domain, DomainScan&& scan) {
        result.order.push_back(domain.id);
        result.stream += render_scan_stream(scan);
    });
    result.telemetry = telemetry::deterministic_csv(registry);
    return result;
}

/// Fast supervision knobs for tests: snappy heartbeats, millisecond backoffs.
ProcPoolOptions fast_pool(unsigned procs) {
    ProcPoolOptions pool;
    pool.procs = procs;
    pool.heartbeat_interval = util::Duration::millis(2);
    pool.proc_restart.initial_backoff = util::Duration::millis(1);
    pool.proc_restart.max_backoff = util::Duration::millis(2);
    return pool;
}

/// One full multi-process pass: run_procs over the map journal, then reduce.
/// `report`/`registry_csv` outputs are optional observability taps.
SweepResult run_multi_process(const web::Population& population,
                              const ScanOptions& options,
                              const ProcPoolOptions& pool,
                              ProcPoolReport* report_out = nullptr,
                              telemetry::MetricsRegistry* registry_out = nullptr) {
    Campaign campaign{population, options};
    telemetry::MetricsRegistry local;
    telemetry::MetricsRegistry* registry =
        registry_out != nullptr ? registry_out : &local;
    campaign.set_metrics(registry);
    const ProcPoolReport report = run_procs(campaign, pool);
    if (report_out != nullptr) *report_out = report;
    SweepResult result;
    result.stats = campaign.reduce([&](const web::Domain& domain, DomainScan&& scan) {
        result.order.push_back(domain.id);
        result.stream += render_scan_stream(scan);
    });
    result.stats.proc_restarts = report.proc_restarts;
    result.telemetry = telemetry::deterministic_csv(*registry);
    return result;
}

void expect_same_sweep(const SweepResult& got, const SweepResult& want,
                       const std::string& label) {
    EXPECT_EQ(got.order, want.order) << label;
    EXPECT_EQ(got.stream, want.stream) << label;
    EXPECT_EQ(got.telemetry, want.telemetry) << label;
    expect_same_stats(got.stats, want.stats);
}

// --- Chunk leases ------------------------------------------------------------

TEST_F(ProcPoolTest, LeasePayloadRoundTripsAndRejectsGarbage) {
    ChunkLease lease;
    lease.chunk_index = 42;
    lease.pid = 1234;
    lease.token = 0xdeadbeef;
    lease.attempts = 3;
    const auto parsed = parse_lease(serialize_lease(lease));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->chunk_index, 42u);
    EXPECT_EQ(parsed->pid, 1234);
    EXPECT_EQ(parsed->token, 0xdeadbeefu);
    EXPECT_EQ(parsed->attempts, 3u);

    EXPECT_FALSE(parse_lease("").has_value());
    EXPECT_FALSE(parse_lease("lease chunk=1\n").has_value());
    EXPECT_FALSE(parse_lease("not a lease at all").has_value());
}

TEST_F(ProcPoolTest, LeaseClaimIsExclusiveAndReleaseIsTokenFenced) {
    ChunkLease first;
    first.chunk_index = 7;
    first.pid = util::current_pid();
    first.token = 100;
    first.attempts = 1;
    ASSERT_TRUE(claim_lease(dir_, first));

    // The claim is exclusive: a second incarnation cannot steal it.
    ChunkLease second = first;
    second.token = 101;
    second.attempts = 2;
    EXPECT_FALSE(claim_lease(dir_, second));

    // Fencing: releasing with the WRONG token is a no-op — the lease a
    // wrongly-declared-dead worker re-claimed must survive a stale sweeper.
    EXPECT_FALSE(release_lease(dir_, 7, 999));
    const auto still = read_lease(dir_, 7);
    ASSERT_TRUE(still.has_value());
    EXPECT_EQ(still->token, 100u);

    EXPECT_TRUE(release_lease(dir_, 7, 100));
    EXPECT_FALSE(read_lease(dir_, 7).has_value());
    // Releasing an absent lease reports "gone", so sweepers are idempotent.
    EXPECT_TRUE(release_lease(dir_, 7, 100));

    // A garbled lease file blocks nobody: token 0 breaks it.
    ASSERT_TRUE(util::create_file_exclusive(lease_path(dir_, 9), "garbage\n"));
    EXPECT_FALSE(read_lease(dir_, 9).has_value());
    EXPECT_FALSE(release_lease(dir_, 9, 55)) << "a real token must not match garbage";
    EXPECT_TRUE(release_lease(dir_, 9, 0));
    EXPECT_FALSE(std::filesystem::exists(lease_path(dir_, 9)));
}

// --- Map-layout journal ------------------------------------------------------

TEST_F(ProcPoolTest, MapJournalRoundTripsChunksInAnyPublishOrder) {
    const CampaignHeader header = sample_header();
    const auto map_dir = dir_ / "map";
    init_map_journal(map_dir, header, /*wipe=*/true);

    // Publish out of order, as racing workers do.
    for (const std::size_t c : {4u, 0u, 2u}) {
        ChunkRecord record;
        record.chunk_index = c;
        DomainScan scan;
        scan.domain_id = static_cast<std::uint32_t>(10 + c);
        scan.resolved = true;
        record.scans.push_back(std::move(scan));
        record.telemetry_snapshot = "counter x " + std::to_string(c) + "\n";
        ASSERT_TRUE(write_map_chunk(map_dir, record));
    }

    const MapReplayResult replay = read_map_journal(map_dir);
    ASSERT_TRUE(replay.has_header);
    EXPECT_TRUE(replay.header == header);
    EXPECT_EQ(replay.corrupt_chunks, 0u);
    ASSERT_EQ(replay.chunks.size(), 3u);
    EXPECT_EQ(replay.chunks[0].chunk_index, 0u);
    EXPECT_EQ(replay.chunks[1].chunk_index, 2u);
    EXPECT_EQ(replay.chunks[2].chunk_index, 4u);

    EXPECT_TRUE(read_map_chunk(map_dir, 2).has_value());
    EXPECT_FALSE(read_map_chunk(map_dir, 3).has_value());
}

TEST_F(ProcPoolTest, MapJournalTreatsCorruptRecordsAsUnscanned) {
    const auto map_dir = dir_ / "map";
    init_map_journal(map_dir, sample_header(), /*wipe=*/true);
    ChunkRecord record;
    record.chunk_index = 1;
    ASSERT_TRUE(write_map_chunk(map_dir, record));

    // Flip a payload byte: the frame CRC fails, the chunk reads as absent.
    const auto path = map_chunk_path(map_dir, 1);
    const auto size = std::filesystem::file_size(path);
    {
        std::fstream file{path, std::ios::binary | std::ios::in | std::ios::out};
        file.seekp(static_cast<std::streamoff>(size - 1));
        file.put('\xff');
    }
    EXPECT_FALSE(read_map_chunk(map_dir, 1).has_value());
    const MapReplayResult replay = read_map_journal(map_dir);
    EXPECT_TRUE(replay.chunks.empty());
    EXPECT_EQ(replay.corrupt_chunks, 1u);
}

TEST_F(ProcPoolTest, MapJournalInitRejectsAForeignHeaderWithoutWipe) {
    const auto map_dir = dir_ / "map";
    init_map_journal(map_dir, sample_header(), /*wipe=*/true);
    CampaignHeader other = sample_header();
    other.seed ^= 1;
    EXPECT_THROW(init_map_journal(map_dir, other, /*wipe=*/false),
                 std::invalid_argument);
    // A wipe makes it a fresh campaign's journal: no objection.
    init_map_journal(map_dir, other, /*wipe=*/true);
    const MapReplayResult replay = read_map_journal(map_dir);
    ASSERT_TRUE(replay.has_header);
    EXPECT_TRUE(replay.header == other);
}

// --- journal.lock ------------------------------------------------------------

TEST_F(ProcPoolTest, CampaignsRefuseAJournalDirLockedByALiveProcess) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "locked").string();
    std::filesystem::create_directories(options.journal_dir);
    {
        // A live foreign owner (pid 1 always exists and is never us).
        std::ofstream out{journal_lock_path(options.journal_dir)};
        out << "1\n";
    }
    Campaign campaign{population, options};
    const auto sink = [](const web::Domain&, DomainScan&&) {};
    try {
        (void)campaign.run(sink);
        FAIL() << "run() must refuse a journal dir owned by a live process";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string{e.what()}.find("in use"), std::string::npos) << e.what();
    }
    EXPECT_THROW((void)campaign.reduce(sink), std::runtime_error);
#ifndef _WIN32
    EXPECT_THROW((void)run_procs(campaign, fast_pool(1)), std::runtime_error);
#endif

    // A dead owner's lock is stale: the campaign breaks it and proceeds.
    {
        std::ofstream out{journal_lock_path(options.journal_dir), std::ios::trunc};
        out << "999999999\n";
    }
    EXPECT_NO_THROW((void)campaign.run(sink));
    EXPECT_FALSE(std::filesystem::exists(journal_lock_path(options.journal_dir)))
        << "the lock must be released after the run";
}

#ifndef _WIN32

// --- Multi-process byte-identity ---------------------------------------------

TEST_F(ProcPoolTest, MapReducePassIsByteIdenticalAcrossProcsAndThreads) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.retry.max_attempts = 2;  // exercise backoff streams
    for (const unsigned threads : {1u, 2u}) {
        ScanOptions base = options;
        base.threads = threads;
        const SweepResult baseline = run_single_process(population, base);
        ASSERT_GT(baseline.order.size(), 80u);
        for (const unsigned procs : {1u, 2u, 4u}) {
            ScanOptions multi = base;
            multi.journal_dir =
                (dir_ / ("map_" + std::to_string(threads) + "_" + std::to_string(procs)))
                    .string();
            ProcPoolReport report;
            const SweepResult reduced =
                run_multi_process(population, multi, fast_pool(procs), &report);
            const std::string label =
                "threads=" + std::to_string(threads) + " procs=" + std::to_string(procs);
            expect_same_sweep(reduced, baseline, label);
            EXPECT_EQ(report.chunks_recorded, report.chunks_total) << label;
            EXPECT_EQ(report.proc_restarts, 0u) << label;
            EXPECT_EQ(reduced.stats.proc_restarts, 0u) << label;
        }
    }
}

TEST_F(ProcPoolTest, ReducedSweepDeliversEagerPopulationBytes) {
    // The §15 purity contract across process boundaries: workers materialize
    // their chunks independently, yet every domain the reduce delivers must
    // match the eager wrapper's resident vector byte for byte, and the
    // deterministic telemetry must match the in-process streaming run.
    const web::Population population = tiny_population();
    ScanOptions options;
    const SweepResult baseline = run_single_process(population, options);
    for (const unsigned procs : {1u, 2u}) {
        ScanOptions multi = options;
        multi.journal_dir = (dir_ / ("eager_" + std::to_string(procs))).string();
        Campaign campaign{population.model(), multi};
        telemetry::MetricsRegistry registry;
        campaign.set_metrics(&registry);
        (void)run_procs(campaign, fast_pool(procs));
        SweepResult reduced;
        std::size_t byte_identical = 0;
        reduced.stats = campaign.reduce([&](const web::Domain& domain, DomainScan&& scan) {
            if (std::memcmp(&domain, &population.domains()[domain.id],
                            sizeof(web::Domain)) == 0) {
                ++byte_identical;
            }
            reduced.order.push_back(domain.id);
            reduced.stream += render_scan_stream(scan);
        });
        reduced.telemetry = telemetry::deterministic_csv(registry);
        EXPECT_EQ(byte_identical, population.domains().size()) << "procs=" << procs;
        expect_same_sweep(reduced, baseline, "eager-bytes procs=" + std::to_string(procs));
    }
}

TEST_F(ProcPoolTest, ReduceOfAnEmptyJournalDegeneratesToAFullScan) {
    const web::Population population = tiny_population();
    ScanOptions options;
    const SweepResult baseline = run_single_process(population, options);

    ScanOptions reduced_options = options;
    reduced_options.threads = 2;
    reduced_options.journal_dir = (dir_ / "empty_map").string();
    Campaign campaign{population, reduced_options};
    telemetry::MetricsRegistry registry;
    campaign.set_metrics(&registry);
    SweepResult reduced;
    reduced.stats = campaign.reduce([&](const web::Domain& domain, DomainScan&& scan) {
        reduced.order.push_back(domain.id);
        reduced.stream += render_scan_stream(scan);
    });
    reduced.telemetry = telemetry::deterministic_csv(registry);
    expect_same_sweep(reduced, baseline, "reduce-from-empty");
}

TEST_F(ProcPoolTest, ReduceRescansDeletedChunksAndIsRerunnable) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.threads = 2;
    options.journal_dir = (dir_ / "partial").string();
    const SweepResult baseline = run_single_process(population, options);

    Campaign campaign{population, options};
    telemetry::MetricsRegistry registry;
    campaign.set_metrics(&registry);
    (void)run_procs(campaign, fast_pool(2));
    // Simulate lost records (e.g. chunks a crashed campaign never scanned).
    ASSERT_TRUE(std::filesystem::remove(map_chunk_path(options.journal_dir, 1)));
    ASSERT_TRUE(std::filesystem::remove(map_chunk_path(options.journal_dir, 5)));

    const auto collect = [](Campaign& c, SweepResult& out,
                            telemetry::MetricsRegistry& reg) {
        out.stats = c.reduce([&](const web::Domain& domain, DomainScan&& scan) {
            out.order.push_back(domain.id);
            out.stream += render_scan_stream(scan);
        });
        out.telemetry = telemetry::deterministic_csv(reg);
    };
    SweepResult first;
    collect(campaign, first, registry);
    expect_same_sweep(first, baseline, "reduce-with-gaps");

    // The rescan republished chunks 1 and 5: a second reduce (a reducer
    // killed after publishing but before finishing, then rerun) replays
    // everything without rescanning and matches byte-for-byte.
    Campaign again{population, options};
    telemetry::MetricsRegistry registry2;
    again.set_metrics(&registry2);
    SweepResult second;
    collect(again, second, registry2);
    expect_same_sweep(second, baseline, "reduce-rerun");
}

TEST_F(ProcPoolTest, MapPassOverAKilledRunKeepsItsBatches) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.chunk_domains = 4;  // one whole batch file plus a remainder
    const SweepResult baseline = run_single_process(population, options);

    // An in-process run killed on the last domain of its first batch leaves
    // exactly that batch published.
    options.journal_dir = (dir_ / "mixed").string();
    {
        struct Kill {};
        Campaign campaign{population, options};
        telemetry::MetricsRegistry registry;
        campaign.set_metrics(&registry);
        std::uint64_t merged = 0;
        EXPECT_THROW(campaign.run([&](const web::Domain&, DomainScan&&) {
                         if (merged + 1 >= kMapBatchChunks * options.chunk_domains) throw Kill{};
                         ++merged;
                     }),
                     Kill);
    }
    ASSERT_EQ(list_map_batches(options.journal_dir),
              (std::vector<MapBatch>{{0, kMapBatchChunks - 1}}));

    // A map pass continuing that journal scans only the chunks after it.
    ProcPoolOptions pool = fast_pool(2);
    pool.fresh = false;
    ProcPoolReport report;
    const SweepResult reduced = run_multi_process(population, options, pool, &report);
    EXPECT_EQ(report.chunks_recorded, report.chunks_total);
    for (std::size_t c = 0; c < kMapBatchChunks; ++c) {
        EXPECT_FALSE(std::filesystem::exists(map_chunk_path(options.journal_dir, c)))
            << "chunk " << c << " was rescanned";
    }
    EXPECT_TRUE(std::filesystem::exists(map_chunk_path(options.journal_dir, kMapBatchChunks)));
    expect_same_sweep(reduced, baseline, "procs over a killed run");
}

// --- Chaos kill-sweep --------------------------------------------------------

/// A worker_event_hook that SIGKILLs the worker the first time it reaches
/// (`phase`, `chunk`) — the marker file makes the kill once-per-sweep, so the
/// restarted incarnation completes the work.
ProcPoolOptions killing_pool(unsigned procs, const std::filesystem::path& marker_dir,
                             const char* phase, std::size_t chunk) {
    ProcPoolOptions pool = fast_pool(procs);
    const std::string phase_name = phase;
    pool.worker_event_hook = [marker_dir, phase_name, chunk](
                                 unsigned, const char* at, std::size_t c) {
        if (c != chunk || phase_name != at) return;
        const auto marker = marker_dir / ("killed_" + phase_name + "_" +
                                          std::to_string(c));
        if (util::create_file_exclusive(marker, "x\n")) {
            ::raise(SIGKILL);
        }
    };
    return pool;
}

TEST_F(ProcPoolTest, KillSweepAtEveryPhaseAndChunkIsByteIdentical) {
    const web::Population population = tiny_population();
    ScanOptions options;
    const std::size_t chunks = Campaign{population, options}.chunk_count();
    ASSERT_GE(chunks, 7u);  // 3 phases x 7 chunks x 3 proc counts >= 20 kill points

    const unsigned proc_counts[] = {1, 2, 4};
    const char* phases[] = {"claim", "scanned", "published"};
    std::size_t point = 0;
    for (const unsigned procs : proc_counts) {
        // Alternate the thread count so the sweep covers threads x procs.
        ScanOptions swept = options;
        swept.threads = (procs % 2) + 1;
        const SweepResult baseline = run_single_process(population, swept);
        for (const char* phase : phases) {
            for (std::size_t chunk = 0; chunk < chunks; ++chunk, ++point) {
                const std::string label = "procs=" + std::to_string(procs) +
                                          " phase=" + phase +
                                          " chunk=" + std::to_string(chunk);
                const auto run_dir = dir_ / ("kill_" + std::to_string(point));
                std::filesystem::create_directories(run_dir);
                ScanOptions multi = swept;
                multi.journal_dir = (run_dir / "journal").string();
                ProcPoolReport report;
                const SweepResult reduced = run_multi_process(
                    population, multi, killing_pool(procs, run_dir, phase, chunk),
                    &report);
                expect_same_sweep(reduced, baseline, label);
                EXPECT_TRUE(std::filesystem::exists(
                    run_dir / ("killed_" + std::string{phase} + "_" +
                               std::to_string(chunk))))
                    << label << ": the kill point never fired";
                EXPECT_GE(report.proc_restarts + report.chunks_scanned_inline, 1u)
                    << label << ": a killed worker must be restarted or covered";
                EXPECT_EQ(report.chunks_recorded, report.chunks_total) << label;
            }
        }
    }
    EXPECT_GE(point, 20u) << "the sweep must cover at least 20 seeded kill points";
}

// --- Supervision: hangs, poison, budgets, attribution ------------------------

TEST_F(ProcPoolTest, HungWorkerIsKilledAndTheCampaignCompletes) {
    const web::Population population = tiny_population();
    ScanOptions options;
    const SweepResult baseline = run_single_process(population, options);

    ScanOptions multi = options;
    multi.journal_dir = (dir_ / "hang").string();
    ProcPoolOptions pool = fast_pool(2);
    pool.hang_deadline = util::Duration::millis(200);
    const auto marker_dir = dir_;
    pool.worker_event_hook = [marker_dir](unsigned, const char* phase, std::size_t c) {
        if (c != 2 || std::strcmp(phase, "claim") != 0) return;
        if (util::create_file_exclusive(marker_dir / "hung_once", "x\n")) {
            for (;;) ::usleep(50'000);  // wedge: no heartbeat, no progress
        }
    };
    ProcPoolReport report;
    const SweepResult reduced = run_multi_process(population, multi, pool, &report);
    expect_same_sweep(reduced, baseline, "hang-kill");
    EXPECT_GE(report.hang_kills, 1u);
    EXPECT_GE(report.proc_restarts + report.chunks_scanned_inline, 1u);
}

TEST_F(ProcPoolTest, ChunkThatKillsEveryProcessIsQuarantinedAndAttributed) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "poison").string();
    // Chunk 3 is poison: every process DIES MID-SCAN, every time. (The fault
    // hook rides into the worker via fork; it cannot reach the supervisor's
    // inline path because the quarantine lands before the workers run out.)
    options.chunk_fault_hook = [](std::size_t chunk) {
        if (chunk == 3) ::raise(SIGKILL);
    };
    ProcPoolOptions pool = fast_pool(2);
    pool.chunk_attempts = 2;

    Campaign campaign{population, options};
    telemetry::MetricsRegistry registry;
    campaign.set_metrics(&registry);
    const ProcPoolReport report = run_procs(campaign, pool);
    EXPECT_EQ(report.chunks_recorded, report.chunks_total);
    EXPECT_GE(report.chunks_quarantined, 1u);
    EXPECT_GE(report.proc_restarts, 1u);

    std::uint64_t quarantined_scans = 0;
    const CampaignStats stats =
        campaign.reduce([&](const web::Domain&, DomainScan&& scan) {
            if (scan.error.rfind("chunk quarantined:", 0) == 0) ++quarantined_scans;
        });
    EXPECT_EQ(stats.chunks_quarantined, 1u);
    EXPECT_EQ(quarantined_scans, options.chunk_domains);
    EXPECT_EQ(stats.domains_scanned,
              static_cast<std::uint64_t>(Campaign{population, options}.domain_count()));

    // Attribution: these were PROCESS deaths, not thread-level restarts.
    const auto* procs_counter = registry.find_counter("campaign.restarted_procs");
    ASSERT_NE(procs_counter, nullptr);
    EXPECT_GE(procs_counter->value(), 1u);
    EXPECT_EQ(registry.find_counter("campaign.restarted_workers"), nullptr);
}

TEST_F(ProcPoolTest, ThreadLevelRestartsInsideWorkersAreAttributedAsWorkers) {
    const web::Population population = tiny_population();
    ScanOptions options;
    const SweepResult baseline = run_single_process(population, options);

    ScanOptions multi = options;
    multi.journal_dir = (dir_ / "transient").string();
    multi.worker_restart.initial_backoff = util::Duration::millis(1);
    multi.worker_restart.max_backoff = util::Duration::millis(2);
    // The fault hook rides into the worker process: chunk 2's first scan
    // attempt throws there, is retried in-worker, and succeeds.
    const auto marker_dir = dir_;
    multi.chunk_fault_hook = [marker_dir](std::size_t chunk) {
        if (chunk != 2) return;
        if (util::create_file_exclusive(marker_dir / "threw_once", "x\n")) {
            throw std::runtime_error("injected transient chunk crash");
        }
    };
    ProcPoolReport report;
    telemetry::MetricsRegistry registry;
    const SweepResult reduced =
        run_multi_process(population, multi, fast_pool(2), &report, &registry);
    expect_same_sweep(reduced, baseline, "thread-restart");
    EXPECT_EQ(report.worker_thread_restarts, 1u);
    EXPECT_EQ(report.proc_restarts, 0u);
    const auto* workers_counter = registry.find_counter("campaign.restarted_workers");
    ASSERT_NE(workers_counter, nullptr);
    EXPECT_EQ(workers_counter->value(), 1u);
    EXPECT_EQ(registry.find_counter("campaign.restarted_procs"), nullptr);
}

TEST_F(ProcPoolTest, RssSoftBudgetDegradesBatchesWithoutChangingOutput) {
    const web::Population population = tiny_population();
    ScanOptions options;
    const SweepResult baseline = run_single_process(population, options);

    ScanOptions multi = options;
    multi.journal_dir = (dir_ / "rss").string();
    ProcPoolOptions pool = fast_pool(2);
    pool.lease_batch = 4;
    pool.rss_soft_budget = 1;  // any real process is over 1 byte of RSS
    ProcPoolReport report;
    telemetry::MetricsRegistry registry;
    const SweepResult reduced =
        run_multi_process(population, multi, pool, &report, &registry);
    expect_same_sweep(reduced, baseline, "rss-degraded");
    EXPECT_EQ(report.chunks_recorded, report.chunks_total);
    EXPECT_NE(registry.find_gauge("obs.proc.peak_worker_rss_bytes"), nullptr)
        << "workers must report their RSS over the heartbeat channel";
}

TEST_F(ProcPoolTest, PoolOptionValidationRejectsNonsense) {
    ProcPoolOptions pool;
    pool.procs = 0;
    EXPECT_THROW(pool.validate(), std::invalid_argument);
    pool = ProcPoolOptions{};
    pool.lease_batch = 0;
    EXPECT_THROW(pool.validate(), std::invalid_argument);
    pool = ProcPoolOptions{};
    pool.chunk_attempts = 0;
    EXPECT_THROW(pool.validate(), std::invalid_argument);
    pool = ProcPoolOptions{};
    pool.heartbeat_interval = util::Duration::zero();
    EXPECT_THROW(pool.validate(), std::invalid_argument);
    pool = ProcPoolOptions{};
    pool.hang_deadline = util::Duration::zero();
    EXPECT_THROW(pool.validate(), std::invalid_argument);
    pool = ProcPoolOptions{};
    pool.lease_ttl = util::Duration::zero();
    EXPECT_THROW(pool.validate(), std::invalid_argument);

    const web::Population population = tiny_population();
    Campaign no_journal{population, ScanOptions{}};
    EXPECT_THROW((void)run_procs(no_journal, ProcPoolOptions{}),
                 std::invalid_argument);
}

#endif  // !_WIN32

}  // namespace
}  // namespace spinscope::scanner
