// Multi-process campaign suite (DESIGN.md §11): the shared journal,
// journal.lock ownership, the fork-based worker pool with its supervisor
// as the only scheduler, the charging rule, and the chaos kill-sweep.
//
// The contract under test: `kill -9` of any worker at any instant changes
// nothing about the output — Campaign::reduce over the shared map journal
// produces sink streams, stats and deterministic telemetry byte-identical to
// a single-process Campaign::run, at every worker and thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
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
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace spinscope::scanner {
namespace {

using spinscope::testing::render_scan_stream;

// ~110 domains at seed 1 — 7 chunks at the default chunk_domains=16, enough
// chunks for a meaningful kill sweep while each pass stays fast.
web::PopulationModel tiny_population() { return web::PopulationModel{{2'000'000.0, 1}}; }

/// Creates the one-shot marker file `path`; false when it already exists.
bool claim_marker(const std::filesystem::path& path) {
    return util::create_file_exclusive(util::Io::real(), path, "x\n").ok();
}

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
    EXPECT_EQ(a.domains_errored, b.domains_errored);
    EXPECT_EQ(a.outcomes, b.outcomes);
    EXPECT_EQ(a.server_faults, b.server_faults);
}

SweepResult run_single_process(const web::PopulationModel& population,
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

/// Fast supervision knobs for tests: millisecond backoffs.
ProcPoolOptions fast_pool(unsigned procs) {
    ProcPoolOptions pool;
    pool.procs = procs;
    pool.proc_restart.initial_backoff = util::Duration::millis(1);
    pool.proc_restart.max_backoff = util::Duration::millis(2);
    return pool;
}

/// One full multi-process pass: run_procs over the map journal, then reduce.
/// `report`/`registry_csv` outputs are optional observability taps.
SweepResult run_multi_process(const web::PopulationModel& population,
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

// --- Map journal -------------------------------------------------------------

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

    std::vector<ChunkRecord> chunks;
    const MapReplayResult replay = read_map_journal(
        map_dir, [&](ChunkRecord&& record) { chunks.push_back(std::move(record)); });
    ASSERT_TRUE(replay.has_header);
    EXPECT_TRUE(replay.header == header);
    EXPECT_EQ(replay.corrupt_chunks, 0u);
    ASSERT_EQ(chunks.size(), 3u);
    EXPECT_EQ(chunks[0].chunk_index, 0u);
    EXPECT_EQ(chunks[1].chunk_index, 2u);
    EXPECT_EQ(chunks[2].chunk_index, 4u);

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
    const auto path = map_batch_path(map_dir, {1, 1});
    const auto size = std::filesystem::file_size(path);
    {
        std::fstream file{path, std::ios::binary | std::ios::in | std::ios::out};
        file.seekp(static_cast<std::streamoff>(size - 1));
        file.put('\xff');
    }
    EXPECT_FALSE(read_map_chunk(map_dir, 1).has_value());
    std::vector<ChunkRecord> chunks;
    const MapReplayResult replay = read_map_journal(
        map_dir, [&](ChunkRecord&& record) { chunks.push_back(std::move(record)); });
    EXPECT_TRUE(chunks.empty());
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
    const MapReplayResult replay = read_map_journal(map_dir, [](ChunkRecord&&) {});
    ASSERT_TRUE(replay.has_header);
    EXPECT_TRUE(replay.header == other);
}

// --- journal.lock ------------------------------------------------------------

TEST_F(ProcPoolTest, CampaignsRefuseAJournalDirLockedByALiveProcess) {
    const web::PopulationModel population = tiny_population();
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
    const web::PopulationModel population = tiny_population();
    ScanOptions options;
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
            telemetry::MetricsRegistry registry;
            const SweepResult reduced =
                run_multi_process(population, multi, fast_pool(procs), &report, &registry);
            const std::string label =
                "threads=" + std::to_string(threads) + " procs=" + std::to_string(procs);
            expect_same_sweep(reduced, baseline, label);
            EXPECT_EQ(report.chunks_recorded, report.chunks_total) << label;
            EXPECT_EQ(report.proc_restarts, 0u) << label;
            EXPECT_EQ(reduced.stats.proc_restarts, 0u) << label;
            EXPECT_NE(registry.find_gauge("obs.proc.peak_worker_rss_bytes"), nullptr)
                << label << ": workers must report their RSS over their channel";
        }
    }
}

TEST_F(ProcPoolTest, ReducedSweepDeliversEagerPopulationBytes) {
    // The §15 purity contract across process boundaries: workers materialize
    // their chunks independently, yet every domain the reduce delivers must
    // match the eager wrapper's resident vector byte for byte, and the
    // deterministic telemetry must match the in-process streaming run.
    const web::PopulationModel population = tiny_population();
    const auto eager = population.materialize(0, population.domain_count());
    ScanOptions options;
    const SweepResult baseline = run_single_process(population, options);
    for (const unsigned procs : {1u, 2u}) {
        ScanOptions multi = options;
        multi.journal_dir = (dir_ / ("eager_" + std::to_string(procs))).string();
        Campaign campaign{population, multi};
        telemetry::MetricsRegistry registry;
        campaign.set_metrics(&registry);
        (void)run_procs(campaign, fast_pool(procs));
        SweepResult reduced;
        std::size_t byte_identical = 0;
        reduced.stats = campaign.reduce([&](const web::Domain& domain, DomainScan&& scan) {
            if (std::memcmp(&domain, &eager.domains[domain.id],
                            sizeof(web::Domain)) == 0) {
                ++byte_identical;
            }
            reduced.order.push_back(domain.id);
            reduced.stream += render_scan_stream(scan);
        });
        reduced.telemetry = telemetry::deterministic_csv(registry);
        EXPECT_EQ(byte_identical, eager.size()) << "procs=" << procs;
        expect_same_sweep(reduced, baseline, "eager-bytes procs=" + std::to_string(procs));
    }
}

TEST_F(ProcPoolTest, ReduceOfAnEmptyJournalDegeneratesToAFullScan) {
    const web::PopulationModel population = tiny_population();
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
    const web::PopulationModel population = tiny_population();
    ScanOptions options;
    options.threads = 2;
    options.journal_dir = (dir_ / "partial").string();
    const SweepResult baseline = run_single_process(population, options);

    Campaign campaign{population, options};
    telemetry::MetricsRegistry registry;
    campaign.set_metrics(&registry);
    (void)run_procs(campaign, fast_pool(2));
    // Simulate lost records (e.g. chunks a crashed campaign never scanned):
    // the supervisor committed all 7 chunks as one batch file.
    ASSERT_EQ(list_map_batches(options.journal_dir), (std::vector<MapBatch>{{0, 6}}));
    ASSERT_TRUE(std::filesystem::remove(map_batch_path(options.journal_dir, {0, 6})));

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

    // The rescan republished the batch: a second reduce (a reducer
    // killed after publishing but before finishing, then rerun) replays
    // everything without rescanning and matches byte-for-byte.
    Campaign again{population, options};
    telemetry::MetricsRegistry registry2;
    again.set_metrics(&registry2);
    SweepResult second;
    collect(again, second, registry2);
    expect_same_sweep(second, baseline, "reduce-rerun");
}

/// Batch files [16w, 16w + 15] for w = 0..windows - 1, the last one cut at
/// chunk `last`.
std::vector<MapBatch> whole_windows(std::size_t windows, std::size_t last) {
    std::vector<MapBatch> out;
    for (std::size_t w = 0; w < windows; ++w) {
        out.push_back({w * kMapBatchChunks, std::min((w + 1) * kMapBatchChunks - 1, last)});
    }
    return out;
}

TEST_F(ProcPoolTest, MapPassOverAKilledRunKeepsItsBatches) {
    // One kept batch, and three: the latter put the first missing chunk past
    // the supervisor's dispatch window (2 batches + procs chunks ahead of the
    // lowest chunk not done), so the workers only get work when that count
    // starts past the kept chunks.
    const web::PopulationModel population = tiny_population();
    for (const auto& [chunk_domains, windows] :
         {std::pair<std::size_t, std::size_t>{4, 1}, {1, 3}}) {
        const std::string label = "procs over " + std::to_string(windows) + " kept batch(es)";
        ScanOptions options;
        options.chunk_domains = chunk_domains;
        const SweepResult baseline = run_single_process(population, options);

        // An in-process run killed on the last domain of its `windows`-th
        // batch leaves exactly those batches published.
        options.journal_dir = (dir_ / ("mixed_" + std::to_string(windows))).string();
        {
            struct Kill {};
            Campaign campaign{population, options};
            telemetry::MetricsRegistry registry;
            campaign.set_metrics(&registry);
            std::uint64_t merged = 0;
            EXPECT_THROW(campaign.run([&](const web::Domain&, DomainScan&&) {
                             if (merged + 1 >= windows * kMapBatchChunks * chunk_domains) {
                                 throw Kill{};
                             }
                             ++merged;
                         }),
                         Kill);
        }
        ASSERT_EQ(list_map_batches(options.journal_dir), whole_windows(windows, SIZE_MAX))
            << label;

        // A map pass continuing that journal scans only the chunks after
        // them, in its workers, and adds whole windows.
        ProcPoolOptions pool = fast_pool(2);
        pool.fresh = false;
        ProcPoolReport report;
        const SweepResult reduced = run_multi_process(population, options, pool, &report);
        EXPECT_EQ(report.chunks_recorded, report.chunks_total) << label;
        EXPECT_EQ(report.chunks_scanned_inline, 0u) << label;
        const std::size_t all_windows =
            (report.chunks_total + kMapBatchChunks - 1) / kMapBatchChunks;
        ASSERT_GT(all_windows, windows) << label;
        EXPECT_EQ(list_map_batches(options.journal_dir),
                  whole_windows(all_windows, report.chunks_total - 1))
            << label << ": the map pass must keep the run's batches and add whole windows";
        expect_same_sweep(reduced, baseline, label);
    }
}

/// The file names in `dir`, sorted.
std::vector<std::string> file_names(const std::filesystem::path& dir) {
    std::vector<std::string> out;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        out.push_back(entry.path().filename().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

TEST_F(ProcPoolTest, GapFillingWritesTheSameBatchFilesInEveryMode) {
    // Kept batches [0, 3] and [8, 15] split the first window: reduce and a
    // resumed map pass must both fill the gap with exactly one new file,
    // [4, 7], and reduce to the unjournaled output.
    const web::PopulationModel population = tiny_population();
    ScanOptions options;
    options.chunk_domains = 4;
    const SweepResult baseline = run_single_process(population, options);

    const auto kept_dir = dir_ / "kept";
    options.journal_dir = kept_dir.string();
    (void)run_single_process(population, options);
    const auto window = read_map_batch(kept_dir, {0, 15});
    ASSERT_TRUE(window.has_value());
    ASSERT_TRUE(std::filesystem::remove(map_batch_path(kept_dir, {0, 15})));
    MapBatchWriter writer{util::Io::real(), kept_dir, options.journal_retry, options.seed};
    for (const ChunkRecord& record : *window) {
        if (record.chunk_index < 4 || record.chunk_index >= 8) {
            writer.add(record.chunk_index, frame_record(serialize_chunk_record(record)));
        }
    }
    ASSERT_TRUE(writer.commit_below(16));
    std::vector<std::string> want = file_names(kept_dir);
    const std::vector<MapBatch> kept = list_map_batches(kept_dir);
    ASSERT_EQ(kept.size(), 3u);
    ASSERT_EQ(kept[0], (MapBatch{0, 3}));
    ASSERT_EQ(kept[1], (MapBatch{8, 15}));
    want.push_back(map_batch_path(kept_dir, {4, 7}).filename().string());
    std::sort(want.begin(), want.end());

    const auto reduce_dir = dir_ / "reduce";
    const auto procs_dir = dir_ / "procs";
    std::filesystem::copy(kept_dir, reduce_dir);
    std::filesystem::copy(kept_dir, procs_dir);

    options.journal_dir = reduce_dir.string();
    {
        Campaign campaign{population, options};
        telemetry::MetricsRegistry registry;
        campaign.set_metrics(&registry);
        SweepResult reduced;
        reduced.stats = campaign.reduce([&](const web::Domain& domain, DomainScan&& scan) {
            reduced.order.push_back(domain.id);
            reduced.stream += render_scan_stream(scan);
        });
        reduced.telemetry = telemetry::deterministic_csv(registry);
        expect_same_sweep(reduced, baseline, "reduce");
    }
    EXPECT_EQ(file_names(reduce_dir), want) << "reduce";

    options.journal_dir = procs_dir.string();
    ProcPoolOptions pool = fast_pool(2);
    pool.fresh = false;
    expect_same_sweep(run_multi_process(population, options, pool), baseline, "procs");
    EXPECT_EQ(file_names(procs_dir), want) << "procs";
}

// --- Chaos kill-sweep --------------------------------------------------------

/// A worker's end of its supervisor channel: the only socket it holds.
int worker_channel_fd() {
    for (int fd = 3; fd < 1024; ++fd) {
        struct stat st {};
        if (::fstat(fd, &st) == 0 && S_ISSOCK(st.st_mode)) return fd;
    }
    return -1;
}

/// A worker_event_hook that SIGKILLs the worker the first time it reaches
/// (`phase`, `chunk`) — the marker file makes the kill once-per-sweep, so the
/// restarted incarnation completes the work. Phases "torn", "crc" and "short"
/// kill at "scanned" right after sending a bad record for the chunk: half a
/// frame, a whole frame whose CRC does not check out, or a valid frame after
/// a `record` line missing its restarts, rss and allocation fields.
ProcPoolOptions killing_pool(unsigned procs, const std::filesystem::path& marker_dir,
                             const char* phase, std::size_t chunk) {
    ProcPoolOptions pool = fast_pool(procs);
    const std::string phase_name = phase;
    const bool bad_record = phase_name == "torn" || phase_name == "crc" || phase_name == "short";
    pool.worker_event_hook = [marker_dir, phase_name, bad_record, chunk](
                                 unsigned, const char* at, std::size_t c) {
        if (c != chunk || (bad_record ? "scanned" : phase_name) != at) return;
        const auto marker = marker_dir / ("killed_" + phase_name + "_" +
                                          std::to_string(c));
        if (!claim_marker(marker)) return;
        if (bad_record) {
            ChunkRecord fake;
            fake.chunk_index = c;
            std::string frame = frame_record(serialize_chunk_record(fake));
            std::string line = "record " + std::to_string(c) + " 0 0 0 0\n";
            if (phase_name == "torn") {
                frame.resize(frame.size() / 2);
            } else if (phase_name == "crc") {
                frame.back() ^= 0x01;
            } else {
                line = "record " + std::to_string(c) + "\n";
            }
            (void)util::write_all(worker_channel_fd(), line + frame);
        }
        ::raise(SIGKILL);
    };
    return pool;
}

TEST_F(ProcPoolTest, KillSweepAtEveryPhaseAndChunkIsByteIdentical) {
    const web::PopulationModel population = tiny_population();
    ScanOptions options;
    const std::size_t chunks = Campaign{population, options}.chunk_count();
    ASSERT_GE(chunks, 7u);  // 3 phases x 7 chunks x 3 proc counts >= 20 kill points

    const unsigned proc_counts[] = {1, 2, 4};
    const char* phases[] = {"claim", "scanned", "sent"};
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
                // A worker killed once its record is sent has finished its
                // chunk: the pass may end before its death is even reaped.
                if (std::string{phase} != "sent") {
                    EXPECT_GE(report.proc_restarts + report.chunks_scanned_inline, 1u)
                        << label << ": a killed worker must be restarted or covered";
                }
                EXPECT_EQ(report.chunks_recorded, report.chunks_total) << label;
            }
        }
    }
    EXPECT_GE(point, 20u) << "the sweep must cover at least 20 seeded kill points";
}

TEST_F(ProcPoolTest, OnlyADeathMidScanChargesItsChunk) {
    // With chunk_attempts = 1 a single charge quarantines. A death before
    // `start` (claim) or once the record is sent (sent) charges nothing; a
    // death in between quarantines exactly that chunk — also when a torn
    // frame, a frame failing its CRC or a malformed record line reached the
    // supervisor first (torn, crc, short): those bytes are never journaled.
    const web::PopulationModel population = tiny_population();
    ScanOptions options;
    const SweepResult baseline = run_single_process(population, options);
    constexpr std::size_t kChunk = 3;
    for (const std::string phase : {"claim", "scanned", "sent", "torn", "crc", "short"}) {
        const auto run_dir = dir_ / ("charge_" + phase);
        std::filesystem::create_directories(run_dir);
        ScanOptions multi = options;
        multi.journal_dir = (run_dir / "journal").string();
        ProcPoolOptions pool = killing_pool(2, run_dir, phase.c_str(), kChunk);
        pool.chunk_attempts = 1;
        ProcPoolReport report;
        const SweepResult reduced = run_multi_process(population, multi, pool, &report);
        ASSERT_TRUE(std::filesystem::exists(
            run_dir / ("killed_" + phase + "_" + std::to_string(kChunk))))
            << phase << ": the kill point never fired";
        EXPECT_EQ(report.chunks_recorded, report.chunks_total) << phase;
        // After `sent` the record is in: the pass may finish before the
        // supervisor reaps the death, so a re-fork is not guaranteed.
        if (phase == "sent") {
            EXPECT_LE(report.proc_restarts, 1u) << phase;
        } else {
            EXPECT_EQ(report.proc_restarts, 1u) << phase;
        }
        if (phase == "claim" || phase == "sent") {
            EXPECT_EQ(report.chunks_quarantined, 0u) << phase;
            expect_same_sweep(reduced, baseline, phase);
            continue;
        }
        EXPECT_EQ(report.chunks_quarantined, 1u) << phase;
        EXPECT_EQ(reduced.stats.chunks_quarantined, 1u) << phase;
        EXPECT_EQ(reduced.order, baseline.order) << phase;
        const auto batch = read_map_batch(multi.journal_dir, {0, report.chunks_total - 1});
        ASSERT_TRUE(batch.has_value()) << phase;
        for (const ChunkRecord& record : *batch) {
            EXPECT_EQ(record.quarantined, record.chunk_index == kChunk)
                << phase << ": chunk " << record.chunk_index;
        }
        EXPECT_EQ((*batch)[kChunk].scans.size(), options.chunk_domains) << phase;
    }
}

// --- Supervision: hangs, poison, attribution ---------------------------------

TEST_F(ProcPoolTest, HungWorkerIsKilledAndTheCampaignCompletes) {
    const web::PopulationModel population = tiny_population();
    ScanOptions options;
    const SweepResult baseline = run_single_process(population, options);

    ScanOptions multi = options;
    multi.journal_dir = (dir_ / "hang").string();
    ProcPoolOptions pool = fast_pool(2);
    pool.hang_deadline = util::Duration::millis(200);
    const auto marker_dir = dir_;
    pool.worker_event_hook = [marker_dir](unsigned, const char* phase, std::size_t c) {
        if (c != 2 || std::strcmp(phase, "claim") != 0) return;
        if (claim_marker(marker_dir / "hung_once")) {
            for (;;) ::usleep(50'000);  // wedge: silent, no progress
        }
    };
    ProcPoolReport report;
    const SweepResult reduced = run_multi_process(population, multi, pool, &report);
    expect_same_sweep(reduced, baseline, "hang-kill");
    EXPECT_GE(report.hang_kills, 1u);
    EXPECT_GE(report.proc_restarts + report.chunks_scanned_inline, 1u);
}

TEST_F(ProcPoolTest, ChunkThatKillsEveryProcessIsQuarantinedAndAttributed) {
    const web::PopulationModel population = tiny_population();
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
    const web::PopulationModel population = tiny_population();
    ScanOptions options;
    const SweepResult baseline = run_single_process(population, options);

    ScanOptions multi = options;
    multi.journal_dir = (dir_ / "transient").string();
    // The fault hook rides into the worker process: chunk 2's first scan
    // attempt throws there, is retried in-worker, and succeeds.
    const auto marker_dir = dir_;
    multi.chunk_fault_hook = [marker_dir](std::size_t chunk) {
        if (chunk != 2) return;
        if (claim_marker(marker_dir / "threw_once")) {
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

TEST_F(ProcPoolTest, ThreadLevelQuarantineInsideWorkersMatchesTheInProcessRecord) {
    const web::PopulationModel population = tiny_population();
    ScanOptions options;
    options.chunk_fault_hook = [](std::size_t chunk) {
        if (chunk == 2) throw std::runtime_error("poisoned chunk");
    };
    ScanOptions single = options;
    single.journal_dir = (dir_ / "single").string();
    const SweepResult baseline = run_single_process(population, single);

    ScanOptions multi = options;
    multi.journal_dir = (dir_ / "multi").string();
    ProcPoolReport report;
    const SweepResult reduced = run_multi_process(population, multi, fast_pool(2), &report);
    expect_same_sweep(reduced, baseline, "thread-quarantine");
    EXPECT_EQ(reduced.stats.chunks_quarantined, 1u);
    EXPECT_EQ(report.worker_thread_restarts, 1u);
    EXPECT_EQ(report.chunks_quarantined, 0u) << "no process died";

    // Both paths run the same supervisor, so the worker's record is the
    // in-process run's record byte for byte.
    const auto batch = read_map_batch(single.journal_dir, {0, 6});
    const auto worker = read_map_batch(multi.journal_dir, {0, 6});
    ASSERT_TRUE(batch.has_value());
    ASSERT_TRUE(worker.has_value());
    EXPECT_TRUE((*worker)[2].quarantined);
    EXPECT_EQ(serialize_chunk_record((*worker)[2]), serialize_chunk_record((*batch)[2]));
}

#ifdef __linux__

/// True once `pid` has exited: gone, or a zombie nobody has reaped yet.
bool process_gone(long pid) {
    if (!util::process_alive(pid)) return true;
    std::ifstream stat{"/proc/" + std::to_string(pid) + "/stat"};
    std::string line;
    if (!std::getline(stat, line)) return true;
    const auto name_end = line.rfind(')');
    return name_end != std::string::npos && name_end + 2 < line.size() &&
           line[name_end + 2] == 'Z';
}

/// Chunk files in `dir`, records and publish temp files alike.
std::size_t count_chunk_files(const std::filesystem::path& dir) {
    std::size_t n = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        n += entry.path().filename().string().starts_with("chunk-") ? 1 : 0;
    }
    return n;
}

TEST_F(ProcPoolTest, WorkersDieWithTheirSupervisor) {
    // A SIGKILLed supervisor must take its workers with it: a later campaign
    // may re-initialise the directory (the dead pid's lock is broken), and an
    // orphan would go on scanning for nobody.
    const web::PopulationModel population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "journal").string();
    const auto marker_dir = dir_;
    ProcPoolOptions pool = fast_pool(2);
    pool.worker_event_hook = [marker_dir](unsigned, const char* at, std::size_t) {
        const std::string phase = at;
        if (phase == "claim") {
            (void)claim_marker(marker_dir / ("pid_" + std::to_string(::getpid())));
        } else if (phase == "sent" && claim_marker(marker_dir / "killed")) {
            ::kill(::getppid(), SIGKILL);
        }
    };
    const ::pid_t supervisor = ::fork();
    ASSERT_GE(supervisor, 0);
    if (supervisor == 0) {
        Campaign campaign{population, options};
        try {
            (void)run_procs(campaign, pool);
        } catch (...) {
        }
        ::_exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(supervisor, &status, 0), supervisor);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "the supervisor must die after the first record is sent";
    std::vector<long> workers;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
        const std::string name = entry.path().filename().string();
        if (name.starts_with("pid_")) workers.push_back(std::stol(name.substr(4)));
    }
    ASSERT_FALSE(workers.empty());

    // The 7 chunks share one batch window, which the supervisor commits only
    // once every record is in, so nothing may reach the disk — not even later.
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    EXPECT_EQ(count_chunk_files(options.journal_dir), 0u);
    for (const long pid : workers) {
        EXPECT_TRUE(process_gone(pid)) << "worker " << pid << " outlived its supervisor";
        if (!process_gone(pid)) ::kill(static_cast<::pid_t>(pid), SIGKILL);
    }
}

#endif  // __linux__

TEST_F(ProcPoolTest, PoolOptionValidationRejectsNonsense) {
    ProcPoolOptions pool;
    pool.procs = 0;
    EXPECT_THROW(pool.validate(), std::invalid_argument);
    pool = ProcPoolOptions{};
    pool.chunk_attempts = 0;
    EXPECT_THROW(pool.validate(), std::invalid_argument);
    pool = ProcPoolOptions{};
    pool.hang_deadline = util::Duration::zero();
    EXPECT_THROW(pool.validate(), std::invalid_argument);

    const web::PopulationModel population = tiny_population();
    Campaign no_journal{population, ScanOptions{}};
    EXPECT_THROW((void)run_procs(no_journal, ProcPoolOptions{}),
                 std::invalid_argument);
}

#endif  // !_WIN32

}  // namespace
}  // namespace spinscope::scanner
