// Crash-safe campaign suite (DESIGN.md §11): record round-trips, batch-file
// naming and validation, kill-and-reduce byte-identity, worker supervision
// (restart + quarantine), scrub, and the hung-scan watchdog.
//
// The recovery contract under test: a journaled campaign killed at ANY chunk
// boundary and then reduced produces byte-identical sink streams, stats and
// deterministic telemetry to an uninterrupted run, at every thread count —
// and a campaign whose chunks crash or hang completes degraded instead of
// dying.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "golden.hpp"
#include "scanner/campaign.hpp"
#include "scanner/journal.hpp"
#include "scanner/shard.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "web/population.hpp"

namespace spinscope::scanner {
namespace {

using spinscope::testing::render_scan_stream;

// ~110 domains at seed 1 — 7 chunks at the default chunk_domains=16, small
// enough that the boundary × thread-count kill sweep stays fast.
web::Population tiny_population() { return web::Population{{2'000'000.0, 1}}; }

class JournalTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("spinscope_journal_test_" +
                std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
        std::filesystem::remove_all(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::filesystem::path dir_;
};

CampaignHeader sample_header() {
    CampaignHeader header;
    header.seed = 0x5ca7;
    header.week = 3;
    header.ipv6 = true;
    header.chunk_domains = 16;
    header.domain_count = 110;
    header.has_telemetry = true;
    return header;
}

ChunkRecord sample_chunk(std::size_t index) {
    ChunkRecord record;
    record.chunk_index = index;
    DomainScan scan;
    scan.domain_id = static_cast<std::uint32_t>(100 + index);
    scan.resolved = true;
    scan.redirects_followed = 1;
    scan.retries = 2;
    scan.recovered_by_retry = true;
    scan.attempts_truncated = 3;
    scan.error = "weird bytes: % space\nnewline";
    ResponseInfo response;
    response.status = 301;
    response.body_bytes = 12345;
    response.location = "www.target.example";
    response.server_name = "nginx 1.2";
    scan.final_response = response;
    scan.attempts.push_back(DomainScan::AttemptRecord{
        1, 2, qlog::ConnectionOutcome::watchdog_cancelled, util::Duration::millis(7),
        faults::ServerFaultMode::none});
    qlog::Trace trace;
    trace.host = "www.a.example";
    trace.ip = "10.1.2.3";
    trace.outcome = qlog::ConnectionOutcome::ok;
    trace.record_sent({util::TimePoint::from_nanos(1000), quic::PacketType::initial, 0,
                       false, 1200, true, 0});
    trace.record_received({util::TimePoint::from_nanos(2500), quic::PacketType::one_rtt, 1,
                           true, 600, true, 2});
    trace.metrics.rtt_samples_ms = {1.25, 3.5};
    trace.metrics.min_rtt_ms = 1.25;
    trace.metrics.packets_sent = 7;
    scan.connections.push_back(trace);
    record.scans.push_back(std::move(scan));
    record.telemetry_snapshot = "counter scanner.connections 5\n";
    return record;
}

/// The framed records of chunks [first, last], back to back — a batch file's
/// content.
std::string framed_batch(std::size_t first, std::size_t last) {
    std::string framed;
    for (std::size_t c = first; c <= last; ++c) {
        framed += frame_record(serialize_chunk_record(sample_chunk(c)));
    }
    return framed;
}

void flip_byte(const std::filesystem::path& path, std::uint64_t offset) {
    std::fstream file{path, std::ios::binary | std::ios::in | std::ios::out};
    char byte = 0;
    file.seekg(static_cast<std::streamoff>(offset));
    file.get(byte);
    file.seekp(static_cast<std::streamoff>(offset));
    file.put(static_cast<char>(byte ^ 0x01));
}

// --- Payload round-trips -----------------------------------------------------

TEST_F(JournalTest, HeaderPayloadRoundTrips) {
    const CampaignHeader header = sample_header();
    const auto parsed = parse_header(serialize_header(header));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(*parsed == header);

    EXPECT_FALSE(parse_header("").has_value());
    EXPECT_FALSE(parse_header("campaign seed=1\n").has_value());
    EXPECT_FALSE(parse_header("chunk index=0\n").has_value());
}

TEST_F(JournalTest, ChunkPayloadRoundTripsIncludingHostileStrings) {
    const ChunkRecord record = sample_chunk(4);
    const std::string payload = serialize_chunk_record(record);
    const auto parsed = parse_chunk_record(payload);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->chunk_index, 4u);
    EXPECT_FALSE(parsed->quarantined);
    ASSERT_EQ(parsed->scans.size(), 1u);
    const DomainScan& scan = parsed->scans[0];
    EXPECT_EQ(scan.domain_id, 104u);
    EXPECT_TRUE(scan.resolved);
    EXPECT_EQ(scan.redirects_followed, 1u);
    EXPECT_EQ(scan.retries, 2u);
    EXPECT_TRUE(scan.recovered_by_retry);
    EXPECT_EQ(scan.attempts_truncated, 3u);
    EXPECT_EQ(scan.error, "weird bytes: % space\nnewline");
    ASSERT_TRUE(scan.final_response.has_value());
    EXPECT_EQ(scan.final_response->status, 301);
    EXPECT_EQ(scan.final_response->body_bytes, 12345u);
    EXPECT_EQ(scan.final_response->location, "www.target.example");
    EXPECT_EQ(scan.final_response->server_name, "nginx 1.2");
    ASSERT_EQ(scan.attempts.size(), 1u);
    EXPECT_EQ(scan.attempts[0].outcome, qlog::ConnectionOutcome::watchdog_cancelled);
    EXPECT_EQ(scan.attempts[0].backoff, util::Duration::millis(7));
    ASSERT_EQ(scan.connections.size(), 1u);
    // The trace must re-serialize to the exact bytes the journal stored —
    // this is what makes reduced golden streams byte-identical.
    EXPECT_EQ(qlog::to_jsonl(scan.connections[0]),
              qlog::to_jsonl(record.scans[0].connections[0]));
    EXPECT_EQ(parsed->telemetry_snapshot, record.telemetry_snapshot);

    // A payload that survives CRC but is garbled must parse to nullopt, not
    // crash or mis-parse.
    EXPECT_FALSE(parse_chunk_record("").has_value());
    EXPECT_FALSE(parse_chunk_record("chunk index=0\n").has_value());
    std::string clipped = payload.substr(0, payload.size() / 2);
    EXPECT_FALSE(parse_chunk_record(clipped).has_value());
}

// --- Record files ------------------------------------------------------------

TEST_F(JournalTest, BatchFilesRoundTripAndAChunkFileIsABatchOfOne) {
    init_map_journal(dir_, sample_header(), /*wipe=*/true);
    ASSERT_TRUE(write_map_batch(util::Io::real(), dir_, {0, 2}, framed_batch(0, 2)));
    ASSERT_TRUE(write_map_chunk(dir_, sample_chunk(5)));
    EXPECT_EQ(map_batch_path(dir_, {0, 2}).filename(), "chunk-00000-00002.rec");
    EXPECT_EQ(map_batch_path(dir_, {5, 5}), map_chunk_path(dir_, 5));
    EXPECT_EQ(map_chunk_path(dir_, 5).filename(), "chunk-00005.rec");
    // Neither an interrupted publish's temp file nor a lease is a record.
    std::ofstream{dir_ / "chunk-00007.rec.tmp.1.2"} << "partial";
    std::ofstream{lease_path(dir_, 8)} << "lease\n";

    EXPECT_EQ(list_map_batches(dir_), (std::vector<MapBatch>{{0, 2}, {5, 5}}));
    EXPECT_EQ(list_map_chunks(dir_), (std::vector<std::size_t>{0, 1, 2, 5}));
    const auto batch = read_map_batch(dir_, {0, 2});
    ASSERT_TRUE(batch.has_value());
    ASSERT_EQ(batch->size(), 3u);
    for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_EQ((*batch)[c].chunk_index, c);
        EXPECT_EQ((*batch)[c].telemetry_snapshot, "counter scanner.connections 5\n");
    }
    ASSERT_TRUE(read_map_chunk(dir_, 5).has_value());
    EXPECT_EQ(read_map_batch(dir_, {5, 5})->front().chunk_index, 5u);
    // A chunk inside a batch has no file of its own.
    EXPECT_FALSE(read_map_chunk(dir_, 1).has_value());
    const MapReplayResult replay = read_map_journal(dir_);
    EXPECT_TRUE(replay.has_header);
    EXPECT_EQ(replay.chunks.size(), 4u);
    EXPECT_EQ(replay.corrupt_chunks, 0u);
}

TEST_F(JournalTest, ReplayOfMissingOrEmptyDirectoryIsEmpty) {
    const MapReplayResult missing = read_map_journal(dir_ / "nope");
    EXPECT_FALSE(missing.has_header);
    EXPECT_TRUE(missing.chunks.empty());
    EXPECT_EQ(missing.corrupt_chunks, 0u);
    EXPECT_TRUE(list_map_batches(dir_ / "nope").empty());

    std::filesystem::create_directories(dir_);
    EXPECT_FALSE(read_map_journal(dir_).has_header);
    EXPECT_TRUE(scrub_journal(dir_).clean());
}

TEST_F(JournalTest, ChecksumCorruptionCutsReplayAtTheCorruptRecord) {
    init_map_journal(dir_, sample_header(), /*wipe=*/true);
    ASSERT_TRUE(write_map_batch(util::Io::real(), dir_, {0, 3}, framed_batch(0, 3)));
    ASSERT_TRUE(write_map_batch(util::Io::real(), dir_, {4, 5}, framed_batch(4, 5)));
    // Flip one payload byte in the middle of the first batch: its CRC fails,
    // and the WHOLE batch counts as unscanned — never a partial batch.
    const auto victim = map_batch_path(dir_, {0, 3});
    flip_byte(victim, std::filesystem::file_size(victim) / 2);
    EXPECT_FALSE(read_map_batch(dir_, {0, 3}).has_value());

    const MapReplayResult replay = read_map_journal(dir_);
    ASSERT_TRUE(replay.has_header);
    EXPECT_EQ(replay.corrupt_chunks, 4u);
    ASSERT_EQ(replay.chunks.size(), 2u);
    EXPECT_EQ(replay.chunks[0].chunk_index, 4u);
    EXPECT_EQ(replay.chunks[1].chunk_index, 5u);

    // Trailing bytes past the last frame and a file whose records do not
    // match its name are rejected the same way.
    {
        std::ofstream out{map_batch_path(dir_, {4, 5}), std::ios::binary | std::ios::app};
        out << "#rec";
    }
    EXPECT_FALSE(read_map_batch(dir_, {4, 5}).has_value());
    ASSERT_TRUE(write_map_batch(util::Io::real(), dir_, {6, 7}, framed_batch(7, 8)));
    EXPECT_FALSE(read_map_batch(dir_, {6, 7}).has_value());
}

TEST_F(JournalTest, AttachRejectsAForeignCampaignHeader) {
    init_map_journal(dir_, sample_header(), /*wipe=*/true);
    ASSERT_TRUE(write_map_batch(util::Io::real(), dir_, {0, 1}, framed_batch(0, 1)));
    CampaignHeader other = sample_header();
    other.seed ^= 1;
    EXPECT_THROW(init_map_journal(dir_, other, /*wipe=*/false), std::invalid_argument);
    // The refusal touches nothing: the batch still reads.
    EXPECT_TRUE(read_map_batch(dir_, {0, 1}).has_value());
}

// --- Kill-and-reduce byte-identity -------------------------------------------

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

SweepResult run_to_completion(const web::Population& population, const ScanOptions& options,
                              bool reduce) {
    Campaign campaign{population, options};
    telemetry::MetricsRegistry registry;
    campaign.set_metrics(&registry);
    SweepResult result;
    const auto sink = [&](const web::Domain& domain, DomainScan&& scan) {
        result.order.push_back(domain.id);
        result.stream += render_scan_stream(scan);
    };
    result.stats = reduce ? campaign.reduce(sink) : campaign.run(sink);
    result.telemetry = telemetry::deterministic_csv(registry);
    return result;
}

/// Runs a journaled campaign and kills it (exception out of the sink) once
/// `kill_after` domains have been merged; kill_after = 0 kills on the very
/// first merge. Returns true when the kill fired (a large kill_after may let
/// the run complete).
bool run_and_kill(const web::Population& population, const ScanOptions& options,
                  std::uint64_t kill_after) {
    struct Kill {};
    Campaign campaign{population, options};
    telemetry::MetricsRegistry registry;
    campaign.set_metrics(&registry);
    std::uint64_t merged = 0;
    try {
        campaign.run([&](const web::Domain&, DomainScan&&) {
            if (merged >= kill_after) throw Kill{};
            ++merged;
        });
    } catch (const Kill&) {
        return true;
    }
    return false;
}

TEST_F(JournalTest, ResumeAfterKillAtEveryChunkBoundaryIsByteIdentical) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.retry.max_attempts = 2;  // exercise backoff streams across the kill
    options.chunk_domains = 4;       // two batch files
    const SweepResult baseline = run_to_completion(population, options, /*reduce=*/false);
    const std::size_t domain_count = baseline.order.size();
    ASSERT_GT(domain_count, 80u);
    const std::size_t chunk_count =
        (domain_count + options.chunk_domains - 1) / options.chunk_domains;
    ASSERT_GT(chunk_count, kMapBatchChunks);

    for (const unsigned threads : {1u, 2u, 8u}) {
        for (std::size_t boundary = 0; boundary <= chunk_count; ++boundary) {
            const auto journal_dir =
                dir_ / ("boundary_" + std::to_string(threads) + "_" +
                        std::to_string(boundary));
            ScanOptions killed = options;
            killed.threads = threads;
            killed.journal_dir = journal_dir.string();
            const std::uint64_t kill_after = boundary * options.chunk_domains;
            const bool killed_early =
                run_and_kill(population, killed, kill_after);
            if (boundary < chunk_count) {
                ASSERT_TRUE(killed_early);
            }

            const SweepResult reduced =
                run_to_completion(population, killed, /*reduce=*/true);
            EXPECT_EQ(reduced.order, baseline.order)
                << "threads=" << threads << " boundary=" << boundary;
            EXPECT_EQ(reduced.stream, baseline.stream)
                << "threads=" << threads << " boundary=" << boundary;
            EXPECT_EQ(reduced.telemetry, baseline.telemetry)
                << "threads=" << threads << " boundary=" << boundary;
            expect_same_stats(reduced.stats, baseline.stats);
        }
    }
}

TEST_F(JournalTest, RunKilledBetweenBatchesLeavesOnlyWholeBatchFiles) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.chunk_domains = 2;  // four batch files
    options.threads = 2;
    const SweepResult baseline = run_to_completion(population, options, /*reduce=*/false);
    const std::size_t chunk_count = (baseline.order.size() + 1) / 2;
    const std::uint64_t batch_domains = kMapBatchChunks * options.chunk_domains;

    // Kill on the last domain of each batch: the next batch is not yet
    // published, so the journal holds exactly the batches before it.
    for (std::uint64_t batches = 1; batches * kMapBatchChunks < chunk_count; ++batches) {
        ScanOptions killed = options;
        killed.journal_dir = (dir_ / ("killed_" + std::to_string(batches))).string();
        ASSERT_TRUE(run_and_kill(population, killed, batches * batch_domains - 1));

        std::vector<std::string> names;
        for (const auto& entry : std::filesystem::directory_iterator(killed.journal_dir)) {
            names.push_back(entry.path().filename().string());
        }
        std::sort(names.begin(), names.end());
        std::vector<std::string> expected;
        for (std::uint64_t b = 0; b < batches; ++b) {
            const MapBatch batch{b * kMapBatchChunks, (b + 1) * kMapBatchChunks - 1};
            expected.push_back(map_batch_path(killed.journal_dir, batch).filename().string());
            EXPECT_TRUE(read_map_batch(killed.journal_dir, batch).has_value())
                << expected.back();
        }
        expected.push_back("header.rec");  // no lock, no temp file, no partial batch
        EXPECT_EQ(names, expected) << "killed after " << batches << " batch(es)";

        const SweepResult reduced = run_to_completion(population, killed, /*reduce=*/true);
        EXPECT_EQ(reduced.stream, baseline.stream) << batches;
        EXPECT_EQ(reduced.telemetry, baseline.telemetry) << batches;
    }
}

TEST_F(JournalTest, ResumeFromJournalTruncatedMidRecordIsByteIdentical) {
    const web::Population population = tiny_population();
    ScanOptions options;
    const SweepResult baseline = run_to_completion(population, options, /*reduce=*/false);

    // A complete journal — its 7 chunks are one batch file — to truncate at
    // hostile offsets.
    const auto complete_dir = dir_ / "complete";
    ScanOptions journaled = options;
    journaled.journal_dir = complete_dir.string();
    (void)run_to_completion(population, journaled, /*reduce=*/false);
    const std::vector<MapBatch> batches = list_map_batches(complete_dir);
    ASSERT_EQ(batches.size(), 1u);
    const auto batch_path = map_batch_path(complete_dir, batches[0]);
    std::string bytes;
    {
        std::ifstream in{batch_path, std::ios::binary};
        bytes.assign(std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{});
    }

    // Truncation corpus: empty, mid-frame-header, one byte short, and a few
    // proportional cuts. Every torn batch is rescanned and republished —
    // byte-identical output either way.
    const std::size_t offsets[] = {0,
                                   3,
                                   bytes.size() / 7,
                                   bytes.size() / 3,
                                   bytes.size() / 2,
                                   (bytes.size() * 7) / 8,
                                   bytes.size() - 1};
    for (const std::size_t offset : offsets) {
        const auto trunc_dir = dir_ / ("trunc_" + std::to_string(offset));
        std::filesystem::create_directories(trunc_dir);
        std::filesystem::copy_file(map_header_path(complete_dir), map_header_path(trunc_dir));
        {
            std::ofstream out{map_batch_path(trunc_dir, batches[0]),
                              std::ios::binary | std::ios::trunc};
            out.write(bytes.data(), static_cast<std::streamsize>(offset));
        }
        ScanOptions reduce_options = options;
        reduce_options.journal_dir = trunc_dir.string();
        const SweepResult reduced =
            run_to_completion(population, reduce_options, /*reduce=*/true);
        EXPECT_EQ(reduced.stream, baseline.stream) << "offset=" << offset;
        EXPECT_EQ(reduced.telemetry, baseline.telemetry) << "offset=" << offset;
        expect_same_stats(reduced.stats, baseline.stats);
        EXPECT_TRUE(read_map_batch(trunc_dir, batches[0]).has_value())
            << "offset=" << offset << ": the torn batch was not republished";
    }
}

TEST_F(JournalTest, ResumeOfCompleteJournalRescansNothing) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "full").string();
    const SweepResult baseline = run_to_completion(population, options, /*reduce=*/false);

    std::atomic<std::size_t> chunks_scanned{0};
    ScanOptions reduce_options = options;
    reduce_options.chunk_fault_hook = [&](std::size_t) { ++chunks_scanned; };
    const SweepResult reduced =
        run_to_completion(population, reduce_options, /*reduce=*/true);
    EXPECT_EQ(chunks_scanned.load(), 0u) << "a complete journal must replay, not rescan";
    EXPECT_EQ(reduced.stream, baseline.stream);
    EXPECT_EQ(reduced.telemetry, baseline.telemetry);
    expect_same_stats(reduced.stats, baseline.stats);
}

TEST_F(JournalTest, ResumeRejectsMismatchedCampaignOptions) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "mismatch").string();
    (void)run_to_completion(population, options, /*reduce=*/false);

    ScanOptions other = options;
    other.week = 5;  // a different sweep: its scans are NOT interchangeable
    Campaign campaign{population, other};
    EXPECT_THROW((void)campaign.reduce([](const web::Domain&, DomainScan&&) {}),
                 std::invalid_argument);

    ScanOptions no_journal;
    Campaign without{population, no_journal};
    EXPECT_THROW((void)without.reduce([](const web::Domain&, DomainScan&&) {}),
                 std::invalid_argument);
}

// --- Worker supervision ------------------------------------------------------

TEST_F(JournalTest, TransientChunkCrashIsRestartedWithIdenticalOutput) {
    const web::Population population = tiny_population();
    ScanOptions options;
    const SweepResult baseline = run_to_completion(population, options, /*reduce=*/false);

    ScanOptions faulty = options;
    faulty.worker_restart.initial_backoff = util::Duration::millis(1);
    faulty.worker_restart.max_backoff = util::Duration::millis(2);
    std::mutex mu;
    std::set<std::size_t> crashed_once;
    faulty.chunk_fault_hook = [&](std::size_t chunk) {
        std::lock_guard<std::mutex> lock{mu};
        if (chunk == 2 && crashed_once.insert(chunk).second) {
            throw std::runtime_error("injected transient chunk crash");
        }
    };
    const SweepResult recovered = run_to_completion(population, faulty, /*reduce=*/false);
    EXPECT_EQ(recovered.stats.worker_restarts, 1u);
    EXPECT_EQ(recovered.stats.chunks_quarantined, 0u);
    EXPECT_EQ(recovered.stream, baseline.stream);
    EXPECT_EQ(recovered.telemetry, baseline.telemetry);
    expect_same_stats(recovered.stats, baseline.stats);
}

TEST_F(JournalTest, PersistentChunkCrashIsQuarantinedAndTheCampaignCompletes) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.threads = 4;
    options.worker_restart.initial_backoff = util::Duration::millis(1);
    options.worker_restart.max_backoff = util::Duration::millis(2);
    options.journal_dir = (dir_ / "quarantine").string();
    options.chunk_fault_hook = [](std::size_t chunk) {
        if (chunk == 3) throw std::runtime_error("poisoned chunk");
    };
    Campaign campaign{population, options};
    telemetry::MetricsRegistry registry;
    campaign.set_metrics(&registry);
    std::uint64_t sink_count = 0;
    std::uint64_t quarantined_scans = 0;
    const CampaignStats stats =
        campaign.run([&](const web::Domain&, DomainScan&& scan) {
            ++sink_count;
            if (scan.error.rfind("chunk quarantined:", 0) == 0) ++quarantined_scans;
        });

    EXPECT_EQ(stats.chunks_quarantined, 1u);
    EXPECT_EQ(stats.domains_quarantined, options.chunk_domains);
    EXPECT_EQ(stats.worker_restarts, 1u);  // one restart before giving up
    EXPECT_GE(stats.domains_errored, options.chunk_domains);
    EXPECT_EQ(stats.domains_scanned, sink_count);  // degraded but COMPLETE
    EXPECT_EQ(quarantined_scans, options.chunk_domains);
    const auto* quarantine_counter = registry.find_counter("campaign.quarantined_chunks");
    ASSERT_NE(quarantine_counter, nullptr);
    EXPECT_EQ(quarantine_counter->value(), 1u);

    // The quarantine is journaled: a reduce replays the degraded state
    // instead of rescanning (and re-crashing on) the poisoned chunk.
    ScanOptions reduce_options = options;
    reduce_options.chunk_fault_hook = nullptr;
    Campaign reduced{population, reduce_options};
    telemetry::MetricsRegistry reduce_registry;
    reduced.set_metrics(&reduce_registry);
    std::uint64_t reduced_quarantined = 0;
    const CampaignStats reduced_stats =
        reduced.reduce([&](const web::Domain&, DomainScan&& scan) {
            if (scan.error.rfind("chunk quarantined:", 0) == 0) ++reduced_quarantined;
        });
    EXPECT_EQ(reduced_stats.chunks_quarantined, 1u);
    EXPECT_EQ(reduced_quarantined, options.chunk_domains);
}

TEST(RunSupervisedTest, QuarantinesInAscendingOrderAndKeepsMerging) {
    const ShardConfig config{4, 1};
    const ShardPlan plan{10, 1};
    SupervisorConfig supervisor;
    supervisor.restart.max_attempts = 2;
    supervisor.restart.initial_backoff = util::Duration::zero();
    supervisor.sleep_on_restart = false;
    std::vector<std::string> events;  // merge-thread only
    const SupervisionReport report = run_supervised(
        config, plan, supervisor,
        [&](std::size_t chunk) {
            if (chunk == 3 || chunk == 7) throw std::runtime_error("boom");
        },
        [&](std::size_t chunk) { events.push_back("merge " + std::to_string(chunk)); },
        [&](const ChunkFailure& failure) {
            EXPECT_EQ(failure.attempts, 2);
            EXPECT_EQ(failure.error, "boom");
            events.push_back("quarantine " + std::to_string(failure.chunk));
        });
    EXPECT_EQ(report.quarantined, 2u);
    EXPECT_EQ(report.restarts, 2u);
    ASSERT_EQ(events.size(), 10u);
    for (std::size_t c = 0; c < 10; ++c) {
        const std::string expected =
            (c == 3 || c == 7) ? "quarantine " + std::to_string(c)
                               : "merge " + std::to_string(c);
        EXPECT_EQ(events[c], expected);
    }
}

TEST(RunSupervisedTest, MergeExceptionStillCancelsAndRethrows) {
    const ShardConfig config{2, 1};
    const ShardPlan plan{8, 1};
    SupervisorConfig supervisor;
    supervisor.sleep_on_restart = false;
    EXPECT_THROW(
        run_supervised(
            config, plan, supervisor, [](std::size_t) {},
            [](std::size_t chunk) {
                if (chunk == 1) throw std::logic_error("merge failed");
            },
            [](const ChunkFailure&) {}),
        std::logic_error);
}

// --- Scrub: offline verify / repair (DESIGN.md §16) --------------------------
//
// The corruption corpus: each case damages a journal in a distinct way, then
// asserts that scrub_journal classifies the damage correctly, quarantines it
// (never deletes bytes), and that a reduce over the scrubbed journal is
// byte-identical to an uninterrupted run — the no-silent-corruption
// invariant end to end.

TEST_F(JournalTest, ScrubOfCleanJournalFindsNothing) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "clean").string();
    const SweepResult baseline = run_to_completion(population, options, /*reduce=*/false);

    const ScrubReport report = scrub_journal(options.journal_dir);
    EXPECT_TRUE(report.clean());
    EXPECT_TRUE(report.has_header);
    EXPECT_EQ(report.bytes_discarded, 0u);
    EXPECT_EQ(report.chunks_intact, 7u);
    EXPECT_EQ(report.records_intact, 8u);  // the header too
    EXPECT_EQ(report.files_checked, 2u);   // header.rec + one batch
    EXPECT_TRUE(report.chunks_to_rescan.empty());
    EXPECT_FALSE(std::filesystem::exists(std::filesystem::path{options.journal_dir} /
                                         "corrupt"));

    const SweepResult reduced = run_to_completion(population, options, /*reduce=*/true);
    EXPECT_EQ(reduced.stream, baseline.stream);
    EXPECT_EQ(reduced.telemetry, baseline.telemetry);
}

TEST_F(JournalTest, ScrubQuarantinesACorruptHeaderAndReduceKeepsTheChunks) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "hdr").string();
    const SweepResult baseline = run_to_completion(population, options, /*reduce=*/false);

    // Garble the frame marker of the header: it no longer parses.
    const auto header = map_header_path(options.journal_dir);
    {
        std::fstream file{header, std::ios::binary | std::ios::in | std::ios::out};
        file.write("XXXX", 4);
    }

    const ScrubReport report = scrub_journal(options.journal_dir);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_FALSE(report.has_header);
    EXPECT_EQ(report.findings[0].damage, ScrubDamage::header_corrupt);
    EXPECT_TRUE(report.findings[0].quarantined);
    EXPECT_EQ(report.chunks_intact, 7u);  // chunk records name their own chunks
    EXPECT_TRUE(report.chunks_to_rescan.empty());
    EXPECT_GT(report.bytes_discarded, 0u);
    // Quarantined, never deleted: the damaged header lives under corrupt/.
    EXPECT_TRUE(std::filesystem::exists(std::filesystem::path{options.journal_dir} /
                                        "corrupt" / "header.rec"));
    EXPECT_FALSE(std::filesystem::exists(header));

    // Reduce republishes the header and replays every chunk.
    std::atomic<std::size_t> chunks_scanned{0};
    ScanOptions reduce_options = options;
    reduce_options.chunk_fault_hook = [&](std::size_t) { ++chunks_scanned; };
    const SweepResult reduced =
        run_to_completion(population, reduce_options, /*reduce=*/true);
    EXPECT_EQ(chunks_scanned.load(), 0u);
    EXPECT_EQ(reduced.stream, baseline.stream);
    EXPECT_EQ(reduced.telemetry, baseline.telemetry);
    expect_same_stats(reduced.stats, baseline.stats);
    EXPECT_TRUE(read_map_journal(options.journal_dir).has_header);
}

TEST_F(JournalTest, ScrubListsEveryChunkOfABitFlippedBatchAndReduceIsIdentical) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "flip").string();
    options.chunk_domains = 4;  // two batch files: chunks 0..15 and the rest
    const SweepResult baseline = run_to_completion(population, options, /*reduce=*/false);
    const std::size_t chunk_count = (baseline.order.size() + 3) / 4;
    ASSERT_EQ(list_map_batches(options.journal_dir),
              (std::vector<MapBatch>{{0, 15}, {16, chunk_count - 1}}));

    // Flip one byte in the middle of the first batch file.
    const auto victim = map_batch_path(options.journal_dir, {0, 15});
    flip_byte(victim, std::filesystem::file_size(victim) / 2);

    const ScrubReport report = scrub_journal(options.journal_dir);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].damage, ScrubDamage::corrupt_map_chunk);
    EXPECT_EQ(report.findings[0].file, victim.filename().string());
    EXPECT_TRUE(report.findings[0].quarantined);
    std::vector<std::size_t> whole_batch(16);
    for (std::size_t c = 0; c < 16; ++c) whole_batch[c] = c;
    EXPECT_EQ(report.chunks_to_rescan, whole_batch);
    EXPECT_EQ(report.chunks_intact, chunk_count - 16);
    EXPECT_GT(report.bytes_discarded, 0u);
    const auto corrupt = std::filesystem::path{options.journal_dir} / "corrupt";
    EXPECT_TRUE(std::filesystem::exists(corrupt / victim.filename()));
    EXPECT_TRUE(std::filesystem::exists(corrupt / "scrub.report"));

    const SweepResult reduced = run_to_completion(population, options, /*reduce=*/true);
    EXPECT_EQ(reduced.stream, baseline.stream);
    EXPECT_EQ(reduced.telemetry, baseline.telemetry);
    expect_same_stats(reduced.stats, baseline.stats);
    EXPECT_TRUE(scrub_journal(options.journal_dir).clean());
}

TEST_F(JournalTest, ScrubQuarantinesAMapChunkThatFramesButFailsCrc) {
    // Publish a header and three chunks, then rewrite chunk 1 with a frame
    // whose declared CRC does not match its payload.
    const CampaignHeader header = sample_header();
    init_map_journal(dir_, header, /*wipe=*/true);
    for (std::size_t c = 0; c < 3; ++c) {
        ASSERT_TRUE(write_map_chunk(dir_, sample_chunk(c)));
    }
    const std::string payload = serialize_chunk_record(sample_chunk(1));
    std::string framed = frame_record(payload);
    framed[framed.size() - 1] ^= 0x01;  // parses as a frame, fails the CRC
    {
        std::ofstream out{map_chunk_path(dir_, 1), std::ios::binary | std::ios::trunc};
        out << framed;
    }
    ASSERT_FALSE(read_map_chunk(dir_, 1).has_value());

    const ScrubReport report = scrub_journal(dir_);
    ASSERT_FALSE(report.clean());
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].damage, ScrubDamage::corrupt_map_chunk);
    EXPECT_TRUE(report.findings[0].quarantined);
    ASSERT_EQ(report.chunks_to_rescan.size(), 1u);
    EXPECT_EQ(report.chunks_to_rescan[0], 1u);
    EXPECT_EQ(report.chunks_intact, 2u);
    EXPECT_TRUE(report.has_header);
    // The corrupt record is preserved under corrupt/, not deleted, and the
    // live directory no longer lists it — the reducer will rescan chunk 1.
    EXPECT_FALSE(std::filesystem::exists(map_chunk_path(dir_, 1)));
    EXPECT_TRUE(std::filesystem::exists(dir_ / "corrupt" / "chunk-00001.rec"));
    const MapReplayResult replay = read_map_journal(dir_);
    EXPECT_EQ(replay.chunks.size(), 2u);
    EXPECT_EQ(replay.corrupt_chunks, 0u);
}

TEST_F(JournalTest, ScrubWithoutRepairOnlyClassifies) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "dry").string();
    (void)run_to_completion(population, options, /*reduce=*/false);

    const std::vector<MapBatch> batches = list_map_batches(options.journal_dir);
    ASSERT_EQ(batches.size(), 1u);
    const auto batch = map_batch_path(options.journal_dir, batches[0]);
    const auto size = std::filesystem::file_size(batch);
    flip_byte(batch, size - 4);

    ScrubOptions dry;
    dry.repair = false;
    const ScrubReport report = scrub_journal(options.journal_dir, dry);
    ASSERT_FALSE(report.clean());
    for (const ScrubFinding& finding : report.findings) {
        EXPECT_FALSE(finding.quarantined);
    }
    EXPECT_EQ(report.chunks_to_rescan.size(), 7u);
    // Dry run: the damaged bytes are untouched and nothing was quarantined.
    EXPECT_EQ(std::filesystem::file_size(batch), size);
    EXPECT_FALSE(std::filesystem::exists(std::filesystem::path{options.journal_dir} /
                                         "corrupt"));
}

// --- Watchdog and bounded buffers --------------------------------------------

TEST(WatchdogTest, HungScanIsCancelledWithWatchdogOutcome) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.retry.max_attempts = 3;
    // Budget below one handshake timeout: every non-QUIC target's simulation
    // is still busy when the watchdog fires.
    options.domain_deadline = util::Duration::seconds(2);
    Campaign campaign{population, options};
    const CampaignStats stats = campaign.run([](const web::Domain&, DomainScan&&) {});
    EXPECT_GT(stats.outcome(qlog::ConnectionOutcome::watchdog_cancelled), 0u);
    // The watchdog kill is terminal for the domain: no retries follow it, so
    // no domain records more than one watchdog_cancelled attempt... which
    // also means the retry knob must not multiply cancelled attempts.
    EXPECT_LE(stats.outcome(qlog::ConnectionOutcome::watchdog_cancelled),
              stats.domains_resolved);
}

TEST(WatchdogTest, WatchdogKillStopsRetriesAndRedirects) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.retry.max_attempts = 5;
    options.domain_deadline = util::Duration::seconds(2);
    Campaign campaign{population, options};
    bool saw_cancelled = false;
    (void)campaign.run([&](const web::Domain&, DomainScan&& scan) {
        for (std::size_t i = 0; i < scan.attempts.size(); ++i) {
            if (scan.attempts[i].outcome == qlog::ConnectionOutcome::watchdog_cancelled) {
                saw_cancelled = true;
                EXPECT_EQ(i + 1, scan.attempts.size())
                    << "attempts continued after a watchdog kill";
            }
        }
    });
    EXPECT_TRUE(saw_cancelled);
}

TEST(WatchdogTest, DefaultDeadlineNeverFiresOnAHealthySweep) {
    const web::Population population = tiny_population();
    Campaign campaign{population, {}};
    const CampaignStats stats = campaign.run([](const web::Domain&, DomainScan&&) {});
    EXPECT_EQ(stats.outcome(qlog::ConnectionOutcome::watchdog_cancelled), 0u);
}

TEST(AttemptCapTest, AttemptRecordsAreBoundedAndCounted) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.retry.max_attempts = 5;
    options.max_attempt_records = 2;
    Campaign campaign{population, options};
    bool saw_truncation = false;
    (void)campaign.run([&](const web::Domain&, DomainScan&& scan) {
        EXPECT_LE(scan.attempts.size(), 2u);
        EXPECT_LE(scan.connections.size(), 2u);
        if (scan.attempts_truncated > 0) saw_truncation = true;
    });
    // ~90% of the tiny universe fails its handshake and retries 5 times —
    // truncation must have kicked in somewhere.
    EXPECT_TRUE(saw_truncation);
}

}  // namespace
}  // namespace spinscope::scanner
