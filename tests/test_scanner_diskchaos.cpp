// Disk-chaos suite (DESIGN.md §16): campaigns on a lying disk.
//
// The headline invariant under test: for every storage fault plan × injection
// point, a journaled campaign either completes with output byte-identical to
// the fault-free run (possibly with the journal degraded and a loud,
// attributed error in CampaignStats), or refuses loudly with an attributed
// error — and scrub + reduce on a REAL disk then completes byte-identically.
// No silent corruption, ever.
//
// The default run sweeps a reduced fault matrix so the tier-1 ctest lane
// stays fast; scripts/ci.sh diskchaos sets SPINSCOPE_DISKCHAOS_FULL=1 for
// the full fault-plan × injection-point × threads × procs sweep.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "faults/storage.hpp"
#include "golden.hpp"
#include "scanner/campaign.hpp"
#include "scanner/journal.hpp"
#include "scanner/procpool.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "util/io.hpp"
#include "web/population.hpp"

namespace spinscope::scanner {
namespace {

using spinscope::testing::render_scan_stream;

// ~110 domains at seed 1 — 7 chunks at chunk_domains=16, one batch file;
// chunk_domains=2 spreads them over four batch files (five publishes with the
// header), so the fault ordinals land inside the journal's busy write window.
web::Population tiny_population() { return web::Population{{2'000'000.0, 1}}; }

bool full_sweep() { return std::getenv("SPINSCOPE_DISKCHAOS_FULL") != nullptr; }

class DiskChaosTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("spinscope_diskchaos_test_" +
                std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::filesystem::path dir_;
};

struct SweepResult {
    std::string stream;
    CampaignStats stats;
    std::string telemetry;  ///< telemetry::deterministic_csv
};

/// One campaign pass. `io` may be null (real disk); `reduce` folds the
/// journal instead of starting a fresh one.
SweepResult run_campaign(const web::Population& population, ScanOptions options,
                         util::Io* io, bool reduce) {
    options.io = io;
    Campaign campaign{population, options};
    telemetry::MetricsRegistry registry;
    campaign.set_metrics(&registry);
    SweepResult result;
    const auto sink = [&](const web::Domain&, DomainScan&& scan) {
        result.stream += render_scan_stream(scan);
    };
    result.stats = reduce ? campaign.reduce(sink) : campaign.run(sink);
    result.telemetry = telemetry::deterministic_csv(registry);
    return result;
}

/// What a faulted campaign did: completed (maybe degraded) or threw.
struct FaultOutcome {
    bool threw = false;
    std::string error;
    SweepResult result;
};

FaultOutcome run_faulted(const web::Population& population, const ScanOptions& options,
                         const faults::StorageFaultPlan& plan) {
    faults::FaultIo io{util::Io::real(), plan};
    FaultOutcome outcome;
    try {
        outcome.result = run_campaign(population, options, &io, /*reduce=*/false);
    } catch (const std::exception& e) {
        outcome.threw = true;
        outcome.error = e.what();
    }
    return outcome;
}

/// Asserts the headline invariant for one (plan, options) cell and returns
/// what happened ('c' completed clean, 'd' completed degraded, 't' threw).
char expect_no_silent_corruption(const web::Population& population,
                                 const ScanOptions& options,
                                 const faults::StorageFaultPlan& plan,
                                 const SweepResult& baseline,
                                 const std::string& label) {
    const FaultOutcome outcome = run_faulted(population, options, plan);
    if (!outcome.threw) {
        // Completed: the OUTPUT must be byte-identical no matter what the
        // disk did — the journal may only have degraded, loudly.
        EXPECT_EQ(outcome.result.stream, baseline.stream) << label;
        EXPECT_EQ(outcome.result.telemetry, baseline.telemetry) << label;
        if (outcome.result.stats.journal_degraded) {
            EXPECT_FALSE(outcome.result.stats.journal_degraded_error.empty())
                << label << ": degraded without an attributed error";
            return 'd';
        }
        return 'c';
    }
    // Refused: the error must be attributed (never a bare what()), and
    // scrub + reduce on the real disk must complete byte-identically.
    EXPECT_FALSE(outcome.error.empty()) << label;
    const ScrubReport scrubbed = scrub_journal(options.journal_dir);
    (void)scrubbed;  // any classification is fine; reduce is the proof
    const SweepResult reduced =
        run_campaign(population, options, /*io=*/nullptr, /*reduce=*/true);
    EXPECT_EQ(reduced.stream, baseline.stream) << label << " (post-scrub reduce)";
    EXPECT_EQ(reduced.telemetry, baseline.telemetry) << label << " (post-scrub reduce)";
    return 't';
}

// --- The fault-plan × injection-point sweep ----------------------------------

TEST_F(DiskChaosTest, EveryFaultPlanCompletesIdenticallyOrRefusesLoudly) {
    const web::Population population = tiny_population();
    ScanOptions base;
    base.chunk_domains = 2;  // several batch files → publishes mid-run
    base.journal_retry.initial_backoff = util::Duration::millis(1);
    base.journal_retry.max_backoff = util::Duration::millis(2);
    const SweepResult baseline =
        run_campaign(population, base, /*io=*/nullptr, /*reduce=*/false);
    ASSERT_GT(baseline.stream.size(), 0u);

    struct Cell {
        const char* kind;
        std::uint64_t n;
    };
    std::vector<Cell> cells = {
        {"fail_write", 1},  {"fail_write", 3},  {"short_write", 2},
        {"enospc", 2000},   {"fail_fsync", 1},  {"power_loss", 4},
    };
    if (full_sweep()) {
        for (const std::uint64_t n : {2ull, 4ull, 5ull, 6ull, 8ull}) {
            cells.push_back({"fail_write", n});
            cells.push_back({"power_loss", n});
        }
        cells.push_back({"short_write", 1});
        cells.push_back({"short_write", 4});
        cells.push_back({"enospc", 500});
        cells.push_back({"enospc", 6000});
        cells.push_back({"fail_fsync", 2});
        cells.push_back({"fail_fsync", 3});
    }
    const std::vector<unsigned> threads =
        full_sweep() ? std::vector<unsigned>{1, 2, 8} : std::vector<unsigned>{1, 2};

    std::string outcomes;
    for (const unsigned t : threads) {
        for (const Cell& cell : cells) {
            faults::StorageFaultPlan plan;
            if (std::string{cell.kind} == "fail_write") {
                plan.fail_write_at = cell.n;
                plan.write_error = ENOSPC;
            } else if (std::string{cell.kind} == "short_write") {
                plan.short_write_at = cell.n;
            } else if (std::string{cell.kind} == "enospc") {
                plan.enospc_after_bytes = cell.n;
            } else if (std::string{cell.kind} == "fail_fsync") {
                plan.fail_fsync_at = cell.n;
            } else {
                plan.power_loss_at_write = cell.n;
            }
            ScanOptions options = base;
            options.threads = t;
            options.journal_dir =
                (dir_ / (std::string{cell.kind} + "_" + std::to_string(cell.n) +
                         "_t" + std::to_string(t)))
                    .string();
            const std::string label = std::string{cell.kind} + "@" +
                                      std::to_string(cell.n) + " threads=" +
                                      std::to_string(t);
            outcomes += expect_no_silent_corruption(population, options, plan,
                                                    baseline, label);
        }
    }
    // The sweep must actually provoke a degrade somewhere; a matrix whose
    // every cell completes cleanly is too tame to mean anything.
    EXPECT_NE(outcomes.find('d'), std::string::npos)
        << "no plan degraded (outcomes: " << outcomes << ")";
    EXPECT_EQ(outcomes.size(), cells.size() * threads.size());
}

TEST_F(DiskChaosTest, DegradedCampaignIsLoudAndItsJournalPrefixIsUsable) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "degraded").string();
    options.chunk_domains = 2;
    options.journal_retry.initial_backoff = util::Duration::millis(1);
    options.journal_retry.max_backoff = util::Duration::millis(2);
    const SweepResult baseline =
        run_campaign(population, options, /*io=*/nullptr, /*reduce=*/false);
    const auto header_bytes = std::filesystem::file_size(map_header_path(options.journal_dir));
    const auto batch_bytes = std::filesystem::file_size(
        map_batch_path(options.journal_dir, {0, kMapBatchChunks - 1}));
    std::filesystem::remove_all(options.journal_dir);

    // The disk fills half way into the second batch: the header and the
    // first batch land, then a publish fails with ENOSPC (fatal, not
    // transient) and the campaign degrades. (Half a batch of slack: the
    // records' wall-clock phase timers vary their length run to run.)
    faults::StorageFaultPlan plan;
    plan.enospc_after_bytes = header_bytes + batch_bytes + batch_bytes / 2;
    faults::FaultIo io{util::Io::real(), plan};
    Campaign campaign{population, [&] {
        ScanOptions faulted = options;
        faulted.io = &io;
        return faulted;
    }()};
    telemetry::MetricsRegistry registry;
    campaign.set_metrics(&registry);
    std::string stream;
    const CampaignStats stats =
        campaign.run([&](const web::Domain&, DomainScan&& scan) {
            stream += render_scan_stream(scan);
        });

    // Degraded, loud, attributed — and the OUTPUT is still byte-identical.
    EXPECT_TRUE(stats.journal_degraded);
    EXPECT_NE(stats.journal_degraded_error.find("No space left"), std::string::npos)
        << stats.journal_degraded_error;
    EXPECT_GT(stats.journal_records_appended, 0u);
    EXPECT_EQ(stream, baseline.stream);
    const auto* degraded = registry.find_counter("campaign.journal.degraded");
    ASSERT_NE(degraded, nullptr);
    EXPECT_EQ(degraded->value(), 1u);
    EXPECT_NE(registry.find_counter("campaign.journal.io_errors.fatal"), nullptr);

    // The batches the degrade left behind are an ordinary valid journal:
    // scrub finds nothing corrupt, reduce completes.
    EXPECT_TRUE(scrub_journal(options.journal_dir).clean());
    EXPECT_EQ(list_map_chunks(options.journal_dir).size(), stats.journal_records_appended);
    const SweepResult reduced =
        run_campaign(population, options, /*io=*/nullptr, /*reduce=*/true);
    EXPECT_EQ(reduced.stream, baseline.stream);
    EXPECT_EQ(reduced.telemetry, baseline.telemetry);
}

TEST_F(DiskChaosTest, BitFlipAfterSealIsCaughtByScrubAndResumeIsIdentical) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "flip").string();
    options.chunk_domains = 2;
    const SweepResult baseline =
        run_campaign(population, options, /*io=*/nullptr, /*reduce=*/false);
    std::filesystem::remove_all(options.journal_dir);

    // The second rename (the first batch's publish; the header is the
    // first) flips one bit in the published file. The campaign itself
    // cannot notice (the syscall succeeded) — this is the silent-corruption
    // case that scrub exists to catch.
    faults::StorageFaultPlan plan;
    plan.flip_bit_at_rename = 2;
    const FaultOutcome outcome = run_faulted(population, options, plan);
    ASSERT_FALSE(outcome.threw) << outcome.error;
    EXPECT_EQ(outcome.result.stream, baseline.stream);

    const ScrubReport report = scrub_journal(options.journal_dir);
    ASSERT_FALSE(report.clean()) << "scrub missed the flipped bit";
    EXPECT_EQ(report.findings[0].damage, ScrubDamage::corrupt_map_chunk)
        << to_cstring(report.findings[0].damage);
    EXPECT_EQ(report.chunks_to_rescan.size(), kMapBatchChunks);

    const SweepResult reduced =
        run_campaign(population, options, /*io=*/nullptr, /*reduce=*/true);
    EXPECT_EQ(reduced.stream, baseline.stream);
    EXPECT_EQ(reduced.telemetry, baseline.telemetry);
}

TEST_F(DiskChaosTest, TransientWriteErrorsAreRetriedInvisibly) {
    // EINTR is transient: the journal retries and the campaign neither
    // degrades nor throws — and the journal replays completely afterwards.
    const web::Population population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "transient").string();
    options.journal_retry.initial_backoff = util::Duration::millis(1);
    options.journal_retry.max_backoff = util::Duration::millis(2);
    const SweepResult baseline =
        run_campaign(population, options, /*io=*/nullptr, /*reduce=*/false);
    std::filesystem::remove_all(options.journal_dir);

    faults::StorageFaultPlan plan;
    plan.fail_write_at = 2;  // the batch publish (the header is write 1)
    plan.write_error = EINTR;
    const FaultOutcome outcome = run_faulted(population, options, plan);
    ASSERT_FALSE(outcome.threw) << outcome.error;
    EXPECT_FALSE(outcome.result.stats.journal_degraded)
        << outcome.result.stats.journal_degraded_error;
    EXPECT_EQ(outcome.result.stream, baseline.stream);

    const MapReplayResult replay = read_map_journal(options.journal_dir);
    EXPECT_TRUE(replay.has_header);
    EXPECT_EQ(replay.corrupt_chunks, 0u);
    const std::size_t chunk_count =
        (outcome.result.stats.domains_scanned + options.chunk_domains - 1) /
        options.chunk_domains;
    EXPECT_EQ(replay.chunks.size(), chunk_count) << "a record was silently dropped";
}

// --- Multi-process: FaultIo under --procs ------------------------------------

#ifndef _WIN32

TEST_F(DiskChaosTest, ProcsOnAFullDiskRefuseLoudlyAndRecoverAfterScrub) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "procs_enospc").string();
    const SweepResult baseline =
        run_campaign(population, [&] {
            ScanOptions plain = options;
            plain.journal_dir.clear();
            return plain;
        }(), /*io=*/nullptr, /*reduce=*/false);

    for (const unsigned procs : full_sweep() ? std::vector<unsigned>{1, 2}
                                             : std::vector<unsigned>{2}) {
        const auto journal =
            dir_ / ("procs_enospc_" + std::to_string(procs));
        ScanOptions faulted = options;
        faulted.journal_dir = journal.string();
        faults::StorageFaultPlan plan;
        plan.enospc_after_bytes = 600;  // room for the header, little else
        faults::FaultIo io{util::Io::real(), plan};
        faulted.io = &io;

        Campaign campaign{population, faulted};
        telemetry::MetricsRegistry faulted_registry;
        campaign.set_metrics(&faulted_registry);
        ProcPoolOptions pool;
        pool.procs = procs;
        pool.heartbeat_interval = util::Duration::millis(2);
        pool.proc_restart.initial_backoff = util::Duration::millis(1);
        pool.proc_restart.max_backoff = util::Duration::millis(2);
        pool.chunk_attempts = 100;  // publish failures must not quarantine
        bool threw = false;
        std::string error;
        try {
            (void)run_procs(campaign, pool);
        } catch (const std::exception& e) {
            threw = true;
            error = e.what();
        }
        // Workers exit 3 on failed publishes, restarts burn out, and the
        // supervisor's inline completion hits the same full disk: the pass
        // must refuse with the storage cause attributed — never report a
        // complete map journal it does not have.
        ASSERT_TRUE(threw) << "procs=" << procs;
        EXPECT_NE(error.find("No space left"), std::string::npos) << error;

        // Recovery on a real disk: scrub, then continue the SAME map journal
        // (fresh=false) and reduce — byte-identical to the fault-free run.
        (void)scrub_journal(journal);
        ScanOptions healthy = options;
        healthy.journal_dir = journal.string();
        Campaign retry{population, healthy};
        telemetry::MetricsRegistry registry;
        retry.set_metrics(&registry);
        ProcPoolOptions resume_pool = pool;
        resume_pool.fresh = false;
        const ProcPoolReport report = run_procs(retry, resume_pool);
        EXPECT_EQ(report.chunks_recorded, report.chunks_total);
        std::string stream;
        (void)retry.reduce([&](const web::Domain&, DomainScan&& scan) {
            stream += render_scan_stream(scan);
        });
        EXPECT_EQ(stream, baseline.stream) << "procs=" << procs;
        EXPECT_EQ(telemetry::deterministic_csv(registry), baseline.telemetry)
            << "procs=" << procs;
    }
}

TEST_F(DiskChaosTest, ProcsAbsorbAOneShotPublishFaultAndStayByteIdentical) {
    // One write fails with a retryable-looking EIO in each forked worker's
    // private fault state; the worker dies with the publish-failed exit code
    // and its replacement (fresh incarnation, fresh ordinal count... but the
    // fault already fired in the parent's copied state only when reached)
    // finishes the pass. The supervisor must report the absorbed io errors.
    const web::Population population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "procs_oneshot").string();
    const SweepResult baseline =
        run_campaign(population, [&] {
            ScanOptions plain = options;
            plain.journal_dir.clear();
            return plain;
        }(), /*io=*/nullptr, /*reduce=*/false);

    faults::StorageFaultPlan plan;
    plan.fail_write_at = 4;  // lands on an early lease bump or publish
    plan.write_error = EIO;
    faults::FaultIo io{util::Io::real(), plan};
    ScanOptions faulted = options;
    faulted.io = &io;
    Campaign campaign{population, faulted};
    telemetry::MetricsRegistry registry;
    campaign.set_metrics(&registry);
    ProcPoolOptions pool;
    pool.procs = 2;
    pool.heartbeat_interval = util::Duration::millis(2);
    pool.proc_restart.initial_backoff = util::Duration::millis(1);
    pool.proc_restart.max_backoff = util::Duration::millis(2);
    pool.proc_restart.max_attempts = 5;
    pool.chunk_attempts = 100;

    bool threw = false;
    std::string error;
    ProcPoolReport report;
    try {
        report = run_procs(campaign, pool);
    } catch (const std::exception& e) {
        threw = true;
        error = e.what();
    }
    if (threw) {
        // Allowed outcome: loud, attributed refusal + real-disk recovery.
        EXPECT_FALSE(error.empty());
        ScanOptions healthy = options;
        Campaign retry{population, healthy};
        ProcPoolOptions resume_pool = pool;
        resume_pool.fresh = false;
        (void)run_procs(retry, resume_pool);
        std::string stream;
        (void)retry.reduce([&](const web::Domain&, DomainScan&& scan) {
            stream += render_scan_stream(scan);
        });
        EXPECT_EQ(stream, baseline.stream);
        return;
    }
    // Completed: the map pass is full and the reduce is byte-identical.
    EXPECT_EQ(report.chunks_recorded, report.chunks_total);
    std::string stream;
    (void)campaign.reduce([&](const web::Domain&, DomainScan&& scan) {
        stream += render_scan_stream(scan);
    });
    EXPECT_EQ(stream, baseline.stream);
    EXPECT_EQ(telemetry::deterministic_csv(registry), baseline.telemetry);
}

#endif  // !_WIN32

}  // namespace
}  // namespace spinscope::scanner
