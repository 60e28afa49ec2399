// Crash-safe campaign suite (DESIGN.md §11): record round-trips, batch-file
// naming and validation, kill-and-reduce byte-identity, worker supervision
// (restart + quarantine) and scrub.
//
// The recovery contract under test: a journaled campaign killed at ANY chunk
// boundary and then reduced produces byte-identical sink streams, stats and
// deterministic telemetry to an uninterrupted run, at every thread count —
// and a campaign whose chunks crash or hang completes degraded instead of
// dying.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "golden.hpp"
#include "scanner/campaign.hpp"
#include "scanner/journal.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/checksum.hpp"
#include "web/population.hpp"

namespace spinscope::scanner {
namespace {

using spinscope::testing::render_scan_stream;

// ~110 domains at seed 1 — 7 chunks at the default chunk_domains=16, small
// enough that the boundary × thread-count kill sweep stays fast.
web::PopulationModel tiny_population() { return web::PopulationModel{{2'000'000.0, 1}}; }

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
    header.population_seed = 20230520;
    header.catalog = telemetry::kCatalogFingerprint;
    return header;
}

ChunkRecord sample_chunk(std::size_t index) {
    ChunkRecord record;
    record.chunk_index = index;
    DomainScan scan;
    scan.domain_id = static_cast<std::uint32_t>(100 + index);
    scan.resolved = true;
    scan.redirects_followed = 1;
    scan.error = "weird bytes: % space\nnewline";
    ResponseInfo response;
    response.status = 301;
    response.body_bytes = 12345;
    response.location = "www.target.example";
    response.server_name = "nginx 1.2";
    scan.final_response = response;
    scan.attempts.push_back(DomainScan::AttemptRecord{
        1, qlog::ConnectionOutcome::protocol_error, faults::ServerFaultMode::none});
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

/// Publishes `content` as the batch file of `batch` in `dir`.
bool write_batch(const std::filesystem::path& dir, MapBatch batch, std::string_view content) {
    return util::write_file_atomic(util::Io::real(), map_batch_path(dir, batch), content).ok();
}

void flip_byte(const std::filesystem::path& path, std::uint64_t offset) {
    std::fstream file{path, std::ios::binary | std::ios::in | std::ios::out};
    char byte = 0;
    file.seekg(static_cast<std::streamoff>(offset));
    file.get(byte);
    file.seekp(static_cast<std::streamoff>(offset));
    file.put(static_cast<char>(byte ^ 0x01));
}

/// A read_map_journal visitor that keeps every record in `out`.
auto collect_into(std::vector<ChunkRecord>& out) {
    return [&out](ChunkRecord&& record) { out.push_back(std::move(record)); };
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
    EXPECT_EQ(scan.error, "weird bytes: % space\nnewline");
    ASSERT_TRUE(scan.final_response.has_value());
    EXPECT_EQ(scan.final_response->status, 301);
    EXPECT_EQ(scan.final_response->body_bytes, 12345u);
    EXPECT_EQ(scan.final_response->location, "www.target.example");
    EXPECT_EQ(scan.final_response->server_name, "nginx 1.2");
    ASSERT_EQ(scan.attempts.size(), 1u);
    EXPECT_EQ(scan.attempts[0].redirect_hop, 1);
    EXPECT_EQ(scan.attempts[0].outcome, qlog::ConnectionOutcome::protocol_error);
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

TEST_F(JournalTest, DecodersAcceptOnlyTheWritersForm) {
    const std::string payload = serialize_chunk_record(sample_chunk(4));
    // The payload starts: tag, index 4, quarantined 0, an empty error, one
    // domain, domain id 104 (a two-byte varint), the scan's flags byte.
    ASSERT_EQ(payload.substr(1, 6), std::string("\x04\x00\x00\x01\x40\x68", 6));
    const auto with = [&](std::size_t at, std::size_t n, std::string_view to) {
        return std::string{payload}.replace(at, n, to);
    };
    ASSERT_TRUE(parse_chunk_record(payload).has_value());
    EXPECT_FALSE(parse_chunk_record(payload + '\0').has_value()) << "trailing byte";
    // Varints are minimal: 0x40 0x04 is an overlong 4.
    EXPECT_FALSE(parse_chunk_record(with(1, 1, "\x40\x04")).has_value());
    EXPECT_FALSE(parse_chunk_record(with(2, 1, "\x02")).has_value()) << "quarantined=2";
    EXPECT_FALSE(parse_chunk_record(with(7, 1, "\x0f")).has_value()) << "reserved flag bit";
    // A domain id past uint32: the 8-byte varint of 2^32.
    EXPECT_FALSE(
        parse_chunk_record(with(5, 2, std::string("\xc0\x00\x00\x01\x00\x00\x00\x00", 8)))
            .has_value());
    // Counts and lengths past the bytes left: 0x7f 0xff is 16383.
    EXPECT_FALSE(parse_chunk_record(with(4, 1, "\x7f\xff")).has_value()) << "domain count";
    EXPECT_FALSE(parse_chunk_record(with(3, 1, "\x7f\xff")).has_value()) << "error length";
    // Enums past their last value: what the writer emits for them, the reader
    // refuses.
    const auto rejects = [](auto&& edit) {
        ChunkRecord record = sample_chunk(4);
        edit(record.scans[0]);
        return !parse_chunk_record(serialize_chunk_record(record)).has_value();
    };
    EXPECT_TRUE(rejects([](DomainScan& scan) {
        scan.attempts[0].outcome = static_cast<qlog::ConnectionOutcome>(qlog::kConnectionOutcomeCount);
    }));
    EXPECT_TRUE(rejects([](DomainScan& scan) {
        scan.attempts[0].server_fault =
            static_cast<faults::ServerFaultMode>(faults::kServerFaultModeCount);
    }));
    EXPECT_TRUE(rejects([](DomainScan& scan) {
        scan.connections[0].outcome =
            static_cast<qlog::ConnectionOutcome>(qlog::kConnectionOutcomeCount);
    }));
    EXPECT_TRUE(rejects([](DomainScan& scan) {
        scan.connections[0].received[0].type = static_cast<quic::PacketType>(6);
    }));
    // The old text form is not a record.
    EXPECT_FALSE(parse_chunk_record("chunk index=4 quarantined=0 error= domains=0\ntelemetry 0\n")
                     .has_value());

    const std::string header = serialize_header(sample_header());
    // tag, seed 0x5ca7 (a four-byte varint), week 3 (zigzag 6), flags.
    ASSERT_EQ(header.substr(5, 2), std::string("\x06\x03", 2));
    EXPECT_FALSE(parse_header(header + '\0').has_value());
    EXPECT_FALSE(parse_header(std::string{header}.replace(5, 1, "\x40\x06")).has_value());
    EXPECT_FALSE(parse_header(std::string{header}.replace(6, 1, "\x07")).has_value());
    EXPECT_FALSE(parse_header("campaign seed=23719 week=3 ipv6=1 chunk_domains=16 "
                              "domain_count=110 telemetry=1\n")
                     .has_value());

    // A frame head is `#rec <decimal length> <%08x crc>`.
    init_map_journal(dir_, sample_header(), /*wipe=*/true);
    const std::string framed = frame_record(payload);
    ASSERT_TRUE(write_batch(dir_, {4, 4}, framed));
    ASSERT_TRUE(read_map_batch(dir_, {4, 4}).has_value());
    ASSERT_TRUE(write_batch(dir_, {4, 4}, std::string{framed}.insert(5, "0")));
    EXPECT_FALSE(read_map_batch(dir_, {4, 4}).has_value());
    char upper_head[48];
    std::snprintf(upper_head, sizeof upper_head, "#rec %zu %08X\n", payload.size(),
                  util::crc32(payload));
    ASSERT_NE(framed.substr(0, framed.find('\n') + 1), upper_head);
    ASSERT_TRUE(write_batch(dir_, {4, 4}, upper_head + payload));
    EXPECT_FALSE(read_map_batch(dir_, {4, 4}).has_value());
}

// --- JSON-lines compatibility oracle --------------------------------------
//
// The binary record keeps exactly what qlog::to_jsonl prints: a decoded trace
// equals parse_jsonl(to_jsonl(original)), so every output rendered from a
// reduce is the one the text journal produced.

/// The golden fixtures' universe (tests/golden/): ~1k domains at seed 1.
web::PopulationModel golden_population() { return web::PopulationModel{{200000.0, 1}}; }

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST_F(JournalTest, GoldenCampaignTracesDecodeToWhatJsonlPrints) {
    const web::PopulationModel population = golden_population();
    const Campaign campaign{population, {}};
    std::size_t traces = 0;
    for (std::size_t c = 0; c < campaign.chunk_count(); ++c) {
        const ChunkRecord chunk = campaign.scan_chunk(c);
        const std::vector<DomainScan>& original = chunk.scans;
        const auto parsed = parse_chunk_record(serialize_chunk_record(chunk));
        ASSERT_TRUE(parsed.has_value()) << "chunk " << c;
        ASSERT_EQ(parsed->scans.size(), original.size());
        for (std::size_t d = 0; d < original.size(); ++d) {
            const auto& decoded = parsed->scans[d].connections;
            ASSERT_EQ(decoded.size(), original[d].connections.size());
            for (std::size_t t = 0; t < decoded.size(); ++t) {
                const std::string jsonl = qlog::to_jsonl(original[d].connections[t]);
                ASSERT_EQ(qlog::to_jsonl(decoded[t]), jsonl);
                // to_jsonl prints six decimals; the doubles match bit for bit.
                const auto oracle = qlog::parse_jsonl(jsonl);
                ASSERT_TRUE(oracle.has_value());
                const qlog::RecoveryMetrics& m = decoded[t].metrics;
                EXPECT_EQ(bits(m.min_rtt_ms), bits(oracle->metrics.min_rtt_ms));
                EXPECT_EQ(bits(m.smoothed_rtt_ms), bits(oracle->metrics.smoothed_rtt_ms));
                ASSERT_EQ(m.rtt_samples_ms.size(), oracle->metrics.rtt_samples_ms.size());
                for (std::size_t i = 0; i < m.rtt_samples_ms.size(); ++i) {
                    EXPECT_EQ(bits(m.rtt_samples_ms[i]), bits(oracle->metrics.rtt_samples_ms[i]));
                }
                ++traces;
            }
        }
    }
    EXPECT_GT(traces, 500u);
}

TEST_F(JournalTest, JournaledGoldenCampaignReducesToTheGoldenFixtures) {
    const web::PopulationModel population = golden_population();
    ScanOptions options;
    options.journal_dir = dir_.string();
    {
        Campaign writer{population, options};
        telemetry::MetricsRegistry registry;
        writer.set_metrics(&registry);
        (void)writer.run([](const web::Domain&, DomainScan&&) {});
    }
    Campaign reader{population, options};
    telemetry::MetricsRegistry registry;
    reader.set_metrics(&registry);
    std::string traces;
    std::size_t emitted = 0;
    (void)reader.reduce([&](const web::Domain&, DomainScan&& scan) {
        if (emitted >= 25) return;  // the fixture holds the first 25 streams
        ++emitted;
        traces += render_scan_stream(scan);
    });
    const auto* replayed =
        registry.find(telemetry::CounterId::campaign_journal_records_replayed);
    ASSERT_NE(replayed, nullptr);
    EXPECT_EQ(replayed->value(), reader.chunk_count()) << "every chunk comes from the journal";
    EXPECT_TRUE(spinscope::testing::matches_golden("campaign_small.traces.jsonl", traces));
    EXPECT_TRUE(spinscope::testing::matches_golden("campaign_small.telemetry.csv",
                                                   telemetry::deterministic_csv(registry)));
}

// --- In-place decode ----------------------------------------------------------
//
// Campaign::reduce decodes every record into one ChunkRecord, so a decode
// must overwrite every field a record held before, whatever a sink did to it.

/// A universe with faulty hosts (server faults, redirects, failed attempts)
/// whose chunk 3 crashes on every execution and is quarantined.
web::PopulationModel faulty_population() {
    web::PopulationConfig config;
    config.scale = 2'000'000.0;
    config.seed = 1;
    config.host_fault_rate = 0.3;
    return web::PopulationModel{config};
}

ScanOptions faulty_options(const std::filesystem::path& dir) {
    ScanOptions options;
    options.journal_dir = dir.string();
    options.chunk_fault_hook = [](std::size_t chunk) {
        if (chunk == 3) throw std::runtime_error("poisoned chunk");
    };
    return options;
}

/// Every record payload in the journal at `dir`, as its files hold them.
std::vector<std::string> journal_payloads(const std::filesystem::path& dir) {
    std::vector<std::string> payloads;
    for (const MapBatch& batch : list_map_batches(dir)) {
        std::ifstream file{map_batch_path(dir, batch), std::ios::binary};
        std::string bytes{std::istreambuf_iterator<char>{file}, {}};
        std::string_view rest = bytes;
        while (!rest.empty()) {
            const auto size = frame_size(rest);
            EXPECT_TRUE(size && *size > 0);
            if (!size || *size == 0) return {};
            const std::string_view frame = rest.substr(0, *size);
            payloads.emplace_back(frame.substr(frame.find('\n') + 1));
            rest.remove_prefix(*size);
        }
    }
    return payloads;
}

/// Every field of `scan`, as the journal writes it.
std::string scan_bytes(const DomainScan& scan) {
    ChunkRecord one;
    one.scans.push_back(scan);
    return serialize_chunk_record(one);
}

TEST_F(JournalTest, OneReusedRecordDecodesEveryRecordOfARealJournal) {
    const web::PopulationModel population = faulty_population();
    ScanOptions options = faulty_options(dir_);
    options.chunk_domains = 1;  // a record per domain: some hold much, some nothing
    {
        Campaign campaign{population, options};
        telemetry::MetricsRegistry registry;
        campaign.set_metrics(&registry);
        (void)campaign.run([](const web::Domain&, DomainScan&&) {});
    }
    std::vector<std::string> payloads = journal_payloads(dir_);
    ASSERT_EQ(payloads.size(), population.domain_count());
    // Largest first, then smallest first: every record that holds something
    // comes before one that lacks it, and every small one before a large one.
    std::stable_sort(payloads.begin(), payloads.end(),
                     [](const std::string& a, const std::string& b) { return a.size() > b.size(); });
    const std::vector<std::string> largest_first = payloads;
    payloads.insert(payloads.end(), largest_first.rbegin(), largest_first.rend());

    // What the order must exercise: a field set, then left unset.
    const std::vector<std::pair<const char*, bool (*)(const ChunkRecord&)>> features = {
        {"response", [](const ChunkRecord& r) { return r.scans[0].final_response.has_value(); }},
        {"error", [](const ChunkRecord& r) { return !r.scans[0].error.empty(); }},
        {"quarantine", [](const ChunkRecord& r) { return r.quarantined; }},
        {"redirect", [](const ChunkRecord& r) { return r.scans[0].redirects_followed > 0; }},
        {"telemetry", [](const ChunkRecord& r) { return !r.telemetry_snapshot.empty(); }},
        {"long trace",
         [](const ChunkRecord& r) {
             return std::any_of(r.scans[0].connections.begin(), r.scans[0].connections.end(),
                                [](const qlog::Trace& t) { return t.received.size() >= 30; });
         }},
    };
    std::vector<int> seen(features.size(), 0);  // bit 0: set, bit 1: unset after set

    ChunkRecord reused;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
        reused.restarts = 5;  // in-memory only: a decode reads 0
        ASSERT_TRUE(parse_chunk_record(payloads[i], reused)) << i;
        ASSERT_EQ(serialize_chunk_record(reused), payloads[i]) << "record " << i;
        EXPECT_EQ(reused.restarts, 0);
        for (std::size_t f = 0; f < features.size(); ++f) {
            seen[f] |= features[f].second(reused) ? 1 : (seen[f] & 1) << 1;
        }
    }
    for (std::size_t f = 0; f < features.size(); ++f) {
        EXPECT_EQ(seen[f], 3) << features[f].first << " never set and then unset";
    }
}

TEST_F(JournalTest, ReduceStreamsScansASinkMovesFromAsRunDoes) {
    const web::PopulationModel population = faulty_population();
    const ScanOptions options = faulty_options(dir_);
    std::string streams[2];
    for (const bool reduce : {false, true}) {
        Campaign campaign{population, options};
        telemetry::MetricsRegistry registry;
        campaign.set_metrics(&registry);
        std::vector<DomainScan> kept;
        const auto sink = [&](const web::Domain&, DomainScan&& scan) {
            kept.push_back(std::move(scan));
        };
        const CampaignStats stats = reduce ? campaign.reduce(sink) : campaign.run(sink);
        EXPECT_EQ(stats.chunks_quarantined, 1u);
        for (const DomainScan& scan : kept) streams[reduce ? 1 : 0] += scan_bytes(scan);
        if (reduce) {
            const auto* replayed =
                registry.find(telemetry::CounterId::campaign_journal_records_replayed);
            ASSERT_NE(replayed, nullptr);
            EXPECT_EQ(replayed->value(), campaign.chunk_count());
        }
    }
    EXPECT_EQ(streams[1], streams[0]);
}

// --- Record files ------------------------------------------------------------

TEST_F(JournalTest, BatchFilesRoundTripAndAChunkFileIsABatchOfOne) {
    init_map_journal(dir_, sample_header(), /*wipe=*/true);
    ASSERT_TRUE(write_batch(dir_, {0, 2}, framed_batch(0, 2)));
    ASSERT_TRUE(write_map_chunk(dir_, sample_chunk(5)));
    EXPECT_EQ(map_batch_path(dir_, {0, 2}).filename(), "chunk-00000-00002.rec");
    EXPECT_EQ(map_batch_path(dir_, {5, 5}).filename(), "chunk-00005.rec");
    // Neither an interrupted publish's temp file nor any other chunk-named
    // file is a record.
    std::ofstream{dir_ / "chunk-00007.rec.tmp.1.2"} << "partial";
    std::ofstream{dir_ / "chunk-00008.txt"} << "notes\n";

    EXPECT_EQ(list_map_batches(dir_), (std::vector<MapBatch>{{0, 2}, {5, 5}}));
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
    std::vector<ChunkRecord> chunks;
    const MapReplayResult replay = read_map_journal(dir_, collect_into(chunks));
    EXPECT_TRUE(replay.has_header);
    EXPECT_EQ(chunks.size(), 4u);
    EXPECT_EQ(replay.chunks_read, 4u);
    EXPECT_EQ(replay.corrupt_chunks, 0u);
}

TEST_F(JournalTest, ReplayOfMissingOrEmptyDirectoryIsEmpty) {
    std::vector<ChunkRecord> chunks;
    const MapReplayResult missing = read_map_journal(dir_ / "nope", collect_into(chunks));
    EXPECT_FALSE(missing.has_header);
    EXPECT_TRUE(chunks.empty());
    EXPECT_EQ(missing.chunks_read, 0u);
    EXPECT_EQ(missing.corrupt_chunks, 0u);
    EXPECT_TRUE(list_map_batches(dir_ / "nope").empty());

    std::filesystem::create_directories(dir_);
    EXPECT_FALSE(read_map_journal(dir_, collect_into(chunks)).has_header);
    EXPECT_TRUE(chunks.empty());
    EXPECT_TRUE(scrub_journal(dir_).clean());
}

TEST_F(JournalTest, ChecksumCorruptionCutsReplayAtTheCorruptRecord) {
    init_map_journal(dir_, sample_header(), /*wipe=*/true);
    ASSERT_TRUE(write_batch(dir_, {0, 3}, framed_batch(0, 3)));
    ASSERT_TRUE(write_batch(dir_, {4, 5}, framed_batch(4, 5)));
    // Flip one payload byte in the middle of the first batch: its CRC fails,
    // and the WHOLE batch counts as unscanned — never a partial batch.
    const auto victim = map_batch_path(dir_, {0, 3});
    flip_byte(victim, std::filesystem::file_size(victim) / 2);
    EXPECT_FALSE(read_map_batch(dir_, {0, 3}).has_value());

    std::vector<ChunkRecord> chunks;
    const MapReplayResult replay = read_map_journal(dir_, collect_into(chunks));
    ASSERT_TRUE(replay.has_header);
    EXPECT_EQ(replay.corrupt_chunks, 4u);
    ASSERT_EQ(chunks.size(), 2u);
    EXPECT_EQ(chunks[0].chunk_index, 4u);
    EXPECT_EQ(chunks[1].chunk_index, 5u);

    // Trailing bytes past the last frame and a file whose records do not
    // match its name are rejected the same way.
    {
        std::ofstream out{map_batch_path(dir_, {4, 5}), std::ios::binary | std::ios::app};
        out << "#rec";
    }
    EXPECT_FALSE(read_map_batch(dir_, {4, 5}).has_value());
    ASSERT_TRUE(write_batch(dir_, {6, 7}, framed_batch(7, 8)));
    EXPECT_FALSE(read_map_batch(dir_, {6, 7}).has_value());
}

TEST_F(JournalTest, AttachRejectsAForeignCampaignHeader) {
    init_map_journal(dir_, sample_header(), /*wipe=*/true);
    ASSERT_TRUE(write_batch(dir_, {0, 1}, framed_batch(0, 1)));
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
    EXPECT_EQ(a.domains_errored, b.domains_errored);
    EXPECT_EQ(a.outcomes, b.outcomes);
    EXPECT_EQ(a.server_faults, b.server_faults);
}

SweepResult run_to_completion(const web::PopulationModel& population, const ScanOptions& options,
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

// A journal of another universe, or one whose telemetry snapshots are keyed
// by another build's metric catalog, is a different campaign: resuming it
// throws before a record is replayed (a foreign snapshot would not parse,
// and foreign scans would merge into the wrong domains).
TEST_F(JournalTest, ReduceRefusesAJournalOfAnotherPopulationOrCatalog) {
    const web::PopulationModel population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "foreign").string();
    (void)run_to_completion(population, options, /*reduce=*/false);
    const auto batches = list_map_batches(options.journal_dir);
    ASSERT_FALSE(batches.empty());

    const web::PopulationModel other_seed{{2'000'000.0, 2}};
    ASSERT_EQ(other_seed.domain_count(), population.domain_count());
    EXPECT_THROW((void)run_to_completion(other_seed, options, /*reduce=*/true),
                 std::invalid_argument);

    std::vector<ChunkRecord> chunks;
    MapReplayResult replay = read_map_journal(options.journal_dir, collect_into(chunks));
    ASSERT_TRUE(replay.has_header);
    EXPECT_EQ(replay.header.population_seed, 1u);
    EXPECT_EQ(replay.header.catalog, telemetry::kCatalogFingerprint);
    CampaignHeader other_catalog = replay.header;
    other_catalog.catalog ^= 1;
    ASSERT_TRUE(util::write_file_atomic(util::Io::real(), map_header_path(options.journal_dir),
                                        frame_record(serialize_header(other_catalog)))
                    .ok());
    EXPECT_THROW((void)run_to_completion(population, options, /*reduce=*/true),
                 std::invalid_argument);
    // Neither refusal touched the records.
    EXPECT_EQ(list_map_batches(options.journal_dir), batches);
    chunks.clear();
    replay = read_map_journal(options.journal_dir, collect_into(chunks));
    EXPECT_EQ(replay.corrupt_chunks, 0u);
    EXPECT_EQ(chunks.size(), Campaign(population, options).chunk_count());
}

/// Runs a journaled campaign and kills it (exception out of the sink) once
/// `kill_after` domains have been merged; kill_after = 0 kills on the very
/// first merge. Returns true when the kill fired (a large kill_after may let
/// the run complete).
bool run_and_kill(const web::PopulationModel& population, const ScanOptions& options,
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
    const web::PopulationModel population = tiny_population();
    ScanOptions options;
    options.chunk_domains = 4;  // two batch files
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
    const web::PopulationModel population = tiny_population();
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
    const web::PopulationModel population = tiny_population();
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

TEST_F(JournalTest, OldTextJournalIsRescannedLikeADamagedOne) {
    // A journal from the text-record format: CRC-valid frames around text
    // payloads. Nothing in it parses, so the reduce rescans every chunk and
    // rewrites the header and the batch in the binary form.
    const web::PopulationModel population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "text").string();
    const SweepResult baseline = run_to_completion(population, options, /*reduce=*/false);
    const MapBatch batch{0, 6};
    ASSERT_EQ(list_map_batches(options.journal_dir), std::vector<MapBatch>{batch});
    ASSERT_TRUE(util::write_file_atomic(util::Io::real(), map_header_path(options.journal_dir),
                                        frame_record("campaign seed=1 week=57 ipv6=0 "
                                                     "chunk_domains=16 domain_count=110 "
                                                     "telemetry=1\n"))
                    .ok());
    std::string text_batch;
    for (std::size_t c = batch.first; c <= batch.last; ++c) {
        text_batch += frame_record("chunk index=" + std::to_string(c) +
                                   " quarantined=0 error= domains=0\ntelemetry 0\n");
    }
    ASSERT_TRUE(write_batch(options.journal_dir, batch, text_batch));
    std::vector<ChunkRecord> chunks;
    const MapReplayResult replay = read_map_journal(options.journal_dir, collect_into(chunks));
    EXPECT_FALSE(replay.has_header);
    EXPECT_EQ(replay.chunks_read, 0u);
    EXPECT_EQ(replay.corrupt_chunks, batch.size());
    EXPECT_EQ(scrub_journal(options.journal_dir, {.repair = false}).chunks_to_rescan.size(),
              batch.size());

    std::atomic<std::size_t> chunks_scanned{0};
    ScanOptions reduce_options = options;
    reduce_options.chunk_fault_hook = [&](std::size_t) { ++chunks_scanned; };
    const SweepResult reduced = run_to_completion(population, reduce_options, /*reduce=*/true);
    EXPECT_EQ(chunks_scanned.load(), batch.size());
    EXPECT_EQ(reduced.stream, baseline.stream);
    EXPECT_EQ(reduced.telemetry, baseline.telemetry);
    expect_same_stats(reduced.stats, baseline.stats);
    EXPECT_TRUE(read_map_batch(options.journal_dir, batch).has_value());
    EXPECT_TRUE(scrub_journal(options.journal_dir, {.repair = false}).clean());
}

/// Reduces the journal of the finished seed-1 campaign `seed1`, whose header
/// the caller made unusable, as seed 2. A journal without a valid header
/// names no campaign, so no seed-1 record may be replayed: every chunk is
/// rescanned, and the result is the unjournaled seed-2 run.
void expect_seed2_reduce_rescans_every_chunk(const web::PopulationModel& population,
                                             const ScanOptions& seed1) {
    ScanOptions seed2 = seed1;
    seed2.seed = 2;
    ScanOptions unjournaled = seed2;
    unjournaled.journal_dir.clear();
    const SweepResult expected = run_to_completion(population, unjournaled, /*reduce=*/false);

    std::atomic<std::size_t> chunks_scanned{0};
    seed2.chunk_fault_hook = [&](std::size_t) { ++chunks_scanned; };
    const SweepResult reduced = run_to_completion(population, seed2, /*reduce=*/true);
    EXPECT_EQ(chunks_scanned.load(), Campaign(population, seed2).chunk_count());
    EXPECT_EQ(reduced.stream, expected.stream);
    EXPECT_EQ(reduced.telemetry, expected.telemetry);
    expect_same_stats(reduced.stats, expected.stats);
    std::vector<ChunkRecord> chunks;
    const MapReplayResult replay = read_map_journal(seed2.journal_dir, collect_into(chunks));
    ASSERT_TRUE(replay.has_header);
    EXPECT_EQ(replay.header.seed, 2u);
}

TEST_F(JournalTest, UnreadableHeaderMeansNoRecordIsReplayed) {
    // A CRC-valid frame of junk in header.rec names no campaign.
    const web::PopulationModel population = tiny_population();
    ScanOptions seed1;
    seed1.seed = 1;
    seed1.journal_dir = (dir_ / "junk-header").string();
    (void)run_to_completion(population, seed1, /*reduce=*/false);
    ASSERT_FALSE(list_map_batches(seed1.journal_dir).empty());
    ASSERT_TRUE(util::write_file_atomic(util::Io::real(), map_header_path(seed1.journal_dir),
                                        frame_record("no campaign header at all"))
                    .ok());
    expect_seed2_reduce_rescans_every_chunk(population, seed1);
}

TEST_F(JournalTest, MissingHeaderMeansNoRecordIsReplayed) {
    // Chunk files without a header.rec beside them name no campaign either.
    const web::PopulationModel population = tiny_population();
    ScanOptions seed1;
    seed1.seed = 1;
    seed1.journal_dir = (dir_ / "no-header").string();
    (void)run_to_completion(population, seed1, /*reduce=*/false);
    ASSERT_FALSE(list_map_batches(seed1.journal_dir).empty());
    ASSERT_TRUE(std::filesystem::remove(map_header_path(seed1.journal_dir)));
    const ScrubReport report = scrub_journal(seed1.journal_dir, {.repair = false});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].damage, ScrubDamage::header_corrupt);
    EXPECT_EQ(report.chunks_to_rescan.size(), Campaign(population, seed1).chunk_count());
    expect_seed2_reduce_rescans_every_chunk(population, seed1);
}

TEST_F(JournalTest, UnparseableRecordMidBatchIsRescannedAndTheBatchRepublished) {
    const web::PopulationModel population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "unparseable").string();
    const SweepResult baseline = run_to_completion(population, options, /*reduce=*/false);
    const MapBatch batch{0, 6};  // the 7 chunks share one batch file
    ASSERT_EQ(list_map_batches(options.journal_dir), std::vector<MapBatch>{batch});
    const auto path = map_batch_path(options.journal_dir, batch);
    const auto read_bytes = [&] {
        std::ifstream in{path, std::ios::binary};
        return std::string{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
    };

    // Re-frame chunk 3's record around a payload that passes its CRC but not
    // the parser: every frame checks out, the batch does not.
    const std::string bytes = read_bytes();
    std::string edited;
    std::size_t prefix_bytes = 0;
    for (std::size_t c = 0, pos = 0; c < batch.size(); ++c) {
        const auto size = frame_size(std::string_view{bytes}.substr(pos));
        ASSERT_TRUE(size.has_value() && *size > 0) << "chunk " << c;
        if (c == 3) prefix_bytes = pos;
        edited += c == 3 ? frame_record("chunk index=3 garbled\n") : bytes.substr(pos, *size);
        pos += *size;
    }
    ASSERT_TRUE(write_batch(options.journal_dir, batch, edited));
    EXPECT_FALSE(read_map_batch(options.journal_dir, batch).has_value());
    std::vector<ChunkRecord> chunks;
    const MapReplayResult replay = read_map_journal(options.journal_dir, collect_into(chunks));
    EXPECT_EQ(replay.chunks_read, 3u);
    EXPECT_EQ(replay.corrupt_chunks, 4u);

    // The reduce merges chunks 0..2 from the journal, rescans 3..6 and
    // republishes the whole batch: byte-identical output either way.
    std::atomic<std::size_t> chunks_scanned{0};
    ScanOptions reduce_options = options;
    reduce_options.chunk_fault_hook = [&](std::size_t) { ++chunks_scanned; };
    const SweepResult reduced = run_to_completion(population, reduce_options, /*reduce=*/true);
    EXPECT_EQ(chunks_scanned.load(), 4u);
    EXPECT_EQ(reduced.order, baseline.order);
    EXPECT_EQ(reduced.stream, baseline.stream);
    EXPECT_EQ(reduced.telemetry, baseline.telemetry);
    expect_same_stats(reduced.stats, baseline.stats);
    EXPECT_TRUE(read_map_batch(options.journal_dir, batch).has_value())
        << "the batch was not republished";
    EXPECT_EQ(read_bytes().substr(0, prefix_bytes), bytes.substr(0, prefix_bytes))
        << "the replayed records must be republished byte for byte";
}

TEST_F(JournalTest, ResumeOfCompleteJournalRescansNothing) {
    const web::PopulationModel population = tiny_population();
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
    const web::PopulationModel population = tiny_population();
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

TEST_F(JournalTest, FreshRunReplacesAnotherCampaignsJournal) {
    const web::PopulationModel population = tiny_population();
    ScanOptions first;
    first.journal_dir = (dir_ / "reused").string();
    first.chunk_domains = 4;  // two batch files
    (void)run_to_completion(population, first, /*reduce=*/false);
    ASSERT_EQ(list_map_batches(first.journal_dir).size(), 2u);

    ScanOptions second = first;
    second.week = 5;
    second.chunk_domains = 16;  // one batch file
    const SweepResult fresh = run_to_completion(population, second, /*reduce=*/false);

    // Only the second campaign's header and records remain, and they replay
    // its sink stream exactly.
    const std::size_t chunk_count = (fresh.order.size() + 15) / 16;
    EXPECT_EQ(list_map_batches(second.journal_dir),
              (std::vector<MapBatch>{{0, chunk_count - 1}}));
    std::string stream;
    const MapReplayResult replay =
        read_map_journal(second.journal_dir, [&](ChunkRecord&& record) {
            for (const DomainScan& scan : record.scans) stream += render_scan_stream(scan);
        });
    ASSERT_TRUE(replay.has_header);
    EXPECT_EQ(replay.header.week, 5);
    EXPECT_EQ(replay.header.chunk_domains, 16u);
    EXPECT_EQ(replay.chunks_read, chunk_count);
    EXPECT_EQ(replay.corrupt_chunks, 0u);
    EXPECT_EQ(stream, fresh.stream);
}

// --- Worker supervision ------------------------------------------------------

TEST_F(JournalTest, TransientChunkCrashIsRestartedWithIdenticalOutput) {
    const web::PopulationModel population = tiny_population();
    ScanOptions options;
    const SweepResult baseline = run_to_completion(population, options, /*reduce=*/false);

    ScanOptions faulty = options;
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
    const web::PopulationModel population = tiny_population();
    ScanOptions options;
    options.threads = 4;
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

    // Two poisoned chunks on four threads: both are restarted once, then
    // quarantined, and their placeholders reach the sink in domain order
    // between the healthy chunks' scans.
    ScanOptions two = options;
    two.journal_dir.clear();
    two.chunk_fault_hook = [](std::size_t chunk) {
        if (chunk == 1 || chunk == 5) throw std::runtime_error("poisoned chunk");
    };
    Campaign twice{population, two};
    telemetry::TraceRecorder trace;
    twice.set_trace(&trace);
    std::vector<std::uint32_t> order;
    std::vector<std::uint32_t> placeholders;
    const CampaignStats two_stats =
        twice.run([&](const web::Domain& domain, DomainScan&& scan) {
            order.push_back(domain.id);
            if (scan.error == "chunk quarantined: poisoned chunk") {
                placeholders.push_back(scan.domain_id);
            }
        });
    EXPECT_EQ(two_stats.chunks_quarantined, 2u);
    EXPECT_EQ(two_stats.worker_restarts, 2u);
    ASSERT_EQ(order.size(), two_stats.domains_scanned);
    for (std::size_t i = 0; i < order.size(); ++i) ASSERT_EQ(order[i], i);
    std::vector<std::uint32_t> expected;
    for (const std::size_t chunk : {1u, 5u}) {
        for (std::size_t j = 0; j < two.chunk_domains; ++j) {
            expected.push_back(static_cast<std::uint32_t>(chunk * two.chunk_domains + j));
        }
    }
    EXPECT_EQ(placeholders, expected);
    // Each quarantine is a wall-clock instant on the merge lane naming the
    // chunk, its executions and the last error.
    const std::string wall = trace.to_json(telemetry::TraceClock::wall);
    const std::string merge_tid =
        "\"tid\":" + std::to_string(trace.lane(telemetry::TraceClock::wall, "merge")) + ",";
    for (const std::size_t chunk : {1u, 5u}) {
        const std::string instant =
            "\"name\":\"quarantine\",\"cat\":\"wall\",\"args\":{\"chunk\":" +
            std::to_string(chunk) + ",\"attempts\":2,\"error\":\"poisoned chunk\"}";
        const std::size_t at = wall.find(instant);
        ASSERT_NE(at, std::string::npos) << "chunk " << chunk;
        const std::size_t event = wall.rfind("{\"ph\":\"i\"", at);
        ASSERT_NE(event, std::string::npos);
        EXPECT_NE(wall.substr(event, at - event).find(merge_tid), std::string::npos)
            << "chunk " << chunk << ": the instant must be on the merge lane";
    }
}

TEST_F(JournalTest, CorruptBatchRescanIsSupervisedLikeAFirstScan) {
    const web::PopulationModel population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "rescan").string();
    const SweepResult baseline = run_to_completion(population, options, /*reduce=*/false);
    const MapBatch batch{0, 6};  // the 7 chunks share one batch file
    ASSERT_EQ(list_map_batches(options.journal_dir), std::vector<MapBatch>{batch});
    const auto victim = map_batch_path(options.journal_dir, batch);

    // A transient crash while the reduce rescans the bit-flipped batch is
    // restarted exactly as on a first scan: identical output, one restart.
    flip_byte(victim, std::filesystem::file_size(victim) / 2);
    ScanOptions transient = options;
    std::atomic<bool> crashed{false};
    transient.chunk_fault_hook = [&](std::size_t chunk) {
        if (chunk == 2 && !crashed.exchange(true)) {
            throw std::runtime_error("injected transient chunk crash");
        }
    };
    const SweepResult reduced = run_to_completion(population, transient, /*reduce=*/true);
    EXPECT_TRUE(crashed.load());
    EXPECT_EQ(reduced.stats.worker_restarts, 1u);
    EXPECT_EQ(reduced.stats.chunks_quarantined, 0u);
    EXPECT_EQ(reduced.stream, baseline.stream);
    EXPECT_EQ(reduced.telemetry, baseline.telemetry);
    expect_same_stats(reduced.stats, baseline.stats);
    EXPECT_TRUE(read_map_batch(options.journal_dir, batch).has_value());

    // A persistent crash costs the chunk, never the reduce: it completes
    // degraded and republishes the batch with the chunk quarantined.
    flip_byte(victim, std::filesystem::file_size(victim) / 2);
    ScanOptions persistent = options;
    persistent.chunk_fault_hook = [](std::size_t chunk) {
        if (chunk == 2) throw std::runtime_error("poisoned chunk");
    };
    const SweepResult degraded = run_to_completion(population, persistent, /*reduce=*/true);
    EXPECT_EQ(degraded.order, baseline.order);
    EXPECT_EQ(degraded.stats.worker_restarts, 1u);
    EXPECT_EQ(degraded.stats.chunks_quarantined, 1u);
    EXPECT_EQ(degraded.stats.domains_quarantined, options.chunk_domains);
    const auto republished = read_map_batch(options.journal_dir, batch);
    ASSERT_TRUE(republished.has_value());
    ASSERT_EQ(republished->size(), 7u);
    for (const ChunkRecord& record : *republished) {
        EXPECT_EQ(record.quarantined, record.chunk_index == 2) << record.chunk_index;
    }
    EXPECT_EQ((*republished)[2].quarantine_error, "poisoned chunk");
    EXPECT_EQ((*republished)[2].scans.front().error, "chunk quarantined: poisoned chunk");
}

// --- Scrub: offline verify / repair (DESIGN.md §16) --------------------------
//
// The corruption corpus: each case damages a journal in a distinct way, then
// asserts that scrub_journal classifies the damage correctly, quarantines it
// (never deletes bytes), and that a reduce over the scrubbed journal is
// byte-identical to an uninterrupted run — the no-silent-corruption
// invariant end to end.

TEST_F(JournalTest, ScrubOfCleanJournalFindsNothing) {
    const web::PopulationModel population = tiny_population();
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

TEST_F(JournalTest, ScrubQuarantinesACorruptHeaderAndReduceRescansEveryChunk) {
    const web::PopulationModel population = tiny_population();
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
    EXPECT_EQ(report.chunks_intact, 7u);
    // Intact records beside a header that names no campaign are not trusted.
    EXPECT_EQ(report.chunks_to_rescan, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6}));
    EXPECT_GT(report.bytes_discarded, 0u);
    // Quarantined, never deleted: the damaged header lives under corrupt/.
    EXPECT_TRUE(std::filesystem::exists(std::filesystem::path{options.journal_dir} /
                                        "corrupt" / "header.rec"));
    EXPECT_FALSE(std::filesystem::exists(header));

    // Reduce republishes the header and rescans every chunk.
    std::atomic<std::size_t> chunks_scanned{0};
    ScanOptions reduce_options = options;
    reduce_options.chunk_fault_hook = [&](std::size_t) { ++chunks_scanned; };
    const SweepResult reduced =
        run_to_completion(population, reduce_options, /*reduce=*/true);
    EXPECT_EQ(chunks_scanned.load(), 7u);
    EXPECT_EQ(reduced.stream, baseline.stream);
    EXPECT_EQ(reduced.telemetry, baseline.telemetry);
    expect_same_stats(reduced.stats, baseline.stats);
    EXPECT_TRUE(read_map_journal(options.journal_dir, [](ChunkRecord&&) {}).has_header);
}

TEST_F(JournalTest, ScrubListsEveryChunkOfABitFlippedBatchAndReduceIsIdentical) {
    const web::PopulationModel population = tiny_population();
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
        std::ofstream out{map_batch_path(dir_, {1, 1}), std::ios::binary | std::ios::trunc};
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
    EXPECT_FALSE(std::filesystem::exists(map_batch_path(dir_, {1, 1})));
    EXPECT_TRUE(std::filesystem::exists(dir_ / "corrupt" / "chunk-00001.rec"));
    std::vector<ChunkRecord> chunks;
    const MapReplayResult replay = read_map_journal(dir_, collect_into(chunks));
    EXPECT_EQ(chunks.size(), 2u);
    EXPECT_EQ(replay.corrupt_chunks, 0u);
}

TEST_F(JournalTest, ScrubWithoutRepairOnlyClassifies) {
    const web::PopulationModel population = tiny_population();
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

}  // namespace
}  // namespace spinscope::scanner
