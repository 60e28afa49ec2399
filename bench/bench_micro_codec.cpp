// bench/bench_micro_codec.cpp
//
// google-benchmark microbenchmarks of the wire codecs and trackers — not a
// paper reproduction, but the performance floor of the measurement
// infrastructure (a passive observer must keep up with line rate).

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "qlog/trace.hpp"
#include "quic/ack_tracker.hpp"
#include "quic/frame.hpp"
#include "quic/packet.hpp"
#include "quic/rtt_estimator.hpp"
#include "quic/varint.hpp"
#include "scanner/campaign.hpp"
#include "scanner/journal.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "web/population.hpp"

namespace {

using namespace spinscope;

void BM_VarintEncode(benchmark::State& state) {
    const auto value = static_cast<std::uint64_t>(state.range(0));
    std::vector<std::uint8_t> out;
    out.reserve(16);
    for (auto _ : state) {
        out.clear();
        quic::encode_varint(out, value);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_VarintEncode)->Arg(37)->Arg(15293)->Arg(494878333)->Arg(1LL << 40);

void BM_VarintDecode(benchmark::State& state) {
    std::vector<std::uint8_t> wire;
    quic::encode_varint(wire, static_cast<std::uint64_t>(state.range(0)));
    for (auto _ : state) {
        auto decoded = quic::decode_varint(wire);
        benchmark::DoNotOptimize(decoded);
    }
}
BENCHMARK(BM_VarintDecode)->Arg(37)->Arg(15293)->Arg(494878333)->Arg(1LL << 40);

void BM_ShortHeaderEncode(benchmark::State& state) {
    quic::PacketHeader header;
    header.type = quic::PacketType::one_rtt;
    header.dcid = quic::ConnectionId::from_u64(0x1122334455667788ULL);
    header.packet_number = 123456;
    header.spin = true;
    const std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)), 0xab);
    std::vector<std::uint8_t> wire;
    wire.reserve(1500);
    for (auto _ : state) {
        wire.clear();
        quic::encode_packet(wire, header, payload, 123400);
        benchmark::DoNotOptimize(wire.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ShortHeaderEncode)->Arg(64)->Arg(1200);

void BM_ShortHeaderDecode(benchmark::State& state) {
    quic::PacketHeader header;
    header.type = quic::PacketType::one_rtt;
    header.dcid = quic::ConnectionId::from_u64(0x1122334455667788ULL);
    header.packet_number = 123456;
    const std::vector<std::uint8_t> payload(1200, 0x01);  // PADDING bytes
    std::vector<std::uint8_t> wire;
    quic::encode_packet(wire, header, payload, 123400);
    for (auto _ : state) {
        auto decoded = quic::decode_packet(wire, 8, 123455);
        benchmark::DoNotOptimize(decoded);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_ShortHeaderDecode);

void BM_PeekShortHeader(benchmark::State& state) {
    quic::PacketHeader header;
    header.type = quic::PacketType::one_rtt;
    header.dcid = quic::ConnectionId::from_u64(7);
    header.spin = true;
    std::vector<std::uint8_t> wire;
    quic::encode_packet(wire, header, {}, quic::kInvalidPacketNumber);
    for (auto _ : state) {
        auto view = quic::peek_short_header(wire);
        benchmark::DoNotOptimize(view);
    }
}
BENCHMARK(BM_PeekShortHeader);

void BM_AckFrameRoundTrip(benchmark::State& state) {
    std::vector<quic::AckRange> ranges;
    std::uint64_t pn = 1'000'000;
    for (int i = 0; i < state.range(0); ++i) {
        ranges.push_back(quic::AckRange{pn - 3, pn});
        pn -= 10;
    }
    quic::AckFrame ack;
    ack.ranges = ranges;
    std::vector<std::uint8_t> wire;
    quic::DecodedFrames decoded;
    for (auto _ : state) {
        wire.clear();
        quic::Writer w{wire};
        quic::encode_frame(w, quic::Frame{ack}, 3);
        benchmark::DoNotOptimize(quic::decode_frames(wire, 3, decoded));
    }
}
BENCHMARK(BM_AckFrameRoundTrip)->Arg(1)->Arg(8)->Arg(32);

void BM_AckTrackerInsert(benchmark::State& state) {
    const bool with_holes = state.range(0) != 0;
    for (auto _ : state) {
        state.PauseTiming();
        quic::AckTracker tracker{{2, util::Duration::millis(25)}};
        state.ResumeTiming();
        for (quic::PacketNumber pn = 0; pn < 256; ++pn) {
            if (with_holes && pn % 7 == 3) continue;
            tracker.on_packet_received(pn, true, util::TimePoint::origin());
        }
        benchmark::DoNotOptimize(tracker.largest_received());
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_AckTrackerInsert)->Arg(0)->Arg(1);

void BM_RttEstimator(benchmark::State& state) {
    util::Rng rng{1};
    quic::RttEstimator rtt;
    for (auto _ : state) {
        rtt.add_sample(util::Duration::micros(30'000 + rng.uniform_i64(0, 5000)),
                       util::Duration::micros(rng.uniform_i64(0, 25'000)),
                       util::Duration::millis(25), true);
        benchmark::DoNotOptimize(rtt.smoothed_rtt());
    }
}
BENCHMARK(BM_RttEstimator);

void BM_QlogSerialize(benchmark::State& state) {
    qlog::Trace trace;
    trace.host = "www.example.com";
    trace.ip = "10.1.2.3";
    trace.outcome = qlog::ConnectionOutcome::ok;
    for (int i = 0; i < state.range(0); ++i) {
        trace.record_received({util::TimePoint::from_nanos(i * 1000),
                               quic::PacketType::one_rtt,
                               static_cast<quic::PacketNumber>(i), i % 2 == 0, 1200, true, 0});
    }
    for (auto _ : state) {
        auto text = qlog::to_jsonl(trace);
        benchmark::DoNotOptimize(text.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QlogSerialize)->Arg(50)->Arg(500);

void BM_QlogParse(benchmark::State& state) {
    qlog::Trace trace;
    trace.host = "www.example.com";
    trace.ip = "10.1.2.3";
    for (int i = 0; i < state.range(0); ++i) {
        trace.record_received({util::TimePoint::from_nanos(i * 1000),
                               quic::PacketType::one_rtt,
                               static_cast<quic::PacketNumber>(i), i % 2 == 0, 1200, true, 0});
    }
    const auto text = qlog::to_jsonl(trace);
    for (auto _ : state) {
        auto parsed = qlog::parse_jsonl(text);
        benchmark::DoNotOptimize(parsed);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QlogParse)->Arg(50)->Arg(500);

/// Journal payloads of a real ~1k-domain campaign (1:200000 of the Table 1
/// universe, seed 1, metrics registry attached): every chunk's record, its
/// serialized payload and its telemetry snapshot, as a campaign writes them
/// and Campaign::reduce reads them back.
struct JournalCorpus {
    std::vector<scanner::ChunkRecord> chunks;
    std::vector<std::string> records;
    std::vector<std::string> snapshots;
    std::int64_t record_bytes = 0;
    std::int64_t snapshot_bytes = 0;
};

const JournalCorpus& journal_corpus() {
    static const JournalCorpus corpus = [] {
        const web::PopulationModel population{{200'000.0, 1}};
        scanner::Campaign campaign{population, {}};
        telemetry::MetricsRegistry registry;
        campaign.set_metrics(&registry);
        JournalCorpus out;
        for (std::size_t c = 0; c < campaign.chunk_count(); ++c) {
            scanner::ScannedChunk chunk = campaign.scan_chunk(c);
            out.snapshots.push_back(chunk.telemetry_snapshot);
            out.snapshot_bytes += static_cast<std::int64_t>(chunk.telemetry_snapshot.size());
            out.chunks.push_back({c, false, "", std::move(chunk.scans),
                                  std::move(chunk.telemetry_snapshot)});
            out.records.push_back(scanner::serialize_chunk_record(out.chunks.back()));
            out.record_bytes += static_cast<std::int64_t>(out.records.back().size());
        }
        return out;
    }();
    return corpus;
}

void BM_ChunkRecordSerialize(benchmark::State& state) {
    const JournalCorpus& corpus = journal_corpus();
    for (auto _ : state) {
        for (const scanner::ChunkRecord& chunk : corpus.chunks) {
            auto payload = scanner::serialize_chunk_record(chunk);
            benchmark::DoNotOptimize(payload.data());
        }
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * corpus.record_bytes);
}
BENCHMARK(BM_ChunkRecordSerialize);

void BM_ChunkRecordParse(benchmark::State& state) {
    const JournalCorpus& corpus = journal_corpus();
    for (auto _ : state) {
        for (const std::string& payload : corpus.records) {
            auto parsed = scanner::parse_chunk_record(payload);
            benchmark::DoNotOptimize(parsed);
        }
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * corpus.record_bytes);
}
BENCHMARK(BM_ChunkRecordParse);

/// The path Campaign::reduce takes: every record decoded in place into one
/// ChunkRecord, whose storage the earlier records already grew.
void BM_ChunkRecordParseReused(benchmark::State& state) {
    const JournalCorpus& corpus = journal_corpus();
    scanner::ChunkRecord record;
    for (auto _ : state) {
        for (const std::string& payload : corpus.records) {
            const bool parsed = scanner::parse_chunk_record(payload, record);
            benchmark::DoNotOptimize(parsed);
        }
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * corpus.record_bytes);
}
BENCHMARK(BM_ChunkRecordParseReused);

void BM_SnapshotParse(benchmark::State& state) {
    const JournalCorpus& corpus = journal_corpus();
    for (auto _ : state) {
        for (const std::string& text : corpus.snapshots) {
            auto parsed = telemetry::parse_snapshot(text);
            benchmark::DoNotOptimize(parsed);
        }
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            corpus.snapshot_bytes);
}
BENCHMARK(BM_SnapshotParse);

void BM_Crc32(benchmark::State& state) {
    util::Rng rng{7};
    std::string data(static_cast<std::size_t>(state.range(0)), '\0');
    for (char& c : data) c = static_cast<char>(rng.next());
    for (auto _ : state) {
        benchmark::DoNotOptimize(util::crc32(data));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
