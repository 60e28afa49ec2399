// Seeded decoder sweeps over the journal's codecs, fed with the output of
// one small real campaign: binary chunk records (serialize_chunk_record /
// parse_chunk_record), binary telemetry snapshots (snapshot /
// parse_snapshot) and the JSON-lines trace export (to_jsonl / parse_jsonl).
//
// For every decoder: serialize ∘ parse is the identity on every real
// encoding, and 10,000 seeded single-byte flips never crash. The binary
// codecs are canonical: every truncation and every single-bit flip of a real
// encoding is rejected or re-encodes to exactly the mutated bytes. An
// accepted JSON-lines mutant decodes to a fixed point of one more
// serialize → parse round. Decoders read from exactly-sized heap copies, so
// a sanitizer build reports any read past the end of the input.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "qlog/trace.hpp"
#include "scanner/campaign.hpp"
#include "scanner/journal.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"
#include "web/population.hpp"

namespace spinscope::scanner {
namespace {

constexpr int kFlipsPerDecoder = 10'000;

/// The input bytes in a heap block of exactly their size: reading one byte
/// past the end is a heap overflow, not a read of a string's terminator.
class ExactCopy {
public:
    explicit ExactCopy(std::string_view bytes)
        : data_{std::make_unique<char[]>(bytes.size())}, size_{bytes.size()} {
        std::copy(bytes.begin(), bytes.end(), data_.get());
    }
    [[nodiscard]] std::string_view view() const { return {data_.get(), size_}; }

private:
    std::unique_ptr<char[]> data_;
    std::size_t size_;
};

/// Real campaign output: every chunk of a ~110-domain universe with a
/// metrics registry attached and some faulty hosts, plus one chunk
/// re-labelled as quarantined so its error text is exercised.
struct Corpus {
    std::vector<std::string> records;
    std::vector<std::string> traces;
    std::vector<std::string> snapshots;
    /// A one-domain record holding the chunk scan with the most trace bytes
    /// and its chunk's snapshot: the payload of the truncation sweep.
    std::string small_record;
};

const Corpus& corpus() {
    static const Corpus built = [] {
        web::PopulationConfig config;
        config.scale = 2'000'000.0;
        config.seed = 1;
        config.host_fault_rate = 0.3;
        const web::PopulationModel population{config};
        Campaign campaign{population, {}};
        telemetry::MetricsRegistry registry;
        campaign.set_metrics(&registry);

        Corpus out;
        std::size_t best_trace_bytes = 0;
        for (std::size_t c = 0; c < campaign.chunk_count(); ++c) {
            ScannedChunk chunk = campaign.scan_chunk(c);
            for (const DomainScan& scan : chunk.scans) {
                std::size_t trace_bytes = 0;
                for (const qlog::Trace& trace : scan.connections) {
                    out.traces.push_back(qlog::to_jsonl(trace));
                    trace_bytes += out.traces.back().size();
                }
                if (trace_bytes > best_trace_bytes) {
                    best_trace_bytes = trace_bytes;
                    ChunkRecord one{c, false, "", {scan}, chunk.telemetry_snapshot};
                    out.small_record = serialize_chunk_record(one);
                }
            }
            out.snapshots.push_back(chunk.telemetry_snapshot);
            ChunkRecord record{c, c == 1, c == 1 ? "worker died: 100% of 2 tries" : "",
                               std::move(chunk.scans), std::move(chunk.telemetry_snapshot)};
            out.records.push_back(serialize_chunk_record(record));
        }
        return out;
    }();
    return built;
}

/// Serialize ∘ parse, or nullopt when the decoder rejects `bytes`.
std::optional<std::string> record_round(std::string_view bytes) {
    const ExactCopy copy{bytes};
    const auto record = parse_chunk_record(copy.view());
    if (!record) return std::nullopt;
    return serialize_chunk_record(*record);
}

std::optional<std::string> trace_round(std::string_view bytes) {
    const ExactCopy copy{bytes};
    const auto trace = qlog::parse_jsonl(copy.view());
    if (!trace) return std::nullopt;
    return qlog::to_jsonl(*trace);
}

std::optional<std::string> snapshot_round(std::string_view bytes) {
    const ExactCopy copy{bytes};
    const auto registry = telemetry::parse_snapshot(copy.view());
    if (!registry) return std::nullopt;
    return telemetry::snapshot(*registry);
}

using Round = std::optional<std::string> (*)(std::string_view);

/// Flips one seeded byte of a seeded corpus entry at a time. An accepted
/// mutant must re-encode to bytes the decoder accepts and re-encodes to
/// themselves; with `canonical`, to the mutant itself.
void flip_sweep(const std::vector<std::string>& inputs, Round round, std::uint64_t seed,
                bool canonical) {
    ASSERT_FALSE(inputs.empty());
    util::Rng rng{seed};
    int accepted = 0;
    for (int i = 0; i < kFlipsPerDecoder; ++i) {
        std::string mutant = inputs[rng.uniform_u64(inputs.size())];
        if (mutant.empty()) continue;
        const std::size_t at = rng.uniform_u64(mutant.size());
        mutant[at] = static_cast<char>(mutant[at] ^ (1 + rng.uniform_u64(255)));
        const auto once = round(mutant);
        if (!once) continue;
        ++accepted;
        if (canonical) {
            ASSERT_EQ(*once, mutant) << "flip " << i << " at byte " << at;
        }
        const auto twice = round(*once);
        ASSERT_TRUE(twice.has_value()) << "flip " << i << " at byte " << at;
        ASSERT_EQ(*twice, *once) << "flip " << i << " at byte " << at;
    }
    ::testing::Test::RecordProperty("accepted_mutants", accepted);
}

/// Every single-bit flip of every input: rejected, or re-encoded to exactly
/// the flipped bytes.
void bit_flip_sweep(const std::vector<std::string>& inputs, Round round) {
    ASSERT_FALSE(inputs.empty());
    int accepted = 0;
    for (const std::string& input : inputs) {
        std::string mutant = input;
        for (std::size_t at = 0; at < mutant.size(); ++at) {
            for (int bit = 0; bit < 8; ++bit) {
                mutant[at] = static_cast<char>(input[at] ^ (1 << bit));
                const auto again = round(mutant);
                if (again) {
                    ++accepted;
                    ASSERT_EQ(*again, mutant) << "bit " << bit << " of byte " << at;
                }
            }
            mutant[at] = input[at];
        }
    }
    ::testing::Test::RecordProperty("accepted_mutants", accepted);
}

/// Every proper prefix of every input: rejected, or (the empty prefix of a
/// codec whose empty form is valid) re-encoded to exactly the prefix.
void truncation_sweep(const std::vector<std::string>& inputs, Round round) {
    for (const std::string& input : inputs) {
        ASSERT_TRUE(round(input).has_value());
        for (std::size_t n = 0; n < input.size(); ++n) {
            const std::string_view prefix = std::string_view{input}.substr(0, n);
            const auto again = round(prefix);
            if (again) {
                ASSERT_EQ(*again, prefix) << n << " of " << input.size() << " bytes";
            }
        }
    }
}

TEST(CodecSweep, CorpusCoversEveryCodec) {
    const Corpus& c = corpus();
    EXPECT_GE(c.records.size(), 5u);
    EXPECT_GE(c.traces.size(), 50u);
    EXPECT_FALSE(c.small_record.empty());
    EXPECT_TRUE(std::any_of(c.snapshots.begin(), c.snapshots.end(), [](const std::string& s) {
        const auto registry = telemetry::parse_snapshot(s);
        const auto* hist =
            registry ? registry->find(telemetry::HistogramId::quic_conn_min_rtt_ms) : nullptr;
        return hist != nullptr && hist->count() > 0;
    }));
}

TEST(CodecSweep, ChunkRecordRoundTripIsTheIdentity) {
    for (const std::string& payload : corpus().records) {
        const auto again = record_round(payload);
        ASSERT_TRUE(again.has_value());
        EXPECT_EQ(*again, payload);
    }
}

TEST(CodecSweep, TraceRoundTripIsTheIdentity) {
    for (const std::string& text : corpus().traces) {
        const auto again = trace_round(text);
        ASSERT_TRUE(again.has_value()) << text;
        EXPECT_EQ(*again, text);
    }
}

TEST(CodecSweep, SnapshotRoundTripIsTheIdentity) {
    for (const std::string& text : corpus().snapshots) {
        const auto again = snapshot_round(text);
        ASSERT_TRUE(again.has_value()) << text;
        EXPECT_EQ(*again, text);
    }
}

TEST(CodecSweep, EveryTruncatedRecordPayloadIsRejected) {
    const std::string& payload = corpus().small_record;
    ASSERT_TRUE(record_round(payload).has_value());
    for (std::size_t n = 0; n < payload.size(); ++n) {
        ASSERT_FALSE(record_round(std::string_view{payload}.substr(0, n)).has_value())
            << "prefix of " << n << " of " << payload.size() << " bytes";
    }
    truncation_sweep(corpus().records, record_round);
}

TEST(CodecSweep, EveryTruncatedSnapshotIsRejectedOrEmpty) {
    truncation_sweep(corpus().snapshots, snapshot_round);
}

TEST(CodecSweep, ChunkRecordByteFlipsAreRejectedOrStable) {
    flip_sweep({corpus().small_record}, record_round, 0xF11700001, /*canonical=*/true);
}

TEST(CodecSweep, TraceByteFlipsAreRejectedOrStable) {
    flip_sweep(corpus().traces, trace_round, 0xF11700002, /*canonical=*/false);
}

TEST(CodecSweep, SnapshotByteFlipsAreRejectedOrStable) {
    flip_sweep(corpus().snapshots, snapshot_round, 0xF11700003, /*canonical=*/true);
}

TEST(CodecSweep, ChunkRecordBitFlipsAreRejectedOrReencodeExactly) {
    // The record with the most trace bytes and the quarantined chunk's whole
    // record: every field kind, in ~1 s rather than the ~7 s of all records.
    bit_flip_sweep({corpus().small_record, corpus().records[1]}, record_round);
}

TEST(CodecSweep, SnapshotBitFlipsAreRejectedOrReencodeExactly) {
    bit_flip_sweep(corpus().snapshots, snapshot_round);
}

}  // namespace
}  // namespace spinscope::scanner
